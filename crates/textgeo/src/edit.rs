//! Damerau–Levenshtein (optimal string alignment) edit distance for
//! typo-tolerant district-name matching.
//!
//! [`within_one_edit`] is the hot path: the matcher's fuzzy pass only asks
//! "distance ≤ 1?" of every ASCII token against every district name, and
//! this answers it byte-wise in linear time without allocating.
//! [`bounded_damerau_levenshtein`] is the general reference: it computes
//! the distance up to any bound over Unicode scalar values and pins
//! `within_one_edit` in the tests.

use std::cmp::Ordering;

/// Whether `a` and `b` are at most one edit apart: equal, or one
/// substitution, insertion, deletion or adjacent transposition. Compares
/// bytes, so it agrees with `bounded_damerau_levenshtein(a, b, 1).is_some()`
/// whenever both inputs are ASCII.
pub fn within_one_edit(a: &[u8], b: &[u8]) -> bool {
    if a.len().abs_diff(b.len()) > 1 {
        return false;
    }
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    if a.is_empty() || b.is_empty() {
        // Equal, or one byte appended.
        return true;
    }
    // The suffixes differ in their first byte, so the one edit must be
    // there: delete it, insert it, substitute it, or swap it with the next.
    match a.len().cmp(&b.len()) {
        Ordering::Greater => a[1..] == *b,
        Ordering::Less => *a == b[1..],
        Ordering::Equal => {
            a[1..] == b[1..] || (a.len() >= 2 && a[0] == b[1] && a[1] == b[0] && a[2..] == b[2..])
        }
    }
}

/// Optimal-string-alignment distance between `a` and `b`, or `None` if it
/// exceeds `max`. Operates on Unicode scalar values.
pub fn bounded_damerau_levenshtein(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > max {
        return None;
    }
    if n == 0 {
        return (m <= max).then_some(m);
    }
    if m == 0 {
        return (n <= max).then_some(n);
    }

    // Three rolling rows for the transposition term.
    let mut prev2: Vec<usize> = vec![usize::MAX; m + 1];
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur: Vec<usize> = vec![0; m + 1];

    for i in 1..=n {
        cur[0] = i;
        let mut row_min = cur[0];
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut d = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(prev2[j - 2] + 1);
            }
            cur[j] = d;
            row_min = row_min.min(d);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[m];
    (d <= max).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_are_zero() {
        assert_eq!(bounded_damerau_levenshtein("seoul", "seoul", 2), Some(0));
        assert_eq!(bounded_damerau_levenshtein("", "", 0), Some(0));
    }

    #[test]
    fn substitutions_insertions_deletions() {
        assert_eq!(bounded_damerau_levenshtein("seoul", "seoal", 2), Some(1));
        assert_eq!(bounded_damerau_levenshtein("seoul", "seouul", 2), Some(1));
        assert_eq!(bounded_damerau_levenshtein("seoul", "seol", 2), Some(1));
    }

    #[test]
    fn transposition_counts_once() {
        assert_eq!(
            bounded_damerau_levenshtein("gangnam", "gagnnam", 2),
            Some(1)
        );
        assert_eq!(bounded_damerau_levenshtein("ab", "ba", 1), Some(1));
    }

    #[test]
    fn exceeding_bound_returns_none() {
        assert_eq!(bounded_damerau_levenshtein("seoul", "busan", 2), None);
        assert_eq!(bounded_damerau_levenshtein("a", "abcdef", 2), None);
    }

    #[test]
    fn paper_romanization_variants_are_close() {
        // "yangchun" (paper's spelling) vs "yangcheon" (canonical): insert
        // 'e' + substitute 'u'→'o'. Distance 2 — which is why the matcher
        // keeps this variant in its alias table rather than relying on the
        // distance-1 fuzzy pass.
        assert_eq!(
            bounded_damerau_levenshtein("yangchun", "yangcheon", 2),
            Some(2)
        );
        assert_eq!(
            bounded_damerau_levenshtein("kangnam", "gangnam", 2),
            Some(1)
        );
    }

    #[test]
    fn unicode_safe() {
        assert_eq!(bounded_damerau_levenshtein("양천구", "양천구", 1), Some(0));
        assert_eq!(bounded_damerau_levenshtein("양천구", "양전구", 1), Some(1));
    }
}
