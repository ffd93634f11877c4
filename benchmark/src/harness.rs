//! Measurement machinery shared by every workload: the percentile rule,
//! the open-loop scheduler, the in-memory span recorder with its JSONL
//! writer and self-time computation, and the peak-RSS reader.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Linearly interpolated quantile `q` in `[0, 1]` of an ascending slice;
/// 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Percentiles the tail rule may report, lowest first.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest reportable percentile that leaves at least ten of `n`
/// samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A latency distribution reduced to what the report prints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`] and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes unsorted samples.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            p50: quantile(&s, 0.5),
            tail: tail_percentile(s.len()).map(|p| (p, quantile(&s, p / 100.0))),
        }
    }

    /// One human-readable line: `p50=… p99=… (n=…)`.
    pub fn render(&self, unit: &str) -> String {
        let mut out = format!("p50={:.3}{unit}", self.p50);
        if let Some((p, v)) = self.tail.filter(|&(p, _)| p > 50.0) {
            let _ = write!(out, " p{p}={v:.3}{unit}");
        }
        let _ = write!(out, " (n={})", self.n);
        out
    }
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here agree with
/// the ones a Python script computes. Needs at least one value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    assert!(ld > 0, "quartiles of no values");
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Quantile `q` of unsorted values (0 for none).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, q)
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// An open-loop generator over several periodic streams. Event `k` of
/// stream `i` is due at `origin + k · period[i]` whether or not earlier
/// events have finished, so a stall delays everything due behind it and
/// the caller times each event from its due instant.
pub struct OpenLoop {
    origin: Instant,
    periods: Vec<Duration>,
    issued: Vec<u32>,
}

impl OpenLoop {
    /// Streams with the given periods, starting now.
    pub fn new(periods: &[Duration]) -> Self {
        OpenLoop {
            origin: Instant::now(),
            periods: periods.to_vec(),
            issued: vec![0; periods.len()],
        }
    }

    /// The earliest-due event not yet issued (ties go to the lower stream
    /// index), as `(stream, due)`; marks it issued.
    pub fn next_event(&mut self) -> (usize, Instant) {
        let due = |i: usize| self.periods[i] * self.issued[i];
        let i = (0..self.periods.len())
            .min_by_key(|&i| (due(i), i))
            .expect("an open loop has at least one stream");
        let at = self.origin + due(i);
        self.issued[i] += 1;
        (i, at)
    }
}

/// Waits until `due` (sleeping, then spinning the last stretch) and
/// returns how late the generator is: zero when it got there in time.
pub fn wait_until(due: Instant) -> Duration {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One recorded span: a call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.select`.
    pub name: &'static str,
    /// Unique id within the recorder.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Request the span belongs to; every span of a request shares it.
    pub request: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans held in memory until the run ends. Safe to share across the
/// engine's worker threads.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so the calls it
    /// makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list poisoned").push(Span {
            name,
            id,
            parent,
            request,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut s = self.spans.lock().expect("span list poisoned").clone();
        s.sort_by_key(|s| s.id);
        s
    }

    /// Writes the spans as JSON lines, each with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = String::with_capacity(spans.len() * 112);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.id, s.request, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its child spans cover. Children that run in
/// parallel are counted once where they overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn parse_vmhwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// This process's peak resident set in KiB, where `/proc` provides it.
pub fn peak_rss_kib() -> Option<u64> {
    parse_vmhwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Bytes of every regular file under `path` (0 when it does not exist).
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    if !meta.is_dir() {
        return 0;
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| dir_bytes(&e.path())).sum())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 100);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9);
        assert!(s.render("ms").ends_with("(n=100)"));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn open_loop_issues_events_in_due_order() {
        let mut ol = OpenLoop::new(&[Duration::from_millis(3), Duration::from_millis(5)]);
        let origin = ol.origin;
        let order: Vec<(usize, u128)> = (0..7)
            .map(|_| {
                let (i, due) = ol.next_event();
                (i, (due - origin).as_millis())
            })
            .collect();
        assert_eq!(
            order,
            [(0, 0), (1, 0), (0, 3), (1, 5), (0, 6), (0, 9), (1, 10)]
        );
    }

    #[test]
    fn wait_until_reports_lateness() {
        let past = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(wait_until(past) >= Duration::from_millis(2));
        let soon = Instant::now() + Duration::from_millis(1);
        assert!(wait_until(soon) < Duration::from_millis(1));
        assert!(Instant::now() >= soon);
    }

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            id,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),  // overlaps span 1 (parallel worker)
            span(3, Some(0), 90, 120), // clipped to the parent's end
            span(4, Some(1), 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
    }

    #[test]
    fn recorder_links_children_and_writes_jsonl() {
        let rec = Recorder::new();
        let v = rec.span("outer", None, 7, |id| {
            rec.span("inner", Some(id), 7, |_| 42)
        });
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let path =
            std::env::temp_dir().join(format!("stir-bench-spans-{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\""));
        assert!(text.contains(&format!("\"parent\":{}", spans[0].id)));
    }

    #[test]
    fn vmhwm_parses_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm(status), Some(1234));
        assert_eq!(parse_vmhwm("Name:\tx\n"), None);
        assert!(peak_rss_kib().is_none_or(|k| k > 0));
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let dir = std::env::temp_dir().join(format!("stir-bench-dirbytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("a")).unwrap();
        std::fs::write(dir.join("x"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("a/y"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&dir), 15);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(dir_bytes(&dir), 0);
    }
}
