//! Property tests on the grouping method and pipeline arithmetic —
//! cross-crate invariants on arbitrary inputs.

use proptest::prelude::*;
use stir::core::{
    group_user_keys_with, group_user_strings, group_user_strings_with, DistrictInterner,
    GroupTable, LocationKey, LocationString, ProfileRow, RefinementPipeline, TieBreak, TopKGroup,
    TweetRow,
};
use stir::geoindex::Point;
use stir::geokr::Gazetteer;

const POLICIES: [TieBreak; 4] = [
    TieBreak::FirstSeen,
    TieBreak::Alphabetical,
    TieBreak::MatchedFirst,
    TieBreak::MatchedLast,
];

fn gaz() -> &'static Gazetteer {
    use std::sync::OnceLock;
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

/// A small closed vocabulary of (state, county) pairs, including the
/// profile location at index 0.
fn tweet_keys() -> Vec<(&'static str, &'static str)> {
    vec![
        ("Seoul", "Guro-gu"), // the profile location
        ("Seoul", "Mapo-gu"),
        ("Seoul", "Jung-gu"),
        ("Busan", "Jung-gu"), // same county name, different state
        ("Gyeonggi-do", "Bucheon-si"),
    ]
}

fn strings_from(indices: &[usize]) -> Vec<LocationString> {
    let keys = tweet_keys();
    indices
        .iter()
        .map(|&i| {
            let (s, c) = keys[i % keys.len()];
            LocationString {
                user: 1,
                state_profile: "Seoul".into(),
                county_profile: "Guro-gu".into(),
                state_tweet: s.into(),
                county_tweet: c.into(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grouping_conserves_counts_and_orders(indices in prop::collection::vec(0usize..5, 1..120)) {
        let strings = strings_from(&indices);
        let g = group_user_strings(&strings).unwrap();
        // Total tweets conserved.
        prop_assert_eq!(g.total_tweets(), strings.len() as u64);
        // Entries strictly ordered by count (desc) with stable ties.
        for w in g.entries.windows(2) {
            prop_assert!(w[0].count >= w[1].count);
        }
        // Distinct locations equals the number of distinct keys used.
        let mut used: Vec<usize> = indices.iter().map(|&i| i % 5).collect();
        used.sort_unstable();
        used.dedup();
        prop_assert_eq!(g.distinct_locations(), used.len());
        // Matched rank is consistent with the matched entry's position.
        match g.matched_rank {
            Some(r) => {
                prop_assert!(g.entries[r - 1].matched);
                prop_assert_eq!(g.entries.iter().filter(|e| e.matched).count(), 1);
                prop_assert!(indices.iter().any(|&i| i % 5 == 0));
            }
            None => {
                prop_assert!(g.entries.iter().all(|e| !e.matched));
                prop_assert!(indices.iter().all(|&i| i % 5 != 0));
            }
        }
        // Matched tweets equal the count of index-0 draws.
        let matched = indices.iter().filter(|&&i| i % 5 == 0).count() as u64;
        prop_assert_eq!(g.matched_tweets(), matched);
    }

    #[test]
    fn group_table_percentages_and_totals(indices in prop::collection::vec(0usize..5, 1..60), n_users in 1usize..12) {
        // Clone one user's strings across several synthetic users.
        let mut users = Vec::new();
        for u in 0..n_users {
            let mut strings = strings_from(&indices);
            for s in &mut strings {
                s.user = u as u64;
            }
            users.push(group_user_strings(&strings).unwrap());
        }
        let table = GroupTable::compute(&users);
        prop_assert_eq!(table.total_users, n_users as u64);
        prop_assert_eq!(table.total_tweets, (n_users * indices.len()) as u64);
        let pct_sum: f64 = table.rows.iter().map(|r| r.user_pct).sum();
        prop_assert!((pct_sum - 100.0).abs() < 1e-6);
        // Identical users all land in one group.
        let populated = table.rows.iter().filter(|r| r.users > 0).count();
        prop_assert_eq!(populated, 1);
    }

    #[test]
    fn tie_break_extremes_bound_the_rank(indices in prop::collection::vec(0usize..5, 1..100)) {
        let strings = strings_from(&indices);
        let ranks: Vec<Option<usize>> = [
            TieBreak::MatchedFirst,
            TieBreak::FirstSeen,
            TieBreak::Alphabetical,
            TieBreak::MatchedLast,
        ]
        .into_iter()
        .map(|tb| group_user_strings_with(&strings, tb).unwrap().matched_rank)
        .collect();
        // All policies agree on whether a match exists.
        prop_assert!(ranks.iter().all(|r| r.is_some()) || ranks.iter().all(|r| r.is_none()));
        if let (Some(best), Some(worst)) = (ranks[0], ranks[3]) {
            for r in &ranks {
                let r = r.unwrap();
                prop_assert!(best <= r && r <= worst, "rank {} outside [{}, {}]", r, best, worst);
            }
        }
        // Counts and totals are policy-invariant.
        let totals: Vec<u64> = [TieBreak::MatchedFirst, TieBreak::MatchedLast]
            .into_iter()
            .map(|tb| group_user_strings_with(&strings, tb).unwrap().total_tweets())
            .collect();
        prop_assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn interned_grouping_equals_string_grouping(
        pairs in prop::collection::vec((0u64..4, 0usize..8), 1..150),
        profile_idx in 0usize..8,
    ) {
        // Arbitrary users over an 8-district vocabulary (indices 5..8 wrap
        // onto 0..5 keys with a distinct state so same-name counties across
        // states are exercised); every user shares one profile district.
        let keys = tweet_keys();
        let district = |i: usize| -> (String, String) {
            let (s, c) = keys[i % keys.len()];
            if i >= keys.len() {
                (format!("Other-{}", s), c.to_string())
            } else {
                (s.to_string(), c.to_string())
            }
        };
        let (state_p, county_p) = district(profile_idx);
        let mut interner = DistrictInterner::new();
        for user in 0u64..4 {
            let strings: Vec<LocationString> = pairs
                .iter()
                .filter(|&&(u, _)| u == user)
                .map(|&(_, i)| {
                    let (state_t, county_t) = district(i);
                    LocationString {
                        user,
                        state_profile: state_p.clone(),
                        county_profile: county_p.clone(),
                        state_tweet: state_t,
                        county_tweet: county_t,
                    }
                })
                .collect();
            let packed: Vec<LocationKey> =
                strings.iter().map(|s| s.to_key(&mut interner)).collect();
            for tb in POLICIES {
                let via_strings = group_user_strings_with(&strings, tb);
                let via_keys = group_user_keys_with(&packed, tb, &interner);
                match (via_strings, via_keys) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.user, b.user, "{:?}", tb);
                        prop_assert_eq!(&a.state_profile, &b.state_profile, "{:?}", tb);
                        prop_assert_eq!(&a.county_profile, &b.county_profile, "{:?}", tb);
                        prop_assert_eq!(&a.entries, &b.entries, "{:?}", tb);
                        prop_assert_eq!(a.matched_rank, b.matched_rank, "{:?}", tb);
                    }
                    (a, b) => prop_assert!(false, "{:?}: {:?} vs {:?}", tb, a.is_some(), b.is_some()),
                }
            }
        }
    }

    #[test]
    fn pipeline_funnel_arithmetic(gps_flags in prop::collection::vec(any::<bool>(), 0..200)) {
        let g = gaz();
        let pipeline = RefinementPipeline::with_defaults(g);
        let profiles = vec![ProfileRow { user: 0, location_text: "Seoul Guro-gu".into() }];
        let guro = Point::new(37.495, 126.888);
        let tweets: Vec<TweetRow> = gps_flags
            .iter()
            .enumerate()
            .map(|(i, &has_gps)| TweetRow {
                user: 0,
                tweet_id: i as u64,
                gps: has_gps.then_some(guro),
            })
            .collect();
        let n_gps = gps_flags.iter().filter(|&&b| b).count() as u64;
        let result = pipeline.execute(profiles, tweets);
        prop_assert_eq!(result.funnel.tweets_total, gps_flags.len() as u64);
        prop_assert_eq!(result.funnel.tweets_with_gps, n_gps);
        prop_assert_eq!(result.funnel.strings_built, n_gps);
        prop_assert_eq!(result.funnel.users_final, u64::from(n_gps > 0));
        if n_gps > 0 {
            prop_assert_eq!(result.users[0].group(), TopKGroup::Top1);
        }
    }
}
