//! E1–E2 / Tables I & II — the text-based grouping method on display.
//!
//! Table I: the raw `user#state#county#state#county` strings for a handful
//! of users. Table II: the same strings merged, counted, ordered, with the
//! matched string and its rank marked.

use stir_core::{group_user_strings, LocationString, PipelineBuilder, ProfileRow};
use stir_geokr::ReverseGeocoder;

use crate::context::{gazetteer, korean_spec, Options};
use stir_twitter_sim::datasets::Dataset;

/// Builds a few users' worth of location strings from the simulator.
fn sample_strings(opts: &Options, max_users: usize) -> Vec<Vec<LocationString>> {
    let g = gazetteer();
    let spec = {
        let mut s = korean_spec(opts);
        s.n_users = s.n_users.min(3000);
        s
    };
    let dataset = Dataset::generate(spec, g, opts.seed);
    let pipeline = PipelineBuilder::new(g)
        .backend(opts.backend)
        .faults(opts.faults)
        .threads(opts.threads)
        .build()
        .expect("experiment options form a valid pipeline config");
    // Classify profiles, then walk users until we have enough with several
    // GPS tweets.
    let mut funnel = Default::default();
    let kept = pipeline.select_users(
        dataset.users.iter().map(|u| ProfileRow {
            user: u.id.0,
            location_text: u.location_text.clone(),
        }),
        &mut funnel,
    );
    let reverse = ReverseGeocoder::builder(g).build_reverse();
    let mut out = Vec::new();
    for u in &dataset.users {
        if out.len() >= max_users {
            break;
        }
        let Some(&profile_id) = kept.get(&u.id.0) else {
            continue;
        };
        // select_users hands back interned ids; the published string form
        // comes out of the pipeline's symbol table.
        let (state_p, county_p) = pipeline.interner().resolve(profile_id);
        let tweets = dataset.user_tweets(g, u.id);
        let strings: Vec<LocationString> = tweets
            .iter()
            .filter_map(|t| {
                let p = t.gps?;
                let rec = reverse.lookup(p)?;
                Some(LocationString {
                    user: u.id.0,
                    state_profile: state_p.to_string(),
                    county_profile: county_p.to_string(),
                    state_tweet: rec.state,
                    county_tweet: rec.county,
                })
            })
            .collect();
        if strings.len() >= 4 {
            out.push(strings);
        }
    }
    out
}

/// Prints Table I.
pub fn run_table1(opts: &Options) {
    let users = sample_strings(opts, 3);
    println!("\n=== Table I — example strings for location information ===\n");
    println!("User id#state in profile#county in profile#state in tweet#county in tweet");
    for strings in &users {
        for s in strings.iter().take(4) {
            println!("{s}");
        }
    }
}

/// Prints Table II.
pub fn run_table2(opts: &Options) {
    let users = sample_strings(opts, 3);
    println!("\n=== Table II — merged and ordered strings ===\n");
    println!("User id#state#county#state#county (n)   [ordered by count]");
    for strings in &users {
        let grouped = group_user_strings(strings).expect("non-empty");
        print!("{}", grouped.render_table2());
        match grouped.matched_rank {
            Some(r) => println!(
                "  → matched string at rank {r}: {} group\n",
                grouped.group()
            ),
            None => println!("  → no matched string: None group\n"),
        }
    }
}
