//! Ablation — the §III-B metropolitan-split design choice.
//!
//! The paper splits metropolitan cities into their gu "because these cities
//! are too large and the populations are extremely high". This ablation
//! re-runs the grouping at city grain (metros as single units) and shows
//! what the split buys: at city grain, matching inside a metro is almost
//! free (any tweet anywhere in Seoul matches a Seoul profile), so Top-1
//! inflates and the None group deflates — the analysis stops measuring
//! intra-city mobility at all.

use stir_core::{
    Granularity, GroupTable, PipelineBuilder, PipelineInput, ProfileRow, TopKGroup, TweetRow,
};
use stir_twitter_sim::datasets::Dataset;

use crate::context::{gazetteer, korean_spec, Options};

/// Runs the ablation.
pub fn run(opts: &Options) {
    let g = gazetteer();
    let dataset = Dataset::generate(korean_spec(opts), g, opts.seed);
    let tables: Vec<(Granularity, GroupTable)> = [Granularity::District, Granularity::City]
        .into_iter()
        .map(|grain| {
            let pipeline = PipelineBuilder::new(g)
                .backend(opts.backend)
                .faults(opts.faults)
                .threads(opts.threads)
                .granularity(grain)
                .build()
                .expect("experiment options form a valid pipeline config");
            let profiles = dataset.users.iter().map(|u| ProfileRow {
                user: u.id.0,
                location_text: u.location_text.clone(),
            });
            let tweets = dataset.users.iter().flat_map(|u| {
                dataset.user_tweets(g, u.id).into_iter().map(|t| TweetRow {
                    user: t.user.0,
                    tweet_id: t.id.0,
                    gps: t.gps,
                })
            });
            let result = pipeline.execute(profiles, PipelineInput::rows(tweets));
            (grain, GroupTable::compute(&result.users))
        })
        .collect();

    println!("\n=== ablation — metropolitan split (paper) vs city grain ===\n");
    println!(
        "{:<8} {:>16} {:>16}    {:>14} {:>14}",
        "group", "district users %", "city users %", "district locs", "city locs"
    );
    println!("{}", "-".repeat(76));
    let (_, district) = &tables[0];
    let (_, city) = &tables[1];
    for grp in TopKGroup::ALL {
        println!(
            "{:<8} {:>15.2}% {:>15.2}%    {:>14.2} {:>14.2}",
            grp.label(),
            district.row(grp).user_pct,
            city.row(grp).user_pct,
            district.row(grp).avg_locations,
            city.row(grp).avg_locations
        );
    }
    println!("{}", "-".repeat(76));
    println!(
        "\nTop-1: {:.1}% → {:.1}% when metros collapse; None: {:.1}% → {:.1}%",
        district.row(TopKGroup::Top1).user_pct,
        city.row(TopKGroup::Top1).user_pct,
        district.row(TopKGroup::None).user_pct,
        city.row(TopKGroup::None).user_pct
    );
    println!(
        "overall avg locations: {:.2} → {:.2} (coarser grain sees less mobility)",
        district.overall_avg_locations, city.overall_avg_locations
    );
    let cmp = stir_core::compare(district, city);
    println!(
        "total variation distance between the two user distributions: {:.3}",
        cmp.user_share_tvd
    );
}
