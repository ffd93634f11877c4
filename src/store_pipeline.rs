//! Glue between the tweet store and the analysis pipeline.
//!
//! `stir-core` deliberately takes plain rows so it works on any data
//! source; `stir-tweetstore` deliberately knows nothing about the
//! analysis. The connection now lives in the pipeline itself:
//! [`RefinementPipeline::execute`] accepts a `&TweetStore` directly (the
//! store-block morsel source and scan-metrics fill moved into
//! `stir_core::pipeline`). This module keeps the store-specific
//! composition that has no core equivalent — pre-compacting to GPS
//! records before the run (what a production deployment would keep hot).

use stir_core::{AnalysisResult, CollectionFunnel, ProfileRow, RefinementPipeline};
use stir_tweetstore::{gps_only, CompactionReport, TweetStore};

/// Compacts the store to GPS-only records, then runs the pipeline on the
/// compacted store. The funnel's tweet totals are patched to reflect the
/// *original* corpus (the compaction did stage 2 of the funnel early), and
/// the compaction report is returned alongside.
pub fn compact_then_run<PI>(
    pipeline: &RefinementPipeline<'_>,
    profiles: PI,
    store: &TweetStore,
) -> (AnalysisResult, CompactionReport)
where
    PI: IntoIterator<Item = ProfileRow>,
{
    let (gps_store, report) = gps_only(store);
    let mut result = pipeline.execute(profiles, &gps_store);
    // Restore the pre-compaction totals so the funnel reads like a
    // single-pass run over the full corpus.
    let funnel = CollectionFunnel {
        tweets_total: report.scanned,
        ..result.funnel
    };
    result.funnel = funnel;
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_core::{PipelineBuilder, TweetRow};
    use stir_geokr::Gazetteer;
    use stir_tweetstore::TweetRecord;
    use stir_twitter_sim::datasets::{Dataset, DatasetSpec};

    fn fixtures() -> (&'static Gazetteer, Dataset, TweetStore) {
        let g: &'static Gazetteer = Box::leak(Box::new(Gazetteer::load()));
        let dataset = Dataset::generate(
            DatasetSpec {
                n_users: 600,
                ..DatasetSpec::korean_paper()
            },
            g,
            77,
        );
        let mut store = TweetStore::new();
        dataset.for_each_tweet(g, |t| {
            store.append(&TweetRecord {
                id: t.id.0,
                user: t.user.0,
                timestamp: t.timestamp,
                gps: t.gps,
                text: t.text.clone(),
            });
        });
        (g, dataset, store)
    }

    fn profile_rows(dataset: &Dataset) -> Vec<ProfileRow> {
        dataset
            .users
            .iter()
            .map(|u| ProfileRow {
                user: u.id.0,
                location_text: u.location_text.clone(),
            })
            .collect()
    }

    #[test]
    fn store_execute_matches_direct_run() {
        let (g, dataset, store) = fixtures();
        let pipeline = RefinementPipeline::with_defaults(g);
        let rows: Vec<TweetRow> = dataset
            .users
            .iter()
            .flat_map(|u| {
                dataset.user_tweets(g, u.id).into_iter().map(|t| TweetRow {
                    user: t.user.0,
                    tweet_id: t.id.0,
                    gps: t.gps,
                })
            })
            .collect();
        let direct = pipeline.execute(profile_rows(&dataset), rows);
        let via_store = pipeline.execute(profile_rows(&dataset), &store);
        assert_eq!(direct.funnel, via_store.funnel);
        assert_eq!(direct.users.len(), via_store.users.len());
        for (a, b) in direct.users.iter().zip(&via_store.users) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.matched_rank, b.matched_rank);
        }
    }

    #[test]
    fn store_execute_reports_scan_metrics() {
        let (g, dataset, store) = fixtures();
        let pipeline = RefinementPipeline::with_defaults(g);
        let result = pipeline.execute(profile_rows(&dataset), &store);
        let scan = result
            .metrics
            .scan
            .as_ref()
            .expect("store runs fill scan metrics");
        let stats = store.stats();
        assert_eq!(scan.records_stored, stats.records);
        assert_eq!(scan.headers_decoded, stats.records);
        assert_eq!(scan.records_yielded, stats.records);
        assert_eq!(scan.records_corrupt, 0);
        assert_eq!(scan.bytes_stored, stats.payload_bytes);
        // Header-only hand-off: the tweet text is never decoded, so the
        // decode volume must fall short of the stored volume by at least
        // the corpus's total text size.
        assert!(
            scan.bytes_decoded < scan.bytes_stored,
            "decoded {} stored {}",
            scan.bytes_decoded,
            scan.bytes_stored
        );
        // Direct (row-fed) runs leave the slot empty.
        let direct = pipeline.execute(profile_rows(&dataset), Vec::<TweetRow>::new());
        assert!(direct.metrics.scan.is_none());
    }

    #[test]
    fn fused_store_run_is_identical_to_staged_store_run() {
        let (g, dataset, store) = fixtures();
        let fused = RefinementPipeline::with_defaults(g);
        assert!(fused.config().is_fused(), "fused engine is the default");
        let staged = PipelineBuilder::new(g).staged().build().unwrap();
        let a = fused.execute(profile_rows(&dataset), &store);
        let b = staged.execute(profile_rows(&dataset), &store);
        assert_eq!(a.funnel, b.funnel);
        assert_eq!(a.users.len(), b.users.len());
        for (x, y) in a.users.iter().zip(&b.users) {
            assert_eq!(x.user, y.user);
            assert_eq!(x.entries, y.entries);
            assert_eq!(x.matched_rank, y.matched_rank);
        }
        // The fused store run reports the engine detail and a scan whose
        // decode count matches the store exactly.
        let exec = a.metrics.exec.as_ref().expect("fused runs fill exec");
        assert_eq!(exec.rows_in, store.stats().records);
        assert_eq!(exec.kept_probes, a.funnel.tweets_with_gps);
        let scan = a.metrics.scan.as_ref().expect("store runs fill scan");
        assert_eq!(scan.headers_decoded, store.stats().records);
        // Staged store runs leave the exec slot empty.
        assert!(b.metrics.exec.is_none());
    }

    #[test]
    fn compacted_run_agrees_and_reports_savings() {
        let (g, dataset, store) = fixtures();
        let pipeline = RefinementPipeline::with_defaults(g);
        let full = pipeline.execute(profile_rows(&dataset), &store);
        let (compacted, report) = compact_then_run(&pipeline, profile_rows(&dataset), &store);
        // Same cohort, same groups, same tweet totals after patching.
        assert_eq!(full.users.len(), compacted.users.len());
        assert_eq!(full.funnel.tweets_total, compacted.funnel.tweets_total);
        assert_eq!(
            full.funnel.tweets_with_gps,
            compacted.funnel.tweets_with_gps
        );
        assert_eq!(full.funnel.users_final, compacted.funnel.users_final);
        assert!(report.space_saved() > 0.5, "saved {}", report.space_saved());
    }
}
