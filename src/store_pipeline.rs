//! Tests of store-fed pipeline runs.
//!
//! [`stir_core::RefinementPipeline::execute`] accepts a `&TweetStore`
//! directly. These tests pin a store-fed run to the row-fed one, the
//! fused engine to the staged one on a store, and the scan metrics a
//! store run reports. They live in the facade crate because their
//! fixtures come from `stir-twitter-sim`.

mod tests {
    use stir_core::{PipelineBuilder, ProfileRow, RefinementPipeline, TweetRow};
    use stir_geokr::Gazetteer;
    use stir_tweetstore::{TweetRecord, TweetStore};
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
}
