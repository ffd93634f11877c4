//! Shared experiment context: options, dataset generation, pipeline runs.

use stir_core::{
    AnalysisResult, BackendChoice, FaultPlan, PipelineBuilder, PipelineInput, ProfileRow,
    RefinementPipeline, TweetRow,
};
use stir_geokr::Gazetteer;
use stir_tweetstore::StoreFormat;
use stir_twitter_sim::datasets::{Dataset, DatasetSpec};

/// Command-line options shared by every experiment.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Master seed.
    pub seed: u64,
    /// Dataset scale relative to the paper (1.0 = paper scale).
    pub scale: f64,
    /// The fused engine's thread ceiling — the scheduler adapts downward
    /// to the machine unless `--threads-exact`. `--staged` runs serially
    /// at any value.
    pub threads: usize,
    /// Obey `--threads` exactly (`--threads-exact`): skip the adaptive
    /// availability cap and warmup collapse. Bench escape hatch.
    pub threads_exact: bool,
    /// Geocoding backend (`--backend {gazetteer,yahoo,resilient}`).
    pub backend: BackendChoice,
    /// Fault schedule injected at the Yahoo endpoint (`--faults <spec>`).
    pub faults: FaultPlan,
    /// Print pipeline stage timings / geocode throughput after each run.
    pub verbose: bool,
    /// Route tweets through a tweet store and the zero-copy store scan
    /// instead of feeding rows directly (`--from-store`).
    pub from_store: bool,
    /// With `--from-store`: split the store into this many user-hash
    /// shards and run the scatter-gather scan over them (`--shards N`).
    /// Figure output is byte-identical to a single store at any count.
    pub shards: usize,
    /// With `--from-store`: sealed-segment encoding
    /// (`--store-format {v1,v2}`). `v1` keeps row frames; `v2` seals
    /// columnar `STIRSEG2` segments and scans them through the direct
    /// column path. Figure output is byte-identical either way.
    pub store_format: StoreFormat,
    /// Run the staged reference pipeline instead of the fused
    /// morsel-driven engine (`--staged`). Figure output is byte-identical
    /// either way; the flag exists to prove exactly that.
    pub staged: bool,
    /// With `--from-store`: install the gazetteer sketcher on the store so
    /// every sealed segment materializes a group sketch, and let the
    /// pipeline answer from the sketch delta merge plus a tail scan
    /// (`--sketches {on,off}`, default off). Figure output is
    /// byte-identical either way — the pushdown only skips work.
    pub sketches: bool,
    /// `stream` only: checkpoint the durable session halfway through the
    /// stream, drop it, and resume from disk before ingesting the rest
    /// (`--restore-midway`). Figure output is byte-identical either way.
    pub restore_midway: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 2012,
            scale: 0.1,
            threads: 8,
            threads_exact: false,
            backend: BackendChoice::default(),
            faults: FaultPlan::default(),
            verbose: false,
            from_store: false,
            shards: 1,
            store_format: StoreFormat::V1,
            staged: false,
            sketches: false,
            restore_midway: false,
        }
    }
}

/// A fully analysed dataset.
pub struct Analysed {
    /// The generated dataset.
    pub dataset: Dataset,
    /// The pipeline output.
    pub result: AnalysisResult,
}

/// Loads the gazetteer (leaked: experiments are one-shot processes).
pub fn gazetteer() -> &'static Gazetteer {
    Box::leak(Box::new(Gazetteer::load()))
}

/// The Korean dataset spec at the requested scale.
pub fn korean_spec(opts: &Options) -> DatasetSpec {
    DatasetSpec::korean_paper().scaled(opts.scale)
}

/// The Lady Gaga dataset spec at the requested scale.
pub fn lady_gaga_spec(opts: &Options) -> DatasetSpec {
    DatasetSpec::lady_gaga_paper().scaled(opts.scale)
}

/// Builds the refinement pipeline every experiment shares, from the CLI
/// options (backend, faults, threading, fused/staged engine).
pub fn pipeline(gazetteer: &'static Gazetteer, opts: &Options) -> RefinementPipeline<'static> {
    PipelineBuilder::new(gazetteer)
        .backend(opts.backend)
        .faults(opts.faults)
        .threads(opts.threads)
        .threads_exact(opts.threads_exact)
        .fused(!opts.staged)
        .sketches(opts.sketches)
        .build()
        .expect("experiment options form a valid pipeline config")
}

/// Generates a dataset and runs the full refinement pipeline on it.
pub fn analyse(spec: DatasetSpec, gazetteer: &'static Gazetteer, opts: &Options) -> Analysed {
    let label = spec.name;
    eprintln!(
        "[{}] generating {} users (seed {}, scale {:.2}) …",
        label, spec.n_users, opts.seed, opts.scale
    );
    let dataset = Dataset::generate(spec, gazetteer, opts.seed);
    eprintln!(
        "[{}] {} users, ~{} tweets; running refinement pipeline …",
        label,
        dataset.len(),
        dataset.total_tweets()
    );
    let pipeline = pipeline(gazetteer, opts);
    let profiles = dataset.users.iter().map(|u| ProfileRow {
        user: u.id.0,
        location_text: u.location_text.clone(),
    });
    let result = if opts.from_store {
        // Store-backed path: ingest the corpus into `--shards` user-hash
        // shards (one by default — a single store is a one-shard store),
        // then stream it back out through the zero-copy header scan. Every
        // user's records stay in one shard in append order, so figure
        // output is byte-identical to the direct path at any shard count.
        let mut store = stir_tweetstore::ShardedStore::with_segment_bytes_and_format(
            opts.shards,
            stir_tweetstore::segment::DEFAULT_SEGMENT_BYTES,
            opts.store_format,
        );
        if opts.sketches {
            // Installed before ingest, so every seal sketches itself.
            store.set_sketcher(std::sync::Arc::new(stir_core::GazetteerSketcher::new()));
        }
        dataset.for_each_tweet(gazetteer, |t| {
            store.append(&stir_tweetstore::TweetRecord {
                id: t.id.0,
                user: t.user.0,
                timestamp: t.timestamp,
                gps: t.gps,
                text: t.text.clone(),
            });
        });
        let stats = store.stats();
        eprintln!(
            "[{}] store: {} records across {} shard(s), {} segment(s), {} payload bytes, format {}",
            label,
            store.len(),
            store.shard_count(),
            stats.segments,
            stats.payload_bytes,
            store.format().as_str()
        );
        pipeline.execute(profiles, &store)
    } else {
        let tweets = dataset.users.iter().flat_map(|u| {
            dataset
                .user_tweets(gazetteer, u.id)
                .into_iter()
                .map(|t| TweetRow {
                    user: t.user.0,
                    tweet_id: t.id.0,
                    gps: t.gps,
                })
        });
        pipeline.execute(profiles, PipelineInput::rows(tweets))
    };
    eprintln!(
        "[{}] final cohort {} users / {} strings",
        label, result.funnel.users_final, result.funnel.strings_built
    );
    if opts.verbose {
        // Stage timings go to stderr so experiment stdout stays
        // byte-deterministic across invocations.
        eprintln!("[{label}] pipeline metrics:");
        eprint!("{}", result.metrics.render());
    }
    Analysed { dataset, result }
}
