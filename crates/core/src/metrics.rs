//! Pipeline observability: per-stage wall time and geocode-stage detail.
//!
//! Every [`crate::RefinementPipeline::execute`] fills a [`PipelineMetrics`] and
//! returns it on [`crate::AnalysisResult`], so callers can assert on and
//! report the pipeline's hot path — at paper scale the geocode stage
//! dominates, and this is where its throughput, atlas share, and
//! scheduler balance become visible. `repro funnel --verbose` prints the
//! same numbers through [`PipelineMetrics::render`].

use std::time::Duration;

/// Wall-clock time of each pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimings {
    /// Stage 1: profile classification (select users).
    pub select_users: Duration,
    /// Stage 2a: tweet intake (GPS filter + cohort membership).
    pub tweet_intake: Duration,
    /// Stage 2b: reverse geocoding of every kept fix.
    pub geocode: Duration,
    /// Stage 3: string building, grouping, and Top-k classification.
    pub grouping: Duration,
    /// End-to-end wall time of `run`.
    pub total: Duration,
}

/// How the geocode stage executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GeocodeMode {
    /// In-process gazetteer geocoder on one thread: the staged reference,
    /// or a fused pass that ran on one worker.
    #[default]
    DirectSerial,
    /// In-process geocoder fanned out over the fused engine's workers.
    DirectParallel,
    /// Round trip through the mock Yahoo XML endpoint (parallel-capable
    /// since its accounting moved to atomics).
    YahooXml,
    /// The resilient decorator over the Yahoo endpoint: deadline, bounded
    /// retry, circuit breaker, stale-cache → gazetteer fallback.
    Resilient,
}

impl GeocodeMode {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            GeocodeMode::DirectSerial => "direct/serial",
            GeocodeMode::DirectParallel => "direct/parallel",
            GeocodeMode::YahooXml => "yahoo-xml",
            GeocodeMode::Resilient => "resilient",
        }
    }
}

/// Geocode-stage detail: throughput, atlas share, scheduler balance.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GeocodeMetrics {
    /// Execution mode actually taken.
    pub mode: GeocodeMode,
    /// GPS fixes geocoded (cohort members' tagged tweets).
    pub fixes: u64,
    /// Wall time of the geocode stage (same value as
    /// [`StageTimings::geocode`]).
    pub wall: Duration,
    /// Geocoder lookups issued — equals `fixes` on the direct path.
    pub lookups: u64,
    /// Lookups answered without the gazetteer's polygon walk: by the
    /// district atlas (plus, on the resilient backend, its stale cache).
    pub cache_hits: u64,
    /// Worker threads used (1 on the serial paths).
    pub threads: usize,
    /// Morsels completed by each fused worker thread. Empty on the serial
    /// paths; sums to the total morsel count on the parallel path.
    /// Imbalance here means the work-stealing source was hand-feeding a
    /// straggler, exactly what it exists to absorb.
    pub blocks_per_thread: Vec<u64>,
    /// The backend's full traffic report: outcome partition
    /// (`lookups == resolved + fallbacks + misses`), retry/breaker/fallback
    /// counters, simulated quota days and milliseconds.
    pub traffic: stir_geokr::BackendTraffic,
}

impl GeocodeMetrics {
    /// Fixes geocoded per second of stage wall time; zero on an empty or
    /// instantaneous stage.
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 && self.fixes > 0 {
            self.fixes as f64 / secs
        } else {
            0.0
        }
    }

    /// Share of lookups answered without the polygon walk
    /// ([`GeocodeMetrics::cache_hits`] over lookups), in `[0, 1]`; zero
    /// when no lookups happened.
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.lookups as f64
        }
    }
}

/// Grouping-stage detail: interned-merge throughput, vocabulary size, and
/// scheduler balance of the per-user grouping fan-out.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupingMetrics {
    /// Location strings (packed keys) fed into the merge — one per kept
    /// GPS tweet of a cohort member.
    pub strings: u64,
    /// Users grouped.
    pub users: u64,
    /// Distinct `(user, tweet district)` entries after the merge, summed
    /// over all users — the strings collapse into this many counters.
    pub merged_entries: u64,
    /// Distinct `(state, county)` pairs in the district symbol table.
    pub interner_size: u64,
    /// Worker threads used by the grouping stage (1 = serial path).
    pub threads: usize,
    /// Scheduler blocks completed by each worker thread; `[1]` on the
    /// serial path, sums to the block count on the parallel path.
    pub blocks_per_thread: Vec<u64>,
    /// Wall time of the grouping stage (same value as
    /// [`StageTimings::grouping`]).
    pub wall: Duration,
}

impl GroupingMetrics {
    /// Location strings merged per second of stage wall time; zero on an
    /// empty or instantaneous stage.
    pub fn strings_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 && self.strings > 0 {
            self.strings as f64 / secs
        } else {
            0.0
        }
    }

    /// Merge ratio: input strings per surviving merged entry (≥ 1 when
    /// anything merged; zero on an empty stage). High means heavy
    /// duplication — the shape interning exploits.
    pub fn merge_ratio(&self) -> f64 {
        if self.merged_entries == 0 {
            0.0
        } else {
            self.strings as f64 / self.merged_entries as f64
        }
    }
}

/// Select-stage detail: the profile classifier's memoization behaviour.
/// Profile `location_text` values repeat heavily across users, so the
/// classifier runs once per *distinct* string and replays the cached class
/// (with identical funnel accounting) for every repeat.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectMetrics {
    /// Profiles classified (equals `funnel.users_collected`).
    pub profiles: u64,
    /// Distinct `location_text` values seen — classifier invocations.
    pub distinct_texts: u64,
    /// Profiles answered from the per-text classification cache
    /// (`profiles - distinct_texts` by construction).
    pub profile_cache_hits: u64,
}

/// How the fused pass actually executed — the adaptive scheduler may take
/// the serial-inline path even when many threads were configured (small
/// input, a 1-core machine, or a warmup sample showing time-slicing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// The whole pass ran inline on the calling thread.
    #[default]
    SerialInline,
    /// Workers were spawned and the pass ran in parallel.
    Parallel,
}

impl ExecMode {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::SerialInline => "serial-inline",
            ExecMode::Parallel => "parallel",
        }
    }
}

/// Fused-engine detail: per-operator row/wall counters of the one-pass
/// morsel-driven path, partition occupancy, and the intermediate-memory
/// estimate that the counting-allocator test pins in debug builds.
///
/// Operator walls are *summed across workers* (CPU-time-like); the stage
/// walls in [`StageTimings`] remain end-to-end wall clock. `threads` and
/// `partitions` report the **executed** geometry — what actually ran —
/// while `threads_ceiling` and `partitions_configured` carry the
/// configured values, so a serial-inline run can no longer masquerade as
/// an 8-way parallel one in the render.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecMetrics {
    /// Worker threads that ran the fused pass (1 = inline serial fallback).
    pub threads: usize,
    /// The configured thread ceiling (`--threads`) before the adaptive
    /// scheduler capped it to the machine / the input.
    pub threads_ceiling: usize,
    /// Whether the pass executed serial-inline or parallel.
    pub mode: ExecMode,
    /// Rows per morsel (the work-stealing grain).
    pub morsel_rows: usize,
    /// Hash partitions the emitted keys were actually split into (1 on the
    /// serial-inline path, which needs no hash partitioning).
    pub partitions: usize,
    /// The configured partition count.
    pub partitions_configured: usize,
    /// Morsels drawn from the source, summed over workers.
    pub morsels: u64,
    /// Morsels drawn by each worker (the scheduler-balance signal).
    pub morsels_per_thread: Vec<u64>,
    /// Rows streamed in (equals `funnel.tweets_total`).
    pub rows_in: u64,
    /// Rows that carried a GPS fix.
    pub gps_rows: u64,
    /// Kept-cohort map probes issued — exactly one per GPS row; the
    /// staged path's historical double probe is pinned out by tests.
    pub kept_probes: u64,
    /// GPS fixes of cohort members handed to the geocoder.
    pub fixes: u64,
    /// Fixes rejected by the e6 coverage prescreen without a backend
    /// lookup (provably outside the gazetteer's bbox; counted in
    /// `unresolved` too).
    pub bbox_rejected: u64,
    /// Location keys emitted into partitions (resolvable fixes).
    pub keys_emitted: u64,
    /// Fixes the backend could not resolve (outside coverage / errors).
    pub unresolved: u64,
    /// Filter + GPS check + kept probe, summed across workers.
    pub filter_wall: Duration,
    /// Batched geocoding, summed across workers.
    pub geocode_wall: Duration,
    /// Key build + hash partition + per-morsel flush, summed across workers.
    pub partition_wall: Duration,
    /// Partition sort + per-user grouping, summed across workers.
    pub group_wall: Duration,
    /// Final user-id-order merge of partition outputs (single-threaded).
    pub merge_wall: Duration,
    /// Keys that landed in each partition (skew signal).
    pub partition_keys: Vec<u64>,
    /// Peak intermediate bytes the fused pass holds at once, estimated
    /// from counters: tagged keys + per-worker morsel/scratch buffers.
    pub peak_bytes_estimate: u64,
    /// What the staged reference path would have materialized for the same
    /// input: fix records + resolved vector + per-user key map.
    pub staged_bytes_estimate: u64,
    /// Sealed segments answered from their materialized group sketch
    /// instead of being streamed through the operators (0 when the sketch
    /// path was off or inapplicable).
    pub sketch_segments: u64,
    /// Sketch entries merged across those segments — the work the merge
    /// path did in place of per-row filter → geocode → intern.
    pub sketch_entries_merged: u64,
    /// Records processed row-wise outside the sketch path: the open tail
    /// plus any non-day-aligned window boundaries.
    pub records_scanned_residual: u64,
    /// Encoded bytes of the merged sketches; against the sketched
    /// segments' stored bytes this is the aggregation-pushdown read ratio.
    pub sketch_bytes: u64,
}

impl ExecMetrics {
    /// Peak intermediate bytes per input row; zero on an empty run.
    pub fn bytes_per_tweet(&self) -> f64 {
        if self.rows_in == 0 {
            0.0
        } else {
            self.peak_bytes_estimate as f64 / self.rows_in as f64
        }
    }

    /// Partition skew: max/mean keys over non-empty partitions (1.0 =
    /// perfectly even; zero when no keys were emitted).
    pub fn partition_skew(&self) -> f64 {
        let total: u64 = self.partition_keys.iter().sum();
        if total == 0 || self.partition_keys.is_empty() {
            return 0.0;
        }
        let max = *self.partition_keys.iter().max().expect("non-empty") as f64;
        let mean = total as f64 / self.partition_keys.len() as f64;
        max / mean
    }
}

/// Full observability record for one pipeline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineMetrics {
    /// Per-stage wall time.
    pub stages: StageTimings,
    /// Select-stage detail (classifier memoization).
    pub select: SelectMetrics,
    /// Geocode-stage detail.
    pub geocode: GeocodeMetrics,
    /// Grouping-stage detail.
    pub grouping: GroupingMetrics,
    /// Fused-engine detail when the morsel-driven path ran; `None` on the
    /// staged reference path.
    pub exec: Option<ExecMetrics>,
    /// Store-scan detail when the run was fed from a `TweetStore`
    /// (segments pruned, decode volume, throughput); `None` on row-fed
    /// runs.
    pub scan: Option<stir_tweetstore::ScanMetrics>,
}

impl PipelineMetrics {
    /// Multi-line plain-text rendering, matching the repro report style.
    pub fn render(&self) -> String {
        let s = &self.stages;
        let g = &self.geocode;
        let mut out = String::new();
        out.push_str("pipeline stage timings:\n");
        out.push_str(&format!(
            "  select users   {:>12}\n",
            fmt_duration(s.select_users)
        ));
        out.push_str(&format!(
            "  tweet intake   {:>12}\n",
            fmt_duration(s.tweet_intake)
        ));
        out.push_str(&format!(
            "  geocode        {:>12}\n",
            fmt_duration(s.geocode)
        ));
        out.push_str(&format!(
            "  grouping       {:>12}\n",
            fmt_duration(s.grouping)
        ));
        out.push_str(&format!("  total          {:>12}\n", fmt_duration(s.total)));
        let sel = &self.select;
        out.push_str(&format!(
            "select stage: {} profiles, {} distinct texts, {} classifier cache hits\n",
            sel.profiles, sel.distinct_texts, sel.profile_cache_hits,
        ));
        out.push_str(&format!(
            "geocode stage ({}): {} fixes, {:.0} fixes/sec, cache hit ratio {:.1}%\n",
            g.mode.label(),
            g.fixes,
            g.throughput_per_sec(),
            100.0 * g.cache_hit_ratio(),
        ));
        if !g.blocks_per_thread.is_empty() {
            let blocks: Vec<String> = g.blocks_per_thread.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "  scheduler: {} threads, blocks per thread [{}]\n",
                g.threads,
                blocks.join(", ")
            ));
        }
        let t = &g.traffic;
        if t.errors + t.retries + t.fallbacks + t.breaker_opens > 0 {
            out.push_str(&format!(
                "  resilience: {} retries, {} errors, {} breaker opens, \
                 {} fallbacks ({} stale, {} local)\n",
                t.retries,
                t.errors,
                t.breaker_opens,
                t.fallbacks,
                t.stale_fallbacks,
                t.local_fallbacks
            ));
        }
        if t.quota_days > 0 {
            out.push_str(&format!(
                "  simulated API cost: {} quota day(s), {} ms\n",
                t.quota_days, t.simulated_ms
            ));
        }
        let gr = &self.grouping;
        out.push_str(&format!(
            "grouping stage: {} strings over {} users, {:.0} strings/sec, \
             merge ratio {:.2}, {} interned districts\n",
            gr.strings,
            gr.users,
            gr.strings_per_sec(),
            gr.merge_ratio(),
            gr.interner_size,
        ));
        if !gr.blocks_per_thread.is_empty() && gr.threads > 1 {
            let blocks: Vec<String> = gr.blocks_per_thread.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "  scheduler: {} threads, blocks per thread [{}]\n",
                gr.threads,
                blocks.join(", ")
            ));
        }
        if let Some(e) = &self.exec {
            out.push_str(&format!(
                "fused exec: {} workers ({}, ceiling {}), {} morsels of {} rows, \
                 {} partitions (configured {})\n",
                e.threads,
                e.mode.label(),
                e.threads_ceiling,
                e.morsels,
                e.morsel_rows,
                e.partitions,
                e.partitions_configured,
            ));
            out.push_str(&format!(
                "  operators (cpu): filter {} ({} rows), geocode {} ({} fixes), \
                 partition {} ({} keys), group {}, merge {}\n",
                fmt_duration(e.filter_wall),
                e.rows_in,
                fmt_duration(e.geocode_wall),
                e.fixes,
                fmt_duration(e.partition_wall),
                e.keys_emitted,
                fmt_duration(e.group_wall),
                fmt_duration(e.merge_wall),
            ));
            if e.bbox_rejected > 0 {
                out.push_str(&format!(
                    "  prescreen: {} fixes rejected on the e6 grid without a lookup\n",
                    e.bbox_rejected,
                ));
            }
            if e.threads > 1 {
                let morsels: Vec<String> =
                    e.morsels_per_thread.iter().map(|m| m.to_string()).collect();
                out.push_str(&format!(
                    "  scheduler: {} threads, morsels per thread [{}]\n",
                    e.threads,
                    morsels.join(", ")
                ));
            }
            if e.sketch_segments > 0 {
                out.push_str(&format!(
                    "  sketches: {} segment(s) merged, {} entries ({}), \
                     {} residual records scanned\n",
                    e.sketch_segments,
                    e.sketch_entries_merged,
                    fmt_bytes(e.sketch_bytes),
                    e.records_scanned_residual,
                ));
            }
            out.push_str(&format!(
                "memory: peak intermediate {} ({:.1} B/tweet), staged path would hold {}, \
                 partition skew {:.2}\n",
                fmt_bytes(e.peak_bytes_estimate),
                e.bytes_per_tweet(),
                fmt_bytes(e.staged_bytes_estimate),
                e.partition_skew(),
            ));
        }
        if let Some(scan) = &self.scan {
            out.push_str(&scan.render());
        }
        out
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_handles_zero() {
        let g = GeocodeMetrics::default();
        assert_eq!(g.throughput_per_sec(), 0.0);
        assert_eq!(g.cache_hit_ratio(), 0.0);
    }

    #[test]
    fn throughput_and_hit_ratio() {
        let g = GeocodeMetrics {
            fixes: 1_000,
            wall: Duration::from_millis(500),
            lookups: 1_000,
            cache_hits: 750,
            ..Default::default()
        };
        assert!((g.throughput_per_sec() - 2_000.0).abs() < 1e-9);
        assert!((g.cache_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_every_section() {
        let m = PipelineMetrics {
            stages: StageTimings {
                select_users: Duration::from_micros(12),
                tweet_intake: Duration::from_millis(3),
                geocode: Duration::from_millis(40),
                grouping: Duration::from_micros(900),
                total: Duration::from_millis(44),
            },
            geocode: GeocodeMetrics {
                mode: GeocodeMode::DirectParallel,
                fixes: 4_096,
                wall: Duration::from_millis(40),
                lookups: 4_096,
                cache_hits: 4_000,
                threads: 4,
                blocks_per_thread: vec![1, 1, 0, 0],
                traffic: stir_geokr::BackendTraffic {
                    lookups: 4_096,
                    resolved: 4_000,
                    fallbacks: 90,
                    misses: 6,
                    cache_hits: 4_000,
                    errors: 12,
                    retries: 9,
                    breaker_opens: 1,
                    stale_fallbacks: 60,
                    local_fallbacks: 30,
                    quota_days: 2,
                    simulated_ms: 1_234,
                },
            },
            select: SelectMetrics {
                profiles: 5_000,
                distinct_texts: 800,
                profile_cache_hits: 4_200,
            },
            grouping: GroupingMetrics {
                strings: 10_000,
                users: 500,
                merged_entries: 2_000,
                interner_size: 229,
                threads: 4,
                blocks_per_thread: vec![2, 1, 1, 0],
                wall: Duration::from_micros(900),
            },
            exec: Some(ExecMetrics {
                threads: 4,
                threads_ceiling: 8,
                mode: ExecMode::Parallel,
                morsel_rows: 2_048,
                partitions: 16,
                partitions_configured: 16,
                morsels: 25,
                morsels_per_thread: vec![7, 6, 6, 6],
                rows_in: 50_000,
                gps_rows: 9_000,
                kept_probes: 9_000,
                fixes: 8_500,
                bbox_rejected: 40,
                keys_emitted: 8_400,
                unresolved: 100,
                filter_wall: Duration::from_millis(2),
                geocode_wall: Duration::from_millis(35),
                partition_wall: Duration::from_millis(1),
                group_wall: Duration::from_millis(1),
                merge_wall: Duration::from_micros(80),
                partition_keys: vec![600; 14],
                peak_bytes_estimate: 220_000,
                staged_bytes_estimate: 540_000,
                ..Default::default()
            }),
            scan: None,
        };
        assert!(m.geocode.traffic.is_exact());
        let r = m.render();
        for needle in [
            "select users",
            "select stage: 5000 profiles, 800 distinct texts, 4200 classifier cache hits",
            "fused exec: 4 workers (parallel, ceiling 8), 25 morsels of 2048 rows, \
             16 partitions (configured 16)",
            "operators (cpu):",
            "prescreen: 40 fixes rejected on the e6 grid without a lookup",
            "morsels per thread [7, 6, 6, 6]",
            "memory: peak intermediate 214.8 KiB (4.4 B/tweet)",
            "partition skew 1.00",
            "tweet intake",
            "geocode",
            "grouping",
            "total",
            "fixes/sec",
            "cache hit ratio",
            "blocks per thread",
            "direct/parallel",
            "resilience: 9 retries, 12 errors, 1 breaker opens, 90 fallbacks (60 stale, 30 local)",
            "simulated API cost: 2 quota day(s), 1234 ms",
            "grouping stage: 10000 strings over 500 users",
            "strings/sec",
            "merge ratio 5.00",
            "229 interned districts",
            "4 threads, blocks per thread [2, 1, 1, 0]",
        ] {
            assert!(r.contains(needle), "render missing {needle:?}:\n{r}");
        }
    }

    #[test]
    fn grouping_metrics_ratios() {
        let gr = GroupingMetrics::default();
        assert_eq!(gr.strings_per_sec(), 0.0);
        assert_eq!(gr.merge_ratio(), 0.0);
        let gr = GroupingMetrics {
            strings: 900,
            merged_entries: 300,
            wall: Duration::from_millis(450),
            ..Default::default()
        };
        assert!((gr.strings_per_sec() - 2_000.0).abs() < 1e-9);
        assert!((gr.merge_ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn serial_inline_render_reports_executed_geometry() {
        // The S2 bug: a serial-inline run used to render the *configured*
        // geometry (8 workers, 16 partitions) as if it had executed. The
        // render must say what ran, with the configuration alongside.
        let m = PipelineMetrics {
            exec: Some(ExecMetrics {
                threads: 1,
                threads_ceiling: 8,
                mode: ExecMode::SerialInline,
                morsel_rows: 2_048,
                partitions: 1,
                partitions_configured: 16,
                morsels: 3,
                morsels_per_thread: vec![3],
                rows_in: 100,
                partition_keys: vec![40],
                ..Default::default()
            }),
            ..Default::default()
        };
        let r = m.render();
        assert!(
            r.contains(
                "fused exec: 1 workers (serial-inline, ceiling 8), 3 morsels of 2048 rows, \
                 1 partitions (configured 16)"
            ),
            "{r}"
        );
        assert!(!r.contains("morsels per thread"), "{r}");
        assert!(!r.contains("prescreen:"), "{r}");
        assert_eq!(ExecMode::SerialInline.label(), "serial-inline");
        assert_eq!(ExecMode::Parallel.label(), "parallel");
    }

    #[test]
    fn serial_grouping_renders_no_scheduler_line() {
        let m = PipelineMetrics {
            grouping: GroupingMetrics {
                strings: 10,
                users: 2,
                merged_entries: 4,
                interner_size: 3,
                threads: 1,
                blocks_per_thread: vec![1],
                wall: Duration::from_micros(10),
            },
            ..Default::default()
        };
        let r = m.render();
        assert!(r.contains("grouping stage: 10 strings over 2 users"), "{r}");
        assert_eq!(r.matches("scheduler:").count(), 0, "{r}");
    }

    #[test]
    fn scan_metrics_render_when_present() {
        let m = PipelineMetrics::default();
        assert!(!m.render().contains("store scan:"));
        let m = PipelineMetrics {
            scan: Some(stir_tweetstore::ScanMetrics {
                segments_total: 10,
                segments_pruned: 4,
                records_stored: 1_000,
                records_pruned: 400,
                headers_decoded: 600,
                records_rejected: 100,
                records_yielded: 500,
                bytes_stored: 80_000,
                bytes_decoded: 12_000,
                threads: 1,
                blocks_per_thread: vec![6],
                wall: Duration::from_millis(2),
                segments_row: 3,
                segments_col: 7,
                col_bytes_read: 9_000,
                row_bytes_equiv: 11_000,
                ..Default::default()
            }),
            ..Default::default()
        };
        let r = m.render();
        for needle in [
            "store scan: 4/10 segments pruned, 400/1000 records skipped (40.0%)",
            "headers decoded 600  rejected 100  yielded 500",
            "bytes decoded 12000 of 80000 stored (15.0%)",
            "formats: 3 row / 7 col segments; column bytes read 9000 vs row-equivalent 11000",
            "records/sec",
        ] {
            assert!(r.contains(needle), "render missing {needle:?}:\n{r}");
        }
    }

    #[test]
    fn quiet_traffic_renders_no_resilience_lines() {
        let m = PipelineMetrics::default();
        let r = m.render();
        assert!(!r.contains("resilience:"), "{r}");
        assert!(!r.contains("simulated API cost"), "{r}");
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.000 s");
    }
}
