//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--seed N] [--scale F] [--paper-scale] [--threads N]
//!                    [--threads-exact] [--backend gazetteer|yahoo|resilient]
//!                    [--faults SPEC] [--from-store] [--shards N]
//!                    [--store-format v1|v2] [--sketches on|off] [--staged]
//!                    [--verbose]
//!
//! experiments:
//!   table1    Table I   example location strings
//!   table2    Table II  merged & ordered strings with matched ranks
//!   fig3      Fig. 3    raw profile-location samples with classifications
//!   fig4      Fig. 4    GPS tweets whose text mentions a place (precision)
//!   fig5      Fig. 5    Yahoo XML response round trip
//!   funnel    §III-B    data refinement funnel
//!   fig6      Fig. 6    average number of tweet locations per group
//!   fig7      Fig. 7    number of users per group
//!   tweets    slides    number of tweets per group
//!   compare   slides    Korean vs Lady Gaga dataset comparison
//!   eventloc  §V / E8   reliability-weighted event location estimation
//!   ablation  §III-B    metropolitan-split vs city-grain grouping
//!   regional  extension reliability by profile region (metro vs provincial)
//!   export              write group/funnel/cohort/regional CSVs (--out DIR)
//!   detect    extension detection-quality benchmark (rate/false-alarm/latency/error)
//!   nonegroup extension diagnose the None group (commuters vs relocated)
//!   diurnal   extension hour-of-day posting profiles per group
//!   report              write a full markdown report (--out DIR)
//!   sensitivity extension tie-break policies + GPS-adoption sweep
//!   stream    E23      Fig. 7 from the incremental streaming session
//!                      (--restore-midway checkpoints + resumes halfway)
//!   all                 everything above, in order
//! ```
//!
//! Default scale is 1/10 of the paper (5,220 users); `--paper-scale` runs
//! the full 52,200. Everything is deterministic in `--seed`.

mod context;
mod experiments;

use std::path::PathBuf;

use context::Options;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts, out_dir) = match parse(&args) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `repro help` for usage");
            std::process::exit(2);
        }
    };
    match cmd.as_str() {
        "table1" => experiments::table12::run_table1(&opts),
        "table2" => experiments::table12::run_table2(&opts),
        "fig3" => experiments::fig3::run(&opts),
        "fig4" => experiments::fig4::run(&opts),
        "fig5" => experiments::fig5::run(&opts),
        "funnel" => experiments::funnel::run(&opts),
        "fig6" => experiments::fig6::run(&opts),
        "fig7" => experiments::fig7::run(&opts),
        "tweets" => experiments::tweets::run(&opts),
        "compare" => experiments::compare::run(&opts),
        "eventloc" => experiments::eventloc::run(&opts),
        "ablation" => experiments::ablation::run(&opts),
        "regional" => experiments::regional::run(&opts),
        "export" => experiments::export::run(&opts, &out_dir),
        "detect" => experiments::detect::run(&opts),
        "nonegroup" => experiments::nonegroup::run(&opts),
        "diurnal" => experiments::diurnal::run(&opts),
        "report" => experiments::report_md::run(&opts, &out_dir),
        "sensitivity" => experiments::sensitivity::run(&opts),
        "stream" => experiments::stream::run(&opts),
        "all" => experiments::all::run(&opts),
        "help" | "--help" | "-h" => print_help(),
        other => {
            eprintln!("error: unknown experiment {other:?}");
            print_help();
            std::process::exit(2);
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Options, PathBuf), String> {
    let mut opts = Options::default();
    let mut out_dir = PathBuf::from("repro-out");
    let mut cmd = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
            }
            "--scale" => {
                opts.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|_| "--scale must be a number")?;
            }
            "--paper-scale" => opts.scale = 1.0,
            "--threads" => {
                opts.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "--threads must be an integer")?;
            }
            "--threads-exact" => opts.threads_exact = true,
            "--backend" => {
                opts.backend = it
                    .next()
                    .ok_or("--backend needs a value (gazetteer, yahoo or resilient)")?
                    .parse()
                    .map_err(|e| format!("--backend: {e}"))?;
            }
            "--faults" => {
                let spec = it
                    .next()
                    .ok_or("--faults needs a spec, e.g. drop:0.1,malformed:0.01,seed:42")?;
                opts.faults =
                    stir_core::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?;
            }
            "--verbose" | "-v" => opts.verbose = true,
            "--from-store" => opts.from_store = true,
            "--shards" => {
                opts.shards = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|_| "--shards must be an integer")?;
                if opts.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--store-format" => {
                let spec = it.next().ok_or("--store-format needs a value (v1 or v2)")?;
                opts.store_format = stir_tweetstore::StoreFormat::parse(spec)
                    .ok_or_else(|| format!("--store-format must be v1 or v2, got {spec:?}"))?;
            }
            "--staged" => opts.staged = true,
            "--sketches" => {
                let spec = it.next().ok_or("--sketches needs a value (on or off)")?;
                opts.sketches = match spec.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--sketches must be on or off, got {other:?}")),
                };
            }
            "--restore-midway" => opts.restore_midway = true,
            "--out" => {
                out_dir = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name => {
                if cmd.is_some() {
                    return Err(format!("unexpected argument {name:?}"));
                }
                cmd = Some(name.to_string());
            }
        }
    }
    Ok((cmd.unwrap_or_else(|| "help".to_string()), opts, out_dir))
}

fn print_help() {
    println!(
        "repro — regenerate the paper's tables and figures\n\n\
         usage: repro <experiment> [--seed N] [--scale F] [--paper-scale] [--threads N]\n\
         \x20                        [--threads-exact] [--backend gazetteer|yahoo|resilient]\n\
         \x20                        [--faults SPEC] [--from-store] [--shards N]\n\
         \x20                        [--store-format v1|v2] [--sketches on|off] [--staged] [--verbose]\n\n\
         --threads is a ceiling: the scheduler caps it at the machine's cores and falls\n\
         back to serial when a warmup sample shows workers time-slicing; --threads-exact\n\
         makes it a command again (bench escape hatch);\n\
         --backend selects the geocoding service (default gazetteer); --faults injects a\n\
         seeded fault schedule at the yahoo endpoint, e.g. drop:0.1,delay:0.05@250,malformed:0.01,seed:42\n\
         (the resilient backend rides faults out without changing any figure output);\n\
         --from-store routes tweets through a TweetStore and the zero-copy header scan\n\
         instead of feeding rows directly (figure output is byte-identical either way);\n\
         --shards N (with --from-store) splits the store into N user-hash shards and runs\n\
         the scatter-gather scan over them — output stays byte-identical to one store;\n\
         --store-format v2 (with --from-store) seals columnar STIRSEG2 segments instead of\n\
         row frames and scans them through the direct column path — again byte-identical;\n\
         --sketches on (with --from-store) materializes a group sketch per sealed segment\n\
         and answers the grouping from the sketch delta merge plus an open-tail scan\n\
         instead of scanning every record — again byte-identical, only faster;\n\
         --staged runs the serial staged reference pipeline (it ignores --threads) instead\n\
         of the fused morsel-driven engine (again byte-identical — the flag exists to prove it);\n\
         --restore-midway (stream only) checkpoints the durable session halfway through\n\
         the firehose, drops it, and resumes from disk — output stays byte-identical\n\n\
         experiments: table1 table2 fig3 fig4 fig5 funnel fig6 fig7 tweets compare eventloc ablation regional export detect nonegroup diurnal report sensitivity stream all"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let (cmd, opts, out) = parse(&args(&["fig7"])).unwrap();
        assert_eq!(cmd, "fig7");
        assert_eq!(opts.seed, 2012);
        assert!((opts.scale - 0.1).abs() < 1e-12);
        assert_eq!(opts.backend, stir_core::BackendChoice::Gazetteer);
        assert_eq!(out, PathBuf::from("repro-out"));
    }

    #[test]
    fn parse_all_flags() {
        let (cmd, opts, out) = parse(&args(&[
            "export",
            "--seed",
            "7",
            "--scale",
            "0.5",
            "--threads",
            "2",
            "--backend",
            "yahoo",
            "--from-store",
            "--verbose",
            "--out",
            "/tmp/x",
        ]))
        .unwrap();
        assert_eq!(cmd, "export");
        assert_eq!(opts.seed, 7);
        assert!((opts.scale - 0.5).abs() < 1e-12);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.backend, stir_core::BackendChoice::Yahoo);
        assert!(opts.from_store);
        assert!(opts.verbose);
        assert_eq!(out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn parse_backend_and_faults() {
        use stir_core::BackendChoice;
        let (_, opts, _) = parse(&args(&["fig7"])).unwrap();
        assert_eq!(opts.backend, BackendChoice::Gazetteer);
        assert!(opts.faults.is_quiet());

        let (_, opts, _) = parse(&args(&[
            "fig7",
            "--backend",
            "resilient",
            "--faults",
            "drop:0.1,seed:42",
        ]))
        .unwrap();
        assert_eq!(opts.backend, BackendChoice::Resilient);
        assert!((opts.faults.drop_rate - 0.1).abs() < 1e-12);
        assert_eq!(opts.faults.seed, 42);

        let (_, opts, _) = parse(&args(&["fig7", "--backend", "yahoo"])).unwrap();
        assert_eq!(opts.backend, BackendChoice::Yahoo);

        assert!(parse(&args(&["fig7", "--backend"])).is_err());
        assert!(parse(&args(&["fig7", "--backend", "google"])).is_err());
        assert!(parse(&args(&["fig7", "--faults"])).is_err());
        assert!(parse(&args(&["fig7", "--faults", "drop:9"])).is_err());
    }

    #[test]
    fn parse_verbose_defaults_off() {
        let (_, opts, _) = parse(&args(&["funnel"])).unwrap();
        assert!(!opts.verbose);
        let (_, opts, _) = parse(&args(&["funnel", "-v"])).unwrap();
        assert!(opts.verbose);
    }

    #[test]
    fn parse_from_store_defaults_off() {
        let (_, opts, _) = parse(&args(&["fig7"])).unwrap();
        assert!(!opts.from_store);
        let (_, opts, _) = parse(&args(&["fig7", "--from-store"])).unwrap();
        assert!(opts.from_store);
    }

    #[test]
    fn parse_shards() {
        let (_, opts, _) = parse(&args(&["fig7", "--from-store"])).unwrap();
        assert_eq!(opts.shards, 1);
        let (_, opts, _) = parse(&args(&["fig7", "--from-store", "--shards", "8"])).unwrap();
        assert_eq!(opts.shards, 8);
        assert!(parse(&args(&["fig7", "--shards"])).is_err());
        assert!(parse(&args(&["fig7", "--shards", "0"])).is_err());
        assert!(parse(&args(&["fig7", "--shards", "x"])).is_err());
    }

    #[test]
    fn parse_store_format() {
        use stir_tweetstore::StoreFormat;
        let (_, opts, _) = parse(&args(&["fig7", "--from-store"])).unwrap();
        assert_eq!(opts.store_format, StoreFormat::V1);
        let (_, opts, _) = parse(&args(&["fig7", "--from-store", "--store-format", "v2"])).unwrap();
        assert_eq!(opts.store_format, StoreFormat::V2);
        let (_, opts, _) = parse(&args(&[
            "fig7",
            "--from-store",
            "--shards",
            "8",
            "--store-format",
            "v2",
        ]))
        .unwrap();
        assert_eq!(opts.store_format, StoreFormat::V2);
        assert_eq!(opts.shards, 8);
        assert!(parse(&args(&["fig7", "--store-format"])).is_err());
        assert!(parse(&args(&["fig7", "--store-format", "v3"])).is_err());
    }

    #[test]
    fn parse_sketches() {
        let (_, opts, _) = parse(&args(&["fig7", "--from-store"])).unwrap();
        assert!(!opts.sketches);
        let (_, opts, _) = parse(&args(&["fig7", "--from-store", "--sketches", "on"])).unwrap();
        assert!(opts.sketches);
        let (_, opts, _) = parse(&args(&["fig7", "--from-store", "--sketches", "off"])).unwrap();
        assert!(!opts.sketches);
        assert!(parse(&args(&["fig7", "--sketches"])).is_err());
        assert!(parse(&args(&["fig7", "--sketches", "maybe"])).is_err());
    }

    #[test]
    fn parse_staged_defaults_off() {
        let (_, opts, _) = parse(&args(&["fig7"])).unwrap();
        assert!(!opts.staged);
        let (_, opts, _) = parse(&args(&["fig7", "--staged", "--from-store"])).unwrap();
        assert!(opts.staged);
        assert!(opts.from_store);
    }

    #[test]
    fn parse_restore_midway_defaults_off() {
        let (_, opts, _) = parse(&args(&["stream"])).unwrap();
        assert!(!opts.restore_midway);
        let (cmd, opts, _) = parse(&args(&["stream", "--restore-midway"])).unwrap();
        assert_eq!(cmd, "stream");
        assert!(opts.restore_midway);
    }

    #[test]
    fn parse_threads_exact_defaults_off() {
        let (_, opts, _) = parse(&args(&["fig7", "--threads", "8"])).unwrap();
        assert!(!opts.threads_exact);
        assert_eq!(opts.threads, 8);
        let (_, opts, _) = parse(&args(&["fig7", "--threads", "8", "--threads-exact"])).unwrap();
        assert!(opts.threads_exact);
    }

    #[test]
    fn parse_paper_scale() {
        let (_, opts, _) = parse(&args(&["funnel", "--paper-scale"])).unwrap();
        assert!((opts.scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&args(&["--seed"])).is_err());
        assert!(parse(&args(&["--seed", "abc"])).is_err());
        assert!(parse(&args(&["--bogus-flag"])).is_err());
        assert!(parse(&args(&["fig7", "extra"])).is_err());
    }

    #[test]
    fn parse_no_command_is_help() {
        let (cmd, _, _) = parse(&[]).unwrap();
        assert_eq!(cmd, "help");
    }
}
