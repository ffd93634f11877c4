//! `benchmark` — runs one workload (or each in its own child process) and
//! prints every metric by name with its unit; `benchmark compare` sets two
//! sets of recorded runs side by side against the bounds in
//! `BENCHMARK.json`. See `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--scale F] [--dir D] [--spans PATH] [--json OUT]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```

mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stir_benchmark::harness::{quartiles, Recorder};
use stir_benchmark::json::{self, Value};
use workloads::{Ctx, Report, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
                     \x20                [--scale F] [--dir D] [--spans PATH] [--json OUT]\n\
                     \x20      benchmark compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        _ => run(&args),
    };
    std::process::exit(code);
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    dir: PathBuf,
    spans: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 2012,
        seconds: 15.0,
        trace: false,
        scale: 0.25,
        dir: PathBuf::from(".bench_scratch"),
        spans: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let num = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: bad integer {v:?}"))?;
            }
            "--seconds" => o.seconds = num(value()?)?,
            "--scale" => o.scale = num(value()?)?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--dir" => o.dir = PathBuf::from(value()?),
            "--spans" => o.spans = Some(PathBuf::from(value()?)),
            "--json" => o.json = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(o.seconds > 0.0 && o.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if !(o.scale > 0.0 && o.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(o)
}

/// Removes a run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let Some(workload) = opts.workload.clone() else {
        return run_each(args);
    };

    let started = Instant::now();
    let (g, profiles, records, days) = Ctx::generate(opts.scale, opts.seed);
    eprintln!(
        "[{workload}] seed {} scale {}: {} users, {} tweets over {days} days, generated in {:.2} s",
        opts.seed,
        opts.scale,
        profiles.len(),
        records.len(),
        started.elapsed().as_secs_f64()
    );
    let scratch = Scratch(opts.dir.join(format!("{workload}-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: cannot create {}: {e}", scratch.0.display());
        return 1;
    }
    let ctx = Ctx {
        g,
        profiles,
        records,
        days,
        seed: opts.seed,
        seconds: opts.seconds,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        dir: scratch.0.clone(),
        rec: opts.trace.then(Recorder::new),
    };
    let report = match workload.as_str() {
        "batch_scan" => workloads::batch::run(&ctx, false),
        "batch_sketch" => workloads::batch::run(&ctx, true),
        "live_ingest" => workloads::live::run(&ctx),
        "bulk_load" => workloads::bulk::run(&ctx),
        _ => unreachable!("workload names are validated"),
    };
    drop(scratch);
    if let Some(rec) = &ctx.rec {
        let path = opts.spans.clone().unwrap_or_else(|| {
            PathBuf::from(".bench_out").join(format!("spans-{workload}-{}.jsonl", opts.seed))
        });
        match rec.write_jsonl(&path) {
            Ok(()) => eprintln!("spans: {} written to {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
    }
    let line = result_json(&report, opts.trace);
    if let Some(out) = &opts.json {
        if let Err(e) = append_record(out, &workload, &opts, &line) {
            eprintln!("warning: cannot append to {}: {e}", out.display());
        }
    }
    eprintln!(
        "[{workload}] {} attempted, {} failed, {:.1} s",
        report.attempted,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    println!("{line}");
    0
}

/// Runs every workload, each in its own child process.
fn run_each(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("[{w}] exited with {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("[{w}] could not start: {e}");
                code = 1;
            }
        }
    }
    code
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// the end-to-end metrics on an untraced run and the per-layer ones on a
/// traced run. Also prints each metric on stderr.
fn result_json(report: &Report, trace: bool) -> String {
    let (table, values) = if trace {
        (PER_LAYER, &report.layers)
    } else {
        (END_TO_END, &report.e2e)
    };
    let mut correct = report.failed == 0 && report.attempted > 0;
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) if trace => 0.0,
            None if trace => 0.0,
            other => {
                eprintln!("error: metric {name} is {other:?}");
                correct = false;
                0.0
            }
        };
        eprintln!("  {name:<40} {value:>18.6} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn append_record(out: &Path, workload: &str, opts: &Opts, line: &str) -> std::io::Result<()> {
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)?;
    writeln!(
        f,
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
        json::quote(workload),
        opts.seed,
        u8::from(opts.trace)
    )
}

/// One end-to-end metric's direction and bound from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Untraced runs in a record file, as workload → metric → values.
fn read_runs(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default();
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}:{}: no result metrics", path.display(), i + 1))?;
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(runs)
}

/// `benchmark compare A B`: per workload and end-to-end metric, each
/// side's median and quartiles and a verdict against the metric's bound —
/// `unresolved` when either side's quartile spread exceeds the bound,
/// otherwise `worse`/`better` when B's median moved past the bound, else
/// `same`. Exits 1 when any row is worse or unresolved.
fn compare(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => match it.next() {
                Some(p) => spec = PathBuf::from(p),
                None => {
                    eprintln!("error: --benchmark needs a value\n{USAGE}");
                    return 2;
                }
            },
            _ => files.push(PathBuf::from(a)),
        }
    }
    if files.len() != 2 {
        eprintln!("error: compare takes two record files\n{USAGE}");
        return 2;
    }
    let loaded = (|| -> Result<_, String> {
        let spec = read_json(&spec)?;
        let bounds: Vec<Bound> = spec
            .get("end_to_end")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json has no end_to_end list")?
            .iter()
            .map(|m| Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            })
            .collect();
        Ok((bounds, read_runs(&files[0])?, read_runs(&files[1])?))
    })();
    let (bounds, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut code = 0;
    println!(
        "{:<14} {:<22} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A"
    );
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(*w), b.get(*w)) else {
            continue;
        };
        for m in &bounds {
            let (Some(va), Some(vb)) = (ra.get(&m.name), rb.get(&m.name)) else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs().max(f64::MIN_POSITIVE);
            let delta = (qb.1 - qa.1) / qa.1.abs().max(f64::MIN_POSITIVE);
            let worse_by = if m.lower_is_better { delta } else { -delta };
            let verdict = if spread(qa) > m.bound || spread(qb) > m.bound {
                "unresolved"
            } else if worse_by > m.bound {
                "worse"
            } else if worse_by < -m.bound {
                "better"
            } else {
                "same"
            };
            if matches!(verdict, "worse" | "unresolved") {
                code = 1;
            }
            let side =
                |q: (f64, f64, f64), n: usize| format!("{:.4} [{:.4}, {:.4}] ({n})", q.1, q.0, q.2);
            println!(
                "{w:<14} {:<22} {:>34} {:>34} {:>+7.2}%  {verdict} (bound {:.0}%)",
                m.name,
                side(qa, va.len()),
                side(qb, vb.len()),
                delta * 100.0,
                m.bound * 100.0
            );
        }
    }
    code
}
