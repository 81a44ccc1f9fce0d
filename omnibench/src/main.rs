//! omnibench — the OmniMatch end-to-end benchmark.
//!
//! One command, three workloads, each in its own process:
//!
//! * `train` — fit the default-dims model on the amazon-preset
//!   Books→Movies scenario, then score its cold-start test users through
//!   `TrainedOmniMatch::predict` (om-serve is never called);
//! * `serve_catalogue` — rank Zipf-picked warm users against a
//!   16,384-item catalogue through the threaded front-end;
//! * `serve_online` — rank the scenario's cold users against its real
//!   target catalogue while a seeded stream of interaction events
//!   graduates part of them cold→warm through the same FIFO.
//!
//! Usage (normally through `run.py`, which builds this binary and sets
//! `OM_THREADS`):
//!
//! ```text
//! omnibench --workload <train|serve_catalogue|serve_online> --seed N
//!           --seconds S --trace <0|1> [--world-seed N] [--split-seed N]
//!           [--model-seed N] [--trace-seed N] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric of
//! [`END_TO_END`] in an untraced run, every per-layer metric of
//! [`PER_LAYER`] in a traced one.

mod check;
mod serve;
mod stats;
mod step;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: name and unit. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train.fit_s", "s"),
    ("train.cold_rmse", "stars"),
    ("serve.qps", "req/s"),
    ("serve.p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit. A layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.world_ms", "ms"),
    ("corpus.build_ms", "ms"),
    ("model.embed_ms", "ms"),
    ("model.user_tower_ms", "ms"),
    ("model.item_tower_ms", "ms"),
    ("model.projection_ms", "ms"),
    ("model.domain_heads_ms", "ms"),
    ("model.rating_head_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("kernels.gemm_calls", "count"),
    ("kernels.gemm_gflop", "GFLOP"),
    ("kernels.gemm_mb", "MB"),
    ("runtime.dispatches", "count"),
    ("runtime.inline_runs", "count"),
    ("train.batches", "count"),
    ("train.coverage", "ratio"),
    ("ckpt.load_ms", "ms"),
    ("arena.write_ms", "ms"),
    ("arena.map_ms", "ms"),
    ("arena.user_mb", "MB"),
    ("arena.item_mb", "MB"),
    ("engine.flush_ms", "ms"),
    ("engine.batch_size", "req"),
    ("engine.pair_rows_ms", "ms"),
    ("engine.head_ms", "ms"),
    ("engine.stars_ms", "ms"),
    ("engine.user_tower_ms", "ms"),
    ("engine.coverage", "ratio"),
    ("topk.select_ms", "ms"),
    ("frontend.wait_ms", "ms"),
    ("update.apply_ms", "ms"),
    ("update.encode_ms", "ms"),
    ("update.with_row_ms", "ms"),
    ("update.swaps", "count"),
    ("update.graduations", "count"),
];

/// Command-line arguments. `--seed` is the workload seed; the model and
/// trace seeds default to it, the world and split seeds to the scenario
/// of Table 2 (amazon preset, split seed 7).
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub world_seed: u64,
    pub split_seed: u64,
    pub model_seed: u64,
    pub trace_seed: u64,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?
            .to_string();
        let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, val);
    }
    let num = |key: &str, default: Option<u64>| -> Result<u64, String> {
        match kv.get(key) {
            Some(v) => v.parse().map_err(|e| format!("--{key} {v}: {e}")),
            None => default.ok_or_else(|| format!("--{key} is required")),
        }
    };
    let workload = kv.get("workload").cloned().ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "train" | "serve_catalogue" | "serve_online") {
        return Err(format!("unknown workload '{workload}' (train|serve_catalogue|serve_online)"));
    }
    let seed = num("seed", None)?;
    let seconds = num("seconds", None)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let args = Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        world_seed: num("world-seed", Some(om_data::SynthConfig::amazon().seed))?,
        split_seed: num("split-seed", Some(om_data::SplitConfig::default().seed))?,
        model_seed: num("model-seed", Some(seed))?,
        trace_seed: num("trace-seed", Some(seed))?,
        out: PathBuf::from(kv.get("out").map_or("omnibench/out", String::as_str)),
    };
    for key in kv.keys() {
        let known = [
            "workload", "seed", "seconds", "trace", "world-seed", "split-seed", "model-seed",
            "trace-seed", "out",
        ];
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(args)
}

/// What a workload hands back: the output checks' verdict, the operation
/// tallies, and every metric it measured.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// End-to-end figures measured inside a traced run, for the tracing
    /// overhead comparison (never reported as end-to-end metrics).
    pub traced: BTreeMap<&'static str, f64>,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            traced: BTreeMap::new(),
        }
    }
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record the verdict of one output check.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            eprintln!("omnibench: CHECK FAILED: {what}: {e}");
            self.correct = false;
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB. Each workload reads
/// it once its measured part is over, before its independent checks.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The thread discipline: `OM_THREADS` must be set explicitly, to no more
/// than the CPUs this process may use.
fn threads_checked() -> Result<usize, String> {
    let raw = std::env::var("OM_THREADS")
        .map_err(|_| "OM_THREADS must be set explicitly (run.py sets it)".to_string())?;
    let n: usize = raw.trim().parse().map_err(|e| format!("OM_THREADS={raw}: {e}"))?;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if n == 0 || n > cpus {
        return Err(format!("OM_THREADS={n} must be between 1 and the {cpus} available CPUs"));
    }
    Ok(n)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omnibench: {e}");
            std::process::exit(2);
        }
    };
    let threads = match threads_checked() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("omnibench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "omnibench: workload {} seed {} ({} s, trace {}), OM_THREADS={threads}, world seed {:#x}, \
         split seed {}, model seed {}, trace seed {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.world_seed,
        args.split_seed,
        args.model_seed,
        args.trace_seed
    );
    // Anything the program's observability layer would write lands inside
    // the benchmark's own output directory.
    om_obs::set_out_root(args.out.join("obs"));
    if args.trace {
        trace::enable();
        // Own the observability run, so that no inner `Trainer::fit` run
        // scope drains the kernel counters or writes run artifacts.
        om_obs::set_enabled(true);
        om_obs::run_begin("omnibench");
    }

    let mut report = match args.workload.as_str() {
        "train" => train::run(&args),
        "serve_catalogue" => serve::run(&args, serve::Kind::Catalogue),
        _ => serve::run(&args, serve::Kind::Online),
    };

    if args.trace {
        let path = args.out.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path) {
            Ok(n) => println!("omnibench: wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("omnibench: could not write {}: {e}", path.display()),
        }
        let traced: Vec<String> = report
            .traced
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
            .collect();
        println!("traced_end_to_end {{{}}}", traced.join(", "));
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = report.values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("omnibench: metric {name} is not finite");
            report.correct = false;
        }
        println!("omnibench: {name:<24} {value:>14.6} {unit}");
        metrics.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(value)));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
