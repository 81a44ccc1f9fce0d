//! The `train` workload: the trainer's view.
//!
//! Set-up generates the amazon-preset world and its Books→Movies split.
//! The measured part is three rounds, each of which fits the default-dims
//! model (3 epochs) and then scores the cold-start test users through
//! `TrainedOmniMatch::predict`, one user's held-out items per request:
//! back to back, each call timed (nothing queues in front of `predict`).
//! Everything runs in om-tensor kernels, om-nn modules and the optimizer;
//! om-serve is never called.

use std::time::{Duration, Instant};

use om_data::split::CrossDomainScenario;
use om_data::types::{ItemId, UserId};
use om_data::{SplitConfig, SynthConfig, SynthWorld};
use om_tensor::seeded_rng;
use omnimatch_core::trainer::mean_rating_baseline;
use omnimatch_core::{CorpusViews, OmniMatchConfig, TrainedOmniMatch, Trainer};

use crate::stats::{median, Summary};
use crate::{check, step, trace, Args, Report};

/// Set-up repetitions before the first round and after each round;
/// `setup_s` is the median of all of them. The machine's speed shifts every
/// few hundred milliseconds, so back-to-back repetitions alone would all
/// land in one such stretch.
const SETUP_REPS: usize = 7;
/// Epochs of the measured fit.
pub const EPOCHS: usize = 3;
/// The measured part is this many rounds of one fit, one closed-loop and
/// one open-loop scoring segment, so that every figure samples the whole run.
const ROUNDS: usize = 3;
/// Share of `--seconds` spent in scoring segments.
const SCORING_SHARE: f64 = 0.25;
/// Untimed scoring requests at the start of each round.
const SCORING_WARMUP: usize = 32;
/// Training steps timed in the traced breakdown.
const STEP_SAMPLES: usize = 8;

/// The amazon-preset Books→Movies scenario of Table 2.
pub fn build_scenario(args: &Args) -> CrossDomainScenario {
    let cfg = SynthConfig { seed: args.world_seed, ..SynthConfig::amazon() };
    let world = SynthWorld::generate(cfg, &["Books", "Movies"]);
    let split = SplitConfig { seed: args.split_seed, ..SplitConfig::default() };
    world.scenario("Books", "Movies", split)
}

/// `setup_s` samples: build the scenario `SETUP_REPS` times (spans
/// `setup`), keeping the last one.
fn setup(args: &Args, secs: &mut Vec<f64>) -> CrossDomainScenario {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (sc, ms) = trace::timed("setup", 0, || build_scenario(args));
        secs.push(ms / 1e3);
        last = Some(sc);
    }
    last.expect("at least one set-up")
}

/// One scoring request per cold test user: that user's held-out pairs.
fn scoring_requests(scenario: &CrossDomainScenario, seed: u64) -> Vec<Vec<(UserId, ItemId)>> {
    let mut users = scenario.test_users.clone();
    // Seeded visiting order.
    let mut h = seed ^ 0x7E57;
    for i in (1..users.len()).rev() {
        h = crate::serve::mix64(h.wrapping_add(i as u64));
        users.swap(i, (h % (i as u64 + 1)) as usize);
    }
    users
        .into_iter()
        .map(|u| scenario.eval_pairs(&[u]).iter().map(|it| (it.user, it.item)).collect::<Vec<_>>())
        .filter(|pairs| !pairs.is_empty())
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let scenario = setup(args, &mut setup_s);
    let cfg = OmniMatchConfig { epochs: EPOCHS, ..OmniMatchConfig::default() }.with_seed(args.model_seed);
    println!(
        "omnibench: scenario {} — {} training interactions, {} cold users, {} test pairs",
        scenario.name(),
        scenario.target_train.len(),
        scenario.cold_start_users().len(),
        scenario.test_pairs().len()
    );

    // Warm-up: a small fit through the same code before any timing.
    drop(Trainer::new(OmniMatchConfig::fast().with_seed(args.model_seed)).fit(&scenario));

    let reqs = scoring_requests(&scenario, args.trace_seed);
    let counters = KernelCounters::read();
    let mut fits = Vec::new();
    let mut trained: Option<TrainedOmniMatch> = None;
    let (mut rates, mut lat, mut round_p90) = (Vec::new(), Vec::new(), Vec::new());
    let mut scored = 0usize;
    for _ in 0..ROUNDS {
        let (t, ms) = trace::timed("train.fit", 0, || Trainer::new(cfg.clone()).fit(&scenario));
        fits.push(ms / 1e3);
        if !args.trace {
            // Untimed: the first calls of each new model.
            for _ in 0..SCORING_WARMUP {
                score(&t, &reqs[scored % reqs.len()], &mut rep);
                scored += 1;
            }
            let secs = args.seconds * SCORING_SHARE / ROUNDS as f64;
            let mut l = Vec::new();
            rates.push(closed_scoring(&t, &reqs, &mut scored, secs, &mut l, &mut rep));
            round_p90.push(Summary::of(&l).p90);
            lat.extend(l);
        }
        trained = Some(t);
        drop(setup(args, &mut setup_s));
    }
    let kernels = counters.delta();
    rep.set("peak_rss_mb", crate::peak_rss_mb());
    rep.set("setup_s", median(&setup_s));
    rep.set("data.world_ms", median(&setup_s) * 1e3);
    let trained = trained.expect("at least one fit");
    rep.attempted += fits.len() as u64;
    rep.set("train.fit_s", median(&fits));
    println!(
        "omnibench: {} fits, median {:.3} s (min {:.3}, max {:.3}); best epoch {}, validation RMSE {:?}",
        fits.len(),
        median(&fits),
        fits.iter().copied().fold(f64::INFINITY, f64::min),
        fits.iter().copied().fold(0.0, f64::max),
        trained.report().best_epoch,
        trained.report().valid_rmse
    );

    // Cold-start quality, checked against a recomputation from predict.
    let test = scenario.test_pairs();
    let eval = trained.evaluate(&test);
    let pairs: Vec<(UserId, ItemId)> = test.iter().map(|it| (it.user, it.item)).collect();
    let gold: Vec<f32> = test.iter().map(|it| it.rating.value()).collect();
    let preds = trained.predict(&pairs);
    rep.attempted += 1;
    rep.check("test predictions", check::check_predictions(&preds));
    rep.check("evaluate vs recomputed RMSE/MAE", check::check_eval(&preds, &gold, eval.rmse, eval.mae, 1e-5));
    let mean = mean_rating_baseline(&scenario);
    let mean_rmse = check::rmse_mae(&vec![mean; gold.len()], &gold).0;
    rep.set("train.cold_rmse", f64::from(eval.rmse));
    println!(
        "omnibench: cold-start RMSE {:.4} MAE {:.4} over {} pairs (global mean {:.3} scores {:.4})",
        eval.rmse,
        eval.mae,
        gold.len(),
        mean,
        mean_rmse
    );

    if args.trace {
        traced_layers(args, &cfg, &scenario, &fits, kernels, &mut rep);
        rep.traced.insert("train.fit_s", median(&fits));
        return rep;
    }

    let qps = median(&rates);
    let s = Summary::of(&lat);
    let p90 = median(&round_p90);
    println!(
        "omnibench: scoring median {qps:.1} req/s, rounds {rates:.1?}; {}; p90 per round \
         {round_p90:.3?}, median {p90:.3} ms",
        s.line()
    );
    rep.set("serve.qps", qps);
    rep.set("serve.p50_ms", s.p50);
    rep
}

/// Score back to back for `secs`, timing every call; returns requests/s.
fn closed_scoring(
    trained: &TrainedOmniMatch,
    reqs: &[Vec<(UserId, ItemId)>],
    next: &mut usize,
    secs: f64,
    lat: &mut Vec<f64>,
    rep: &mut Report,
) -> f64 {
    let budget = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let mut n = 0;
    while t0.elapsed() < budget {
        let t = Instant::now();
        score(trained, &reqs[*next % reqs.len()], rep);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        *next += 1;
        n += 1;
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

/// One scoring request: predict a cold user's held-out items, checked.
fn score(trained: &TrainedOmniMatch, pairs: &[(UserId, ItemId)], rep: &mut Report) {
    let preds = trained.predict(pairs);
    rep.attempted += 1;
    if let Err(e) = check::check_predictions(&preds) {
        rep.check("scoring request", Err(e));
    }
}

/// The traced run's per-layer figures for the training side.
fn traced_layers(
    args: &Args,
    cfg: &OmniMatchConfig,
    scenario: &CrossDomainScenario,
    fits: &[f64],
    kernels: KernelCounters,
    rep: &mut Report,
) {
    let (views, corpus_ms) = trace::timed("corpus.build", 0, || {
        CorpusViews::build(scenario, cfg, &mut seeded_rng(cfg.seed))
    });
    let steps = step::breakdown(cfg, scenario, &views, STEP_SAMPLES);
    steps.report(rep);
    kernels.report_per(fits.len() as f64, rep);
    let batches = step::batches_per_fit(cfg, scenario);
    let fit_ms = median(fits) * 1e3;
    rep.set("corpus.build_ms", corpus_ms);
    rep.set("train.batches", batches as f64);
    rep.set("train.coverage", (corpus_ms + batches as f64 * steps.step_sum()) / fit_ms);
    println!(
        "omnibench: training step {:.3} ms × {batches} batches + corpus {corpus_ms:.1} ms \
         explain {:.1}% of a {fit_ms:.0} ms fit (model seed {})",
        steps.step_sum(),
        100.0 * (corpus_ms + batches as f64 * steps.step_sum()) / fit_ms,
        args.model_seed
    );
}

/// The program's kernel and runtime counters (counted only while its
/// observability layer is on, i.e. in traced runs).
#[derive(Clone, Copy)]
pub struct KernelCounters {
    gemm_calls: u64,
    gemm_flops: u64,
    gemm_bytes: u64,
    dispatches: u64,
    inline_runs: u64,
}

impl KernelCounters {
    pub fn read() -> KernelCounters {
        let c = |name: &str| om_obs::metrics::counter(name).get();
        KernelCounters {
            gemm_calls: c("gemm.calls"),
            gemm_flops: c("gemm.flops"),
            gemm_bytes: c("gemm.bytes"),
            dispatches: c("runtime.dispatches"),
            inline_runs: c("runtime.inline_runs"),
        }
    }

    /// Counts since `self` was read.
    pub fn delta(self) -> KernelCounters {
        let now = KernelCounters::read();
        KernelCounters {
            gemm_calls: now.gemm_calls - self.gemm_calls,
            gemm_flops: now.gemm_flops - self.gemm_flops,
            gemm_bytes: now.gemm_bytes - self.gemm_bytes,
            dispatches: now.dispatches - self.dispatches,
            inline_runs: now.inline_runs - self.inline_runs,
        }
    }

    /// Report the counts per unit of work (a fit, a request).
    pub fn report_per(&self, units: f64, rep: &mut Report) {
        rep.set("kernels.gemm_calls", self.gemm_calls as f64 / units);
        rep.set("kernels.gemm_gflop", self.gemm_flops as f64 / 1e9 / units);
        rep.set("kernels.gemm_mb", self.gemm_bytes as f64 / 1e6 / units);
        rep.set("runtime.dispatches", self.dispatches as f64 / units);
        rep.set("runtime.inline_runs", self.inline_runs as f64 / units);
    }
}
