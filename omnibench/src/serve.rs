//! The serving workloads: the server's view.
//!
//! Set-up (repeated before and after the measured part; `setup_s` is the
//! median) is a whole cold start: generate the scenario, fit the
//! fast-config model, export its checkpoint, build and write the arenas,
//! then spawn the front-end, whose worker loads the checkpoint, rebuilds
//! the corpus views and maps the arenas. The measured part drives that
//! front-end from one thread, first closed loop (a fixed in-flight
//! window), then open loop (a fixed-rate schedule, each request timed from
//! the moment it was due).
//!
//! * `serve_catalogue` — warm users, picked Zipfian from a 200k-row
//!   synthetic arena (ids disjoint from the scenario's), ranked against a
//!   16,384-item synthetic catalogue: every flush is cross join, rating
//!   head and expected stars over B×N pairs. No user tower, no writes.
//! * `serve_online` — the scenario's cold users ranked against its real
//!   target catalogue, while one interaction event rides the same FIFO
//!   after every 60th request and graduates half of those users
//!   cold→warm. The other half stay cold all run long. The warm arena is
//!   the scenario's training users plus the same 200k synthetic rows, so
//!   each event past the threshold copies and re-indexes a large arena.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use om_bench::replay::zipf_pick;
use om_data::split::CrossDomainScenario;
use om_data::types::{ItemId, TextField, UserId};
use om_serve::{
    load_model, BatchScorer, Frontend, FrontendHandle, FrontendOptions, ItemArena, Request,
    Response, ServeEngine, ServeError, ServeOptions, ShardedEngine, SubmitError, UpdateOutcome,
    UserArena, UserEvent, Verify,
};
use om_tensor::{kernels, seeded_rng, Tensor};
use omnimatch_core::{CorpusViews, OmniMatchConfig, OmniMatchModel, TrainedOmniMatch, Trainer};

use crate::stats::{median, Summary};
use crate::train::{build_scenario, KernelCounters};
use crate::{check, step, trace, Args, Report};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Catalogue,
    Online,
}

/// Set-up repetitions before the measured part and after it; `setup_s`
/// and `train.fit_s` are the medians of all of them, so that they sample
/// both ends of the run.
const SETUP_BEFORE: usize = 4;
const SETUP_AFTER: usize = 3;
const CATALOGUE_ITEMS: usize = 16_384;
const WARM_USERS: usize = 200_000;
const WARM_ID_BASE: u32 = 1_000_000;
const ARENA_SEED: u64 = 0x0B5E_11C4;
const ZIPF_S: f64 = 1.1;
const BATCH: usize = 8;
const WAIT_US: u64 = 2_000;
const TOPK: usize = 10;
const QUEUE_CAP: usize = 256;
/// Closed loop: requests in flight.
const WINDOW: usize = 16;
/// serve_online: one interaction event after every this many requests.
const EVENT_EVERY: u64 = 60;
/// The measured part is this many rounds of one closed-loop segment and
/// one open-loop segment, so that both loops sample the whole run.
const ROUNDS: usize = 6;
/// Share of `--seconds` spent in closed-loop segments; open loop gets the rest.
const CLOSED_SHARE: f64 = 0.15;
/// Warm-up requests before any timing.
const WARMUP: u64 = 2 * BATCH as u64;
/// Responses checked against an independent recomputation.
const CHECK_SAMPLES: usize = 24;
/// Flushes and events re-run stage by stage in the traced breakdown.
const REPLAYS: usize = 32;
/// Full-sort agreement tolerance for serve_catalogue (same engine, same
/// rows: scores should agree to the bit) and the score tolerance against
/// `predict` for serve_online.
const SORT_TOL: f32 = 1e-6;
const PREDICT_TOL: f32 = 1e-4;

/// Open-loop rate, requests per second: below each workload's closed-loop
/// capacity (see the README).
fn open_rate(kind: Kind) -> f64 {
    match kind {
        Kind::Catalogue => 20.0,
        Kind::Online => 300.0,
    }
}

/// splitmix64 finalizer: the benchmark's seeded hash.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Everything the front-end worker needs to build its engine (all `Send`).
#[derive(Clone)]
struct EngineRecipe {
    cfg: OmniMatchConfig,
    vocab: usize,
    ckpt: Arc<Vec<u8>>,
    scenario: Arc<CrossDomainScenario>,
    item_path: PathBuf,
    user_path: PathBuf,
}

/// The worker's own set-up timings, sent once its engine is ready.
struct FactoryTimes {
    ckpt_ms: f64,
    corpus_ms: f64,
    map_ms: f64,
}

struct FlushRec {
    start_ns: u64,
    end_ns: u64,
    /// (request id, user, warm at flush time)
    reqs: Vec<(u64, UserId, bool)>,
}

struct ApplyRec {
    ms: f64,
    swapped: bool,
}

/// What the worker's scorer reports when the worker ends.
struct WorkerReport {
    generation: u64,
    flushes: Vec<FlushRec>,
    applies: Vec<ApplyRec>,
}

/// The benchmark's scorer: the sharded engine, with spans around
/// `serve_batch` and `apply_event` in traced runs.
struct BenchScorer {
    engine: ShardedEngine,
    traced: bool,
    flushes: RefCell<Vec<FlushRec>>,
    applies: RefCell<Vec<ApplyRec>>,
    report: Sender<WorkerReport>,
}

impl BatchScorer for BenchScorer {
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        if !self.traced {
            return self.engine.serve_batch(reqs);
        }
        let warm: Vec<bool> = reqs.iter().map(|r| self.engine.is_warm(r.user)).collect();
        let t0 = trace::now_ns();
        let out = self.engine.serve_batch(reqs);
        let t1 = trace::now_ns();
        for r in reqs {
            trace::record("engine.flush", trace::request_span(r.id), r.id, t0, t1);
        }
        self.flushes.borrow_mut().push(FlushRec {
            start_ns: t0,
            end_ns: t1,
            reqs: reqs.iter().zip(warm).map(|(r, w)| (r.id, r.user, w)).collect(),
        });
        out
    }

    fn apply_event(&self, ev: &UserEvent) -> Result<Option<UpdateOutcome>, ServeError> {
        let t0 = trace::now_ns();
        let out = self.engine.apply_event(ev);
        let t1 = trace::now_ns();
        if self.traced {
            trace::record("update.apply", 0, 0, t0, t1);
            let swapped = matches!(&out, Ok(o) if o.generation.is_some());
            self.applies.borrow_mut().push(ApplyRec { ms: (t1 - t0) as f64 / 1e6, swapped });
        }
        out.map(Some)
    }
}

impl Drop for BenchScorer {
    fn drop(&mut self) {
        let _ = self.report.send(WorkerReport {
            generation: self.engine.inner().user_generation(),
            flushes: self.flushes.take(),
            applies: self.applies.take(),
        });
    }
}

fn serve_options() -> ServeOptions {
    ServeOptions { batch: BATCH, wait_us: WAIT_US, topk: TOPK, ..ServeOptions::default() }
}

struct Running {
    fe: Frontend,
    responses: Receiver<Response>,
    report: Receiver<WorkerReport>,
}

/// Spawn the front-end; block until its worker has built the engine.
fn spawn(recipe: &EngineRecipe, parent: u64) -> (Running, FactoryTimes) {
    let (resp_tx, responses) = channel();
    let (ready_tx, ready_rx) = channel();
    let (report_tx, report) = channel();
    let r = recipe.clone();
    let fe = Frontend::spawn(
        move || {
            let (model, ckpt_ms) = trace::timed("ckpt.load", parent, || {
                load_model(&r.cfg, r.vocab, &r.ckpt).expect("decode checkpoint")
            });
            let (views, corpus_ms) = trace::timed("corpus.build", parent, || {
                CorpusViews::build(&r.scenario, &r.cfg, &mut seeded_rng(r.cfg.seed))
            });
            let ((items, users), map_ms) = trace::timed("arena.map", parent, || {
                (
                    ItemArena::load_blob(&r.item_path, Verify::Quick).expect("map item arena"),
                    UserArena::load_blob(&r.user_path, Verify::Quick).expect("map user arena"),
                )
            });
            let engine =
                ShardedEngine::new(ServeEngine::with_arenas(model, views, items, users, serve_options()));
            let _ = ready_tx.send(FactoryTimes { ckpt_ms, corpus_ms, map_ms });
            BenchScorer {
                engine,
                traced: trace::on(),
                flushes: RefCell::new(Vec::new()),
                applies: RefCell::new(Vec::new()),
                report: report_tx,
            }
        },
        FrontendOptions { queue_cap: QUEUE_CAP, batch: BATCH, wait_us: WAIT_US },
        resp_tx,
    )
    .expect("spawn front-end worker");
    let times = ready_rx.recv().expect("front-end worker failed while building its engine");
    (Running { fe, responses, report }, times)
}

/// The arenas one set-up builds: (items, users).
fn build_arenas(kind: Kind, trained: &TrainedOmniMatch, scenario: &CrossDomainScenario) -> (ItemArena, UserArena) {
    let cfg = trained.model().config();
    let user_dim = cfg.invariant_dim + cfg.specific_dim;
    let mut ids: Vec<UserId> = Vec::new();
    let mut rows: Vec<f32> = Vec::new();
    let items = match kind {
        Kind::Catalogue => {
            let ids: Vec<ItemId> = (0..CATALOGUE_ITEMS as u32).map(ItemId).collect();
            let rows = om_data::synth_feature_rows(CATALOGUE_ITEMS, cfg.item_dim, ARENA_SEED ^ 1);
            ItemArena::from_raw(ids, rows, cfg.item_dim)
        }
        Kind::Online => {
            // The scenario's real training users come first.
            let real = UserArena::build(trained.model(), trained.views(), &scenario.train_users, 64);
            for &u in real.ids() {
                ids.push(u);
                rows.extend_from_slice(real.row(u).expect("f32 arena row"));
            }
            ItemArena::build(trained.model(), trained.views(), 64)
        }
    };
    ids.extend((0..WARM_USERS as u32).map(|i| UserId(WARM_ID_BASE + i)));
    rows.extend(om_data::synth_feature_rows(WARM_USERS, user_dim, ARENA_SEED ^ 2));
    (items, UserArena::from_raw(ids, rows, user_dim))
}

/// One whole cold start, timed.
struct Setup {
    secs: f64,
    fit_s: f64,
    world_ms: f64,
    write_ms: f64,
    factory: FactoryTimes,
    trained: TrainedOmniMatch,
    scenario: Arc<CrossDomainScenario>,
    recipe: EngineRecipe,
    catalogue: Vec<ItemId>,
    running: Option<Running>,
}

fn setup(args: &Args, kind: Kind, dir: &std::path::Path) -> Setup {
    let parent = trace::next_id();
    let t0 = trace::now_ns();
    let cfg = OmniMatchConfig::fast().with_seed(args.model_seed);
    let (scenario, world_ms) = trace::timed("data.world", parent, || build_scenario(args));
    let (trained, fit_ms) = trace::timed("train.fit", parent, || Trainer::new(cfg.clone()).fit(&scenario));
    let ckpt = Arc::new(trained.export_checkpoint().to_vec());
    let ((items, users), _) = trace::timed("arena.build", parent, || build_arenas(kind, &trained, &scenario));
    let catalogue: Vec<ItemId> = (0..items.len()).map(|i| items.id_at(i)).collect();
    let item_path = dir.join("items.omab");
    let user_path = dir.join("users.omab");
    let ((), write_ms) = trace::timed("arena.write", parent, || {
        items.write_blob(&item_path).expect("write item arena");
        users.write_blob(&user_path).expect("write user arena");
    });
    drop((items, users));
    let scenario = Arc::new(scenario);
    let recipe = EngineRecipe {
        cfg,
        vocab: trained.views().vocab.len(),
        ckpt,
        scenario: Arc::clone(&scenario),
        item_path,
        user_path,
    };
    let (running, factory) = spawn(&recipe, parent);
    let t1 = trace::now_ns();
    trace::record_with_id(parent, "setup", 0, 0, t0, t1);
    Setup {
        secs: (t1 - t0) as f64 / 1e9,
        fit_s: fit_ms / 1e3,
        world_ms,
        write_ms,
        factory,
        trained,
        scenario,
        recipe,
        catalogue,
        running: Some(running),
    }
}

/// The request and event streams, all drawn from the trace seed.
struct Traffic {
    kind: Kind,
    seed: u64,
    /// serve_online: every cold user, those the events graduate, and each
    /// graduating user's hidden target reviews (text, item, stars).
    cold: Vec<UserId>,
    graduating: Vec<UserId>,
    reviews: BTreeMap<UserId, Vec<(String, ItemId, f32)>>,
}

impl Traffic {
    fn new(kind: Kind, seed: u64, scenario: &CrossDomainScenario, text_field: TextField) -> Traffic {
        let cold = scenario.cold_start_users();
        let mut order: Vec<(u64, UserId)> = cold.iter().map(|&u| (mix64(seed ^ u64::from(u.0) ^ 0x6EAD), u)).collect();
        order.sort_unstable();
        let graduating: Vec<UserId> = order.iter().take(cold.len() / 2).map(|&(_, u)| u).collect();
        let reviews = graduating
            .iter()
            .map(|&u| {
                let texts = scenario
                    .target_full
                    .user_records(u)
                    .map(|it| (it.text(text_field).to_string(), it.item, it.rating.value()))
                    .collect();
                (u, texts)
            })
            .collect();
        Traffic { kind, seed, cold, graduating, reviews }
    }

    fn user(&self, i: u64) -> UserId {
        let h = mix64(self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self.kind {
            Kind::Catalogue => {
                let rank = zipf_pick(WARM_USERS, ZIPF_S, h);
                // Scatter popularity ranks over the arena (7919 is coprime
                // with the arena size, so this is a bijection).
                UserId(WARM_ID_BASE + ((rank as u64 * 7919 + self.seed) % WARM_USERS as u64) as u32)
            }
            Kind::Online => self.cold[(h % self.cold.len() as u64) as usize],
        }
    }

    fn event(&self, e: u64) -> UserEvent {
        let n = self.graduating.len() as u64;
        let user = self.graduating[(e % n) as usize];
        let texts = &self.reviews[&user];
        let (text, item, stars) = &texts[((e / n) % texts.len() as u64) as usize];
        UserEvent { user, item: *item, stars: *stars, text: text.clone() }
    }
}

const REJECTED: u8 = 2;

/// The client thread's state: sends, receives, checks every response.
struct Client<'a> {
    handle: FrontendHandle,
    responses: &'a Receiver<Response>,
    traffic: &'a Traffic,
    catalogue: &'a BTreeSet<ItemId>,
    /// Per request id: start of its latency clock (ns), and whether it was
    /// answered (0 = not yet, 1 = answered, [`REJECTED`] = never accepted).
    start_ns: Vec<u64>,
    answered: Vec<u8>,
    /// Request ids sent by the open loop.
    open_ids: BTreeSet<u64>,
    next_id: u64,
    next_event: u64,
    /// Events accepted per user.
    events_by_user: BTreeMap<UserId, usize>,
    requests_attempted: u64,
    events_attempted: u64,
    requests_rejected: u64,
    events_rejected: u64,
    bad_responses: u64,
    /// Responses kept for the independent checks: (user, top-K).
    samples: Vec<(UserId, Vec<(ItemId, f32)>)>,
}

impl Client<'_> {
    /// Try to submit request `id` whose latency clock starts at `start_ns`
    /// (its send time in the closed loop, its due time in the open loop).
    fn send(&mut self, start_ns: u64) -> bool {
        let id = self.next_id;
        self.next_id += 1;
        self.requests_attempted += 1;
        let user = self.traffic.user(id);
        self.start_ns.push(start_ns);
        self.answered.push(0);
        let ok = match self.handle.try_send(Request { id, user, arrive_us: 0 }) {
            Ok(()) => true,
            Err(SubmitError::QueueFull { .. } | SubmitError::Shutdown) => {
                self.requests_rejected += 1;
                self.answered[id as usize] = REJECTED;
                false
            }
        };
        if self.traffic.kind == Kind::Online && id >= WARMUP && (id - WARMUP) % EVENT_EVERY == EVENT_EVERY - 1 {
            self.send_event();
        }
        ok
    }

    /// Submit the next event of the schedule.
    fn send_event(&mut self) {
        let ev = self.traffic.event(self.next_event);
        self.next_event += 1;
        self.events_attempted += 1;
        let user = ev.user;
        match self.handle.submit_interaction(ev) {
            Ok(()) => *self.events_by_user.entry(user).or_insert(0) += 1,
            Err(_) => self.events_rejected += 1,
        }
    }

    /// Check one response; returns its latency in ms.
    fn receive(&mut self, resp: Response, now_ns: u64) -> f64 {
        let id = resp.id as usize;
        let start = self.start_ns.get(id).copied().unwrap_or(now_ns);
        trace::record_with_id(trace::request_span(resp.id), "request", 0, resp.id, start, now_ns);
        match self.answered.get_mut(id) {
            Some(a) if *a == 0 => *a = 1,
            _ => {
                eprintln!("omnibench: CHECK FAILED: response {} is unknown or repeated", resp.id);
                self.bad_responses += 1;
            }
        }
        let verdict = check::check_topk(&resp.top, TOPK, self.catalogue.len(), |i| self.catalogue.contains(&i));
        if let Err(e) = verdict {
            eprintln!("omnibench: CHECK FAILED: response {}: {e}", resp.id);
            self.bad_responses += 1;
        }
        let sampled = match self.traffic.kind {
            Kind::Catalogue => resp.id % 97 == 5,
            Kind::Online => resp.id % 31 == 3 && !self.traffic.graduating.contains(&resp.user),
        };
        if sampled && self.samples.len() < CHECK_SAMPLES {
            self.samples.push((resp.user, resp.top));
        }
        (now_ns - start) as f64 / 1e6
    }

    fn recv(&mut self, timeout: Duration) -> Option<(Response, u64)> {
        match self.responses.recv_timeout(timeout) {
            Ok(r) => Some((r, trace::now_ns())),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => panic!("front-end worker went away"),
        }
    }

    /// Untimed warm-up: `WARMUP` requests, all answered before timing. On
    /// serve_online the events that graduate every graduating user come
    /// first, so that every measured event re-encodes and swaps.
    fn warm_up(&mut self) {
        if self.traffic.kind == Kind::Online {
            for _ in 0..serve_options().warm_after * self.traffic.graduating.len() {
                self.send_event();
            }
        }
        let mut out = 0;
        for _ in 0..WARMUP {
            if self.send(trace::now_ns()) {
                out += 1;
            }
        }
        while out > 0 {
            if let Some((r, t)) = self.recv(Duration::from_secs(60)) {
                self.receive(r, t);
                out -= 1;
            }
        }
    }

    /// Closed loop for `secs`: keep `WINDOW` requests in flight. Returns
    /// (responses, seconds until the last one).
    fn closed_loop(&mut self, secs: f64) -> (u64, f64) {
        let t0 = trace::now_ns();
        let end = t0 + (secs * 1e9) as u64;
        let (mut in_flight, mut done, mut last) = (0usize, 0u64, t0);
        loop {
            let now = trace::now_ns();
            while now < end && in_flight < WINDOW {
                if self.send(trace::now_ns()) {
                    in_flight += 1;
                }
            }
            if in_flight == 0 {
                break;
            }
            if let Some((r, t)) = self.recv(Duration::from_secs(60)) {
                self.receive(r, t);
                in_flight -= 1;
                done += 1;
                last = t;
            }
        }
        (done, (last - t0) as f64 / 1e9)
    }

    /// Open loop: `total` requests due at a fixed `rate`, sent when due
    /// whatever the backlog. Returns per-request latencies from the due
    /// time, and how late the generator sent each request (ms).
    fn open_loop(&mut self, total: u64, rate: f64) -> (Vec<f64>, Vec<f64>) {
        let gap_ns = 1e9 / rate;
        let start = trace::now_ns() + 1_000_000;
        let (mut sent, mut out) = (0u64, 0usize);
        let mut lat = Vec::with_capacity(total as usize);
        let mut late = Vec::with_capacity(total as usize);
        while sent < total || out > 0 {
            let wait = if sent < total {
                let due = start + (sent as f64 * gap_ns) as u64;
                let now = trace::now_ns();
                if now >= due {
                    late.push((now - due) as f64 / 1e6);
                    self.open_ids.insert(self.next_id);
                    if self.send(due) {
                        out += 1;
                    }
                    sent += 1;
                    continue;
                }
                Duration::from_nanos(due - now)
            } else {
                Duration::from_secs(60)
            };
            if let Some((r, t)) = self.recv(wait) {
                lat.push(self.receive(r, t));
                out -= 1;
            }
        }
        (lat, late)
    }
}

pub fn run(args: &Args, kind: Kind) -> Report {
    let mut rep = Report::default();
    let dir = args.out.join(format!("arenas-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create arena directory");

    // Set-up, SETUP_BEFORE times over; each earlier front-end is shut down
    // before the next cold start, and the last one serves the run.
    let mut timings: Vec<[f64; 7]> = Vec::new();
    let timing = |s: &Setup| {
        let f = &s.factory;
        [s.secs, s.fit_s, s.world_ms, s.write_ms, f.ckpt_ms, f.corpus_ms, f.map_ms]
    };
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_BEFORE {
        if let Some(mut prev) = last.take() {
            if let Some(r) = prev.running.take() {
                r.fe.shutdown().expect("front-end worker panicked");
            }
        }
        let s = setup(args, kind, &dir);
        timings.push(timing(&s));
        last = Some(s);
    }
    let mut s = last.expect("at least one set-up");
    let running = s.running.take().expect("the last set-up's front-end");

    // The served model's cold-start quality, checked like `train`'s.
    let test = s.scenario.test_pairs();
    let eval = s.trained.evaluate(&test);
    let pairs: Vec<(UserId, ItemId)> = test.iter().map(|it| (it.user, it.item)).collect();
    let gold: Vec<f32> = test.iter().map(|it| it.rating.value()).collect();
    let preds = s.trained.predict(&pairs);
    rep.check("test predictions", check::check_predictions(&preds));
    rep.check("evaluate vs recomputed RMSE/MAE", check::check_eval(&preds, &gold, eval.rmse, eval.mae, 1e-5));
    rep.set("train.cold_rmse", f64::from(eval.rmse));

    // The measured part.
    let traffic = Traffic::new(kind, args.trace_seed, &s.scenario, s.recipe.cfg.text_field);
    let catalogue: BTreeSet<ItemId> = s.catalogue.iter().copied().collect();
    let mut d = Client {
        handle: running.fe.handle(),
        responses: &running.responses,
        traffic: &traffic,
        catalogue: &catalogue,
        start_ns: Vec::new(),
        answered: Vec::new(),
        open_ids: BTreeSet::new(),
        next_id: 0,
        next_event: 0,
        events_by_user: BTreeMap::new(),
        requests_attempted: 0,
        events_attempted: 0,
        requests_rejected: 0,
        events_rejected: 0,
        bad_responses: 0,
        samples: Vec::new(),
    };
    d.warm_up();
    let counters = KernelCounters::read();
    let rate = open_rate(kind);
    let per_round = (args.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64 * rate) as u64;
    let (mut rates, mut lat, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let mut round_p90 = Vec::new();
    for _ in 0..ROUNDS {
        let (n, secs) = d.closed_loop(args.seconds * CLOSED_SHARE / ROUNDS as f64);
        rates.push(n as f64 / secs);
        let (l, g) = d.open_loop(per_round, rate);
        round_p90.push(Summary::of(&l).p90);
        lat.extend(l);
        late.extend(g);
    }
    let kernels_used = counters.delta();
    let qps = median(&rates);
    let tail = Summary::of(&lat);
    let p90 = median(&round_p90);
    rep.set("serve.qps", qps);
    rep.set("serve.p50_ms", tail.p50);
    println!(
        "omnibench: {ROUNDS} rounds; closed loop (window {WINDOW}) median {qps:.1} req/s, rounds \
         {rates:.1?}; open loop at {rate} req/s, {}; p90 per round {round_p90:.2?}, median \
         {p90:.3} ms; generator late by median {:.3} ms, max {:.3} ms",
        tail.line(),
        median(&late),
        late.iter().copied().fold(0.0, f64::max)
    );

    // Drain and stop; every accepted request must have been answered once.
    let handle = running.fe.handle();
    running.fe.shutdown().expect("front-end worker panicked");
    let snap = handle.stats_snapshot();
    let worker = running.report.recv().expect("worker report");
    while let Ok(resp) = running.responses.try_recv() {
        d.receive(resp, trace::now_ns());
    }
    // The served program's peak, before the set-ups after the run and the
    // independent checks add their own.
    rep.set("peak_rss_mb", crate::peak_rss_mb());

    // The rest of set-up: full cold starts again, each front-end shut down
    // at once, in a directory of their own (the checks below map the
    // served blobs).
    let after_dir = dir.join("after");
    std::fs::create_dir_all(&after_dir).expect("create arena directory");
    for _ in 0..SETUP_AFTER {
        let mut again = setup(args, kind, &after_dir);
        timings.push(timing(&again));
        if let Some(r) = again.running.take() {
            r.fe.shutdown().expect("front-end worker panicked");
        }
    }
    let col = |i: usize| median(&timings.iter().map(|t| t[i]).collect::<Vec<_>>());
    for (i, name) in [
        "setup_s",
        "train.fit_s",
        "data.world_ms",
        "arena.write_ms",
        "ckpt.load_ms",
        "corpus.build_ms",
        "arena.map_ms",
    ]
    .into_iter()
    .enumerate()
    {
        rep.set(name, col(i));
    }
    let file_mb = |p: &std::path::Path| std::fs::metadata(p).map_or(0.0, |m| m.len() as f64 / 1e6);
    rep.set("arena.item_mb", file_mb(&s.recipe.item_path));
    rep.set("arena.user_mb", file_mb(&s.recipe.user_path));
    rep.attempted += timings.len() as u64;
    println!(
        "omnibench: set-up median {:.3} s over {} cold starts ({SETUP_BEFORE} before the run, \
         {SETUP_AFTER} after; fit {:.3} s, each {:.3?}); catalogue {} items",
        col(0),
        timings.len(),
        col(1),
        timings.iter().map(|t| t[1]).collect::<Vec<_>>(),
        s.catalogue.len()
    );
    let unanswered = d.answered.iter().filter(|&&a| a == 0).count() as u64;
    rep.attempted += d.requests_attempted + d.events_attempted;
    rep.failed += d.requests_rejected + d.events_rejected + unanswered + snap.update_errors;
    println!(
        "omnibench: requests sent {}, served {}, rejected {}, scorer errors {} ({} requests \
         unanswered); events submitted {}, rejected {}, update errors {}; graduations {}, swaps {}, \
         final generation {}",
        d.requests_attempted,
        snap.served,
        d.requests_rejected,
        snap.scorer_errors,
        unanswered,
        d.events_attempted,
        d.events_rejected,
        snap.update_errors,
        snap.graduations,
        snap.swaps,
        worker.generation
    );
    let accepted = d.requests_attempted - d.requests_rejected;
    rep.check(
        "every accepted request answered exactly once",
        if d.bad_responses == 0 && snap.served + unanswered == accepted && unanswered == snap.dropped {
            Ok(())
        } else {
            Err(format!(
                "{} bad responses, {unanswered} unanswered, {} served of {accepted} accepted",
                d.bad_responses, snap.served
            ))
        },
    );

    match kind {
        Kind::Catalogue => check_catalogue(&s, &d.samples, &mut rep),
        Kind::Online => {
            let warm_after = serve_options().warm_after;
            let grads = d.events_by_user.values().filter(|&&n| n >= warm_after).count() as u64;
            let past: u64 = d.events_by_user.values().map(|&n| (n + 1).saturating_sub(warm_after) as u64).sum();
            let eq = |what: &str, got: u64, want: u64| {
                if got == want { Ok(()) } else { Err(format!("{what}: front-end {got}, schedule {want}")) }
            };
            rep.check("graduations", eq("graduations", snap.graduations, grads));
            rep.check("swaps", eq("swaps", snap.swaps, past));
            rep.check("final user generation", eq("generation", worker.generation, past));
            check_online(&s, &d.samples, &mut rep);
            rep.set("update.swaps", snap.swaps as f64);
            rep.set("update.graduations", snap.graduations as f64);
        }
    }

    if args.trace {
        traced_layers(args, kind, &s, &worker, &d, kernels_used, snap.served, &mut rep);
        rep.traced.insert("serve.qps", qps);
        rep.traced.insert("serve.p50_ms", tail.p50);
    }
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

/// serve_catalogue: the benchmark's own full sort of `score_user` over the
/// whole catalogue reproduces sampled served top-K lists.
fn check_catalogue(s: &Setup, samples: &[(UserId, Vec<(ItemId, f32)>)], rep: &mut Report) {
    let r = &s.recipe;
    let model = load_model(&r.cfg, r.vocab, &r.ckpt).expect("decode checkpoint");
    let views = CorpusViews::build(&r.scenario, &r.cfg, &mut seeded_rng(r.cfg.seed));
    let items = ItemArena::load_blob(&r.item_path, Verify::Full).expect("map item arena");
    let users = UserArena::load_blob(&r.user_path, Verify::Full).expect("map user arena");
    let engine = ShardedEngine::new(ServeEngine::with_arenas(model, views, items, users, serve_options()));
    rep.check("sampled responses", if samples.is_empty() { Err("none sampled".into()) } else { Ok(()) });
    for (user, top) in samples {
        let verdict = engine
            .score_user(*user)
            .map_err(|e| e.to_string())
            .and_then(|scores| check::check_against_full_sort(top, &s.catalogue, &scores, SORT_TOL));
        rep.check(&format!("full sort of user {}", user.0), verdict);
    }
    println!("omnibench: {} sampled top-K lists match a full sort of score_user", samples.len());
}

/// serve_online: for sampled users that stay cold, served lists match
/// `TrainedOmniMatch::predict` over the whole catalogue.
fn check_online(s: &Setup, samples: &[(UserId, Vec<(ItemId, f32)>)], rep: &mut Report) {
    rep.check("sampled responses", if samples.is_empty() { Err("none sampled".into()) } else { Ok(()) });
    for (user, top) in samples {
        let pairs: Vec<(UserId, ItemId)> = s.catalogue.iter().map(|&i| (*user, i)).collect();
        let scores = s.trained.predict(&pairs);
        rep.check(
            &format!("served vs predict for cold user {}", user.0),
            check::check_against_full_sort(top, &s.catalogue, &scores, PREDICT_TOL),
        );
    }
    println!("omnibench: {} sampled cold-user lists match predict within {PREDICT_TOL} stars", samples.len());
}

/// Re-run one recorded flush stage by stage with the program's public
/// pieces, as `ShardedEngine::serve_batch` runs it: user rows (arena copy
/// or cold tower), then per item shard the cross join, rating head,
/// expected stars and per-request top-K, then the merge. Returns the stage
/// times (ms): [tower, pair_rows, head, stars, top-K].
fn replay_flush(
    model: &OmniMatchModel,
    views: &CorpusViews,
    items: &ItemArena,
    users: &UserArena,
    reqs: &[(u64, UserId, bool)],
) -> [f64; 5] {
    let _mode = om_nn::inference_mode();
    let parent = trace::next_id();
    let t0 = trace::now_ns();
    let (ud, idim, n) = (users.dim(), items.dim(), items.len());
    let shard = serve_options().shard_items;
    let mut t = [0.0f64; 5];
    let (rows, ms) = trace::timed("engine.user_tower", parent, || {
        let mut rows = vec![0.0f32; reqs.len() * ud];
        let mut cold: Vec<(usize, UserId)> = Vec::new();
        for (i, &(_, u, warm)) in reqs.iter().enumerate() {
            let dst = &mut rows[i * ud..(i + 1) * ud];
            // A user who graduated during the run is not in the mapped
            // generation-0 arena; any warm row costs the same copy.
            if !warm {
                cold.push((i, u));
            } else if !users.copy_row_into(u, dst) {
                users.copy_row_into(users.ids()[0], dst);
            }
        }
        if !cold.is_empty() {
            let docs: Vec<&[usize]> = cold.iter().map(|&(_, u)| views.target_doc(u)).collect();
            let tower = model.user_target_rows(&docs);
            for (&(i, _), src) in cold.iter().zip(tower.chunks_exact(ud)) {
                rows[i * ud..(i + 1) * ud].copy_from_slice(src);
            }
        }
        rows
    });
    t[0] = ms;
    let mut pools: Vec<Vec<(f32, usize)>> = vec![Vec::new(); reqs.len()];
    let mut scratch = Vec::new();
    for base in (0..n).step_by(shard) {
        let hi = (base + shard).min(n);
        let sn = hi - base;
        let block = items.rows_f32(base, hi, &mut scratch);
        let (pairs, ms) = trace::timed("engine.pair_rows", parent, || kernels::pair_rows(&rows, block, ud, idim));
        t[1] += ms;
        let (logits, ms) = trace::timed("engine.head", parent, || {
            let pairs = Tensor::from_vec(pairs, &[reqs.len() * sn, ud + idim]);
            model.rating_logits_from_pairs(&pairs, false, &mut seeded_rng(0))
        });
        t[2] += ms;
        let (stars, ms) = trace::timed("engine.stars", parent, || OmniMatchModel::expected_stars(&logits));
        t[3] += ms;
        let ((), ms) = trace::timed("topk.select", parent, || {
            for (pool, row) in pools.iter_mut().zip(stars.chunks(sn)) {
                pool.extend(om_metrics::top_k_indices(row, TOPK).into_iter().map(|i| (row[i], base + i)));
            }
        });
        t[4] += ms;
    }
    let (merged, ms) = trace::timed("topk.select", parent, || {
        pools.into_iter().map(|p| om_metrics::merge_top_k(p, TOPK)).collect::<Vec<_>>()
    });
    t[4] += ms;
    drop(merged);
    trace::record_with_id(parent, "replay.flush", 0, 0, t0, trace::now_ns());
    t
}

/// Evenly spaced picks of at most `k` out of `n`.
fn spread(n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    (0..k).map(|j| j * n / k).collect()
}

/// The traced run's per-layer figures for a serving workload.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    args: &Args,
    kind: Kind,
    s: &Setup,
    worker: &WorkerReport,
    d: &Client<'_>,
    kernels_used: KernelCounters,
    served: u64,
    rep: &mut Report,
) {
    // Kernel and runtime counts per request served in the measured loops.
    kernels_used.report_per(served.max(1) as f64, rep);

    // Flushes: duration and size; wait = request latency minus its flush.
    let measured: Vec<&FlushRec> =
        worker.flushes.iter().filter(|f| f.reqs.iter().all(|r| r.0 >= WARMUP)).collect();
    let flush_ms: Vec<f64> = measured.iter().map(|f| (f.end_ns - f.start_ns) as f64 / 1e6).collect();
    rep.set("engine.flush_ms", median(&flush_ms));
    let reqs_in_flushes: usize = measured.iter().map(|f| f.reqs.len()).sum();
    rep.set("engine.batch_size", reqs_in_flushes as f64 / measured.len().max(1) as f64);
    let spans = trace::snapshot();
    let mut flush_of: BTreeMap<u64, &trace::SpanRec> = BTreeMap::new();
    for sp in spans.iter().filter(|sp| sp.name == "engine.flush") {
        flush_of.insert(sp.req, sp);
    }
    let waits: Vec<f64> = spans
        .iter()
        .filter(|sp| sp.name == "request" && d.open_ids.contains(&sp.req))
        .filter_map(|sp| flush_of.get(&sp.req).map(|f| trace::self_ms(sp, &[*f])))
        .collect();
    rep.set("frontend.wait_ms", median(&waits));

    // Stage breakdown of sampled flushes, on their own shapes and users.
    // Full verification reads every page, so the replay pays no first-touch
    // faults the serving engine had already paid.
    let r = &s.recipe;
    let items = ItemArena::load_blob(&r.item_path, Verify::Full).expect("map item arena");
    let users = UserArena::load_blob(&r.user_path, Verify::Full).expect("map user arena");
    let (model, views) = (s.trained.model(), s.trained.views());
    let mut stages: [Vec<f64>; 5] = Default::default();
    let mut coverage = Vec::new();
    for i in spread(measured.len(), REPLAYS) {
        let f = measured[i];
        let t = replay_flush(model, views, &items, &users, &f.reqs);
        for (acc, v) in stages.iter_mut().zip(t) {
            acc.push(v);
        }
        coverage.push(t.iter().sum::<f64>() / ((f.end_ns - f.start_ns) as f64 / 1e6));
    }
    rep.set("engine.user_tower_ms", median(&stages[0]));
    rep.set("engine.pair_rows_ms", median(&stages[1]));
    rep.set("engine.head_ms", median(&stages[2]));
    rep.set("engine.stars_ms", median(&stages[3]));
    rep.set("topk.select_ms", median(&stages[4]));
    rep.set("engine.coverage", median(&coverage));

    // Online updates: recorded apply time of events that swapped, and the
    // two halves of such an event re-run on the schedule's own texts.
    if kind == Kind::Online {
        let applied: Vec<f64> = worker.applies.iter().filter(|a| a.swapped).map(|a| a.ms).collect();
        rep.set("update.apply_ms", if applied.is_empty() { 0.0 } else { median(&applied) });
        let warm_after = serve_options().warm_after;
        let mut seen: BTreeMap<UserId, Vec<String>> = BTreeMap::new();
        let mut past: Vec<(UserId, Vec<String>)> = Vec::new();
        for e in 0..d.next_event {
            let ev = d.traffic.event(e);
            let texts = seen.entry(ev.user).or_default();
            texts.push(ev.text);
            if texts.len() >= warm_after {
                past.push((ev.user, texts.clone()));
            }
        }
        let (mut encode, mut with_row) = (Vec::new(), Vec::new());
        // After warm-up the live arena is an owned copy that already holds
        // every graduating user, so each measured event overwrites a row:
        // time `with_row` on such an arena.
        let live = {
            let zeros = vec![0.0; users.dim()];
            let mut live = users.with_row(d.traffic.graduating[0], &zeros);
            for &u in &d.traffic.graduating[1..] {
                live = live.with_row(u, &zeros);
            }
            live
        };
        for i in spread(past.len(), REPLAYS) {
            let (user, texts) = &past[i];
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let (row, ms) = trace::timed("update.encode", 0, || {
                let doc = views.encode_reviews(&refs);
                model.user_target_rows(&[&doc])
            });
            encode.push(ms);
            let (shadow, ms) = trace::timed("update.with_row", 0, || live.with_row(*user, &row));
            with_row.push(ms);
            drop(shadow);
        }
        rep.set("update.encode_ms", if encode.is_empty() { 0.0 } else { median(&encode) });
        rep.set("update.with_row_ms", if with_row.is_empty() { 0.0 } else { median(&with_row) });
    }

    // The training side of set-up: the served model's fit, step by step.
    let steps = step::breakdown(&r.cfg, &s.scenario, views, 8);
    steps.report(rep);
    let batches = step::batches_per_fit(&r.cfg, &s.scenario);
    let corpus_ms = rep.values.get("corpus.build_ms").copied().unwrap_or(0.0);
    let fit_ms = rep.values.get("train.fit_s").copied().unwrap_or(0.0) * 1e3;
    rep.set("train.batches", batches as f64);
    rep.set("train.coverage", (corpus_ms + batches as f64 * steps.step_sum()) / fit_ms);
    println!(
        "omnibench: flush {:.3} ms median over {} flushes, stages explain {:.1}% (model seed {})",
        median(&flush_ms),
        measured.len(),
        100.0 * median(&coverage),
        args.model_seed
    );
}
