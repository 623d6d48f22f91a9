//! The `serve-hot` and `serve-churn` workloads: a Zipf(1.1) trace with
//! burst 0.2 replayed closed loop against a `TuneServer` by
//! [`crate::clients`] client threads.
//!
//! * **serve-hot**: the `TrafficMix::standard()` universe (48 keys) on
//!   memory shards with the default `ServerConfig`, pre-populated
//!   during set-up, so every timed request is an LRU hit.
//! * **serve-churn**: a 120-key universe (every device × 4 orders × 3
//!   small grids × SP/DP) on JSONL shards in a temporary directory, an
//!   LRU of 2 entries and a loose 10 s budget per request. Each epoch
//!   builds a cold server (`TuneServer::new` with a fresh
//!   `EvalContext`) and replays a 2000-request slice of the trace, so
//!   leaders compute and append, the LRU evicts and the store serves.
//!
//! Every served response is checked against a direct `TuneService`
//! resolve of its key.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::EvalContext;
use stencil_autotune::TuneSample;
use stencil_grid::Precision;
use stencil_tuneserve::{
    predicted_search_micros, zipf_trace, ServeOutcome, ServeRequest, ServeTier, ServerConfig,
    ServerStats, ShardedStore, TrafficMix, TuneServer,
};
use stencil_tunestore::{MemStore, TuneService, TuneStore};

use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Tracer;
use crate::{clients, repeated_setup, Report, RunCtx, SETUP_REPS};

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request an LRU hit.
    Hot,
    /// Cold servers with writes beside reads.
    Churn,
}

const ZIPF: f64 = 1.1;
const BURST: f64 = 0.2;
const SHARDS: usize = 4;
/// serve-hot trace length (one replay).
const HOT_TRACE: usize = 50_000;
/// serve-churn requests per epoch, and trace slices generated.
const CHURN_EPOCH: usize = 2_000;
const CHURN_SLICES: usize = 64;
/// serve-churn LRU capacity, below the hot set: about a third of the
/// requests hit it, so the median sits among store hits.
const CHURN_LRU: usize = 2;
/// serve-churn per-request budget: loose enough that nothing sheds,
/// so admission prices every miss.
const CHURN_BUDGET_MICROS: u64 = 10_000_000;
/// Share of a serve-hot run spent timing cold resolves on fresh servers.
const HOT_COLD_SHARE: f64 = 0.25;
/// Percentile reported as the serving tail.
const TAIL_PCT: f64 = 99.0;

fn mix(kind: Kind, seed: u64) -> TrafficMix {
    match kind {
        Kind::Hot => TrafficMix {
            seed,
            ..TrafficMix::standard()
        },
        Kind::Churn => TrafficMix {
            devices: DeviceSpec::all_devices(),
            orders: vec![2, 4, 6, 8],
            grids: vec![
                GridDims::new(64, 64, 32),
                GridDims::new(96, 96, 32),
                GridDims::new(128, 64, 48),
            ],
            precisions: vec![Precision::Single, Precision::Double],
            seed,
        },
    }
}

/// The generated inputs of one run.
struct Inputs {
    requests: Vec<ServeRequest>,
    hashes: Vec<u64>,
    trace: Vec<usize>,
}

fn inputs(kind: Kind, seed: u64) -> Inputs {
    let universe = mix(kind, seed).universe();
    let requests: Vec<ServeRequest> = universe
        .into_iter()
        .map(|req| match kind {
            Kind::Hot => ServeRequest::unbounded(req),
            Kind::Churn => ServeRequest::with_budget(req, CHURN_BUDGET_MICROS),
        })
        .collect();
    let hashes = requests.iter().map(|r| r.req.key().stable_hash()).collect();
    let len = match kind {
        Kind::Hot => HOT_TRACE,
        Kind::Churn => CHURN_EPOCH * CHURN_SLICES,
    };
    let trace = zipf_trace(requests.len(), len, ZIPF, BURST, seed);
    Inputs {
        requests,
        hashes,
        trace,
    }
}

fn cold_server(store: ShardedStore, lru_capacity: usize) -> TuneServer {
    TuneServer::new(
        Arc::new(store),
        Arc::new(EvalContext::new()),
        ServerConfig {
            lru_capacity,
            ..ServerConfig::default()
        },
    )
}

/// One timed request: latency, the universe index and the serving tier
/// (`None` when shed).
#[derive(Clone, Copy)]
struct Sample {
    ns: u64,
    key: u32,
    tier: Option<ServeTier>,
}

impl Sample {
    fn key(&self) -> usize {
        self.key as usize
    }
}

/// Replay `stream` closed loop: each client sends its next request when
/// the previous one returns. Returns the samples, mismatching
/// responses, and the wall time.
fn replay(
    server: &TuneServer,
    inputs: &Inputs,
    stream: &[usize],
    reference: &[TuneSample],
    tracer: &Tracer,
) -> (Vec<Sample>, Vec<String>, f64) {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::with_capacity(stream.len() / clients() + 1);
                    let mut bad = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = stream.get(i) else { break };
                        let t = Instant::now();
                        let outcome = tracer.span("tuneserve.resolve", || {
                            server.resolve(&inputs.requests[key])
                        });
                        let ns = t.elapsed().as_nanos() as u64;
                        let tier = match &outcome {
                            ServeOutcome::Served(s) => {
                                let r = &s.response;
                                let ok = r.key_hash == inputs.hashes[key]
                                    && r.best.config == reference[key].config
                                    && r.best.mpoints.to_bits() == reference[key].mpoints.to_bits();
                                if !ok && bad.len() < 4 {
                                    bad.push(format!(
                                        "key {key} served by {} differs from a direct resolve",
                                        s.tier.label()
                                    ));
                                }
                                Some(s.tier)
                            }
                            ServeOutcome::Shed(_) => None,
                        };
                        samples.push(Sample {
                            ns,
                            key: key as u32,
                            tier,
                        });
                    }
                    (samples, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::with_capacity(stream.len());
    let mut bad = Vec::new();
    for (s, b) in per_client {
        samples.extend(s);
        bad.extend(b);
    }
    (samples, bad, wall)
}

/// Requests per serving tier, in the tier order of the server.
#[derive(Clone, Copy, Default)]
struct Tiers {
    lru: u64,
    store: u64,
    shared: u64,
    computed: u64,
    shed: u64,
}

fn count_tiers<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Tiers {
    let mut t = Tiers::default();
    for s in samples {
        match s.tier {
            Some(ServeTier::Lru) => t.lru += 1,
            Some(ServeTier::Store) => t.store += 1,
            Some(ServeTier::Shared) => t.shared += 1,
            Some(ServeTier::Computed) | Some(ServeTier::WarmStarted) => t.computed += 1,
            None => t.shed += 1,
        }
    }
    t
}

/// Counter movement of one server between two snapshots.
fn delta(before: &ServerStats, after: &ServerStats) -> ServerStats {
    let mut d = after.clone();
    d.service.served_from_store -= before.service.served_from_store;
    d.service.computed -= before.service.computed;
    d.service.warm_started -= before.service.warm_started;
    d.service.shared -= before.service.shared;
    d.lru.hits -= before.lru.hits;
    d.lru.misses -= before.lru.misses;
    d.lru.inserts -= before.lru.inserts;
    d.lru.evictions -= before.lru.evictions;
    d.admission.admitted -= before.admission.admitted;
    d.admission.shed_saturated -= before.admission.shed_saturated;
    d.admission.shed_over_budget -= before.admission.shed_over_budget;
    d.admission.shed_deadline -= before.admission.shed_deadline;
    d.store.hits -= before.store.hits;
    d.store.misses -= before.store.misses;
    d.store.inserts -= before.store.inserts;
    d
}

/// Reconcile one replay's outcomes with the server's counters:
/// served + shed == offered, and each tier's count equals the counter
/// of the layer that served it.
fn reconcile(samples: &[Sample], d: &ServerStats) -> Result<(), String> {
    let t = count_tiers(samples);
    let offered = samples.len() as u64;
    let served = t.lru + t.store + t.shared + t.computed;
    let checks = [
        (
            "served + shed == offered",
            served + d.admission.shed() == offered,
        ),
        ("lru tier == LRU hits", t.lru == d.lru.hits),
        (
            "store tier == store-served",
            t.store == d.service.served_from_store,
        ),
        (
            "shared tier == single-flight shared",
            t.shared == d.service.shared,
        ),
        (
            "computed tier == leaders",
            t.computed == d.service.computed + d.service.warm_started,
        ),
        (
            "shed outcomes == admission sheds",
            t.shed == d.admission.shed(),
        ),
    ];
    for (what, ok) in checks {
        if !ok {
            return Err(format!(
                "reconciliation failed: {what} (tiers lru {} store {} shared {} computed {} shed {}, offered {offered})",
                t.lru, t.store, t.shared, t.computed, t.shed
            ));
        }
    }
    Ok(())
}

/// Direct `TuneService` resolves of every key: the reference answers.
fn reference(inputs: &Inputs) -> Vec<TuneSample> {
    let service = TuneService::new(Arc::new(MemStore::new()), Arc::new(EvalContext::new()));
    inputs
        .requests
        .iter()
        .map(|r| service.resolve(&r.req).best)
        .collect()
}

/// Time the layers a request crosses by calling their public functions
/// directly on the same stream: key derivation and the store lookup
/// for every request, admission pricing for every key that computed.
fn decompose(
    t: &Tracer,
    server: &TuneServer,
    inputs: &Inputs,
    samples: &[Sample],
    reference: &[TuneSample],
    report: &mut Report,
) {
    for s in samples {
        let req = &inputs.requests[s.key()].req;
        let key = t.span("tunestore.key", || req.key());
        report.check(key.stable_hash() == inputs.hashes[s.key()], || {
            format!("key {}: derivation is not stable", s.key)
        });
        let rec = t.span("tunestore.store.get", || server.store().get(&key));
        let ok = rec.is_some_and(|r| r.best == reference[s.key()].config);
        report.check(ok, || {
            format!("key {}: the store lacks the served answer", s.key)
        });
    }
    let computed: BTreeSet<usize> = samples
        .iter()
        .filter(|s| s.tier == Some(ServeTier::Computed))
        .map(|s| s.key())
        .collect();
    for k in computed {
        let req = &inputs.requests[k].req;
        let micros = t.span("tuneserve.admission.price", || predicted_search_micros(req));
        report.check(micros == server.predicted_micros(req), || {
            format!("key {k}: admission priced differently from the server")
        });
    }
}

/// A directory for the JSONL shards inside the working directory,
/// removed (with its parent, when empty) on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new() -> Self {
        let root = Path::new(".hostbench-tmp").join(format!("serve-churn-{}", std::process::id()));
        TempRoot(root)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".hostbench-tmp");
    }
}

/// What one run of units accumulated.
#[derive(Default)]
struct Run {
    /// Samples per unit, kept apart so a long run never reallocates
    /// one large buffer (which would make peak RSS jump).
    samples: Vec<Vec<Sample>>,
    /// Replay wall of each unit, index-aligned with `samples`.
    walls: Vec<f64>,
    eval_hits: u64,
    eval_misses: u64,
    stats: Vec<ServerStats>,
}

impl Run {
    fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().flatten()
    }

    fn units(&self) -> usize {
        self.walls.len()
    }

    fn wall(&self) -> f64 {
        self.walls.iter().sum()
    }
}

/// One serve-churn epoch on a cold JSONL-backed server.
#[allow(clippy::too_many_arguments)]
fn churn_epoch(
    epoch: usize,
    root: &TempRoot,
    inputs: &Inputs,
    reference: &[TuneSample],
    tracer: &Tracer,
    decomposed: bool,
    run: &mut Run,
    report: &mut Report,
) {
    let dir = root.0.join(format!("epoch-{epoch}"));
    let store = match ShardedStore::open_dir(&dir, SHARDS) {
        Ok(s) => s,
        Err(e) => {
            report.problems.push(format!(
                "cannot open JSONL shards in {}: {e}",
                dir.display()
            ));
            return;
        }
    };
    let server = cold_server(store, CHURN_LRU);
    let slice = epoch % CHURN_SLICES;
    let stream = &inputs.trace[slice * CHURN_EPOCH..(slice + 1) * CHURN_EPOCH];
    let (samples, bad, wall) = replay(&server, inputs, stream, reference, tracer);
    report.problems.extend(bad);
    let stats = server.stats();
    let eval = server.service().ctx().stats();
    match reconcile(&samples, &stats) {
        Ok(()) => {
            // Cold-context reconciliation: one eval miss per configuration
            // of every key a leader computed.
            let configs: u64 = samples
                .iter()
                .filter(|s| s.tier == Some(ServeTier::Computed))
                .map(|s| inputs.requests[s.key()].req.space.len() as u64)
                .sum();
            report.check(eval.misses == configs, || {
                format!(
                    "epoch {epoch}: {} eval misses for {configs} configurations",
                    eval.misses
                )
            });
        }
        Err(e) => report.problems.push(format!("epoch {epoch}: {e}")),
    }
    if decomposed {
        decompose(tracer, &server, inputs, &samples, reference, report);
    }
    run.eval_hits += eval.hits;
    run.eval_misses += eval.misses;
    run.stats.push(stats);
    run.samples.push(samples);
    run.walls.push(wall);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

fn served_ns(run: &Run, tier: ServeTier) -> Vec<f64> {
    sorted(
        run.iter()
            .filter(|s| s.tier == Some(tier))
            .map(|s| s.ns as f64)
            .collect(),
    )
}

fn p50_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, 50.0)
    }
}

/// Resolve every key once on a fresh memory-backed server: the cold
/// path (admission + single-flight search) serve-hot reports as
/// `heavy_p50_ms`. Returns the latencies, ns.
fn cold_round(inputs: &Inputs, reference: &[TuneSample], report: &mut Report) -> Vec<f64> {
    let server = cold_server(
        ShardedStore::mem(SHARDS),
        ServerConfig::default().lru_capacity,
    );
    let mut ns = Vec::with_capacity(inputs.requests.len());
    for (k, r) in inputs.requests.iter().enumerate() {
        let t = Instant::now();
        let outcome = server.resolve(r);
        ns.push(t.elapsed().as_nanos() as f64);
        let ok = outcome.served().is_some_and(|s| {
            s.tier == ServeTier::Computed
                && s.response.best.config == reference[k].config
                && s.response.best.mpoints.to_bits() == reference[k].mpoints.to_bits()
        });
        report.check(ok, || {
            format!("key {k}: cold resolve differs from a direct resolve")
        });
    }
    ns
}

pub fn run(ctx: &RunCtx, kind: Kind) -> Report {
    let mut report = Report::default();
    let traced = ctx.tracer.enabled();
    let reps = if traced { 1 } else { SETUP_REPS };
    // Set-up: universe, trace and (serve-hot) a pre-populated server.
    let ((inputs, hot_server), setup_s) = repeated_setup(reps, || {
        let inputs = inputs(kind, ctx.seed);
        let server = (kind == Kind::Hot).then(|| {
            let server = cold_server(
                ShardedStore::mem(SHARDS),
                ServerConfig::default().lru_capacity,
            );
            for r in &inputs.requests {
                let _ = server.resolve(r);
            }
            server
        });
        (inputs, server)
    });
    report.set("setup_s", setup_s);
    let reference = reference(&inputs);
    let root = TempRoot::new();

    // One unit of work: a whole-trace replay (serve-hot) or one cold
    // epoch (serve-churn).
    let mut epoch = 0usize;
    let mut unit =
        |run: &mut Run, tracer: &Tracer, decomposed: bool, report: &mut Report| match &hot_server {
            Some(server) => {
                let before = server.stats();
                let (samples, bad, wall) =
                    replay(server, &inputs, &inputs.trace, &reference, tracer);
                report.problems.extend(bad);
                let d = delta(&before, &server.stats());
                if let Err(e) = reconcile(&samples, &d) {
                    report.problems.push(e);
                }
                if decomposed {
                    decompose(tracer, server, &inputs, &samples, &reference, report);
                }
                run.stats.push(d);
                run.samples.push(samples);
                run.walls.push(wall);
            }
            None => {
                churn_epoch(
                    epoch, &root, &inputs, &reference, tracer, decomposed, run, report,
                );
                epoch += 1;
            }
        };

    let off = Tracer::new(false);
    if !traced {
        // serve-hot interleaves cold rounds with its replays, keeping
        // them at `HOT_COLD_SHARE` of the elapsed time.
        let mut run = Run::default();
        let mut cold_ns = Vec::new();
        let mut cold_wall = 0.0;
        let mut cold_rounds = 0;
        let start = Instant::now();
        while run.units() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
            unit(&mut run, &off, false, &mut report);
            if !report.problems.is_empty() {
                break;
            }
            let due = cold_wall < HOT_COLD_SHARE * start.elapsed().as_secs_f64();
            if kind == Kind::Hot && (due || cold_rounds < 2) {
                let t = Instant::now();
                cold_ns.extend(cold_round(&inputs, &reference, &mut report));
                cold_wall += t.elapsed().as_secs_f64();
                cold_rounds += 1;
            }
        }
        end_to_end(kind, &run, &cold_ns, &mut report);
    } else {
        let mut plain = Run::default();
        while plain.units() < 1 || plain.wall() < ctx.seconds / 2.0 {
            unit(&mut plain, &off, false, &mut report);
        }
        let mut run = Run::default();
        let start = Instant::now();
        for i in 0..plain.units() {
            unit(&mut run, &ctx.tracer, i + 1 == plain.units(), &mut report);
        }
        // The decomposition's direct calls run outside the replay walls.
        let traced_wall = start.elapsed().as_secs_f64();
        report.check_result(ctx.tracer.check_self_time(clients(), traced_wall));
        report.set_overhead(plain.wall(), run.wall());
        per_layer(&ctx.tracer, &run, &mut report);
    }
    report
}

fn end_to_end(kind: Kind, run: &Run, cold_ns: &[f64], report: &mut Report) {
    let all = sorted(run.iter().map(|s| s.ns as f64).collect());
    let tiers = count_tiers(run.iter());
    report.attempted = all.len() as u64;
    report.failed = tiers.shed;
    report.set_ok_frac();
    let p50 = percentile(&all, 50.0);
    report.set("p50_ms", p50 * 1e-6);
    match tail(&all, TAIL_PCT) {
        Ok(v) => report.set("tail_ms", v * 1e-6),
        Err(e) => report.problems.push(e),
    }
    // Median per-unit rate: a stretch of starved CPU slows one unit,
    // not the figure.
    let rates: Vec<f64> = run
        .samples
        .iter()
        .zip(&run.walls)
        .map(|(unit, wall)| unit.iter().filter(|s| s.tier.is_some()).count() as f64 / wall)
        .collect();
    let rps = median(&rates);
    report.set("rate_per_s", rps);
    let computed = match kind {
        Kind::Hot => sorted(cold_ns.to_vec()),
        Kind::Churn => served_ns(run, ServeTier::Computed),
    };
    if computed.is_empty() {
        report
            .problems
            .push("no computed request to time the cold path".into());
    } else {
        report.set("heavy_p50_ms", percentile(&computed, 50.0) * 1e-6);
    }
    // Served answers were checked bit-exact against direct resolves.
    report.set("best_ratio", 1.0);
    let n = all.len() as f64;
    report.note(format!(
        "serve_p50_us = {:.3} us ({} requests)",
        p50 * 1e-3,
        all.len()
    ));
    if let Some(v) = report.metrics.get("tail_ms") {
        report.note(format!("serve_p99_us = {:.3} us", v * 1e3));
    }
    report.note(format!(
        "serve_rps = {rps:.0} req/s ({} closed-loop clients)",
        clients()
    ));
    report.note(format!(
        "tiers: lru {:.1}%, store {:.1}%, shared {:.2}%, computed {:.2}%, shed {}",
        100.0 * tiers.lru as f64 / n,
        100.0 * tiers.store as f64 / n,
        100.0 * tiers.shared as f64 / n,
        100.0 * tiers.computed as f64 / n,
        tiers.shed
    ));
    report.note(format!("fail_frac = {:.6} ratio", tiers.shed as f64 / n));
}

fn per_layer(t: &Tracer, run: &Run, report: &mut Report) {
    let tiers = count_tiers(run.iter());
    let requests = run.iter().count();
    report.attempted = requests as u64;
    report.failed = tiers.shed;
    let mut sum = ServerStats::default();
    for s in &run.stats {
        sum.service.computed += s.service.computed + s.service.warm_started;
        sum.service.shared += s.service.shared;
        sum.lru.hits += s.lru.hits;
        sum.lru.misses += s.lru.misses;
        sum.lru.evictions += s.lru.evictions;
        sum.admission.admitted += s.admission.admitted;
        sum.admission.shed_saturated += s.admission.shed_saturated;
        sum.admission.shed_over_budget += s.admission.shed_over_budget;
        sum.admission.shed_deadline += s.admission.shed_deadline;
        sum.store.hits += s.store.hits;
        sum.store.inserts += s.store.inserts;
    }
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let layers = [
        ("tunestore.key.ns", t.mean_ns("tunestore.key")),
        ("tunestore.key.calls", t.calls("tunestore.key") as f64),
        ("tunestore.store.get_ns", t.mean_ns("tunestore.store.get")),
        ("tunestore.store.hits", sum.store.hits as f64),
        ("tunestore.store.inserts", sum.store.inserts as f64),
        ("tunestore.singleflight.led", sum.service.computed as f64),
        ("tunestore.singleflight.shared", sum.service.shared as f64),
        ("tuneserve.resolve.s", t.seconds("tuneserve.resolve")),
        ("tuneserve.lru.hits", sum.lru.hits as f64),
        ("tuneserve.lru.misses", sum.lru.misses as f64),
        ("tuneserve.lru.evictions", sum.lru.evictions as f64),
        (
            "tuneserve.lru.hit_ratio",
            ratio(sum.lru.hits, sum.lru.misses),
        ),
        (
            "tuneserve.tier.lru.p50_ns",
            p50_or_zero(&served_ns(run, ServeTier::Lru)),
        ),
        ("tuneserve.tier.lru.count", tiers.lru as f64),
        (
            "tuneserve.tier.store.p50_ns",
            p50_or_zero(&served_ns(run, ServeTier::Store)),
        ),
        ("tuneserve.tier.store.count", tiers.store as f64),
        (
            "tuneserve.tier.shared.p50_us",
            p50_or_zero(&served_ns(run, ServeTier::Shared)) * 1e-3,
        ),
        ("tuneserve.tier.shared.count", tiers.shared as f64),
        (
            "tuneserve.tier.computed.p50_us",
            p50_or_zero(&served_ns(run, ServeTier::Computed)) * 1e-3,
        ),
        ("tuneserve.tier.computed.count", tiers.computed as f64),
        (
            "tuneserve.admission.price_ms",
            t.mean_ns("tuneserve.admission.price") * 1e-6,
        ),
        (
            "tuneserve.admission.admitted",
            sum.admission.admitted as f64,
        ),
        (
            "tuneserve.admission.shed_saturated",
            sum.admission.shed_saturated as f64,
        ),
        (
            "tuneserve.admission.shed_over_budget",
            sum.admission.shed_over_budget as f64,
        ),
        (
            "tuneserve.admission.shed_deadline",
            sum.admission.shed_deadline as f64,
        ),
        ("core.eval.hits", run.eval_hits as f64),
        ("core.eval.misses", run.eval_misses as f64),
        ("core.eval.hit_ratio", ratio(run.eval_hits, run.eval_misses)),
    ];
    for (name, v) in layers {
        report.set(name, v);
    }
    let n = requests as f64;
    let lru_p50 = p50_or_zero(&served_ns(run, ServeTier::Lru));
    report.note(format!(
        "{} units, {} requests, {} clients; store tier {:.1}% of requests",
        run.units(),
        requests,
        clients(),
        100.0 * tiers.store as f64 / n
    ));
    if lru_p50 > 0.0 {
        report.note(format!(
            "key derivation {:.0} ns is {:.0}% of an LRU hit ({:.0} ns p50, traced)",
            t.mean_ns("tunestore.key"),
            100.0 * t.mean_ns("tunestore.key") / lru_p50,
            lru_p50
        ));
    }
}
