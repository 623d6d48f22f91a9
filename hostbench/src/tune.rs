//! The `tune` workload: in-process tune requests, each on a fresh
//! `EvalContext`, as the CLI pays per invocation.
//!
//! * **Forced** requests: one per device × registry routine, on the
//!   512×512×256 paper grid, cycling orders {2, 4, 8} and SP/DP; one in
//!   three is model-based (β = 5), the rest exhaustive. Each pays the
//!   space audit plus the search. Metric: `p50_ms`, `tail_ms`,
//!   `rate_per_s`.
//! * **Auto** requests: one per device on 256×256×64, where the routine
//!   selector is most of the request. Each pays the space audit, the
//!   selector and the search of the chosen routine. Metric:
//!   `heavy_p50_ms`.
//! * Set-up tunes every supporting routine Forced on each Auto case —
//!   untimed references for `best_ratio` (1 − Auto's regret).
//!
//! The seed sets the measurement-noise seed and the request order.

use std::time::Instant;

use gpu_sim::{apply_noise, simulate_clean, DeviceSpec, GridDims, SimOptions};
use inplane_core::{
    build_block_plan, registry, CacheStats, EvalContext, KernelSpec, LaunchConfig, Method, PlanKey,
    ProblemSpec, Variant, MEASUREMENT_NOISE_AMPLITUDE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use stencil_autotune::{
    exhaustive_tune_selected, exhaustive_tune_with, model_based_tune_with, predict_mpoints,
    ParameterSpace, RoutineChoice, RoutineRank, RoutineSelector, TuneSample,
};
use stencil_grid::Precision;
use stencil_lint::predict_traffic;

use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Tracer;
use crate::{repeated_setup, Report, RunCtx, SETUP_REPS};

const ORDERS: [usize; 3] = [2, 4, 8];
/// Model-based cutoff, percent of the space executed.
const BETA: f64 = 5.0;
/// A round is this many Forced passes, then one Auto pass; a run is
/// at least `MIN_ROUNDS` rounds.
const FORCED_PASSES_PER_ROUND: usize = 2;
const MIN_ROUNDS: usize = 2;
/// Percentile reported as the Forced tail: with 4 passes of 30
/// requests it leaves 30 samples beyond it.
const TAIL_PCT: f64 = 75.0;

/// One tune problem.
#[derive(Clone)]
struct Case {
    device: DeviceSpec,
    kernel: KernelSpec,
    model_based: bool,
}

impl Case {
    fn label(&self) -> String {
        let tuner = if self.model_based {
            "model-based"
        } else {
            "exhaustive"
        };
        format!("{} {} {tuner}", self.device.name, self.kernel.name)
    }
}

fn precision(i: usize) -> Precision {
    if i.is_multiple_of(2) {
        Precision::Single
    } else {
        Precision::Double
    }
}

/// Every device × registry routine, cycling orders and precisions.
fn forced_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (d, device) in DeviceSpec::all_devices().into_iter().enumerate() {
        for (r, routine) in registry().iter().enumerate() {
            let i = d * registry().len() + r;
            out.push(Case {
                device: device.clone(),
                kernel: KernelSpec::star_order(routine.method(), ORDERS[i % 3], precision(i / 3)),
                model_based: (d + r) % 3 == 2,
            });
        }
    }
    out
}

/// One Auto case per device; the first is GTX580 laplacian (order 2) SP.
fn auto_cases() -> Vec<Case> {
    DeviceSpec::all_devices()
        .into_iter()
        .enumerate()
        .map(|(d, device)| Case {
            device,
            kernel: KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                ORDERS[d % 3],
                precision(d),
            ),
            model_based: false,
        })
        .collect()
}

fn forced_dims() -> GridDims {
    GridDims::paper()
}

fn auto_dims() -> GridDims {
    GridDims::new(256, 256, 64)
}

/// A seeded permutation of `0..n`.
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// The tuned best of every routine that supports an Auto case at the
/// selector's probe, each Forced on a fresh context.
struct AutoReference {
    /// `(routine id, tuned best)` per supporting routine.
    per_routine: Vec<(u64, TuneSample)>,
}

impl AutoReference {
    fn best(&self) -> f64 {
        self.per_routine
            .iter()
            .map(|(_, s)| s.mpoints)
            .fold(0.0, f64::max)
    }

    fn of(&self, routine_id: u64) -> Option<TuneSample> {
        self.per_routine
            .iter()
            .find(|(id, _)| *id == routine_id)
            .map(|(_, s)| *s)
    }
}

fn problem_at(case: &Case, probe: &LaunchConfig, dims: GridDims) -> ProblemSpec {
    ProblemSpec {
        radius: case.kernel.radius,
        elem_bytes: case.kernel.elem_bytes,
        config: *probe,
        dims: (dims.lx, dims.ly, dims.lz),
        smem_limit: Some(case.device.smem_per_sm),
    }
}

fn auto_reference(case: &Case, seed: u64) -> AutoReference {
    let dims = auto_dims();
    let space = ParameterSpace::paper_space(&case.device, &case.kernel, &dims);
    let problem = problem_at(case, &space.configs()[0], dims);
    let per_routine = registry()
        .iter()
        .filter(|rt| rt.supports(&problem).is_ok())
        .map(|rt| {
            let kernel = case.kernel.with_method(rt.method());
            let out = exhaustive_tune_with(
                &EvalContext::new(),
                &case.device,
                &kernel,
                dims,
                &space,
                seed,
            );
            (rt.id(), out.best)
        })
        .collect();
    AutoReference { per_routine }
}

/// One Forced request's result.
#[derive(Clone, Copy, PartialEq)]
struct Tuned {
    best: TuneSample,
    /// Configurations the search executed.
    executed: usize,
    /// Configurations in the audited space.
    space: usize,
    eval: CacheStats,
}

fn same_best(a: &TuneSample, b: &TuneSample) -> bool {
    a.config == b.config && a.mpoints.to_bits() == b.mpoints.to_bits()
}

/// The public Forced request: space audit + search on a fresh context.
fn forced_request(case: &Case, seed: u64) -> Tuned {
    let ctx = EvalContext::new();
    let dims = forced_dims();
    let (space, _audit) = ParameterSpace::paper_space_audited(&case.device, &case.kernel, &dims);
    let (best, executed) = if case.model_based {
        let out = model_based_tune_with(&ctx, &case.device, &case.kernel, dims, &space, BETA, seed);
        (out.best, out.executed)
    } else {
        let out = exhaustive_tune_with(&ctx, &case.device, &case.kernel, dims, &space, seed);
        (out.best, out.evaluated())
    };
    Tuned {
        best,
        executed,
        space: space.len(),
        eval: ctx.stats(),
    }
}

/// The public Auto request: space audit + selector + search.
fn auto_request(case: &Case, seed: u64) -> Result<(RoutineChoice, Tuned), String> {
    let ctx = EvalContext::new();
    let dims = auto_dims();
    let space = ParameterSpace::paper_space(&case.device, &case.kernel, &dims);
    let (choice, out) = exhaustive_tune_selected(
        &ctx,
        &RoutineSelector::auto(),
        &case.device,
        &case.kernel,
        dims,
        &space,
        seed,
    )
    .map_err(|d| format!("{}: Auto selection rejected: {}", case.label(), d.code))?;
    let tuned = Tuned {
        best: out.best,
        executed: out.evaluated(),
        space: space.len(),
        eval: ctx.stats(),
    };
    Ok((choice, tuned))
}

/// Checks every Forced result must pass, traced or not.
fn check_forced(report: &mut Report, case: &Case, t: &Tuned) {
    let want = if case.model_based {
        (((BETA / 100.0) * t.space as f64).ceil() as usize).clamp(1, t.space)
    } else {
        t.space
    };
    report.check(t.best.mpoints.is_finite() && t.best.mpoints > 0.0, || {
        format!(
            "{}: best {} MPoint/s is not positive",
            case.label(),
            t.best.mpoints
        )
    });
    report.check(t.executed == want, || {
        format!(
            "{}: executed {} of {} configurations, want {want}",
            case.label(),
            t.executed,
            t.space
        )
    });
    // Cold-context reconciliation: one cache miss per configuration.
    report.check(
        t.eval.misses == t.executed as u64 && t.eval.hits == 0,
        || {
            format!(
                "{}: cold context saw {} misses / {} hits for {} configurations",
                case.label(),
                t.eval.misses,
                t.eval.hits,
                t.executed
            )
        },
    );
}

/// Fold a repeated request's result into the first one seen for its
/// case: repeats on fresh contexts must be bit-identical.
fn check_repeat(report: &mut Report, first: &mut Option<Tuned>, now: Tuned, label: &str) {
    match first {
        None => *first = Some(now),
        Some(f) => report.check(*f == now, || {
            format!("{label}: repeated request changed its result")
        }),
    }
}

/// The Auto result must equal the Forced reference of the routine it
/// chose; returns Auto's best over the best Forced routine's.
fn check_auto(
    report: &mut Report,
    case: &Case,
    choice: &RoutineChoice,
    t: &Tuned,
    reference: &AutoReference,
) -> f64 {
    let chosen = choice.blueprint.routine_id;
    report.check(
        choice.ranking.first().map(|r| r.routine_id) == Some(chosen),
        || format!("{}: chosen routine is not ranked first", case.label()),
    );
    report.check(choice.ranking.len() == reference.per_routine.len(), || {
        format!(
            "{}: selector ranked {} routines, {} support the case",
            case.label(),
            choice.ranking.len(),
            reference.per_routine.len()
        )
    });
    match reference.of(chosen) {
        Some(r) => report.check(same_best(&r, &t.best), || {
            format!(
                "{}: Auto best differs from the Forced tune of its routine",
                case.label()
            )
        }),
        None => report.check(false, || {
            format!("{}: Auto chose an unsupported routine", case.label())
        }),
    }
    report.check(t.eval.misses == t.space as u64, || {
        format!(
            "{}: Auto search missed {} times over {} configurations",
            case.label(),
            t.eval.misses,
            t.space
        )
    });
    t.best.mpoints / reference.best()
}

struct Setup {
    forced: Vec<Case>,
    auto: Vec<Case>,
    references: Vec<AutoReference>,
}

fn setup(seed: u64) -> Setup {
    let auto = auto_cases();
    let references = auto.iter().map(|c| auto_reference(c, seed)).collect();
    Setup {
        forced: forced_cases(),
        auto,
        references,
    }
}

pub fn run(ctx: &RunCtx) -> Report {
    let mut report = Report::default();
    let reps = if ctx.tracer.enabled() { 1 } else { SETUP_REPS };
    let (s, setup_s) = repeated_setup(reps, || setup(ctx.seed));
    report.set("setup_s", setup_s);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    if ctx.tracer.enabled() {
        traced(ctx, &s, &mut rng, &mut report);
    } else {
        untraced(ctx, &s, &mut rng, &mut report);
    }
    report.set_ok_frac();
    report
}

fn untraced(ctx: &RunCtx, s: &Setup, rng: &mut StdRng, report: &mut Report) {
    // Rounds of two Forced passes and one Auto pass, so both request
    // kinds see the same stretch of machine time.
    let mut forced_s = Vec::new();
    let mut pass_rates = Vec::new();
    let mut first: Vec<Option<Tuned>> = vec![None; s.forced.len()];
    let mut auto_s = Vec::new();
    let mut first_auto: Vec<Option<Tuned>> = vec![None; s.auto.len()];
    let mut worst = (f64::INFINITY, String::new());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        for _ in 0..FORCED_PASSES_PER_ROUND {
            let pass = Instant::now();
            for i in shuffled(s.forced.len(), rng) {
                let t = Instant::now();
                let tuned = forced_request(&s.forced[i], ctx.seed);
                forced_s.push(t.elapsed().as_secs_f64());
                report.attempted += 1;
                check_forced(report, &s.forced[i], &tuned);
                check_repeat(report, &mut first[i], tuned, &s.forced[i].label());
            }
            pass_rates.push(s.forced.len() as f64 / pass.elapsed().as_secs_f64());
        }
        for i in shuffled(s.auto.len(), rng) {
            let case = &s.auto[i];
            let t = Instant::now();
            let result = auto_request(case, ctx.seed);
            auto_s.push(t.elapsed().as_secs_f64());
            report.attempted += 1;
            match result {
                Ok((choice, tuned)) => {
                    let ratio = check_auto(report, case, &choice, &tuned, &s.references[i]);
                    if ratio < worst.0 {
                        worst = (
                            ratio,
                            format!("{} (chose {})", case.label(), choice.ranking[0].label),
                        );
                    }
                    check_repeat(report, &mut first_auto[i], tuned, &case.label());
                }
                Err(e) => {
                    report.failed += 1;
                    report.problems.push(e);
                }
            }
        }
        rounds += 1;
    }

    let forced_sorted = sorted(forced_s);
    let n = forced_sorted.len();
    let p50 = percentile(&forced_sorted, 50.0);
    report.set("p50_ms", p50 * 1e3);
    match tail(&forced_sorted, TAIL_PCT) {
        Ok(v) => report.set("tail_ms", v * 1e3),
        Err(e) => report.problems.push(format!("Forced tail: {e}")),
    }
    // Median per-pass rate: a stretch of starved CPU slows one pass, not
    // the figure.
    report.set("rate_per_s", median(&pass_rates));
    let auto_sorted = sorted(auto_s);
    let autotune_s = percentile(&auto_sorted, 50.0);
    report.set("heavy_p50_ms", autotune_s * 1e3);
    if worst.0.is_finite() {
        report.set("best_ratio", worst.0);
    }
    report.note(format!(
        "tune_s = {p50:.4} s (median of {n} Forced requests)"
    ));
    if let Some(v) = report.metrics.get("tail_ms") {
        report.note(format!(
            "tune_tail_s = {:.4} s (p{TAIL_PCT} of {n})",
            v / 1e3
        ));
    }
    report.note(format!(
        "autotune_s = {autotune_s:.4} s (median of {} Auto requests)",
        auto_sorted.len()
    ));
    report.note(format!(
        "auto_regret = {:.4} ratio (worst case: {})",
        1.0 - worst.0,
        worst.1
    ));
    report.note(format!(
        "fail_frac = {:.6} ratio",
        report.failed as f64 / report.attempted.max(1) as f64
    ));
}

/// One configuration "measured" through the three pipeline layers.
fn measure(
    t: &Tracer,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    config: &LaunchConfig,
    dims: GridDims,
    seed: u64,
) -> f64 {
    let plan = t.span("core.plan", || {
        build_block_plan(device, kernel, config, dims)
    });
    let mut report = t.span("gpu_sim.price", || {
        simulate_clean(device, &plan, &dims, &SimOptions::default())
    });
    t.span("gpu_sim.noise", || {
        let key = PlanKey::new(device, kernel, config, dims);
        apply_noise(
            &mut report,
            key.noise_key(),
            seed,
            MEASUREMENT_NOISE_AMPLITUDE,
        );
    });
    report.mpoints_per_s()
}

/// `exhaustive_tune_with`, decomposed: measure every configuration
/// (fanned out over rayon as `measure_batch` does), rank, take the best.
fn exhaustive_decomposed(
    t: &Tracer,
    case: &Case,
    kernel: &KernelSpec,
    space: &ParameterSpace,
    dims: GridDims,
    seed: u64,
) -> TuneSample {
    let mpoints: Vec<f64> = t.wait(|| {
        space
            .configs()
            .par_iter()
            .map(|c| measure(t, &case.device, kernel, c, dims, seed))
            .collect()
    });
    t.span("autotune.exhaustive", || {
        let mut samples: Vec<TuneSample> = space
            .configs()
            .iter()
            .zip(mpoints)
            .map(|(&config, mpoints)| TuneSample { config, mpoints })
            .collect();
        samples.sort_by(|a, b| b.mpoints.total_cmp(&a.mpoints));
        samples[0]
    })
}

/// `model_based_tune_with`, decomposed: model-rank every
/// configuration, measure the top β%, keep the best measured.
fn model_based_decomposed(
    t: &Tracer,
    case: &Case,
    space: &ParameterSpace,
    dims: GridDims,
    seed: u64,
) -> TuneSample {
    let kernel = &case.kernel;
    let ranked: Vec<(LaunchConfig, f64)> = t.wait(|| {
        space
            .configs()
            .par_iter()
            .map(|c| {
                (
                    *c,
                    t.span("autotune.model", || {
                        predict_mpoints(&case.device, kernel, c, &dims)
                    }),
                )
            })
            .collect()
    });
    let shortlist = t.span("autotune.model_based", || {
        let mut ranked = ranked;
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let n = (((BETA / 100.0) * space.len() as f64).ceil() as usize).clamp(1, space.len());
        ranked.truncate(n);
        ranked
    });
    let measured: Vec<f64> = t.wait(|| {
        shortlist
            .par_iter()
            .map(|(c, _)| measure(t, &case.device, kernel, c, dims, seed))
            .collect()
    });
    t.span("autotune.model_based", || {
        shortlist
            .iter()
            .zip(measured)
            .map(|(&(config, _), mpoints)| TuneSample { config, mpoints })
            .max_by(|a, b| a.mpoints.total_cmp(&b.mpoints))
            .expect("a non-empty shortlist")
    })
}

/// `RoutineSelector::select` (Auto), decomposed: supports → blueprint
/// → lower → traffic oracle per routine, ranked by predicted bytes.
fn select_decomposed(
    t: &Tracer,
    case: &Case,
    probe: &LaunchConfig,
    dims: GridDims,
    ops: &mut u64,
) -> Vec<RoutineRank> {
    t.span("autotune.selector", || {
        let problem = problem_at(case, probe, dims);
        let mut ranked = Vec::new();
        for routine in registry() {
            if routine.supports(&problem).is_err() {
                continue;
            }
            let bp = routine.blueprint(probe, case.kernel.radius, problem.dims);
            let plan = t.span("core.routine.lower", || routine.lower(&bp));
            *ops += plan.ops.len() as u64;
            let tr = t.span("lint.oracle", || {
                predict_traffic(&plan, case.kernel.precision())
            });
            ranked.push(RoutineRank {
                routine_id: routine.id(),
                label: routine.label(),
                global_bytes: tr.global_load_cells * tr.word_bytes
                    + tr.store_bytes
                    + tr.halo_bytes
                    + tr.gather_bytes,
            });
        }
        ranked.sort_by_key(|r| (r.global_bytes, r.routine_id));
        ranked
    })
}

fn traced(ctx: &RunCtx, s: &Setup, rng: &mut StdRng, report: &mut Report) {
    let t = &ctx.tracer;
    let forced_order = shuffled(s.forced.len(), rng);
    let auto_order = shuffled(s.auto.len(), rng);

    // The untraced pass: the public calls, whose results the traced
    // decomposition must reproduce.
    let start = Instant::now();
    let forced: Vec<Tuned> = forced_order
        .iter()
        .map(|&i| forced_request(&s.forced[i], ctx.seed))
        .collect();
    let autos: Vec<Result<(RoutineChoice, Tuned), String>> = auto_order
        .iter()
        .map(|&i| auto_request(&s.auto[i], ctx.seed))
        .collect();
    let untraced_s = start.elapsed().as_secs_f64();

    let mut eval = CacheStats::default();
    for (&i, tuned) in forced_order.iter().zip(&forced) {
        report.attempted += 1;
        check_forced(report, &s.forced[i], tuned);
        eval.hits += tuned.eval.hits;
        eval.misses += tuned.eval.misses;
    }

    // The traced pass.
    let start = Instant::now();
    for (&i, tuned) in forced_order.iter().zip(&forced) {
        let case = &s.forced[i];
        let dims = forced_dims();
        let (space, _) = t.span("autotune.space", || {
            ParameterSpace::paper_space_audited(&case.device, &case.kernel, &dims)
        });
        let best = if case.model_based {
            model_based_decomposed(t, case, &space, dims, ctx.seed)
        } else {
            exhaustive_decomposed(t, case, &case.kernel, &space, dims, ctx.seed)
        };
        report.check(same_best(&best, &tuned.best), || {
            format!(
                "{}: decomposed best differs from the public tuner's",
                case.label()
            )
        });
    }
    let forced_self = t.total_seconds();
    let forced_plan = t.seconds("core.plan");
    let auto_start = Instant::now();
    let selector_layers = ["autotune.selector", "core.routine.lower", "lint.oracle"];
    let mut ranked = 0u64;
    let mut ops = 0u64;
    for (&i, result) in auto_order.iter().zip(&autos) {
        let case = &s.auto[i];
        report.attempted += 1;
        let (choice, tuned) = match result {
            Ok(r) => r,
            Err(e) => {
                report.failed += 1;
                report.problems.push(e.clone());
                continue;
            }
        };
        eval.hits += tuned.eval.hits;
        eval.misses += tuned.eval.misses;
        check_auto(report, case, choice, tuned, &s.references[i]);
        let dims = auto_dims();
        let space = t.span("autotune.space", || {
            ParameterSpace::paper_space(&case.device, &case.kernel, &dims)
        });
        let ranking = select_decomposed(t, case, &space.configs()[0], dims, &mut ops);
        ranked += ranking.len() as u64;
        report.check(ranking == choice.ranking, || {
            format!(
                "{}: decomposed ranking differs from RoutineSelector::select",
                case.label()
            )
        });
        let kernel = case.kernel.with_method(choice.blueprint.method);
        let best = exhaustive_decomposed(t, case, &kernel, &space, dims, ctx.seed);
        report.check(same_best(&best, &tuned.best), || {
            format!(
                "{}: decomposed Auto search differs from the public tuner's",
                case.label()
            )
        });
    }
    let auto_wall = auto_start.elapsed().as_secs_f64();
    let traced_s = start.elapsed().as_secs_f64();
    report.check_result(t.check_self_time(rayon::current_num_threads().max(1), traced_s));
    report.set_overhead(untraced_s, traced_s);

    for (name, layer) in [
        ("autotune.space.s", "autotune.space"),
        ("autotune.model.s", "autotune.model"),
        ("autotune.exhaustive.s", "autotune.exhaustive"),
        ("autotune.model_based.s", "autotune.model_based"),
        ("autotune.selector.s", "autotune.selector"),
        ("core.routine.lower.s", "core.routine.lower"),
        ("lint.oracle.s", "lint.oracle"),
        ("core.plan.s", "core.plan"),
        ("gpu_sim.price.s", "gpu_sim.price"),
        ("gpu_sim.noise.s", "gpu_sim.noise"),
    ] {
        report.set(name, t.seconds(layer));
    }
    for (name, layer) in [
        ("autotune.space.calls", "autotune.space"),
        ("autotune.model.calls", "autotune.model"),
        ("autotune.selector.calls", "autotune.selector"),
        ("core.plan.calls", "core.plan"),
        ("gpu_sim.price.calls", "gpu_sim.price"),
    ] {
        report.set(name, t.calls(layer) as f64);
    }
    report.set("autotune.selector.routines_ranked", ranked as f64);
    report.set("core.routine.lower.ops", ops as f64);
    report.set("core.eval.hits", eval.hits as f64);
    report.set("core.eval.misses", eval.misses as f64);
    report.set("core.eval.hit_ratio", eval.hit_rate());
    // The selector runs on this thread, so its self time is a share of
    // the Auto requests' wall.
    let selector: f64 = selector_layers.iter().map(|l| t.seconds(l)).sum();
    report.note(format!(
        "Forced: core.plan is {:.1}% of summed self time",
        100.0 * forced_plan / forced_self
    ));
    report.note(format!(
        "Auto: the selector (with lowering and oracle) is {:.1}% of the traced wall",
        100.0 * selector / auto_wall
    ));
}
