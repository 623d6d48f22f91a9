//! The `lint` workload: the analyzer stack, which runs nowhere else.
//!
//! * **Plain sweep**: every configuration of the full enumeration
//!   (16384) for GTX580 × laplacian (order-2 star) SP on the paper grid,
//!   in seeded order, linted one configuration per call by
//!   [`crate::clients`] closed-loop clients. Metric: `p50_ms`,
//!   `tail_ms` per feasible configuration (the ones that run the whole
//!   analyzer stack), `rate_per_s` configurations per second.
//! * **Verified**: `lint_config_opts` with `verify_kernels` on a seeded
//!   sample of feasible, codegen-applicable configurations, one per
//!   device × routine × SP/DP. Metric: `heavy_p50_ms` per configuration.
//!
//! The sweep contract is checked on every result: feasible ⇒ no error,
//! infeasible ⇒ at least one coded `LNT-R` reason, verified ⇒ no
//! `LNT-K` error.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::loadplan::plan_for_device_on;
use inplane_core::resources::vector_width;
use inplane_core::{lower_step, registry, KernelSpec, LaunchConfig, Method, Variant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_autotune::ParameterSpace;
use stencil_codegen::{generate_kernel, generate_opencl_kernel};
use stencil_grid::Precision;
use stencil_lint::sweep::{enumerate_configs, lint_config_opts, ConfigLint, LintOptions};
use stencil_lint::verify::{verify_cuda_kernel_on, verify_opencl_kernel_on};
use stencil_lint::{
    analyze_plan, check_coalescing, check_coverage, check_schedule, explain_feasibility,
    has_errors, lint_cuda, lint_opencl_source, Diagnostic, Severity,
};

use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Tracer;
use crate::{clients, repeated_setup, Report, RunCtx, SETUP_REPS};

const ORDERS: [usize; 3] = [2, 4, 8];
/// Percentile reported as the feasible-configuration tail. Rare
/// multi-millisecond host stalls land on ~1% of these ~1 ms calls, so
/// p99 reads the host rather than the analyzers; p90 leaves hundreds
/// of samples beyond it.
const TAIL_PCT: f64 = 90.0;
/// Tile-area rank bands the verified draws cycle through.
const AREA_BANDS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
/// Verified configurations drawn per device × routine × precision.
const PER_STRATUM: usize = 3;
/// The verified sample runs in this many interleaved slices.
const VERIFY_SLICES: usize = 3;

/// One configuration to lint.
#[derive(Clone)]
struct Job {
    device: DeviceSpec,
    kernel: KernelSpec,
    config: LaunchConfig,
}

impl Job {
    fn label(&self) -> String {
        format!("{} {} {}", self.device.name, self.kernel.name, self.config)
    }
}

struct Setup {
    dims: GridDims,
    sweep: Vec<Job>,
    verify: Vec<Job>,
}

/// The code generator's applicability rule (single streamed grid, tile
/// width a multiple of the vector width), as `lint_config_opts` applies it.
fn codegen_applicable(kernel: &KernelSpec, config: &LaunchConfig) -> bool {
    (kernel.streamed_inputs, kernel.coeff_inputs, kernel.outputs) == (1, 0, 1)
        && config.tile_x().is_multiple_of(vector_width(kernel).max(1))
}

fn setup(seed: u64) -> Setup {
    let dims = GridDims::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let device = DeviceSpec::gtx580();
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
    let mut sweep: Vec<Job> = enumerate_configs(&device)
        .into_iter()
        .map(|config| Job {
            device: device.clone(),
            kernel: kernel.clone(),
            config,
        })
        .collect();
    for i in (1..sweep.len()).rev() {
        sweep.swap(i, rng.gen_range(0..=i));
    }

    // `PER_STRATUM` verified configurations per device × routine ×
    // precision, stratified by tile area (the verifier's cost driver):
    // draw `j` takes the configuration at tile-area rank band
    // `AREA_BANDS[j % 5]` of the stratum's feasible, codegen-applicable
    // configurations and picks uniformly among those with its tile area
    // and thread count (the verifier interprets every thread of one
    // tile, so these fix its work).
    let mut verify = Vec::new();
    let mut stratum = 0;
    for device in DeviceSpec::all_devices() {
        for routine in registry() {
            for precision in [Precision::Single, Precision::Double] {
                let kernel =
                    KernelSpec::star_order(routine.method(), ORDERS[stratum % 3], precision);
                let mut candidates: Vec<LaunchConfig> =
                    ParameterSpace::paper_space(&device, &kernel, &dims)
                        .configs()
                        .iter()
                        .copied()
                        .filter(|c| codegen_applicable(&kernel, c))
                        .collect();
                candidates.sort_by_key(|c| (c.tile_x() * c.tile_y(), c.as_tuple()));
                for draw in 0..PER_STRATUM {
                    let band = AREA_BANDS[(stratum * PER_STRATUM + draw) % AREA_BANDS.len()];
                    let rank = (band * candidates.len() as f64) as usize;
                    let Some(at) = candidates.get(rank) else {
                        break;
                    };
                    let shape = |c: &LaunchConfig| (c.tile_x() * c.tile_y(), c.threads());
                    let pool: Vec<LaunchConfig> = candidates
                        .iter()
                        .copied()
                        .filter(|c| shape(c) == shape(at))
                        .collect();
                    verify.push(Job {
                        device: device.clone(),
                        kernel: kernel.clone(),
                        config: pool[rng.gen_range(0..pool.len())],
                    });
                }
                stratum += 1;
            }
        }
    }
    Setup {
        dims,
        sweep,
        verify,
    }
}

/// Jobs a client claims from the shared cursor at once: a plain-lint
/// call takes about a microsecond, so claiming one at a time would
/// time the cursor's cache line more than the analyzers.
const CLAIM: usize = 32;

/// Lint every job, `clients()` closed loops each linting its next job
/// when the previous returns. Results come back in job order with their
/// latencies; also returns the wall time.
fn closed_loop<R: Send>(jobs: &[Job], lint: impl Fn(&Job) -> R + Sync) -> (Vec<(u64, R)>, f64) {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let mut out: Vec<(usize, u64, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let first = cursor.fetch_add(CLAIM, Ordering::Relaxed);
                        if first >= jobs.len() {
                            break;
                        }
                        for (i, job) in jobs.iter().enumerate().skip(first).take(CLAIM) {
                            let t = Instant::now();
                            let r = lint(job);
                            done.push((i, t.elapsed().as_nanos() as u64, r));
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("lint client panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    out.sort_by_key(|(i, _, _)| *i);
    (out.into_iter().map(|(_, ns, r)| (ns, r)).collect(), wall)
}

/// The sweep contract on one result.
fn check_contract(report: &mut Report, job: &Job, lint: &ConfigLint, verified: bool) {
    if lint.feasible {
        report.check(!lint.has_errors(), || {
            let codes: Vec<&str> = lint
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.code)
                .collect();
            format!("{}: feasible but has errors {codes:?}", job.label())
        });
    } else {
        report.check(coded_rejection(lint), || {
            format!("{}: rejected without a coded reason", job.label())
        });
    }
    if verified {
        report.check(lint.feasible, || {
            format!("{}: sampled as feasible, linted infeasible", job.label())
        });
        report.check(k_errors(&lint.diagnostics) == 0, || {
            format!("{}: the kernel verifier reports LNT-K errors", job.label())
        });
    }
}

/// An infeasible verdict carries at least one coded `LNT-R` error.
fn coded_rejection(lint: &ConfigLint) -> bool {
    lint.diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error && d.code.starts_with("LNT-R"))
}

fn k_errors(diags: &[Diagnostic]) -> u64 {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error && d.code.starts_with("LNT-K"))
        .count() as u64
}

fn opts(verify: bool) -> LintOptions {
    LintOptions {
        verify_kernels: verify,
    }
}

pub fn run(ctx: &RunCtx) -> Report {
    let mut report = Report::default();
    let reps = if ctx.tracer.enabled() { 1 } else { SETUP_REPS };
    let (s, setup_s) = repeated_setup(reps, || setup(ctx.seed));
    report.set("setup_s", setup_s);
    report.check(
        s.verify.len() == DeviceSpec::all_devices().len() * registry().len() * 2 * PER_STRATUM,
        || {
            format!(
                "only {} strata have a feasible, applicable configuration",
                s.verify.len()
            )
        },
    );
    if ctx.tracer.enabled() {
        traced(ctx, &s, &mut report);
    } else {
        untraced(ctx, &s, &mut report);
    }
    report.set_ok_frac();
    report
}

fn public_lint(s: &Setup, verify: bool) -> impl Fn(&Job) -> ConfigLint + Sync + '_ {
    move |job: &Job| lint_config_opts(&job.device, &job.kernel, &s.dims, &job.config, opts(verify))
}

fn untraced(ctx: &RunCtx, s: &Setup, report: &mut Report) {
    // Rounds of one plain sweep and one slice of the verified sample
    // (every `VERIFY_SLICES`-th job), so both see the same stretch of
    // machine time. A run ends on a round boundary after `seconds`,
    // once every verified job has run.
    //
    // Latencies are kept for feasible configurations only: they run the
    // analyzer stack, while an infeasible one stops after feasibility.
    let mut feasible_ns = Vec::new();
    let mut sweep_wall = 0.0;
    let mut sweep_rates = Vec::new();
    let mut feasible_first = None;
    let mut verify_ns = Vec::new();
    let mut verify_wall = 0.0;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < VERIFY_SLICES || start.elapsed().as_secs_f64() < ctx.seconds {
        let (results, wall) = closed_loop(&s.sweep, public_lint(s, false));
        sweep_wall += wall;
        sweep_rates.push(s.sweep.len() as f64 / wall);
        let mut feasible = 0;
        for (job, (ns, lint)) in s.sweep.iter().zip(&results) {
            check_contract(report, job, lint, false);
            if lint.feasible {
                feasible_ns.push(*ns as f64);
                feasible += 1;
            }
        }
        report.attempted += results.len() as u64;
        let first = *feasible_first.get_or_insert(feasible);
        report.check(first == feasible, || {
            format!("round {rounds}: {feasible} feasible, first sweep {first}")
        });

        let slice: Vec<Job> = s
            .verify
            .iter()
            .skip(rounds % VERIFY_SLICES)
            .step_by(VERIFY_SLICES)
            .cloned()
            .collect();
        let (results, wall) = closed_loop(&slice, public_lint(s, true));
        verify_wall += wall;
        for (job, (ns, lint)) in slice.iter().zip(&results) {
            verify_ns.push(*ns as f64);
            check_contract(report, job, lint, true);
        }
        report.attempted += results.len() as u64;
        rounds += 1;
    }

    let feasible_sorted = sorted(feasible_ns);
    let p50 = percentile(&feasible_sorted, 50.0);
    report.set("p50_ms", p50 * 1e-6);
    match tail(&feasible_sorted, TAIL_PCT) {
        Ok(v) => report.set("tail_ms", v * 1e-6),
        Err(e) => report.problems.push(e),
    }
    // Median per-sweep rate: a stretch of starved CPU slows one sweep,
    // not the figure.
    let rate = median(&sweep_rates);
    report.set("rate_per_s", rate);
    let verify_sorted = sorted(verify_ns);
    let heavy = percentile(&verify_sorted, 50.0);
    report.set("heavy_p50_ms", heavy * 1e-6);
    // Every verdict held the sweep contract (checked above).
    report.set("best_ratio", 1.0);
    let verify_rate = verify_sorted.len() as f64 / verify_wall;
    report.note(format!(
        "lint_configs_per_s = {rate:.0} 1/s ({} configurations in {rounds} sweeps, {} clients)",
        s.sweep.len() * rounds,
        clients()
    ));
    report.note(format!(
        "feasible configuration: median {:.3} ms ({} samples)",
        p50 * 1e-6,
        feasible_sorted.len()
    ));
    report.note(format!(
        "verify_configs_per_s = {verify_rate:.2} 1/s ({} configurations, median {:.1} ms)",
        verify_sorted.len(),
        heavy * 1e-6
    ));
    report.note(format!(
        "verification is {:.0}% of the lint workload's wall",
        100.0 * verify_wall / (verify_wall + sweep_wall)
    ));
    report.note(format!(
        "fail_frac = {:.6} ratio",
        report.problems.len() as f64 / report.attempted.max(1) as f64
    ));
}

/// Byte counts of the emitted sources.
#[derive(Default)]
struct Emitted {
    cuda: AtomicU64,
    opencl: AtomicU64,
    verify_calls: AtomicU64,
}

/// `lint_config_opts`, decomposed into its passes in order.
fn lint_decomposed(
    t: &Tracer,
    emitted: &Emitted,
    job: &Job,
    dims: &GridDims,
    verify: bool,
) -> ConfigLint {
    let (device, kernel, config) = (&job.device, &job.kernel, &job.config);
    let mut diagnostics = t.span("lint.feasibility", || {
        explain_feasibility(device, kernel, dims, config)
    });
    let feasible = !has_errors(&diagnostics);
    if feasible {
        let (plan, _res, geom) = t.span("lint.loadplan", || {
            plan_for_device_on(kernel, config, dims.lx, device)
        });
        diagnostics.extend(t.span("lint.schedule", || check_schedule(kernel, config, &plan)));
        diagnostics.extend(t.span("lint.coverage", || check_coverage(kernel, &geom)));
        diagnostics.extend(t.span("lint.coalescing", || {
            check_coalescing(kernel, config, &geom, device)
        }));
        if codegen_applicable(kernel, config) {
            let opencl = kernel.method.routine().opencl_supported();
            let generated = t.span("codegen.cuda", || generate_kernel(kernel, config));
            emitted
                .cuda
                .fetch_add(generated.source.len() as u64, Ordering::Relaxed);
            diagnostics.extend(t.span("lint.text", || {
                lint_cuda(&generated, kernel, config, Some(device))
            }));
            if opencl {
                let src = t.span("codegen.opencl", || generate_opencl_kernel(kernel, config));
                emitted
                    .opencl
                    .fetch_add(src.len() as u64, Ordering::Relaxed);
                diagnostics.extend(t.span("lint.text", || {
                    lint_opencl_source(&src, kernel, config, Some(device))
                }));
            }
            if verify {
                let r = kernel.radius;
                let vdims = (2 * r + config.tile_x(), 2 * r + config.tile_y(), 2 * r + 2);
                diagnostics.extend(t.span("lint.verify", || {
                    verify_cuda_kernel_on(kernel, config, vdims, device)
                }));
                emitted.verify_calls.fetch_add(1, Ordering::Relaxed);
                if opencl {
                    diagnostics.extend(t.span("lint.verify", || {
                        verify_opencl_kernel_on(kernel, config, vdims, device)
                    }));
                    emitted.verify_calls.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let r = kernel.radius;
        let synth = (
            2 * r + 3 * config.tile_x(),
            2 * r + 3 * config.tile_y(),
            4 * r + 2,
        );
        let plan = t.span("core.lower_step", || {
            lower_step(kernel.method, config, r, synth)
        });
        diagnostics.extend(t.span("lint.dataflow", || analyze_plan(&plan).diagnostics));
    }
    ConfigLint {
        config: *config,
        feasible,
        diagnostics,
    }
}

fn traced(ctx: &RunCtx, s: &Setup, report: &mut Report) {
    let t = &ctx.tracer;
    let start = Instant::now();
    let (sweep, _) = closed_loop(&s.sweep, public_lint(s, false));
    let (verified, _) = closed_loop(&s.verify, public_lint(s, true));
    let untraced_s = start.elapsed().as_secs_f64();

    let emitted = Emitted::default();
    let start = Instant::now();
    let (sweep_d, _) = closed_loop(&s.sweep, |job| {
        lint_decomposed(t, &emitted, job, &s.dims, false)
    });
    let (verified_d, _) = closed_loop(&s.verify, |job| {
        lint_decomposed(t, &emitted, job, &s.dims, true)
    });
    let traced_s = start.elapsed().as_secs_f64();
    report.check_result(t.check_self_time(clients(), traced_s));
    report.set_overhead(untraced_s, traced_s);

    let mut feasible = 0u64;
    let mut rejected = 0u64;
    let mut k = 0u64;
    for (jobs, public, decomposed, verify) in [
        (&s.sweep, &sweep, &sweep_d, false),
        (&s.verify, &verified, &verified_d, true),
    ] {
        for ((job, (_, a)), (_, b)) in jobs.iter().zip(public).zip(decomposed) {
            report.attempted += 1;
            check_contract(report, job, a, verify);
            report.check(
                a.feasible == b.feasible && a.diagnostics == b.diagnostics,
                || {
                    format!(
                        "{}: decomposed passes differ from lint_config_opts",
                        job.label()
                    )
                },
            );
            if verify {
                k += k_errors(&a.diagnostics);
            } else if a.feasible {
                feasible += 1;
            } else if coded_rejection(a) {
                rejected += 1;
            }
        }
    }
    let configs = s.sweep.len() as u64;
    report.check(feasible + rejected == configs, || {
        format!("{feasible} feasible + {rejected} rejected != {configs} configurations")
    });
    report.set("lint.configs", configs as f64);
    report.set("lint.feasible", feasible as f64);
    report.set("lint.rejected", rejected as f64);
    report.set("lint.verify.k_errors", k as f64);
    report.set(
        "lint.verify.calls",
        emitted.verify_calls.load(Ordering::Relaxed) as f64,
    );
    report.set(
        "codegen.cuda.bytes",
        emitted.cuda.load(Ordering::Relaxed) as f64,
    );
    report.set(
        "codegen.opencl.bytes",
        emitted.opencl.load(Ordering::Relaxed) as f64,
    );
    for (name, layer) in [
        ("lint.feasibility.s", "lint.feasibility"),
        ("lint.loadplan.s", "lint.loadplan"),
        ("lint.schedule.s", "lint.schedule"),
        ("lint.coverage.s", "lint.coverage"),
        ("lint.coalescing.s", "lint.coalescing"),
        ("lint.text.s", "lint.text"),
        ("lint.dataflow.s", "lint.dataflow"),
        ("lint.verify.s", "lint.verify"),
        ("core.lower_step.s", "core.lower_step"),
        ("codegen.cuda.s", "codegen.cuda"),
        ("codegen.opencl.s", "codegen.opencl"),
    ] {
        report.set(name, t.seconds(layer));
    }
    report.note(format!(
        "lint.verify is {:.0}% of summed self time",
        100.0 * t.seconds("lint.verify") / t.total_seconds()
    ));
}
