//! Host-cost benchmark of the reproduction: the tuner, the routine
//! selector, the serving tiers and the analyzers, timed from outside
//! through the workspace's public APIs.
//!
//! ```sh
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload tune --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same public calls decomposed into per-layer spans and reports the
//! per-layer metrics. Either way the program checks its outputs, prints
//! the workload's figures by name and, as its last line, one JSON
//! object; it exits non-zero when any check fails. See `README.md` for
//! the workloads, the metrics and how they interact.

#![forbid(unsafe_code)]

mod lint;
mod serve;
mod stats;
mod trace;
mod tune;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// The end-to-end metrics every untraced run reports, with units. What
/// each means per workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("heavy_p50_ms", "ms"),
    ("best_ratio", "ratio"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports (0 for a layer the
/// workload leaves idle), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("autotune.space.s", "s"),
    ("autotune.space.calls", "count"),
    ("autotune.model.s", "s"),
    ("autotune.model.calls", "count"),
    ("autotune.exhaustive.s", "s"),
    ("autotune.model_based.s", "s"),
    ("autotune.selector.s", "s"),
    ("autotune.selector.calls", "count"),
    ("autotune.selector.routines_ranked", "count"),
    ("core.routine.lower.s", "s"),
    ("core.routine.lower.ops", "count"),
    ("core.plan.s", "s"),
    ("core.plan.calls", "count"),
    ("core.eval.hits", "count"),
    ("core.eval.misses", "count"),
    ("core.eval.hit_ratio", "ratio"),
    ("gpu_sim.price.s", "s"),
    ("gpu_sim.price.calls", "count"),
    ("gpu_sim.noise.s", "s"),
    ("tunestore.key.ns", "ns"),
    ("tunestore.key.calls", "count"),
    ("tunestore.store.get_ns", "ns"),
    ("tunestore.store.hits", "count"),
    ("tunestore.store.inserts", "count"),
    ("tunestore.singleflight.led", "count"),
    ("tunestore.singleflight.shared", "count"),
    ("tuneserve.resolve.s", "s"),
    ("tuneserve.lru.hits", "count"),
    ("tuneserve.lru.misses", "count"),
    ("tuneserve.lru.evictions", "count"),
    ("tuneserve.lru.hit_ratio", "ratio"),
    ("tuneserve.tier.lru.p50_ns", "ns"),
    ("tuneserve.tier.lru.count", "count"),
    ("tuneserve.tier.store.p50_ns", "ns"),
    ("tuneserve.tier.store.count", "count"),
    ("tuneserve.tier.shared.p50_us", "us"),
    ("tuneserve.tier.shared.count", "count"),
    ("tuneserve.tier.computed.p50_us", "us"),
    ("tuneserve.tier.computed.count", "count"),
    ("tuneserve.admission.price_ms", "ms"),
    ("tuneserve.admission.admitted", "count"),
    ("tuneserve.admission.shed_saturated", "count"),
    ("tuneserve.admission.shed_over_budget", "count"),
    ("tuneserve.admission.shed_deadline", "count"),
    ("lint.feasibility.s", "s"),
    ("lint.loadplan.s", "s"),
    ("lint.schedule.s", "s"),
    ("lint.coverage.s", "s"),
    ("lint.coalescing.s", "s"),
    ("lint.text.s", "s"),
    ("lint.dataflow.s", "s"),
    ("lint.oracle.s", "s"),
    ("lint.verify.s", "s"),
    ("lint.verify.calls", "count"),
    ("lint.verify.k_errors", "count"),
    ("lint.configs", "count"),
    ("lint.feasible", "count"),
    ("lint.rejected", "count"),
    ("core.lower_step.s", "s"),
    ("codegen.cuda.s", "s"),
    ("codegen.cuda.bytes", "bytes"),
    ("codegen.opencl.s", "s"),
    ("codegen.opencl.bytes", "bytes"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// How one run is driven.
pub struct RunCtx {
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Span recorder (disabled in untraced runs).
    pub tracer: Tracer,
}

/// What a workload run produced: metrics, counts and failed checks.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations shed or failed.
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Record the outcome of a fallible check.
    pub fn check_result(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.problems.push(e);
        }
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `ok_frac` and the failure count from attempted/failed.
    pub fn set_ok_frac(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        self.set("ok_frac", ok);
    }

    /// Record the traced-vs-untraced walls of the same work.
    pub fn set_overhead(&mut self, untraced_s: f64, traced_s: f64) {
        self.set("trace.untraced_wall_s", untraced_s);
        self.set("trace.traced_wall_s", traced_s);
        self.set("trace.overhead_s", traced_s - untraced_s);
        self.note(format!(
            "tracing overhead: {:.3} s traced - {:.3} s untraced = {:.3} s",
            traced_s,
            untraced_s,
            traced_s - untraced_s
        ));
    }
}

/// Run `setup` `reps` times; return the last result and the median
/// wall of one setup, seconds.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous set-up first, so peak memory holds one.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        walls.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), stats::median(&walls))
}

/// Set-ups per run: `setup_s` is the median of these.
pub const SETUP_REPS: usize = 3;

/// Client threads of the closed loops: at most the machine's cores.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: hostbench --workload tune|serve-hot|serve-churn|lint \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    let mut report = match args.workload.as_str() {
        "tune" => tune::run(&ctx),
        "serve-hot" => serve::run(&ctx, serve::Kind::Hot),
        "serve-churn" => serve::run(&ctx, serve::Kind::Churn),
        "lint" => lint::run(&ctx),
        _ => usage(),
    };
    match peak_rss_mb() {
        Ok(mb) => report.set("peak_rss_mb", mb),
        Err(e) => report.problems.push(e),
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for name in report.metrics.keys() {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name);
        assert!(known, "metric {name} is not declared");
    }
    if !args.trace {
        for (name, _) in END_TO_END {
            report.check(report.metrics.contains_key(name), || {
                format!("end-to-end metric {name} was not measured")
            });
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = |key: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let rest = &text[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            let declared = s.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{key}: count differs");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(s.contains(&entry), "{key}: {entry} missing");
            }
        }
    }
}
