//! Criterion benchmarks of the auto-tuning engines: the wall-time cost
//! of exhaustive search versus model-based tuning — the practical point
//! of §VI (the model prunes ~95% of the configurations that would
//! otherwise have to be executed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_autotune::{
    exhaustive_tune_with, model_based_tune_with, predict_mpoints, ParameterSpace,
};
use stencil_grid::Precision;

fn bench_tuners(c: &mut Criterion) {
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
    let space = ParameterSpace::quick_space(&dev, &kernel, &dims);
    let ctx = EvalContext::new();

    let mut group = c.benchmark_group("autotune");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("exhaustive", space.len()),
        &space,
        |b, s| {
            b.iter(|| exhaustive_tune_with(&ctx, &dev, &kernel, dims, s, 1));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("model_based_5pct", space.len()),
        &space,
        |b, s| {
            b.iter(|| model_based_tune_with(&ctx, &dev, &kernel, dims, s, 5.0, 1));
        },
    );
    group.finish();
}

/// Cold-vs-warm sweeps through the memoizing [`EvalContext`]: the cold
/// case prices every configuration of the space from scratch, the warm
/// case replays the identical sweep against a pre-populated cache. The
/// printed counters show the hit rates behind the gap.
fn bench_eval_cache(c: &mut Criterion) {
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 8, Precision::Single);
    let space = ParameterSpace::paper_space(&dev, &kernel, &dims);

    let mut group = c.benchmark_group("eval_cache");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("cold_sweep", space.len()),
        &space,
        |b, s| {
            // A fresh context per iteration: every lookup misses.
            b.iter(|| exhaustive_tune_with(&EvalContext::new(), &dev, &kernel, dims, s, 1));
        },
    );

    let warm = EvalContext::new();
    exhaustive_tune_with(&warm, &dev, &kernel, dims, &space, 1);
    group.bench_with_input(
        BenchmarkId::new("warm_sweep", space.len()),
        &space,
        |b, s| {
            b.iter(|| exhaustive_tune_with(&warm, &dev, &kernel, dims, s, 1));
        },
    );
    group.finish();

    let stats = warm.stats();
    println!(
        "eval_cache counters: {} hits / {} misses / {} inserts (hit rate {:.1}%, {} cached plans)",
        stats.hits,
        stats.misses,
        stats.inserts,
        100.0 * stats.hit_rate(),
        warm.len(),
    );
}

fn bench_model(c: &mut Criterion) {
    let dev = DeviceSpec::gtx680();
    let dims = GridDims::paper();
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 8, Precision::Single);
    let config = inplane_core::LaunchConfig::new(64, 4, 1, 4);
    c.bench_function("model_predict_single_config", |b| {
        b.iter(|| predict_mpoints(&dev, &kernel, &config, &dims));
    });
}

fn bench_space_enumeration(c: &mut Criterion) {
    let dev = DeviceSpec::c2070();
    let dims = GridDims::paper();
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 8, Precision::Double);
    c.bench_function("paper_space_enumeration", |b| {
        b.iter(|| ParameterSpace::paper_space(&dev, &kernel, &dims).len());
    });
}

criterion_group!(
    benches,
    bench_tuners,
    bench_eval_cache,
    bench_model,
    bench_space_enumeration
);
criterion_main!(benches);
