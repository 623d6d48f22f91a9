//! Criterion benchmarks for the extension crates: code generation
//! throughput, temporal-tiling functional execution, the microsimulator
//! versus the analytic plane model, and the stochastic tuner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{simulate_block_plane, DeviceSpec, GridDims};
use inplane_core::simulate::build_block_plan;
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use stencil_autotune::{stochastic_tune_with, AnnealOptions, ParameterSpace};
use stencil_codegen::{generate_kernel, generate_opencl_kernel};
use stencil_grid::{FillPattern, Grid3, Precision, StarStencil};
use stencil_temporal::execute_temporal;

fn bench_codegen(c: &mut Criterion) {
    let spec = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 8, Precision::Single);
    let config = LaunchConfig::new(64, 4, 2, 2);
    c.bench_function("generate_cuda_kernel", |b| {
        b.iter(|| generate_kernel(&spec, &config))
    });
    c.bench_function("generate_opencl_kernel", |b| {
        b.iter(|| generate_opencl_kernel(&spec, &config))
    });
}

fn bench_temporal(c: &mut Criterion) {
    let stencil: StarStencil<f64> = StarStencil::diffusion(1);
    let input: Grid3<f64> = FillPattern::Random {
        lo: -1.0,
        hi: 1.0,
        seed: 1,
    }
    .build(32, 32, 16);
    let mut group = c.benchmark_group("temporal_tiling_32x32x16");
    for t in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("depth", t), &t, |b, &t| {
            let mut out = Grid3::new(32, 32, 16);
            b.iter(|| execute_temporal(&stencil, &input, &mut out, 8, 8, t));
        });
    }
    group.finish();
}

fn bench_microsim(c: &mut Criterion) {
    let dev = DeviceSpec::gtx580();
    let spec = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
    let plan = build_block_plan(
        &dev,
        &spec,
        &LaunchConfig::new(64, 8, 1, 1),
        GridDims::paper(),
    );
    c.bench_function("microsim_block_plane", |b| {
        b.iter(|| simulate_block_plane(&dev, &plan, 3))
    });
    c.bench_function("analytic_plane_cycles", |b| {
        b.iter(|| gpu_sim::timing::plane_cycles(&dev, &plan, 3))
    });
}

fn bench_stochastic(c: &mut Criterion) {
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::new(256, 256, 32);
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
    let space = ParameterSpace::quick_space(&dev, &kernel, &dims);
    let opts = AnnealOptions {
        evaluations: 30,
        ..AnnealOptions::default()
    };
    let ctx = EvalContext::new();
    c.bench_function("stochastic_tune_30_evals", |b| {
        b.iter(|| stochastic_tune_with(&ctx, &dev, &kernel, dims, &space, &opts, 1))
    });
}

criterion_group!(
    benches,
    bench_codegen,
    bench_temporal,
    bench_microsim,
    bench_stochastic
);
criterion_main!(benches);
