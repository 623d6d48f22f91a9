//! Criterion benchmarks of the GPU simulator itself: how fast one
//! configuration can be priced (this bounds auto-tuning throughput), and
//! the cost of the address-accurate coalescing core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{coalesce_transactions, DeviceSpec, GridDims, WarpLoad};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use stencil_grid::Precision;

fn bench_simulate(c: &mut Criterion) {
    let dims = GridDims::paper();
    let ctx = EvalContext::new();
    let mut group = c.benchmark_group("simulate_one_launch");
    for (label, method) in [
        ("nvstencil", Method::ForwardPlane),
        ("full_slice", Method::InPlane(Variant::FullSlice)),
    ] {
        for order in [2usize, 12] {
            let kernel = KernelSpec::star_order(method, order, Precision::Single);
            let dev = DeviceSpec::gtx580();
            let config = LaunchConfig::new(64, 8, 1, 2);
            group.bench_with_input(BenchmarkId::new(label, order), &kernel, |b, k| {
                b.iter(|| ctx.evaluate(&dev, k, &config, dims))
            });
        }
    }
    group.finish();
}

fn bench_coalescing(c: &mut Criterion) {
    // A representative slab row: 32 lanes of float4.
    let coalesced = WarpLoad::contiguous(0, 32, 16);
    let scattered = WarpLoad {
        lane_addresses: (0..32u64).map(|l| l * 2048).collect(),
        bytes_per_lane: 4,
    };
    c.bench_function("coalesce_contiguous_warp", |b| {
        b.iter(|| coalesce_transactions(&coalesced, 128))
    });
    c.bench_function("coalesce_scattered_warp", |b| {
        b.iter(|| coalesce_transactions(&scattered, 128))
    });
}

fn bench_bandwidth_microbench(c: &mut Criterion) {
    c.bench_function("bandwidth_microbenchmark", |b| {
        let dev = DeviceSpec::gtx680();
        b.iter(|| gpu_sim::measure_achieved_bandwidth(&dev))
    });
}

criterion_group!(
    benches,
    bench_simulate,
    bench_coalescing,
    bench_bandwidth_microbench
);
criterion_main!(benches);
