//! Quickstart: the whole pipeline on one page.
//!
//! 1. Build a 4th-order star stencil and a small grid.
//! 2. Run one Jacobi step with the emulated in-plane full-slice kernel
//!    and verify it against the CPU golden model — the paper's own
//!    correctness check.
//! 3. Price the same kernel on the three simulated GPUs of Table III.
//! 4. Auto-tune it on the GTX580 and report the optimum.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use inplane_isl::core::execute_step;
use inplane_isl::prelude::*;

fn main() {
    // --- 1. problem setup -------------------------------------------------
    let stencil = StarStencil::<f32>::from_order(4);
    let n = 48;
    let input: Grid3<f32> = FillPattern::Random {
        lo: -1.0,
        hi: 1.0,
        seed: 42,
    }
    .build(n, n, n);
    println!("4th-order SP star stencil on a {n}x{n}x{n} grid");

    // --- 2. functional run + verification --------------------------------
    let config = LaunchConfig::new(16, 8, 1, 2);
    let mut emulated = Grid3::new(n, n, n);
    let stats = execute_step(
        Method::InPlane(Variant::FullSlice),
        &stencil,
        &config,
        &input,
        &mut emulated,
        Boundary::CopyInput,
    );
    let mut golden = Grid3::new(n, n, n);
    stencil_grid::apply_reference_inplane_order(&stencil, &input, &mut golden, Boundary::CopyInput);
    let report = stencil_grid::verify_close(&emulated, &golden, 1e-6);
    println!(
        "emulated {} blocks, staged {} cells -> max |err| vs CPU reference: {:.2e} ({})",
        stats.blocks,
        stats.cells_staged,
        report.max_abs,
        if report.passed() { "PASS" } else { "FAIL" },
    );
    assert!(report.passed());

    // --- 3. price it on the paper's three GPUs ---------------------------
    let ctx = EvalContext::new();
    let dims = GridDims::paper();
    let kernel = KernelSpec::inplane(Variant::FullSlice, &stencil);
    println!("\nsimulated performance at {config} on the paper grid (512x512x256):");
    for dev in gpu_sim::DeviceSpec::paper_devices() {
        let rep = ctx.evaluate(&dev, &kernel, &config, dims);
        println!(
            "  {:16} {:8.0} MPoint/s  ({:.0} GB/s, occupancy {:.0}%)",
            dev.name,
            rep.mpoints_per_s(),
            rep.achieved_bandwidth_gbs(),
            rep.occupancy.occupancy * 100.0
        );
    }

    // --- 4. auto-tune on the GTX580 ---------------------------------------
    let dev = gpu_sim::DeviceSpec::gtx580();
    let space = ParameterSpace::quick_space(&dev, &kernel, &dims);
    let tuned = exhaustive_tune_with(&ctx, &dev, &kernel, dims, &space, 1);
    println!(
        "\nauto-tuned on {}: {} -> {:.0} MPoint/s ({} configurations searched)",
        dev.name,
        tuned.best.config,
        tuned.best.mpoints,
        tuned.evaluated()
    );

    // Steps 3 and 4 both measured through one EvalContext: each
    // (device, kernel, config, dims) point was planned and priced once,
    // and the tuner's noisy "measurements" reused the cached clean price.
    let stats = ctx.stats();
    println!(
        "evaluation cache: {} hits, {} misses ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate()
    );
}
