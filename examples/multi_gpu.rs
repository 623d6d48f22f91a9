//! Multi-GPU stencil run: split a heat-diffusion simulation over
//! emulated devices with z-slab decomposition and halo exchange, verify
//! the result is bit-identical to the single-device run, and show the
//! projected strong-scaling curve.
//!
//! ```sh
//! cargo run --release --example multi_gpu
//! ```

use inplane_isl::core::{execute_step, Method};
use inplane_isl::multigpu::{execute_multi_gpu, simulate_scaling, Interconnect};
use inplane_isl::prelude::*;
use inplane_isl::sim::DeviceSpec;
use stencil_grid::Precision;

fn main() {
    let stencil = StarStencil::<f64>::diffusion(1);
    let config = LaunchConfig::new(8, 8, 1, 1);
    let initial: Grid3<f64> = FillPattern::GaussianPulse {
        amplitude: 100.0,
        sigma: 0.1,
    }
    .build(32, 32, 24);
    let steps = 6;

    // Single-device reference run.
    let (single, _) = iterate_stencil_loop(initial.clone(), 1, steps, |inp, out| {
        execute_step(
            Method::InPlane(Variant::FullSlice),
            &stencil,
            &config,
            inp,
            out,
            Boundary::CopyInput,
        );
    });

    println!("heat diffusion, 32x32x24 grid, {steps} steps, z-slab decomposition:");
    for devices in [1usize, 2, 3, 4] {
        let (multi, stats) = execute_multi_gpu(
            Method::InPlane(Variant::FullSlice),
            &stencil,
            &config,
            &initial,
            devices,
            steps,
        );
        let err = stencil_grid::max_abs_diff(&multi, &single);
        println!(
            "  {devices} device(s): {:3} halo planes exchanged ({:6} B), max |err| vs single = {err:.1e}",
            stats.planes_exchanged, stats.bytes_exchanged
        );
        assert_eq!(err, 0.0, "multi-device run must be bit-identical");
    }

    // Projected strong scaling at paper scale.
    let dev = DeviceSpec::gtx580();
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
    let tuned = LaunchConfig::new(128, 4, 1, 2);
    println!("\nprojected strong scaling at 512x512x256 SP on GTX580s over PCIe 2.0:");
    for p in simulate_scaling(
        &EvalContext::new(),
        &dev,
        &kernel,
        &tuned,
        GridDims::paper(),
        &Interconnect::pcie2(),
        8,
    ) {
        println!(
            "  {} GPU(s): {:6.0} MPoint/s, efficiency {:.2}, exchange {:4.1}% of the step",
            p.devices,
            p.mpoints_per_s,
            p.efficiency,
            p.exchange_fraction * 100.0
        );
    }
}
