//! Heat diffusion — the canonical iterative stencil loop (the paper's
//! Fig 1) on a Gaussian temperature pulse.
//!
//! Runs the same simulation three ways — CPU reference, emulated
//! forward-plane (nvstencil) kernel, emulated in-plane full-slice
//! kernel — checks they agree, and reports how the pulse decays. Then
//! asks the simulator what each method's time-to-solution would be on a
//! GTX580, the end-to-end number a simulation user actually cares about.
//!
//! ```sh
//! cargo run --release --example heat_diffusion
//! ```

use inplane_isl::core::execute_step;
use inplane_isl::prelude::*;

fn peak(g: &Grid3<f64>) -> f64 {
    g.iter_logical().map(|(_, v)| v).fold(f64::MIN, f64::max)
}

fn main() {
    let n = 40;
    let steps = 25;
    let stencil = StarStencil::<f64>::diffusion(1);
    let initial: Grid3<f64> = FillPattern::GaussianPulse {
        amplitude: 100.0,
        sigma: 0.08,
    }
    .build(n, n, n);
    println!(
        "heat diffusion: {n}^3 grid, {steps} Jacobi steps, initial peak {:.1}",
        peak(&initial)
    );

    // CPU reference run.
    let (cpu, _) = iterate_stencil_loop(initial.clone(), 1, steps, |inp, out| {
        apply_reference(&stencil, inp, out, Boundary::CopyInput);
    });

    // Emulated GPU runs, both methods.
    let config = LaunchConfig::new(16, 4, 1, 2);
    let run = |method: Method| {
        let (grid, _) = iterate_stencil_loop(initial.clone(), 1, steps, |inp, out| {
            execute_step(method, &stencil, &config, inp, out, Boundary::CopyInput);
        });
        grid
    };
    let fwd = run(Method::ForwardPlane);
    let inp = run(Method::InPlane(Variant::FullSlice));

    for (name, grid) in [("forward-plane", &fwd), ("in-plane", &inp)] {
        let err = stencil_grid::max_abs_diff(grid, &cpu);
        println!(
            "  {name:14} peak {:8.3}  max |err| vs CPU {err:.2e}",
            peak(grid)
        );
        assert!(err < 1e-10, "{name} diverged from the reference");
    }
    println!("  pulse decayed {:.1}x", peak(&initial) / peak(&cpu));

    // What would this cost on real-sized grids on a GTX580?
    let ctx = EvalContext::new();
    let dev = gpu_sim::DeviceSpec::gtx580();
    let dims = GridDims::paper();
    println!(
        "\nprojected time for {steps} steps on {} at 512x512x256 (DP):",
        dev.name
    );
    for (label, method, cfg) in [
        (
            "nvstencil",
            Method::ForwardPlane,
            LaunchConfig::new(128, 8, 1, 1),
        ),
        (
            "in-plane full-slice",
            Method::InPlane(Variant::FullSlice),
            LaunchConfig::new(128, 1, 1, 4),
        ),
    ] {
        let spec = KernelSpec::star_order(method, 2, stencil_grid::Precision::Double);
        let rep = ctx.evaluate(&dev, &spec, &cfg, dims);
        println!(
            "  {label:20} {:7.2} ms/step -> {:6.1} ms total ({:.0} MPoint/s)",
            rep.time_s * 1e3,
            rep.time_s * 1e3 * steps as f64,
            rep.mpoints_per_s()
        );
    }
}
