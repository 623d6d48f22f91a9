//! Iterative Poisson solver — solve `∇²u = f` by Jacobi relaxation with
//! the Table V *Poisson* application stencil, run to a residual
//! tolerance, checkpoint the solution in the library's binary format,
//! and project the time-to-solution on the simulated GPUs for both
//! methods.
//!
//! ```sh
//! cargo run --release --example poisson_solver
//! ```

use inplane_isl::apps::Poisson;
use inplane_isl::core::Method;
use inplane_isl::prelude::*;
use inplane_isl::sim::DeviceSpec;
use stencil_grid::{apply_multigrid, stats, GridSet, MultiGridKernel};

/// L2 residual of ∇²u − f over the interior.
fn residual(u: &Grid3<f64>, f: &Grid3<f64>) -> f64 {
    let (nx, ny, nz) = u.dims();
    let mut r2 = 0.0;
    for k in 1..nz - 1 {
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let lap = u.get(i - 1, j, k)
                    + u.get(i + 1, j, k)
                    + u.get(i, j - 1, k)
                    + u.get(i, j + 1, k)
                    + u.get(i, j, k - 1)
                    + u.get(i, j, k + 1)
                    - 6.0 * u.get(i, j, k);
                let r = lap - f.get(i, j, k);
                r2 += r * r;
            }
        }
    }
    r2.sqrt()
}

fn main() -> std::io::Result<()> {
    let n = 24;
    // A dipole source: +1 and -1 point charges.
    let mut f: Grid3<f64> = Grid3::new(n, n, n);
    f.set(n / 4, n / 2, n / 2, 1.0);
    f.set(3 * n / 4, n / 2, n / 2, -1.0);
    let mut u: Grid3<f64> = Grid3::new(n, n, n);

    let poisson = Poisson::default();
    let r0 = residual(&u, &f);
    println!("Poisson dipole on a {n}^3 grid; initial residual {r0:.3e}");

    let mut iterations = 0usize;
    let target = 0.05 * r0;
    while residual(&u, &f) > target && iterations < 2000 {
        let inputs = GridSet::new(vec![u.clone(), f.clone()]);
        let mut out = GridSet::zeros(1, n, n, n);
        apply_multigrid(&poisson, &inputs, &mut out, Boundary::CopyInput);
        u = out.into_inner().remove(0);
        iterations += 1;
        if iterations.is_multiple_of(200) {
            println!("  step {iterations}: residual {:.3e}", residual(&u, &f));
        }
    }
    println!("converged to 5% of the initial residual in {iterations} Jacobi steps");
    let s = stats(&u);
    println!(
        "solution range [{:.4}, {:.4}], L2 {:.4}",
        s.min, s.max, s.l2
    );
    assert!(
        s.min < 0.0 && s.max > 0.0,
        "dipole potential must have both signs"
    );

    // Checkpoint and re-load.
    let mut buf = Vec::new();
    stencil_grid::write_grid(&u, &mut buf)?;
    let reloaded: Grid3<f64> = stencil_grid::read_grid(&mut buf.as_slice())?;
    assert_eq!(u, reloaded);
    println!("checkpoint round-trip: {} bytes", buf.len());

    // Project the cost of those iterations on the GTX580 at paper scale.
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    println!(
        "\nprojected {iterations} DP iterations at 512x512x256 on {}:",
        dev.name
    );
    let ctx = EvalContext::new();
    for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
        let app: &dyn MultiGridKernel<f64> = &poisson;
        let spec = KernelSpec::from_app(method, app);
        let space = ParameterSpace::quick_space(&dev, &spec, &dims);
        let best = exhaustive_tune_with(&ctx, &dev, &spec, dims, &space, 1).best;
        let sweep_s = dims.points() as f64 / (best.mpoints * 1e6);
        println!(
            "  {:24} {:7.0} MPoint/s -> {:6.1} s total (config {})",
            spec.name,
            best.mpoints,
            sweep_s * iterations as f64,
            best.config
        );
    }
    Ok(())
}
