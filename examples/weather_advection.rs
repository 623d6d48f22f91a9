//! Weather-style advection with the *Upstream* application stencil
//! (Table V): transport a tracer pulse with an upwind scheme, verify the
//! physics (mass moves downwind, stays bounded), then benchmark the
//! forward-plane vs in-plane methods for the kernel on all three GPUs —
//! one bar group of the paper's Fig 11.
//!
//! ```sh
//! cargo run --release --example weather_advection
//! ```

use inplane_isl::apps::{benchmark_app_with, Upstream};
use inplane_isl::prelude::*;
use inplane_isl::sim::DeviceSpec;
use stencil_grid::{apply_multigrid, GridSet, MultiGridKernel};

/// Tracer centre of mass along x.
fn centre_of_mass_x(g: &Grid3<f64>) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for ((i, _, _), v) in g.iter_logical() {
        num += i as f64 * v;
        den += v;
    }
    num / den
}

fn main() {
    let n = 32;
    let wind = Upstream {
        cx: 0.4,
        cy: 0.0,
        cz: 0.0,
    };
    println!(
        "upwind advection on a {n}^3 grid, Courant numbers ({}, {}, {})",
        wind.cx, wind.cy, wind.cz
    );

    // A tracer pulse left of centre.
    let mut tracer: Grid3<f64> = Grid3::new(n, n, n);
    tracer.fill_with(|i, j, k| {
        let d2 = (i as f64 - 8.0).powi(2) + (j as f64 - 16.0).powi(2) + (k as f64 - 16.0).powi(2);
        (-d2 / 18.0).exp()
    });

    let x0 = centre_of_mass_x(&tracer);
    let steps = 20;
    for _ in 0..steps {
        let inputs = GridSet::new(vec![tracer.clone()]);
        let mut out = GridSet::zeros(1, n, n, n);
        apply_multigrid(&wind, &inputs, &mut out, Boundary::CopyInput);
        tracer = out.into_inner().remove(0);
    }
    let x1 = centre_of_mass_x(&tracer);
    println!("tracer centre of mass: x = {x0:.2} -> {x1:.2} after {steps} steps");
    assert!(x1 > x0 + 2.0, "tracer must advect downwind");
    let max = tracer
        .iter_logical()
        .map(|(_, v)| v)
        .fold(f64::MIN, f64::max);
    assert!(max <= 1.0 + 1e-9, "upwind scheme must not overshoot");
    println!("peak after transport: {max:.3} (bounded, as upwind guarantees)");

    // The Fig 11 measurement for this kernel.
    println!("\nFig 11 bar group for Upstream (SP, tuned):");
    let dims = GridDims::paper();
    let ctx = EvalContext::new();
    for dev in DeviceSpec::paper_devices() {
        let app: &dyn MultiGridKernel<f32> = &Upstream::default();
        let r = benchmark_app_with::<f32>(&ctx, &dev, app, dims, true, 1);
        println!(
            "  {:16} nvstencil {:7.0} MP/s @ {} | in-plane {:7.0} MP/s @ {} | speedup {:.2}x",
            dev.name,
            r.forward_mpoints,
            r.forward_config,
            r.inplane_mpoints,
            r.inplane_config,
            r.speedup()
        );
    }
}
