//! Auto-tuning walkthrough: exhaustive search, the Section VI analytic
//! model, and model-based tuning with a β cutoff — for one kernel on all
//! three simulated GPUs.
//!
//! ```sh
//! cargo run --release --example autotune_explore [order]
//! ```

use inplane_isl::autotune::predict_mpoints;
use inplane_isl::prelude::*;
use inplane_isl::sim::DeviceSpec;
use stencil_grid::Precision;

fn main() {
    let order: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let dims = GridDims::paper();
    let kernel = KernelSpec::star_order(
        inplane_isl::core::Method::InPlane(Variant::FullSlice),
        order,
        Precision::Single,
    );
    println!("auto-tuning the order-{order} SP full-slice kernel on 512x512x256\n");
    let ctx = EvalContext::new();

    for dev in DeviceSpec::paper_devices() {
        let space = ParameterSpace::paper_space(&dev, &kernel, &dims);
        let ex = exhaustive_tune_with(&ctx, &dev, &kernel, dims, &space, 1);
        let mb = model_based_tune_with(&ctx, &dev, &kernel, dims, &space, 5.0, 1);
        println!("{} — {} feasible configurations", dev.name, space.len());
        println!(
            "  exhaustive : {} -> {:8.0} MPoint/s",
            ex.best.config, ex.best.mpoints
        );
        println!(
            "  model-based: {} -> {:8.0} MPoint/s (executed {} = {:.1}% of the space)",
            mb.best.config,
            mb.best.mpoints,
            mb.executed,
            100.0 * mb.executed_fraction()
        );
        println!(
            "  gap: {:.1}%  (paper reports ~2% typical, ~6% worst)",
            100.0 * (1.0 - mb.best.mpoints / ex.best.mpoints)
        );
        // Show how the model ranks the exhaustive top-3.
        println!("  exhaustive top 3 with model predictions:");
        for s in ex.top(3) {
            println!(
                "    {}: measured {:8.0}, model {:8.0} MPoint/s",
                s.config,
                s.mpoints,
                predict_mpoints(&dev, &kernel, &s.config, &dims)
            );
        }
        println!();
    }
}
