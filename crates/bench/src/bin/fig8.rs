//! Regenerates Fig 8: auto-tuning performance surfaces over (RX, RY).
use inplane_core::EvalContext;
use stencil_bench::{exp::fig8, RunOpts};
fn main() {
    let opts = RunOpts::from_env();
    let ctx = EvalContext::new();
    for panel in fig8::compute(&ctx, &opts) {
        fig8::render(&panel).print(&format!(
            "Fig 8: order-{} SP surface on GTX580 at (TX, TY) = ({}, {}) [MPoint/s]",
            panel.order, panel.tx, panel.ty
        ));
        let peak = panel.peak();
        println!(
            "peak: {:.0} MPoint/s at (RX, RY) = ({}, {})",
            peak.mpoints, peak.rx, peak.ry
        );
    }
    println!("\nPaper: order-2 peak 17294 MPoint/s at (256,1,1,8); order-8 best at (32,4,1,4).");
}
