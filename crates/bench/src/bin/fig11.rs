//! Regenerates Fig 11 / Table V: application stencil benchmarks.
use inplane_core::EvalContext;
use stencil_bench::{exp::fig11, RunOpts};
fn main() {
    let opts = RunOpts::from_env();
    let ctx = EvalContext::new();
    for r in fig11::compute(&ctx, &opts) {
        fig11::render(&r).print(&format!(
            "Fig 11 / Table V: application stencils on {} ({})",
            r.device,
            r.precision.label()
        ));
    }
    println!(
        "\nPaper shape: Laplacian gains most (~1.8x); Hyperthermia least (coefficient-bound)."
    );
}
