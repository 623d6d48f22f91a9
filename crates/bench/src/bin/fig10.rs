//! Regenerates Fig 10: breakdown of speedup contributions.
use std::sync::Arc;

use inplane_core::EvalContext;
use stencil_bench::{exp::fig10, RunOpts};

fn main() {
    let opts = RunOpts::from_env();
    let ctx = Arc::new(EvalContext::new());
    let svc = opts.tune_service(&ctx);
    let cells = fig10::compute(&ctx, svc.as_ref(), &opts);
    let table = fig10::render(&cells);
    table.print("Fig 10: speedup breakdown over tuned nvstencil (SP)");
    table.maybe_csv(&opts.csv_dir, "fig10");
    let (total, from_fs, from_rb) = fig10::summary(&cells);
    println!(
        "\nmean total gain {:.0}%; loading pattern {:.0}%; register blocking on top {:.0}%",
        total * 100.0,
        from_fs * 100.0,
        from_rb * 100.0
    );
    println!("Paper: ~36-42% total; ~18% from RB on full-slice; nvstencil+RB only ~11%.");
}
