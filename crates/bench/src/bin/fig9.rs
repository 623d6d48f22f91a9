//! Regenerates Fig 9: global-memory load efficiency comparison.
use std::sync::Arc;

use inplane_core::EvalContext;
use stencil_bench::{exp::fig9, RunOpts};

fn main() {
    let opts = RunOpts::from_env();
    let ctx = Arc::new(EvalContext::new());
    let svc = opts.tune_service(&ctx);
    let cells = fig9::compute(&ctx, svc.as_ref(), &opts);
    let table = fig9::render(&cells);
    table.print("Fig 9: global memory load efficiency (tuned, SP)");
    table.maybe_csv(&opts.csv_dir, "fig9");
    println!("\nPaper shape: full-slice efficiency above nvstencil at every order on every GPU.");
}
