//! Regenerates Fig 7: in-plane variant speedups over nvstencil with
//! thread blocking only.
use std::sync::Arc;

use inplane_core::EvalContext;
use stencil_bench::{exp::fig7, RunOpts};

fn main() {
    let opts = RunOpts::from_env();
    let ctx = Arc::new(EvalContext::new());
    let svc = opts.tune_service(&ctx);
    let cells = fig7::compute(&ctx, svc.as_ref(), &opts);
    let table = fig7::render(&cells);
    table.print("Fig 7: in-plane variant speedup over nvstencil (SP, TXxTY tuned, no RB)");
    table.maybe_csv(&opts.csv_dir, "fig7");
    println!("\nPaper shape: full-slice consistently ~1.2-1.4x; horizontal close behind;");
    println!("vertical competitive at low orders but significant slowdowns at orders 10-12.");
}
