//! Regenerates Table IV: auto-tuned full-slice results (SP & DP).
use std::sync::Arc;

use inplane_core::EvalContext;
use stencil_bench::{exp::table4, RunOpts};

fn main() {
    let opts = RunOpts::from_env();
    let ctx = Arc::new(EvalContext::new());
    let svc = opts.tune_service(&ctx);
    let cells = table4::compute(&ctx, svc.as_ref(), &opts);
    let table = table4::render(&cells);
    table.print("Table IV: auto-tuned in-plane full-slice (thread + register blocking)");
    table.maybe_csv(&opts.csv_dir, "table4");
}
