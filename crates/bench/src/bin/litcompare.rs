//! Regenerates the section V-B literature comparison.
use std::sync::Arc;

use inplane_core::EvalContext;
use stencil_bench::{exp::litcompare, RunOpts};

fn main() {
    let opts = RunOpts::from_env();
    let ctx = Arc::new(EvalContext::new());
    let svc = opts.tune_service(&ctx);
    litcompare::render(&litcompare::compute(&ctx, svc.as_ref(), &opts))
        .print("Section V-B: comparison with previous work");
}
