//! Extension: in-plane vs 3.5-D temporal blocking (the section II / V-B
//! baseline of Nguyen et al.), on the simulated GTX580.
use std::sync::Arc;

use inplane_core::EvalContext;
use stencil_bench::{exp::temporal_cmp, RunOpts};

fn main() {
    let opts = RunOpts::from_env();
    let ctx = Arc::new(EvalContext::new());
    let svc = opts.tune_service(&ctx);
    let cells = temporal_cmp::compute(&ctx, svc.as_ref(), &opts);
    temporal_cmp::render(&cells)
        .print("Extension: in-plane vs 3.5-D temporal blocking (SP, GTX580)");
    println!("\nTemporal blocking amortises traffic over T steps and can exceed the");
    println!("single-step DRAM roofline at order 2; its r*T halos and T+1 staged planes");
    println!("make it lose (or not fit) at higher orders — the crossover the in-plane");
    println!("method's single-sweep simplicity avoids.");
}
