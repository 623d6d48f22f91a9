//! Ablation study of the simulator's design decisions (DESIGN.md section 6).
use inplane_core::EvalContext;
use stencil_bench::{exp::ablation, RunOpts};
fn main() {
    let opts = RunOpts::from_env();
    let ctx = EvalContext::new();
    let rows = ablation::compute(&ctx, &opts);
    ablation::render(&rows)
        .print("Ablation: tuned full-slice vs nvstencil on GTX580 under altered mechanisms");
    println!("\nThe in-plane advantage rests on 128-byte transaction granularity; removing");
    println!("it (4-byte segments) collapses the gap. The L1 duplicate-fetch credit mainly");
    println!("helps the misaligned baseline; the latency-hiding shape is second-order.");
}
