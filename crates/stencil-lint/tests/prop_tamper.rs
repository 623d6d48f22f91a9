//! Tamper property: the dataflow engine is a *semantic* checker, not a
//! syntax diff. For a randomly mutated lowered plan (one op dropped,
//! duplicated in place, or swapped with its neighbour) one of two things
//! must hold:
//!
//! * the whole-plan dataflow pass emits at least one **error**-severity
//!   diagnostic — the tamper broke the schedule and the static proof
//!   caught it (the tampered plan is then *not* interpreted: a broken
//!   schedule may legitimately abort the interpreter); or
//! * the tampered plan is semantically harmless — interpreting it under
//!   the checked interpreter raises no staging violation and produces
//!   **bit-identical** output to the untampered plan.
//!
//! A tamper that silently changes the answer is exactly the kind of
//! lowering bug the engine exists to refuse. One tamper class is
//! harmless to the sequential interpreter yet wrong on a GPU — a compute
//! hoisted above its stage barrier — so it gets a targeted case that
//! demands the race finding outright.

use proptest::prelude::*;
use stencil_lint::analyze_plan;

use inplane_core::{interpret_plan_checked, lower_step, registry, LaunchConfig, PlanOp, StagePlan};
use stencil_grid::{FillPattern, Grid3, StarStencil};

#[derive(Clone, Copy, Debug)]
enum Tamper {
    Drop,
    Duplicate,
    SwapWithNext,
}

fn tampered(plan: &StagePlan, kind: Tamper, at: usize) -> Option<StagePlan> {
    let mut ops: Vec<PlanOp> = plan.ops.clone();
    match kind {
        Tamper::Drop => {
            ops.remove(at);
        }
        Tamper::Duplicate => {
            let op = ops[at];
            ops.insert(at, op);
        }
        Tamper::SwapWithNext => {
            if at + 1 >= ops.len() {
                return None;
            }
            ops.swap(at, at + 1);
        }
    }
    let mut out = plan.clone();
    out.ops = ops;
    Some(out)
}

/// The race tamper class, for every routine: swapping plane 5's stage
/// barrier with the compute that follows it leaves every cell staged
/// and every section's barrier count intact, yet the compute now reads
/// stores no barrier has fenced. The dataflow pass must call it a
/// cross-warp race (`LNT-S002`).
#[test]
fn swapped_stage_barrier_is_a_race_for_every_routine() {
    for rt in registry() {
        let plan = lower_step(rt.method(), &LaunchConfig::new(8, 8, 1, 1), 2, (12, 12, 12));
        let compute = plan
            .ops
            .iter()
            .position(|op| matches!(op, PlanOp::ComputePoint { plane: 5, .. }))
            .expect("plane 5 computes");
        assert!(matches!(plan.ops[compute - 1], PlanOp::Barrier));
        let bad = tampered(&plan, Tamper::SwapWithNext, compute - 1).unwrap();
        let report = analyze_plan(&bad);
        assert!(
            report.diagnostics.iter().any(|d| d.code == "LNT-S002"),
            "{}: {:?}",
            rt.label(),
            report.diagnostics
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tampered_plans_are_flagged_or_harmless(
        method_idx in 0..registry().len(),
        radius in 1usize..3,
        tx in prop::sample::select(vec![4usize, 8]),
        ty in 2usize..5,
        kind_idx in 0usize..3,
        at_seed in 0usize..10_000,
    ) {
        let method = registry()[method_idx].method();
        let config = LaunchConfig::new(tx, ty, 1, 1);
        let dims = (
            2 * radius + 2 * config.tile_x(),
            2 * radius + 2 * config.tile_y(),
            4 * radius + 2,
        );
        let plan = lower_step(method, &config, radius, dims);
        prop_assert!(!plan.ops.is_empty());
        let at = at_seed % plan.ops.len();
        let kind = [Tamper::Drop, Tamper::Duplicate, Tamper::SwapWithNext][kind_idx];
        let Some(bad) = tampered(&plan, kind, at) else {
            return Ok(());
        };

        let report = analyze_plan(&bad);
        if report.errors() > 0 {
            // Flagged statically; a broken schedule need not interpret.
            return Ok(());
        }

        // No static error: the tamper must be observably harmless.
        let stencil: StarStencil<f64> = StarStencil::diffusion(radius);
        let input: Grid3<f64> = FillPattern::HashNoise.build(dims.0, dims.1, dims.2);
        let mut good_out: Grid3<f64> = Grid3::new(dims.0, dims.1, dims.2);
        let mut bad_out: Grid3<f64> = Grid3::new(dims.0, dims.1, dims.2);
        let (_, good_errs) = interpret_plan_checked(&plan, &stencil, &input, &mut good_out);
        let (_, bad_errs) = interpret_plan_checked(&bad, &stencil, &input, &mut bad_out);
        prop_assert!(good_errs.is_empty(), "untampered plan must be valid");
        prop_assert!(
            bad_errs.is_empty(),
            "{kind:?} of op {at} ({:?}) raised staging violations the \
             dataflow pass missed: {:?}",
            plan.ops[at],
            bad_errs
        );
        prop_assert!(
            good_out.raw() == bad_out.raw(),
            "{kind:?} of op {at} ({:?}) silently changed the output with \
             no dataflow error; diagnostics: {:?}",
            plan.ops[at],
            report.diagnostics
        );
    }
}
