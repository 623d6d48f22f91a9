//! Dynamic cross-check of the static schedule proof on the *shared* IR:
//! the analyzer and the runtime both consume the same lowered
//! [`StagePlan`], so a tampered plan can be judged twice — statically by
//! the whole-plan dataflow pass ([`analyze_plan`]), and dynamically by
//! replaying the very same plan through the instrumented interpreter
//! (`interpret_plan_checked`). A clean plan must be clean both ways; a
//! plan missing one staged region must fail `try_read` on *exactly* the
//! cells the `LNT-D001` diagnostics count, cell for cell, in whichever
//! block the region went missing; a plan missing a barrier is a
//! cross-warp race (`LNT-S002`) the single-threaded interpreter cannot
//! observe — static-only, zero runtime errors.

use inplane_core::plan::{PlanOp, Zone};
use inplane_core::{
    interpret_plan_checked, lower_step, registry, LaunchConfig, Method, StagePlan, Variant,
};
use stencil_grid::{FillPattern, Grid3, StarStencil};
use stencil_lint::{analyze_plan, DataflowReport, Severity};

/// A single-block lowered plan on a 12³ grid: radius 2, one 8×8 tile
/// covering the whole interior, so the block origin is `(r, r)`.
fn single_block_plan(method: Method) -> StagePlan {
    lower_step(method, &LaunchConfig::new(8, 8, 1, 1), 2, (12, 12, 12))
}

/// Replay `plan` through the checked interpreter and return the
/// deduplicated staging failures.
fn replay(plan: &StagePlan) -> Vec<inplane_core::StageError> {
    let (nx, ny, nz) = plan.dims;
    let s: StarStencil<f32> = StarStencil::from_order(2 * plan.radius);
    let input: Grid3<f32> = FillPattern::HashNoise.build(nx, ny, nz);
    let mut out = Grid3::new(nx, ny, nz);
    let (_stats, errors) = interpret_plan_checked(plan, &s, &input, &mut out);
    errors
}

/// Remove the `zone` stage of `plane` in the block whose tile origin is
/// `block`.
fn drop_stage(plan: &mut StagePlan, block: (usize, usize), zone: Zone, plane: usize) {
    let mut in_block = false;
    let victim = plan
        .ops
        .iter()
        .position(|op| match *op {
            PlanOp::BeginBlock { x0, y0, .. } => {
                in_block = (x0, y0) == block;
                false
            }
            PlanOp::StageRegion {
                zone: z, plane: p, ..
            } => in_block && z == zone && p == plane,
            _ => false,
        })
        .expect("the block stages that zone at that plane");
    plan.ops.remove(victim);
}

/// Codes of every error-severity finding.
fn error_codes(rep: &DataflowReport) -> Vec<&'static str> {
    rep.diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

/// Assert the static `LNT-D001` cell count equals the replay's staging
/// failures, cell for cell, all of them in `zone` at `plane`.
fn assert_stage_drop_matches_replay(plan: &StagePlan, zone: Zone, plane: usize, cells: u64) {
    let rep = analyze_plan(plan);
    assert!(
        error_codes(&rep).iter().all(|c| *c == "LNT-D001"),
        "{:?}",
        rep.diagnostics
    );
    assert_eq!(
        rep.uninit_tile_cells, cells,
        "tampered plan must be flagged"
    );

    let errors = replay(plan);
    assert_eq!(
        errors.len() as u64,
        rep.uninit_tile_cells,
        "static proof and interpreter disagree on the unstaged cell count"
    );
    // The StageError carries the context the lint proves things about:
    // the plane and the very zone whose stage was dropped.
    for e in &errors {
        assert_eq!(e.plane, Some(plane));
        assert_eq!(e.zone, zone.label());
        assert!(
            e.to_string()
                .starts_with("read of un-staged shared-buffer cell"),
            "{e}"
        );
    }
}

#[test]
fn clean_plans_are_clean_both_statically_and_dynamically() {
    for method in registry().iter().map(|rt| rt.method()) {
        let plan = single_block_plan(method);
        // Static: the whole plan proves without an error (the
        // documented dead-staging warnings may remain).
        let rep = analyze_plan(&plan);
        assert!(rep.is_clean(), "{method:?}: {:?}", rep.diagnostics);
        // Dynamic: the interpreter replays the same plan without a
        // single staging failure.
        let errors = replay(&plan);
        assert!(
            errors.is_empty(),
            "{method:?}: dynamic replay failed at {:?}",
            errors.first()
        );
    }
}

#[test]
fn tampered_stage_matches_dynamic_stage_errors_cell_for_cell() {
    // Drop the top-halo staged region of plane 5 from the real lowered
    // plan: the whole 8×2 top arm is un-staged, 16 cells.
    let mut plan = single_block_plan(Method::InPlane(Variant::Horizontal));
    drop_stage(&mut plan, (2, 2), Zone::Top, 5);
    assert_stage_drop_matches_replay(&plan, Zone::Top, 5, 8 * 2);
}

#[test]
fn tampered_stage_in_an_edge_block_is_seen() {
    // A 3×3-tile plan, as the sweep lowers it: drop the left arm of the
    // bottom-left block at its first staged plane. A proof of the middle
    // block at plane 2r alone cannot see this drop.
    let config = LaunchConfig::new(4, 4, 1, 1);
    let r = 2;
    let dims = (
        2 * r + 3 * config.tile_x(),
        2 * r + 3 * config.tile_y(),
        4 * r + 2,
    );
    let mut plan = lower_step(Method::InPlane(Variant::Vertical), &config, r, dims);
    drop_stage(&mut plan, (r, r + 2 * config.tile_y()), Zone::Left, r);
    assert_stage_drop_matches_replay(&plan, Zone::Left, r, 4 * 2);
}

#[test]
fn tampered_barrier_is_a_race_only_the_static_proof_sees() {
    // Drop the stage barrier of plane 5: statically a cross-warp race
    // (LNT-S002, not D001 — everything is staged); dynamically
    // invisible, because the interpreter is single-threaded and
    // sequentially consistent.
    let mut plan = single_block_plan(Method::InPlane(Variant::Vertical));
    let compute_at_5 = plan
        .ops
        .iter()
        .position(|op| matches!(op, PlanOp::ComputePoint { plane: 5, .. }))
        .expect("plane 5 computes a partial");
    assert!(
        matches!(plan.ops[compute_at_5 - 1], PlanOp::Barrier),
        "lowering always fences the compute phase"
    );
    plan.ops.remove(compute_at_5 - 1);

    let rep = analyze_plan(&plan);
    let codes = error_codes(&rep);
    assert!(codes.contains(&"LNT-S002"), "{:?}", rep.diagnostics);
    assert!(!codes.contains(&"LNT-D001"), "{:?}", rep.diagnostics);
    assert_eq!(rep.uninit_tile_cells, 0);

    let errors = replay(&plan);
    assert!(
        errors.is_empty(),
        "a barrier race cannot fail the sequential replay: {:?}",
        errors.first()
    );
}
