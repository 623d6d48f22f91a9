//! Dynamic cross-check of the static schedule proof on the *shared* IR:
//! the analyzer and the runtime now both consume the same lowered
//! [`StagePlan`], so a tampered plan can be judged twice — statically by
//! `verify_ops` over the extracted per-plane schedule, and dynamically
//! by replaying the very same plan through the instrumented interpreter
//! (`interpret_plan_checked`). A clean plan must be clean both ways; a
//! plan missing one staged region must fail `try_read` on *exactly* the
//! cells the `LNT-S001` diagnostic counts, cell for cell; a plan missing
//! a barrier is a cross-warp race (`LNT-S002`) the single-threaded
//! interpreter cannot observe — static-only, zero runtime errors.

use inplane_core::layout::TileGeometry;
use inplane_core::plan::{PlanOp, Zone};
use inplane_core::{
    interpret_plan_checked, lower_step, registry, KernelSpec, LaunchConfig, Method, StagePlan,
    Variant,
};
use stencil_grid::{FillPattern, Grid3, Precision, StarStencil};
use stencil_lint::rect::Rect;
use stencil_lint::schedule::{plan_plane_ops, read_footprint, verify_ops};
use stencil_lint::Severity;

/// A single-block lowered plan on a 12³ grid: radius 2, one 8×8 tile
/// covering the whole interior, so the block origin is `(r, r)`.
fn single_block_plan(method: Method) -> StagePlan {
    lower_step(method, &LaunchConfig::new(8, 8, 1, 1), 2, (12, 12, 12))
}

/// Replay `plan` through the checked interpreter and return the
/// deduplicated staging failures.
fn replay(plan: &StagePlan) -> Vec<inplane_core::StageError> {
    let s: StarStencil<f32> = StarStencil::from_order(4);
    let input: Grid3<f32> = FillPattern::HashNoise.build(12, 12, 12);
    let mut out = Grid3::new(12, 12, 12);
    let (_stats, errors) = interpret_plan_checked(plan, &s, &input, &mut out);
    errors
}

/// Sum the cell counts of every `LNT-S001` diagnostic over `ops`.
fn s001_cells(ops: &[stencil_lint::schedule::Op]) -> u64 {
    verify_ops(ops)
        .iter()
        .filter(|d| d.code == "LNT-S001")
        .map(|d| {
            d.context
                .iter()
                .find(|(key, _)| *key == "cells")
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .expect("S001 carries a cell count")
        })
        .sum()
}

#[test]
fn clean_plans_are_clean_both_statically_and_dynamically() {
    for method in registry().iter().map(|rt| rt.method()) {
        let plan = single_block_plan(method);
        // Static: every staged plane of the block proves clean.
        for plane in 2..12 {
            let ops = plan_plane_ops(&plan, (2, 2), plane);
            if ops.is_empty() {
                continue; // forward-plane stops staging at nz - r
            }
            assert!(
                verify_ops(&ops).is_empty(),
                "{method:?} plane {plane}: static proof not clean"
            );
        }
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
    // plan: the static gap count and the interpreter's try_read
    // failures must name the same cells.
    let mut plan = single_block_plan(Method::InPlane(Variant::Horizontal));
    let victim = plan
        .ops
        .iter()
        .position(|op| {
            matches!(
                op,
                PlanOp::StageRegion {
                    zone: Zone::Top,
                    plane: 5,
                    ..
                }
            )
        })
        .expect("plane 5 stages a top-halo arm");
    plan.ops.remove(victim);

    let ops = plan_plane_ops(&plan, (2, 2), 5);
    let diags = verify_ops(&ops);
    let static_cells = s001_cells(&ops);
    // The whole 8×2 top arm is un-staged: 16 cells.
    assert_eq!(static_cells, 8 * 2, "tampered plan must be flagged");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));

    let errors = replay(&plan);
    assert_eq!(
        errors.len() as u64,
        static_cells,
        "static proof and interpreter disagree on the unstaged cell count"
    );
    // The StageError carries the context the lint proves things about:
    // the plane and the very zone whose stage was dropped.
    for e in &errors {
        assert_eq!(e.plane, Some(5));
        assert_eq!(e.zone, Zone::Top.label());
        assert!(
            e.to_string()
                .starts_with("read of un-staged shared-buffer cell"),
            "{e}"
        );
    }
}

#[test]
fn tampered_barrier_is_a_race_only_the_static_proof_sees() {
    // Drop the stage barrier of plane 5: statically a cross-warp race
    // (LNT-S002, not S001 — everything is staged); dynamically
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

    let ops = plan_plane_ops(&plan, (2, 2), 5);
    let diags = verify_ops(&ops);
    assert!(diags.iter().any(|d| d.code == "LNT-S002"), "{diags:?}");
    assert!(!diags.iter().any(|d| d.code == "LNT-S001"), "{diags:?}");

    let errors = replay(&plan);
    assert!(
        errors.is_empty(),
        "a barrier race cannot fail the sequential replay: {:?}",
        errors.first()
    );
}

#[test]
fn read_footprint_cells_are_exactly_the_staged_reads() {
    // The read footprint never touches the corners, so a full-slice
    // stage of the whole slab over-stages exactly the 4r^2 corner cells.
    let c = LaunchConfig::new(32, 4, 1, 2);
    let g = TileGeometry::interior(&c, 3, 4, 512, 128);
    let (sx_s, sx_e) = g.slab_x();
    let (sy_s, sy_e) = g.slab_y();
    let slab_cells = ((sx_e - sx_s) * (sy_e - sy_s)) as u64;
    let fp = read_footprint(&g);
    let read_cells: u64 = fp.iter().map(Rect::area).sum();
    assert_eq!(slab_cells - read_cells, 4 * 9, "4r^2 corners for r = 3");
}

#[test]
fn extracted_schedule_stages_exactly_the_lowered_regions() {
    // The extraction is a projection of the lowered IR, not a
    // re-derivation: the staged rect areas at one plane must equal the
    // full slab the full-slice variant stages.
    let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
    let plan = single_block_plan(k.method);
    let ops = plan_plane_ops(&plan, (2, 2), 5);
    let staged: u64 = ops
        .iter()
        .filter_map(|o| match o {
            stencil_lint::schedule::Op::Stage(r) => Some(r.area()),
            _ => None,
        })
        .sum();
    // Full slab: (8 + 2r)² with r = 2.
    assert_eq!(staged, 12 * 12);
}
