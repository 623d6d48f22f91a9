//! Differential suite: the plan interpreter is *bit-exact* against the
//! CPU golden models for every registered routine, precision, launch
//! config and grid shape. This is the contract that let the pre-IR
//! executors be replaced by `lower → interpret`: the lowered
//! [`StagePlan`] reproduces the §III-B / §III-C floating-point summation
//! orders term for term, so `max_abs_diff` is exactly `0.0` — not
//! merely small.
//!
//! Sweep: every registered routine × {f32, f64} × 3 launch configs ×
//! 2 grid shapes (one cubic, one with awkward prime-ish extents that
//! force clipped edge tiles), plus edge cases run for every routine:
//! radius 5 on a 2×2 tile, radius 4 on a 2×2 tile (a corner-free
//! routine reading a corner would hit an un-staged cell), the minimal
//! `nz = 2r + 1` grid (one output plane: the pipeline fills and drains
//! in the same sweep), a one-block grid and a wide 12×12 tile.

use inplane_core::plan::Zone;
use inplane_core::{interpret_plan, lower_step, registry, ExecStats, LaunchConfig, Routine, ZFeed};
use stencil_grid::{
    apply_reference, apply_reference_inplane_order, max_abs_diff, Boundary, FillPattern, Grid3,
    Real, StarStencil,
};

/// A launch configuration `(TX, TY, RX, RY)`.
type Config = (usize, usize, usize, usize);
/// Grid dimensions `(nx, ny, nz)`.
type Dims = (usize, usize, usize);

const CONFIGS: [Config; 3] = [(4, 4, 1, 1), (8, 2, 1, 3), (16, 2, 2, 1)];

const GRIDS: [Dims; 2] = [(12, 12, 12), (17, 13, 11)];

const ORDER: usize = 4; // radius 2

/// `(order, config, dims)` edge cases outside the main sweep.
const EDGE_CASES: [(usize, Config, Dims); 5] = [
    // Radius 5 on a 2×2 tile: halo arms far wider than the tile.
    (10, (2, 2, 1, 1), (15, 15, 15)),
    // Radius 4 on a 2×2 tile: every corner cell lies outside the arms.
    (8, (2, 2, 1, 1), (14, 14, 12)),
    // nz = 2r + 1: exactly one output plane.
    (4, (8, 8, 1, 1), (7, 7, 5)),
    // One block, four output planes.
    (2, (4, 4, 1, 1), (6, 6, 6)),
    // A 12×12 tile clipped to the 12×12 interior.
    (4, (12, 12, 1, 1), (16, 16, 8)),
];

/// The golden model with the routine's own summation order.
fn golden<T: Real>(rt: &dyn Routine, s: &StarStencil<T>, input: &Grid3<T>) -> Grid3<T> {
    let (nx, ny, nz) = input.dims();
    let mut g = Grid3::new(nx, ny, nz);
    if rt.inplane_reference_order() {
        apply_reference_inplane_order(s, input, &mut g, Boundary::LeaveOutput)
    } else {
        apply_reference(s, input, &mut g, Boundary::LeaveOutput)
    }
    g
}

fn check_one<T: Real>(rt: &dyn Routine, order: usize, cfg: Config, dims: Dims) -> ExecStats {
    let label = rt.label();
    let s: StarStencil<T> = StarStencil::from_order(order);
    let input: Grid3<T> = FillPattern::Random {
        lo: -2.0,
        hi: 2.0,
        seed: 1234,
    }
    .build(dims.0, dims.1, dims.2);
    let config = LaunchConfig::new(cfg.0, cfg.1, cfg.2, cfg.3);

    let plan = lower_step(rt.method(), &config, s.radius(), dims);
    let mut got = Grid3::new(dims.0, dims.1, dims.2);
    // An un-staged shared-buffer read panics, so a clean run also
    // proves every read was staged.
    let stats = interpret_plan(&plan, &s, &input, &mut got);

    let want = golden(rt, &s, &input);
    assert_eq!(
        max_abs_diff(&got, &want),
        0.0,
        "{label} {cfg:?} {dims:?}: interpreter is not bit-exact"
    );

    // Structural invariants tying the run to its plan: the census and
    // the instrumented counters agree on the schedule shape.
    let census = plan.census();
    assert_eq!(stats.barriers, census.barriers, "{label} {cfg:?}");
    assert_eq!(stats.blocks as u64, census.blocks, "{label} {cfg:?}");
    assert_eq!(
        stats.pipeline_rotations, census.rotations,
        "{label} {cfg:?}"
    );
    assert_eq!(
        stats.cells_staged,
        stats.staged_cells_by_zone.iter().sum::<u64>(),
        "zone counters must partition the staged cells"
    );
    let r = s.radius() as u64;
    let (nx, ny, nz) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
    let interior = (nx - 2 * r) * (ny - 2 * r) * (nz - 2 * r);
    assert_eq!(
        stats.global_writes, interior,
        "every interior point is written exactly once"
    );
    assert_eq!(
        stats.points_computed, interior,
        "{label}: one evaluation per point"
    );
    assert_eq!(stats.redundancy(), 1.0, "{label}");
    // Barrier and rotation accounting straight off the routine's
    // skeleton: blocks × staged planes × barriers-per-plane (2 stage +
    // reuse, 1 for the double-buffered routine); out-queue rotations
    // every plane, and the z-pipeline shifting every plane (in-plane)
    // or every plane but the last (forward-plane prefetch).
    let sk = rt.skeleton(s.radius());
    let planes_staged = nz - r - sk.sweep_tail as u64;
    assert_eq!(
        census.barriers,
        census.blocks * planes_staged * sk.barriers_per_plane as u64,
        "{label}: skeleton barrier count per staged plane"
    );
    let z_rotations = match sk.z_feed {
        ZFeed::PrefetchLead { .. } => planes_staged - 1,
        ZFeed::StagedCentre => planes_staged,
    };
    assert_eq!(
        stats.pipeline_rotations,
        census.blocks * (planes_staged * sk.q_rotations as u64 + z_rotations),
        "{label}: skeleton rotation count"
    );
    assert_eq!(
        stats.staged_cells_by_zone[Zone::Corner.index()] > 0,
        sk.stages_corners,
        "{label}: corner traffic must follow the skeleton's corner policy"
    );
    stats
}

/// Routines that share a sweep differ only in the corner zone: the
/// corner-staging routines (full-slice, double-buffered) move exactly
/// their corner-zone traffic more than the corner-free ones.
fn check_corner_traffic(runs: &[(&dyn Routine, ExecStats)], r: usize) {
    for (a, sa) in runs {
        for (b, sb) in runs {
            if a.skeleton(r).sweep_tail != b.skeleton(r).sweep_tail {
                continue;
            }
            let corner = Zone::Corner.index();
            assert_eq!(
                sa.cells_staged - sa.staged_cells_by_zone[corner],
                sb.cells_staged - sb.staged_cells_by_zone[corner],
                "{} vs {}: staging differs outside the corner zone",
                a.label(),
                b.label()
            );
        }
    }
}

/// Run one case for every registered routine, then compare their
/// staging outside the corner zone.
fn check_case<T: Real>(order: usize, cfg: Config, dims: Dims) {
    let runs: Vec<_> = registry()
        .iter()
        .map(|&rt| (rt, check_one::<T>(rt, order, cfg, dims)))
        .collect();
    check_corner_traffic(&runs, order / 2);
}

fn sweep<T: Real>() {
    for cfg in CONFIGS {
        for dims in GRIDS {
            check_case::<T>(ORDER, cfg, dims);
        }
    }
}

#[test]
fn interpreter_is_bit_exact_for_every_routine_config_and_grid_f32() {
    sweep::<f32>();
}

#[test]
fn interpreter_is_bit_exact_for_every_routine_config_and_grid_f64() {
    sweep::<f64>();
}

#[test]
fn edge_cases_are_bit_exact_for_every_routine() {
    for (order, cfg, dims) in EDGE_CASES {
        check_case::<f32>(order, cfg, dims);
        check_case::<f64>(order, cfg, dims);
    }
}
