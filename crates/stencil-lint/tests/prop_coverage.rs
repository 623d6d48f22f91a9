//! Property-based exact-cover proof: for random `(radius, TX, TY, RX,
//! RY, variant)` the variant's load regions partition its staging domain
//! exactly — every cell of the halo-framed slab is covered once, except
//! the four `r × r` corners, which are covered zero times by the
//! corner-free variants and exactly once by full-slice.
//!
//! This is the per-cell counting cross-check of the rect-algebra proof
//! in `stencil_lint::coverage` — deliberately the dumbest possible
//! implementation, so the two can only agree if both are right.

use proptest::prelude::*;
use stencil_lint::{check_coverage, has_errors};

use inplane_core::layout::TileGeometry;
use inplane_core::loadplan::load_regions;
use inplane_core::{registry, KernelSpec, LaunchConfig};
use stencil_grid::Precision;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No cell covered zero times, no cell covered twice.
    #[test]
    fn load_regions_partition_the_slab_exactly(
        radius in 1usize..7,
        tx_halfwarps in 1usize..5,
        ty in 1usize..7,
        rx in 1usize..5,
        ry in 1usize..5,
        method_idx in 0..registry().len(),
        vw in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let method = registry()[method_idx].method();
        let c = LaunchConfig::new(16 * tx_halfwarps, ty, rx, ry);
        let geom = TileGeometry::interior(&c, radius, 4, 512, 128);
        let regions = load_regions(method, &geom, vw);

        let (sx_s, sx_e) = geom.slab_x();
        let (sy_s, sy_e) = geom.slab_y();
        let (ix_s, ix_e) = geom.interior_x();
        let (iy_s, iy_e) = geom.interior_y();
        let stages_corners = method.routine().skeleton(radius).stages_corners;

        for y in sy_s..sy_e {
            for x in sx_s..sx_e {
                let count = regions
                    .iter()
                    .filter(|r| {
                        x >= r.x.0 && x < r.x.1 && y >= r.y.0 && y < r.y.1
                    })
                    .count();
                let in_corner = (x < ix_s || x >= ix_e) && (y < iy_s || y >= iy_e);
                let expected = if in_corner && !stages_corners { 0 } else { 1 };
                prop_assert_eq!(
                    count, expected,
                    "{:?} r={} {}: cell ({},{}) covered {} times, expected {}",
                    method, radius, c, x, y, count, expected
                );
            }
        }
    }

    /// The rect-algebra checker agrees: no error diagnostics on any
    /// planner-produced region set.
    #[test]
    fn coverage_checker_is_clean_on_planned_regions(
        radius in 1usize..7,
        tx_halfwarps in 1usize..5,
        ty in 1usize..7,
        rx in 1usize..5,
        ry in 1usize..5,
        method_idx in 0..registry().len(),
    ) {
        let method = registry()[method_idx].method();
        let order = 2 * radius;
        let kernel = KernelSpec::star_order(method, order, Precision::Single);
        let c = LaunchConfig::new(16 * tx_halfwarps, ty, rx, ry);
        let geom = TileGeometry::interior(&c, radius, 4, 512, 128);
        let diags = check_coverage(&kernel, &geom);
        prop_assert!(
            !has_errors(&diags),
            "{:?} r={} {}: {:?}",
            method, radius, c, diags
        );
    }
}
