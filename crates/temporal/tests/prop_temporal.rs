//! Property-based tests for temporal blocking: for arbitrary tile
//! shapes and temporal depths, overlapped tiling equals the global
//! iteration, and the performance plan respects its scaling laws.

use gpu_sim::{DeviceSpec, GridDims, SimOptions};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use proptest::prelude::*;
use stencil_grid::{
    apply_reference, iterate_stencil_loop, max_abs_diff, Boundary, FillPattern, Grid3, StarStencil,
};
use stencil_temporal::{execute_temporal, simulate_temporal, temporal_plan, TemporalConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlapped temporal tiling equals T global Jacobi steps for any
    /// tile shape and depth.
    #[test]
    fn temporal_equals_global(
        tile_x in 2usize..9,
        tile_y in 2usize..9,
        t_steps in 1usize..4,
        seed in 0u64..200,
    ) {
        let s: StarStencil<f64> = StarStencil::diffusion(1);
        let n = 13;
        let input: Grid3<f64> =
            FillPattern::Random { lo: -1.0, hi: 1.0, seed }.build(n, n, 7);
        let mut out = Grid3::new(n, n, 7);
        execute_temporal(&s, &input, &mut out, tile_x, tile_y, t_steps);
        let (golden, _) = iterate_stencil_loop(input, 1, t_steps, |i, o| {
            apply_reference(&s, i, o, Boundary::CopyInput)
        });
        prop_assert!(max_abs_diff(&out, &golden) < 1e-12);
    }

    /// Per-step DRAM traffic never increases with temporal depth (while
    /// the configuration stays feasible).
    #[test]
    fn per_step_traffic_is_monotone_in_t(
        tx in prop::sample::select(vec![32usize, 64, 128]),
        ty in prop::sample::select(vec![4usize, 8]),
    ) {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
        use stencil_grid::Precision;
        let mut prev = f64::INFINITY;
        for t in 1..=4 {
            let cfg = TemporalConfig::new(LaunchConfig::new(tx, ty, 1, 1), t);
            let (rep, _) = simulate_temporal(&EvalContext::new(), &dev, &kernel, &cfg, dims, &SimOptions::default());
            if !rep.feasible() {
                break;
            }
            let per_step = rep.mem.transferred_bytes as f64 / t as f64;
            prop_assert!(per_step <= prev * 1.001, "T = {t}: {per_step} vs {prev}");
            prev = per_step;
        }
    }

    /// Redundant flops grow with T exactly as the shrinking-shell sum.
    #[test]
    fn plan_flops_follow_the_shell_sum(
        t in 1usize..6,
        order in prop::sample::select(vec![2usize, 4]),
    ) {
        use stencil_grid::Precision;
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), order, Precision::Single);
        let launch = LaunchConfig::new(64, 8, 1, 1);
        let plan = temporal_plan(&dev, &kernel, &TemporalConfig::new(launch, t), dims);
        let r = order / 2;
        let expect: u64 = (1..=t)
            .map(|s| {
                let shrink = 2 * r * (t - s);
                ((64 + shrink) * (8 + shrink)) as u64 * kernel.flops_per_point as u64
            })
            .sum();
        prop_assert_eq!(plan.plane.flops, expect);
    }
}
