//! Glue: lower a kernel + configuration to a [`gpu_sim::BlockPlan`] —
//! the pure first layer of the plan → price → noise pipeline. Pricing
//! and measurement go through a caller-owned
//! [`EvalContext`](crate::EvalContext), which memoizes this lowering.

use crate::config::LaunchConfig;
use crate::kernel::KernelSpec;
use crate::loadplan::plan_for_device_on;
use gpu_sim::plan::{BlockPlan, GridDims, LaunchGeometry};
use gpu_sim::DeviceSpec;

/// Lower `(kernel, config)` for `device` over `dims`.
pub fn build_block_plan(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    config: &LaunchConfig,
    dims: GridDims,
) -> BlockPlan {
    let (plane, resources, _geom) = plan_for_device_on(kernel, config, dims.lx, device);
    BlockPlan {
        plane,
        resources,
        geometry: LaunchGeometry {
            blocks: config.blocks_per_plane(dims.lx, dims.ly),
            threads_per_block: config.threads(),
            planes: dims.lz,
        },
        elem_bytes: kernel.elem_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalContext;
    use crate::method::{Method, Variant};
    use stencil_grid::Precision;

    fn spec(method: Method, order: usize) -> KernelSpec {
        KernelSpec::star_order(method, order, Precision::Single)
    }

    fn cfg() -> LaunchConfig {
        LaunchConfig::new(32, 8, 1, 1)
    }

    #[test]
    fn paper_grid_runs_and_is_memory_bound_at_order_2() {
        let dev = DeviceSpec::gtx580();
        let ctx = EvalContext::new();
        let rep = ctx.evaluate(
            &dev,
            &spec(Method::InPlane(Variant::FullSlice), 2),
            &cfg(),
            GridDims::paper(),
        );
        assert!(rep.feasible());
        assert!(rep.mpoints_per_s() > 5000.0, "got {}", rep.mpoints_per_s());
        assert_eq!(rep.limiting, gpu_sim::LimitingFactor::MemoryBandwidth);
    }

    #[test]
    fn full_slice_beats_nvstencil_when_both_are_tuned() {
        // The core claim of Fig 7: with each method at its best thread
        // block, full-slice wins at every order.
        let dev = DeviceSpec::gtx580();
        let ctx = EvalContext::new();
        let candidates = [
            LaunchConfig::new(32, 8, 1, 1),
            LaunchConfig::new(64, 8, 1, 1),
            LaunchConfig::new(64, 16, 1, 1),
            LaunchConfig::new(128, 4, 1, 1),
            LaunchConfig::new(128, 8, 1, 1),
        ];
        let best = |k: &KernelSpec| {
            candidates
                .iter()
                .map(|c| ctx.evaluate(&dev, k, c, GridDims::paper()).mpoints_per_s())
                .fold(0.0f64, f64::max)
        };
        for order in [2usize, 4, 6, 8, 12] {
            let nv = best(&spec(Method::ForwardPlane, order));
            let fs = best(&spec(Method::InPlane(Variant::FullSlice), order));
            assert!(
                fs > nv,
                "order {order}: tuned full-slice {fs:.0} must beat tuned nvstencil {nv:.0}"
            );
        }
    }

    #[test]
    fn speedup_decreases_with_order() {
        // §IV-C: the 4r² corner overhead erodes the gain as r grows.
        let dev = DeviceSpec::gtx580();
        let ctx = EvalContext::new();
        let speedup = |order: usize| {
            let nv = ctx.evaluate(
                &dev,
                &spec(Method::ForwardPlane, order),
                &cfg(),
                GridDims::paper(),
            );
            let fs = ctx.evaluate(
                &dev,
                &spec(Method::InPlane(Variant::FullSlice), order),
                &cfg(),
                GridDims::paper(),
            );
            nv.time_s / fs.time_s
        };
        assert!(speedup(2) > speedup(12));
    }

    #[test]
    fn measured_time_is_deterministic() {
        let dev = DeviceSpec::gtx680();
        let ctx = EvalContext::new();
        let k = spec(Method::InPlane(Variant::FullSlice), 4);
        let a = ctx.measure(&dev, &k, &cfg(), GridDims::paper(), 7);
        let b = ctx.measure(&dev, &k, &cfg(), GridDims::paper(), 7);
        assert_eq!(a.time_s, b.time_s);
        let clean = ctx.evaluate(&dev, &k, &cfg(), GridDims::paper());
        assert!((a.time_s / clean.time_s - 1.0).abs() <= 0.0201);
    }

    #[test]
    fn infeasible_config_reported() {
        // 1024 threads × big register block blows the register budget.
        let dev = DeviceSpec::gtx580();
        let ctx = EvalContext::new();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 12, Precision::Double);
        let rep = ctx.evaluate(
            &dev,
            &k,
            &LaunchConfig::new(32, 32, 2, 2),
            GridDims::paper(),
        );
        assert!(!rep.feasible());
    }

    #[test]
    fn dp_is_slower_than_sp() {
        let dev = DeviceSpec::gtx580();
        let ctx = EvalContext::new();
        let sp = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dp = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Double);
        let t_sp = ctx.evaluate(&dev, &sp, &cfg(), GridDims::paper()).time_s;
        let t_dp = ctx.evaluate(&dev, &dp, &cfg(), GridDims::paper()).time_s;
        assert!(t_dp > 1.25 * t_sp, "DP/SP time ratio {}", t_dp / t_sp);
    }

    #[test]
    fn order2_sp_absolute_rate_matches_paper_ballpark() {
        // Table IV: tuned order-2 SP on GTX580 reaches 17294 MPoint/s.
        // The paper's own optimal config should land in that ballpark
        // (±35%) in our simulator.
        let dev = DeviceSpec::gtx580();
        let ctx = EvalContext::new();
        let rep = ctx.evaluate(
            &dev,
            &spec(Method::InPlane(Variant::FullSlice), 2),
            &LaunchConfig::new(256, 1, 1, 8),
            GridDims::paper(),
        );
        let mp = rep.mpoints_per_s();
        assert!(
            (11000.0..24000.0).contains(&mp),
            "order-2 SP at (256,1,1,8): {mp:.0} MPoint/s"
        );
    }
}
