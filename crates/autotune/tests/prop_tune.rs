//! Property-based tests for the auto-tuner: constraint soundness, model
//! sanity and tuner optimality invariants.

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::resources::smem_bytes;
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use proptest::prelude::*;
use stencil_autotune::{
    exhaustive_tune_with, model_based_tune_with, predict_mpoints, ParameterSpace,
};
use stencil_grid::Precision;

fn arb_device() -> impl Strategy<Value = DeviceSpec> {
    prop::sample::select(DeviceSpec::paper_devices())
}

fn arb_kernel() -> impl Strategy<Value = KernelSpec> {
    (
        prop::sample::select(vec![2usize, 4, 8, 12]),
        prop::sample::select(vec![Precision::Single, Precision::Double]),
    )
        .prop_map(|(order, prec)| {
            KernelSpec::star_order(Method::InPlane(Variant::FullSlice), order, prec)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every configuration the space enumerates satisfies the paper's
    /// four constraints (§IV-C).
    #[test]
    fn enumerated_configs_satisfy_constraints(dev in arb_device(), k in arb_kernel()) {
        let dims = GridDims::paper();
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        for c in space.configs() {
            prop_assert_eq!(c.tx % (dev.warp_size / 2), 0);
            prop_assert!(c.threads() <= dev.max_threads_per_block);
            prop_assert!(smem_bytes(&k, c) <= dev.smem_per_sm);
            prop_assert_eq!(dims.ly % c.tile_y(), 0);
        }
    }

    /// Model predictions are finite, non-negative and deterministic.
    #[test]
    fn model_is_sane(
        dev in arb_device(),
        k in arb_kernel(),
        tx in prop::sample::select(vec![16usize, 32, 64, 128]),
        ty in 1usize..17,
        rx in prop::sample::select(vec![1usize, 2, 4]),
        ry in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let c = LaunchConfig::new(tx, ty, rx, ry);
        let dims = GridDims::paper();
        let p = predict_mpoints(&dev, &k, &c, &dims);
        prop_assert!(p.is_finite());
        prop_assert!(p >= 0.0);
        prop_assert_eq!(p, predict_mpoints(&dev, &k, &c, &dims));
        // Nothing can beat the achieved-bandwidth roofline by more than
        // rounding: points * elem_bytes * 2 (read + write) per sweep.
        let roofline = dev.achieved_bandwidth()
            / (2.0 * k.elem_bytes as f64)
            / 1e6;
        prop_assert!(p <= roofline * 1.2, "prediction {p} above roofline {roofline}");
    }

    /// The exhaustive best is at least as good as any explicitly checked
    /// configuration, and model-based never beats exhaustive.
    #[test]
    fn exhaustive_dominates(dev in arb_device(), seed in 0u64..64) {
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 32);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let ctx = EvalContext::new();
        let ex = exhaustive_tune_with(&ctx, &dev, &k, dims, &space, seed);
        for s in ex.samples.iter() {
            prop_assert!(ex.best.mpoints >= s.mpoints);
        }
        let mb = model_based_tune_with(&ctx, &dev, &k, dims, &space, 10.0, seed);
        prop_assert!(mb.best.mpoints <= ex.best.mpoints + 1e-9);
        // The model-based pick is one of the space's configurations.
        prop_assert!(space.configs().contains(&mb.best.config));
    }
}
