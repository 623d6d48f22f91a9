//! Property-based tests for the memoizing evaluation pipeline: for
//! arbitrary kernels, launch configurations and grid sizes, routing a
//! query through an [`EvalContext`] — cold, warm, batched or shuffled —
//! must be bit-identical to lowering and pricing by hand.

use gpu_sim::{simulate_clean, DeviceSpec, GridDims, SimOptions};
use inplane_core::{
    build_block_plan, registry, EvalContext, KernelSpec, LaunchConfig, Method,
    MEASUREMENT_NOISE_AMPLITUDE,
};
use proptest::prelude::*;
use stencil_grid::Precision;

fn arb_method() -> impl Strategy<Value = Method> {
    // Every registered routine.
    prop::sample::select(registry().iter().map(|rt| rt.method()).collect::<Vec<_>>())
}

fn arb_kernel() -> impl Strategy<Value = KernelSpec> {
    (
        arb_method(),
        1usize..5,
        prop::sample::select(vec![Precision::Single, Precision::Double]),
    )
        .prop_map(|(m, r, p)| KernelSpec::star_order(m, 2 * r, p))
}

fn arb_config() -> impl Strategy<Value = LaunchConfig> {
    (
        prop::sample::select(vec![16usize, 32, 64, 128, 256]),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        1usize..5,
        1usize..5,
    )
        .prop_map(|(tx, ty, rx, ry)| LaunchConfig::new(tx, ty, rx, ry))
}

fn arb_dims() -> impl Strategy<Value = GridDims> {
    (
        prop::sample::select(vec![64usize, 128, 256, 512]),
        prop::sample::select(vec![64usize, 128, 256]),
        prop::sample::select(vec![32usize, 64, 100]),
    )
        .prop_map(|(x, y, z)| GridDims::new(x, y, z))
}

fn arb_device() -> impl Strategy<Value = DeviceSpec> {
    prop::sample::select(DeviceSpec::all_devices())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pricing through the cache equals pricing by hand, bit for bit,
    /// whether the entry is cold or warm.
    #[test]
    fn cached_price_matches_direct_lowering(
        dev in arb_device(),
        kernel in arb_kernel(),
        config in arb_config(),
        dims in arb_dims(),
    ) {
        let plan = build_block_plan(&dev, &kernel, &config, dims);
        let direct = simulate_clean(&dev, &plan, &dims, &SimOptions::default());

        let ctx = EvalContext::new();
        let cold = ctx.evaluate(&dev, &kernel, &config, dims);
        let warm = ctx.evaluate(&dev, &kernel, &config, dims);
        prop_assert_eq!(&cold, &direct);
        prop_assert_eq!(&warm, &direct);

        let stats = ctx.stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(stats.inserts, 1);
    }

    /// Noisy measurements are the clean price scaled by a bounded,
    /// seed-deterministic factor — and the cache underneath stays clean
    /// (two seeds share one priced entry).
    #[test]
    fn measurement_is_clean_price_times_bounded_noise(
        dev in arb_device(),
        kernel in arb_kernel(),
        config in arb_config(),
        dims in arb_dims(),
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        let ctx = EvalContext::new();
        let clean = ctx.evaluate(&dev, &kernel, &config, dims);
        let a = ctx.measure(&dev, &kernel, &config, dims, seed_a);
        let a2 = ctx.measure(&dev, &kernel, &config, dims, seed_a);
        let b = ctx.measure(&dev, &kernel, &config, dims, seed_b);
        prop_assert_eq!(a.time_s.to_bits(), a2.time_s.to_bits(), "same seed, same bits");
        if clean.feasible() {
            let ratio = a.time_s / clean.time_s;
            prop_assert!(
                (1.0 - MEASUREMENT_NOISE_AMPLITUDE..=1.0 + MEASUREMENT_NOISE_AMPLITUDE)
                    .contains(&ratio),
                "noise ratio {ratio} out of band"
            );
            if seed_a != seed_b {
                prop_assert_ne!(a.time_s.to_bits(), b.time_s.to_bits());
            }
        } else {
            prop_assert!(!a.feasible());
        }
        // One priced entry serves the clean query and every seed.
        prop_assert_eq!(ctx.stats().inserts, 1);
        prop_assert_eq!(ctx.stats().misses, 1);
    }

    /// `evaluate_batch` equals the sequential loop, in order, and is
    /// invariant under shuffling the input configurations.
    #[test]
    fn batch_is_order_invariant(
        dev in arb_device(),
        kernel in arb_kernel(),
        configs in prop::collection::vec(arb_config(), 2..12),
        dims in arb_dims(),
        rot in 0usize..11,
    ) {
        let ctx = EvalContext::new();
        let batch = ctx.evaluate_batch(&dev, &kernel, &configs, dims);
        let sequential: Vec<_> = configs
            .iter()
            .map(|c| EvalContext::new().evaluate(&dev, &kernel, c, dims))
            .collect();
        prop_assert_eq!(&batch, &sequential);

        let mut shuffled = configs.clone();
        shuffled.rotate_left(rot % configs.len());
        let batch2 = ctx.evaluate_batch(&dev, &kernel, &shuffled, dims);
        for (c, r) in shuffled.iter().zip(&batch2) {
            let i = configs.iter().position(|x| x == c).unwrap();
            prop_assert_eq!(r, &batch[i]);
        }
    }
}
