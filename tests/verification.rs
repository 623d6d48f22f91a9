//! Cross-crate functional verification: the paper's own correctness
//! protocol — "the output of each kernel is verified to be consistent
//! with the result from the CPU-computed stencil output" — run across
//! every method, loading variant, stencil order, precision and a spread
//! of launch configurations, including multi-step iterative runs.

use inplane_isl::core::{execute_step, registry};
use inplane_isl::prelude::*;
use stencil_grid::{
    apply_reference, apply_reference_inplane_order, default_tolerance, max_abs_diff, verify_close,
};

fn configs() -> Vec<LaunchConfig> {
    vec![
        LaunchConfig::new(4, 4, 1, 1),
        LaunchConfig::new(16, 2, 1, 1),
        LaunchConfig::new(8, 8, 2, 1),
        LaunchConfig::new(5, 3, 1, 2), // deliberately awkward tile
    ]
}

#[test]
fn every_method_every_order_sp() {
    for rt in registry() {
        for order in [2usize, 4, 6] {
            let stencil = StarStencil::<f32>::from_order(order);
            let n = order + 9;
            let input: Grid3<f32> = FillPattern::Random {
                lo: -1.0,
                hi: 1.0,
                seed: order as u64,
            }
            .build(n, n, n);
            for config in configs() {
                let mut got = Grid3::new(n, n, n);
                execute_step(
                    rt.method(),
                    &stencil,
                    &config,
                    &input,
                    &mut got,
                    Boundary::CopyInput,
                );
                let mut golden = Grid3::new(n, n, n);
                if rt.inplane_reference_order() {
                    apply_reference_inplane_order(
                        &stencil,
                        &input,
                        &mut golden,
                        Boundary::CopyInput,
                    )
                } else {
                    apply_reference(&stencil, &input, &mut golden, Boundary::CopyInput)
                }
                assert_eq!(
                    max_abs_diff(&got, &golden),
                    0.0,
                    "{} order {order} at {config} must be bit-exact vs its reference",
                    rt.label()
                );
            }
        }
    }
}

#[test]
fn multi_step_iteration_stays_verified_dp() {
    let stencil = StarStencil::<f64>::from_order(4);
    let n = 20;
    let steps = 8;
    let initial: Grid3<f64> = FillPattern::GaussianPulse {
        amplitude: 10.0,
        sigma: 0.15,
    }
    .build(n, n, n);

    let (cpu, _) = iterate_stencil_loop(initial.clone(), 2, steps, |inp, out| {
        apply_reference(&stencil, inp, out, Boundary::CopyInput);
    });
    let config = LaunchConfig::new(8, 4, 1, 1);
    for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
        let (gpu, stats) = iterate_stencil_loop(initial.clone(), 2, steps, |inp, out| {
            execute_step(method, &stencil, &config, inp, out, Boundary::CopyInput);
        });
        assert_eq!(stats.steps, steps);
        let rep = verify_close(&gpu, &cpu, default_tolerance(Precision::Double, steps));
        assert!(
            rep.passed(),
            "{method}: max |err| {:.2e} at {:?} after {steps} steps",
            rep.max_abs,
            rep.worst_at
        );
    }
}

#[test]
fn high_order_stencils_verify() {
    // Orders beyond the evaluation range still work (the paper mentions
    // running up to 32nd order on the C2070).
    for order in [14usize, 20] {
        let r = order / 2;
        let stencil = StarStencil::<f64>::from_order(order);
        let n = 2 * r + 5;
        let input: Grid3<f64> = FillPattern::Random {
            lo: -1.0,
            hi: 1.0,
            seed: 77,
        }
        .build(n, n, n);
        let mut got = Grid3::new(n, n, n);
        execute_step(
            Method::InPlane(Variant::FullSlice),
            &stencil,
            &LaunchConfig::new(8, 8, 1, 1),
            &input,
            &mut got,
            Boundary::CopyInput,
        );
        let mut golden = Grid3::new(n, n, n);
        apply_reference_inplane_order(&stencil, &input, &mut golden, Boundary::CopyInput);
        assert_eq!(max_abs_diff(&got, &golden), 0.0, "order {order}");
    }
}

#[test]
fn forward_and_inplane_agree_across_methods() {
    // The two method families use different summation orders; they must
    // agree to rounding, which is how a user would cross-check them.
    let stencil = StarStencil::<f64>::from_order(6);
    let n = 16;
    let input: Grid3<f64> = FillPattern::HashNoise.build(n, n, n);
    let config = LaunchConfig::new(8, 2, 1, 4);
    let mut a = Grid3::new(n, n, n);
    let mut b = Grid3::new(n, n, n);
    execute_step(
        Method::ForwardPlane,
        &stencil,
        &config,
        &input,
        &mut a,
        Boundary::CopyInput,
    );
    execute_step(
        Method::InPlane(Variant::Horizontal),
        &stencil,
        &config,
        &input,
        &mut b,
        Boundary::CopyInput,
    );
    assert!(max_abs_diff(&a, &b) < 1e-13);
}
