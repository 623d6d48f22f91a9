//! Reproducibility: the whole stack is a pure function of its inputs —
//! two runs of any experiment produce identical results, and different
//! seeds only perturb within the declared noise amplitude.

use inplane_isl::core::Method;
use inplane_isl::prelude::*;
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;

fn kernel() -> KernelSpec {
    KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single)
}

#[test]
fn simulation_is_deterministic() {
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    let c = LaunchConfig::new(64, 4, 1, 2);
    let a = EvalContext::new().evaluate(&dev, &kernel(), &c, dims);
    let b = EvalContext::new().evaluate(&dev, &kernel(), &c, dims);
    assert_eq!(a, b);
}

#[test]
fn measurement_noise_is_seeded_not_random() {
    let dev = DeviceSpec::gtx680();
    let dims = GridDims::paper();
    let c = LaunchConfig::new(64, 4, 1, 2);
    let t1 = EvalContext::new()
        .measure(&dev, &kernel(), &c, dims, 42)
        .time_s;
    let t2 = EvalContext::new()
        .measure(&dev, &kernel(), &c, dims, 42)
        .time_s;
    assert_eq!(t1, t2);
    let t3 = EvalContext::new()
        .measure(&dev, &kernel(), &c, dims, 43)
        .time_s;
    assert_ne!(t1, t3, "different seeds should jitter");
    assert!(
        (t3 / t1 - 1.0).abs() < 0.025,
        "jitter bounded by noise amplitude"
    );
}

#[test]
fn tuning_outcome_is_reproducible() {
    let dev = DeviceSpec::c2070();
    let dims = GridDims::new(256, 256, 32);
    let k = kernel();
    let space = ParameterSpace::quick_space(&dev, &k, &dims);
    let a = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 5);
    let b = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 5);
    assert_eq!(a.best, b.best);
    assert_eq!(a.samples, b.samples);
    let ma = model_based_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 5.0, 5);
    let mb = model_based_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 5.0, 5);
    assert_eq!(ma, mb);
}

#[test]
fn functional_execution_is_deterministic() {
    use inplane_isl::core::execute_step;
    let stencil = StarStencil::<f32>::from_order(4);
    let input: Grid3<f32> = FillPattern::Random {
        lo: -1.0,
        hi: 1.0,
        seed: 9,
    }
    .build(16, 16, 16);
    let c = LaunchConfig::new(8, 4, 1, 1);
    let mut a = Grid3::new(16, 16, 16);
    let mut b = Grid3::new(16, 16, 16);
    execute_step(
        Method::InPlane(Variant::Vertical),
        &stencil,
        &c,
        &input,
        &mut a,
        Boundary::CopyInput,
    );
    execute_step(
        Method::InPlane(Variant::Vertical),
        &stencil,
        &c,
        &input,
        &mut b,
        Boundary::CopyInput,
    );
    assert_eq!(a, b);
}
