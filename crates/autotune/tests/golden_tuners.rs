//! Golden pins for the four tuners on one fixed (device, kernel) case.
//!
//! Every tuner routes its measurements through the shared `EvalContext`
//! pipeline (plan → cached clean price → seeded noise). These tests pin
//! the exact winner and its throughput for GTX580 / order-4 full-slice /
//! the paper grid / seed 42, so any accidental change to the evaluation
//! pipeline — the lowering, the pricing engine, the noise stream or the
//! cache routing — shows up as a golden diff rather than a silent drift.

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use stencil_autotune::{
    exhaustive_tune_with, model_based_tune_with, performance_surface_with, stochastic_tune_with,
    AnnealOptions, ParameterSpace,
};
use stencil_grid::Precision;

const SEED: u64 = 42;
const TOL: f64 = 1e-3; // MPoint/s; the pipeline is deterministic, this absorbs printing truncation only

fn setup() -> (DeviceSpec, KernelSpec, GridDims, ParameterSpace) {
    let dev = DeviceSpec::gtx580();
    let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
    let dims = GridDims::paper();
    let space = ParameterSpace::quick_space(&dev, &k, &dims);
    (dev, k, dims, space)
}

#[test]
fn golden_exhaustive() {
    let (dev, k, dims, space) = setup();
    let out = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, SEED);
    assert_eq!(out.best.config, LaunchConfig::new(128, 4, 2, 4));
    assert!(
        (out.best.mpoints - 14947.005681).abs() < TOL,
        "got {:.6}",
        out.best.mpoints
    );
}

#[test]
fn golden_model_based() {
    let (dev, k, dims, space) = setup();
    let out = model_based_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 5.0, SEED);
    assert_eq!(out.best.config, LaunchConfig::new(128, 4, 2, 4));
    assert!(
        (out.best.mpoints - 14947.005681).abs() < TOL,
        "got {:.6}",
        out.best.mpoints
    );
    assert_eq!(out.executed, 12);
}

#[test]
fn golden_stochastic() {
    let (dev, k, dims, space) = setup();
    let out = stochastic_tune_with(
        &EvalContext::new(),
        &dev,
        &k,
        dims,
        &space,
        &AnnealOptions::default(),
        SEED,
    );
    assert_eq!(out.best.config, LaunchConfig::new(64, 8, 4, 2));
    assert!(
        (out.best.mpoints - 14743.248264).abs() < TOL,
        "got {:.6}",
        out.best.mpoints
    );
    assert_eq!(out.executed, 41);
}

#[test]
fn golden_surface() {
    let (dev, k, dims, _) = setup();
    let surf = performance_surface_with(&EvalContext::new(), &dev, &k, dims, 256, 1, SEED);
    let best = surf
        .iter()
        .max_by(|a, b| a.mpoints.total_cmp(&b.mpoints))
        .unwrap();
    assert_eq!((best.rx, best.ry), (1, 8));
    assert!(
        (best.mpoints - 12784.842696).abs() < TOL,
        "got {:.6}",
        best.mpoints
    );
}

#[test]
fn golden_is_cache_state_independent() {
    // The same sweep against a cold context and against a context an
    // identical sweep already warmed must agree bit for bit — caching
    // can never change a result, only skip recomputation.
    let (dev, k, dims, space) = setup();
    let warm_ctx = EvalContext::new();
    exhaustive_tune_with(&warm_ctx, &dev, &k, dims, &space, SEED);
    let warm = exhaustive_tune_with(&warm_ctx, &dev, &k, dims, &space, SEED);
    let cold = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, SEED);
    assert_eq!(warm.best.config, cold.best.config);
    assert_eq!(warm.best.mpoints.to_bits(), cold.best.mpoints.to_bits());
    for (a, b) in warm.samples.iter().zip(&cold.samples) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.mpoints.to_bits(), b.mpoints.to_bits());
    }
}
