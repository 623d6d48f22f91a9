//! The exhaustive auto-tuning engine of §IV-C: every feasible
//! configuration is "executed" (simulated with measurement noise) and
//! the best measured configuration wins.

use crate::selector::{RoutineChoice, RoutineSelector};
use crate::space::ParameterSpace;
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, RoutineDiag};

/// One measured configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneSample {
    /// The configuration measured.
    pub config: LaunchConfig,
    /// Measured throughput, MPoint/s (0 for infeasible launches).
    pub mpoints: f64,
}

/// How a tuning outcome was produced — the search itself, a persistent
/// store lookup, or a search warm-started from a stored sibling result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// The full search ran in this process.
    #[default]
    Computed,
    /// Served verbatim from a persistent tune store without searching.
    Store,
    /// The search ran, but its measured shortlist was seeded with the
    /// stored best configuration of a sibling key (same kernel,
    /// different device or grid).
    WarmStarted,
}

impl Provenance {
    /// Short human-readable label ("computed", "store", "warm-started").
    pub fn label(&self) -> &'static str {
        match self {
            Provenance::Computed => "computed",
            Provenance::Store => "store",
            Provenance::WarmStarted => "warm-started",
        }
    }
}

/// Result of a tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneOutcome {
    /// The winning configuration.
    pub best: TuneSample,
    /// Every sample, in descending measured performance.
    pub samples: Vec<TuneSample>,
    /// Where the result came from (always [`Provenance::Computed`] for
    /// an in-process search; the tune-store service overrides it when a
    /// result is served from persistence).
    pub provenance: Provenance,
}

impl TuneOutcome {
    /// Number of configurations executed.
    pub fn evaluated(&self) -> usize {
        self.samples.len()
    }

    /// The top `n` samples.
    pub fn top(&self, n: usize) -> &[TuneSample] {
        &self.samples[..n.min(self.samples.len())]
    }
}

/// Measure every configuration in `space` through `ctx` and return the
/// ranked outcome.
///
/// ```
/// use gpu_sim::{DeviceSpec, GridDims};
/// use inplane_core::{EvalContext, KernelSpec, Method, Variant};
/// use stencil_autotune::{exhaustive_tune_with, ParameterSpace};
/// use stencil_grid::Precision;
///
/// let ctx = EvalContext::new();
/// let dev = DeviceSpec::gtx580();
/// let dims = GridDims::new(256, 256, 32);
/// let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
/// let space = ParameterSpace::quick_space(&dev, &kernel, &dims);
/// let best = exhaustive_tune_with(&ctx, &dev, &kernel, dims, &space, 1).best;
/// assert!(best.mpoints > 0.0);
/// ```
///
/// # Panics
/// Panics if the space is empty (nothing to tune).
pub fn exhaustive_tune_with(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    space: &ParameterSpace,
    seed: u64,
) -> TuneOutcome {
    assert!(
        !space.is_empty(),
        "cannot tune over an empty parameter space"
    );
    let reports = ctx.measure_batch(device, kernel, space.configs(), dims, seed);
    let mut samples: Vec<TuneSample> = space
        .configs()
        .iter()
        .zip(&reports)
        .map(|(config, report)| TuneSample {
            config: *config,
            mpoints: report.mpoints_per_s(),
        })
        .collect();
    samples.sort_by(|a, b| b.mpoints.total_cmp(&a.mpoints));
    TuneOutcome {
        best: samples[0],
        samples,
        provenance: Provenance::Computed,
    }
}

/// Run the [`RoutineSelector`] first, then exhaustively tune the chosen
/// routine's kernel respec over `space`. Errors are the selector's
/// coded rejection — the search itself never starts on an unsupported
/// problem.
///
/// # Panics
/// Panics if the space is empty (nothing to probe or tune).
pub fn exhaustive_tune_selected(
    ctx: &EvalContext,
    selector: &RoutineSelector,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    space: &ParameterSpace,
    seed: u64,
) -> Result<(RoutineChoice, TuneOutcome), RoutineDiag> {
    assert!(
        !space.is_empty(),
        "cannot tune over an empty parameter space"
    );
    let probe = space.configs()[0];
    let (choice, kernel) = selector.select_kernel(device, kernel, &dims, &probe)?;
    let outcome = exhaustive_tune_with(ctx, device, &kernel, dims, space, seed);
    Ok((choice, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn kernel(order: usize) -> KernelSpec {
        KernelSpec::star_order(
            Method::InPlane(Variant::FullSlice),
            order,
            Precision::Single,
        )
    }

    #[test]
    fn tuning_finds_a_positive_best() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        let k = kernel(4);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let out = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 1);
        assert!(out.best.mpoints > 0.0);
        assert_eq!(out.evaluated(), space.len());
        // Ranked descending.
        for w in out.samples.windows(2) {
            assert!(w[0].mpoints >= w[1].mpoints);
        }
    }

    #[test]
    fn tuning_is_deterministic() {
        let dev = DeviceSpec::gtx680();
        let dims = GridDims::new(256, 256, 32);
        let k = kernel(2);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let a = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 9);
        let b = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 9);
        assert_eq!(a.best.config, b.best.config);
        assert_eq!(a.best.mpoints, b.best.mpoints);
    }

    #[test]
    fn best_beats_a_deliberately_poor_config() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let k = kernel(4);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let out = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 1);
        let poor = out
            .samples
            .iter()
            .find(|s| s.config == LaunchConfig::new(16, 2, 1, 1))
            .expect("16x2 should be in the space");
        assert!(out.best.mpoints > 1.2 * poor.mpoints);
    }

    #[test]
    #[should_panic]
    fn empty_space_panics() {
        let dev = DeviceSpec::gtx580();
        let k = kernel(2);
        exhaustive_tune_with(
            &EvalContext::new(),
            &dev,
            &k,
            GridDims::paper(),
            &ParameterSpace::from_configs(vec![]),
            0,
        );
    }

    #[test]
    fn top_n_clamps() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(128, 128, 32);
        let k = kernel(2);
        let space = ParameterSpace::from_configs(vec![
            LaunchConfig::new(32, 4, 1, 1),
            LaunchConfig::new(64, 2, 1, 1),
        ]);
        let out = exhaustive_tune_with(&EvalContext::new(), &dev, &k, dims, &space, 3);
        assert_eq!(out.top(10).len(), 2);
        assert_eq!(out.top(1).len(), 1);
    }
}
