//! The application-stencil benchmark suite (Fig 11): tune both the
//! forward-plane baseline and the in-plane full-slice method for each
//! application kernel and report the speedup.

use crate::{Divergence, Gradient, Hyperthermia, Laplacian3d, Poisson, Upstream};
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use stencil_autotune::{exhaustive_tune_with, ParameterSpace};
use stencil_grid::{MultiGridKernel, Real};

/// All six Table V application kernels, in table order.
pub fn all_apps<T: Real>() -> Vec<Box<dyn MultiGridKernel<T>>> {
    vec![
        Box::new(Divergence::default()),
        Box::new(Gradient::default()),
        Box::new(Hyperthermia),
        Box::new(Upstream::default()),
        Box::new(Laplacian3d::default()),
        Box::new(Poisson::default()),
    ]
}

/// Result of benchmarking one application stencil on one device.
#[derive(Clone, Debug, PartialEq)]
pub struct AppBenchResult {
    /// Application name (Table V column).
    pub name: String,
    /// Input grids (Table V "In").
    pub inputs: usize,
    /// Output grids (Table V "Out").
    pub outputs: usize,
    /// Tuned forward-plane (nvstencil) throughput, MPoint/s.
    pub forward_mpoints: f64,
    /// Its best configuration.
    pub forward_config: LaunchConfig,
    /// Tuned in-plane full-slice throughput, MPoint/s.
    pub inplane_mpoints: f64,
    /// Its best configuration.
    pub inplane_config: LaunchConfig,
}

impl AppBenchResult {
    /// In-plane speedup over the forward baseline (Fig 11's bars).
    pub fn speedup(&self) -> f64 {
        self.inplane_mpoints / self.forward_mpoints
    }
}

/// Tune and compare both methods for `app` on `device` (Fig 11's
/// measurement for one bar group). Both methods' tuning sweeps share
/// (and warm) `ctx`'s cache; `quick` restricts the search space to
/// power-of-two blocks.
pub fn benchmark_app_with<T: Real>(
    ctx: &EvalContext,
    device: &DeviceSpec,
    app: &dyn MultiGridKernel<T>,
    dims: GridDims,
    quick: bool,
    seed: u64,
) -> AppBenchResult {
    let tune = |method: Method| {
        let spec = KernelSpec::from_app(method, app);
        let space = if quick {
            ParameterSpace::quick_space(device, &spec, &dims)
        } else {
            ParameterSpace::paper_space(device, &spec, &dims)
        };
        exhaustive_tune_with(ctx, device, &spec, dims, &space, seed).best
    };
    let fwd = tune(Method::ForwardPlane);
    let inp = tune(Method::InPlane(Variant::FullSlice));
    AppBenchResult {
        name: app.name().to_string(),
        inputs: app.num_inputs(),
        outputs: app.num_outputs(),
        forward_mpoints: fwd.mpoints,
        forward_config: fwd.config,
        inplane_mpoints: inp.mpoints,
        inplane_config: inp.config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_grid_counts_in_order() {
        // Paper Table V: In = 3,1,10,1,1,2 and Out = 1,3,1,1,1,1.
        let apps = all_apps::<f32>();
        let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            [
                "Div",
                "Grad",
                "Hyperthermia",
                "Upstream",
                "Laplacian",
                "Poisson"
            ]
        );
        let ins: Vec<usize> = apps.iter().map(|a| a.num_inputs()).collect();
        let outs: Vec<usize> = apps.iter().map(|a| a.num_outputs()).collect();
        assert_eq!(ins, [3, 1, 10, 1, 1, 2]);
        assert_eq!(outs, [1, 3, 1, 1, 1, 1]);
    }

    #[test]
    fn laplacian_speedup_exceeds_hyperthermia() {
        // §V-A: Laplacian gains the most, Hyperthermia the least.
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        let ctx = EvalContext::new();
        let lap = benchmark_app_with::<f32>(&ctx, &dev, &Laplacian3d::default(), dims, true, 1);
        let hyp = benchmark_app_with::<f32>(&ctx, &dev, &Hyperthermia, dims, true, 1);
        assert!(
            lap.speedup() > hyp.speedup(),
            "Laplacian {:.2}x must beat Hyperthermia {:.2}x",
            lap.speedup(),
            hyp.speedup()
        );
        assert!(
            lap.speedup() > 1.2,
            "Laplacian speedup {:.2}",
            lap.speedup()
        );
    }

    #[test]
    fn all_apps_show_sane_results() {
        let dev = DeviceSpec::c2070();
        let dims = GridDims::new(256, 256, 32);
        let ctx = EvalContext::new();
        for app in all_apps::<f32>() {
            let r = benchmark_app_with::<f32>(&ctx, &dev, app.as_ref(), dims, true, 2);
            assert!(r.forward_mpoints > 0.0, "{}: forward must run", r.name);
            assert!(r.inplane_mpoints > 0.0, "{}: in-plane must run", r.name);
            assert!(
                (0.5..3.0).contains(&r.speedup()),
                "{}: speedup {:.2} out of plausible range",
                r.name,
                r.speedup()
            );
        }
    }
}
