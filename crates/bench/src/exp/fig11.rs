//! Fig 11 / Table V: the application stencils — grids in/out, tuned
//! throughput under the forward-plane and in-plane methods, and the
//! in-plane speedup, in SP and DP on all three GPUs.

use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::DeviceSpec;
use inplane_core::EvalContext;
use stencil_apps::{all_apps, benchmark_app_with, AppBenchResult};
use stencil_grid::Precision;

/// Results for one device and precision: six application rows.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceResults {
    /// Device name.
    pub device: String,
    /// Precision.
    pub precision: Precision,
    /// One result per Table V application, in table order.
    pub apps: Vec<AppBenchResult>,
}

/// Run the suite on all devices for both precisions.
pub fn compute(ctx: &EvalContext, opts: &RunOpts) -> Vec<DeviceResults> {
    let dims = opts.dims();
    let mut out = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        for precision in [Precision::Single, Precision::Double] {
            let apps = match precision {
                Precision::Single => all_apps::<f32>()
                    .iter()
                    .map(|a| {
                        benchmark_app_with::<f32>(
                            ctx,
                            &dev,
                            a.as_ref(),
                            dims,
                            opts.quick,
                            opts.seed,
                        )
                    })
                    .collect(),
                Precision::Double => all_apps::<f64>()
                    .iter()
                    .map(|a| {
                        benchmark_app_with::<f64>(
                            ctx,
                            &dev,
                            a.as_ref(),
                            dims,
                            opts.quick,
                            opts.seed,
                        )
                    })
                    .collect(),
            };
            out.push(DeviceResults {
                device: dev.name.to_string(),
                precision,
                apps,
            });
        }
    }
    out
}

/// Render one device/precision block.
pub fn render(r: &DeviceResults) -> Table {
    let mut t = Table::new(&[
        "App",
        "In",
        "Out",
        "nvstencil MP/s",
        "in-plane MP/s",
        "Speedup",
    ]);
    for a in &r.apps {
        t.row(vec![
            a.name.clone(),
            a.inputs.to_string(),
            a.outputs.to_string(),
            f(a.forward_mpoints, 0),
            f(a.inplane_mpoints, 0),
            f(a.speedup(), 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Vec<DeviceResults> {
        let opts = RunOpts {
            quick: true,
            seed: 1,
            csv_dir: None,
            tune_store: None,
        };
        // One device is enough for the shape checks and keeps tests fast.
        let dims = opts.dims();
        let dev = DeviceSpec::gtx580();
        let ctx = EvalContext::new();
        vec![DeviceResults {
            device: dev.name.to_string(),
            precision: Precision::Single,
            apps: all_apps::<f32>()
                .iter()
                .map(|a| benchmark_app_with::<f32>(&ctx, &dev, a.as_ref(), dims, true, opts.seed))
                .collect(),
        }]
    }

    #[test]
    fn laplacian_gains_most_hyperthermia_least() {
        // §V-A's central observation: the single-grid Laplacian is among
        // the largest winners, the coefficient-bound Hyperthermia is the
        // smallest.
        let r = &quick()[0];
        let by_name = |n: &str| r.apps.iter().find(|a| a.name == n).unwrap().speedup();
        let lap = by_name("Laplacian");
        let hyp = by_name("Hyperthermia");
        assert!(lap > 1.3, "Laplacian speedup {lap:.2}");
        assert!(
            lap > hyp + 0.2,
            "Laplacian {lap:.2} vs Hyperthermia {hyp:.2}"
        );
        for a in &r.apps {
            assert!(
                a.speedup() >= hyp - 1e-9,
                "{} at {:.2} below Hyperthermia {:.2}",
                a.name,
                a.speedup(),
                hyp
            );
        }
    }

    #[test]
    fn all_apps_speed_up_or_nearly_so() {
        // Fig 11: in-plane generally wins; Hyperthermia "may even
        // slow down", so allow it a small regression.
        let r = &quick()[0];
        for a in &r.apps {
            assert!(
                a.speedup() > 0.9,
                "{}: speedup {:.2} too low",
                a.name,
                a.speedup()
            );
        }
    }
}
