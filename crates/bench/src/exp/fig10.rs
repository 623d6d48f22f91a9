//! Fig 10: breakdown of the speedup factors — which part of the gain
//! comes from the full-slice loading pattern and which from register
//! blocking. Three tuned cases over the tuned *nvstencil* baseline:
//!
//! 1. nvstencil **with** register blocking,
//! 2. full-slice **without** register blocking,
//! 3. full-slice **with** register blocking.

use crate::exp::{tune_best_with, ORDERS};
use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::DeviceSpec;
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_grid::Precision;
use stencil_tunestore::TuneService;

/// One (device, order) breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Device name.
    pub device: String,
    /// Stencil order.
    pub order: usize,
    /// Speedup of nvstencil + register blocking over plain nvstencil.
    pub nv_rb: f64,
    /// Speedup of full-slice without register blocking.
    pub fs_norb: f64,
    /// Speedup of full-slice with register blocking.
    pub fs_rb: f64,
}

/// Compute the breakdown for all devices and orders (SP).
pub fn compute(ctx: &EvalContext, svc: Option<&TuneService>, opts: &RunOpts) -> Vec<Cell> {
    let dims = opts.dims();
    let mut out = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        for order in ORDERS {
            let nv = KernelSpec::star_order(Method::ForwardPlane, order, Precision::Single);
            let fs = KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            );
            let base =
                tune_best_with(ctx, svc, &dev, &nv, dims, false, opts.quick, opts.seed).mpoints;
            let nv_rb =
                tune_best_with(ctx, svc, &dev, &nv, dims, true, opts.quick, opts.seed).mpoints;
            let fs_norb =
                tune_best_with(ctx, svc, &dev, &fs, dims, false, opts.quick, opts.seed).mpoints;
            let fs_rb =
                tune_best_with(ctx, svc, &dev, &fs, dims, true, opts.quick, opts.seed).mpoints;
            out.push(Cell {
                device: dev.name.to_string(),
                order,
                nv_rb: nv_rb / base,
                fs_norb: fs_norb / base,
                fs_rb: fs_rb / base,
            });
        }
    }
    out
}

/// Mean contribution summary across a set of cells, as the paper
/// quotes: full-slice + RB total gain, the share contributed by the
/// loading pattern alone, and by register blocking on top.
pub fn summary(cells: &[Cell]) -> (f64, f64, f64) {
    let n = cells.len() as f64;
    let total: f64 = cells.iter().map(|c| c.fs_rb - 1.0).sum::<f64>() / n;
    let from_fs: f64 = cells.iter().map(|c| c.fs_norb - 1.0).sum::<f64>() / n;
    let from_rb: f64 = cells.iter().map(|c| c.fs_rb - c.fs_norb).sum::<f64>() / n;
    (total, from_fs, from_rb)
}

/// Render the breakdown.
pub fn render(cells: &[Cell]) -> Table {
    let mut t = Table::new(&[
        "Device",
        "Order",
        "nvstencil+RB x",
        "full-slice x",
        "full-slice+RB x",
    ]);
    for c in cells {
        t.row(vec![
            c.device.clone(),
            c.order.to_string(),
            f(c.nv_rb, 2),
            f(c.fs_norb, 2),
            f(c.fs_rb, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_slice_with_rb_always_best() {
        // Fig 10: "In all cases, we found that the full-slice method with
        // register blocking performed the best across all GPUs."
        for c in compute(
            &EvalContext::new(),
            None,
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        ) {
            assert!(
                c.fs_rb >= c.nv_rb && c.fs_rb >= c.fs_norb,
                "{} order {}: fs_rb {:.2} nv_rb {:.2} fs {:.2}",
                c.device,
                c.order,
                c.fs_rb,
                c.nv_rb,
                c.fs_norb
            );
        }
    }

    #[test]
    fn rb_contributes_on_top_of_full_slice() {
        // §IV-D: register blocking on the full-slice method adds a
        // meaningful share (~18% in the paper) beyond the pattern alone.
        let cells = compute(
            &EvalContext::new(),
            None,
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        let (total, from_fs, from_rb) = summary(&cells);
        assert!(total > 0.2, "total gain {total:.2}");
        assert!(from_fs > 0.0, "pattern share {from_fs:.2}");
        assert!(from_rb > 0.05, "RB share {from_rb:.2}");
    }

    #[test]
    fn rb_alone_helps_nvstencil_modestly() {
        // §IV-D: nvstencil with register blocking gains only ~11%.
        let cells = compute(
            &EvalContext::new(),
            None,
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        let mean_nv_rb: f64 = cells.iter().map(|c| c.nv_rb - 1.0).sum::<f64>() / cells.len() as f64;
        assert!(
            (0.0..0.6).contains(&mean_nv_rb),
            "nvstencil RB mean gain {mean_nv_rb:.2}"
        );
    }
}
