//! Fig 9: global-memory load efficiency — requested bytes as a fraction
//! of bus bytes — for the full-slice method versus *nvstencil*, all
//! stencil orders, all three GPUs, each at its tuned configuration.

use crate::exp::{tune_best_with, ORDERS};
use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::DeviceSpec;
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_grid::Precision;
use stencil_tunestore::TuneService;

/// One (device, order) comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Device name.
    pub device: String,
    /// Stencil order.
    pub order: usize,
    /// nvstencil load efficiency (0..=1).
    pub nvstencil: f64,
    /// Full-slice load efficiency (0..=1).
    pub full_slice: f64,
}

/// Compute the figure: efficiency at each method's tuned configuration
/// (thread blocking only, as in the Fig 7 setting it accompanies).
pub fn compute(ctx: &EvalContext, svc: Option<&TuneService>, opts: &RunOpts) -> Vec<Cell> {
    let dims = opts.dims();
    let mut out = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        for order in ORDERS {
            let nv_spec = KernelSpec::star_order(Method::ForwardPlane, order, Precision::Single);
            let fs_spec = KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            );
            let nv_cfg =
                tune_best_with(ctx, svc, &dev, &nv_spec, dims, false, opts.quick, opts.seed).config;
            let fs_cfg =
                tune_best_with(ctx, svc, &dev, &fs_spec, dims, false, opts.quick, opts.seed).config;
            let nv = ctx
                .evaluate(&dev, &nv_spec, &nv_cfg, dims)
                .load_efficiency();
            let fs = ctx
                .evaluate(&dev, &fs_spec, &fs_cfg, dims)
                .load_efficiency();
            out.push(Cell {
                device: dev.name.to_string(),
                order,
                nvstencil: nv,
                full_slice: fs,
            });
        }
    }
    out
}

/// Render the comparison.
pub fn render(cells: &[Cell]) -> Table {
    let mut t = Table::new(&["Device", "Order", "nvstencil eff %", "full-slice eff %"]);
    for c in cells {
        t.row(vec![
            c.device.clone(),
            c.order.to_string(),
            f(c.nvstencil * 100.0, 1),
            f(c.full_slice * 100.0, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_slice_efficiency_beats_nvstencil_everywhere() {
        // The paper: "the load efficiency of the full-[slice] method is
        // higher than nvstencil for all stencil orders".
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
                c.full_slice > c.nvstencil,
                "{} order {}: full-slice {:.2} vs nvstencil {:.2}",
                c.device,
                c.order,
                c.full_slice,
                c.nvstencil
            );
        }
    }

    #[test]
    fn efficiencies_are_fractions() {
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
            assert!((0.0..=1.0).contains(&c.nvstencil));
            assert!((0.0..=1.0).contains(&c.full_slice));
        }
    }
}
