//! Fig 7: speedup of the in-plane loading variants (vertical,
//! horizontal, full-slice) over *nvstencil*, with thread blocking only
//! (each variant — and the baseline — tuned for its optimal `TX × TY`,
//! `RX = RY = 1`), single precision, orders 2–12, all three GPUs.

use crate::exp::{tune_best_with, ORDERS};
use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::DeviceSpec;
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_grid::Precision;
use stencil_tunestore::TuneService;

/// The variants Fig 7 evaluates, in column order (the paper leaves the
/// classical variant out).
const VARIANTS: [Variant; 3] = [Variant::Vertical, Variant::Horizontal, Variant::FullSlice];

/// Speedups of one (device, order) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Device name.
    pub device: String,
    /// Stencil order.
    pub order: usize,
    /// Tuned nvstencil throughput, MPoint/s.
    pub nvstencil_mpoints: f64,
    /// Speedups over nvstencil for (vertical, horizontal, full-slice).
    pub speedups: [f64; 3],
}

/// Run the whole figure.
pub fn compute(ctx: &EvalContext, svc: Option<&TuneService>, opts: &RunOpts) -> Vec<Cell> {
    let dims = opts.dims();
    let mut out = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        for order in ORDERS {
            let nv = tune_best_with(
                ctx,
                svc,
                &dev,
                &KernelSpec::star_order(Method::ForwardPlane, order, Precision::Single),
                dims,
                false,
                opts.quick,
                opts.seed,
            );
            let mut speedups = [0.0f64; 3];
            for (i, variant) in VARIANTS.into_iter().enumerate() {
                let s = tune_best_with(
                    ctx,
                    svc,
                    &dev,
                    &KernelSpec::star_order(Method::InPlane(variant), order, Precision::Single),
                    dims,
                    false,
                    opts.quick,
                    opts.seed,
                );
                speedups[i] = s.mpoints / nv.mpoints;
            }
            out.push(Cell {
                device: dev.name.to_string(),
                order,
                nvstencil_mpoints: nv.mpoints,
                speedups,
            });
        }
    }
    out
}

/// Render one table over all devices and orders.
pub fn render(cells: &[Cell]) -> Table {
    let mut t = Table::new(&[
        "Device",
        "Order",
        "nvstencil MP/s",
        "vertical x",
        "horizontal x",
        "full-slice x",
    ]);
    for c in cells {
        t.row(vec![
            c.device.clone(),
            c.order.to_string(),
            f(c.nvstencil_mpoints, 0),
            f(c.speedups[0], 2),
            f(c.speedups[1], 2),
            f(c.speedups[2], 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cells() -> Vec<Cell> {
        compute(
            &EvalContext::new(),
            None,
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        )
    }

    #[test]
    fn fig7_shapes_hold() {
        let cells = quick_cells();
        assert_eq!(cells.len(), 18);
        for c in &cells {
            // Full-slice and horizontal give a benefit at low orders.
            if c.order <= 8 {
                assert!(
                    c.speedups[2] > 1.0,
                    "{} order {}: full-slice {:.2}",
                    c.device,
                    c.order,
                    c.speedups[2]
                );
            }
        }
        // Vertical collapses at high orders (the paper's
        // "significant slowdowns for 10th and 12th order"): below parity
        // at order 12, and at best marginal at order 10.
        for c in cells.iter().filter(|c| c.order == 12) {
            assert!(
                c.speedups[0] < 0.85,
                "{} order 12: vertical {:.2} should slow down",
                c.device,
                c.speedups[0]
            );
        }
        for c in cells.iter().filter(|c| c.order == 10) {
            assert!(
                c.speedups[0] < 1.05,
                "{} order 10: vertical {:.2} should be at best marginal",
                c.device,
                c.speedups[0]
            );
        }
    }

    #[test]
    fn vertical_competitive_at_order_2() {
        for c in quick_cells().iter().filter(|c| c.order == 2) {
            assert!(c.speedups[0] > 1.0, "{}: {:.2}", c.device, c.speedups[0]);
        }
    }
}
