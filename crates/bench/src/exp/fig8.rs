//! Fig 8: auto-tuning performance surfaces over `(RX, RY)` at the
//! optimal `(TX, TY)` — the paper shows the 2nd- and 8th-order SP
//! kernels on the GeForce GTX580, with constraint-violating points
//! plotted as zero.

use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::DeviceSpec;
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_autotune::{performance_surface_with, SurfacePoint};
use stencil_grid::Precision;

/// One Fig 8 panel.
#[derive(Clone, Debug, PartialEq)]
pub struct Panel {
    /// Stencil order.
    pub order: usize,
    /// Fixed thread block (the paper's reported optimum).
    pub tx: usize,
    /// See `tx`.
    pub ty: usize,
    /// 16 surface points over RX, RY ∈ {1, 2, 4, 8}.
    pub points: Vec<SurfacePoint>,
}

impl Panel {
    /// The surface peak.
    pub fn peak(&self) -> SurfacePoint {
        *self
            .points
            .iter()
            .max_by(|a, b| a.mpoints.total_cmp(&b.mpoints))
            .expect("surface is non-empty")
    }
}

/// Compute the two panels of Fig 8 (order 2 at TX×TY = 256×1, order 8 at
/// 32×4, the paper's optima) on the GTX580.
pub fn compute(ctx: &EvalContext, opts: &RunOpts) -> Vec<Panel> {
    let dev = DeviceSpec::gtx580();
    let dims = opts.dims();
    [(2usize, 256usize, 1usize), (8, 32, 4)]
        .into_iter()
        .map(|(order, tx, ty)| {
            let k = KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            );
            Panel {
                order,
                tx,
                ty,
                points: performance_surface_with(ctx, &dev, &k, dims, tx, ty, opts.seed),
            }
        })
        .collect()
}

/// Render one panel as an RX × RY grid of MPoint/s.
pub fn render(panel: &Panel) -> Table {
    let mut t = Table::new(&["RX\\RY", "1", "2", "4", "8"]);
    for rx in [1usize, 2, 4, 8] {
        let mut row = vec![rx.to_string()];
        for ry in [1usize, 2, 4, 8] {
            let p = panel
                .points
                .iter()
                .find(|p| p.rx == rx && p.ry == ry)
                .expect("full 4x4 surface");
            row.push(f(p.mpoints, 0));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order2_panel_peaks_at_high_ry() {
        // Fig 8a: the 2nd-order surface at (256, 1) rises along RY; the
        // paper's optimum is RY = 8.
        let panels = compute(
            &EvalContext::new(),
            &RunOpts {
                quick: false,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        let p2 = &panels[0];
        assert_eq!(p2.order, 2);
        let peak = p2.peak();
        assert!(peak.ry >= 4, "peak at rx={} ry={}", peak.rx, peak.ry);
        // The surface is not flat: peak clearly above the (1,1) corner.
        let base = p2.points.iter().find(|p| p.rx == 1 && p.ry == 1).unwrap();
        assert!(peak.mpoints > 1.2 * base.mpoints);
    }

    #[test]
    fn order8_panel_has_infeasible_zeros() {
        // Fig 8b: at (32, 4) with order 8, large register blocks violate
        // constraints and are plotted as zero.
        let panels = compute(
            &EvalContext::new(),
            &RunOpts {
                quick: false,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        let p8 = &panels[1];
        assert!(p8.points.iter().any(|p| p.mpoints == 0.0));
        let peak = p8.peak();
        assert!(peak.mpoints > 0.0);
    }

    #[test]
    fn render_is_4x4() {
        let panels = compute(
            &EvalContext::new(),
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        assert_eq!(render(&panels[0]).len(), 4);
    }
}
