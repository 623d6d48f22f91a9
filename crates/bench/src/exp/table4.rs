//! Table IV: auto-tuned full-slice in-plane results with thread *and*
//! register blocking — optimal `(TX, TY, RX, RY)`, MPoint/s, and speedup
//! over tuned *nvstencil* — for SP and DP, orders 2–12, on all three
//! GPUs. The paper's reported numbers are embedded for comparison.

use crate::exp::{tune_best_with, ORDERS};
use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::DeviceSpec;
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use stencil_grid::Precision;
use stencil_tunestore::TuneService;

/// Paper-reported cell: (config, MPoint/s, speedup).
pub type PaperCell = ((usize, usize, usize, usize), f64, f64);

/// Paper Table IV, SP block; device order GTX580, GTX680, C2070.
pub const PAPER_SP: [[PaperCell; 3]; 6] = [
    [
        ((256, 1, 1, 8), 17294.0, 1.70),
        ((256, 4, 1, 4), 16181.6, 1.96),
        ((256, 1, 1, 4), 10761.2, 1.65),
    ],
    [
        ((32, 2, 2, 4), 14348.6, 1.82),
        ((64, 4, 2, 4), 13163.1, 1.81),
        ((32, 2, 2, 4), 8994.0, 1.77),
    ],
    [
        ((32, 8, 2, 2), 10944.2, 1.66),
        ((128, 4, 1, 4), 10632.1, 1.71),
        ((32, 4, 1, 4), 6965.9, 1.65),
    ],
    [
        ((32, 4, 1, 4), 9254.5, 1.64),
        ((64, 4, 1, 4), 9904.7, 1.76),
        ((32, 4, 1, 4), 5949.9, 1.66),
    ],
    [
        ((32, 8, 1, 2), 7183.9, 1.38),
        ((32, 8, 1, 2), 7488.7, 1.66),
        ((32, 8, 1, 2), 4550.8, 1.39),
    ],
    [
        ((32, 8, 1, 2), 6503.6, 1.34),
        ((32, 8, 1, 2), 6421.8, 1.42),
        ((32, 8, 1, 2), 4130.8, 1.34),
    ],
];

/// Paper Table IV, DP block.
pub const PAPER_DP: [[PaperCell; 3]; 6] = [
    [
        ((128, 1, 1, 4), 7206.9, 1.35),
        ((64, 2, 1, 4), 6411.6, 1.44),
        ((128, 1, 1, 4), 4975.9, 1.31),
    ],
    [
        ((32, 4, 1, 4), 4858.8, 1.30),
        ((64, 4, 2, 4), 4285.0, 1.16),
        ((32, 4, 1, 4), 3692.7, 1.28),
    ],
    [
        ((32, 4, 1, 2), 3432.2, 1.16),
        ((128, 4, 1, 4), 3005.8, 1.13),
        ((64, 4, 1, 2), 2764.3, 1.29),
    ],
    [
        ((32, 4, 1, 2), 2788.7, 1.12),
        ((64, 4, 1, 4), 2406.4, 1.13),
        ((64, 4, 1, 2), 2381.5, 1.23),
    ],
    [
        ((16, 8, 1, 1), 2388.9, 1.15),
        ((32, 8, 1, 2), 1911.0, 1.06),
        ((16, 16, 1, 1), 1889.9, 1.13),
    ],
    [
        ((16, 8, 1, 1), 2029.3, 1.05),
        ((32, 8, 1, 2), 1607.8, 1.05),
        ((16, 16, 1, 1), 1735.5, 1.17),
    ],
];

/// One reproduced cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Precision.
    pub precision: Precision,
    /// Stencil order.
    pub order: usize,
    /// Device name.
    pub device: String,
    /// Our auto-tuned optimal configuration.
    pub config: LaunchConfig,
    /// Our tuned full-slice throughput, MPoint/s.
    pub mpoints: f64,
    /// Our speedup over tuned nvstencil (thread blocking only).
    pub speedup: f64,
    /// The paper's cell for this (precision, order, device).
    pub paper: PaperCell,
}

/// Run the full experiment (both precisions, all devices and orders).
pub fn compute(ctx: &EvalContext, svc: Option<&TuneService>, opts: &RunOpts) -> Vec<Cell> {
    let dims = opts.dims();
    let mut out = Vec::new();
    for (precision, paper_block) in [
        (Precision::Single, &PAPER_SP),
        (Precision::Double, &PAPER_DP),
    ] {
        for (oi, order) in ORDERS.into_iter().enumerate() {
            for (di, dev) in DeviceSpec::paper_devices().into_iter().enumerate() {
                let nv = tune_best_with(
                    ctx,
                    svc,
                    &dev,
                    &KernelSpec::star_order(Method::ForwardPlane, order, precision),
                    dims,
                    false,
                    opts.quick,
                    opts.seed,
                );
                let fs = tune_best_with(
                    ctx,
                    svc,
                    &dev,
                    &KernelSpec::star_order(Method::InPlane(Variant::FullSlice), order, precision),
                    dims,
                    true,
                    opts.quick,
                    opts.seed,
                );
                out.push(Cell {
                    precision,
                    order,
                    device: dev.name.to_string(),
                    config: fs.config,
                    mpoints: fs.mpoints,
                    speedup: fs.mpoints / nv.mpoints,
                    paper: paper_block[oi][di],
                });
            }
        }
    }
    out
}

/// Render the comparison table.
pub fn render(cells: &[Cell]) -> Table {
    let mut t = Table::new(&[
        "Prec",
        "Order",
        "Device",
        "Optimal (ours)",
        "MP/s (ours)",
        "(paper)",
        "Speedup (ours)",
        "(paper)",
    ]);
    for c in cells {
        t.row(vec![
            c.precision.label().to_string(),
            c.order.to_string(),
            c.device.clone(),
            c.config.to_string(),
            f(c.mpoints, 0),
            f(c.paper.1, 0),
            f(c.speedup, 2),
            f(c.paper.2, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_shape_holds_on_fermi_sp() {
        // Quick-mode check of the central claims on GTX580 SP:
        // speedup > 1 everywhere, highest at low orders, throughput
        // within ~2x of the paper's absolute numbers.
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
        let sp580: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.precision == Precision::Single && c.device.contains("580"))
            .collect();
        assert_eq!(sp580.len(), 6);
        for c in &sp580 {
            assert!(
                c.speedup > 1.0,
                "order {}: speedup {:.2}",
                c.order,
                c.speedup
            );
            let ratio = c.mpoints / c.paper.1;
            assert!(
                (0.5..2.0).contains(&ratio),
                "order {}: {:.0} vs paper {:.0}",
                c.order,
                c.mpoints,
                c.paper.1
            );
        }
        let s2 = sp580.iter().find(|c| c.order == 2).unwrap().speedup;
        let s12 = sp580.iter().find(|c| c.order == 12).unwrap().speedup;
        assert!(
            s2 > s12,
            "speedup should decrease with order: {s2:.2} vs {s12:.2}"
        );
    }

    #[test]
    fn dp_speedups_lower_than_sp() {
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
        let avg = |p: Precision| {
            let v: Vec<f64> = cells
                .iter()
                .filter(|c| c.precision == p)
                .map(|c| c.speedup)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            avg(Precision::Single) > avg(Precision::Double),
            "SP mean {:.2} vs DP mean {:.2}",
            avg(Precision::Single),
            avg(Precision::Double)
        );
    }
}
