//! Extension experiment: the in-plane method versus 3.5-D temporal
//! blocking (the Nguyen *et al.* baseline of §II / §V-B).
//!
//! Temporal blocking amortises grid traffic over `T` steps, so for
//! bandwidth-bound low-order stencils it can exceed the single-step DRAM
//! roofline that caps the in-plane method; its costs — `(1 + 2rT/W)²`
//! redundant compute, `T+1` staged planes of shared memory, a `T`-deep
//! dependency chain — grow with `T` and with the stencil radius, so the
//! advantage inverts for high orders. This experiment locates that
//! crossover on the simulated GTX580.

use crate::exp::tune_best_with;
use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::{DeviceSpec, SimOptions};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use stencil_grid::Precision;
use stencil_temporal::{simulate_temporal, TemporalConfig};
use stencil_tunestore::TuneService;

/// One (order, T) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Stencil order.
    pub order: usize,
    /// Temporal depth (0 encodes the tuned in-plane single-step kernel).
    pub t_steps: usize,
    /// Effective MPoint/s (points × steps / time).
    pub effective_mpoints: f64,
}

/// Spatial configurations searched for each temporal depth.
fn spatial_candidates() -> Vec<LaunchConfig> {
    vec![
        LaunchConfig::new(32, 8, 1, 1),
        LaunchConfig::new(64, 4, 1, 1),
        LaunchConfig::new(64, 8, 1, 1),
        LaunchConfig::new(128, 4, 1, 1),
        LaunchConfig::new(128, 8, 1, 1),
        LaunchConfig::new(256, 2, 1, 1),
        LaunchConfig::new(64, 8, 1, 2),
        LaunchConfig::new(128, 4, 1, 2),
    ]
}

/// Compute the comparison for orders 2–8 and T in 1..=8 on the GTX580.
pub fn compute(ctx: &EvalContext, svc: Option<&TuneService>, opts: &RunOpts) -> Vec<Cell> {
    let dev = DeviceSpec::gtx580();
    let dims = opts.dims();
    let mut out = Vec::new();
    for order in [2usize, 4, 8] {
        let kernel = KernelSpec::star_order(
            Method::InPlane(Variant::FullSlice),
            order,
            Precision::Single,
        );
        // Reference: the tuned single-step in-plane kernel.
        let inplane = tune_best_with(ctx, svc, &dev, &kernel, dims, true, opts.quick, opts.seed);
        out.push(Cell {
            order,
            t_steps: 0,
            effective_mpoints: inplane.mpoints,
        });
        for t in [1usize, 2, 4, 8] {
            let best = spatial_candidates()
                .into_iter()
                .map(|c| {
                    let cfg = TemporalConfig::new(c, t);
                    simulate_temporal(ctx, &dev, &kernel, &cfg, dims, &SimOptions::default()).1
                })
                .fold(0.0f64, f64::max);
            out.push(Cell {
                order,
                t_steps: t,
                effective_mpoints: best,
            });
        }
    }
    out
}

/// Render the comparison.
pub fn render(cells: &[Cell]) -> Table {
    let mut t = Table::new(&["Order", "Kernel", "Effective MP/s"]);
    for c in cells {
        let label = if c.t_steps == 0 {
            "in-plane (tuned)".to_string()
        } else {
            format!("3.5-D, T = {}", c.t_steps)
        };
        t.row(vec![c.order.to_string(), label, f(c.effective_mpoints, 0)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temporal_blocking_wins_at_low_order_loses_at_high() {
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
        let get = |order: usize, t: usize| {
            cells
                .iter()
                .find(|c| c.order == order && c.t_steps == t)
                .unwrap()
                .effective_mpoints
        };
        let best_temporal = |order: usize| {
            [1, 2, 4, 8]
                .iter()
                .map(|&t| get(order, t))
                .fold(0.0f64, f64::max)
        };
        // Order 2: deep pipelines can beat the single-step roofline.
        assert!(
            best_temporal(2) > 1.2 * get(2, 0),
            "order 2: temporal {:.0} should clearly beat in-plane {:.0}",
            best_temporal(2),
            get(2, 0)
        );
        // The advantage must shrink sharply with the order: the rT halos
        // and T+1 staged planes erode it (and kill deep T entirely).
        let advantage = |order: usize| best_temporal(order) / get(order, 0);
        assert!(
            advantage(8) < 0.8 * advantage(2),
            "advantage must shrink with order: {:.2} at 2 vs {:.2} at 8",
            advantage(2),
            advantage(8)
        );
        assert!(
            advantage(8) < 1.25,
            "order 8 advantage {:.2} should be marginal",
            advantage(8)
        );
    }

    #[test]
    fn deep_t_at_high_order_is_infeasible() {
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
        let t8_o8 = cells
            .iter()
            .find(|c| c.order == 8 && c.t_steps == 8)
            .unwrap()
            .effective_mpoints;
        assert_eq!(t8_o8, 0.0, "T = 8 at order 8 cannot fit shared memory");
    }
}
