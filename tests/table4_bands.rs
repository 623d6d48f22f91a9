//! Full Table IV band check: every one of the 36 cells (2 precisions ×
//! 6 orders × 3 devices), tuned on a reduced space over the full paper
//! grid, compared against the paper's reported MPoint/s within a wide
//! band and against shape invariants (speedup ≥ ~1, SP > DP, decreasing
//! with order on Fermi).

use inplane_isl::core::EvalContext;
use stencil_bench::exp::table4;
use stencil_bench::RunOpts;
use stencil_grid::Precision;

fn cells() -> Vec<table4::Cell> {
    // Quick space over the full 512x512x256 grid: the absolute rates are
    // grid-scale-sensitive, the search-space reduction is not.
    table4::compute(
        &EvalContext::new(),
        None,
        &RunOpts {
            quick: true,
            seed: 1,
            csv_dir: None,
            tune_store: None,
        },
    )
    .into_iter()
    .collect()
}

#[test]
fn all_36_cells_within_factor_two_of_paper() {
    let cells = cells();
    assert_eq!(cells.len(), 36);
    for c in &cells {
        assert!(
            c.mpoints > 0.0,
            "{} {} order {}: infeasible",
            c.precision,
            c.device,
            c.order
        );
        let ratio = c.mpoints / c.paper.1;
        assert!(
            (0.5..2.2).contains(&ratio),
            "{} {} order {}: {:.0} vs paper {:.0} (x{ratio:.2})",
            c.precision.label(),
            c.device,
            c.order,
            c.mpoints,
            c.paper.1
        );
    }
}

#[test]
fn every_cell_speeds_up_or_is_marginal() {
    for c in cells() {
        assert!(
            c.speedup > 0.95,
            "{} {} order {}: speedup {:.2}",
            c.precision.label(),
            c.device,
            c.order,
            c.speedup
        );
    }
}

#[test]
fn sp_beats_dp_per_device_and_order() {
    let cells = cells();
    for dev in ["GTX580", "GTX680", "C2070"] {
        for order in [2usize, 4, 6, 8, 10, 12] {
            let rate = |p: Precision| {
                cells
                    .iter()
                    .find(|c| c.precision == p && c.device.contains(dev) && c.order == order)
                    .unwrap()
                    .mpoints
            };
            assert!(
                rate(Precision::Single) > rate(Precision::Double),
                "{dev} order {order}: SP must out-rate DP"
            );
        }
    }
}

#[test]
fn fermi_speedups_decrease_from_low_to_high_orders() {
    let cells = cells();
    for dev in ["GTX580", "C2070"] {
        let speedup = |order: usize| {
            cells
                .iter()
                .find(|c| {
                    c.precision == Precision::Single && c.device.contains(dev) && c.order == order
                })
                .unwrap()
                .speedup
        };
        let low = (speedup(2) + speedup(4)) / 2.0;
        let high = (speedup(10) + speedup(12)) / 2.0;
        assert!(
            low > high,
            "{dev}: low-order mean {low:.2} vs high-order {high:.2}"
        );
    }
}

#[test]
fn high_order_dp_register_blocks_collapse() {
    // Table IV's DP order-10/12 optima have RX·RY ≤ 2 on every device —
    // the register-pressure signature the paper highlights.
    for c in cells() {
        if c.precision == Precision::Double && c.order >= 10 {
            assert!(
                c.config.points_per_thread() <= 2,
                "{} order {}: optimal {} register-blocks too aggressively",
                c.device,
                c.order,
                c.config
            );
        }
    }
}
