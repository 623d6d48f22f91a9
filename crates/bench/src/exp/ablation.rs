//! Ablation study for the simulator's design decisions (the ✦ items of
//! DESIGN.md §6): what happens to the paper's headline comparison —
//! tuned in-plane full-slice versus tuned *nvstencil* — when each
//! mechanism is switched off or replaced.
//!
//! * **element-granular memory**: transactions count requested bytes
//!   only (4-byte segments), removing coalescing granularity entirely;
//! * **no L1 credit**: duplicate segment fetches always pay full price
//!   (`l1_dup_charge = 1`), as if Fermi had no cache;
//! * **free re-references**: duplicates are free (`l1_dup_charge = 0`),
//!   an infinite ideal cache;
//! * **saturating hiding**: the latency-hiding function saturates at a
//!   third of the warp slots instead of the paper's linear `f(·)`.

use crate::exp::space_for;
use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::timing::HidingModel;
use gpu_sim::{DeviceSpec, SimOptions};
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_grid::Precision;

/// One ablation configuration's results.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Which mechanism was altered.
    pub name: &'static str,
    /// Tuned order-2 SP full-slice MPoint/s on the (altered) GTX580.
    pub order2_mpoints: f64,
    /// Tuned order-2 speedup over tuned nvstencil.
    pub order2_speedup: f64,
    /// Tuned order-8 speedup.
    pub order8_speedup: f64,
}

fn tune_mpoints(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    opts: &RunOpts,
    hiding: HidingModel,
    register_blocking: bool,
) -> f64 {
    let dims = opts.dims();
    let space = space_for(device, kernel, &dims, register_blocking, opts.quick);
    space
        .configs()
        .iter()
        .map(|c| {
            let sim_opts = SimOptions {
                hiding,
                ..SimOptions::default()
            };
            ctx.evaluate_with(device, kernel, c, dims, &sim_opts)
                .mpoints_per_s()
        })
        .fold(0.0f64, f64::max)
}

fn run_case(
    ctx: &EvalContext,
    name: &'static str,
    device: DeviceSpec,
    hiding: HidingModel,
    opts: &RunOpts,
) -> Row {
    let speedup = |order: usize| {
        let nv = tune_mpoints(
            ctx,
            &device,
            &KernelSpec::star_order(Method::ForwardPlane, order, Precision::Single),
            opts,
            hiding,
            false,
        );
        let fs = tune_mpoints(
            ctx,
            &device,
            &KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            ),
            opts,
            hiding,
            true,
        );
        (fs, fs / nv)
    };
    let (o2_mp, o2_s) = speedup(2);
    let (_, o8_s) = speedup(8);
    Row {
        name,
        order2_mpoints: o2_mp,
        order2_speedup: o2_s,
        order8_speedup: o8_s,
    }
}

/// Run the ablation on the GTX580.
pub fn compute(ctx: &EvalContext, opts: &RunOpts) -> Vec<Row> {
    let base = DeviceSpec::gtx580();
    let element_granular = DeviceSpec {
        segment_bytes: 4,
        ..base.clone()
    };
    let no_l1 = DeviceSpec {
        l1_dup_charge: 1.0,
        ..base.clone()
    };
    let ideal_cache = DeviceSpec {
        l1_dup_charge: 0.0,
        ..base.clone()
    };
    vec![
        run_case(ctx, "baseline", base.clone(), HidingModel::Linear, opts),
        run_case(
            ctx,
            "element-granular memory",
            element_granular,
            HidingModel::Linear,
            opts,
        ),
        run_case(ctx, "no L1 credit", no_l1, HidingModel::Linear, opts),
        run_case(
            ctx,
            "free re-references",
            ideal_cache,
            HidingModel::Linear,
            opts,
        ),
        run_case(
            ctx,
            "saturating hiding",
            base,
            HidingModel::Saturating,
            opts,
        ),
    ]
}

/// Render the ablation table.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(&[
        "Mechanism",
        "order-2 MP/s",
        "order-2 speedup",
        "order-8 speedup",
    ]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            f(r.order2_mpoints, 0),
            f(r.order2_speedup, 2),
            f(r.order8_speedup, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_granularity_carries_the_result() {
        // Without 128-byte segment granularity, the in-plane method's
        // advantage mostly evaporates — the whole paper rests on
        // transaction-level coalescing.
        let rows = compute(
            &EvalContext::new(),
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        let baseline = rows.iter().find(|r| r.name == "baseline").unwrap();
        let granular = rows
            .iter()
            .find(|r| r.name == "element-granular memory")
            .unwrap();
        assert!(baseline.order2_speedup > 1.3);
        assert!(
            granular.order2_speedup < baseline.order2_speedup - 0.15,
            "element-granular {:.2} should fall well below baseline {:.2}",
            granular.order2_speedup,
            baseline.order2_speedup
        );
    }

    #[test]
    fn l1_credit_narrows_the_gap() {
        // The baseline's misaligned re-references are what L1 forgives:
        // with no credit the nvstencil baseline gets slower (speedup
        // grows); with free re-references it gets faster (speedup
        // shrinks).
        let rows = compute(
            &EvalContext::new(),
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        let base = rows
            .iter()
            .find(|r| r.name == "baseline")
            .unwrap()
            .order2_speedup;
        let none = rows
            .iter()
            .find(|r| r.name == "no L1 credit")
            .unwrap()
            .order2_speedup;
        let free = rows
            .iter()
            .find(|r| r.name == "free re-references")
            .unwrap()
            .order2_speedup;
        assert!(none >= base - 1e-9, "no-credit {none:.2} vs base {base:.2}");
        assert!(free <= base + 1e-9, "free {free:.2} vs base {base:.2}");
    }

    #[test]
    fn hiding_shape_is_second_order() {
        // Swapping the hiding function must not change who wins.
        let rows = compute(
            &EvalContext::new(),
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        let sat = rows.iter().find(|r| r.name == "saturating hiding").unwrap();
        assert!(sat.order2_speedup > 1.0);
        assert!(sat.order8_speedup > 1.0);
    }
}
