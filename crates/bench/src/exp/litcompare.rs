//! §V-B: comparison with previous work. The paper quotes its tuned
//! 2nd-order results in GFlop/s against Patus/Christen (ref 17), Physis
//! (ref 26), Holewinski (ref 27) and Nguyen (ref 14). We regenerate
//! *our side* of
//! each comparison from the tuned Table IV cells; GFlop/s uses the
//! useful (forward-formulation, `7r+1`) flop count, as the literature
//! does.

use crate::exp::tune_best_with;
use crate::fmt::{f, Table};
use crate::opts::RunOpts;
use gpu_sim::DeviceSpec;
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_grid::Precision;
use stencil_tunestore::TuneService;

/// One literature comparison row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// What is being compared.
    pub label: String,
    /// The prior work's reported number.
    pub prior_work: f64,
    /// What the paper reports for its own method.
    pub paper_claim: f64,
    /// Our reproduced number.
    pub ours: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Tuned order-2 throughput in MPoint/s on `dev` for the given precision.
fn tuned_order2(
    ctx: &EvalContext,
    svc: Option<&TuneService>,
    dev: &DeviceSpec,
    precision: Precision,
    opts: &RunOpts,
) -> f64 {
    let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, precision);
    tune_best_with(ctx, svc, dev, &k, opts.dims(), true, opts.quick, opts.seed).mpoints
}

/// Useful GFlop/s of a 2nd-order (7-point-class, 8-flop) stencil at the
/// given MPoint/s.
fn gflops_order2(mpoints: f64) -> f64 {
    mpoints * 8.0 / 1000.0
}

/// Build every §V-B row.
pub fn compute(ctx: &EvalContext, svc: Option<&TuneService>, opts: &RunOpts) -> Vec<Row> {
    let c2070_sp = tuned_order2(ctx, svc, &DeviceSpec::c2070(), Precision::Single, opts);
    let gtx580_dp = tuned_order2(ctx, svc, &DeviceSpec::gtx580(), Precision::Double, opts);
    let gtx580_sp = tuned_order2(ctx, svc, &DeviceSpec::gtx580(), Precision::Single, opts);
    vec![
        Row {
            label: "SP Laplacian-class GFlop/s vs Patus (Tesla C2050: 30)".into(),
            prior_work: 30.0,
            paper_claim: 96.0,
            ours: gflops_order2(c2070_sp),
            unit: "GFlop/s",
        },
        Row {
            label: "7-pt SP GFlop/s vs Physis (Tesla M2050: 67)".into(),
            prior_work: 67.0,
            paper_claim: 97.0,
            ours: gflops_order2(c2070_sp),
            unit: "GFlop/s",
        },
        Row {
            label: "7-pt DP GFlop/s vs Holewinski (GTX580: 28.7)".into(),
            prior_work: 28.7,
            paper_claim: 65.0,
            ours: gflops_order2(gtx580_dp),
            unit: "GFlop/s",
        },
        Row {
            label: "2nd-order SP MPoint/s vs Nguyen (GTX285: 9234)".into(),
            prior_work: 9234.0,
            paper_claim: 17294.0,
            ours: gtx580_sp,
            unit: "MPoint/s",
        },
    ]
}

/// Render the rows.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(&["Comparison", "Prior work", "Paper", "Ours", "Unit"]);
    for r in rows {
        t.row(vec![
            r.label.clone(),
            f(r.prior_work, 1),
            f(r.paper_claim, 1),
            f(r.ours, 1),
            r.unit.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn our_numbers_land_in_the_papers_neighbourhood() {
        let rows = compute(
            &EvalContext::new(),
            None,
            &RunOpts {
                quick: true,
                seed: 1,
                csv_dir: None,
                tune_store: None,
            },
        );
        assert_eq!(rows.len(), 4);
        for r in &rows {
            let ratio = r.ours / r.paper_claim;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: ours {:.1} vs paper {:.1}",
                r.label,
                r.ours,
                r.paper_claim
            );
        }
    }

    #[test]
    fn we_beat_the_prior_work_like_the_paper_does() {
        for r in compute(
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
                r.ours > r.prior_work,
                "{}: ours {:.1} should exceed prior {:.1}",
                r.label,
                r.ours,
                r.prior_work
            );
        }
    }
}
