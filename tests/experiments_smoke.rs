//! Smoke tests for every table/figure experiment entry point (quick
//! mode): the binaries' library backends must run to completion and
//! produce structurally valid output.

use inplane_isl::core::EvalContext;
use stencil_bench::exp;
use stencil_bench::RunOpts;

fn quick() -> RunOpts {
    RunOpts {
        quick: true,
        seed: 1,
        csv_dir: None,
        tune_store: None,
    }
}

#[test]
fn table1_and_table2_are_exact() {
    assert_eq!(exp::table1::compute(), exp::table1::PAPER.to_vec());
    assert_eq!(exp::table2::compute(), exp::table2::PAPER.to_vec());
    assert!(!exp::table1::render().is_empty());
    assert!(!exp::table2::render().is_empty());
}

#[test]
fn table3_runs() {
    let rows = exp::table3::compute();
    assert_eq!(rows.len(), 3);
    assert!(!exp::table3::render().is_empty());
}

#[test]
fn fig7_runs() {
    let cells = exp::fig7::compute(&EvalContext::new(), None, &quick());
    assert_eq!(cells.len(), 18);
    assert_eq!(exp::fig7::render(&cells).len(), 18);
}

#[test]
fn fig8_runs() {
    let panels = exp::fig8::compute(&EvalContext::new(), &quick());
    assert_eq!(panels.len(), 2);
    for p in &panels {
        assert_eq!(p.points.len(), 16);
        assert!(p.peak().mpoints > 0.0);
    }
}

#[test]
fn table4_runs() {
    let cells = exp::table4::compute(&EvalContext::new(), None, &quick());
    assert_eq!(cells.len(), 2 * 6 * 3); // precisions x orders x devices
    assert!(cells.iter().all(|c| c.mpoints > 0.0));
    assert!(!exp::table4::render(&cells).is_empty());
}

#[test]
fn fig9_runs() {
    let cells = exp::fig9::compute(&EvalContext::new(), None, &quick());
    assert_eq!(cells.len(), 18);
}

#[test]
fn fig10_runs() {
    let cells = exp::fig10::compute(&EvalContext::new(), None, &quick());
    assert_eq!(cells.len(), 18);
    let (total, from_fs, from_rb) = exp::fig10::summary(&cells);
    assert!(total > 0.0 && from_fs.is_finite() && from_rb.is_finite());
}

#[test]
fn fig11_runs() {
    let results = exp::fig11::compute(&EvalContext::new(), &quick());
    assert_eq!(results.len(), 6); // 3 devices x 2 precisions
    for r in &results {
        assert_eq!(r.apps.len(), 6);
    }
}

#[test]
fn fig12_runs() {
    let cells = exp::fig12::compute(&EvalContext::new(), None, &quick(), 5.0);
    assert_eq!(cells.len(), 18);
    let (mean, worst) = exp::fig12::gap_stats(&cells);
    assert!(mean >= 0.0 && worst >= mean);
}

#[test]
fn litcompare_runs() {
    let rows = exp::litcompare::compute(&EvalContext::new(), None, &quick());
    assert_eq!(rows.len(), 4);
}

#[test]
fn ablation_runs() {
    let rows = exp::ablation::compute(&EvalContext::new(), &quick());
    assert_eq!(rows.len(), 5);
    assert!(!exp::ablation::render(&rows).is_empty());
}

#[test]
fn temporal_comparison_runs() {
    let cells = exp::temporal_cmp::compute(&EvalContext::new(), None, &quick());
    assert_eq!(cells.len(), 3 * 5); // 3 orders x (in-plane + 4 depths)
    assert!(!exp::temporal_cmp::render(&cells).is_empty());
}

#[test]
fn csv_rendering_roundtrips_structure() {
    let t = exp::table1::render();
    let csv = t.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 7); // header + 6 orders
    assert!(lines[0].contains("Order"));
    assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
}
