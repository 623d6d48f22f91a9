//! Golden-schema test for the `lint` binary's `--json` document: the
//! layout is a machine interface (CI and external dashboards consume
//! it), so every top-level key, the per-report keys and the per-method
//! oracle keys are pinned here. Bumping the layout requires bumping
//! `schema_version` *and* this test — that is the point.

use std::process::Command;

fn run_lint(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .output()
        .expect("lint binary runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 output"),
        out.status.success(),
    )
}

#[test]
fn json_document_matches_the_pinned_schema() {
    let (json, ok) = run_lint(&[
        "--device",
        "gtx580",
        "--kernel",
        "laplacian",
        "--precision",
        "sp",
        "--quick",
        "--json",
    ]);
    assert!(ok, "sweep must be clean:\n{json}");
    let json = json.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");

    // Top level.
    assert!(json.starts_with("{\"schema_version\":3,"), "{json}");
    for key in [
        "\"precision\":\"SP\"",
        "\"verify_kernels\":false",
        "\"reports\":[",
        "\"oracle\":[",
        "\"failed\":0",
        "\"clean\":true",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }

    // Per-sweep report: one per registered routine, pinned keys.
    let routines = inplane_core::registry().len();
    assert_eq!(routines, 6);
    assert_eq!(json.matches("\"examined\":").count(), routines, "{json}");
    for key in [
        "\"device\":\"GeForce GTX580\"",
        "\"kernel\":\"Laplacian",
        "\"feasible\":",
        "\"rejections\":{",
        "\"warnings\":{",
        "\"feasible_errors\":0",
        "\"unexplained\":0",
        "\"error_examples\":[]",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    // The in-plane sweeps surface the documented dead-arm warning.
    assert!(json.contains("\"LNT-D103\":"), "{json}");

    // Oracle section: one entry per routine, dataflow + traffic pinned.
    assert_eq!(json.matches("\"dataflow\":{").count(), routines, "{json}");
    assert_eq!(json.matches("\"traffic\":{").count(), routines, "{json}");
    for key in [
        "\"method\":\"nvstencil\"",
        "\"method\":\"in-plane/full-slice\"",
        "\"method\":\"in-plane/double-buffered\"",
        "\"errors\":0",
        "\"word_bytes\":4",
        "\"segment_bytes\":128",
        "\"cells_staged\":",
        "\"load_transactions\":",
        "\"staged_bytes\":",
        "\"redundancy\":",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
}

#[test]
fn dp_run_reports_eight_byte_words() {
    let (json, ok) = run_lint(&[
        "--device",
        "c2070",
        "--kernel",
        "upstream",
        "--precision",
        "dp",
        "--quick",
        "--json",
    ]);
    assert!(ok, "upstream DP sweep must be clean:\n{json}");
    assert!(json.contains("\"precision\":\"DP\""), "{json}");
    assert!(json.contains("\"kernel\":\"Upstream"), "{json}");
    assert!(json.contains("\"word_bytes\":8"), "{json}");
}

#[test]
fn wave64_run_reports_its_own_segment_geometry() {
    let (json, ok) = run_lint(&[
        "--device",
        "hd7970",
        "--kernel",
        "laplacian",
        "--precision",
        "sp",
        "--quick",
        "--json",
    ]);
    assert!(ok, "hd7970 sweep must be clean:\n{json}");
    assert!(json.contains("\"device\":\"Radeon HD 7970\""), "{json}");
    // The traffic oracle runs against the device's 64-byte segments.
    assert!(json.contains("\"segment_bytes\":64"), "{json}");
    assert!(!json.contains("\"segment_bytes\":128"), "{json}");
}
