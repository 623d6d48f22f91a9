//! Coded diagnostics: the machine-readable currency every analysis pass
//! emits.
//!
//! A [`Diagnostic`] carries a *stable* code (`LNT-xnnn`), a severity, a
//! human message and structured context (`key = value` pairs). Codes are
//! grouped by family:
//!
//! * `LNT-R…` — resource feasibility (§IV-C constraints, explained);
//! * `LNT-S…` — barrier/happens-before schedule proofs;
//! * `LNT-C…` — load-region coverage of the halo-framed slab;
//! * `LNT-M…` — memory behaviour (coalescing, bank conflicts);
//! * `LNT-T…` — generated-source (CUDA/OpenCL) text checks;
//! * `LNT-K…` — symbolic kernel verification: the emitted source is
//!   parsed into a typed AST and abstractly interpreted per thread
//!   (see `kernelir` and `verify`).
//!
//! Within a family, codes `…001`–`…099` are errors (the configuration or
//! plan is wrong/rejected), `…101`–`…199` warnings (legal but
//! performance-relevant or excluded-by-convention), `…901`+ informational.
//! The full catalog lives in [`CATALOG`]; [`describe`] looks codes up.

use std::fmt;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: a documented, accepted property worth surfacing.
    Info,
    /// Legal but suspicious or performance-relevant.
    Warning,
    /// The configuration/plan/source is invalid and must be rejected.
    Error,
}

impl Severity {
    /// Lower-case label used in renderings and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The catalog of every code the analyzer can emit:
/// `(code, severity, one-line description)`.
pub const CATALOG: &[(&str, Severity, &str)] = &[
    // Resource feasibility (§IV-C).
    (
        "LNT-R001",
        Severity::Error,
        "TX is not a multiple of a half-warp (coalescing constraint i)",
    ),
    (
        "LNT-R002",
        Severity::Error,
        "thread block exceeds the device's threads-per-block limit (constraint ii)",
    ),
    (
        "LNT-R003",
        Severity::Error,
        "shared-memory staging buffer exceeds the per-SM capacity (constraint iii)",
    ),
    (
        "LNT-R004",
        Severity::Error,
        "TY*RY does not divide the vertical grid extent (constraint iv)",
    ),
    (
        "LNT-R005",
        Severity::Error,
        "block tile exceeds the grid extent",
    ),
    (
        "LNT-R006",
        Severity::Error,
        "register estimate exceeds the per-thread hardware cap",
    ),
    (
        "LNT-R007",
        Severity::Error,
        "routine rejects the problem: grid too small for the stencil radius",
    ),
    (
        "LNT-R008",
        Severity::Error,
        "double-buffered staging pair exceeds the per-SM shared-memory capacity",
    ),
    (
        "LNT-R101",
        Severity::Warning,
        "thread block smaller than one warp (excluded from the paper's enumeration)",
    ),
    // Barrier / happens-before schedule.
    (
        "LNT-S001",
        Severity::Error,
        "shared-memory read not covered by any staged region",
    ),
    (
        "LNT-S002",
        Severity::Error,
        "shared-memory read not separated from its staging store by a barrier",
    ),
    (
        "LNT-S003",
        Severity::Error,
        "per-plane barrier count differs from the routine's proven schedule",
    ),
    (
        "LNT-S004",
        Severity::Error,
        "register pipeline depth differs from the method's specification",
    ),
    // Region coverage.
    (
        "LNT-C001",
        Severity::Error,
        "load regions leave a gap in the halo-framed slab",
    ),
    ("LNT-C002", Severity::Error, "load regions overlap"),
    (
        "LNT-C003",
        Severity::Error,
        "corner-free variant stages corner cells",
    ),
    (
        "LNT-C004",
        Severity::Error,
        "load region reaches outside the halo-framed slab",
    ),
    (
        "LNT-C901",
        Severity::Info,
        "full-slice stages the 4r^2 redundant corner cells (documented policy)",
    ),
    // Whole-plan dataflow (buffer lifetimes over the StagePlan IR).
    (
        "LNT-D001",
        Severity::Error,
        "compute reads shared-tile cells never staged in the current plane's schedule",
    ),
    (
        "LNT-D002",
        Severity::Error,
        "read of a buffer region never written (uninitialized buffer read)",
    ),
    (
        "LNT-D003",
        Severity::Error,
        "invalid buffer reference (unallocated id, out-of-order alloc, or write to the read-only input)",
    ),
    (
        "LNT-D004",
        Severity::Error,
        "stale halo plane: a sweep reads an exchange-destination plane last written by a boundary copy",
    ),
    (
        "LNT-D005",
        Severity::Error,
        "output interior cells never written by the plan (empty or gapped compute schedule)",
    ),
    (
        "LNT-D006",
        Severity::Error,
        "block-level op outside any block or outside the block's halo window",
    ),
    (
        "LNT-D007",
        Severity::Error,
        "schedule-shape violation: rotation counts, publish alignment or write-back ordering deviate from the method",
    ),
    (
        "LNT-D101",
        Severity::Warning,
        "dead store: cells written to a working buffer and never read",
    ),
    (
        "LNT-D102",
        Severity::Warning,
        "dead halo exchange: exchanged planes never read before overwrite or plan end",
    ),
    (
        "LNT-D103",
        Severity::Warning,
        "dead staging: non-corner cells staged but never read before restage or block end",
    ),
    (
        "LNT-D104",
        Severity::Warning,
        "redundant re-staging: cells staged more than once within one plane's schedule",
    ),
    (
        "LNT-D901",
        Severity::Info,
        "full-slice corner cells staged but never read (documented policy, cf. LNT-C901)",
    ),
    // Memory behaviour.
    (
        "LNT-M101",
        Severity::Warning,
        "load transactions exceed the ideal coalesced count",
    ),
    (
        "LNT-M102",
        Severity::Warning,
        "column-major side-halo loads collapse into per-row transactions",
    ),
    (
        "LNT-M103",
        Severity::Warning,
        "shared-memory bank conflicts in the compute phase",
    ),
    // Generated-source text.
    (
        "LNT-T001",
        Severity::Error,
        "generated kernel's per-plane barrier count differs from the routine's proven schedule",
    ),
    (
        "LNT-T002",
        Severity::Error,
        "generated source is malformed (unbalanced braces or unlexable text)",
    ),
    (
        "LNT-T003",
        Severity::Error,
        "generated #define constants disagree with the launch configuration",
    ),
    (
        "LNT-T004",
        Severity::Error,
        "staged halo index can exceed the shared-memory tile width",
    ),
    (
        "LNT-T005",
        Severity::Error,
        "declared shared-memory bytes disagree with the SMEM_W x SMEM_H formula",
    ),
    (
        "LNT-T101",
        Severity::Warning,
        "static shared tile with alignment slack exceeds the device's per-SM capacity",
    ),
    // Symbolic kernel verification (AST + abstract interpretation).
    (
        "LNT-K001",
        Severity::Error,
        "kernel accesses a shared/local array out of its declared bounds",
    ),
    (
        "LNT-K002",
        Severity::Error,
        "kernel accesses global memory outside the buffer (or misaligns a vector load)",
    ),
    (
        "LNT-K003",
        Severity::Error,
        "barrier executed under thread-divergent control flow or barrier count deviates from the proven schedule",
    ),
    (
        "LNT-K004",
        Severity::Error,
        "conflicting shared-memory accesses in the same barrier phase (write-write or read-write race)",
    ),
    (
        "LNT-K005",
        Severity::Error,
        "per-plane traffic derived from the kernel AST disagrees with the static traffic oracle",
    ),
    (
        "LNT-K006",
        Severity::Error,
        "kernel outside the verifiable subset: parse/eval failure, budget exhaustion, or ill-shaped declarations",
    ),
];

/// Look a code up in the catalog.
pub fn describe(code: &str) -> Option<&'static str> {
    CATALOG
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, _, d)| *d)
}

/// The catalog severity of a code, if the code exists.
pub fn catalog_severity(code: &str) -> Option<Severity> {
    CATALOG
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, s, _)| *s)
}

/// One finding of an analysis pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`LNT-xnnn`, see [`CATALOG`]).
    pub code: &'static str,
    /// Severity (always the catalog severity of `code`).
    pub severity: Severity,
    /// Human-readable, instance-specific message.
    pub message: String,
    /// Structured context: `key = value` pairs (numbers rendered as
    /// strings so the set stays schema-free).
    pub context: Vec<(&'static str, String)>,
}

impl Diagnostic {
    fn new(code: &'static str, severity: Severity, message: String) -> Self {
        debug_assert_eq!(
            catalog_severity(code),
            Some(severity),
            "diagnostic code {code} missing from CATALOG or used at the wrong severity"
        );
        Diagnostic {
            code,
            severity,
            message,
            context: Vec::new(),
        }
    }

    /// An error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Error, message.into())
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Warning, message.into())
    }

    /// An info-severity diagnostic.
    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Info, message.into())
    }

    /// Attach one context pair (builder style).
    pub fn with(mut self, key: &'static str, value: impl fmt::Display) -> Self {
        self.context.push((key, value.to_string()));
        self
    }

    /// One-line human rendering:
    /// `error[LNT-R003]: message (smem_bytes = 53248, limit = 49152)`.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity.label(), self.code, self.message);
        if !self.context.is_empty() {
            let ctx: Vec<String> = self
                .context
                .iter()
                .map(|(k, v)| format!("{k} = {v}"))
                .collect();
            out.push_str(&format!(" ({})", ctx.join(", ")));
        }
        out
    }

    /// JSON object rendering (hand-rolled; the workspace is std-only).
    pub fn to_json(&self) -> String {
        let ctx: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        format!(
            "{{\"code\":{},\"severity\":{},\"message\":{},\"context\":{{{}}}}}",
            json_string(self.code),
            json_string(self.severity.label()),
            json_string(&self.message),
            ctx.join(",")
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// True when any diagnostic in the slice is error-severity — the single
/// predicate the boolean feasibility shim and the lint exit code use.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Escape and quote a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (code, severity, desc) in CATALOG {
            assert!(seen.insert(*code), "duplicate code {code}");
            assert!(code.starts_with("LNT-"), "{code} must start with LNT-");
            assert!(!desc.is_empty());
            // Numbering convention: 0xx error, 1xx warning, 9xx info.
            let n: u32 = code[5..].parse().expect("numeric suffix");
            let expected = match n {
                1..=99 => Severity::Error,
                101..=199 => Severity::Warning,
                _ => Severity::Info,
            };
            assert_eq!(*severity, expected, "{code} severity breaks the convention");
        }
    }

    #[test]
    fn describe_finds_known_codes() {
        assert!(describe("LNT-R003").unwrap().contains("shared-memory"));
        assert!(describe("LNT-XXXX").is_none());
        assert_eq!(catalog_severity("LNT-R101"), Some(Severity::Warning));
    }

    #[test]
    fn render_includes_code_and_context() {
        let d = Diagnostic::error("LNT-R002", "block too large")
            .with("threads", 2048)
            .with("limit", 1024);
        let s = d.render();
        assert!(s.starts_with("error[LNT-R002]: block too large"));
        assert!(s.contains("threads = 2048"));
        assert!(s.contains("limit = 1024"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let d = Diagnostic::warning("LNT-M101", "ratio \"high\"").with("ratio", 3.5);
        let j = d.to_json();
        assert!(j.contains("\"code\":\"LNT-M101\""));
        assert!(j.contains("\"severity\":\"warning\""));
        assert!(j.contains("\\\"high\\\""));
        assert!(j.contains("\"ratio\":\"3.5\""));
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let w = Diagnostic::warning("LNT-M103", "conflicts");
        let e = Diagnostic::error("LNT-C001", "gap");
        assert!(!has_errors(std::slice::from_ref(&w)));
        assert!(has_errors(&[w, e]));
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
