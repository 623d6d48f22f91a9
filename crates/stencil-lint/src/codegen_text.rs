//! Text-level lint over generated CUDA/OpenCL kernel source.
//!
//! The plan-level passes prove properties of the *abstract* schedule;
//! this pass re-checks the ones that must survive into the emitted text:
//!
//! * `LNT-T001` — exactly the routine's proven barrier count per plane
//!   (`__syncthreads()` in CUDA, `barrier(CLK_LOCAL_MEM_FENCE)` in
//!   OpenCL): two for the single-buffer routines, one for the
//!   double-buffered routine whose staging pair absorbs the reuse
//!   barrier;
//! * `LNT-T002` — the source is well-formed: it lexes, and its braces
//!   balance (a malformed emitter never compiles). Source that does not
//!   lex gets this one finding, naming the offending character, and no
//!   other;
//! * `LNT-T003` — the `#define` constants agree with the launch
//!   configuration, radius and vector width the kernel was generated
//!   for;
//! * `LNT-T004` — the staged halo index cannot exceed the shared tile
//!   width: for every vector-alignment lead `0 ≤ lead < VW`, the staged
//!   span `ceil((lead + WX + 2R) / VW) · VW` fits `SMEM_W`;
//! * `LNT-T005` — the build metadata's declared shared-memory bytes
//!   agree with the `SMEM_W × SMEM_H` formula in the source;
//! * `LNT-T101` (warning) — the static tile including alignment slack
//!   exceeds the device's per-SM capacity. A warning, not an error:
//!   configurations near the 48 KB edge are model-feasible (the §IV-C
//!   constraint uses the slack-free slab) yet their generated kernel
//!   would fail to launch — exactly the kind of gap a lint exists to
//!   surface without changing the tuning-space semantics.
//!
//! The pass reads the source through the [`crate::kernelir`] front end,
//! lexing it once: barriers and braces are counted on the token stream
//! (a barrier in a comment or string literal never counts), and the
//! `#define`s are expanded at token level and evaluated as constant
//! expressions exactly as the kernel parser sizes its arrays — so
//! tampering with derived macros like `SMEM_W` is caught, not just
//! literal drift, and a `#define` inside a comment cannot shadow the
//! real one.

use crate::diag::Diagnostic;
use crate::kernelir::lexer::{lex, TokKind};
use crate::kernelir::parser::eval_define;
use gpu_sim::DeviceSpec;
use inplane_core::resources::vector_width;
use inplane_core::{KernelSpec, LaunchConfig};
use stencil_codegen::GeneratedKernel;

/// CUDA's per-plane barrier, token by token (`__syncthreads()`).
pub const CUDA_BARRIER: &[&str] = &["__syncthreads", "(", ")"];
/// OpenCL's per-plane barrier, token by token
/// (`barrier(CLK_LOCAL_MEM_FENCE)`).
pub const OPENCL_BARRIER: &[&str] = &["barrier", "(", "CLK_LOCAL_MEM_FENCE", ")"];

/// The source text of a token: identifiers and punctuation only (the
/// two kinds a barrier is spelled in).
fn token_text(kind: &TokKind) -> Option<&str> {
    match kind {
        TokKind::Ident(s) => Some(s),
        TokKind::P(p) => Some(p),
        TokKind::Num(_) | TokKind::Str => None,
    }
}

/// Shared text checks for one kernel source. `declared_smem` is the
/// build metadata's shared-memory figure, when there is one (`LNT-T005`).
fn lint_source(
    source: &str,
    barrier: &[&str],
    spec: &KernelSpec,
    config: &LaunchConfig,
    device: Option<&DeviceSpec>,
    declared_smem: Option<usize>,
) -> Vec<Diagnostic> {
    // One lex: comments, string literals and directives never count,
    // and nothing is derived from text that does not lex.
    let lexed = match lex(source) {
        Ok(lexed) => lexed,
        Err(e) => {
            return vec![
                Diagnostic::error("LNT-T002", format!("source does not lex: {e}"))
                    .with("line", e.pos.line)
                    .with("col", e.pos.col)
                    .with("char", format!("{:?}", e.ch)),
            ];
        }
    };
    let mut diags = Vec::new();
    let routine = spec.method.routine();

    // T001: exactly the routine's proven barrier count per plane.
    let want_barriers = routine.skeleton(spec.radius).barriers_per_plane;
    let barriers = lexed
        .tokens
        .windows(barrier.len())
        .filter(|w| {
            w.iter()
                .zip(barrier)
                .all(|(t, want)| token_text(&t.kind) == Some(want))
        })
        .count();
    if barriers != want_barriers {
        let barrier_text = barrier.concat();
        diags.push(
            Diagnostic::error(
                "LNT-T001",
                format!(
                    "source issues {barriers} `{barrier_text}` barriers, the schedule proves {want_barriers}"
                ),
            )
            .with("barriers", barriers)
            .with("want", want_barriers),
        );
    }

    // T002: balanced braces.
    let count = |p: &'static str| {
        lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::P(p))
            .count()
    };
    let (open, close) = (count("{"), count("}"));
    if open != close {
        diags.push(
            Diagnostic::error(
                "LNT-T002",
                format!("source has {open} opening vs {close} closing braces"),
            )
            .with("open", open)
            .with("close", close),
        );
    }

    // T003: #define constants agree with the generation parameters.
    let define = |name: &str| eval_define(name, &lexed.defines);
    let vw = vector_width(spec).max(1);
    let expected: [(&str, i64); 6] = [
        ("TX", config.tx as i64),
        ("TY", config.ty as i64),
        ("RX", config.rx as i64),
        ("RY", config.ry as i64),
        ("R", spec.radius as i64),
        ("VW", vw as i64),
    ];
    for (name, want) in expected {
        match define(name) {
            Some(got) if got == want => {}
            Some(got) => {
                diags.push(
                    Diagnostic::error(
                        "LNT-T003",
                        format!("#define {name} evaluates to {got}, configuration says {want}"),
                    )
                    .with("define", name)
                    .with("got", got)
                    .with("want", want),
                );
            }
            None => {
                diags.push(
                    Diagnostic::error(
                        "LNT-T003",
                        format!("#define {name} is missing or not evaluable"),
                    )
                    .with("define", name),
                );
            }
        }
    }

    // T004 / T101 / T005 need the evaluated tile macros.
    let (smem_w, smem_h, wx) = (define("SMEM_W"), define("SMEM_H"), define("WX"));
    if let (Some(smem_w), Some(wx)) = (smem_w, wx) {
        // T004: the staged span must fit the tile row for every possible
        // vector lead of the tile origin.
        let r = spec.radius as i64;
        let v = vw as i64;
        for lead in 0..v {
            let span = (lead + wx + 2 * r + v - 1) / v * v;
            if span > smem_w {
                diags.push(
                    Diagnostic::error(
                        "LNT-T004",
                        format!(
                            "staged span {span} exceeds SMEM_W = {smem_w} at vector lead {lead}"
                        ),
                    )
                    .with("span", span)
                    .with("smem_w", smem_w)
                    .with("lead", lead),
                );
                break;
            }
        }
    }
    if let (Some(w), Some(h)) = (smem_w, smem_h) {
        let bytes = w * h * spec.elem_bytes as i64 * routine.staging_buffers() as i64;
        if let Some(dev) = device.filter(|dev| bytes > dev.smem_per_sm as i64) {
            diags.push(
                Diagnostic::warning(
                    "LNT-T101",
                    format!(
                        "static tile of {bytes} B (with alignment slack) exceeds {}'s {} B shared memory",
                        dev.name, dev.smem_per_sm
                    ),
                )
                .with("smem_bytes", bytes)
                .with("limit", dev.smem_per_sm),
            );
        }
        if let Some(declared) = declared_smem.filter(|&d| d as i64 != bytes) {
            diags.push(
                Diagnostic::error(
                    "LNT-T005",
                    format!(
                        "metadata declares {declared} B of shared memory, the SMEM_W x SMEM_H formula gives {bytes} B"
                    ),
                )
                .with("declared", declared)
                .with("formula", bytes),
            );
        }
    }

    diags
}

/// Lint generated CUDA source text against its generation parameters.
pub fn lint_cuda_source(
    source: &str,
    spec: &KernelSpec,
    config: &LaunchConfig,
    device: Option<&DeviceSpec>,
) -> Vec<Diagnostic> {
    lint_source(source, CUDA_BARRIER, spec, config, device, None)
}

/// Lint generated OpenCL source text against its generation parameters.
pub fn lint_opencl_source(
    source: &str,
    spec: &KernelSpec,
    config: &LaunchConfig,
    device: Option<&DeviceSpec>,
) -> Vec<Diagnostic> {
    lint_source(source, OPENCL_BARRIER, spec, config, device, None)
}

/// Lint a [`GeneratedKernel`]: the source text checks plus `LNT-T005`
/// (build metadata vs in-source shared-memory formula).
pub fn lint_cuda(
    kernel: &GeneratedKernel,
    spec: &KernelSpec,
    config: &LaunchConfig,
    device: Option<&DeviceSpec>,
) -> Vec<Diagnostic> {
    lint_source(
        &kernel.source,
        CUDA_BARRIER,
        spec,
        config,
        device,
        Some(kernel.smem_bytes),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use crate::kernelir::lexer::lex;
    use inplane_core::{Method, Variant};
    use stencil_codegen::{generate_kernel, generate_opencl_kernel};
    use stencil_grid::Precision;

    fn spec(method: Method, order: usize, p: Precision) -> KernelSpec {
        KernelSpec::star_order(method, order, p)
    }

    #[test]
    fn expression_evaluator() {
        let lexed = lex("#define TX 32\n\
             #define RX 2\n\
             #define WX (TX * RX)\n\
             #define PREC WX + 2 * 3\n\
             #define PAREN (WX + 2) * 3\n\
             #define DIVSUB WX / 4 - 1\n\
             #define NEG -WX\n\
             #define UNK UNKNOWN + 1\n\
             #define TRAIL 1 +\n\
             #define LOOP LOOP + 1\n")
        .unwrap();
        let eval = |name| eval_define(name, &lexed.defines);
        assert_eq!(eval("PREC"), Some(70));
        assert_eq!(eval("PAREN"), Some(198));
        assert_eq!(eval("DIVSUB"), Some(15));
        assert_eq!(eval("NEG"), Some(-64));
        assert_eq!(eval("UNK"), None, "unknown identifier");
        assert_eq!(eval("TRAIL"), None, "trailing operator");
        assert_eq!(eval("LOOP"), None, "recursive macro");
        assert_eq!(eval("MISSING"), None, "undefined macro");
    }

    #[test]
    fn unlexable_source_is_one_t002_and_nothing_else() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let dev = DeviceSpec::gtx580();
        let mut k = generate_kernel(&s, &c);
        let at = format!("{}:1", k.source.lines().count() + 1);
        let commented = k
            .source
            .replacen("__syncthreads();", "// __syncthreads();", 1);
        for src in [
            // Cannot compile, so it cannot lint clean.
            format!("{}@\n", k.source),
            // A commented-out barrier does not count as one.
            format!("{commented}@\n"),
            // A define in a comment does not shadow the real one.
            format!("{}@\n/* #define TX 64 */\n", k.source),
        ] {
            k.source = src;
            let d = lint_cuda(&k, &s, &c, Some(&dev));
            assert_eq!(d.len(), 1, "{d:?}");
            assert_eq!(d[0].code, "LNT-T002");
            assert!(
                d[0].message.contains("'@'") && d[0].message.contains(&at),
                "{}",
                d[0].message
            );
        }
    }

    #[test]
    fn generated_cuda_kernels_lint_clean() {
        let dev = DeviceSpec::gtx580();
        for routine in inplane_core::registry() {
            let method = routine.method();
            for p in [Precision::Single, Precision::Double] {
                for order in [2usize, 8] {
                    let s = spec(method, order, p);
                    let c = LaunchConfig::new(32, 4, 1, 2);
                    let k = generate_kernel(&s, &c);
                    let d = lint_cuda(&k, &s, &c, Some(&dev));
                    assert!(
                        d.is_empty(),
                        "{method:?} {p:?} order {order}: {:?}",
                        d.iter().map(|x| x.render()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn generated_opencl_kernels_lint_clean() {
        let dev = DeviceSpec::gtx580();
        for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
            for p in [Precision::Single, Precision::Double] {
                let s = spec(method, 4, p);
                let c = LaunchConfig::new(32, 4, 1, 2);
                let src = generate_opencl_kernel(&s, &c);
                let d = lint_opencl_source(&src, &s, &c, Some(&dev));
                assert!(
                    d.is_empty(),
                    "{method:?} {p:?}: {:?}",
                    d.iter().map(|x| x.render()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn missing_barrier_is_t001() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        let tampered = k.source.replacen("__syncthreads();", "", 1);
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T001"), "{d:?}");
    }

    #[test]
    fn commented_out_barrier_is_not_counted() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);

        // Commenting a barrier out removes it from the count: the raw
        // substring scan used to still see the token and stay silent.
        let tampered = k
            .source
            .replacen("__syncthreads();", "// __syncthreads();", 1);
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T001"), "{d:?}");

        // Conversely a barrier mentioned inside a comment adds nothing.
        let padded = format!("// reminder: __syncthreads();\n{}", k.source);
        let d = lint_cuda_source(&padded, &s, &c, None);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn commented_define_cannot_shadow_the_real_one() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        // A define inside a trailing block comment used to win the
        // line-scan's last-insert race and fake an LNT-T003.
        let padded = format!("{}\n/*\n#define TX 64\n*/\n", k.source);
        let d = lint_cuda_source(&padded, &s, &c, None);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn double_buffered_extra_barrier_is_t001() {
        // The db schedule proves ONE barrier per plane; a stray reuse
        // barrier (the single-buffer habit) must be flagged too.
        let s = spec(
            Method::InPlane(Variant::DoubleBuffered),
            4,
            Precision::Single,
        );
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        let tampered =
            k.source
                .replacen("__syncthreads();", "__syncthreads();\n__syncthreads();", 1);
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T001"), "{d:?}");
    }

    #[test]
    fn unbalanced_braces_is_t002() {
        let s = spec(Method::ForwardPlane, 2, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 1);
        let k = generate_kernel(&s, &c);
        let tampered = format!("{}}}", k.source);
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T002"), "{d:?}");
    }

    #[test]
    fn wrong_define_is_t003() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        let tampered = k.source.replace("#define TX 32", "#define TX 64");
        let d = lint_cuda_source(&tampered, &s, &c, None);
        let t003: Vec<_> = d.iter().filter(|x| x.code == "LNT-T003").collect();
        assert!(!t003.is_empty(), "{d:?}");
        assert!(t003[0].message.contains("TX"));
    }

    #[test]
    fn shrunken_tile_width_is_t004() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        // Drop the alignment slack entirely: a lead-in of VW-1 now
        // overruns the staged row.
        let tampered = k.source.replace(
            "#define SMEM_W (WX + 2 * R + 2 * VW)",
            "#define SMEM_W (WX + 2 * R)",
        );
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T004"), "{d:?}");
    }

    #[test]
    fn metadata_smem_mismatch_is_t005() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let mut k = generate_kernel(&s, &c);
        k.smem_bytes += 128;
        let d = lint_cuda(&k, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T005"), "{d:?}");
    }

    #[test]
    fn near_capacity_tile_is_t101_warning_only() {
        // (176, 4, 2, 8): model slab (354 x 34) x 4 B = 48144 <= 49152,
        // but the static tile with alignment slack is 362 x 34 x 4 =
        // 49232 B > 48 KB — the lint must warn without erroring.
        let s = spec(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
        let c = LaunchConfig::new(176, 4, 2, 8);
        let k = generate_kernel(&s, &c);
        let dev = DeviceSpec::gtx580();
        let d = lint_cuda(&k, &s, &c, Some(&dev));
        assert!(d.iter().any(|x| x.code == "LNT-T101"), "{d:?}");
        assert!(!has_errors(&d), "T101 must stay a warning: {d:?}");
    }
}
