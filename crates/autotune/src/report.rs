//! Human-readable tuning reports: what the paper's performance surfaces
//! (Fig 8) summarise, as numbers — distribution statistics over the
//! search space, the top candidates, and what limits them — plus the
//! cache and tune-store counters that make a run's reuse behaviour
//! observable.

use crate::exhaustive::TuneOutcome;
use gpu_sim::{DeviceSpec, GridDims, LimitingFactor};
use inplane_core::{CacheStats, EvalContext, ExecStats, KernelSpec};

/// Counters of a persistent tune store, as surfaced in a [`TuneReport`].
///
/// The store itself lives in `stencil-tunestore` (which depends on this
/// crate); this mirror struct keeps the dependency one-way while still
/// letting reports carry store behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that missed and fell through to a search.
    pub misses: u64,
    /// Persisted records skipped as corrupt (checksum/parse failures,
    /// truncated lines) or stale (schema-version mismatch) at load.
    pub corrupt: u64,
}

/// Outcome of proving the winning configuration's emitted kernel
/// source with the `stencil-lint` kernel verifier, as surfaced in a
/// [`TuneReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelVerifySummary {
    /// Backends proven: 1 for CUDA alone, 2 when the routine also has
    /// an OpenCL emitter.
    pub backends: u32,
    /// Error-severity `LNT-K…` findings across all proven backends —
    /// zero on a healthy emitter.
    pub errors: u64,
}

impl KernelVerifySummary {
    /// Run the kernel verifier on `config`'s emitted source for every
    /// supported backend, over the minimal one-block grid the sweep
    /// contract uses (`2R + WX × 2R + WY × 2R + 2`), with the GTX580's
    /// 128-byte coalescing geometry.
    pub fn for_config(kernel: &KernelSpec, config: &inplane_core::LaunchConfig) -> Self {
        let r = kernel.radius;
        let dims = (2 * r + config.tile_x(), 2 * r + config.tile_y(), 2 * r + 2);
        let gtx580 = DeviceSpec::gtx580();
        let mut diags = stencil_lint::verify_cuda_kernel_on(kernel, config, dims, &gtx580);
        let mut backends = 1;
        if kernel.method.routine().opencl_supported() {
            diags.extend(stencil_lint::verify_opencl_kernel_on(
                kernel, config, dims, &gtx580,
            ));
            backends = 2;
        }
        KernelVerifySummary {
            backends,
            errors: diags
                .iter()
                .filter(|d| d.severity == stencil_lint::Severity::Error)
                .count() as u64,
        }
    }

    /// True when no backend produced an error-severity finding.
    pub fn clean(&self) -> bool {
        self.errors == 0
    }
}

/// Distribution summary of a tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneReport {
    /// Configurations measured.
    pub evaluated: usize,
    /// Best measured MPoint/s.
    pub best: f64,
    /// Median measured MPoint/s.
    pub median: f64,
    /// Lower-quartile MPoint/s.
    pub q1: f64,
    /// Upper-quartile MPoint/s.
    pub q3: f64,
    /// Worst feasible MPoint/s.
    pub worst_feasible: f64,
    /// Ratio best / median: how much auto-tuning buys over a blind pick.
    pub tuning_gain_over_median: f64,
    /// The limiting factor of the winning configuration.
    pub best_limited_by: LimitingFactor,
    /// Counters of the evaluation context the run and its summary
    /// priced through.
    pub cache: CacheStats,
    /// Persistent tune-store counters (`None` when no store was used).
    pub store: Option<StoreCounters>,
    /// Per-code rejection histogram from the space enumeration (`None`
    /// when summarised without an audit).
    pub rejections: Option<Vec<(String, u64)>>,
    /// Instrumented counters from a functional replay of the winning
    /// configuration through the plan interpreter (`None` when the
    /// winner was not replayed).
    pub exec: Option<ExecStats>,
    /// Per-code `LNT-D…` histogram from a bounded whole-plan dataflow
    /// audit of the space (`None` when no audit ran) — what
    /// [`crate::space::ParameterSpace::dataflow_audit`] collected.
    pub dataflow: Option<Vec<(String, u64)>>,
    /// Counters the static traffic oracle predicted for the winning
    /// configuration's plan (`None` when no prediction was attached).
    /// When [`Self::exec`] is also present the two must agree exactly;
    /// rendering surfaces any drift.
    pub predicted: Option<ExecStats>,
    /// Kernel-verifier verdict on the winning configuration's emitted
    /// source (`None` when the verifier was not run).
    pub kernel_verify: Option<KernelVerifySummary>,
}

/// Nearest-rank quantile over an ascending-sorted non-empty slice.
///
/// `(len - 1) · q` is *rounded* to the nearest index — truncation would
/// bias q1/median/q3 low on small sample sets (e.g. the median of five
/// samples must be index 2, not whatever `floor` lands on for q = 0.5
/// after float noise, and q3 must be index 3, not 2).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Summarise a completed tuning run: re-price the winner through `ctx`
/// for its limiting factor, then capture `ctx`'s cache counters, so the
/// reported counters include the summary's own lookup.
pub fn summarize_with(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    outcome: &TuneOutcome,
) -> TuneReport {
    let mut feasible: Vec<f64> = outcome
        .samples
        .iter()
        .map(|s| s.mpoints)
        .filter(|&m| m > 0.0)
        .collect();
    feasible.sort_by(f64::total_cmp);
    let best = outcome.best.mpoints;
    let median = nearest_rank(&feasible, 0.5);
    let rep = ctx.evaluate(device, kernel, &outcome.best.config, dims);
    TuneReport {
        evaluated: outcome.evaluated(),
        best,
        median,
        q1: nearest_rank(&feasible, 0.25),
        q3: nearest_rank(&feasible, 0.75),
        worst_feasible: nearest_rank(&feasible, 0.0),
        tuning_gain_over_median: if median > 0.0 { best / median } else { 0.0 },
        best_limited_by: rep.limiting,
        cache: ctx.stats(),
        store: None,
        rejections: None,
        exec: None,
        dataflow: None,
        predicted: None,
        kernel_verify: None,
    }
}

impl TuneReport {
    /// Attach persistent tune-store counters (builder style).
    pub fn with_store(mut self, counters: StoreCounters) -> Self {
        self.store = Some(counters);
        self
    }

    /// Attach the space enumeration's rejection histogram (builder
    /// style) — what [`crate::space::SpaceAudit`] collected.
    pub fn with_rejections(mut self, rejections: Vec<(String, u64)>) -> Self {
        self.rejections = Some(rejections);
        self
    }

    /// Attach the instrumented counters of a functional replay of the
    /// winning configuration (builder style).
    pub fn with_exec(mut self, exec: ExecStats) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Attach a bounded dataflow audit's `LNT-D…` histogram (builder
    /// style).
    pub fn with_dataflow(mut self, histogram: Vec<(String, u64)>) -> Self {
        self.dataflow = Some(histogram);
        self
    }

    /// Attach the static traffic oracle's predicted counters for the
    /// winning configuration's plan (builder style).
    pub fn with_traffic(mut self, predicted: ExecStats) -> Self {
        self.predicted = Some(predicted);
        self
    }

    /// Attach a kernel-verifier verdict for the winning configuration
    /// (builder style) — typically [`KernelVerifySummary::for_config`].
    pub fn with_kernel_verify(mut self, verify: KernelVerifySummary) -> Self {
        self.kernel_verify = Some(verify);
        self
    }

    /// True when both a prediction and a replay are attached and they
    /// agree exactly; `None` when either side is missing.
    pub fn oracle_match(&self) -> Option<bool> {
        match (&self.predicted, &self.exec) {
            (Some(p), Some(e)) => Some(p == e),
            _ => None,
        }
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "evaluated {} configurations\n\
             best {:.0} MPoint/s (limited by {:?})\n\
             quartiles: {:.0} / {:.0} / {:.0} MPoint/s; worst feasible {:.0}\n\
             tuning gain over the median configuration: {:.2}x",
            self.evaluated,
            self.best,
            self.best_limited_by,
            self.q1,
            self.median,
            self.q3,
            self.worst_feasible,
            self.tuning_gain_over_median,
        );
        let c = self.cache;
        out.push_str(&format!(
            "\neval cache: {} hits / {} misses / {} inserts ({:.0}% hit rate)",
            c.hits,
            c.misses,
            c.inserts,
            100.0 * c.hit_rate(),
        ));
        if let Some(s) = self.store {
            out.push_str(&format!(
                "\ntune store: {} hits / {} misses / {} corrupt-or-stale skipped",
                s.hits, s.misses, s.corrupt,
            ));
        }
        if let Some(rej) = &self.rejections {
            let total: u64 = rej.iter().map(|(_, n)| n).sum();
            out.push_str(&format!("\nspace rejections ({total} coded reasons):"));
            for (code, n) in rej {
                out.push_str(&format!("\n  {code}  x{n}"));
            }
        }
        if let Some(df) = &self.dataflow {
            let total: u64 = df.iter().map(|(_, n)| n).sum();
            out.push_str(&format!("\ndataflow audit ({total} findings):"));
            for (code, n) in df {
                out.push_str(&format!("\n  {code}  x{n}"));
            }
        }
        if let Some(p) = self.predicted {
            out.push_str(&format!(
                "\ntraffic oracle: {} cells staged, {} writes, {} rotations predicted",
                p.cells_staged, p.global_writes, p.pipeline_rotations,
            ));
            match self.oracle_match() {
                Some(true) => out.push_str(" — matches the replay exactly"),
                Some(false) => out.push_str(" — DISAGREES with the replay"),
                None => {}
            }
        }
        if let Some(v) = self.kernel_verify {
            out.push_str(&format!(
                "\nkernel verify: {} backend(s) proven, {}",
                v.backends,
                if v.clean() {
                    "clean".to_string()
                } else {
                    format!("{} LNT-K error(s)", v.errors)
                },
            ));
        }
        if let Some(e) = self.exec {
            out.push_str(&format!(
                "\nwinner replay: {} blocks, {} cells staged ({} halo / {} corner), \
                 {} writes, {} barriers, {} rotations, {:.2}x redundancy",
                e.blocks,
                e.cells_staged,
                e.staged_cells_by_zone[1..5].iter().sum::<u64>(),
                e.staged_cells_by_zone[5],
                e.useful_writes(),
                e.barriers,
                e.pipeline_rotations,
                e.redundancy(),
            ));
        }
        out
    }

    /// Machine-readable JSON rendering of the report, including the
    /// winner-replay [`ExecStats`] when one was attached.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"evaluated\":{},\"best_mpoints\":{:.3},\"median_mpoints\":{:.3},\
             \"q1_mpoints\":{:.3},\"q3_mpoints\":{:.3},\"worst_feasible_mpoints\":{:.3},\
             \"tuning_gain_over_median\":{:.4},\"best_limited_by\":\"{:?}\"",
            self.evaluated,
            self.best,
            self.median,
            self.q1,
            self.q3,
            self.worst_feasible,
            self.tuning_gain_over_median,
            self.best_limited_by,
        );
        let c = self.cache;
        s.push_str(&format!(
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{}}}",
            c.hits, c.misses, c.inserts
        ));
        if let Some(st) = self.store {
            s.push_str(&format!(
                ",\"store\":{{\"hits\":{},\"misses\":{},\"corrupt\":{}}}",
                st.hits, st.misses, st.corrupt
            ));
        }
        if let Some(rej) = &self.rejections {
            let items: Vec<String> = rej
                .iter()
                .map(|(code, n)| format!("\"{code}\":{n}"))
                .collect();
            s.push_str(&format!(",\"rejections\":{{{}}}", items.join(",")));
        }
        if let Some(df) = &self.dataflow {
            let items: Vec<String> = df
                .iter()
                .map(|(code, n)| format!("\"{code}\":{n}"))
                .collect();
            s.push_str(&format!(",\"dataflow\":{{{}}}", items.join(",")));
        }
        if let Some(p) = self.predicted {
            s.push_str(&format!(
                ",\"predicted\":{{\"cells_staged\":{},\"global_writes\":{},\
                 \"barriers\":{},\"pipeline_rotations\":{},\"points_computed\":{}}}",
                p.cells_staged,
                p.global_writes,
                p.barriers,
                p.pipeline_rotations,
                p.points_computed,
            ));
            if let Some(matches) = self.oracle_match() {
                s.push_str(&format!(",\"oracle_match\":{matches}"));
            }
        }
        if let Some(v) = self.kernel_verify {
            s.push_str(&format!(
                ",\"kernel_verify\":{{\"backends\":{},\"errors\":{},\"clean\":{}}}",
                v.backends,
                v.errors,
                v.clean()
            ));
        }
        if let Some(e) = self.exec {
            let zones: Vec<String> = e.staged_cells_by_zone.iter().map(u64::to_string).collect();
            s.push_str(&format!(
                ",\"exec\":{{\"blocks\":{},\"planes_staged\":{},\"cells_staged\":{},\
                 \"staged_cells_by_zone\":[{}],\"global_writes\":{},\"barriers\":{},\
                 \"pipeline_rotations\":{},\"points_computed\":{},\
                 \"halo_planes_exchanged\":{},\"halo_cells_exchanged\":{},\
                 \"cells_copied_out\":{},\"redundancy\":{:.4}}}",
                e.blocks,
                e.planes_staged,
                e.cells_staged,
                zones.join(","),
                e.global_writes,
                e.barriers,
                e.pipeline_rotations,
                e.points_computed,
                e.halo_planes_exchanged,
                e.halo_cells_exchanged,
                e.cells_copied_out,
                e.redundancy(),
            ));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exhaustive_tune_with, ParameterSpace};
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn run() -> (EvalContext, DeviceSpec, KernelSpec, GridDims, TuneOutcome) {
        let ctx = EvalContext::new();
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 32);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let out = exhaustive_tune_with(&ctx, &dev, &k, dims, &space, 1);
        (ctx, dev, k, dims, out)
    }

    #[test]
    fn quartiles_are_ordered() {
        let (ctx, dev, k, dims, out) = run();
        let rep = summarize_with(&ctx, &dev, &k, dims, &out);
        assert!(rep.worst_feasible <= rep.q1);
        assert!(rep.q1 <= rep.median);
        assert!(rep.median <= rep.q3);
        assert!(rep.q3 <= rep.best);
        assert!(rep.tuning_gain_over_median >= 1.0);
        assert!(rep.evaluated > 0);
    }

    #[test]
    fn nearest_rank_pins_known_five_element_quartiles() {
        // Truncating (len-1)·q floors q1 to index 0 and q3 to index 2;
        // nearest-rank must land on indices 1 / 2 / 3.
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&sorted, 0.0), 10.0);
        assert_eq!(nearest_rank(&sorted, 0.25), 20.0);
        assert_eq!(nearest_rank(&sorted, 0.5), 30.0);
        assert_eq!(nearest_rank(&sorted, 0.75), 40.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 50.0);
        // Four samples: q1 rounds (3·0.25 = 0.75) up to index 1.
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&four, 0.25), 2.0);
        assert_eq!(nearest_rank(&four, 0.75), 3.0);
        // Degenerate inputs stay total.
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tuning_buys_something_real() {
        // The paper's whole §IV-C point: the spread between a blind pick
        // and the tuned optimum is large.
        let (ctx, dev, k, dims, out) = run();
        let rep = summarize_with(&ctx, &dev, &k, dims, &out);
        assert!(
            rep.tuning_gain_over_median > 1.15,
            "tuning gain {:.2}",
            rep.tuning_gain_over_median
        );
    }

    #[test]
    fn render_contains_the_numbers() {
        let (ctx, dev, k, dims, out) = run();
        let rep = summarize_with(&ctx, &dev, &k, dims, &out);
        let s = rep.render();
        assert!(s.contains("best"));
        assert!(s.contains("quartiles"));
    }

    #[test]
    fn rejections_surface_in_render() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 32);
        let (space, audit) = ParameterSpace::paper_space_audited(&dev, &k, &dims);
        let ctx = EvalContext::new();
        let out = exhaustive_tune_with(&ctx, &dev, &k, dims, &space, 1);
        let rep =
            summarize_with(&ctx, &dev, &k, dims, &out).with_rejections(audit.rejections.clone());
        let s = rep.render();
        assert!(s.contains("space rejections"), "{s}");
        assert!(s.contains("LNT-R002"), "{s}");
        // Without an audit the section is absent.
        let plain = summarize_with(&ctx, &dev, &k, dims, &out).render();
        assert!(!plain.contains("space rejections"));
    }

    #[test]
    fn exec_stats_surface_in_render_and_json() {
        let (ctx, dev, k, dims, out) = run();
        let stats = {
            use stencil_grid::{Boundary, FillPattern, Grid3, StarStencil};
            let s: StarStencil<f32> = StarStencil::from_order(4);
            let input: Grid3<f32> = FillPattern::HashNoise.build(12, 12, 12);
            let mut o = Grid3::new(12, 12, 12);
            inplane_core::execute_step(
                Method::InPlane(Variant::FullSlice),
                &s,
                &inplane_core::LaunchConfig::new(4, 4, 1, 1),
                &input,
                &mut o,
                Boundary::CopyInput,
            )
        };
        let rep = summarize_with(&ctx, &dev, &k, dims, &out).with_exec(stats);
        let rendered = rep.render();
        assert!(rendered.contains("winner replay:"), "{rendered}");
        assert!(rendered.contains("redundancy"), "{rendered}");
        let json = rep.to_json();
        for key in [
            "\"exec\":",
            "\"cells_staged\":",
            "\"staged_cells_by_zone\":",
            "\"barriers\":",
            "\"pipeline_rotations\":",
            "\"redundancy\":",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        // A plain single-step replay writes every point exactly once.
        assert!(json.contains("\"redundancy\":1.0000"), "{json}");
        // Without a replay the section is absent.
        let plain = summarize_with(&ctx, &dev, &k, dims, &out);
        assert!(!plain.render().contains("winner replay"));
        assert!(!plain.to_json().contains("\"exec\""));
    }

    #[test]
    fn dataflow_and_oracle_surface_in_render_and_json() {
        let (ctx, dev, k, dims, out) = run();
        let plan = inplane_core::lower_step(
            Method::InPlane(Variant::FullSlice),
            &inplane_core::LaunchConfig::new(4, 4, 1, 1),
            2,
            (12, 12, 10),
        );
        let predicted = stencil_lint::predict_stats(&plan);
        let dynamic = {
            use stencil_grid::{FillPattern, Grid3, StarStencil};
            let s: StarStencil<f32> = StarStencil::diffusion(2);
            let input: Grid3<f32> = FillPattern::HashNoise.build(12, 12, 10);
            let mut o = Grid3::new(12, 12, 10);
            inplane_core::interpret_plan(&plan, &s, &input, &mut o)
        };
        let hist = vec![("LNT-D103".to_string(), 4u64)];
        let rep = summarize_with(&ctx, &dev, &k, dims, &out)
            .with_dataflow(hist)
            .with_traffic(predicted)
            .with_exec(dynamic);
        assert_eq!(rep.oracle_match(), Some(true));
        let rendered = rep.render();
        assert!(rendered.contains("dataflow audit"), "{rendered}");
        assert!(rendered.contains("LNT-D103"), "{rendered}");
        assert!(
            rendered.contains("matches the replay exactly"),
            "{rendered}"
        );
        let json = rep.to_json();
        for key in ["\"dataflow\":", "\"predicted\":", "\"oracle_match\":true"] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        // A doctored prediction is called out, not silently accepted.
        let mut wrong = predicted;
        wrong.cells_staged += 1;
        let drifted = summarize_with(&ctx, &dev, &k, dims, &out)
            .with_traffic(wrong)
            .with_exec(dynamic);
        assert_eq!(drifted.oracle_match(), Some(false));
        assert!(
            drifted.render().contains("DISAGREES"),
            "{}",
            drifted.render()
        );
        assert!(drifted.to_json().contains("\"oracle_match\":false"));
        // Without attachments the sections are absent.
        let plain = summarize_with(&ctx, &dev, &k, dims, &out);
        assert_eq!(plain.oracle_match(), None);
        assert!(!plain.render().contains("dataflow audit"));
        assert!(!plain.to_json().contains("\"predicted\""));
    }

    #[test]
    fn kernel_verify_surfaces_in_render_and_json() {
        let (ctx, dev, k, dims, out) = run();
        // The winner's emitted source is proven on both backends (the
        // full-slice routine has an OpenCL emitter) with zero findings.
        let v = KernelVerifySummary::for_config(&k, &out.best.config);
        assert_eq!(v.backends, 2);
        assert!(v.clean(), "{v:?}");
        let rep = summarize_with(&ctx, &dev, &k, dims, &out).with_kernel_verify(v);
        let rendered = rep.render();
        assert!(
            rendered.contains("kernel verify: 2 backend(s) proven, clean"),
            "{rendered}"
        );
        let json = rep.to_json();
        assert!(
            json.contains("\"kernel_verify\":{\"backends\":2,\"errors\":0,\"clean\":true}"),
            "{json}"
        );
        // A dirty verdict is rendered as an error count, and without an
        // attachment the section is absent.
        let dirty =
            summarize_with(&ctx, &dev, &k, dims, &out).with_kernel_verify(KernelVerifySummary {
                backends: 1,
                errors: 3,
            });
        assert!(
            dirty.render().contains("3 LNT-K error(s)"),
            "{}",
            dirty.render()
        );
        let plain = summarize_with(&ctx, &dev, &k, dims, &out);
        assert!(!plain.render().contains("kernel verify"));
        assert!(!plain.to_json().contains("\"kernel_verify\""));
    }

    #[test]
    fn counters_surface_in_render() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 32);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let ctx = EvalContext::new();
        let out = exhaustive_tune_with(&ctx, &dev, &k, dims, &space, 1);
        let tuned = ctx.stats();
        let rep = summarize_with(&ctx, &dev, &k, dims, &out).with_store(StoreCounters {
            hits: 1,
            misses: 2,
            corrupt: 0,
        });
        // The summary re-prices the winner through the context it
        // reports: exactly one cache hit, no new pricing.
        assert_eq!(tuned.misses as usize, space.len());
        assert_eq!(ctx.stats().hits, tuned.hits + 1);
        assert_eq!(ctx.stats().misses, tuned.misses);
        assert_eq!(rep.cache, ctx.stats());
        let s = rep.render();
        assert!(s.contains("eval cache:"));
        assert!(s.contains("tune store: 1 hits / 2 misses"));
    }
}
