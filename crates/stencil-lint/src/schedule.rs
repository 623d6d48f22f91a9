//! Pricing-plan schedule checks: the barrier count and the
//! register-pipeline depth the *priced* [`PlanePlan`] and the resource
//! model declare, against the routine's schedule skeleton (§III-C).
//!
//! * `LNT-S003` — the plan's `syncthreads` per plane is exactly the
//!   skeleton's `barriers_per_plane`: stage barrier + reuse barrier for
//!   the single-buffer routines, stage barrier only for the
//!   double-buffered routine;
//! * `LNT-S004` — the resource model's register estimate carries exactly
//!   the method's pipeline depth: `2r + 1` z-values forward-plane, `r`
//!   queued partials + `r` trailing z-values in-plane.
//!
//! The happens-before proof over the *lowered* schedule (a read of a
//! staged cell no barrier has fenced, `LNT-S002`) and the lowered
//! barrier-count and `BeginBlock`-depth checks (`LNT-D007`) run in
//! [`crate::dataflow`], over every block and plane of the whole plan.

use crate::diag::Diagnostic;
use gpu_sim::plan::PlanePlan;
use inplane_core::resources::{regs_per_thread, vector_width, BASE_REGS};
use inplane_core::{KernelSpec, LaunchConfig};

/// The method's specified register-pipeline depth in words per point:
/// `2r + 1` forward-plane, `2r` (queue + z-history) in-plane.
/// Read off the routine's schedule skeleton — the one table
/// the lowering, the resource model and this proof all share.
pub fn expected_pipeline_words(kernel: &KernelSpec) -> usize {
    kernel.method.routine().pipeline_words(kernel.radius)
}

/// Schedule checks for `(kernel, config)` against the priced `plan`:
/// its declared barrier count (`LNT-S003`) and the resource model's
/// pipeline registers (`LNT-S004`).
pub fn check_schedule(
    kernel: &KernelSpec,
    config: &LaunchConfig,
    plan: &PlanePlan,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let proven = kernel
        .method
        .routine()
        .skeleton(kernel.radius)
        .barriers_per_plane;
    if plan.syncthreads != proven as u64 {
        diags.push(
            Diagnostic::error(
                "LNT-S003",
                format!(
                    "plan declares {} barriers per plane, the routine's schedule proves {proven}",
                    plan.syncthreads
                ),
            )
            .with("plan_syncthreads", plan.syncthreads)
            .with("proven", proven),
        );
    }
    diags.extend(check_pipeline_depth(
        kernel,
        config,
        regs_per_thread(kernel, config),
    ));
    diags
}

/// Prove `claimed_regs` (a per-thread register estimate for `(kernel,
/// config)`) carries exactly the method's specified pipeline depth:
/// `2r + 1` words per point forward-plane, `2r` in-plane, on top of the
/// base/coefficient/vector-staging overheads. `LNT-S004` on mismatch.
pub fn check_pipeline_depth(
    kernel: &KernelSpec,
    config: &LaunchConfig,
    claimed_regs: usize,
) -> Option<Diagnostic> {
    let r = kernel.radius;
    let regs_per_word = kernel.elem_bytes / 4;
    let expected_pipeline =
        expected_pipeline_words(kernel) * config.points_per_thread() * regs_per_word;
    let coeffs = if kernel.coeff_inputs == 0 {
        (r + 1).min(6) * regs_per_word
    } else {
        0
    };
    let vector_tmp = if vector_width(kernel) > 1 {
        2 * regs_per_word
    } else {
        regs_per_word
    };
    let derived_pipeline = claimed_regs.saturating_sub(BASE_REGS + coeffs + vector_tmp);
    if derived_pipeline != expected_pipeline {
        return Some(
            Diagnostic::error(
                "LNT-S004",
                format!(
                    "register estimate carries {derived_pipeline} pipeline registers, the {} method specifies {expected_pipeline} ({} words/point)",
                    kernel.method.routine().label(),
                    expected_pipeline_words(kernel)
                ),
            )
            .with("derived", derived_pipeline)
            .with("expected", expected_pipeline)
            .with("words_per_point", expected_pipeline_words(kernel)),
        );
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use gpu_sim::DeviceSpec;
    use inplane_core::layout::TileGeometry;
    use inplane_core::loadplan::build_plane_plan_on;
    use inplane_core::{registry, Method, Variant};
    use stencil_grid::Precision;

    fn geom(c: &LaunchConfig, r: usize) -> TileGeometry {
        TileGeometry::interior(c, r, 4, 512, 128)
    }

    fn spec(method: Method, order: usize) -> KernelSpec {
        KernelSpec::star_order(method, order, Precision::Single)
    }

    #[test]
    fn all_routines_prove_clean() {
        for rt in registry() {
            for order in [2usize, 4, 8, 12] {
                let c = LaunchConfig::new(32, 8, 1, 1);
                let g = geom(&c, order / 2);
                let k = spec(rt.method(), order);
                let plan = build_plane_plan_on(&k, &c, &g, &DeviceSpec::gtx580());
                let d = check_schedule(&k, &c, &plan);
                assert!(
                    !has_errors(&d),
                    "{} order {order}: {:?}",
                    rt.label(),
                    d.iter().map(|x| x.render()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn wrong_barrier_count_is_s003() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 1);
        let k = spec(Method::InPlane(Variant::FullSlice), 2);
        let mut plan = build_plane_plan_on(&k, &c, &g, &DeviceSpec::gtx580());
        plan.syncthreads = 3;
        let d = check_schedule(&k, &c, &plan);
        assert!(d.iter().any(|x| x.code == "LNT-S003"), "{d:?}");
    }

    #[test]
    fn tampered_pipeline_depth_is_s004() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let k = spec(Method::ForwardPlane, 4);
        let honest = regs_per_thread(&k, &c);
        assert!(check_pipeline_depth(&k, &c, honest).is_none());
        // A register estimate that dropped one pipeline word per point.
        let d = check_pipeline_depth(&k, &c, honest - c.points_per_thread()).unwrap();
        assert_eq!(d.code, "LNT-S004");
        // A forward-plane estimate claimed for an in-plane spec: one word
        // per point too many.
        let mut lying = k.clone();
        lying.method = Method::InPlane(Variant::Classical);
        let d2 = check_pipeline_depth(&lying, &c, honest).unwrap();
        assert_eq!(d2.code, "LNT-S004");
    }

    #[test]
    fn pipeline_depths_match_table() {
        for order in [2usize, 4, 8] {
            let r = order / 2;
            assert_eq!(
                expected_pipeline_words(&spec(Method::ForwardPlane, order)),
                2 * r + 1
            );
            assert_eq!(
                expected_pipeline_words(&spec(Method::InPlane(Variant::FullSlice), order)),
                2 * r
            );
        }
    }
}
