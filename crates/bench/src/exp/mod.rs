//! Experiment implementations, one module per table/figure.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod litcompare;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod temporal_cmp;

use std::sync::Arc;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, RoutineDiag};
use stencil_autotune::{
    exhaustive_tune_selected, exhaustive_tune_with, ParameterSpace, RoutineChoice, RoutineSelector,
    TuneSample,
};
use stencil_tunestore::{JsonlDiskStore, TuneRequest, TuneService, TunerSpec};

/// The stencil orders of the paper's evaluation.
pub const ORDERS: [usize; 6] = [2, 4, 6, 8, 10, 12];

/// Open a persistent tuning service at `path`, evaluating through
/// `ctx` — the binary's one context, so service-routed and direct
/// evaluations share one cache. A store that cannot be opened degrades
/// to `None` (tuning without persistence) with a warning — never an
/// abort.
pub fn service_at(path: &str, ctx: &Arc<EvalContext>) -> Option<TuneService> {
    match JsonlDiskStore::open(path) {
        Ok(store) => Some(TuneService::new(Arc::new(store), Arc::clone(ctx))),
        Err(e) => {
            eprintln!("warning: cannot open tune store {path}: {e}; tuning without persistence");
            None
        }
    }
}

/// Build the tuning space for `kernel`, optionally restricted to thread
/// blocking only (`RX = RY = 1`, as in Fig 7) and/or the reduced quick
/// space.
pub fn space_for(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    register_blocking: bool,
    quick: bool,
) -> ParameterSpace {
    let base = if quick {
        ParameterSpace::quick_space(device, kernel, dims)
    } else {
        ParameterSpace::paper_space(device, kernel, dims)
    };
    if register_blocking {
        base
    } else {
        ParameterSpace::from_configs(
            base.configs()
                .iter()
                .copied()
                .filter(|c| !c.has_register_blocking())
                .collect(),
        )
    }
}

/// Tune `kernel` and return the best sample.
///
/// All figure/table experiments funnel through here with their
/// binary's one context: a binary that tunes the same kernel for
/// several figures prices each `(device, kernel, config, dims)` point
/// once. With `svc` (the binary's `--store` service over that same
/// context) the search routes through the persistent store, so a
/// repeated run is served from disk bit-identically without
/// re-searching.
#[allow(clippy::too_many_arguments)]
pub fn tune_best_with(
    ctx: &EvalContext,
    svc: Option<&TuneService>,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    register_blocking: bool,
    quick: bool,
    seed: u64,
) -> TuneSample {
    let space = space_for(device, kernel, &dims, register_blocking, quick);
    match svc {
        Some(svc) => {
            svc.resolve(&TuneRequest {
                device: device.clone(),
                kernel: kernel.clone(),
                dims,
                space,
                tuner: TunerSpec::Exhaustive,
                seed,
            })
            .best
        }
        None => exhaustive_tune_with(ctx, device, kernel, dims, &space, seed).best,
    }
}

/// [`tune_best_with`] with oracle-first routine selection: the
/// [`RoutineSelector`] ranks every routine that supports the problem by
/// predicted global traffic, the winner's kernel respec is tuned, and
/// both the choice (with its full ranking) and the tuned best come
/// back. Errors are the selector's coded rejection — no routine can run
/// the problem at the probe configuration.
#[allow(clippy::too_many_arguments)]
pub fn tune_best_auto(
    ctx: &EvalContext,
    svc: Option<&TuneService>,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    register_blocking: bool,
    quick: bool,
    seed: u64,
) -> Result<(RoutineChoice, TuneSample), RoutineDiag> {
    let space = space_for(device, kernel, &dims, register_blocking, quick);
    let selector = RoutineSelector::auto();
    if let Some(svc) = svc {
        let (choice, resp) = svc.resolve_selected(
            &TuneRequest {
                device: device.clone(),
                kernel: kernel.clone(),
                dims,
                space,
                tuner: TunerSpec::Exhaustive,
                seed,
            },
            &selector,
        )?;
        return Ok((choice, resp.best));
    }
    let (choice, outcome) =
        exhaustive_tune_selected(ctx, &selector, device, kernel, dims, &space, seed)?;
    Ok((choice, outcome.best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::RunOpts;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    #[test]
    fn store_option_persists_and_replays_the_sweep() {
        // `RunOpts.tune_store` alone (no environment variable) must route
        // an experiment's tuning through the persistent store: the first
        // run writes one record per tuned kernel, a rerun against the
        // same file appends none, and both print what a storeless run
        // prints.
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("bench-store-{}-{t}", std::process::id()));
        let path = dir.join("store.jsonl");
        let opts = RunOpts {
            quick: true,
            seed: 1,
            csv_dir: None,
            tune_store: Some(path.to_string_lossy().into_owned()),
        };
        let records = || std::fs::read_to_string(&path).unwrap().lines().count();
        let run = || {
            let ctx = Arc::new(EvalContext::new());
            let svc = opts.tune_service(&ctx);
            assert!(svc.is_some(), "the store must open");
            fig9::compute(&ctx, svc.as_ref(), &opts)
        };
        let plain = fig9::compute(
            &EvalContext::new(),
            None,
            &RunOpts {
                tune_store: None,
                ..opts.clone()
            },
        );
        let first = run();
        let tuned = 2 * ORDERS.len() * DeviceSpec::paper_devices().len();
        assert_eq!(records(), tuned);
        let second = run();
        assert_eq!(records(), tuned, "a warm rerun must append nothing");
        assert_eq!(first, plain);
        assert_eq!(second, plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_rb_space_has_only_unit_register_blocks() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::paper();
        let s = space_for(&dev, &k, &dims, false, true);
        assert!(!s.is_empty());
        assert!(s.configs().iter().all(|c| c.rx == 1 && c.ry == 1));
    }

    #[test]
    fn auto_selection_sweeps_gtx580_laplacian() {
        // The CI `routines` job's end-to-end check: oracle-first `Auto`
        // selection over the order-2 star (the 7-point Laplacian) on
        // the paper's GTX 580 setup, then a full quick-space tune of
        // the winner.
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let k = KernelSpec::star_order(Method::ForwardPlane, 2, Precision::Single);
        let ctx = EvalContext::new();
        let (choice, best) = tune_best_auto(&ctx, None, &dev, &k, dims, true, true, 7)
            .expect("every routine fits the paper grid");
        assert!(best.mpoints > 0.0);
        assert_eq!(
            choice.ranking.len(),
            inplane_core::registry().len(),
            "every registered routine must be oracle-ranked: {:?}",
            choice.ranking
        );
        for w in choice.ranking.windows(2) {
            assert!(w[0].global_bytes <= w[1].global_bytes);
        }
        // Deterministic: same probe, same ranking, same winner.
        let (again, best2) = tune_best_auto(&ctx, None, &dev, &k, dims, true, true, 7).unwrap();
        assert_eq!(choice, again);
        assert_eq!(best.config, best2.config);
    }

    #[test]
    fn rb_space_is_strictly_larger() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::paper();
        assert!(
            space_for(&dev, &k, &dims, true, true).len()
                > space_for(&dev, &k, &dims, false, true).len()
        );
    }
}
