//! End-to-end persistence: a tuning sweep resolved through a
//! [`TuneService`] backed by a [`JsonlDiskStore`] must (a) be served
//! bit-identically from disk on a repeat run with zero re-search, and
//! (b) degrade to a full re-tune — never a panic — when the store file
//! is corrupted wholesale.
//!
//! CI runs `store_cold_then_warm_is_bit_identical` twice against one
//! shared tmpdir by setting `INPLANE_TUNE_STORE` to the same path for
//! both invocations; the second invocation additionally sets
//! `INPLANE_TUNE_STORE_EXPECT_WARM=1`, which asserts that the sweep was
//! actually served from the persisted records of the first.

use std::path::PathBuf;
use std::sync::Arc;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_autotune::{ParameterSpace, Provenance};
use stencil_grid::Precision;
use stencil_tunestore::{JsonlDiskStore, TuneRequest, TuneResponse, TuneService, TunerSpec};

fn scratch_path(tag: &str) -> PathBuf {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir()
        .join(format!("tune-store-it-{tag}-{}-{t}", std::process::id()))
        .join("store.jsonl")
}

/// A small but real sweep: two devices x two orders, exhaustive and
/// model-based, over the quick space.
fn sweep(svc: &TuneService) -> Vec<TuneResponse> {
    let dims = GridDims::new(256, 256, 32);
    let mut out = Vec::new();
    for dev in [DeviceSpec::gtx580(), DeviceSpec::gtx680()] {
        for order in [2usize, 4] {
            let kernel = KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            );
            let space = ParameterSpace::quick_space(&dev, &kernel, &dims);
            for tuner in [
                TunerSpec::Exhaustive,
                TunerSpec::ModelBased { beta_percent: 5.0 },
            ] {
                out.push(svc.resolve(&TuneRequest {
                    device: dev.clone(),
                    kernel: kernel.clone(),
                    dims,
                    space: space.clone(),
                    tuner,
                    seed: 1,
                }));
            }
        }
    }
    out
}

fn service_over(path: &PathBuf) -> TuneService {
    TuneService::new(
        Arc::new(JsonlDiskStore::open(path).expect("store must open")),
        Arc::new(EvalContext::new()),
    )
}

#[test]
fn store_cold_then_warm_is_bit_identical() {
    let env_path = std::env::var("INPLANE_TUNE_STORE")
        .ok()
        .filter(|p| !p.is_empty());
    let expect_warm = std::env::var("INPLANE_TUNE_STORE_EXPECT_WARM").as_deref() == Ok("1");
    let (path, from_env) = match env_path {
        Some(p) => (PathBuf::from(p), true),
        None => (scratch_path("coldwarm"), false),
    };

    // First pass: resolves either compute (cold store) or hit records a
    // previous process persisted (warm CI re-run).
    let first = service_over(&path);
    let first_responses = sweep(&first);
    assert!(!first_responses.is_empty());
    if expect_warm {
        assert!(
            first.store().stats().hits >= 1,
            "warm re-run must be served from the persisted store, got {:?}",
            first.store().stats()
        );
        assert!(
            first_responses
                .iter()
                .all(|r| r.provenance == Provenance::Store),
            "warm re-run must not re-search"
        );
    }

    // Second pass, fresh service over the same file: every result is
    // served from disk, bit-identical, with zero re-search.
    let second = service_over(&path);
    let second_responses = sweep(&second);
    assert_eq!(second.stats().computed, 0, "no re-search on a warm store");
    assert_eq!(
        second.stats().served_from_store,
        second_responses.len() as u64
    );
    for (a, b) in first_responses.iter().zip(&second_responses) {
        assert_eq!(b.provenance, Provenance::Store);
        assert_eq!(a.best.config, b.best.config, "best config must persist");
        assert_eq!(
            a.best.mpoints.to_bits(),
            b.best.mpoints.to_bits(),
            "stored throughput must round-trip bit-exactly"
        );
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.key_hash, b.key_hash);
    }

    if !from_env {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

#[test]
fn corrupted_store_degrades_to_full_retune() {
    let path = scratch_path("corrupt");

    // Seed the store with a real sweep.
    let seeded = service_over(&path);
    let originals = sweep(&seeded);
    assert!(seeded.stats().computed > 0);

    // Trash every line: flip bytes in the middle of the file and append
    // garbage. Nothing parseable (or checksum-clean) remains.
    let mut bytes = std::fs::read(&path).unwrap();
    for b in bytes.iter_mut().skip(8).step_by(5) {
        *b = b'#';
    }
    bytes.extend_from_slice(b"\n{\"crc\":\"00\",\"rec\":{}}\nutter garbage\n");
    std::fs::write(&path, bytes).unwrap();

    // Reopen: the loader skips everything, counts it, and the service
    // recomputes the sweep from scratch — identical results, no panic.
    let recovered = service_over(&path);
    assert_eq!(recovered.store().len(), 0, "no corrupt record may load");
    assert!(recovered.store().stats().skipped() > 0);
    let recomputed = sweep(&recovered);
    assert_eq!(recovered.stats().served_from_store, 0);
    assert_eq!(
        recovered.stats().computed + recovered.stats().warm_started,
        recomputed.len() as u64
    );
    for (a, b) in originals.iter().zip(&recomputed) {
        assert_eq!(a.best.config, b.best.config);
        assert_eq!(
            a.best.mpoints.to_bits(),
            b.best.mpoints.to_bits(),
            "deterministic evaluation: a re-tune reproduces the same result"
        );
    }

    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
