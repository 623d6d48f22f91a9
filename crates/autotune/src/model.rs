//! The paper's analytic performance model — §VI, Eqns (6)–(14) —
//! implemented as faithfully as the text allows.
//!
//! ```text
//! Blks    = (LX·LY) / ((TX·RX)(TY·RY))                           (6)
//! ActBlks = min(⌊Reg/K_R⌋, ⌊Smem/K_S⌋, ⌊Warp_SM/Warp_Blk⌋, Blk_SM) (7)
//! Stages  = ⌈Blks / (SM · ActBlks)⌉                               (8)
//! RemBlks = ⌈(Blks − (Stages−1)·ActBlks·SM) / SM⌉                 (9)
//! T_m     = Lat/Clock + Bytes_Blk / BW_SM                        (10)
//! T_c     = ActBlks · Ops · RX·RY · Warp_Blk / Clock             (11)
//! T_s     = f(ActBlks) · T_m + ActBlks · T_c                     (12)
//! T_l     = f(RemBlks) · T_m + RemBlks · T_c                     (13)
//! Perf    = (LX·LY) / (T_s · (Stages − 1) + T_l)                 (14)
//! ```
//!
//! `Bytes_Blk` is the closed-form per-plane traffic of one block (slab
//! reads plus tile writes — no address-level coalescing detail), and
//! `f(·)` is the linear latency-hiding interpolation the paper
//! specifies: perfect hiding (value 1) at full occupancy, full
//! serialisation (value `arg`) with a single resident warp.
//!
//! The model deliberately ignores bank conflicts, scheduling overhead
//! and cache effects — the paper says so — which is why its ranking only
//! *approximates* the simulator's "measurements" (the gap Fig 12
//! quantifies). For Eqn (11) we normalise the instruction-throughput
//! constant so `T_c` is in seconds of SM compute time; the paper leaves
//! that constant implicit and it does not affect the ranking.

use gpu_sim::occupancy::{active_blocks, BlockResources};
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::resources::{regs_per_thread, smem_bytes};
use inplane_core::{KernelSpec, LaunchConfig};

/// The paper's `f(arg)`: between 1 (perfect hiding at full occupancy)
/// and `arg` (full serialisation at one resident warp), linear in the
/// number of resident warps.
pub fn latency_overlap_factor(device: &DeviceSpec, arg: f64, warps_per_block: usize) -> f64 {
    if arg <= 1.0 {
        // A single resident block still overlaps within itself only; the
        // factor is defined on [1, arg] so it degenerates to 1.
        return 1.0;
    }
    let total_warps = arg * warps_per_block as f64;
    let full = device.max_warps_per_sm as f64;
    // A device that can hold only one resident warp has nothing to
    // hide latency with: the interpolation's denominator (full - 1)
    // degenerates, so pin the factor at full serialisation instead of
    // dividing by zero.
    let hide = if full <= 1.0 {
        0.0
    } else {
        ((total_warps - 1.0) / (full - 1.0)).clamp(0.0, 1.0)
    };
    // hide = 1 → factor 1; hide = 0 → factor arg.
    arg - (arg - 1.0) * hide
}

/// Closed-form per-plane bytes of one block (Eqn (10)'s `Bytes_Blk`):
/// halo-framed slab reads for every streamed grid, interior reads for
/// coefficient grids, interior writes for outputs.
///
/// The transaction granularity the model assumes is the device's
/// `coalesce_segment_bytes` — the padding granule its host allocator
/// rounds rows to (128 bytes on every NVIDIA preset, Fermi's cached-
/// load segment; 64 bytes on GCN-class wave64 parts). The paper's
/// model was built against Fermi cards; §VI attributes its worst
/// mis-rankings (~6%, on the GTX680) to "architectural differences in
/// the newer Kepler cards which the model does not capture" —
/// Kepler's 32-byte L2 sectors being exactly such a difference. The
/// model therefore keeps the *allocation* granule rather than chasing
/// per-generation sector sizes, and Fig 12 measures the consequence.
///
/// Bytes are *bus* bytes: each row is rounded up to whole memory
/// transactions of `segment_bytes` — without this, the model grossly
/// overrates narrow tiles whose rows use a fraction of every segment.
/// The model still knows nothing about alignment, vector-load extension,
/// loading-variant patterns or caches; those live only in the simulator.
pub fn bytes_per_block_plane(
    kernel: &KernelSpec,
    config: &LaunchConfig,
    segment_bytes: u64,
) -> f64 {
    let r = kernel.radius;
    let (wx, wy) = (config.tile_x(), config.tile_y());
    let seg = segment_bytes as f64;
    let row_bytes = |elems: usize| (elems * kernel.elem_bytes) as f64 / seg;
    let slab = (wy + 2 * r) as f64 * row_bytes(wx + 2 * r).ceil() * seg;
    let tile = wy as f64 * row_bytes(wx).ceil() * seg;
    slab * kernel.streamed_inputs as f64
        + tile * kernel.coeff_inputs as f64
        + tile * kernel.outputs as f64
}

/// Predict the performance of `(kernel, config)` in MPoint/s using the
/// paper's model. Returns 0 for configurations with no resident block.
pub fn predict_mpoints(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    config: &LaunchConfig,
    dims: &GridDims,
) -> f64 {
    // Eqn (7) via the occupancy calculator (the paper's min(...) with
    // hardware granularities).
    let res = BlockResources {
        threads: config.threads(),
        regs_per_thread: regs_per_thread(kernel, config),
        smem_bytes: smem_bytes(kernel, config),
    };
    let occ = active_blocks(device, &res);
    if occ.active_blocks == 0 {
        return 0.0;
    }
    let act_blks = occ.active_blocks as f64;
    let warp_blk = config.threads().div_ceil(device.warp_size);

    // Eqn (6): blocks per plane (ceil for non-dividing tiles).
    let blks = config.blocks_per_plane(dims.lx, dims.ly) as f64;

    // Eqns (8)-(9).
    let per_round = device.sm_count as f64 * act_blks;
    let stages = (blks / per_round).ceil().max(1.0);
    let rem_blks = ((blks - (stages - 1.0) * per_round) / device.sm_count as f64)
        .ceil()
        .max(1.0);

    // Eqn (10): memory time of one block-plane, split into its latency
    // component (hidable, scaled by f(·) in Eqns (12)-(13)) and its
    // bandwidth component (DRAM bytes are additive across blocks and can
    // never be hidden). Applying f to the *whole* T_m, as a literal
    // reading of Eqn (12) would, under-counts bandwidth ActBlks-fold at
    // full occupancy and cannot reproduce the paper's reported accuracy.
    let t_lat = device.mem_latency_cycles / device.clock_hz();
    let t_bw = bytes_per_block_plane(kernel, config, device.coalesce_segment_bytes)
        / device.bandwidth_per_sm();

    // Eqn (11): compute time of one block-plane, seconds, normalised by
    // the SM's flop throughput for the element width.
    let flops_per_block = (kernel.flops_per_point * config.tile_x() * config.tile_y()) as f64;
    let t_c_one =
        flops_per_block / (device.flops_per_cycle_per_sm(kernel.elem_bytes) * device.clock_hz());

    // Eqns (12)-(13).
    let t_s =
        latency_overlap_factor(device, act_blks, warp_blk) * t_lat + act_blks * (t_bw + t_c_one);
    let t_l =
        latency_overlap_factor(device, rem_blks, warp_blk) * t_lat + rem_blks * (t_bw + t_c_one);

    // Eqn (14): points per plane over per-plane time.
    let plane_time = t_s * (stages - 1.0) + t_l;
    (dims.lx * dims.ly) as f64 / plane_time / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn kernel(order: usize) -> KernelSpec {
        KernelSpec::star_order(
            Method::InPlane(Variant::FullSlice),
            order,
            Precision::Single,
        )
    }

    #[test]
    fn infeasible_config_predicts_zero() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 12, Precision::Double);
        let p = predict_mpoints(
            &dev,
            &k,
            &LaunchConfig::new(32, 32, 1, 8),
            &GridDims::paper(),
        );
        assert_eq!(p, 0.0);
    }

    #[test]
    fn predictions_are_positive_and_finite() {
        let dev = DeviceSpec::gtx580();
        let k = kernel(4);
        let p = predict_mpoints(
            &dev,
            &k,
            &LaunchConfig::new(64, 4, 1, 2),
            &GridDims::paper(),
        );
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn prediction_in_plausible_range() {
        // Order-2 SP on GTX580 near the paper's optimum: the model should
        // land within a factor ~2 of the ~17 GPoint/s scale.
        let dev = DeviceSpec::gtx580();
        let k = kernel(2);
        let p = predict_mpoints(
            &dev,
            &k,
            &LaunchConfig::new(256, 1, 1, 8),
            &GridDims::paper(),
        );
        assert!((6000.0..40000.0).contains(&p), "predicted {p} MPoint/s");
    }

    #[test]
    fn higher_order_predicts_slower() {
        let dev = DeviceSpec::gtx580();
        let c = LaunchConfig::new(64, 4, 1, 2);
        let p2 = predict_mpoints(&dev, &kernel(2), &c, &GridDims::paper());
        let p12 = predict_mpoints(&dev, &kernel(12), &c, &GridDims::paper());
        assert!(p2 > p12);
    }

    #[test]
    fn dp_predicts_slower_than_sp() {
        let dev = DeviceSpec::c2070();
        let c = LaunchConfig::new(64, 4, 1, 2);
        let sp = predict_mpoints(&dev, &kernel(4), &c, &GridDims::paper());
        let dp = predict_mpoints(
            &dev,
            &KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Double),
            &c,
            &GridDims::paper(),
        );
        assert!(dp < sp);
    }

    #[test]
    fn latency_overlap_endpoints() {
        let dev = DeviceSpec::gtx580();
        // Full occupancy: 6 blocks × 8 warps = 48 → perfect hiding → 1.
        assert!((latency_overlap_factor(&dev, 6.0, 8) - 1.0).abs() < 1e-12);
        // One block of one warp → full serialisation → arg.
        assert!((latency_overlap_factor(&dev, 1.0, 1) - 1.0).abs() < 1e-12);
        // Two blocks of one warp each: barely any hiding.
        let f = latency_overlap_factor(&dev, 2.0, 1);
        assert!(f > 1.9 && f <= 2.0, "{f}");
    }

    #[test]
    fn single_resident_warp_device_stays_finite() {
        // max_warps_per_sm == 1 degenerates the hiding interpolation's
        // (full - 1) denominator; the factor must pin at full
        // serialisation (= arg), not divide by zero.
        let mut dev = DeviceSpec::gtx580();
        dev.max_warps_per_sm = 1;
        for arg in [1.0, 2.0, 6.0] {
            let f = latency_overlap_factor(&dev, arg, 4);
            assert!(f.is_finite(), "arg {arg}: {f}");
            assert!((f - arg).abs() < 1e-12, "arg {arg}: {f}");
        }
        let p = predict_mpoints(
            &dev,
            &kernel(4),
            &LaunchConfig::new(64, 4, 1, 2),
            &GridDims::paper(),
        );
        assert!(p.is_finite() && p >= 0.0, "{p}");
    }

    #[test]
    fn model_predicts_on_every_registered_device() {
        let c = LaunchConfig::new(64, 4, 1, 2);
        for dev in DeviceSpec::all_devices() {
            let p = predict_mpoints(&dev, &kernel(4), &c, &GridDims::paper());
            assert!(p.is_finite() && p > 0.0, "{}: {p}", dev.name);
        }
    }

    #[test]
    fn bytes_per_block_plane_closed_form() {
        let k = kernel(2); // r = 1, 1 streamed in, 1 out, SP
        let c = LaunchConfig::new(32, 4, 1, 2);
        // slab rows: 10 rows of 34 SP elements = 136 B -> 2 segments;
        // store rows: 8 rows of 32 elements = 128 B -> 1 segment.
        assert_eq!(
            bytes_per_block_plane(&k, &c, 128),
            (10.0 * 2.0 + 8.0 * 1.0) * 128.0
        );
        // On Kepler's 32-byte sectors the rounding is finer.
        assert_eq!(
            bytes_per_block_plane(&k, &c, 32),
            (10.0 * 5.0 + 8.0 * 4.0) * 32.0
        );
    }

    #[test]
    fn model_ranking_correlates_with_simulator() {
        // Spearman-ish sanity: over a spread of configs, the model's
        // ranking should broadly agree with the detailed simulator
        // (the whole premise of §VI's model-based tuning).
        let ctx = inplane_core::EvalContext::new();
        let dev = DeviceSpec::gtx580();
        let k = kernel(4);
        let dims = GridDims::paper();
        let configs = [
            LaunchConfig::new(16, 2, 1, 1),
            LaunchConfig::new(32, 4, 1, 1),
            LaunchConfig::new(64, 8, 1, 1),
            LaunchConfig::new(128, 4, 1, 2),
            LaunchConfig::new(64, 8, 2, 2),
            LaunchConfig::new(256, 2, 1, 4),
        ];
        let mut pairs: Vec<(f64, f64)> = configs
            .iter()
            .map(|c| {
                (
                    predict_mpoints(&dev, &k, c, &dims),
                    ctx.evaluate(&dev, &k, c, dims).mpoints_per_s(),
                )
            })
            .collect();
        // Count concordant pairs.
        let mut concordant = 0;
        let mut total = 0;
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for i in 0..pairs.len() {
            for j in i + 1..pairs.len() {
                total += 1;
                if pairs[j].1 >= pairs[i].1 {
                    concordant += 1;
                }
            }
        }
        assert!(
            concordant * 3 >= total * 2,
            "model ranking too discordant: {concordant}/{total}"
        );
    }
}
