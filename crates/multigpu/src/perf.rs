//! Multi-GPU scaling model.
//!
//! Per Jacobi step, each device sweeps its z-slab (priced by the
//! single-GPU timing engine) and then exchanges `r` planes with each
//! neighbour over the interconnect. With bulk-synchronous steps the
//! step time is the slowest device's sweep plus its exchange:
//!
//! ```text
//! t_step = max_d(sweep_d) + exchange(r planes per neighbour)
//! ```
//!
//! which yields the classic stencil scaling story: near-linear strong
//! scaling while slabs stay deep, saturating when the fixed per-step
//! exchange (and the shrinking slab's launch overhead) stops shrinking.

use gpu_sim::plan::GridDims;
use gpu_sim::DeviceSpec;
use inplane_core::{EvalContext, KernelSpec, LaunchConfig};

/// Interconnect characteristics for halo exchange.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interconnect {
    /// Effective point-to-point bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Per-message latency, seconds.
    pub latency_s: f64,
}

impl Interconnect {
    /// PCIe 2.0 x16 era (the paper's cards): ~6 GB/s effective, ~10 µs
    /// per transfer.
    pub fn pcie2() -> Self {
        Interconnect {
            bandwidth: 6.0e9,
            latency_s: 10e-6,
        }
    }

    /// Time to move `bytes` in one message.
    pub fn transfer_s(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bandwidth
    }
}

/// One point of a scaling curve.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Device count.
    pub devices: usize,
    /// Time per Jacobi step, seconds.
    pub step_time_s: f64,
    /// Effective MPoint/s over the global grid.
    pub mpoints_per_s: f64,
    /// Parallel efficiency vs the single-device point (0..=1+).
    pub efficiency: f64,
    /// Fraction of the step spent exchanging halos.
    pub exchange_fraction: f64,
}

/// Simulate strong scaling of `kernel` at `config` over 1..=max_devices
/// GPUs of type `device`, splitting the global `dims` into z-slabs and
/// pricing each slab sweep through `ctx`.
pub fn simulate_scaling(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    config: &LaunchConfig,
    dims: GridDims,
    interconnect: &Interconnect,
    max_devices: usize,
) -> Vec<ScalingPoint> {
    assert!(max_devices >= 1);
    let mut out = Vec::new();
    let mut t1 = None;
    for devices in 1..=max_devices {
        let slabs = crate::exec::partition(dims.lz, devices);
        let deepest = slabs.iter().map(|&(a, b)| b - a).max().unwrap();
        if deepest < kernel.radius {
            break;
        }
        // Slowest device: the deepest slab. Cached per slab depth, so
        // scaling curves over many device counts (and repeated curves
        // through one context) re-price only unseen depths.
        let slab_dims = GridDims::new(dims.lx, dims.ly, deepest);
        let sweep = ctx.evaluate(device, kernel, config, slab_dims);
        if !sweep.feasible() {
            break;
        }
        // Exchange: r planes per neighbour; interior devices have two
        // neighbours and the two directions serialise on the link.
        let neighbours = if devices == 1 { 0.0 } else { 2.0 };
        let plane_bytes = (dims.lx * dims.ly * kernel.elem_bytes) as f64;
        let exchange = neighbours * interconnect.transfer_s(kernel.radius as f64 * plane_bytes);
        let step = sweep.time_s + exchange;
        let mpoints = dims.points() as f64 / step / 1e6;
        let t_ref = *t1.get_or_insert(step);
        out.push(ScalingPoint {
            devices,
            step_time_s: step,
            mpoints_per_s: mpoints,
            efficiency: t_ref / (step * devices as f64),
            exchange_fraction: exchange / step,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn setup() -> (DeviceSpec, KernelSpec, LaunchConfig) {
        (
            DeviceSpec::gtx580(),
            KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single),
            LaunchConfig::new(128, 4, 1, 2),
        )
    }

    #[test]
    fn single_device_has_no_exchange() {
        let (dev, k, c) = setup();
        let pts = simulate_scaling(
            &EvalContext::new(),
            &dev,
            &k,
            &c,
            GridDims::paper(),
            &Interconnect::pcie2(),
            1,
        );
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].exchange_fraction, 0.0);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strong_scaling_speeds_up_but_efficiency_decays() {
        let (dev, k, c) = setup();
        let pts = simulate_scaling(
            &EvalContext::new(),
            &dev,
            &k,
            &c,
            GridDims::paper(),
            &Interconnect::pcie2(),
            8,
        );
        assert_eq!(pts.len(), 8);
        for w in pts.windows(2) {
            assert!(
                w[1].step_time_s < w[0].step_time_s,
                "{} -> {} devices must not slow down",
                w[0].devices,
                w[1].devices
            );
        }
        // Efficiency at 8 devices is below 1 (exchange + overheads).
        assert!(pts[7].efficiency < 1.0);
        assert!(
            pts[7].efficiency > 0.4,
            "efficiency {:.2}",
            pts[7].efficiency
        );
        // Exchange fraction grows with device count.
        assert!(pts[7].exchange_fraction > pts[1].exchange_fraction);
    }

    #[test]
    fn slow_interconnect_hurts() {
        let (dev, k, c) = setup();
        let slow = Interconnect {
            bandwidth: 0.5e9,
            latency_s: 50e-6,
        };
        let fast = Interconnect::pcie2();
        let p_slow = simulate_scaling(
            &EvalContext::new(),
            &dev,
            &k,
            &c,
            GridDims::paper(),
            &slow,
            4,
        );
        let p_fast = simulate_scaling(
            &EvalContext::new(),
            &dev,
            &k,
            &c,
            GridDims::paper(),
            &fast,
            4,
        );
        assert!(p_slow[3].step_time_s > p_fast[3].step_time_s);
        assert!(p_slow[3].exchange_fraction > p_fast[3].exchange_fraction);
    }

    #[test]
    fn transfer_time_arithmetic() {
        let ic = Interconnect {
            bandwidth: 1e9,
            latency_s: 1e-5,
        };
        assert!((ic.transfer_s(1e6) - (1e-5 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn higher_radius_exchanges_more() {
        let dev = DeviceSpec::gtx580();
        let c = LaunchConfig::new(64, 8, 1, 1);
        let mk = |order| {
            KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            )
        };
        let ic = Interconnect::pcie2();
        let lo = simulate_scaling(
            &EvalContext::new(),
            &dev,
            &mk(2),
            &c,
            GridDims::paper(),
            &ic,
            4,
        );
        let hi = simulate_scaling(
            &EvalContext::new(),
            &dev,
            &mk(8),
            &c,
            GridDims::paper(),
            &ic,
            4,
        );
        // Absolute exchange time (fraction × step) is 4x for r = 4 vs r = 1.
        let abs = |p: &ScalingPoint| p.exchange_fraction * p.step_time_s;
        assert!(abs(&hi[3]) > 3.5 * abs(&lo[3]));
    }
}
