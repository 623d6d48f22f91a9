//! Performance surfaces over the register-blocking plane (Fig 8).
//!
//! The paper visualises the tuning landscape by fixing the optimal
//! `(TX, TY)` and plotting measured performance over `(RX, RY)`, with
//! constraint-violating points set to zero.

use crate::space::ParameterSpace;
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig};

/// One point of a Fig 8 surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurfacePoint {
    /// Register-block factor in x.
    pub rx: usize,
    /// Register-block factor in y.
    pub ry: usize,
    /// Measured MPoint/s; 0 where the configuration violates the search
    /// constraints (as the paper plots them).
    pub mpoints: f64,
}

/// Measure the `(RX, RY)` surface at fixed `(tx, ty)` over the factors
/// `{1, 2, 4, 8}` (the paper's Fig 8 axes) through `ctx`.
pub fn performance_surface_with(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    tx: usize,
    ty: usize,
    seed: u64,
) -> Vec<SurfacePoint> {
    let mut out = Vec::with_capacity(16);
    for rx in [1usize, 2, 4, 8] {
        for ry in [1usize, 2, 4, 8] {
            let c = LaunchConfig::new(tx, ty, rx, ry);
            let mpoints = if ParameterSpace::feasible(device, kernel, &dims, &c) {
                ctx.measure(device, kernel, &c, dims, seed).mpoints_per_s()
            } else {
                0.0
            };
            out.push(SurfacePoint { rx, ry, mpoints });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    #[test]
    fn surface_has_16_points_with_zeroed_infeasibles() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
        let surf =
            performance_surface_with(&EvalContext::new(), &dev, &k, GridDims::paper(), 256, 1, 1);
        assert_eq!(surf.len(), 16);
        // (256,1,8,8) tiles 2048 in x > 512: must be zero.
        let p = surf.iter().find(|p| p.rx == 8 && p.ry == 8).unwrap();
        assert_eq!(p.mpoints, 0.0);
        // (1,1) must be feasible and positive.
        let p11 = surf.iter().find(|p| p.rx == 1 && p.ry == 1).unwrap();
        assert!(p11.mpoints > 0.0);
    }

    #[test]
    fn fig8_peak_region_for_order2_is_at_high_ry() {
        // Fig 8a: on GTX580 at (TX, TY) = (256, 1), the order-2 surface
        // peaks at RY = 8 (the paper's optimum (256, 1, 1, 8)).
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
        let surf =
            performance_surface_with(&EvalContext::new(), &dev, &k, GridDims::paper(), 256, 1, 1);
        let best = surf
            .iter()
            .max_by(|a, b| a.mpoints.total_cmp(&b.mpoints))
            .unwrap();
        assert!(best.ry >= 4, "peak at (rx={}, ry={})", best.rx, best.ry);
        // With TX = 256, RX beyond 2 cannot tile the 512-wide plane.
        assert!(best.rx <= 2, "peak at (rx={}, ry={})", best.rx, best.ry);
    }
}
