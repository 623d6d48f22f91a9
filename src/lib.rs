#![warn(missing_docs)]

//! # inplane-isl
//!
//! Meta-crate for the reproduction of *"Optimizing and Auto-Tuning
//! Iterative Stencil Loops for GPUs with the In-Plane Method"* (Tang et
//! al., IPPS 2013). Re-exports the public API of every workspace crate so
//! downstream users (and the examples and integration tests in this
//! repository) need a single dependency.
//!
//! ## Crate map
//!
//! * [`grid`] — 3-D grids, the star stencil of Eqn (1), CPU references.
//! * [`sim`] — the deterministic GPU execution/timing simulator standing
//!   in for the GTX580 / GTX680 / Tesla C2070 hardware.
//! * [`core`] — the paper's contribution: forward-plane (*nvstencil*) and
//!   in-plane kernel variants, register tiling, vector-load planning.
//! * [`autotune`] — exhaustive and model-based (Eqns 6–14) auto-tuning.
//! * [`apps`] — the six application stencils of Table V.
//! * [`codegen`] — CUDA C source generation for the tuned kernels.
//! * [`temporal`] — the 3.5-D temporal-blocking baseline (§II/§V-B).
//! * [`multigpu`] — z-slab domain decomposition with halo exchange.
//!
//! ## Quickstart
//!
//! ```
//! use inplane_isl::prelude::*;
//!
//! // A 4th-order single-precision stencil on a small grid, priced and
//! // tuned on the simulated GTX580 through one evaluation context.
//! let ctx = EvalContext::new();
//! let device = DeviceSpec::gtx580();
//! let stencil = StarStencil::<f32>::from_order(4);
//! let kernel = KernelSpec::inplane(Variant::FullSlice, &stencil);
//! let dims = GridDims::new(64, 64, 32);
//! let report = ctx.evaluate(&device, &kernel, &LaunchConfig::new(32, 4, 1, 4), dims);
//! assert!(report.mpoints_per_s() > 0.0);
//!
//! let space = ParameterSpace::quick_space(&device, &kernel, &dims);
//! let best = exhaustive_tune_with(&ctx, &device, &kernel, dims, &space, 1).best;
//! assert!(best.mpoints > 0.0);
//! ```

pub use gpu_sim as sim;
pub use inplane_core as core;
pub use stencil_apps as apps;
pub use stencil_autotune as autotune;
pub use stencil_codegen as codegen;
pub use stencil_grid as grid;
pub use stencil_multigpu as multigpu;
pub use stencil_temporal as temporal;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use gpu_sim::{DeviceSpec, GridDims, SimOptions};
    pub use inplane_core::{
        CacheStats, EvalContext, KernelSpec, LaunchConfig, Method, PlanKey, Variant,
    };
    pub use stencil_autotune::{
        exhaustive_tune_with, model_based_tune_with, ParameterSpace, TuneOutcome,
    };
    pub use stencil_grid::{
        apply_reference, iterate_stencil_loop, Boundary, FillPattern, Grid3, Precision, Real,
        StarStencil,
    };
}
