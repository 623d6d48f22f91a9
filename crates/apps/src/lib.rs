#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # stencil-apps
//!
//! The six real-world application stencils of the paper's Table V /
//! Fig 11, with functional (CPU-verifiable) implementations and the
//! grid-count metadata that drives their performance behaviour:
//!
//! | Stencil      | In | Out | Streamed | Coefficient grids |
//! |--------------|----|-----|----------|-------------------|
//! | Div          | 3  | 1   | 3        | 0                 |
//! | Grad         | 1  | 3   | 1        | 0                 |
//! | Hyperthermia | 10 | 1   | 1        | 9                 |
//! | Upstream     | 1  | 1   | 1        | 0                 |
//! | Laplacian    | 1  | 1   | 1        | 0                 |
//! | Poisson      | 2  | 1   | 1        | 1                 |
//!
//! The in-plane method only improves the halo loading of *streamed*
//! field grids, which is why Laplacian (all of its traffic is one
//! streamed grid) gains the most (~1.8×) and Hyperthermia (9 of 11 grids
//! are spatially varying coefficients) gains the least — §V-A's central
//! observation.

pub mod div;
pub mod grad;
pub mod hyperthermia;
pub mod inplane_exec;
pub mod laplacian;
pub mod poisson;
pub mod suite;
pub mod upstream;

pub use div::Divergence;
pub use grad::Gradient;
pub use hyperthermia::Hyperthermia;
pub use inplane_exec::{apply_multigrid_inplane, ZSeparable};
pub use laplacian::Laplacian3d;
pub use poisson::Poisson;
pub use suite::{all_apps, benchmark_app_with, AppBenchResult};
pub use upstream::Upstream;
