#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # stencil-grid
//!
//! The grid substrate for the in-plane iterative-stencil-loop (ISL)
//! reproduction: padded/aligned 3-D grid storage, the symmetric star
//! stencil of the paper's Eqn (1), CPU reference executors (the golden
//! model every GPU-emulated kernel is verified against), the iterative
//! Jacobi driver of Fig. 1, and verification utilities.
//!
//! The paper computes, for a stencil of radius `r` (order `2r`):
//!
//! ```text
//! out[i,j,k] = c0 * in[i,j,k]
//!            + sum_{m=1..r} c_m * ( in[i±m,j,k] + in[i,j±m,k] + in[i,j,k±m] )
//! ```
//!
//! which touches `6r + 1` neighbours, makes `6r + 2` memory references per
//! element (including the output write) and costs `7r + 1` flops
//! (Table I). The in-plane formulation of the same operator costs `8r + 1`
//! flops at unchanged data references (Table II).

pub mod boundary;
pub mod grid;
pub mod init;
pub mod iterate;
pub mod multigrid;
pub mod pipeline;
pub mod real;
pub mod reference;
pub mod stencil;
pub mod util;
pub mod verify;

pub use boundary::Boundary;
pub use grid::Grid3;
pub use init::FillPattern;
pub use iterate::{iterate_stencil_loop, IterationStats};
pub use multigrid::{apply_multigrid, GridSet, MultiGridKernel};
pub use pipeline::RegisterPipeline;
pub use real::{Precision, Real};
pub use reference::{apply_reference, apply_reference_inplane_order};
pub use stencil::StarStencil;
pub use util::{read_grid, stats, subgrid, total, write_grid, GridStats};
pub use verify::{default_tolerance, max_abs_diff, max_rel_diff, verify_close, VerifyReport};
