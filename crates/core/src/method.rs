//! The stencil computation methods the paper compares, as plain tags.
//!
//! [`Method`] and [`Variant`] only *name* a registered routine; every
//! fact about one lives on its [`crate::routine::Routine`], which
//! [`Method::routine`] looks up.

use std::fmt;

/// Memory-loading variants of the in-plane method (Fig 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Fig 6(a): interior loaded first, then each halo separately with
    /// thread-index addressing — the same inefficient pattern as
    /// *nvstencil* (Fig 4). Representable but excluded from the paper's
    /// evaluation ("we leave this variant out").
    Classical,
    /// Fig 6(b): top and bottom halos merged with the interior (one
    /// vectorised slab of full rows); left and right halos loaded
    /// separately as columns.
    Vertical,
    /// Fig 6(c): left and right halos merged into the interior rows
    /// (rows of `TX·RX + 2r`); top and bottom halos loaded as separate
    /// full-width rows. No corners loaded.
    Horizontal,
    /// Fig 6(d): the whole `(TX·RX + 2r) × (TY·RY + 2r)` slice loaded as
    /// one uniform region — corners included (`4r²` redundant elements,
    /// independent of block size) — with warp-aligned vector loads.
    FullSlice,
    /// Full-slice loading into *two* rotated shared-memory staging
    /// buffers (the `sync_buffer_cyclic` shape): the next plane stages
    /// while the current plane computes, dropping the per-plane reuse
    /// barrier at the cost of doubling the staging footprint. Not in
    /// the paper; shipped via the open routine registry.
    DoubleBuffered,
}

/// A stencil computation method: what plane is loaded relative to the
/// plane being written, and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// The conventional 2.5-D forward-plane method of the Nvidia SDK
    /// sample (*nvstencil*, Fig 5a): the loaded plane leads the output
    /// plane by `r`; every output is computed in full from registers
    /// (z-terms) and shared memory (xy-terms). Scalar classical loading.
    ForwardPlane,
    /// The proposed in-plane method (Fig 5b): the loaded plane coincides
    /// with the halo/output plane; outputs are accumulated incrementally
    /// through a depth-`r` register pipeline (Eqns (3)–(5)).
    InPlane(Variant),
}

/// The stable routine-registry code of a method: 0 forward-plane,
/// `1 + variant` in-plane. These values predate the registry (they were
/// the hand-maintained `method_code` folds in `PlanKey` and `TuneKey`)
/// and are frozen — [`crate::routine::Routine::id`] reproduces them.
pub(crate) fn method_code(method: Method) -> u64 {
    match method {
        Method::ForwardPlane => 0,
        Method::InPlane(v) => 1 + v as u64,
    }
}

impl Method {
    /// The registered [`crate::routine::Routine`] this tag names — the
    /// one sanctioned `Method` dispatch in the workspace. Every routine
    /// fact (label, flops, pipeline depth, loading pattern) is answered
    /// by the routine, never by the tag.
    pub fn routine(&self) -> &'static dyn crate::routine::Routine {
        // The registry is dense and in stable-id order, so the frozen
        // code is the routine's index.
        crate::routine::registry()[method_code(*self) as usize]
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.routine().label())
    }
}
