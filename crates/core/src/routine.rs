//! The open routine registry: every execution strategy as a drop-in
//! [`Routine`] trait object instead of an arm of a closed enum.
//!
//! A routine owns three things:
//!
//! * **legality** — [`Routine::supports`] judges a [`ProblemSpec`] and
//!   returns a coded [`RoutineDiag`] (surfaced by `stencil-lint` as an
//!   `LNT-R*` diagnostic) instead of panicking;
//! * **shape** — a typed [`Blueprint`] carrying the tile extent, the
//!   pipeline word count and the per-plane [`ScheduleSkeleton`] that
//!   every downstream layer (lowering, dataflow proof, schedule proof,
//!   codegen, resource model) reads instead of matching on
//!   [`Method`];
//! * **lowering** — [`Routine::lower`] produces the [`StagePlan`] the
//!   single instrumented interpreter runs. The default implementation,
//!   [`lower_blueprint`], is entirely skeleton-driven: a new routine
//!   that can describe itself as a skeleton gets lowering, the
//!   differential suite, the dataflow proof, the traffic oracle and the
//!   tamper property *for free*.
//!
//! Routine identities are stable `u64` codes ([`Routine::id`]) that
//! feed `PlanKey` and `TuneKey` hashing: ids 0–4 reproduce the legacy
//! `method_code` values exactly, so tunes stored before this registry
//! existed still warm-start. [`Method`] remains only as a tag whose
//! [`Method::routine`] is the one sanctioned enum match in the
//! workspace; every routine fact (label, flops, pipeline depth) lives
//! here.
//!
//! The registry ships six routines: the five paper methods plus
//! [`Variant::DoubleBuffered`] — two shared-memory staging buffers
//! rotated per plane (the `sync_buffer_cyclic` shape) so the next
//! plane's stage overlaps the current plane's compute, which drops the
//! per-plane reuse barrier.

use crate::config::LaunchConfig;
use crate::method::{Method, Variant};
use crate::plan::{
    halo_arms, ComputeKind, PipelineFeed, PipelineKind, PlanOp, PlanRect, StagePlan, StageSource,
    Zone, INPUT_BUF, OUTPUT_BUF,
};

/// How a routine produces output values each staged plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputeShape {
    /// One full stencil evaluation and an immediate write-back (the
    /// forward-plane §III-B shape).
    Direct,
    /// The in-plane pipeline: an Eqn-(3) partial, Eqn-(5) folds into
    /// the queued planes in range, and a write-back of the plane that
    /// just completed (§III-C).
    Pipelined,
}

/// What advances the z-value pipeline after each plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZFeed {
    /// Prefetch plane `k + lead` from global memory while plane `k` is
    /// being computed (forward-plane; `lead = r + 1`).
    PrefetchLead {
        /// Planes ahead of the compute plane the prefetch runs.
        lead: usize,
    },
    /// Take the staged centre value of the current plane (the in-plane
    /// z-history advance — no extra global traffic).
    StagedCentre,
}

/// The global→shared loading pattern of a routine, at the granularity
/// the codegen and the per-plane workload model care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadPattern {
    /// Five scalar regions, interior then each halo arm (Figs 4, 6a).
    ScalarRegions,
    /// A vectorised slab merging top/bottom halos, plus per-column side
    /// walks (Fig 6b).
    VerticalSlab,
    /// Vectorised full-width rows plus top/bottom halo rows (Fig 6c).
    HorizontalRows,
    /// One uniform warp-packed sweep over the whole halo-framed slab,
    /// corners included (Fig 6d; also the double-buffered stage).
    FullSliceSweep,
}

/// The per-plane schedule skeleton of a routine at radius `r`: the
/// complete structural contract the generic lowering emits and the
/// static analyzers verify. Two routines with equal skeletons lower to
/// op-for-op identical plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleSkeleton {
    /// z-value pipeline depth in slots.
    pub z_depth: usize,
    /// Output-queue depth in slots.
    pub out_depth: usize,
    /// Planes at the top of the sweep that are *not* staged: the sweep
    /// runs `k = r .. nz − sweep_tail` (forward stops `r` short; the
    /// in-plane drain runs to the last plane).
    pub sweep_tail: usize,
    /// Barriers per staged plane: 2 for stage + reuse, 1 when a second
    /// staging buffer makes the reuse barrier unnecessary.
    pub barriers_per_plane: usize,
    /// Output production shape.
    pub compute: ComputeShape,
    /// z-pipeline advance policy.
    pub z_feed: ZFeed,
    /// Out-queue rotations per plane (0 direct, 1 pipelined).
    pub q_rotations: usize,
    /// Where the staged interior comes from: a global load, or the
    /// pipeline-centre publish.
    pub interior_source: StageSource,
    /// Whether the `4r²` corner cells are staged too.
    pub stages_corners: bool,
}

impl ScheduleSkeleton {
    /// Pipeline *state* words per point: `z_depth + out_depth − 1` (the
    /// slot being staged is the accumulator, not pipeline state).
    pub fn pipeline_words(&self) -> usize {
        self.z_depth + self.out_depth - 1
    }
}

/// Everything [`Routine::supports`] judges: the problem a caller wants
/// the routine to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProblemSpec {
    /// Stencil radius `r`.
    pub radius: usize,
    /// Element width in bytes (4 = SP, 8 = DP).
    pub elem_bytes: usize,
    /// The launch configuration `(TX, TY, RX, RY)`.
    pub config: LaunchConfig,
    /// Problem-grid dimensions.
    pub dims: (usize, usize, usize),
    /// Shared memory available per SM, when the target device is known
    /// (`None` skips capacity checks — pure-lowering callers).
    pub smem_limit: Option<usize>,
}

/// A coded rejection from [`Routine::supports`]. The code matches an
/// `LNT-R*` entry in `stencil-lint`'s catalog so the sweep surfaces it
/// as a first-class diagnostic; keeping the type here (not in the lint
/// crate) lets `core` stay dependency-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineDiag {
    /// Stable diagnostic code (`LNT-R007`, `LNT-R008`, ...).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// A routine's typed execution shape for one problem: everything the
/// lowering, the analyzers and the codegen need, resolved once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blueprint {
    /// [`Routine::id`] of the owning routine.
    pub routine_id: u64,
    /// The compat-shim method tag (carried into the lowered plan).
    pub method: Method,
    /// Stencil radius `r`.
    pub radius: usize,
    /// The launch configuration.
    pub config: LaunchConfig,
    /// Problem-grid dimensions.
    pub dims: (usize, usize, usize),
    /// Tile extent `(TX·RX, TY·RY)`.
    pub tile: (usize, usize),
    /// Pipeline state words per point.
    pub pipeline_words: usize,
    /// The per-plane schedule skeleton.
    pub skeleton: ScheduleSkeleton,
}

/// One execution strategy: legality, shape and lowering in one object.
/// See the module docs for the contract; implementors normally only
/// override the identity methods and [`Routine::skeleton`] — the
/// default [`Routine::lower`] is fully skeleton-driven.
pub trait Routine: Sync {
    /// Stable registry id. Ids 0–4 are pinned to the legacy
    /// `method_code` values (they feed `PlanKey`/`TuneKey` hashing);
    /// new routines append.
    fn id(&self) -> u64;

    /// The compat-shim [`Method`] tag this routine lowers as.
    fn method(&self) -> Method;

    /// Display label (`"nvstencil"`, `"in-plane/full-slice"`, ...).
    fn label(&self) -> String;

    /// The generated CUDA kernel's function name.
    fn kernel_fn_name(&self) -> &'static str;

    /// The per-plane schedule skeleton at radius `r`.
    fn skeleton(&self, r: usize) -> ScheduleSkeleton;

    /// Extra flops per point relative to the forward-plane count
    /// (Table II: the in-plane pipeline pays `r` extra adds).
    fn flops_overhead(&self, r: usize) -> usize;

    /// Flops per point for the radius-`r` star stencil: `7r + 1` plus
    /// the routine's overhead.
    fn star_flops_per_point(&self, r: usize) -> usize {
        7 * r + 1 + self.flops_overhead(r)
    }

    /// Register-pipeline state words per point.
    fn pipeline_words(&self, r: usize) -> usize {
        self.skeleton(r).pipeline_words()
    }

    /// Shared-memory staging buffers the routine allocates per streamed
    /// input (1 single-buffered, 2 double-buffered).
    fn staging_buffers(&self) -> usize {
        1
    }

    /// Whether the routine issues vector loads (`float4`/`double2`).
    fn vectorised(&self) -> bool;

    /// Whether the routine runs on the raw unpadded allocation (the
    /// stock SDK baseline's misaligned layout, §III-C2).
    fn unaligned_layout(&self) -> bool {
        false
    }

    /// Whether the CPU golden model is the in-plane summation order.
    fn inplane_reference_order(&self) -> bool;

    /// The global→shared loading pattern.
    fn load_pattern(&self) -> LoadPattern;

    /// Whether the OpenCL backend can emit this routine.
    fn opencl_supported(&self) -> bool {
        false
    }

    /// The generated OpenCL kernel's function name, when supported.
    fn opencl_kernel_name(&self) -> Option<&'static str> {
        None
    }

    /// Judge whether the routine can legally run `problem`. The default
    /// demands the grid strictly contain the radius-`r` halo shell in
    /// every axis (`LNT-R007`); routines with extra constraints chain
    /// onto it.
    fn supports(&self, problem: &ProblemSpec) -> Result<(), RoutineDiag> {
        check_grid(self, problem)
    }

    /// Resolve the routine's typed shape for one problem.
    fn blueprint(&self, config: &LaunchConfig, r: usize, dims: (usize, usize, usize)) -> Blueprint {
        let skeleton = self.skeleton(r);
        Blueprint {
            routine_id: self.id(),
            method: self.method(),
            radius: r,
            config: *config,
            dims,
            tile: (config.tile_x(), config.tile_y()),
            pipeline_words: skeleton.pipeline_words(),
            skeleton,
        }
    }

    /// Lower the blueprint to the typed [`StagePlan`] IR. The default
    /// is the generic skeleton-driven lowering.
    fn lower(&self, blueprint: &Blueprint) -> StagePlan {
        lower_blueprint(blueprint)
    }
}

/// The grid check every routine's [`Routine::supports`] starts from:
/// the grid must strictly contain the radius-`r` halo shell in every
/// axis (`LNT-R007`).
fn check_grid(routine: &(impl Routine + ?Sized), problem: &ProblemSpec) -> Result<(), RoutineDiag> {
    let (nx, ny, nz) = problem.dims;
    let r = problem.radius;
    if nx <= 2 * r || ny <= 2 * r || nz <= 2 * r {
        return Err(RoutineDiag {
            code: "LNT-R007",
            message: format!(
                "{}: grid {nx}x{ny}x{nz} too small for radius {r} \
                 (every axis must exceed 2r)",
                routine.label()
            ),
        });
    }
    Ok(())
}

/// The generic skeleton-driven lowering: one interior Jacobi step over
/// `INPUT_BUF` → `OUTPUT_BUF`, reproducing the per-plane schedule the
/// CUDA kernels of §III execute. Pure function of the blueprint.
pub fn lower_blueprint(bp: &Blueprint) -> StagePlan {
    let (nx, ny, nz) = bp.dims;
    let r = bp.radius;
    let sk = &bp.skeleton;
    let mut ops = Vec::new();
    for (x0, y0, w, h) in crate::exec::tiles(nx, ny, r, &bp.config) {
        ops.push(PlanOp::BeginBlock {
            device: 0,
            input: INPUT_BUF,
            output: OUTPUT_BUF,
            x0,
            y0,
            w,
            h,
            z_depth: sk.z_depth,
            out_depth: sk.out_depth,
        });
        let (ix0, ix1) = (x0 as isize, (x0 + w) as isize);
        let (iy0, iy1) = (y0 as isize, (y0 + h) as isize);
        let ri = r as isize;
        for k in r..nz - sk.sweep_tail {
            // Stage plane k: interior per the skeleton's source, the
            // four halo arms from global, plus the corners when the
            // loading pattern sweeps them.
            ops.push(PlanOp::StageRegion {
                zone: Zone::Interior,
                rect: PlanRect::new(ix0, ix1, iy0, iy1),
                plane: k,
                source: sk.interior_source,
            });
            for (zone, rect) in halo_arms(ix0, ix1, iy0, iy1, ri) {
                ops.push(PlanOp::StageRegion {
                    zone,
                    rect,
                    plane: k,
                    source: StageSource::Global,
                });
            }
            if sk.stages_corners {
                for rect in [
                    PlanRect::new(ix0 - ri, ix0, iy0 - ri, iy0),
                    PlanRect::new(ix1, ix1 + ri, iy0 - ri, iy0),
                    PlanRect::new(ix0 - ri, ix0, iy1, iy1 + ri),
                    PlanRect::new(ix1, ix1 + ri, iy1, iy1 + ri),
                ] {
                    ops.push(PlanOp::StageRegion {
                        zone: Zone::Corner,
                        rect,
                        plane: k,
                        source: StageSource::Global,
                    });
                }
            }
            ops.push(PlanOp::Barrier);
            match sk.compute {
                ComputeShape::Direct => {
                    ops.push(PlanOp::ComputePoint {
                        plane: k,
                        slot: 0,
                        kind: ComputeKind::ForwardFull,
                    });
                    ops.push(PlanOp::WriteBack { plane: k, slot: 0 });
                }
                ComputeShape::Pipelined => {
                    // Eqn-(3) partial if k is an output plane.
                    if k < nz - r {
                        ops.push(PlanOp::ComputePoint {
                            plane: k,
                            slot: 0,
                            kind: ComputeKind::InplanePartial,
                        });
                    }
                    // Eqn-(5) folds into the queued planes in range.
                    for d in 1..=r {
                        let in_range =
                            matches!(k.checked_sub(d), Some(kd) if kd >= r && kd < nz - r);
                        if in_range {
                            ops.push(PlanOp::ComputePoint {
                                plane: k,
                                slot: d,
                                kind: ComputeKind::FoldCentre { depth: d },
                            });
                        }
                    }
                    // Plane k − r is complete.
                    if let Some(done_k) = k.checked_sub(r) {
                        if done_k >= r && done_k < nz - r {
                            ops.push(PlanOp::WriteBack {
                                plane: done_k,
                                slot: r,
                            });
                        }
                    }
                }
            }
            // The reuse barrier: only single-buffered schedules need it
            // (a second staging buffer lets the next stage overlap).
            if sk.barriers_per_plane == 2 {
                ops.push(PlanOp::Barrier);
            }
            for _ in 0..sk.q_rotations {
                ops.push(PlanOp::RotatePipeline {
                    pipeline: PipelineKind::OutQueue,
                    feed: PipelineFeed::None,
                });
            }
            match sk.z_feed {
                ZFeed::PrefetchLead { lead } => {
                    if k + 1 < nz - sk.sweep_tail {
                        ops.push(PlanOp::RotatePipeline {
                            pipeline: PipelineKind::ZValues,
                            feed: PipelineFeed::GlobalPlane(k + lead),
                        });
                    }
                }
                ZFeed::StagedCentre => {
                    ops.push(PlanOp::RotatePipeline {
                        pipeline: PipelineKind::ZValues,
                        feed: PipelineFeed::StagedCentre,
                    });
                }
            }
        }
    }
    StagePlan {
        method: bp.method,
        radius: r,
        dims: bp.dims,
        ops,
    }
}

/// The forward-plane (*nvstencil*) routine: registry id 0.
pub struct ForwardPlaneRoutine;

impl Routine for ForwardPlaneRoutine {
    fn id(&self) -> u64 {
        0
    }

    fn method(&self) -> Method {
        Method::ForwardPlane
    }

    fn label(&self) -> String {
        "nvstencil".to_string()
    }

    fn kernel_fn_name(&self) -> &'static str {
        "stencil_forward_plane"
    }

    fn skeleton(&self, r: usize) -> ScheduleSkeleton {
        ScheduleSkeleton {
            z_depth: 2 * r + 1,
            out_depth: 1,
            sweep_tail: r,
            barriers_per_plane: 2,
            compute: ComputeShape::Direct,
            z_feed: ZFeed::PrefetchLead { lead: r + 1 },
            q_rotations: 0,
            interior_source: StageSource::PipelineCentre,
            stages_corners: false,
        }
    }

    fn flops_overhead(&self, _r: usize) -> usize {
        0
    }

    fn vectorised(&self) -> bool {
        false
    }

    fn unaligned_layout(&self) -> bool {
        true
    }

    fn inplane_reference_order(&self) -> bool {
        false
    }

    fn load_pattern(&self) -> LoadPattern {
        LoadPattern::ScalarRegions
    }

    fn opencl_supported(&self) -> bool {
        true
    }

    fn opencl_kernel_name(&self) -> Option<&'static str> {
        Some("stencil_forward_plane")
    }
}

/// A single-buffered in-plane routine: ids 1–4 cover the four loading
/// variants of Fig 6; the schedule skeleton is shared, only the loading
/// pattern and corner behaviour differ.
pub struct InPlaneRoutine {
    variant: Variant,
    label: &'static str,
}

/// The shared in-plane schedule skeleton (Eqns (3)–(5), §III-C).
fn inplane_skeleton(r: usize, barriers_per_plane: usize, stages_corners: bool) -> ScheduleSkeleton {
    ScheduleSkeleton {
        z_depth: r,
        out_depth: r + 1,
        sweep_tail: 0,
        barriers_per_plane,
        compute: ComputeShape::Pipelined,
        z_feed: ZFeed::StagedCentre,
        q_rotations: 1,
        interior_source: StageSource::Global,
        stages_corners,
    }
}

impl Routine for InPlaneRoutine {
    fn id(&self) -> u64 {
        1 + self.variant as u64
    }

    fn method(&self) -> Method {
        Method::InPlane(self.variant)
    }

    fn label(&self) -> String {
        self.label.to_string()
    }

    fn kernel_fn_name(&self) -> &'static str {
        match self.variant {
            Variant::Classical => "stencil_inplane_classical",
            Variant::Vertical => "stencil_inplane_vertical",
            Variant::Horizontal => "stencil_inplane_horizontal",
            Variant::FullSlice => "stencil_inplane_fullslice",
            Variant::DoubleBuffered => "stencil_inplane_dblbuf",
        }
    }

    fn skeleton(&self, r: usize) -> ScheduleSkeleton {
        inplane_skeleton(r, 2, self.variant == Variant::FullSlice)
    }

    fn flops_overhead(&self, r: usize) -> usize {
        r
    }

    fn vectorised(&self) -> bool {
        self.variant != Variant::Classical
    }

    fn inplane_reference_order(&self) -> bool {
        true
    }

    fn load_pattern(&self) -> LoadPattern {
        match self.variant {
            Variant::Classical => LoadPattern::ScalarRegions,
            Variant::Vertical => LoadPattern::VerticalSlab,
            Variant::Horizontal => LoadPattern::HorizontalRows,
            Variant::FullSlice | Variant::DoubleBuffered => LoadPattern::FullSliceSweep,
        }
    }

    fn opencl_supported(&self) -> bool {
        self.variant == Variant::FullSlice
    }

    fn opencl_kernel_name(&self) -> Option<&'static str> {
        (self.variant == Variant::FullSlice).then_some("stencil_inplane_fullslice")
    }
}

/// The double-buffered plane-staging routine: registry id 5. Two
/// shared-memory staging buffers rotated per plane (the
/// `sync_buffer_cyclic` shape): while the block computes out of buffer
/// `k mod 2`, the next plane stages into the other buffer, so the
/// per-plane *reuse* barrier disappears — one `__syncthreads()` per
/// plane instead of two — at the cost of doubling the staging
/// footprint. Loading is the full-slice sweep (Fig 6d) per buffer.
pub struct DoubleBufferedRoutine;

impl Routine for DoubleBufferedRoutine {
    fn id(&self) -> u64 {
        5
    }

    fn method(&self) -> Method {
        Method::InPlane(Variant::DoubleBuffered)
    }

    fn label(&self) -> String {
        "in-plane/double-buffered".to_string()
    }

    fn kernel_fn_name(&self) -> &'static str {
        "stencil_inplane_dblbuf"
    }

    fn skeleton(&self, r: usize) -> ScheduleSkeleton {
        inplane_skeleton(r, 1, true)
    }

    fn flops_overhead(&self, r: usize) -> usize {
        r
    }

    fn staging_buffers(&self) -> usize {
        2
    }

    fn vectorised(&self) -> bool {
        true
    }

    fn inplane_reference_order(&self) -> bool {
        true
    }

    fn load_pattern(&self) -> LoadPattern {
        LoadPattern::FullSliceSweep
    }

    fn supports(&self, problem: &ProblemSpec) -> Result<(), RoutineDiag> {
        check_grid(self, problem)?;
        let r = problem.radius;
        // The staging *pair* must fit the device's shared memory.
        if let Some(limit) = problem.smem_limit {
            let slab = (problem.config.tile_x() + 2 * r) * (problem.config.tile_y() + 2 * r);
            let pair = slab * problem.elem_bytes * self.staging_buffers();
            if pair > limit {
                return Err(RoutineDiag {
                    code: "LNT-R008",
                    message: format!(
                        "{}: double-buffered staging pair needs {pair} B \
                         shared memory, device provides {limit} B",
                        self.label()
                    ),
                });
            }
        }
        Ok(())
    }
}

static FORWARD_PLANE: ForwardPlaneRoutine = ForwardPlaneRoutine;
static INPLANE_CLASSICAL: InPlaneRoutine = InPlaneRoutine {
    variant: Variant::Classical,
    label: "in-plane/classical",
};
static INPLANE_VERTICAL: InPlaneRoutine = InPlaneRoutine {
    variant: Variant::Vertical,
    label: "in-plane/vertical",
};
static INPLANE_HORIZONTAL: InPlaneRoutine = InPlaneRoutine {
    variant: Variant::Horizontal,
    label: "in-plane/horizontal",
};
static INPLANE_FULLSLICE: InPlaneRoutine = InPlaneRoutine {
    variant: Variant::FullSlice,
    label: "in-plane/full-slice",
};
static DOUBLE_BUFFERED: DoubleBufferedRoutine = DoubleBufferedRoutine;

/// The registered routines, in stable-id order.
pub fn registry() -> &'static [&'static dyn Routine] {
    static REGISTRY: [&dyn Routine; 6] = [
        &FORWARD_PLANE,
        &INPLANE_CLASSICAL,
        &INPLANE_VERTICAL,
        &INPLANE_HORIZONTAL,
        &INPLANE_FULLSLICE,
        &DOUBLE_BUFFERED,
    ];
    &REGISTRY
}

/// Look a routine up by its stable id.
pub fn routine_by_id(id: u64) -> Option<&'static dyn Routine> {
    registry().iter().copied().find(|rt| rt.id() == id)
}

/// Look a routine up by its display label.
pub fn routine_by_label(label: &str) -> Option<&'static dyn Routine> {
    registry().iter().copied().find(|rt| rt.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_stable_and_dense() {
        let reg = registry();
        assert_eq!(reg.len(), 6);
        for (i, rt) in reg.iter().enumerate() {
            assert_eq!(rt.id(), i as u64, "{}", rt.label());
            assert_eq!(routine_by_id(rt.id()).unwrap().label(), rt.label());
            assert_eq!(routine_by_label(&rt.label()).unwrap().id(), rt.id());
        }
        assert!(routine_by_id(99).is_none());
        assert!(routine_by_label("no-such-routine").is_none());
    }

    #[test]
    fn legacy_ids_match_the_method_codes() {
        // Ids 0–4 are pinned to the pre-registry method_code values —
        // this is what keeps stored TuneKey hashes valid.
        assert_eq!(Method::ForwardPlane.routine().id(), 0);
        assert_eq!(Method::InPlane(Variant::Classical).routine().id(), 1);
        assert_eq!(Method::InPlane(Variant::Vertical).routine().id(), 2);
        assert_eq!(Method::InPlane(Variant::Horizontal).routine().id(), 3);
        assert_eq!(Method::InPlane(Variant::FullSlice).routine().id(), 4);
        assert_eq!(Method::InPlane(Variant::DoubleBuffered).routine().id(), 5);
    }

    #[test]
    fn routine_labels_are_frozen() {
        // Labels are persisted in tune-store records and printed in
        // every figure: they must never drift.
        let want = [
            (0, "nvstencil"),
            (1, "in-plane/classical"),
            (2, "in-plane/vertical"),
            (3, "in-plane/horizontal"),
            (4, "in-plane/full-slice"),
            (5, "in-plane/double-buffered"),
        ];
        assert_eq!(registry().len(), want.len());
        for (id, label) in want {
            let rt = routine_by_id(id).unwrap();
            assert_eq!(rt.label(), label);
            assert_eq!(rt.method().to_string(), label);
        }
    }

    #[test]
    fn table2_flop_counts() {
        for r in 1..=6 {
            for rt in registry() {
                let want = if rt.inplane_reference_order() {
                    8 * r + 1
                } else {
                    7 * r + 1
                };
                assert_eq!(rt.star_flops_per_point(r), want, "{} r={r}", rt.label());
            }
        }
    }

    #[test]
    fn double_buffered_drops_the_reuse_barrier_and_doubles_staging() {
        let db = &DOUBLE_BUFFERED;
        let fs = Method::InPlane(Variant::FullSlice).routine();
        let (a, b) = (db.skeleton(2), fs.skeleton(2));
        assert_eq!(a.barriers_per_plane, 1);
        assert_eq!(b.barriers_per_plane, 2);
        assert_eq!(db.staging_buffers(), 2);
        assert_eq!(fs.staging_buffers(), 1);
        // Everything else agrees: the op stream differs only in the
        // reuse barrier.
        assert_eq!(a.z_depth, b.z_depth);
        assert_eq!(a.out_depth, b.out_depth);
        assert_eq!(a.sweep_tail, b.sweep_tail);
        assert_eq!(a.compute, b.compute);
        assert_eq!(a.z_feed, b.z_feed);
        assert_eq!(a.stages_corners, b.stages_corners);
    }

    #[test]
    fn supports_rejects_undersized_grids_with_a_coded_diag() {
        let p = ProblemSpec {
            radius: 3,
            elem_bytes: 4,
            config: LaunchConfig::new(8, 8, 1, 1),
            dims: (6, 20, 20),
            smem_limit: None,
        };
        for rt in registry() {
            let err = rt.supports(&p).unwrap_err();
            assert_eq!(err.code, "LNT-R007", "{}", rt.label());
        }
    }

    #[test]
    fn double_buffered_rejects_oversized_staging_pairs() {
        let p = ProblemSpec {
            radius: 2,
            elem_bytes: 8,
            config: LaunchConfig::new(64, 8, 1, 4),
            dims: (96, 96, 32),
            smem_limit: Some(32 * 1024),
        };
        // Single-buffered full-slice fits: (64+4)·(32+4)·8 = 19584 B
        // (the lint resource checks handle its capacity separately)...
        assert!(Method::InPlane(Variant::FullSlice)
            .routine()
            .supports(&p)
            .is_ok());
        // ...but the double-buffered pair (39168 B) does not.
        let err = DOUBLE_BUFFERED.supports(&p).unwrap_err();
        assert_eq!(err.code, "LNT-R008");
        assert!(err.message.contains("39168"), "{}", err.message);
    }

    #[test]
    fn blueprints_resolve_tile_and_words() {
        let cfg = LaunchConfig::new(16, 4, 2, 2);
        for rt in registry() {
            let bp = rt.blueprint(&cfg, 3, (40, 40, 20));
            assert_eq!(bp.routine_id, rt.id());
            assert_eq!(bp.tile, (32, 8));
            assert_eq!(bp.pipeline_words, rt.pipeline_words(3));
            assert_eq!(bp.method, rt.method());
        }
    }
}
