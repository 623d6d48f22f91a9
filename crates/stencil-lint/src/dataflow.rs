//! Whole-plan dataflow analysis over the lowered [`StagePlan`] IR — the
//! schedule proof.
//!
//! This pass abstract-interprets an entire lowered plan — every block,
//! every staged plane, every buffer, every transform-level op — with a
//! region lattice per `(buffer, plane)` built on the exact rectangle
//! algebra of [`crate::rect`]. It proves four families of facts:
//!
//! * **happens-before in a block** — every tile cell a compute or a
//!   z-history advance reads was staged in its plane's section
//!   (`LNT-D001`), and by a store a barrier of that section has fenced
//!   (`LNT-S002`: otherwise another warp's store may not have landed,
//!   a cross-warp race the sequential interpreter cannot observe);
//! * **lifetime proofs** — reads of never-written buffer regions
//!   (`LNT-D002`), dead stores/staging/exchanges (`LNT-D101`–`D103`,
//!   `LNT-D901`), redundant re-staging (`LNT-D104`);
//! * **cross-plan consistency** — every halo-exchange destination plane
//!   a sweep reads was last written by the exchange, not by the
//!   slab-local boundary copy it overwrites (`LNT-D004`, the
//!   happens-before proof across devices);
//! * **schedule shape** — section sequencing, per-section barrier
//!   counts, rotation counts and feeds, `BeginBlock` pipeline depths,
//!   publish alignment, compute/write-back shape per method
//!   (`LNT-D007`), block-level ops outside a block or its halo window
//!   (`LNT-D006`), buffer-reference validity (`LNT-D003`), and output
//!   interior coverage (`LNT-D005`, the static twin of the checked
//!   interpreter's `StageError::EMPTY_PLAN`).
//!
//! The analysis is *sound for the interpreter*: a clean lowered plan
//! (no error-severity findings) interprets without staging violations,
//! and the warnings on transformed plans (temporal windows, multi-GPU
//! slabs) are documented true positives of the box-granular transport
//! the transforms use — pinned by the differential tests, not noise.

use crate::diag::Diagnostic;
use crate::rect::{subtract_all, total_area, Rect};
use inplane_core::plan::{
    ComputeKind, PipelineFeed, PipelineKind, PlanOp, PlanRect, StagePlan, StageSource, Zone,
    INPUT_BUF, OUTPUT_BUF,
};
use inplane_core::{ComputeShape, ScheduleSkeleton, ZFeed};
use std::collections::HashSet;
use stencil_grid::Boundary;

/// Instance cap per diagnostic code: beyond this many findings of one
/// code the report keeps counting (see [`DataflowReport::histogram`])
/// but stops materialising `Diagnostic` values.
pub const MAX_INSTANCES_PER_CODE: usize = 8;

/// What kind of op last wrote a buffer region (the lattice's writer
/// tag, used for dead-store attribution and the `LNT-D004` staleness
/// proof).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WriteKind {
    /// A `CopyBox` (scatter/gather traffic).
    Copy,
    /// A block `WriteBack`.
    WriteBack,
    /// An `ApplyBoundary` ring copy.
    Boundary,
    /// A `HaloExchange` plane move.
    Exchange,
}

impl WriteKind {
    fn label(self) -> &'static str {
        match self {
            WriteKind::Copy => "copy",
            WriteKind::WriteBack => "write-back",
            WriteKind::Boundary => "boundary",
            WriteKind::Exchange => "exchange",
        }
    }
}

/// Region lattice for one `(buffer, plane)`.
#[derive(Default)]
struct PlaneState {
    /// Union of every region the plan wrote (disjoint pieces).
    written: Vec<Rect>,
    /// Last-written pieces not yet read (working buffers only;
    /// exchange writes are tracked by `exchange_unread` instead).
    unread: Vec<(WriteKind, Rect)>,
    /// Pieces whose *last* writer was a boundary copy (the `LNT-D004`
    /// staleness set).
    last_boundary: Vec<Rect>,
    /// A halo exchange wrote this plane and nothing read it since.
    exchange_unread: bool,
}

/// One buffer's dims plus its per-plane lattice.
struct BufState {
    dims: (usize, usize, usize),
    /// Working buffers (`id ≥ 2`) get dead-store tracking; the
    /// caller's grids do not (their contents outlive the plan).
    tracked: bool,
    planes: Vec<PlaneState>,
}

impl BufState {
    fn new(dims: (usize, usize, usize), tracked: bool) -> Self {
        let mut planes = Vec::with_capacity(dims.2);
        planes.resize_with(dims.2, PlaneState::default);
        BufState {
            dims,
            tracked,
            planes,
        }
    }

    fn full_plane(&self) -> Rect {
        Rect {
            x0: 0,
            x1: self.dims.0 as isize,
            y0: 0,
            y1: self.dims.1 as isize,
        }
    }
}

/// One staged region of the current section, with its unread remainder.
struct StagedEntry {
    zone: Zone,
    rect: Rect,
    unread: Vec<Rect>,
}

/// Everything one staged plane's schedule did inside a block.
struct Section {
    plane: usize,
    z_rots: usize,
    q_rots: usize,
    barriers: usize,
    computes: Vec<(usize, ComputeKind)>,
    writebacks: Vec<(usize, usize)>,
    staged: Vec<StagedEntry>,
    /// `staged[..fenced]` precede a barrier of this section: every
    /// thread sees them. Later entries may still be in flight in
    /// another warp.
    fenced: usize,
}

impl Section {
    fn new(plane: usize) -> Self {
        Section {
            plane,
            z_rots: 0,
            q_rots: 0,
            barriers: 0,
            computes: Vec::new(),
            writebacks: Vec::new(),
            staged: Vec::new(),
            fenced: 0,
        }
    }
}

/// The abstract machine state of one emulated thread block.
struct BlockState {
    input: usize,
    output: usize,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
    out_depth: usize,
    /// z-extent of the block's input buffer (local sweep depth).
    depth: usize,
    /// Tile plus halo frame, the containment window for `LNT-D006`.
    window: Rect,
    sections: Vec<Section>,
    z_rots_total: usize,
}

impl BlockState {
    fn tile(&self) -> Rect {
        Rect {
            x0: self.x0 as isize,
            x1: (self.x0 + self.w) as isize,
            y0: self.y0 as isize,
            y1: (self.y0 + self.h) as isize,
        }
    }

    /// The cross a full compute reads: tile interior plus the four
    /// corner-free halo arms of radius `r`.
    fn cross(&self, r: usize) -> Vec<Rect> {
        let t = self.tile();
        let ri = r as isize;
        vec![
            t,
            Rect {
                y0: t.y0 - ri,
                y1: t.y0,
                ..t
            },
            Rect {
                y0: t.y1,
                y1: t.y1 + ri,
                ..t
            },
            Rect {
                x0: t.x0 - ri,
                x1: t.x0,
                ..t
            },
            Rect {
                x0: t.x1,
                x1: t.x1 + ri,
                ..t
            },
        ]
    }
}

/// The result of [`analyze_plan`]: capped diagnostics plus exact
/// aggregate counters for every finding family.
#[derive(Debug, Default)]
pub struct DataflowReport {
    /// Materialised findings (at most [`MAX_INSTANCES_PER_CODE`] per
    /// code; aggregate warnings are one diagnostic each).
    pub diagnostics: Vec<Diagnostic>,
    /// Total finding events per code, including suppressed instances
    /// (errors count events; aggregate warnings count affected
    /// cells/planes).
    pub counts: Vec<(&'static str, u64)>,
    /// `LNT-D001`: tile cells read but never staged in their section.
    pub uninit_tile_cells: u64,
    /// `LNT-D002`: buffer cells read but never written.
    pub uninit_buffer_cells: u64,
    /// `LNT-D004`: halo-plane cells read while stale (last writer was a
    /// boundary copy, not the exchange).
    pub stale_halo_cells: u64,
    /// `LNT-D005`: output interior cells no op ever wrote.
    pub missing_output_cells: u64,
    /// `LNT-D101`: working-buffer cells written and never read.
    pub dead_store_cells: u64,
    /// `LNT-D102`: exchanged planes never read before overwrite or end.
    pub dead_exchange_planes: u64,
    /// `LNT-D103`: non-corner staged cells never read in their section.
    pub dead_staged_cells: u64,
    /// `LNT-D104`: cells staged more than once within one section.
    pub restaged_cells: u64,
    /// `LNT-D901`: corner cells staged and never read (full-slice).
    pub dead_corner_cells: u64,
}

impl DataflowReport {
    /// Error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == crate::diag::Severity::Error)
            .count()
    }

    /// True when the plan produced no error-severity finding (warnings
    /// and infos — the documented transport redundancies — may remain).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// `(code, events)` histogram over every finding, including
    /// instances suppressed past the cap.
    pub fn histogram(&self) -> &[(&'static str, u64)] {
        &self.counts
    }

    /// JSON object rendering (hand-rolled; the workspace is std-only).
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(|d| d.to_json()).collect();
        let hist: Vec<String> = self
            .counts
            .iter()
            .map(|(c, n)| format!("{}:{}", crate::diag::json_string(c), n))
            .collect();
        format!(
            "{{\"errors\":{},\"clean\":{},\"histogram\":{{{}}},\"counters\":{{\
             \"uninit_tile_cells\":{},\"uninit_buffer_cells\":{},\"stale_halo_cells\":{},\
             \"missing_output_cells\":{},\"dead_store_cells\":{},\"dead_exchange_planes\":{},\
             \"dead_staged_cells\":{},\"restaged_cells\":{},\"dead_corner_cells\":{}}},\
             \"diagnostics\":[{}]}}",
            self.errors(),
            self.is_clean(),
            hist.join(","),
            self.uninit_tile_cells,
            self.uninit_buffer_cells,
            self.stale_halo_cells,
            self.missing_output_cells,
            self.dead_store_cells,
            self.dead_exchange_planes,
            self.dead_staged_cells,
            self.restaged_cells,
            self.dead_corner_cells,
            diags.join(",")
        )
    }
}

fn rect_of(r: &PlanRect) -> Rect {
    Rect {
        x0: r.x0,
        x1: r.x1,
        y0: r.y0,
        y1: r.y1,
    }
}

/// The dataflow abstract interpreter.
struct Flow {
    /// The plan's routine schedule skeleton — the structural contract
    /// every shape check (`LNT-D007`) is proven against.
    sk: ScheduleSkeleton,
    r: usize,
    bufs: Vec<BufState>,
    halo_dst: HashSet<(usize, usize)>,
    block: Option<BlockState>,
    report: DataflowReport,
}

impl Flow {
    fn bump(&mut self, code: &'static str, events: u64) -> bool {
        if let Some(entry) = self.report.counts.iter_mut().find(|(c, _)| *c == code) {
            entry.1 += events;
            self.report
                .diagnostics
                .iter()
                .filter(|d| d.code == code)
                .count()
                < MAX_INSTANCES_PER_CODE
        } else {
            self.report.counts.push((code, events));
            true
        }
    }

    fn emit(&mut self, code: &'static str, events: u64, build: impl FnOnce() -> Diagnostic) {
        if self.bump(code, events) {
            let d = build();
            debug_assert_eq!(d.code, code);
            self.report.diagnostics.push(d);
        }
    }

    /// A read of `rect` on `(buf, plane)`. `block_level` reads (stage
    /// loads, pipeline preloads/feeds) additionally run the `LNT-D004`
    /// staleness proof on exchange-destination planes.
    fn buffer_read(&mut self, buf: usize, plane: usize, rect: Rect, block_level: bool) {
        if rect.is_empty() {
            return;
        }
        if buf >= self.bufs.len() || plane >= self.bufs[buf].planes.len() {
            self.emit("LNT-D003", 1, || {
                Diagnostic::error("LNT-D003", "read through an invalid buffer reference")
                    .with("buf", buf)
                    .with("plane", plane)
            });
            return;
        }
        let defined = if self.bufs[buf].tracked {
            self.bufs[buf].planes[plane].written.clone()
        } else {
            vec![self.bufs[buf].full_plane()]
        };
        let missing = total_area(&subtract_all(vec![rect], &defined));
        if missing > 0 {
            self.report.uninit_buffer_cells += missing;
            self.emit("LNT-D002", 1, || {
                Diagnostic::error("LNT-D002", "read of a buffer region never written")
                    .with("buf", buf)
                    .with("plane", plane)
                    .with("cells", missing)
            });
        }
        if block_level && self.halo_dst.contains(&(buf, plane)) {
            let stale: u64 = self.bufs[buf].planes[plane]
                .last_boundary
                .iter()
                .filter_map(|b| b.intersect(&rect))
                .map(|i| i.area())
                .sum();
            if stale > 0 {
                self.report.stale_halo_cells += stale;
                self.emit("LNT-D004", 1, || {
                    Diagnostic::error(
                        "LNT-D004",
                        "sweep reads a halo plane last written by the boundary copy, \
                         not the exchange",
                    )
                    .with("buf", buf)
                    .with("plane", plane)
                    .with("cells", stale)
                });
            }
        }
        let state = &mut self.bufs[buf].planes[plane];
        let mut next = Vec::with_capacity(state.unread.len());
        for (kind, piece) in state.unread.drain(..) {
            for left in piece.subtract(&rect) {
                next.push((kind, left));
            }
        }
        state.unread = next;
        state.exchange_unread = false;
    }

    /// A write of `rect` on `(buf, plane)` by `kind`.
    fn buffer_write(&mut self, buf: usize, plane: usize, rect: Rect, kind: WriteKind) {
        if rect.is_empty() {
            return;
        }
        if buf == INPUT_BUF {
            self.emit("LNT-D003", 1, || {
                Diagnostic::error("LNT-D003", "plan writes the read-only input buffer")
                    .with("plane", plane)
            });
            return;
        }
        if buf >= self.bufs.len() || plane >= self.bufs[buf].planes.len() {
            self.emit("LNT-D003", 1, || {
                Diagnostic::error("LNT-D003", "write through an invalid buffer reference")
                    .with("buf", buf)
                    .with("plane", plane)
            });
            return;
        }
        let full = self.bufs[buf].full_plane();
        let state = &mut self.bufs[buf].planes[plane];
        // Dead-on-overwrite: last-write pieces clobbered while unread.
        let mut dead = 0u64;
        for (k, piece) in &state.unread {
            if *k != WriteKind::Exchange {
                if let Some(i) = piece.intersect(&rect) {
                    dead += i.area();
                }
            }
        }
        self.report.dead_store_cells += dead;
        if state.exchange_unread && (kind == WriteKind::Exchange || rect.contains(&full)) {
            self.report.dead_exchange_planes += 1;
            state.exchange_unread = false;
        }
        let mut next = Vec::with_capacity(state.unread.len());
        for (k, piece) in state.unread.drain(..) {
            for left in piece.subtract(&rect) {
                next.push((k, left));
            }
        }
        if self.bufs[buf].tracked && kind != WriteKind::Exchange {
            next.push((kind, rect));
        }
        let state = &mut self.bufs[buf].planes[plane];
        state.unread = next;
        if kind == WriteKind::Exchange {
            state.exchange_unread = true;
        }
        state.written = subtract_all(std::mem::take(&mut state.written), &[rect]);
        state.written.push(rect);
        state.last_boundary = subtract_all(std::mem::take(&mut state.last_boundary), &[rect]);
        if kind == WriteKind::Boundary {
            state.last_boundary.push(rect);
        }
    }

    /// A tile read of `rects` against the current section's staged
    /// entries: unmarks read pieces, proves `LNT-D001` coverage and
    /// `LNT-S002` happens-before (every staged cell read is fenced by a
    /// barrier of this section).
    fn tile_read(&mut self, rects: &[Rect], what: &'static str) {
        let Some(section) = self.block.as_mut().and_then(|b| b.sections.last_mut()) else {
            self.emit("LNT-D007", 1, || {
                Diagnostic::error("LNT-D007", "tile read before any plane was staged")
                    .with("read", what)
            });
            return;
        };
        let staged: Vec<Rect> = section.staged.iter().map(|e| e.rect).collect();
        let missing = total_area(&subtract_all(rects.to_vec(), &staged));
        // Staged but not yet fenced: (read − fenced) minus the never
        // staged cells (fenced ⊆ staged, and the read pieces are disjoint).
        let unfenced = if section.fenced < staged.len() {
            total_area(&subtract_all(rects.to_vec(), &staged[..section.fenced])) - missing
        } else {
            0
        };
        for entry in &mut section.staged {
            entry.unread = subtract_all(std::mem::take(&mut entry.unread), rects);
        }
        let plane = section.plane;
        if missing > 0 {
            self.report.uninit_tile_cells += missing;
            self.emit("LNT-D001", 1, || {
                Diagnostic::error("LNT-D001", "compute reads tile cells never staged")
                    .with("read", what)
                    .with("plane", plane)
                    .with("cells", missing)
            });
        }
        if unfenced > 0 {
            self.emit("LNT-S002", 1, || {
                Diagnostic::error(
                    "LNT-S002",
                    "tile read reaches cells staged after the section's last barrier \
                     (cross-warp race)",
                )
                .with("read", what)
                .with("plane", plane)
                .with("cells", unfenced)
            });
        }
    }

    /// Close the current block: flush staged-dead counters and prove
    /// the per-section schedule shape against the method (`LNT-D007`).
    fn close_block(&mut self) {
        let Some(blk) = self.block.take() else {
            return;
        };
        // Dead staging (D103 / D901).
        for section in &blk.sections {
            for entry in &section.staged {
                let left = total_area(&entry.unread);
                if entry.zone == Zone::Corner {
                    self.report.dead_corner_cells += left;
                } else {
                    self.report.dead_staged_cells += left;
                }
            }
        }
        // Schedule shape, proven against the routine's skeleton.
        let depth = blk.depth;
        let r = self.r;
        let (lo, hi) = (r, depth.saturating_sub(self.sk.sweep_tail));
        let planes: Vec<usize> = blk.sections.iter().map(|s| s.plane).collect();
        let expected: Vec<usize> = (lo..hi).collect();
        if planes != expected {
            self.emit("LNT-D007", 1, || {
                Diagnostic::error(
                    "LNT-D007",
                    "staged-plane sequence deviates from the routine's sweep",
                )
                .with("expected", format!("{lo}..{hi}"))
                .with("got", format!("{planes:?}"))
            });
        }
        let n = blk.sections.len();
        let want_q = self.sk.q_rotations;
        for (i, s) in blk.sections.iter().enumerate() {
            let mut problems: Vec<String> = Vec::new();
            if s.barriers != self.sk.barriers_per_plane {
                problems.push(format!(
                    "{} barriers (want {})",
                    s.barriers, self.sk.barriers_per_plane
                ));
            }
            match self.sk.compute {
                ComputeShape::Direct => {
                    // The prefetch feed is guarded at the sweep's end:
                    // the last section has no plane left to fetch.
                    let want_z = usize::from(i + 1 < n);
                    if s.z_rots != want_z || s.q_rots != want_q {
                        problems.push(format!(
                            "rotations z={} q={} (want z={want_z} q={want_q})",
                            s.z_rots, s.q_rots
                        ));
                    }
                    let compute_ok = matches!(
                        s.computes.as_slice(),
                        [(slot, ComputeKind::ForwardFull)]
                            if s.writebacks == [(s.plane, *slot)]
                    );
                    if !compute_ok {
                        problems.push(format!(
                            "computes {:?} / writebacks {:?} are not one full \
                             evaluation written back to its plane",
                            s.computes, s.writebacks
                        ));
                    }
                }
                ComputeShape::Pipelined => {
                    if s.z_rots != 1 || s.q_rots != want_q {
                        problems.push(format!(
                            "rotations z={} q={} (want z=1 q={want_q})",
                            s.z_rots, s.q_rots
                        ));
                    }
                    let mut want: Vec<(usize, ComputeKind)> = Vec::new();
                    if s.plane < depth.saturating_sub(r) {
                        want.push((0, ComputeKind::InplanePartial));
                    }
                    for d in 1..=r {
                        if matches!(s.plane.checked_sub(d),
                                    Some(kd) if kd >= r && kd < depth.saturating_sub(r))
                        {
                            want.push((d, ComputeKind::FoldCentre { depth: d }));
                        }
                    }
                    let want_wb: Vec<(usize, usize)> = match s.plane.checked_sub(r) {
                        Some(done) if done >= r && done < depth.saturating_sub(r) => {
                            vec![(done, r)]
                        }
                        _ => Vec::new(),
                    };
                    if s.computes != want || s.writebacks != want_wb {
                        problems.push(format!(
                            "computes {:?} / writebacks {:?} deviate from the \
                             in-plane partial/fold/write-back shape",
                            s.computes, s.writebacks
                        ));
                    }
                }
            }
            if !problems.is_empty() {
                let plane = s.plane;
                let detail = problems.join("; ");
                self.emit("LNT-D007", 1, || {
                    Diagnostic::error("LNT-D007", "schedule-shape violation in a plane section")
                        .with("plane", plane)
                        .with("detail", detail)
                });
            }
        }
    }

    fn step(&mut self, op: &PlanOp) {
        match *op {
            PlanOp::Alloc { buf, dims } => {
                self.close_block();
                if buf != self.bufs.len() {
                    self.emit("LNT-D003", 1, || {
                        Diagnostic::error("LNT-D003", "buffer allocated out of order")
                            .with("buf", buf)
                    });
                }
                self.bufs.push(BufState::new(dims, true));
            }
            PlanOp::CopyBox {
                src,
                dst,
                src_org,
                dst_org,
                extent,
            } => {
                self.close_block();
                let (ex, ey, ez) = extent;
                let in_bounds = |buf: usize, org: (usize, usize, usize)| {
                    buf < self.bufs.len() && {
                        let d = self.bufs[buf].dims;
                        org.0 + ex <= d.0 && org.1 + ey <= d.1 && org.2 + ez <= d.2
                    }
                };
                if !in_bounds(src, src_org) || !in_bounds(dst, dst_org) {
                    self.emit("LNT-D003", 1, || {
                        Diagnostic::error("LNT-D003", "copy box outside its buffers")
                            .with("src", src)
                            .with("dst", dst)
                    });
                    return;
                }
                let src_rect = Rect {
                    x0: src_org.0 as isize,
                    x1: (src_org.0 + ex) as isize,
                    y0: src_org.1 as isize,
                    y1: (src_org.1 + ey) as isize,
                };
                let dst_rect = Rect {
                    x0: dst_org.0 as isize,
                    x1: (dst_org.0 + ex) as isize,
                    y0: dst_org.1 as isize,
                    y1: (dst_org.1 + ey) as isize,
                };
                for k in 0..ez {
                    self.buffer_read(src, src_org.2 + k, src_rect, false);
                    self.buffer_write(dst, dst_org.2 + k, dst_rect, WriteKind::Copy);
                }
            }
            PlanOp::BeginBlock {
                device: _,
                input,
                output,
                x0,
                y0,
                w,
                h,
                z_depth,
                out_depth,
            } => {
                self.close_block();
                if input >= self.bufs.len() || output >= self.bufs.len() || output == INPUT_BUF {
                    self.emit("LNT-D003", 1, || {
                        Diagnostic::error("LNT-D003", "block references an invalid buffer")
                            .with("input", input)
                            .with("output", output)
                    });
                    return;
                }
                let (nx, ny, depth) = self.bufs[input].dims;
                if x0 + w > nx || y0 + h > ny || z_depth > depth {
                    self.emit("LNT-D006", 1, || {
                        Diagnostic::error("LNT-D006", "block tile outside its input buffer")
                            .with("tile", format!("{w}x{h}@({x0},{y0})"))
                            .with("dims", format!("{nx}x{ny}x{depth}"))
                    });
                    return;
                }
                let want = (self.sk.z_depth, self.sk.out_depth);
                if (z_depth, out_depth) != want {
                    self.emit("LNT-D007", 1, || {
                        Diagnostic::error(
                            "LNT-D007",
                            "pipeline depths deviate from the routine's skeleton",
                        )
                        .with("got", format!("z={z_depth} q={out_depth}"))
                        .with("want", format!("z={} q={}", want.0, want.1))
                    });
                }
                let ri = self.r as isize;
                let blk = BlockState {
                    input,
                    output,
                    x0,
                    y0,
                    w,
                    h,
                    out_depth,
                    depth,
                    window: Rect {
                        x0: x0 as isize - ri,
                        x1: (x0 + w) as isize + ri,
                        y0: y0 as isize - ri,
                        y1: (y0 + h) as isize + ri,
                    },
                    sections: Vec::new(),
                    z_rots_total: 0,
                };
                let tile = blk.tile();
                self.block = Some(blk);
                // The z-pipeline preload reads planes 0 .. z_depth.
                for p in 0..z_depth {
                    self.buffer_read(input, p, tile, true);
                }
            }
            PlanOp::StageRegion {
                zone,
                rect,
                plane,
                source,
            } => {
                let Some(blk) = self.block.as_mut() else {
                    self.emit("LNT-D006", 1, || {
                        Diagnostic::error("LNT-D006", "StageRegion outside any block")
                            .with("plane", plane)
                    });
                    return;
                };
                let raw = rect_of(&rect);
                let (window, input, depth) = (blk.window, blk.input, blk.depth);
                let (nx, ny, _) = self.bufs[input].dims;
                if !window.contains(&raw) || plane >= depth {
                    self.emit("LNT-D006", 1, || {
                        Diagnostic::error(
                            "LNT-D006",
                            "staged region outside the block's halo window",
                        )
                        .with("rect", format!("{raw:?}"))
                        .with("plane", plane)
                    });
                    return;
                }
                let blk = self.block.as_mut().expect("block still open");
                if blk.sections.last().map(|s| s.plane) != Some(plane) {
                    blk.sections.push(Section::new(plane));
                }
                let clipped = Rect {
                    x0: raw.x0.max(0),
                    x1: raw.x1.min(nx as isize),
                    y0: raw.y0.max(0),
                    y1: raw.y1.min(ny as isize),
                };
                if clipped.is_empty() {
                    return;
                }
                let section = blk.sections.last_mut().expect("section just ensured");
                let overlap: u64 = section
                    .staged
                    .iter()
                    .filter_map(|e| e.rect.intersect(&clipped))
                    .map(|i| i.area())
                    .sum();
                section.staged.push(StagedEntry {
                    zone,
                    rect: clipped,
                    unread: vec![clipped],
                });
                if overlap > 0 {
                    self.report.restaged_cells += overlap;
                    self.bump("LNT-D104", overlap);
                }
                match source {
                    StageSource::Global => {
                        self.buffer_read(input, plane, clipped, true);
                    }
                    StageSource::PipelineCentre => {
                        let blk = self.block.as_ref().expect("block still open");
                        let aligned = self.sk.interior_source == StageSource::PipelineCentre
                            && plane >= self.r
                            && blk.z_rots_total == plane - self.r;
                        if !aligned {
                            let rots = blk.z_rots_total;
                            self.emit("LNT-D007", 1, || {
                                Diagnostic::error(
                                    "LNT-D007",
                                    "pipeline-centre publish misaligned with the z-rotation count",
                                )
                                .with("plane", plane)
                                .with("z_rotations", rots)
                            });
                        }
                    }
                }
            }
            PlanOp::Barrier => {
                if let Some(s) = self.block.as_mut().and_then(|b| b.sections.last_mut()) {
                    s.barriers += 1;
                    s.fenced = s.staged.len();
                }
            }
            PlanOp::ComputePoint { plane, slot, kind } => {
                let Some(blk) = self.block.as_mut() else {
                    self.emit("LNT-D006", 1, || {
                        Diagnostic::error("LNT-D006", "ComputePoint outside any block")
                            .with("plane", plane)
                    });
                    return;
                };
                let cur = blk.sections.last().map(|s| s.plane);
                let (out_depth, cross, tile) = (blk.out_depth, blk.cross(self.r), blk.tile());
                if cur != Some(plane) || slot >= out_depth {
                    self.emit("LNT-D007", 1, || {
                        Diagnostic::error(
                            "LNT-D007",
                            "compute misplaced: wrong section plane or out-queue slot",
                        )
                        .with("plane", plane)
                        .with("slot", slot)
                        .with("section", format!("{cur:?}"))
                    });
                }
                if let ComputeKind::FoldCentre { depth } = kind {
                    if depth != slot || depth == 0 || depth > self.r {
                        self.emit("LNT-D007", 1, || {
                            Diagnostic::error("LNT-D007", "fold depth disagrees with its slot")
                                .with("depth", depth)
                                .with("slot", slot)
                        });
                    }
                    self.tile_read(&[tile], "fold centre");
                } else {
                    self.tile_read(&cross, "stencil cross");
                }
                if let Some(s) = self.block.as_mut().and_then(|b| b.sections.last_mut()) {
                    s.computes.push((slot, kind));
                }
            }
            PlanOp::RotatePipeline { pipeline, feed } => {
                let Some(blk) = self.block.as_mut() else {
                    self.emit("LNT-D006", 1, || {
                        Diagnostic::error("LNT-D006", "RotatePipeline outside any block")
                    });
                    return;
                };
                let cur = blk.sections.last().map(|s| s.plane);
                let (input, tile, depth) = (blk.input, blk.tile(), blk.depth);
                match pipeline {
                    PipelineKind::ZValues => {
                        if let Some(s) = blk.sections.last_mut() {
                            s.z_rots += 1;
                        }
                        blk.z_rots_total += 1;
                        match (self.sk.z_feed, feed) {
                            (ZFeed::PrefetchLead { lead }, PipelineFeed::GlobalPlane(kp)) => {
                                let want = cur.map(|k| k + lead);
                                if Some(kp) != want || kp >= depth {
                                    self.emit("LNT-D007", 1, || {
                                        Diagnostic::error(
                                            "LNT-D007",
                                            "z-rotation prefetches the wrong plane",
                                        )
                                        .with("plane", kp)
                                        .with("want", format!("{want:?}"))
                                    });
                                }
                                if kp < depth {
                                    self.buffer_read(input, kp, tile, true);
                                }
                            }
                            (ZFeed::StagedCentre, PipelineFeed::StagedCentre) => {
                                self.tile_read(&[tile], "z-history advance");
                            }
                            _ => {
                                self.emit("LNT-D007", 1, || {
                                    Diagnostic::error(
                                        "LNT-D007",
                                        "z-rotation feed disagrees with the routine's z-feed",
                                    )
                                    .with("feed", format!("{feed:?}"))
                                });
                            }
                        }
                    }
                    PipelineKind::OutQueue => {
                        if let Some(s) = blk.sections.last_mut() {
                            s.q_rots += 1;
                        }
                        if feed != PipelineFeed::None {
                            self.emit("LNT-D007", 1, || {
                                Diagnostic::error("LNT-D007", "out-queue rotation takes no feed")
                            });
                        }
                    }
                }
            }
            PlanOp::WriteBack { plane, slot } => {
                let Some(blk) = self.block.as_mut() else {
                    self.emit("LNT-D006", 1, || {
                        Diagnostic::error("LNT-D006", "WriteBack outside any block")
                            .with("plane", plane)
                    });
                    return;
                };
                let (output, tile, out_depth) = (blk.output, blk.tile(), blk.out_depth);
                let mut stale = false;
                if let Some(s) = blk.sections.last_mut() {
                    // The slot being drained must have been produced by a
                    // compute earlier in this same section — a write-back
                    // that precedes its compute drains stale values.
                    stale = !s.computes.iter().any(|&(cs, _)| cs == slot);
                    s.writebacks.push((plane, slot));
                }
                if stale {
                    self.emit("LNT-D007", 1, || {
                        Diagnostic::error("LNT-D007", "write-back precedes its compute")
                            .with("plane", plane)
                            .with("slot", slot)
                    });
                }
                if slot >= out_depth {
                    self.emit("LNT-D007", 1, || {
                        Diagnostic::error("LNT-D007", "write-back from a slot past the out-queue")
                            .with("slot", slot)
                            .with("out_depth", out_depth)
                    });
                }
                self.buffer_write(output, plane, tile, WriteKind::WriteBack);
            }
            PlanOp::ApplyBoundary {
                input,
                output,
                boundary,
            } => {
                self.close_block();
                if boundary == Boundary::LeaveOutput {
                    return;
                }
                if input >= self.bufs.len()
                    || output >= self.bufs.len()
                    || self.bufs[input].dims != self.bufs[output].dims
                {
                    self.emit("LNT-D003", 1, || {
                        Diagnostic::error("LNT-D003", "boundary copy between mismatched buffers")
                            .with("input", input)
                            .with("output", output)
                    });
                    return;
                }
                let (nx, ny, nz) = self.bufs[input].dims;
                let (rx, ry) = (self.r.min(nx) as isize, self.r.min(ny) as isize);
                let full = self.bufs[input].full_plane();
                for k in 0..nz {
                    let rects: Vec<Rect> = if k < self.r || k + self.r >= nz {
                        vec![full]
                    } else {
                        vec![
                            Rect { y1: ry, ..full },
                            Rect {
                                y0: ny as isize - ry,
                                ..full
                            },
                            Rect {
                                x1: rx,
                                y0: ry,
                                y1: ny as isize - ry,
                                ..full
                            },
                            Rect {
                                x0: nx as isize - rx,
                                y0: ry,
                                y1: ny as isize - ry,
                                ..full
                            },
                        ]
                    };
                    for rect in rects {
                        self.buffer_read(input, k, rect, false);
                        self.buffer_write(output, k, rect, WriteKind::Boundary);
                    }
                }
            }
            PlanOp::SwapBufs { a, b } => {
                self.close_block();
                if a < 2 || b < 2 || a >= self.bufs.len() || b >= self.bufs.len() || a == b {
                    self.emit("LNT-D003", 1, || {
                        Diagnostic::error("LNT-D003", "swap needs two distinct working buffers")
                            .with("a", a)
                            .with("b", b)
                    });
                    return;
                }
                self.bufs.swap(a, b);
            }
            PlanOp::HaloExchange {
                device: _,
                src,
                dst,
                src_plane,
                dst_plane,
            } => {
                self.close_block();
                let ok = src < self.bufs.len()
                    && dst < self.bufs.len()
                    && src_plane < self.bufs[src].planes.len()
                    && dst_plane < self.bufs[dst].planes.len();
                if !ok {
                    self.emit("LNT-D003", 1, || {
                        Diagnostic::error("LNT-D003", "halo exchange references invalid planes")
                            .with("src", src)
                            .with("dst", dst)
                    });
                    return;
                }
                let src_full = self.bufs[src].full_plane();
                let dst_full = self.bufs[dst].full_plane();
                self.buffer_read(src, src_plane, src_full, false);
                self.buffer_write(dst, dst_plane, dst_full, WriteKind::Exchange);
            }
        }
    }

    fn finish(mut self, plan: &StagePlan) -> DataflowReport {
        self.close_block();
        // End-of-plan dead stores and unread exchanges.
        let mut by_kind: Vec<(WriteKind, u64)> = Vec::new();
        for buf in &self.bufs {
            if !buf.tracked {
                continue;
            }
            for plane in &buf.planes {
                for (kind, piece) in &plane.unread {
                    let a = piece.area();
                    self.report.dead_store_cells += a;
                    match by_kind.iter_mut().find(|(k, _)| k == kind) {
                        Some(e) => e.1 += a,
                        None => by_kind.push((*kind, a)),
                    }
                }
                if plane.exchange_unread {
                    self.report.dead_exchange_planes += 1;
                }
            }
        }
        // Output interior coverage (D005): the static twin of the
        // checked interpreter's empty-plan StageError.
        let (nx, ny, nz) = plan.dims;
        let r = self.r;
        if nx > 2 * r && ny > 2 * r && nz > 2 * r {
            let interior = Rect {
                x0: r as isize,
                x1: (nx - r) as isize,
                y0: r as isize,
                y1: (ny - r) as isize,
            };
            let mut missing = 0u64;
            for k in r..nz - r {
                missing += total_area(&subtract_all(
                    vec![interior],
                    &self.bufs[OUTPUT_BUF].planes[k].written,
                ));
            }
            if missing > 0 {
                self.report.missing_output_cells = missing;
                self.emit("LNT-D005", 1, || {
                    Diagnostic::error("LNT-D005", "output interior cells never written")
                        .with("cells", missing)
                        .with(
                            "interior",
                            ((nx - 2 * r) * (ny - 2 * r) * (nz - 2 * r)) as u64,
                        )
                });
            }
        }
        // Aggregate warnings / infos.
        if self.report.dead_store_cells > 0 {
            let cells = self.report.dead_store_cells;
            let detail = by_kind
                .iter()
                .map(|(k, n)| format!("{} = {n}", k.label()))
                .collect::<Vec<_>>()
                .join(", ");
            self.emit("LNT-D101", cells, || {
                Diagnostic::warning(
                    "LNT-D101",
                    "cells written to working buffers and never read \
                     (box-granular transport redundancy)",
                )
                .with("cells", cells)
                .with("by_kind", detail)
            });
        }
        if self.report.dead_exchange_planes > 0 {
            let planes = self.report.dead_exchange_planes;
            self.emit("LNT-D102", planes, || {
                Diagnostic::warning("LNT-D102", "exchanged halo planes never read")
                    .with("planes", planes)
            });
        }
        if self.report.dead_staged_cells > 0 {
            let cells = self.report.dead_staged_cells;
            self.emit("LNT-D103", cells, || {
                Diagnostic::warning(
                    "LNT-D103",
                    "non-corner cells staged but never read in their plane's section",
                )
                .with("cells", cells)
            });
        }
        if self.report.restaged_cells > 0 {
            let cells = self.report.restaged_cells;
            self.emit("LNT-D104", 0, || {
                Diagnostic::warning("LNT-D104", "cells staged more than once within one section")
                    .with("cells", cells)
            });
        }
        if self.report.dead_corner_cells > 0 {
            let cells = self.report.dead_corner_cells;
            self.emit("LNT-D901", cells, || {
                Diagnostic::info(
                    "LNT-D901",
                    "full-slice corner cells staged and never read (documented policy)",
                )
                .with("cells", cells)
            });
        }
        self.report
    }
}

/// Abstract-interpret a lowered plan and prove its buffer lifetimes,
/// cross-plan happens-before consistency and schedule shape, emitting
/// `LNT-D…` diagnostics. A clean lowered plan has zero error-severity
/// findings; warnings/infos document the transport redundancies the
/// transforms accept by design.
pub fn analyze_plan(plan: &StagePlan) -> DataflowReport {
    let mut halo_dst = HashSet::new();
    for op in &plan.ops {
        if let PlanOp::HaloExchange { dst, dst_plane, .. } = op {
            halo_dst.insert((*dst, *dst_plane));
        }
    }
    let mut flow = Flow {
        sk: plan.method.routine().skeleton(plan.radius),
        r: plan.radius,
        bufs: vec![
            BufState::new(plan.dims, false),
            BufState::new(plan.dims, false),
        ],
        halo_dst,
        block: None,
        report: DataflowReport::default(),
    };
    for op in &plan.ops {
        flow.step(op);
    }
    flow.finish(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::expected_pipeline_words;
    use inplane_core::plan::lower_step;
    use inplane_core::{registry, KernelSpec, LaunchConfig, Method, Variant};
    use stencil_grid::Precision;

    fn forward_plan() -> StagePlan {
        lower_step(
            Method::ForwardPlane,
            &LaunchConfig::new(4, 4, 1, 1),
            1,
            (10, 10, 8),
        )
    }

    /// The synthetic 3×3-tile plan the sweep lowers for this pass.
    fn synth_plan(method: Method, c: &LaunchConfig, r: usize) -> StagePlan {
        let dims = (2 * r + 3 * c.tile_x(), 2 * r + 3 * c.tile_y(), 4 * r + 2);
        lower_step(method, c, r, dims)
    }

    /// Staged-plane sections over all blocks: one interior stage each.
    fn sections(plan: &StagePlan) -> u64 {
        plan.ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    PlanOp::StageRegion {
                        zone: Zone::Interior,
                        ..
                    }
                )
            })
            .count() as u64
    }

    fn codes(rep: &DataflowReport) -> Vec<&'static str> {
        rep.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn missing_barrier_is_s002() {
        let mut plan = synth_plan(
            Method::InPlane(Variant::FullSlice),
            &LaunchConfig::new(32, 8, 1, 1),
            1,
        );
        // Remove the first stage barrier: its section's reads now race
        // with the stores.
        let first = plan
            .ops
            .iter()
            .position(|o| matches!(o, PlanOp::Barrier))
            .unwrap();
        plan.ops.remove(first);
        let rep = analyze_plan(&plan);
        assert!(codes(&rep).contains(&"LNT-S002"), "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"LNT-D001"), "fully staged");
        assert_eq!(rep.uninit_tile_cells, 0);
    }

    #[test]
    fn missing_stage_is_d001() {
        let mut plan = synth_plan(
            Method::InPlane(Variant::Horizontal),
            &LaunchConfig::new(32, 8, 1, 1),
            1,
        );
        // Drop the first section's top-halo stage (the second lowered
        // region): a read of cells nothing staged, not a race.
        let stages: Vec<usize> = (0..plan.ops.len())
            .filter(|&i| matches!(plan.ops[i], PlanOp::StageRegion { .. }))
            .collect();
        plan.ops.remove(stages[1]);
        let rep = analyze_plan(&plan);
        assert!(codes(&rep).contains(&"LNT-D001"), "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"LNT-S002"), "{:?}", rep.diagnostics);
        assert!(rep.uninit_tile_cells > 0);
    }

    #[test]
    fn lowered_schedule_has_the_proven_barrier_count() {
        for rt in registry() {
            let c = LaunchConfig::new(16, 4, 1, 2);
            let plan = synth_plan(rt.method(), &c, 2);
            let proven = rt.skeleton(2).barriers_per_plane;
            // D007 counts barriers section by section: the untouched
            // plan holds the proven count in every section...
            let rep = analyze_plan(&plan);
            assert!(rep.is_clean(), "{}: {:?}", rt.label(), rep.diagnostics);
            let barriers = plan.census().barriers;
            assert_eq!(barriers, sections(&plan) * proven as u64, "{}", rt.label());
            // ...and one extra barrier in one section is a D007.
            let mut extra = plan.clone();
            let at = extra
                .ops
                .iter()
                .position(|o| matches!(o, PlanOp::Barrier))
                .unwrap();
            extra.ops.insert(at, PlanOp::Barrier);
            let rep = analyze_plan(&extra);
            assert!(codes(&rep).contains(&"LNT-D007"), "{}", rt.label());
        }
        // The legacy five prove two; the double-buffered routine one.
        assert_eq!(
            Method::ForwardPlane
                .routine()
                .skeleton(2)
                .barriers_per_plane,
            StagePlan::BARRIERS_PER_PLANE
        );
        assert_eq!(
            Method::InPlane(Variant::DoubleBuffered)
                .routine()
                .skeleton(2)
                .barriers_per_plane,
            1
        );
    }

    #[test]
    fn lowered_depths_match_the_routine_table() {
        for rt in registry() {
            for order in [2usize, 4, 8] {
                let c = LaunchConfig::new(32, 8, 1, 1);
                let k = KernelSpec::star_order(rt.method(), order, Precision::Single);
                let mut plan = synth_plan(k.method, &c, k.radius);
                let (z_depth, out_depth) = plan
                    .ops
                    .iter()
                    .find_map(|op| match *op {
                        PlanOp::BeginBlock {
                            z_depth, out_depth, ..
                        } => Some((z_depth, out_depth)),
                        _ => None,
                    })
                    .unwrap();
                // The staged slot doubles as the accumulator, hence − 1.
                assert_eq!(
                    z_depth + out_depth - 1,
                    expected_pipeline_words(&k),
                    "{} order {order}",
                    rt.label()
                );
                assert!(analyze_plan(&plan).is_clean(), "{}", rt.label());
                // A block declaring one z-value too few is a D007.
                for op in &mut plan.ops {
                    if let PlanOp::BeginBlock { z_depth, .. } = op {
                        *z_depth -= 1;
                        break;
                    }
                }
                let rep = analyze_plan(&plan);
                assert!(
                    codes(&rep).contains(&"LNT-D007"),
                    "{} order {order}: {:?}",
                    rt.label(),
                    rep.diagnostics
                );
            }
        }
    }

    #[test]
    fn full_slice_over_stages_exactly_the_unread_corners() {
        // One 8×8 block, r = 2: each section stages the (8 + 2r)² slab,
        // and the star read footprint leaves exactly its 4r² corners
        // unread.
        let plan = lower_step(
            Method::InPlane(Variant::FullSlice),
            &LaunchConfig::new(8, 8, 1, 1),
            2,
            (12, 12, 12),
        );
        let sections = sections(&plan);
        let staged: u64 = plan.census().staged_area_by_zone.iter().sum();
        assert_eq!(staged, sections * 12 * 12);
        let rep = analyze_plan(&plan);
        assert!(rep.is_clean(), "{:?}", rep.diagnostics);
        assert_eq!(rep.dead_corner_cells, sections * 4 * 2 * 2);
    }

    #[test]
    fn lowered_forward_plan_is_clean() {
        let rep = analyze_plan(&forward_plan());
        assert!(rep.is_clean(), "{:?}", rep.diagnostics);
        assert_eq!(rep.uninit_tile_cells, 0);
        assert_eq!(rep.uninit_buffer_cells, 0);
        assert_eq!(rep.missing_output_cells, 0);
        assert_eq!(rep.dead_staged_cells, 0);
        assert_eq!(rep.restaged_cells, 0);
    }

    #[test]
    fn inplane_plans_report_only_the_documented_dead_arms() {
        for variant in [
            Variant::FullSlice,
            Variant::Horizontal,
            Variant::Vertical,
            Variant::Classical,
        ] {
            let plan = lower_step(
                Method::InPlane(variant),
                &LaunchConfig::new(4, 4, 1, 1),
                2,
                (12, 12, 10),
            );
            let rep = analyze_plan(&plan);
            assert!(rep.is_clean(), "{variant:?}: {:?}", rep.diagnostics);
            // The trailing r sections stage arms no fold ever reads.
            assert!(rep.dead_staged_cells > 0, "{variant:?}");
            assert_eq!(
                rep.dead_corner_cells > 0,
                variant == Variant::FullSlice,
                "{variant:?}"
            );
        }
    }

    #[test]
    fn dropped_interior_stage_is_an_uninitialized_tile_read() {
        let mut plan = forward_plan();
        let idx = plan
            .ops
            .iter()
            .position(|op| {
                matches!(
                    op,
                    PlanOp::StageRegion {
                        zone: Zone::Interior,
                        ..
                    }
                )
            })
            .unwrap();
        plan.ops.remove(idx);
        let rep = analyze_plan(&plan);
        assert!(!rep.is_clean());
        assert!(rep.diagnostics.iter().any(|d| d.code == "LNT-D001"));
        assert!(rep.uninit_tile_cells > 0);
    }

    #[test]
    fn dropped_writeback_is_an_output_gap() {
        let mut plan = forward_plan();
        let idx = plan
            .ops
            .iter()
            .position(|op| matches!(op, PlanOp::WriteBack { .. }))
            .unwrap();
        plan.ops.remove(idx);
        let rep = analyze_plan(&plan);
        assert!(rep.diagnostics.iter().any(|d| d.code == "LNT-D005"));
        assert!(rep.diagnostics.iter().any(|d| d.code == "LNT-D007"));
        assert!(rep.missing_output_cells > 0);
    }

    #[test]
    fn duplicated_stage_is_redundant_restaging() {
        let mut plan = forward_plan();
        let idx = plan
            .ops
            .iter()
            .position(|op| {
                matches!(
                    op,
                    PlanOp::StageRegion {
                        zone: Zone::Top,
                        ..
                    }
                )
            })
            .unwrap();
        let dup = plan.ops[idx];
        plan.ops.insert(idx, dup);
        let rep = analyze_plan(&plan);
        assert!(rep.restaged_cells > 0);
        assert!(rep.diagnostics.iter().any(|d| d.code == "LNT-D104"));
    }

    #[test]
    fn dropped_rotation_breaks_the_publish_alignment() {
        let mut plan = forward_plan();
        let idx = plan
            .ops
            .iter()
            .position(|op| matches!(op, PlanOp::RotatePipeline { .. }))
            .unwrap();
        plan.ops.remove(idx);
        let rep = analyze_plan(&plan);
        assert!(
            rep.diagnostics.iter().any(|d| d.code == "LNT-D007"),
            "{:?}",
            rep.diagnostics
        );
    }

    #[test]
    fn block_ops_outside_a_block_are_rejected() {
        let mut plan = forward_plan();
        let idx = plan
            .ops
            .iter()
            .position(|op| matches!(op, PlanOp::BeginBlock { .. }))
            .unwrap();
        plan.ops.remove(idx);
        let rep = analyze_plan(&plan);
        assert!(rep.diagnostics.iter().any(|d| d.code == "LNT-D006"));
    }

    #[test]
    fn empty_plan_reports_full_interior_missing() {
        let plan = StagePlan {
            method: Method::ForwardPlane,
            radius: 1,
            dims: (8, 8, 8),
            ops: Vec::new(),
        };
        let rep = analyze_plan(&plan);
        assert!(rep.diagnostics.iter().any(|d| d.code == "LNT-D005"));
        assert_eq!(rep.missing_output_cells, 6 * 6 * 6);
    }

    #[test]
    fn instance_cap_keeps_counting() {
        // Remove every interior stage: one D001 event per compute, far
        // past the cap, but the histogram keeps the true count.
        let mut plan = forward_plan();
        plan.ops.retain(|op| {
            !matches!(
                op,
                PlanOp::StageRegion {
                    zone: Zone::Interior,
                    ..
                }
            )
        });
        let rep = analyze_plan(&plan);
        let emitted = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "LNT-D001")
            .count();
        assert!(emitted <= MAX_INSTANCES_PER_CODE);
        let total = rep
            .histogram()
            .iter()
            .find(|(c, _)| *c == "LNT-D001")
            .map(|(_, n)| *n)
            .unwrap();
        assert!(total as usize > emitted);
    }

    #[test]
    fn report_json_is_structured() {
        let rep = analyze_plan(&forward_plan());
        let j = rep.to_json();
        assert!(j.contains("\"clean\":true"));
        assert!(j.contains("\"dead_store_cells\":0"));
    }
}
