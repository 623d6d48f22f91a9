//! The single instrumented interpreter every execution path runs on.
//!
//! A lowered [`StagePlan`] is executed op by op against a table of
//! buffers: slot [`INPUT_BUF`] is the caller's input grid (never
//! written), slot [`OUTPUT_BUF`] starts as a copy of the caller's
//! output grid (so `Boundary::LeaveOutput` semantics survive the
//! round-trip), and [`PlanOp::Alloc`] appends zeroed working buffers
//! for plan transforms (temporal tiles, per-device shards).
//!
//! Block-level ops maintain exactly the state the emulated CUDA block
//! has — one [`SharedBuffer`] and two [`RegisterPipeline`]s — and
//! reproduce the executors' floating-point summation order term for
//! term, so interpreting a lowered plan is bit-identical to the
//! pre-IR executors (the `plan_differential` suite pins this).
//!
//! Two entry points:
//!
//! * [`interpret_plan`] — panics on a read of an un-staged
//!   shared-buffer cell (the hard verification mode every test runs);
//! * [`interpret_plan_checked`] — collects [`StageError`]s and
//!   substitutes zero, so a deliberately tampered plan can be replayed
//!   and its runtime failures cross-checked 1:1 against the static
//!   `LNT-D001` findings on the same IR.

use super::buffer::{SharedBuffer, StageError};
use super::ExecStats;
use crate::plan::{
    ComputeKind, PipelineFeed, PipelineKind, PlanOp, StagePlan, StageSource, OUTPUT_BUF,
};
use stencil_grid::{Grid3, Real, RegisterPipeline, StarStencil};

/// A slot in the interpreter's buffer table.
enum BufSlot<'a, T> {
    /// The caller's input grid (read-only).
    Input(&'a Grid3<T>),
    /// A grid the interpreter owns (the output copy and every Alloc).
    Owned(Grid3<T>),
}

impl<T: Real> BufSlot<'_, T> {
    fn grid(&self) -> &Grid3<T> {
        match self {
            BufSlot::Input(g) => g,
            BufSlot::Owned(g) => g,
        }
    }

    fn grid_mut(&mut self) -> &mut Grid3<T> {
        match self {
            BufSlot::Input(_) => panic!("plan writes the read-only input buffer"),
            BufSlot::Owned(g) => g,
        }
    }
}

/// Per-block machine state: the shared staging tile and the two
/// register pipelines of the emulated thread block.
struct Block<T> {
    input: usize,
    output: usize,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
    buf: SharedBuffer<T>,
    z: RegisterPipeline<T>,
    q: RegisterPipeline<T>,
    cur_plane: Option<usize>,
}

impl<T: Real> Block<T> {
    #[inline]
    fn lane(&self, x: usize, y: usize) -> usize {
        (y - self.y0) * self.w + (x - self.x0)
    }
}

/// Interpret `plan`, panicking on any read of an un-staged
/// shared-buffer cell (the verification mode: a schedule bug aborts
/// the run with the staging zone and plane in the panic message).
pub fn interpret_plan<T: Real>(
    plan: &StagePlan,
    stencil: &StarStencil<T>,
    input: &Grid3<T>,
    out: &mut Grid3<T>,
) -> ExecStats {
    let (stats, errors) = run(plan, stencil, input, out, false);
    debug_assert!(errors.is_empty());
    stats
}

/// Interpret `plan`, collecting staging violations instead of
/// panicking: every read of an un-staged cell yields a [`StageError`]
/// (deduplicated per `(x, y, plane)`) and evaluates to zero. The
/// dynamic half of the lint cross-check.
pub fn interpret_plan_checked<T: Real>(
    plan: &StagePlan,
    stencil: &StarStencil<T>,
    input: &Grid3<T>,
    out: &mut Grid3<T>,
) -> (ExecStats, Vec<StageError>) {
    run(plan, stencil, input, out, true)
}

fn run<T: Real>(
    plan: &StagePlan,
    stencil: &StarStencil<T>,
    input: &Grid3<T>,
    out: &mut Grid3<T>,
    checked: bool,
) -> (ExecStats, Vec<StageError>) {
    assert_eq!(
        stencil.radius(),
        plan.radius,
        "stencil radius does not match the plan's"
    );
    assert_eq!(
        input.dims(),
        plan.dims,
        "input dims do not match the plan's"
    );
    assert_eq!(input.dims(), out.dims(), "grids must have matching dims");
    let r = plan.radius;

    let mut slots: Vec<BufSlot<'_, T>> = vec![BufSlot::Input(input), BufSlot::Owned(out.clone())];
    let mut stats = ExecStats::default();
    let mut errors: Vec<StageError> = Vec::new();
    let mut block: Option<Block<T>> = None;

    // A plan with no compute schedule would otherwise "succeed" while
    // producing nothing: in checked mode that is a coded error, not a
    // silent no-op (the unchecked mode keeps its fail-fast contract of
    // never reporting errors).
    if checked && plan.census().computes == 0 {
        errors.push(StageError {
            code: StageError::EMPTY_PLAN,
            x: 0,
            y: 0,
            plane: None,
            zone: "interior",
        });
    }

    // One shared-buffer read, in the block's checked or panicking mode.
    let read = |blk: &Block<T>, x: isize, y: isize, errs: &mut Vec<StageError>| -> T {
        if checked {
            match blk.buf.try_read(x, y) {
                Ok(v) => v,
                Err(e) => {
                    if !errs
                        .iter()
                        .any(|p| (p.x, p.y, p.plane) == (e.x, e.y, e.plane))
                    {
                        errs.push(e);
                    }
                    T::ZERO
                }
            }
        } else {
            blk.buf.read(x, y)
        }
    };

    for op in &plan.ops {
        match *op {
            PlanOp::Alloc { buf, dims } => {
                assert_eq!(buf, slots.len(), "plan allocates buffers out of order");
                slots.push(BufSlot::Owned(Grid3::new(dims.0, dims.1, dims.2)));
            }
            PlanOp::CopyBox {
                src,
                dst,
                src_org,
                dst_org,
                extent,
            } => {
                let (ex, ey, ez) = extent;
                let mut tmp = Vec::with_capacity(ex * ey * ez);
                {
                    let s = slots[src].grid();
                    for k in 0..ez {
                        for j in 0..ey {
                            for i in 0..ex {
                                tmp.push(s.get(src_org.0 + i, src_org.1 + j, src_org.2 + k));
                            }
                        }
                    }
                }
                let d = slots[dst].grid_mut();
                let mut it = tmp.into_iter();
                for k in 0..ez {
                    for j in 0..ey {
                        for i in 0..ex {
                            d.set(
                                dst_org.0 + i,
                                dst_org.1 + j,
                                dst_org.2 + k,
                                it.next().unwrap(),
                            );
                        }
                    }
                }
                if dst == OUTPUT_BUF {
                    stats.cells_copied_out += (ex * ey * ez) as u64;
                }
            }
            PlanOp::BeginBlock {
                device: _,
                input: in_buf,
                output: out_buf,
                x0,
                y0,
                w,
                h,
                z_depth,
                out_depth,
            } => {
                stats.blocks += 1;
                let mut z = RegisterPipeline::new(z_depth, w * h);
                let g = slots[in_buf].grid();
                for d in 0..z_depth {
                    let slot = z.slot_mut(d);
                    for y in y0..y0 + h {
                        for x in x0..x0 + w {
                            slot[(y - y0) * w + (x - x0)] = g.get(x, y, d);
                        }
                    }
                }
                block = Some(Block {
                    input: in_buf,
                    output: out_buf,
                    x0,
                    y0,
                    w,
                    h,
                    buf: SharedBuffer::for_tile(x0, y0, w, h, r),
                    z,
                    q: RegisterPipeline::new(out_depth, w * h),
                    cur_plane: None,
                });
            }
            PlanOp::StageRegion {
                zone,
                rect,
                plane,
                source,
            } => {
                let blk = block.as_mut().expect("StageRegion outside a block");
                if blk.cur_plane != Some(plane) {
                    blk.buf.clear();
                    blk.buf.set_plane(plane);
                    blk.cur_plane = Some(plane);
                    stats.planes_staged += 1;
                }
                let g = slots[blk.input].grid();
                let (nx, ny, _) = g.dims();
                for y in rect.y0..rect.y1 {
                    for x in rect.x0..rect.x1 {
                        // Clip to the grid: full-slice corners on edge
                        // tiles poke outside the allocation; the real
                        // kernel never uses those values.
                        if x < 0 || x as usize >= nx || y < 0 || y as usize >= ny {
                            continue;
                        }
                        let v = match source {
                            StageSource::Global => g.get(x as usize, y as usize, plane),
                            StageSource::PipelineCentre => {
                                blk.z.slot(r)[blk.lane(x as usize, y as usize)]
                            }
                        };
                        blk.buf.stage(x, y, v);
                        stats.cells_staged += 1;
                        stats.staged_cells_by_zone[zone.index()] += 1;
                    }
                }
            }
            PlanOp::Barrier => {
                stats.barriers += 1;
            }
            PlanOp::ComputePoint {
                plane: _,
                slot,
                kind,
            } => {
                let blk = block.as_mut().expect("ComputePoint outside a block");
                match kind {
                    ComputeKind::ForwardFull => {
                        stats.points_computed += (blk.w * blk.h) as u64;
                        for y in blk.y0..blk.y0 + blk.h {
                            for x in blk.x0..blk.x0 + blk.w {
                                let p = blk.lane(x, y);
                                let (xi, yi) = (x as isize, y as isize);
                                let mut acc = stencil.c0() * read(blk, xi, yi, &mut errors);
                                for m in 1..=r {
                                    let d = m as isize;
                                    let six = read(blk, xi - d, yi, &mut errors)
                                        + read(blk, xi + d, yi, &mut errors)
                                        + read(blk, xi, yi - d, &mut errors)
                                        + read(blk, xi, yi + d, &mut errors)
                                        + blk.z.slot(r - m)[p]
                                        + blk.z.slot(r + m)[p];
                                    acc += stencil.c(m) * six;
                                }
                                blk.q.slot_mut(slot)[p] = acc;
                            }
                        }
                    }
                    ComputeKind::InplanePartial => {
                        stats.points_computed += (blk.w * blk.h) as u64;
                        for y in blk.y0..blk.y0 + blk.h {
                            for x in blk.x0..blk.x0 + blk.w {
                                let p = blk.lane(x, y);
                                let (xi, yi) = (x as isize, y as isize);
                                let mut acc = stencil.c0() * read(blk, xi, yi, &mut errors);
                                for m in 1..=r {
                                    let d = m as isize;
                                    let five = read(blk, xi - d, yi, &mut errors)
                                        + read(blk, xi + d, yi, &mut errors)
                                        + read(blk, xi, yi - d, &mut errors)
                                        + read(blk, xi, yi + d, &mut errors)
                                        + blk.z.slot(r - m)[p];
                                    acc += stencil.c(m) * five;
                                }
                                blk.q.slot_mut(slot)[p] = acc;
                            }
                        }
                    }
                    ComputeKind::FoldCentre { depth } => {
                        let c = stencil.c(depth);
                        for y in blk.y0..blk.y0 + blk.h {
                            for x in blk.x0..blk.x0 + blk.w {
                                let p = blk.lane(x, y);
                                let centre = read(blk, x as isize, y as isize, &mut errors);
                                blk.q.slot_mut(slot)[p] += c * centre;
                            }
                        }
                    }
                }
            }
            PlanOp::RotatePipeline { pipeline, feed } => {
                let blk = block.as_mut().expect("RotatePipeline outside a block");
                stats.pipeline_rotations += 1;
                match pipeline {
                    PipelineKind::ZValues => {
                        let depth = blk.z.depth();
                        if depth == 0 {
                            continue;
                        }
                        blk.z.advance();
                        match feed {
                            PipelineFeed::None => {}
                            PipelineFeed::GlobalPlane(kp) => {
                                let g = slots[blk.input].grid();
                                for y in blk.y0..blk.y0 + blk.h {
                                    for x in blk.x0..blk.x0 + blk.w {
                                        let p = blk.lane(x, y);
                                        blk.z.slot_mut(depth - 1)[p] = g.get(x, y, kp);
                                    }
                                }
                            }
                            PipelineFeed::StagedCentre => {
                                for y in blk.y0..blk.y0 + blk.h {
                                    for x in blk.x0..blk.x0 + blk.w {
                                        let centre = read(blk, x as isize, y as isize, &mut errors);
                                        let p = blk.lane(x, y);
                                        blk.z.slot_mut(depth - 1)[p] = centre;
                                    }
                                }
                            }
                        }
                    }
                    PipelineKind::OutQueue => {
                        assert_eq!(feed, PipelineFeed::None, "out-queue rotation takes no feed");
                        blk.q.rotate_back();
                    }
                }
            }
            PlanOp::WriteBack { plane, slot } => {
                let blk = block.as_ref().expect("WriteBack outside a block");
                let (x0, y0, w, h) = (blk.x0, blk.y0, blk.w, blk.h);
                // Copy the lane vector first: the output buffer may be
                // the block's input in a degenerate plan, and the
                // borrow rules want one side at a time anyway.
                let vals: Vec<T> = blk.q.slot(slot).to_vec();
                let g = slots[blk.output].grid_mut();
                for y in y0..y0 + h {
                    for x in x0..x0 + w {
                        g.set(x, y, plane, vals[(y - y0) * w + (x - x0)]);
                        stats.global_writes += 1;
                    }
                }
            }
            PlanOp::ApplyBoundary {
                input: in_buf,
                output: out_buf,
                boundary,
            } => {
                let src = slots[in_buf].grid().clone();
                boundary.apply(&src, slots[out_buf].grid_mut(), r);
            }
            PlanOp::SwapBufs { a, b } => {
                assert!(
                    matches!(slots[a], BufSlot::Owned(_)) && matches!(slots[b], BufSlot::Owned(_)),
                    "SwapBufs needs two owned working buffers"
                );
                slots.swap(a, b);
            }
            PlanOp::HaloExchange {
                device: _,
                src,
                dst,
                src_plane,
                dst_plane,
            } => {
                let s = slots[src].grid();
                let (nx, ny, _) = s.dims();
                let mut tmp = Vec::with_capacity(nx * ny);
                for y in 0..ny {
                    for x in 0..nx {
                        tmp.push(s.get(x, y, src_plane));
                    }
                }
                let d = slots[dst].grid_mut();
                for y in 0..ny {
                    for x in 0..nx {
                        d.set(x, y, dst_plane, tmp[y * nx + x]);
                    }
                }
                stats.halo_planes_exchanged += 1;
                stats.halo_cells_exchanged += (nx * ny) as u64;
            }
        }
    }

    // Hand the final output buffer back to the caller.
    match &slots[OUTPUT_BUF] {
        BufSlot::Owned(g) => out.clone_from(g),
        BufSlot::Input(_) => unreachable!("output slot is always owned"),
    }
    (stats, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LaunchConfig;
    use crate::method::Method;
    use crate::plan::lower_step;
    use stencil_grid::FillPattern;

    /// Regression for the empty-plan edge: a checked run over a plan
    /// whose census reports zero compute points must return a coded
    /// [`StageError`], not silently succeed.
    #[test]
    fn checked_interpreter_rejects_empty_plans() {
        let s: StarStencil<f32> = StarStencil::from_order(2);
        let input: Grid3<f32> = FillPattern::HashNoise.build(8, 8, 8);
        let mut out = Grid3::new(8, 8, 8);

        let empty = StagePlan {
            method: Method::ForwardPlane,
            radius: 1,
            dims: (8, 8, 8),
            ops: Vec::new(),
        };
        assert_eq!(empty.census().computes, 0);
        let (stats, errors) = interpret_plan_checked(&empty, &s, &input, &mut out);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].code, StageError::EMPTY_PLAN);
        assert!(errors[0].to_string().contains("zero points"));
        assert_eq!(stats.points_computed, 0);

        // A real lowered plan stays error-free in checked mode.
        let plan = lower_step(
            Method::ForwardPlane,
            &LaunchConfig::new(4, 4, 1, 1),
            1,
            (8, 8, 8),
        );
        let (_, errors) = interpret_plan_checked(&plan, &s, &input, &mut out);
        assert!(errors.is_empty(), "{errors:?}");
    }
}
