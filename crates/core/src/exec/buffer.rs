//! The emulated shared-memory staging buffer.
//!
//! Cells must be explicitly staged before they can be read; reading an
//! un-staged cell panics. That turns the variants' structural promises
//! into checked invariants: e.g. the horizontal pattern never stages the
//! corner cells, so a kernel that accidentally read a corner would fail
//! its tests instead of silently reading stale shared memory (which is
//! what the real CUDA kernel would do).

use std::fmt;
use stencil_grid::Real;

/// Structured description of a read from an un-staged shared-buffer
/// cell: where in the grid it happened, which z-plane the buffer was
/// staging, and which zone of the halo-framed window the cell belongs
/// to. This is the dynamic counterpart of the static unstaged-read
/// proof in `stencil-lint`'s dataflow pass (`LNT-D001`): both count the
/// same cells of the same staged plane, so a static finding can be
/// cross-checked against the emulator's runtime verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageError {
    /// The stable `stencil-lint` diagnostic code the failure corresponds
    /// to: [`StageError::UNSTAGED_READ`] for reads of un-staged cells,
    /// [`StageError::EMPTY_PLAN`] for plans with no compute schedule.
    pub code: &'static str,
    /// Grid x-coordinate of the offending read.
    pub x: isize,
    /// Grid y-coordinate of the offending read.
    pub y: isize,
    /// z-plane the buffer was staging when the read happened (`None`
    /// before the first [`SharedBuffer::set_plane`]).
    pub plane: Option<usize>,
    /// Which staging zone the cell belongs to: `interior`, `top halo`,
    /// `bottom halo`, `left halo`, `right halo` or `corner halo`.
    pub zone: &'static str,
}

impl StageError {
    /// Code of a read from an un-staged shared-buffer cell — the
    /// runtime counterpart of the static `LNT-D001` dataflow proof.
    pub const UNSTAGED_READ: &'static str = "LNT-S001";
    /// Code of a checked run over a plan whose census reports zero
    /// compute points — the runtime counterpart of the static `LNT-D005`
    /// output-coverage proof.
    pub const EMPTY_PLAN: &'static str = "LNT-D005";
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.code == Self::EMPTY_PLAN {
            return write!(f, "plan computes zero points (empty compute schedule)");
        }
        write!(
            f,
            "read of un-staged shared-buffer cell ({},{}) in the {}",
            self.x, self.y, self.zone
        )?;
        match self.plane {
            Some(k) => write!(f, " while staging plane {k}"),
            None => write!(f, " before any plane was staged"),
        }
    }
}

impl std::error::Error for StageError {}

/// A 2-D staging buffer covering grid columns `[x0, x0+w)` and rows
/// `[y0, y0+h)` of the current z-plane.
#[derive(Clone, Debug)]
pub struct SharedBuffer<T> {
    x0: isize,
    y0: isize,
    w: usize,
    h: usize,
    halo: usize,
    plane: Option<usize>,
    data: Vec<T>,
    staged: Vec<bool>,
    stage_count: u64,
}

impl<T: Real> SharedBuffer<T> {
    /// Allocate a buffer for the given grid-coordinate window (no halo
    /// frame: every cell classifies as `interior`).
    pub fn new(x0: isize, y0: isize, w: usize, h: usize) -> Self {
        SharedBuffer {
            x0,
            y0,
            w,
            h,
            halo: 0,
            plane: None,
            data: vec![T::ZERO; w * h],
            staged: vec![false; w * h],
            stage_count: 0,
        }
    }

    /// Buffer for a tile `[x0, x0+w) × [y0, y0+h)` framed by a halo of
    /// width `r` on every side.
    pub fn for_tile(x0: usize, y0: usize, w: usize, h: usize, r: usize) -> Self {
        let mut buf = Self::new(
            x0 as isize - r as isize,
            y0 as isize - r as isize,
            w + 2 * r,
            h + 2 * r,
        );
        buf.halo = r;
        buf
    }

    #[inline]
    fn index(&self, x: isize, y: isize) -> usize {
        let lx = x - self.x0;
        let ly = y - self.y0;
        assert!(
            lx >= 0 && (lx as usize) < self.w && ly >= 0 && (ly as usize) < self.h,
            "shared-buffer access ({x},{y}) outside window [{},{})x[{},{})",
            self.x0,
            self.x0 + self.w as isize,
            self.y0,
            self.y0 + self.h as isize,
        );
        ly as usize * self.w + lx as usize
    }

    /// Stage a value at grid coordinates `(x, y)`.
    pub fn stage(&mut self, x: isize, y: isize, v: T) {
        let i = self.index(x, y);
        self.data[i] = v;
        self.staged[i] = true;
        self.stage_count += 1;
    }

    /// Which staging zone of the halo-framed window `(x, y)` falls in.
    fn zone(&self, x: isize, y: isize) -> &'static str {
        let r = self.halo as isize;
        let lx = x - self.x0;
        let ly = y - self.y0;
        let x_side = lx < r || lx >= self.w as isize - r;
        let y_side = ly < r || ly >= self.h as isize - r;
        match (x_side, y_side) {
            (false, false) => "interior",
            (true, true) => "corner halo",
            (true, false) if lx < r => "left halo",
            (true, false) => "right halo",
            (false, true) if ly < r => "top halo",
            (false, true) => "bottom halo",
        }
    }

    /// Read a staged value, or describe exactly what went wrong.
    ///
    /// # Panics
    /// Panics if `(x, y)` lies outside the buffer window (a structural
    /// bug in the caller, not a staging-order bug).
    pub fn try_read(&self, x: isize, y: isize) -> Result<T, StageError> {
        let i = self.index(x, y);
        if self.staged[i] {
            Ok(self.data[i])
        } else {
            Err(StageError {
                code: StageError::UNSTAGED_READ,
                x,
                y,
                plane: self.plane,
                zone: self.zone(x, y),
            })
        }
    }

    /// Read a staged value.
    ///
    /// # Panics
    /// Panics if the cell was never staged since the last
    /// [`SharedBuffer::clear`] — the emulated equivalent of reading
    /// garbage shared memory. The message names the grid coordinates,
    /// the staging zone and the z-plane being staged.
    pub fn read(&self, x: isize, y: isize) -> T {
        self.try_read(x, y).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Record which z-plane the buffer is staging (carried into
    /// [`StageError`]s for diagnosis).
    pub fn set_plane(&mut self, k: usize) {
        self.plane = Some(k);
    }

    /// Whether a cell currently holds staged data.
    pub fn is_staged(&self, x: isize, y: isize) -> bool {
        self.staged[self.index(x, y)]
    }

    /// Invalidate all cells (the per-plane restage).
    pub fn clear(&mut self) {
        self.staged.fill(false);
    }

    /// Total stage operations performed over the buffer's lifetime.
    pub fn stage_count(&self) -> u64 {
        self.stage_count
    }

    /// Window extent `(w, h)`.
    pub fn extent(&self) -> (usize, usize) {
        (self.w, self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_then_read_roundtrips() {
        let mut b: SharedBuffer<f32> = SharedBuffer::new(10, 20, 4, 4);
        b.stage(11, 21, 3.5);
        assert_eq!(b.read(11, 21), 3.5);
        assert!(b.is_staged(11, 21));
        assert!(!b.is_staged(10, 20));
    }

    #[test]
    #[should_panic(expected = "un-staged")]
    fn unstaged_read_panics() {
        let b: SharedBuffer<f64> = SharedBuffer::new(0, 0, 2, 2);
        b.read(0, 0);
    }

    #[test]
    fn unstaged_read_message_carries_coordinates_zone_and_plane() {
        let mut b: SharedBuffer<f32> = SharedBuffer::for_tile(8, 8, 4, 4, 2);
        b.set_plane(17);
        let err = b.try_read(6, 6).unwrap_err();
        assert_eq!((err.x, err.y), (6, 6));
        assert_eq!(err.plane, Some(17));
        assert_eq!(err.zone, "corner halo");
        assert_eq!(err.code, StageError::UNSTAGED_READ);
        assert_eq!(
            err.to_string(),
            "read of un-staged shared-buffer cell (6,6) in the corner halo while staging plane 17"
        );
        let caught = std::panic::catch_unwind(|| b.read(6, 6)).unwrap_err();
        let msg = caught.downcast_ref::<String>().expect("panic message");
        assert_eq!(msg, &err.to_string());
    }

    #[test]
    fn zones_classify_the_halo_frame() {
        let b: SharedBuffer<f32> = SharedBuffer::for_tile(8, 8, 4, 4, 2);
        assert_eq!(b.try_read(9, 9).unwrap_err().zone, "interior");
        assert_eq!(b.try_read(9, 6).unwrap_err().zone, "top halo");
        assert_eq!(b.try_read(9, 13).unwrap_err().zone, "bottom halo");
        assert_eq!(b.try_read(6, 9).unwrap_err().zone, "left halo");
        assert_eq!(b.try_read(13, 9).unwrap_err().zone, "right halo");
        assert_eq!(b.try_read(13, 13).unwrap_err().zone, "corner halo");
        // A plain window has no halo: everything is interior.
        let plain: SharedBuffer<f32> = SharedBuffer::new(0, 0, 2, 2);
        let err = plain.try_read(0, 0).unwrap_err();
        assert_eq!(err.zone, "interior");
        assert_eq!(err.plane, None);
        assert!(err.to_string().contains("before any plane was staged"));
    }

    #[test]
    fn empty_plan_error_renders_its_own_message() {
        let err = StageError {
            code: StageError::EMPTY_PLAN,
            x: 0,
            y: 0,
            plane: None,
            zone: "interior",
        };
        assert_eq!(
            err.to_string(),
            "plan computes zero points (empty compute schedule)"
        );
    }

    #[test]
    fn try_read_roundtrips_staged_cells() {
        let mut b: SharedBuffer<f64> = SharedBuffer::for_tile(0, 0, 4, 4, 1);
        b.stage(2, 2, 9.0);
        assert_eq!(b.try_read(2, 2), Ok(9.0));
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn out_of_window_access_panics() {
        let b: SharedBuffer<f32> = SharedBuffer::new(0, 0, 2, 2);
        let _ = b.is_staged(2, 0);
    }

    #[test]
    fn clear_invalidates() {
        let mut b: SharedBuffer<f32> = SharedBuffer::new(0, 0, 2, 2);
        b.stage(1, 1, 1.0);
        b.clear();
        assert!(!b.is_staged(1, 1));
        assert_eq!(b.stage_count(), 1);
    }

    #[test]
    fn for_tile_frames_with_halo() {
        let b: SharedBuffer<f32> = SharedBuffer::for_tile(8, 8, 4, 4, 2);
        assert_eq!(b.extent(), (8, 8));
        // Halo corners are inside the window (stageable but never
        // required to be staged).
        assert!(!b.is_staged(6, 6));
        assert!(!b.is_staged(13, 13));
    }

    #[test]
    fn negative_window_coordinates_work() {
        let mut b: SharedBuffer<f64> = SharedBuffer::new(-3, -2, 4, 4);
        b.stage(-3, -2, 7.0);
        assert_eq!(b.read(-3, -2), 7.0);
    }
}
