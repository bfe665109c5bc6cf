//! Helpers shared by the recursive kernels (TRMM, SYRK, TRSM, POTRF, GETRF
//! and QR): the triangular operand, the leaf size and split point, the panel
//! policy, a shape check and small copies between column-major buffers.

use crate::config::BlockConfig;
use crate::driver::BlockedDriver;
use lamb_matrix::{Matrix, MatrixError, MatrixView, MatrixViewMut, Result, Trans, Uplo};
use std::ops::Range;

/// Largest block TRMM and SYRK compute whole: TRMM multiplies a compact
/// copy of its triangle, zeros included, and SYRK computes the full square
/// of its diagonal block. Larger blocks are halved.
pub(crate) const LEAF: usize = 96;

/// The triangular operand `op(L)` of TRMM and of an in-place solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Triangle<'a> {
    /// The square matrix holding the triangle.
    pub(crate) l: MatrixView<'a>,
    /// The stored triangle; the other one is never read.
    pub(crate) uplo: Uplo,
    /// Whether the kernel uses `Lᵀ`.
    pub(crate) trans: Trans,
    /// Whether the diagonal is an implicit one; it is then never read.
    pub(crate) unit: bool,
}

impl<'a> Triangle<'a> {
    /// The triangle `op(L)` occupies.
    pub(crate) fn eff(&self) -> Uplo {
        self.uplo.under(self.trans)
    }

    /// The diagonal block `op(L)[k0..k0+kb, k0..k0+kb]`.
    pub(crate) fn diag(&self, k0: usize, kb: usize) -> Triangle<'a> {
        Triangle {
            l: self.l.subview(k0, k0, kb, kb),
            ..*self
        }
    }

    /// The off-diagonal block `op(L)[r0..r0+nr, c0..c0+nc]` as a view of `L`
    /// and the transposition that turns it into the block.
    pub(crate) fn block(
        &self,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
    ) -> (MatrixView<'a>, Trans) {
        match self.trans {
            Trans::No => (self.l.subview(r0, c0, nr, nc), Trans::No),
            Trans::Yes => (self.l.subview(c0, r0, nc, nr), Trans::Yes),
        }
    }

    /// Write `op(L)` into the zero-filled `buf`, column-major with leading
    /// dimension equal to its order `k`, and return `k`. Only the effective
    /// triangle is written, so `buf` stays zero outside it. `buf` holds at
    /// least `k²` elements.
    pub(crate) fn compact(&self, buf: &mut [f64]) -> usize {
        let (k, data, ld) = (self.l.rows(), self.l.as_slice(), self.l.ld());
        for (p, col) in buf[..k * k].chunks_exact_mut(k.max(1)).enumerate() {
            let rows = triangle_rows(self.eff(), p, k);
            let dst = &mut col[rows.clone()];
            match self.trans {
                // Column p of L.
                Trans::No => dst.copy_from_slice(&data[p * ld + rows.start..p * ld + rows.end]),
                // Row p of L.
                Trans::Yes => {
                    let src = data[p + rows.start * ld..].iter().step_by(ld);
                    for (x, &v) in dst.iter_mut().zip(src) {
                        *x = v;
                    }
                }
            }
        }
        k
    }
}

/// The rows of column `j` of an order-`n` matrix inside its `uplo` triangle.
pub(crate) fn triangle_rows(uplo: Uplo, j: usize, n: usize) -> Range<usize> {
    match uplo {
        Uplo::Lower => j..n,
        Uplo::Upper => 0..j + 1,
    }
}

/// Run `f(j0, panel, serial)` on column panels of `c`, an output whose
/// update has inner dimension `k`, where `serial` is `cfg` without
/// parallelism. When `cfg` parallelises the whole update the panels run on
/// Rayon workers, so the kernel forks once; otherwise `f` sees all of `c`
/// (no part of an update too small to fork is large enough to fork).
pub(crate) fn for_each_panel<F>(c: MatrixViewMut<'_>, k: usize, cfg: &BlockConfig, f: F)
where
    F: Fn(usize, MatrixViewMut<'_>, &BlockConfig) + Sync,
{
    let parallel = cfg.should_parallelise(c.rows(), c.cols(), k);
    let mut serial = cfg.clone();
    serial.parallel = false;
    BlockedDriver::new(cfg).for_each_panel(c, parallel, |j0, panel| f(j0, panel, &serial));
}

/// Column `dst` (mutably) and column `src` (`src != dst`) of a column-major
/// buffer with leading dimension `ld`, `rows` long each.
pub(crate) fn column_pair(
    data: &mut [f64],
    ld: usize,
    rows: usize,
    dst: usize,
    src: usize,
) -> (&mut [f64], &[f64]) {
    debug_assert_ne!(dst, src);
    if src < dst {
        let (head, tail) = data.split_at_mut(dst * ld);
        (&mut tail[..rows], &head[src * ld..src * ld + rows])
    } else {
        let (head, tail) = data.split_at_mut(src * ld);
        (&mut head[dst * ld..dst * ld + rows], &tail[..rows])
    }
}

/// The order of the square `a`, or [`MatrixError::NotSquare`].
pub(crate) fn check_square(a: &MatrixViewMut<'_>) -> Result<usize> {
    if a.rows() != a.cols() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    Ok(a.rows())
}

/// An owned, compact copy of a window.
pub(crate) fn owned(v: &MatrixView<'_>) -> Matrix {
    let mut out = Matrix::zeros(v.rows(), v.cols());
    for j in 0..v.cols() {
        out.col_mut(j).copy_from_slice(v.col(j));
    }
    out
}

/// Where the recursive kernels split an order `n >= 2`: near the middle, on
/// a multiple of 8 when that leaves both parts nonempty, so the leading part
/// fills whole register tiles.
pub(crate) fn split(n: usize) -> usize {
    (n / 2).next_multiple_of(8).min(n - 1)
}
