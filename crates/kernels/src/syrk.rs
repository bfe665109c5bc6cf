//! Symmetric rank-k update: one triangle of `C := alpha * A·Aᵀ + beta * C`
//! (or `Aᵀ·A` with the transposed variant).
//!
//! Only the triangle selected by [`Uplo`] is read and written — the opposite
//! triangle of `C` is left untouched, exactly like the BLAS routine. This
//! matters for the paper's Algorithm 2 of `A·Aᵀ·B`, which must explicitly
//! copy the computed triangle into a full matrix before a subsequent GEMM can
//! use it.
//!
//! Structure: the output columns are distributed as column panels
//! ([`crate::driver::BlockedDriver::for_each_panel`]) — one fork when the
//! update runs in parallel, one panel when it runs serially. Within a panel
//! the rectangle below (lower) or above (upper) its diagonal block is one
//! GEMM-shaped update on the packed core, and the diagonal block is halved
//! (on a multiple of 8) like TRSM's triangle: the off-diagonal half of each
//! split is one GEMM-shaped update, and a block of order at most `LEAF` is
//! computed as a full square in a scratch of at most `LEAF²` elements whose
//! triangle is added to `C`. So only `O(n·LEAF·k)` FLOPs are spent outside
//! the triangle. POTRF's trailing update and QR's `larft` call [`syrk`].

use crate::config::BlockConfig;
use crate::gemm::gemm_acc;
use crate::recursion::{for_each_panel, split, triangle_rows, LEAF};
use lamb_matrix::{Matrix, MatrixError, MatrixView, MatrixViewMut, Result, Trans, Uplo};

/// `C_uplo := alpha * op(A)·op(A)ᵀ + beta * C_uplo` where `op(A)` is `A`
/// (`trans == No`, `A` is `n x k`) or `Aᵀ` (`trans == Yes`, `A` is `k x n`).
///
/// The FLOP count attributed to this kernel by the paper is `(n + 1)·n·k`
/// (see [`crate::flops::syrk_flops`]).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `C` is not `n x n`.
pub fn syrk(
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let (n, k) = trans.apply((a.rows(), a.cols()));
    if c.rows() != n || c.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "syrk output shape",
            lhs: (c.rows(), c.cols()),
            rhs: (n, n),
        });
    }

    scale_triangle(beta, uplo, c);
    if n == 0 || k == 0 || alpha == 0.0 {
        return Ok(());
    }
    let u = Update {
        uplo,
        trans,
        alpha,
        a: *a,
    };
    for_each_panel(c.subview_mut(0, 0, n, n), k, cfg, |j0, mut panel, cfg| {
        let w = panel.cols();
        u.diag(j0, &mut panel.subview_mut(j0, 0, w, w), cfg);
        let (r0, len) = match uplo {
            Uplo::Lower => (j0 + w, n - j0 - w),
            Uplo::Upper => (0, j0),
        };
        if len > 0 {
            u.product(r0, j0, &mut panel.subview_mut(r0, 0, len, w), cfg);
        }
    });
    Ok(())
}

/// `C += alpha * op(A)·op(A)ᵀ` on the `uplo` triangle, blockwise.
struct Update<'a> {
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: MatrixView<'a>,
}

impl Update<'_> {
    /// `c += alpha * op(A)[r0.., :]·op(A)[c0.., :]ᵀ` for the block `c` of
    /// `C` at rows `r0..` and columns `c0..`, which lies inside the triangle.
    fn product(&self, r0: usize, c0: usize, c: &mut MatrixViewMut<'_>, cfg: &BlockConfig) {
        let rows = |r0: usize, len: usize| match self.trans {
            Trans::No => self.a.subview(r0, 0, len, self.a.cols()),
            Trans::Yes => self.a.subview(0, r0, self.a.rows(), len),
        };
        let (a_r, a_c, t) = (rows(r0, c.rows()), rows(c0, c.cols()), self.trans);
        gemm_acc(self.alpha, &a_r, t, &a_c, t.flip(), c, cfg);
    }

    /// The diagonal block of `C` at `(j0, j0)`, of the order of `c`, by
    /// halving it down to blocks of order at most `LEAF`; each of those is
    /// computed as a full square and its triangle added to `c`.
    fn diag(&self, j0: usize, c: &mut MatrixViewMut<'_>, cfg: &BlockConfig) {
        let n = c.rows();
        if n <= LEAF {
            let mut square = Matrix::zeros(n, n);
            self.product(j0, j0, &mut square.view_mut(), cfg);
            for j in 0..n {
                let rows = triangle_rows(self.uplo, j, n);
                let src = &square.col(j)[rows.clone()];
                for (x, &s) in c.col_mut(j)[rows].iter_mut().zip(src) {
                    *x += s;
                }
            }
            return;
        }
        let h = split(n);
        let (mut c1, mut c2) = c.subview_mut(0, 0, n, n).split_at_col_mut(h);
        self.diag(j0, &mut c1.subview_mut(0, 0, h, h), cfg);
        match self.uplo {
            Uplo::Lower => self.product(j0 + h, j0, &mut c1.subview_mut(h, 0, n - h, h), cfg),
            Uplo::Upper => self.product(j0, j0 + h, &mut c2.subview_mut(0, 0, h, n - h), cfg),
        }
        self.diag(j0 + h, &mut c2.subview_mut(h, 0, n - h, n - h), cfg);
    }
}

/// Scale only the `uplo` triangle of `c` by `beta`, honouring the BLAS rule
/// that `beta == 0` writes zeros without reading the previous contents.
fn scale_triangle(beta: f64, uplo: Uplo, c: &mut MatrixViewMut<'_>) {
    if beta == 1.0 {
        return;
    }
    let n = c.cols();
    for j in 0..n {
        for x in &mut c.col_mut(j)[triangle_rows(uplo, j, n)] {
            *x = if beta == 0.0 { 0.0 } else { beta * *x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use lamb_matrix::random::random_seeded;
    use lamb_matrix::Matrix;

    /// Reference: full product op(A)*op(A)^T via the naive kernel.
    fn reference_full(trans: Trans, a: &Matrix, alpha: f64) -> Matrix {
        let n = match trans {
            Trans::No => a.rows(),
            Trans::Yes => a.cols(),
        };
        let mut c = Matrix::zeros(n, n);
        gemm_naive(
            trans,
            trans.flip(),
            alpha,
            &a.view(),
            &a.view(),
            0.0,
            &mut c.view_mut(),
        )
        .unwrap();
        c
    }

    fn check(
        uplo: Uplo,
        trans: Trans,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        cfg: &BlockConfig,
    ) {
        let (ar, ac) = trans.apply((n, k));
        let a = random_seeded(ar, ac, 100 + n as u64 + k as u64);
        let c0 = random_seeded(n, n, 55);
        let mut c = c0.clone();
        syrk(uplo, trans, alpha, &a.view(), beta, &mut c.view_mut(), cfg).unwrap();
        let full = reference_full(trans, &a, alpha);
        for i in 0..n {
            for j in 0..n {
                let expected = if uplo.contains(i, j) {
                    beta * c0[(i, j)] + full[(i, j)]
                } else {
                    // The opposite triangle must be untouched.
                    c0[(i, j)]
                };
                assert!(
                    (c[(i, j)] - expected).abs() < 1e-10 * (k as f64).max(1.0),
                    "uplo {:?} trans {:?} n={n} k={k} ({i},{j}): got {} expected {}",
                    uplo,
                    trans,
                    c[(i, j)],
                    expected
                );
            }
        }
    }

    #[test]
    fn lower_and_upper_match_reference_serial() {
        let cfg = BlockConfig::serial();
        for &uplo in &[Uplo::Lower, Uplo::Upper] {
            check(uplo, Trans::No, 17, 9, 1.0, 0.0, &cfg);
            check(uplo, Trans::No, 32, 40, 2.0, 1.0, &cfg);
            check(uplo, Trans::Yes, 21, 13, 1.0, 0.5, &cfg);
        }
    }

    #[test]
    fn parallel_path_matches_reference() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        for &uplo in &[Uplo::Lower, Uplo::Upper] {
            check(uplo, Trans::No, 90, 64, 1.0, 0.0, &cfg);
            check(uplo, Trans::Yes, 70, 110, -1.0, 2.0, &cfg);
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_tiles() {
        let cfg = BlockConfig::tiny();
        check(Uplo::Lower, Trans::No, 13, 7, 1.0, 0.0, &cfg);
        check(Uplo::Upper, Trans::No, 13, 7, 1.0, 0.0, &cfg);
    }

    #[test]
    fn degenerate_sizes() {
        let cfg = BlockConfig::default();
        check(Uplo::Lower, Trans::No, 1, 1, 1.0, 0.0, &cfg);
        check(Uplo::Upper, Trans::No, 1, 5, 1.0, 3.0, &cfg);
        // k = 0: triangle is scaled by beta, nothing else happens.
        let a = Matrix::zeros(4, 0);
        let mut c = Matrix::filled(4, 4, 2.0);
        syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            &a.view(),
            0.5,
            &mut c.view_mut(),
            &cfg,
        )
        .unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let expected = if i >= j { 1.0 } else { 2.0 };
                assert_eq!(c[(i, j)], expected);
            }
        }
    }

    #[test]
    fn result_triangle_is_consistent_with_symmetry() {
        // Computing the lower triangle and mirroring must equal computing the
        // upper triangle and mirroring.
        let cfg = BlockConfig::serial();
        let a = random_seeded(25, 14, 9);
        let mut lower = Matrix::zeros(25, 25);
        let mut upper = Matrix::zeros(25, 25);
        syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            &a.view(),
            0.0,
            &mut lower.view_mut(),
            &cfg,
        )
        .unwrap();
        syrk(
            Uplo::Upper,
            Trans::No,
            1.0,
            &a.view(),
            0.0,
            &mut upper.view_mut(),
            &cfg,
        )
        .unwrap();
        lower.symmetrize_from(Uplo::Lower).unwrap();
        upper.symmetrize_from(Uplo::Upper).unwrap();
        assert!(lamb_matrix::ops::max_abs_diff(&lower, &upper).unwrap() < 1e-11);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let cfg = BlockConfig::default();
        let a = Matrix::zeros(5, 3);
        let mut c = Matrix::zeros(4, 4);
        assert!(syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            &a.view(),
            0.0,
            &mut c.view_mut(),
            &cfg
        )
        .is_err());
    }
}
