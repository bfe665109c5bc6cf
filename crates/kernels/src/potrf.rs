//! Cholesky factorisation: `A = L·Lᵀ` (lower) or `A = Uᵀ·U` (upper) of a
//! symmetric positive-definite matrix, in place on the stored triangle.
//!
//! The factor overwrites the `uplo` triangle of `A`; the opposite triangle is
//! neither read nor written (callers that need an explicitly triangular
//! factor — zeros outside the triangle — start from a zeroed matrix and copy
//! only the stored triangle in, which is exactly what the out-of-place
//! [`crate::dispatch::Kernel::Potrf`] realisation does).
//!
//! Structure: a **two-level right-looking** algorithm on in-place views of
//! `A`. The outer loop walks the diagonal in blocks of
//! [`BlockConfig::tri_block`] (the outer panel width); inside a block the
//! recursion halves the order until at most `BASE` remains. Each step, at
//! either level, with block order `k`,
//!
//! 1. factors the leading `k x k` block by the recursion,
//! 2. solves the panel below (right of) it in place with the recursive
//!    triangular solve of [`mod@crate::trsm`], and
//! 3. folds the panel into the trailing block with a rank-`k` update by
//!    [`crate::syrk::syrk`], whose own halving puts all but a thin band
//!    along the diagonal on the packed core,
//!
//! and leaves the trailing block to the next step. Blocks of order at most
//! `BASE` are factored by a scalar loop over contiguous columns (reporting
//! [`MatrixError::NotPositiveDefinite`] on a non-positive or NaN pivot),
//! which is `O(n·BASE²)` of the `n³/3` FLOPs; everything else runs on the
//! packed core. The only copies are the `k x k` triangle the lower solve
//! reads (it shares columns with the panel it solves) and the `k`-row panel
//! the upper update reads (it shares columns with the block it updates).
//!
//! The Section-3.1-style FLOP model attributes `n³/3` FLOPs to the
//! factorisation (see [`crate::flops::potrf_flops`]): one sixth of the
//! equal-order GEMM, which is the FLOPs-versus-time tension that makes
//! Cholesky-based realisations of SPD inverses a fresh source of the paper's
//! anomalies.

use crate::config::BlockConfig;
use crate::recursion::{check_square, column_pair, owned, split, Triangle};
use crate::syrk::syrk;
use crate::trsm::solve;
use lamb_matrix::{MatrixError, MatrixViewMut, Result, Side, Trans, Uplo};

/// Largest order factored by the scalar loop.
const BASE: usize = 16;

/// Factor the `uplo` triangle of the square matrix `a` in place:
/// `A = L·Lᵀ` for [`Uplo::Lower`], `A = Uᵀ·U` for [`Uplo::Upper`]. Only the
/// `uplo` triangle is read and written.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input and
/// [`MatrixError::NotPositiveDefinite`] (with the absolute pivot index) when
/// the matrix is not positive definite, in which case the leading part of the
/// triangle holds a partial factor.
pub fn potrf(uplo: Uplo, a: &mut MatrixViewMut<'_>, cfg: &BlockConfig) -> Result<()> {
    let n = check_square(a)?;
    let tb = cfg.tri_block.max(1);
    let mut k0 = 0;
    while k0 < n {
        let kb = tb.min(n - k0);
        step(uplo, a.subview_mut(k0, k0, n - k0, n - k0), kb, k0, cfg)?;
        k0 += kb;
    }
    Ok(())
}

/// Factor the square view `a` by halving; its first pivot has absolute
/// index `offset`.
fn chol(uplo: Uplo, mut a: MatrixViewMut<'_>, offset: usize, cfg: &BlockConfig) -> Result<()> {
    let n = a.rows();
    if n <= BASE {
        return chol_base(uplo, &mut a, offset);
    }
    let h = split(n);
    step(uplo, a.subview_mut(0, 0, n, n), h, offset, cfg)?;
    chol(uplo, a.subview_mut(h, h, n - h, n - h), offset + h, cfg)
}

/// Factor the leading `k x k` block of the square view `a`, solve the panel
/// below (right of) it and fold the panel into the trailing block, which is
/// left for the caller to factor.
fn step(
    uplo: Uplo,
    a: MatrixViewMut<'_>,
    k: usize,
    offset: usize,
    cfg: &BlockConfig,
) -> Result<()> {
    let r = a.rows() - k;
    let (mut left, mut right) = a.split_at_col_mut(k);
    chol(uplo, left.subview_mut(0, 0, k, k), offset, cfg)?;
    if r == 0 {
        return Ok(());
    }
    match uplo {
        Uplo::Lower => {
            // L21 := A21·L11⁻ᵀ, then A22 -= L21·L21ᵀ.
            let l11 = owned(&left.as_view().subview(0, 0, k, k));
            let t = Triangle {
                l: l11.view(),
                uplo,
                trans: Trans::Yes,
                unit: false,
            };
            solve(Side::Right, t, &mut left.subview_mut(k, 0, r, k), cfg);
            let l21 = left.as_view().subview(k, 0, r, k);
            let mut a22 = right.subview_mut(k, 0, r, r);
            syrk(uplo, Trans::No, -1.0, &l21, 1.0, &mut a22, cfg)
        }
        Uplo::Upper => {
            // U12 := U11⁻ᵀ·A12, then A22 -= U12ᵀ·U12.
            let t = Triangle {
                l: left.as_view().subview(0, 0, k, k),
                uplo,
                trans: Trans::Yes,
                unit: false,
            };
            solve(Side::Left, t, &mut right.subview_mut(0, 0, k, r), cfg);
            let u12 = owned(&right.as_view().subview(0, 0, k, r));
            let mut a22 = right.subview_mut(k, 0, r, r);
            syrk(uplo, Trans::Yes, -1.0, &u12.view(), 1.0, &mut a22, cfg)
        }
    }
}

/// Scalar Cholesky of a block of order at most `BASE` over contiguous
/// columns: right-looking `axpy`s down the columns of `L`, or the dot-product
/// form down the columns of `U`. Pivot failures report `offset` plus the
/// pivot's index in the block.
fn chol_base(uplo: Uplo, a: &mut MatrixViewMut<'_>, offset: usize) -> Result<()> {
    let (n, ld) = (a.rows(), a.ld());
    let data = a.as_mut_slice();
    let pivot = |d: f64, j: usize| {
        // `!(d > 0)` also rejects a NaN pivot.
        if d > 0.0 {
            Ok(d.sqrt())
        } else {
            Err(MatrixError::NotPositiveDefinite { index: offset + j })
        }
    };
    for j in 0..n {
        match uplo {
            Uplo::Lower => {
                let d = pivot(data[j + j * ld], j)?;
                data[j + j * ld] = d;
                for x in &mut data[j * ld + j + 1..j * ld + n] {
                    *x /= d;
                }
                for jj in (j + 1)..n {
                    let (dst, src) = column_pair(data, ld, n, jj, j);
                    let l = src[jj];
                    for (x, &s) in dst[jj..].iter_mut().zip(&src[jj..]) {
                        *x -= s * l;
                    }
                }
            }
            Uplo::Upper => {
                // U[0..j, j] := U[0..j, 0..j]⁻ᵀ·A[0..j, j], then the pivot.
                for i in 0..j {
                    let (dst, src) = column_pair(data, ld, n, j, i);
                    let s: f64 = src[..i].iter().zip(&dst[..i]).map(|(u, x)| u * x).sum();
                    dst[i] = (dst[i] - s) / src[i];
                }
                let col = &mut data[j * ld..j * ld + n];
                let s: f64 = col[..j].iter().map(|u| u * u).sum();
                col[j] = pivot(col[j] - s, j)?;
            }
        }
    }
    Ok(())
}

/// Reference POTRF: the scalar unblocked Cholesky recurrence over the whole
/// matrix. Used by the unit and property tests to validate the blocked
/// kernel. (`lamb_matrix::ops::is_spd` carries its own copy of the same
/// recurrence — that crate sits below this one and cannot call in here.)
///
/// # Errors
///
/// Same checks as [`potrf`].
pub fn potrf_naive(uplo: Uplo, a: &mut MatrixViewMut<'_>) -> Result<()> {
    let n = check_square(a)?;
    // Element (i, j) of the effective lower-triangular factor being built:
    // for Upper the roles of rows and columns swap (A = UᵀU is the Cholesky
    // of the same matrix with the factor living in the upper triangle).
    let at = |a: &MatrixViewMut<'_>, i: usize, j: usize| match uplo {
        Uplo::Lower => a.at(i, j),
        Uplo::Upper => a.at(j, i),
    };
    for j in 0..n {
        let mut d = at(a, j, j);
        for p in 0..j {
            let v = at(a, j, p);
            d -= v * v;
        }
        // The NaN check also rejects poisoned pivots (e.g. inf - inf
        // upstream), which would otherwise propagate silently through sqrt.
        if d <= 0.0 || d.is_nan() {
            return Err(MatrixError::NotPositiveDefinite { index: j });
        }
        let d = d.sqrt();
        *a.at_mut(j, j) = d;
        for i in (j + 1)..n {
            let mut s = at(a, i, j);
            for p in 0..j {
                s -= at(a, i, p) * at(a, j, p);
            }
            match uplo {
                Uplo::Lower => *a.at_mut(i, j) = s / d,
                Uplo::Upper => *a.at_mut(j, i) = s / d,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use crate::trsm::trsm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::{random_seeded, random_spd};
    use lamb_matrix::Matrix;

    /// Zero the opposite triangle so the factor can be multiplied as a full
    /// matrix by the naive GEMM reference.
    fn explicit_triangle(a: &Matrix, uplo: Uplo) -> Matrix {
        Matrix::from_fn(a.rows(), a.cols(), |i, j| {
            if uplo.contains(i, j) {
                a[(i, j)]
            } else {
                0.0
            }
        })
    }

    fn check_reconstruction(uplo: Uplo, n: usize, seed: u64, cfg: &BlockConfig) {
        let a = random_spd(n, seed);
        let mut f = a.clone();
        potrf(uplo, &mut f.view_mut(), cfg).unwrap();
        let l = explicit_triangle(&f, uplo);
        // L·Lᵀ (lower) or Uᵀ·U (upper) must reproduce A.
        let (ta, tb) = match uplo {
            Uplo::Lower => (Trans::No, Trans::Yes),
            Uplo::Upper => (Trans::Yes, Trans::No),
        };
        let mut back = Matrix::zeros(n, n);
        gemm_naive(ta, tb, 1.0, &l.view(), &l.view(), 0.0, &mut back.view_mut()).unwrap();
        let diff = max_abs_diff(&back, &a).unwrap();
        assert!(
            diff < 1e-10 * (n as f64).max(1.0),
            "uplo {uplo:?} n {n}: reconstruction diff {diff}"
        );
    }

    #[test]
    fn blocked_factor_reconstructs_the_matrix() {
        let cfg = BlockConfig::serial();
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for n in [1, 2, 5, 23, 64, 65, 97] {
                check_reconstruction(uplo, n, 7 + n as u64, &cfg);
            }
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_diag_blocks() {
        let cfg = BlockConfig::tiny(); // tri_block = 3
        for uplo in [Uplo::Lower, Uplo::Upper] {
            check_reconstruction(uplo, 13, 3, &cfg);
            check_reconstruction(uplo, 7, 4, &cfg);
        }
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let a = random_spd(150, 17);
            let mut blocked = a.clone();
            potrf(uplo, &mut blocked.view_mut(), &cfg).unwrap();
            let mut naive = a.clone();
            potrf_naive(uplo, &mut naive.view_mut()).unwrap();
            // Compare only the factored triangle; the opposite one is
            // untouched original data in both.
            for i in 0..150 {
                for j in 0..150 {
                    if uplo.contains(i, j) {
                        assert!(
                            (blocked[(i, j)] - naive[(i, j)]).abs() < 1e-9,
                            "{uplo:?} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn opposite_triangle_is_never_touched() {
        let cfg = BlockConfig::tiny();
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let spd = random_spd(11, 5);
            // Poison the triangle POTRF must not reference.
            let mut a = Matrix::from_fn(11, 11, |i, j| {
                if uplo.contains(i, j) {
                    spd[(i, j)]
                } else {
                    777.0
                }
            });
            potrf(uplo, &mut a.view_mut(), &cfg).unwrap();
            for i in 0..11 {
                for j in 0..11 {
                    if !uplo.contains(i, j) {
                        assert_eq!(a[(i, j)], 777.0, "{uplo:?} wrote outside its triangle");
                    }
                }
            }
        }
    }

    #[test]
    fn factor_solves_spd_systems_through_two_trsms() {
        // The Cholesky realisation of A⁻¹·B: POTRF, then L⁻¹, then L⁻ᵀ. The
        // residual A·X - B certifies the pipeline end to end.
        let cfg = BlockConfig::serial();
        let n = 31;
        let a = random_spd(n, 9);
        let b = random_seeded(n, 6, 10);
        let mut f = a.clone();
        potrf(Uplo::Lower, &mut f.view_mut(), &cfg).unwrap();
        let l = explicit_triangle(&f, Uplo::Lower);
        let mut y = Matrix::zeros(n, 6);
        trsm_naive(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut y.view_mut(),
        )
        .unwrap();
        let mut x = Matrix::zeros(n, 6);
        trsm_naive(
            Side::Left,
            Uplo::Lower,
            Trans::Yes,
            1.0,
            &l.view(),
            &y.view(),
            &mut x.view_mut(),
        )
        .unwrap();
        let mut ax = Matrix::zeros(n, 6);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &a.view(),
            &x.view(),
            0.0,
            &mut ax.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&ax, &b).unwrap() < 1e-10 * n as f64);
    }

    #[test]
    fn non_positive_definite_matrices_are_reported_with_the_pivot_index() {
        let cfg = BlockConfig::tiny();
        let mut a = random_spd(9, 21);
        a[(5, 5)] = -4.0; // breaks definiteness at (or before) index 5
        let err = potrf(Uplo::Lower, &mut a.clone().view_mut(), &cfg).unwrap_err();
        match err {
            MatrixError::NotPositiveDefinite { index } => assert!(index <= 5),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        assert!(potrf_naive(Uplo::Upper, &mut a.view_mut()).is_err());
        // The identically-zero matrix fails on the very first pivot.
        let mut zero = Matrix::zeros(4, 4);
        assert_eq!(
            potrf(Uplo::Lower, &mut zero.view_mut(), &cfg).unwrap_err(),
            MatrixError::NotPositiveDefinite { index: 0 }
        );
    }

    #[test]
    fn degenerate_and_rectangular_inputs() {
        let cfg = BlockConfig::default();
        // n = 0 is a no-op.
        let mut empty = Matrix::zeros(0, 0);
        potrf(Uplo::Lower, &mut empty.view_mut(), &cfg).unwrap();
        potrf_naive(Uplo::Upper, &mut empty.view_mut()).unwrap();
        // n = 1 is a scalar square root.
        let mut one = Matrix::filled(1, 1, 9.0);
        potrf(Uplo::Upper, &mut one.view_mut(), &cfg).unwrap();
        assert_eq!(one[(0, 0)], 3.0);
        // Rectangular input is rejected.
        let mut rect = Matrix::zeros(3, 4);
        assert!(matches!(
            potrf(Uplo::Lower, &mut rect.view_mut(), &cfg),
            Err(MatrixError::NotSquare { .. })
        ));
    }

    #[test]
    fn blocked_and_naive_agree_on_the_factor_itself() {
        let cfg = BlockConfig::serial();
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let a = random_spd(40, 33);
            let mut blocked = a.clone();
            let mut naive = a.clone();
            potrf(uplo, &mut blocked.view_mut(), &cfg).unwrap();
            potrf_naive(uplo, &mut naive.view_mut()).unwrap();
            assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-10, "{uplo:?}");
        }
    }
}
