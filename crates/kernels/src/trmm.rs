//! Triangular matrix–matrix multiplication: `C := alpha * op(L) * B`
//! (`side == Left`, `L` an `m x m` triangle) or `C := alpha * B * op(L)`
//! (`side == Right`, `L` an `n x n` triangle), where only the [`Uplo`]
//! triangle of `L` is referenced.
//!
//! Unlike the BLAS routine (which overwrites `B` in place) this kernel is
//! out-of-place, matching how the executors materialise each intermediate of
//! an algorithm into its own operand. The triangular structure halves the
//! useful FLOPs relative to a GEMM of the same logical shape — `m²·n` versus
//! `2·m²·n` on the left, `n²·m` versus `2·n²·m` on the right (see
//! [`crate::flops::trmm_flops`]) — which is exactly the FLOPs-versus-time
//! tension the paper's anomaly taxonomy feeds on.
//!
//! Structure: the recursion of [`mod@crate::trsm`], with products in place
//! of solves. The triangle is halved (on a multiple of 8) until its order
//! is at most `LEAF`; each split multiplies both diagonal halves
//! recursively and adds the off-diagonal block's product with one
//! GEMM-shaped update on the packed core. A leaf copies its block of
//! `op(L)` into a compact buffer, zero outside the triangle, and multiplies
//! it with one GEMM-shaped update, so only `O(order·LEAF)` FLOPs per column
//! of `B` are spent on zeros. Column panels of `C` are independent
//! ([`crate::driver::BlockedDriver::for_each_panel`]: one fork when the
//! kernel runs in parallel, one panel when it runs serially), each
//! computed serially. On the left a panel is the recursion over its
//! columns of `B`. On the right it is the recursion over its diagonal
//! block of `op(L)`, whose halves are disjoint column ranges, plus one
//! update for the rest of its columns of `op(L)`.

use crate::config::BlockConfig;
use crate::driver::scale_inplace;
use crate::gemm::gemm_acc;
use crate::recursion::{for_each_panel, split, Triangle, LEAF};
use lamb_matrix::{Matrix, MatrixError, MatrixView, MatrixViewMut, Result, Side, Trans, Uplo};

/// Validate the operand shapes shared by TRMM and TRSM: `L` square of order
/// `m` (Left) or `n` (Right), `B` and the output both `m x n`.
pub(crate) fn check_triangular_shapes(
    op: &'static str,
    side: Side,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    c: &MatrixViewMut<'_>,
) -> Result<(usize, usize)> {
    if l.rows() != l.cols() {
        return Err(MatrixError::NotSquare {
            rows: l.rows(),
            cols: l.cols(),
        });
    }
    let m = c.rows();
    let n = c.cols();
    let order = match side {
        Side::Left => m,
        Side::Right => n,
    };
    if l.rows() != order {
        return Err(MatrixError::DimensionMismatch {
            op,
            lhs: (l.rows(), l.cols()),
            rhs: (order, order),
        });
    }
    if b.rows() != m || b.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op,
            lhs: (b.rows(), b.cols()),
            rhs: (m, n),
        });
    }
    Ok((m, n))
}

/// `C := alpha * op(L) * B` (Left) or `C := alpha * B * op(L)` (Right) where
/// `op(L)` is `L` or `Lᵀ` and only the `uplo` triangle of `L` is referenced
/// (the opposite triangle is treated as zero, whatever it contains).
///
/// The FLOP count attributed to this kernel by the Section-3.1-style model is
/// `m²·n` on the left and `n²·m` on the right
/// (see [`crate::flops::trmm_flops`]) — half of what a GEMM of the same shape
/// performs.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] or [`MatrixError::DimensionMismatch`]
/// when the operand shapes are inconsistent.
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn trmm(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let (m, n) = check_triangular_shapes("trmm operand shape", side, l, b, c)?;
    scale_inplace(0.0, c);
    if m == 0 || n == 0 || alpha == 0.0 {
        return Ok(());
    }

    let t = Triangle {
        l: *l,
        uplo,
        trans,
        unit: false,
    };
    match side {
        Side::Left => for_each_panel(c.subview_mut(0, 0, m, n), m, cfg, |j0, mut panel, cfg| {
            let w = panel.cols();
            mul_left(alpha, t, &b.subview(0, j0, m, w), &mut panel, cfg)
        }),
        // A column panel of C reads all of B: the panel's diagonal block of
        // op(L) by the recursion, its other rows of op(L) in one update.
        Side::Right => for_each_panel(c.subview_mut(0, 0, m, n), n, cfg, |j0, mut panel, cfg| {
            let w = panel.cols();
            let b_j = b.subview(0, j0, m, w);
            mul_right(alpha, t.diag(j0, w), &b_j, &mut panel, cfg);
            let (p0, len) = match t.eff() {
                Uplo::Upper => (0, j0),
                Uplo::Lower => (j0 + w, n - j0 - w),
            };
            if len > 0 {
                let (l_off, tl) = t.block(p0, j0, len, w);
                let b_off = b.subview(0, p0, m, len);
                gemm_acc(alpha, &b_off, Trans::No, &l_off, tl, &mut panel, cfg);
            }
        }),
    }
    Ok(())
}

/// `op(L)` as a compact matrix, zero outside its triangle.
fn compact(t: Triangle<'_>) -> Matrix {
    let k = t.l.rows();
    let mut tri = Matrix::zeros(k, k);
    t.compact(tri.as_mut_slice());
    tri
}

/// `c += alpha * op(L)·b` by halving the triangle.
fn mul_left(
    alpha: f64,
    t: Triangle<'_>,
    b: &MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) {
    let (m, w) = (c.rows(), c.cols());
    if m <= LEAF {
        return gemm_acc(alpha, &compact(t).view(), Trans::No, b, Trans::No, c, cfg);
    }
    let (h, r) = (split(m), m - split(m));
    for (k0, kb) in [(0, h), (h, r)] {
        let (b_k, mut c_k) = (b.subview(k0, 0, kb, w), c.subview_mut(k0, 0, kb, w));
        mul_left(alpha, t.diag(k0, kb), &b_k, &mut c_k, cfg);
    }
    // The off-diagonal block maps one half of B onto the other half of C.
    let ((l_off, tl), (src, src_len), (dst, dst_len)) = match t.eff() {
        Uplo::Lower => (t.block(h, 0, r, h), (0, h), (h, r)),
        Uplo::Upper => (t.block(0, h, h, r), (h, r), (0, h)),
    };
    let b_src = b.subview(src, 0, src_len, w);
    let mut c_dst = c.subview_mut(dst, 0, dst_len, w);
    gemm_acc(alpha, &l_off, tl, &b_src, Trans::No, &mut c_dst, cfg);
}

/// `c += alpha * b·op(L)` by halving the triangle; the halves of `c` are
/// disjoint column ranges.
fn mul_right(
    alpha: f64,
    t: Triangle<'_>,
    b: &MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) {
    let (m, n) = (c.rows(), c.cols());
    if n <= LEAF {
        return gemm_acc(alpha, b, Trans::No, &compact(t).view(), Trans::No, c, cfg);
    }
    let (h, r) = (split(n), n - split(n));
    let (b1, b2) = (b.subview(0, 0, m, h), b.subview(0, h, m, r));
    let (mut c1, mut c2) = c.subview_mut(0, 0, m, n).split_at_col_mut(h);
    mul_right(alpha, t.diag(0, h), &b1, &mut c1, cfg);
    mul_right(alpha, t.diag(h, r), &b2, &mut c2, cfg);
    // Column q of B·op(L) reads the columns p <= q (Upper) or p >= q
    // (Lower) of B.
    match t.eff() {
        Uplo::Upper => {
            let (l12, tl) = t.block(0, h, h, r);
            gemm_acc(alpha, &b1, Trans::No, &l12, tl, &mut c2, cfg);
        }
        Uplo::Lower => {
            let (l21, tl) = t.block(h, 0, r, h);
            gemm_acc(alpha, &b2, Trans::No, &l21, tl, &mut c1, cfg);
        }
    }
}

/// Reference TRMM: the textbook triple loop over the masked triangle. Used by
/// the unit and property tests to validate the blocked kernel.
///
/// # Errors
///
/// Same shape checks as [`trmm`].
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn trmm_naive(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
) -> Result<()> {
    let (m, n) = check_triangular_shapes("trmm operand shape", side, l, b, c)?;
    let eff = uplo.under(trans);
    let op_l = |i: usize, p: usize| match trans {
        Trans::No => l.at(i, p),
        Trans::Yes => l.at(p, i),
    };
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            match side {
                Side::Left => {
                    for p in 0..m {
                        if eff.contains(i, p) {
                            acc += op_l(i, p) * b.at(p, j);
                        }
                    }
                }
                Side::Right => {
                    for p in 0..n {
                        if eff.contains(p, j) {
                            acc += b.at(i, p) * op_l(p, j);
                        }
                    }
                }
            }
            *c.at_mut(i, j) = alpha * acc;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::{random_seeded, random_triangular};
    use lamb_matrix::Matrix;

    fn check(
        side: Side,
        uplo: Uplo,
        trans: Trans,
        m: usize,
        n: usize,
        alpha: f64,
        cfg: &BlockConfig,
    ) {
        let order = match side {
            Side::Left => m,
            Side::Right => n,
        };
        let l = random_triangular(order, uplo, 5 + order as u64);
        let b = random_seeded(m, n, 100 + n as u64);
        let mut fast = Matrix::filled(m, n, f64::NAN); // := semantics: old contents ignored
        trmm(
            side,
            uplo,
            trans,
            alpha,
            &l.view(),
            &b.view(),
            &mut fast.view_mut(),
            cfg,
        )
        .unwrap();
        let mut reference = Matrix::zeros(m, n);
        trmm_naive(
            side,
            uplo,
            trans,
            alpha,
            &l.view(),
            &b.view(),
            &mut reference.view_mut(),
        )
        .unwrap();
        let diff = max_abs_diff(&fast, &reference).unwrap();
        assert!(
            diff < 1e-11 * (order as f64).max(1.0),
            "side {side:?} uplo {uplo:?} trans {trans:?} {m}x{n} alpha {alpha}: diff {diff}"
        );
    }

    #[test]
    fn all_side_uplo_trans_combinations_match_naive() {
        let cfg = BlockConfig::serial();
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for trans in [Trans::No, Trans::Yes] {
                    check(side, uplo, trans, 23, 17, 1.0, &cfg);
                    check(side, uplo, trans, 9, 31, -0.5, &cfg);
                }
            }
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_diag_blocks() {
        let cfg = BlockConfig::tiny();
        check(Side::Left, Uplo::Lower, Trans::No, 13, 7, 1.0, &cfg);
        check(Side::Left, Uplo::Upper, Trans::Yes, 11, 9, 2.0, &cfg);
        check(Side::Right, Uplo::Lower, Trans::No, 13, 7, 1.0, &cfg);
        check(Side::Right, Uplo::Upper, Trans::Yes, 7, 13, 2.0, &cfg);
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        check(Side::Left, Uplo::Lower, Trans::No, 90, 70, 1.0, &cfg);
        check(Side::Left, Uplo::Upper, Trans::No, 64, 110, 1.0, &cfg);
        check(Side::Right, Uplo::Lower, Trans::No, 90, 70, 1.0, &cfg);
        check(Side::Right, Uplo::Upper, Trans::Yes, 64, 110, 1.0, &cfg);
    }

    #[test]
    fn naive_trmm_agrees_with_gemm_on_materialised_triangle() {
        // op(L)·B computed by GEMM over the explicitly-zeroed triangle equals
        // TRMM reading only the stored triangle — the numerical identity that
        // lets TRMM- and GEMM-based algorithm variants coexist in one
        // algorithm set.
        let cfg = BlockConfig::serial();
        let m = 19;
        let n = 8;
        let l = random_triangular(m, Uplo::Lower, 3);
        let b = random_seeded(m, n, 4);
        let mut via_trmm = Matrix::zeros(m, n);
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut via_trmm.view_mut(),
            &cfg,
        )
        .unwrap();
        let mut via_gemm = Matrix::zeros(m, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            0.0,
            &mut via_gemm.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&via_trmm, &via_gemm).unwrap() < 1e-11);
    }

    #[test]
    fn right_side_agrees_with_gemm_on_materialised_triangle() {
        // B·op(L) via GEMM over the explicit triangle equals the right-side
        // TRMM reading only the stored triangle.
        let cfg = BlockConfig::serial();
        let m = 9;
        let n = 21;
        let l = random_triangular(n, Uplo::Upper, 13);
        let b = random_seeded(m, n, 14);
        let mut via_trmm = Matrix::zeros(m, n);
        trmm(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut via_trmm.view_mut(),
            &cfg,
        )
        .unwrap();
        let mut via_gemm = Matrix::zeros(m, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &b.view(),
            &l.view(),
            0.0,
            &mut via_gemm.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&via_trmm, &via_gemm).unwrap() < 1e-11);
    }

    #[test]
    fn opposite_triangle_is_never_read() {
        let cfg = BlockConfig::tiny();
        let m = 12;
        let n = 5;
        for side in [Side::Left, Side::Right] {
            let order = match side {
                Side::Left => m,
                Side::Right => n,
            };
            let mut l = random_triangular(order, Uplo::Lower, 7);
            let clean = l.clone();
            // Poison the unreferenced triangle: results must not change.
            for i in 0..order {
                for j in (i + 1)..order {
                    l[(i, j)] = 1.0e300;
                }
            }
            let b = random_seeded(m, n, 8);
            let mut poisoned = Matrix::zeros(m, n);
            let mut reference = Matrix::zeros(m, n);
            for (src, out) in [(&l, &mut poisoned), (&clean, &mut reference)] {
                trmm(
                    side,
                    Uplo::Lower,
                    Trans::No,
                    1.0,
                    &src.view(),
                    &b.view(),
                    &mut out.view_mut(),
                    &cfg,
                )
                .unwrap();
            }
            assert_eq!(
                max_abs_diff(&poisoned, &reference).unwrap(),
                0.0,
                "{side:?}"
            );
        }
    }

    #[test]
    fn degenerate_and_bad_shapes() {
        let cfg = BlockConfig::default();
        // m = 0 / n = 0 are no-ops.
        let l = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::zeros(0, 4);
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut c.view_mut(),
            &cfg,
        )
        .unwrap();
        // Right side with an empty triangle: n = 0.
        let l0 = Matrix::zeros(0, 0);
        let b0 = Matrix::zeros(4, 0);
        let mut c0 = Matrix::zeros(4, 0);
        trmm(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            1.0,
            &l0.view(),
            &b0.view(),
            &mut c0.view_mut(),
            &cfg,
        )
        .unwrap();
        // Rectangular L is rejected.
        let l_bad = Matrix::zeros(3, 4);
        let b3 = Matrix::zeros(3, 2);
        let mut c3 = Matrix::zeros(3, 2);
        assert!(trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l_bad.view(),
            &b3.view(),
            &mut c3.view_mut(),
            &cfg
        )
        .is_err());
        // Mismatched B is rejected.
        let l3 = Matrix::zeros(3, 3);
        let b_bad = Matrix::zeros(4, 2);
        assert!(trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l3.view(),
            &b_bad.view(),
            &mut c3.view_mut(),
            &cfg
        )
        .is_err());
        // Right side: L must match the column count, not the row count.
        let l_cols = Matrix::zeros(2, 2);
        assert!(trmm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l3.view(),
            &b3.view(),
            &mut c3.view_mut(),
            &cfg
        )
        .is_err());
        let mut c_ok = Matrix::zeros(3, 2);
        trmm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l_cols.view(),
            &b3.view(),
            &mut c_ok.view_mut(),
            &cfg,
        )
        .unwrap();
    }
}
