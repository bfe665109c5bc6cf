//! Triangular solve with multiple right-hand sides:
//! `X := alpha * op(L)⁻¹ * B` (`side == Left`, `L` an `m x m` triangle) or
//! `X := alpha * B * op(L)⁻¹` (`side == Right`, `L` an `n x n` triangle),
//! where only the [`Uplo`] triangle of `L` is referenced.
//!
//! Out-of-place, like [`crate::trmm::trmm`]: `B` is read, `X` is written. The
//! Section-3.1-style FLOP model attributes `m²·n` FLOPs to the left solve and
//! `n²·m` to the right solve — half of the GEMM with the inverse explicitly
//! formed — making TRSM, like TRMM, a structured kernel whose FLOP savings
//! need not translate into time savings.
//!
//! Structure: a **recursive** solve on the packed core. The triangle is
//! halved (on a multiple of 8) until its order is at most `BASE`; each split
//! solves one half, folds it into the other with one GEMM-shaped update on
//! [`crate::driver::BlockedDriver::accumulate`], and solves the other half.
//! So all but `O(order·BASE)` FLOPs per right-hand side run on the packed
//! core, in updates whose inner dimension is half of the current order
//! rather than one fixed block. The base case copies its diagonal block of
//! `op(L)` into a compact buffer and substitutes with contiguous vector
//! loops. TRMM and SYRK run the same recursion with products in place of
//! solves.
//! [`BlockConfig::tri_block`] plays no part: the recursion picks its own
//! block sizes.
//!
//! On the left the right-hand-side columns are independent, so they are
//! distributed as column panels
//! ([`crate::driver::BlockedDriver::for_each_panel`]), each solved
//! serially; the rows a split couples are copied out of `X` before the
//! update, since one column-major view cannot lend disjoint row ranges.
//! On the right the split runs over columns of `X`, which split into
//! disjoint views, and each update may parallelise on its own.
//!
//! POTRF and GETRF solve their panels in place through the same recursion
//! (`solve`), with the triangle read from the matrix being factored.

use crate::config::BlockConfig;
use crate::gemm::gemm_acc;
use crate::recursion::{column_pair, for_each_panel, owned, split, Triangle};
use crate::trmm::check_triangular_shapes;
use lamb_matrix::{MatrixError, MatrixView, MatrixViewMut, Result, Side, Trans, Uplo};

/// Largest triangle order the recursion solves by substitution.
const BASE: usize = 16;

/// `X := alpha * op(L)⁻¹ * B` (Left) or `X := alpha * B * op(L)⁻¹` (Right)
/// where `op(L)` is `L` or `Lᵀ` and only the `uplo` triangle of `L` is
/// referenced.
///
/// The FLOP count attributed to this kernel is `m²·n` (Left) or `n²·m`
/// (Right); see [`crate::flops::trsm_flops`].
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] / [`MatrixError::DimensionMismatch`]
/// for inconsistent shapes and [`MatrixError::SingularDiagonal`] when a
/// diagonal element of `L` is zero or NaN (the solve does not exist).
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn trsm(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    x: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) -> Result<()> {
    let (m, n) = check_triangular_shapes("trsm operand shape", side, l, b, x)?;
    check_diagonal(side, l, m, n)?;
    // Seed X with alpha * B; the solve then runs in place on X.
    for j in 0..n {
        let src = b.col(j);
        for (dst, &s) in x.col_mut(j).iter_mut().zip(src) {
            *dst = alpha * s;
        }
    }
    let t = Triangle {
        l: *l,
        uplo,
        trans,
        unit: false,
    };
    solve(side, t, x, cfg);
    Ok(())
}

/// Reference TRSM: unblocked column-by-column (Left) or column-recurrence
/// (Right) forward/backward substitution. Used by the unit and property tests
/// to validate the blocked kernel.
///
/// # Errors
///
/// Same checks as [`trsm`].
#[allow(clippy::too_many_arguments)] // BLAS-style interface
pub fn trsm_naive(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    l: &MatrixView<'_>,
    b: &MatrixView<'_>,
    x: &mut MatrixViewMut<'_>,
) -> Result<()> {
    let (m, n) = check_triangular_shapes("trsm operand shape", side, l, b, x)?;
    check_diagonal(side, l, m, n)?;
    let op_l = |i: usize, p: usize| match trans {
        Trans::No => l.at(i, p),
        Trans::Yes => l.at(p, i),
    };
    let eff = uplo.under(trans);
    match side {
        Side::Left => {
            for j in 0..n {
                match eff {
                    Uplo::Lower => {
                        for i in 0..m {
                            let mut s = alpha * b.at(i, j);
                            for p in 0..i {
                                s -= op_l(i, p) * x.at(p, j);
                            }
                            *x.at_mut(i, j) = s / op_l(i, i);
                        }
                    }
                    Uplo::Upper => {
                        for i in (0..m).rev() {
                            let mut s = alpha * b.at(i, j);
                            for p in (i + 1)..m {
                                s -= op_l(i, p) * x.at(p, j);
                            }
                            *x.at_mut(i, j) = s / op_l(i, i);
                        }
                    }
                }
            }
        }
        Side::Right => {
            let cols: Vec<usize> = match eff {
                Uplo::Upper => (0..n).collect(),
                Uplo::Lower => (0..n).rev().collect(),
            };
            for j in cols {
                for i in 0..m {
                    let mut s = alpha * b.at(i, j);
                    match eff {
                        Uplo::Upper => {
                            for p in 0..j {
                                s -= x.at(i, p) * op_l(p, j);
                            }
                        }
                        Uplo::Lower => {
                            for p in (j + 1)..n {
                                s -= x.at(i, p) * op_l(p, j);
                            }
                        }
                    }
                    *x.at_mut(i, j) = s / op_l(j, j);
                }
            }
        }
    }
    Ok(())
}

/// Reject a triangle with a zero or NaN diagonal element: the solve does not
/// exist (or is poisoned), and a NaN would otherwise pass `== 0.0`.
fn check_diagonal(side: Side, l: &MatrixView<'_>, m: usize, n: usize) -> Result<()> {
    let order = match side {
        Side::Left => m,
        Side::Right => n,
    };
    for i in 0..order {
        let d = l.at(i, i);
        if d == 0.0 || d.is_nan() {
            return Err(MatrixError::SingularDiagonal { index: i });
        }
    }
    Ok(())
}

/// Overwrite `x` with `op(L)⁻¹·x` (Left) or `x·op(L)⁻¹` (Right). The
/// triangle's diagonal must be nonzero (or `unit`); callers check it.
pub(crate) fn solve(side: Side, t: Triangle<'_>, x: &mut MatrixViewMut<'_>, cfg: &BlockConfig) {
    let (m, n) = (x.rows(), x.cols());
    if m == 0 || n == 0 {
        return;
    }
    match side {
        // Independent right-hand-side columns: one serial recursion per
        // column panel, whether or not the panels run in parallel.
        Side::Left => for_each_panel(x.subview_mut(0, 0, m, n), m, cfg, |_, mut panel, cfg| {
            solve_left(t, &mut panel, cfg)
        }),
        Side::Right => solve_right(t, x, cfg),
    }
}

/// `x := op(L)⁻¹·x` by halving the triangle.
fn solve_left(t: Triangle<'_>, x: &mut MatrixViewMut<'_>, cfg: &BlockConfig) {
    let (m, w) = (x.rows(), x.cols());
    if m <= BASE {
        base_left(t, x);
        return;
    }
    let (h, r) = (split(m), m - split(m));
    // Solve the half `op(L)` reaches first, then fold it into the other.
    let ((f0, fl), (s0, sl), (l_off, tl)) = match t.eff() {
        Uplo::Lower => ((0, h), (h, r), t.block(h, 0, r, h)),
        Uplo::Upper => ((h, r), (0, h), t.block(0, h, h, r)),
    };
    solve_left(t.diag(f0, fl), &mut x.subview_mut(f0, 0, fl, w), cfg);
    let solved = owned(&x.as_view().subview(f0, 0, fl, w));
    let mut x2 = x.subview_mut(s0, 0, sl, w);
    gemm_acc(-1.0, &l_off, tl, &solved.view(), Trans::No, &mut x2, cfg);
    solve_left(t.diag(s0, sl), &mut x2, cfg);
}

/// `x := x·op(L)⁻¹` by halving the triangle; the halves of `x` are
/// disjoint column ranges, so the update reads one and writes the other.
fn solve_right(t: Triangle<'_>, x: &mut MatrixViewMut<'_>, cfg: &BlockConfig) {
    let (m, n) = (x.rows(), x.cols());
    if n <= BASE {
        base_right(t, x);
        return;
    }
    let h = split(n);
    let r = n - h;
    let (mut x1, mut x2) = x.subview_mut(0, 0, m, n).split_at_col_mut(h);
    match t.eff() {
        // Column q of X·op(L) reads the columns p <= q of X: solve left to
        // right.
        Uplo::Upper => {
            solve_right(t.diag(0, h), &mut x1, cfg);
            let (l12, tl) = t.block(0, h, h, r);
            gemm_acc(-1.0, &x1.as_view(), Trans::No, &l12, tl, &mut x2, cfg);
            solve_right(t.diag(h, r), &mut x2, cfg);
        }
        Uplo::Lower => {
            solve_right(t.diag(h, r), &mut x2, cfg);
            let (l21, tl) = t.block(h, 0, r, h);
            gemm_acc(-1.0, &x2.as_view(), Trans::No, &l21, tl, &mut x1, cfg);
            solve_right(t.diag(0, h), &mut x1, cfg);
        }
    }
}

/// Substitution for a triangle of order at most `BASE`, `LANES`
/// right-hand-side columns at a time: the columns are loaded into a
/// row-major block so that every step of the substitution is one
/// fixed-length vector operation across them.
fn base_left(t: Triangle<'_>, x: &mut MatrixViewMut<'_>) {
    const LANES: usize = 8;
    let mut buf = [0.0; BASE * BASE];
    let k = t.compact(&mut buf);
    let lower = t.eff() == Uplo::Lower;
    let (w, ld) = (x.cols(), x.ld());
    let data = x.as_mut_slice();
    for j0 in (0..w).step_by(LANES) {
        let lanes = LANES.min(w - j0);
        let mut block = [[0.0f64; LANES]; BASE];
        for jj in 0..lanes {
            let col = &data[(j0 + jj) * ld..(j0 + jj) * ld + k];
            for (row, &v) in block.iter_mut().zip(col) {
                row[jj] = v;
            }
        }
        for step in 0..k {
            let p = if lower { step } else { k - 1 - step };
            if !t.unit {
                let d = buf[p + p * k];
                for v in &mut block[p] {
                    *v /= d;
                }
            }
            let xp = block[p];
            let rows = if lower { p + 1..k } else { 0..p };
            for i in rows {
                let lip = buf[i + p * k];
                for (v, &s) in block[i].iter_mut().zip(&xp) {
                    *v -= lip * s;
                }
            }
        }
        for jj in 0..lanes {
            let col = &mut data[(j0 + jj) * ld..(j0 + jj) * ld + k];
            for (v, row) in col.iter_mut().zip(&block) {
                *v = row[jj];
            }
        }
    }
}

/// Substitution for a triangle of order at most `BASE` on the right: each
/// column of `x` subtracts the solved columns it depends on (contiguous
/// `axpy`s over the rows), then divides by its diagonal element.
fn base_right(t: Triangle<'_>, x: &mut MatrixViewMut<'_>) {
    let mut buf = [0.0; BASE * BASE];
    let k = t.compact(&mut buf);
    let (m, ld) = (x.rows(), x.ld());
    let upper = t.eff() == Uplo::Upper;
    let data = x.as_mut_slice();
    for step in 0..k {
        let (j, solved) = if upper {
            (step, 0..step)
        } else {
            (k - 1 - step, k - step..k)
        };
        for p in solved {
            let lpj = buf[p + j * k];
            let (dst, src) = column_pair(data, ld, m, j, p);
            for (xi, &xp) in dst.iter_mut().zip(src) {
                *xi -= xp * lpj;
            }
        }
        if !t.unit {
            let d = buf[j + j * k];
            for xi in &mut data[j * ld..j * ld + m] {
                *xi /= d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trmm::trmm_naive;
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
        let l = random_triangular(order, uplo, 9 + order as u64);
        let b = random_seeded(m, n, 200 + n as u64);
        let mut fast = Matrix::filled(m, n, f64::NAN);
        trsm(
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
        trsm_naive(
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
            diff < 1e-10 * (order as f64).max(1.0),
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
                    check(side, uplo, trans, 9, 31, -2.0, &cfg);
                }
            }
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_diag_blocks() {
        let cfg = BlockConfig::tiny();
        check(Side::Left, Uplo::Lower, Trans::No, 13, 7, 1.0, &cfg);
        check(Side::Left, Uplo::Upper, Trans::Yes, 11, 9, 0.5, &cfg);
        check(Side::Right, Uplo::Lower, Trans::No, 13, 7, 1.0, &cfg);
        check(Side::Right, Uplo::Upper, Trans::Yes, 7, 13, 0.5, &cfg);
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
    }

    #[test]
    fn solve_inverts_the_triangular_product() {
        // trsm(L, trmm(L, B)) == B — the round trip that certifies the two
        // triangular kernels against each other, on both sides.
        let cfg = BlockConfig::serial();
        let m = 27;
        let n = 11;
        for side in [Side::Left, Side::Right] {
            let order = match side {
                Side::Left => m,
                Side::Right => n,
            };
            for (uplo, trans) in [
                (Uplo::Lower, Trans::No),
                (Uplo::Upper, Trans::No),
                (Uplo::Lower, Trans::Yes),
            ] {
                let l = random_triangular(order, uplo, 33);
                let b = random_seeded(m, n, 34);
                let mut lb = Matrix::zeros(m, n);
                trmm_naive(
                    side,
                    uplo,
                    trans,
                    1.0,
                    &l.view(),
                    &b.view(),
                    &mut lb.view_mut(),
                )
                .unwrap();
                let mut recovered = Matrix::zeros(m, n);
                trsm(
                    side,
                    uplo,
                    trans,
                    1.0,
                    &l.view(),
                    &lb.view(),
                    &mut recovered.view_mut(),
                    &cfg,
                )
                .unwrap();
                assert!(
                    max_abs_diff(&recovered, &b).unwrap() < 1e-10,
                    "{side:?}/{uplo:?}/{trans:?}"
                );
            }
        }
    }

    #[test]
    fn singular_diagonal_is_reported() {
        let cfg = BlockConfig::default();
        let mut l = random_triangular(5, Uplo::Lower, 1);
        l[(3, 3)] = 0.0;
        let b = random_seeded(5, 2, 2);
        let mut x = Matrix::zeros(5, 2);
        let err = trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut x.view_mut(),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, MatrixError::SingularDiagonal { index: 3 });
        assert!(trsm_naive(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut x.view_mut()
        )
        .is_err());
        // Right side: the singular triangle sits on the column dimension.
        let b_r = random_seeded(2, 5, 3);
        let mut x_r = Matrix::zeros(2, 5);
        let err_r = trsm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b_r.view(),
            &mut x_r.view_mut(),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err_r, MatrixError::SingularDiagonal { index: 3 });
    }

    #[test]
    fn nan_diagonal_is_reported_as_singular() {
        // A NaN passes `== 0.0`; both paths must still refuse the solve.
        let mut l = random_triangular(70, Uplo::Upper, 4);
        l[(41, 41)] = f64::NAN;
        let b = random_seeded(70, 3, 5);
        let mut x = Matrix::zeros(70, 3);
        for side in [Side::Left, Side::Right] {
            let (b, mut x) = match side {
                Side::Left => (b.clone(), x.clone()),
                Side::Right => (b.transposed(), x.transposed()),
            };
            let err = trsm(
                side,
                Uplo::Upper,
                Trans::Yes,
                1.0,
                &l.view(),
                &b.view(),
                &mut x.view_mut(),
                &BlockConfig::default(),
            )
            .unwrap_err();
            assert_eq!(err, MatrixError::SingularDiagonal { index: 41 });
        }
        let err = trsm_naive(
            Side::Left,
            Uplo::Upper,
            Trans::Yes,
            1.0,
            &l.view(),
            &b.view(),
            &mut x.view_mut(),
        )
        .unwrap_err();
        assert_eq!(err, MatrixError::SingularDiagonal { index: 41 });
    }

    #[test]
    fn shape_errors_are_detected() {
        let cfg = BlockConfig::default();
        let l = Matrix::zeros(3, 4);
        let b = Matrix::zeros(3, 2);
        let mut x = Matrix::zeros(3, 2);
        assert!(trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &b.view(),
            &mut x.view_mut(),
            &cfg
        )
        .is_err());
        // Right side: a square L of the wrong order is rejected.
        let l3 = Matrix::zeros(3, 3);
        assert!(trsm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l3.view(),
            &b.view(),
            &mut x.view_mut(),
            &cfg
        )
        .is_err());
    }
}
