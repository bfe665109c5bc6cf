//! LU factorisation with partial pivoting: `P·A = L·U` for a general square
//! matrix, in place, LAPACK `dgetrf`-style.
//!
//! The factor overwrites `A`: the strictly lower triangle holds the
//! unit-lower factor `L` (its implicit unit diagonal is *not* stored) and the
//! upper triangle including the diagonal holds `U`. The pivot vector records,
//! for each step `j`, the absolute row index that was swapped into row `j`
//! (LAPACK `ipiv` convention, zero-based), so `P` is recovered by replaying
//! the swaps in order.
//!
//! Structure: a **two-level right-looking** algorithm on in-place views of
//! `A`. The outer loop walks the columns in panels of
//! [`BlockConfig::tri_block`] (the outer panel width); inside a panel,
//! Toledo's recursive LU halves the column range until at most `BASE`
//! columns remain. Each step, at either level, with `k` columns
//!
//! 1. factors the left `k` columns, full height, by the recursion,
//! 2. applies their row swaps to the other columns,
//! 3. computes `U₁₂ := L₁₁⁻¹·A₁₂` in place with the recursive triangular
//!    solve of [`mod@crate::trsm`] on the unit-lower block, and
//! 4. updates `A₂₂ -= L₂₁·U₁₂` with one GEMM-shaped update on the packed
//!    core,
//!
//! and leaves `A₂₂` to the next step, whose row swaps then reach `L₂₁`.
//!
//! Column ranges of at most `BASE` are factored by a scalar loop over
//! contiguous columns, which reports [`MatrixError::SingularDiagonal`] on a
//! pivot column that is exactly zero or holds a NaN. That loop is
//! `O(n²·BASE)` of the `2n³/3` FLOPs (see [`crate::flops::getrf_flops`]);
//! everything else runs on the packed core. The one copy per step is
//! `U₁₂`, which shares its columns with `A₂₂`.
//!
//! [`getrf_packed`] produces the single-operand packed form the kernel-call
//! IR uses: an `n x (n+1)` matrix with the LU factors in columns `0..n` and
//! the pivot indices, stored as `f64`, in column `n`.

use crate::config::BlockConfig;
use crate::gemm::gemm_acc;
use crate::recursion::{check_square, column_pair, owned, split, Triangle};
use crate::trsm::solve;
use lamb_matrix::{Matrix, MatrixError, MatrixViewMut, Result, Side, Trans, Uplo};

/// Widest column range factored by the scalar loop.
const BASE: usize = 8;

/// Factor the square matrix `a` in place as `P·A = L·U` with partial
/// pivoting. On return `piv` holds, for each step `j`, the absolute index of
/// the row swapped into row `j` (`piv[j] >= j`; `piv[j] == j` means no swap).
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input and
/// [`MatrixError::SingularDiagonal`] (with the absolute pivot index) when a
/// pivot column is exactly zero or holds a NaN; `a` and `piv` then hold a
/// partial factorisation.
pub fn getrf(a: &mut MatrixViewMut<'_>, piv: &mut Vec<usize>, cfg: &BlockConfig) -> Result<()> {
    let n = check_square(a)?;
    piv.clear();
    piv.resize(n, 0);
    let tb = cfg.tri_block.max(1);
    let mut k0 = 0;
    while k0 < n {
        let kb = tb.min(n - k0);
        let (mut done, rest) = a.subview_mut(k0, 0, n - k0, n).split_at_col_mut(k0);
        let panel_piv = &mut piv[k0..k0 + kb];
        step(rest, kb, panel_piv, k0, cfg)?;
        // The factored columns to the left take the panel's swaps too.
        apply_swaps(&mut done, panel_piv, 0);
        for p in panel_piv {
            *p += k0;
        }
        k0 += kb;
    }
    Ok(())
}

/// Factor the view `a` (at least as many rows as columns) by halving; its
/// first column has absolute index `offset`. `piv[j]` receives the row of
/// `a` swapped into row `j`; every swap is applied across all of `a`'s
/// columns.
fn lu(mut a: MatrixViewMut<'_>, piv: &mut [usize], offset: usize, cfg: &BlockConfig) -> Result<()> {
    let (m, n) = (a.rows(), a.cols());
    if n <= BASE {
        return lu_base(&mut a, piv, offset);
    }
    let h = split(n);
    step(a.subview_mut(0, 0, m, n), h, &mut piv[..h], offset, cfg)?;
    lu(
        a.subview_mut(h, h, m - h, n - h),
        &mut piv[h..],
        offset + h,
        cfg,
    )?;
    for p in &mut piv[h..] {
        *p += h;
    }
    apply_swaps(&mut a.subview_mut(0, 0, m, h), &piv[h..], h);
    Ok(())
}

/// Factor the first `k` columns of the view `a` (full height) and update
/// the columns to their right: apply the row swaps, solve `U₁₂` and update
/// `A₂₂`, which is left for the caller to factor.
fn step(
    a: MatrixViewMut<'_>,
    k: usize,
    piv: &mut [usize],
    offset: usize,
    cfg: &BlockConfig,
) -> Result<()> {
    let (m, n) = (a.rows(), a.cols());
    let (mut left, mut right) = a.split_at_col_mut(k);
    lu(left.subview_mut(0, 0, m, k), piv, offset, cfg)?;
    if n == k {
        return Ok(());
    }
    apply_swaps(&mut right, piv, 0);
    let t = Triangle {
        l: left.as_view().subview(0, 0, k, k),
        uplo: Uplo::Lower,
        trans: Trans::No,
        unit: true,
    };
    solve(Side::Left, t, &mut right.subview_mut(0, 0, k, n - k), cfg);
    // U12 shares its columns with A22, so the update reads a copy.
    let u12 = owned(&right.as_view().subview(0, 0, k, n - k));
    gemm_acc(
        -1.0,
        &left.as_view().subview(k, 0, m - k, k),
        Trans::No,
        &u12.view(),
        Trans::No,
        &mut right.subview_mut(k, 0, m - k, n - k),
        cfg,
    );
    Ok(())
}

/// Replay the row swaps `first + i <-> piv[i]` on every column of `x`.
fn apply_swaps(x: &mut MatrixViewMut<'_>, piv: &[usize], first: usize) {
    for c in 0..x.cols() {
        let col = x.col_mut(c);
        for (i, &p) in piv.iter().enumerate() {
            col.swap(first + i, p);
        }
    }
}

/// Scalar partial-pivot LU of a view at most `BASE` columns wide, over
/// contiguous columns: pivot search, swap across the block, scale, then one
/// `axpy` per remaining column.
fn lu_base(a: &mut MatrixViewMut<'_>, piv: &mut [usize], offset: usize) -> Result<()> {
    let (m, n, ld) = (a.rows(), a.cols(), a.ld());
    let data = a.as_mut_slice();
    for j in 0..n {
        let p = pivot_row(&data[j * ld..j * ld + m], j)
            .ok_or(MatrixError::SingularDiagonal { index: offset + j })?;
        piv[j] = p;
        if p != j {
            for c in 0..n {
                data.swap(j + c * ld, p + c * ld);
            }
        }
        let d = data[j + j * ld];
        for x in &mut data[j * ld + j + 1..j * ld + m] {
            *x /= d;
        }
        for jj in (j + 1)..n {
            let (dst, src) = column_pair(data, ld, m, jj, j);
            let u = dst[j];
            if u != 0.0 {
                for (x, &l) in dst[j + 1..].iter_mut().zip(&src[j + 1..]) {
                    *x -= l * u;
                }
            }
        }
    }
    Ok(())
}

/// The partial pivot of column `col` from row `j` down: the first entry of
/// largest magnitude, or `None` when the column is zero there or holds a NaN
/// (which `>` alone would step over).
fn pivot_row(col: &[f64], j: usize) -> Option<usize> {
    let mut best = 0.0;
    let mut p = None;
    for (i, v) in col.iter().enumerate().skip(j) {
        let v = v.abs();
        if v.is_nan() {
            return None;
        }
        if v > best {
            best = v;
            p = Some(i);
        }
    }
    p
}

/// Reference GETRF: the scalar unblocked partial-pivot recurrence over the
/// whole matrix, one element at a time. Used by the unit and property tests
/// to validate the blocked kernel.
///
/// # Errors
///
/// Same checks as [`getrf`].
pub fn getrf_naive(a: &mut MatrixViewMut<'_>, piv: &mut Vec<usize>) -> Result<()> {
    let n = check_square(a)?;
    piv.clear();
    for col in 0..n {
        let column: Vec<f64> = (0..n).map(|i| a.at(i, col)).collect();
        let p = pivot_row(&column, col).ok_or(MatrixError::SingularDiagonal { index: col })?;
        piv.push(p);
        for j in 0..n {
            let t = a.at(col, j);
            *a.at_mut(col, j) = a.at(p, j);
            *a.at_mut(p, j) = t;
        }
        // Eliminate below the pivot and fold into the trailing columns.
        let d = a.at(col, col);
        for i in (col + 1)..n {
            let l = a.at(i, col) / d;
            *a.at_mut(i, col) = l;
        }
        for jj in (col + 1)..n {
            let u = a.at(col, jj);
            if u != 0.0 {
                for i in (col + 1)..n {
                    let l = a.at(i, col);
                    *a.at_mut(i, jj) -= l * u;
                }
            }
        }
    }
    Ok(())
}

/// Factor `a` out of place into the packed `n x (n+1)` operand the
/// kernel-call IR uses: LU factors in columns `0..n` (unit-lower `L` strictly
/// below the diagonal, `U` on and above) and the pivot vector, stored as
/// `f64` row indices, in column `n`.
///
/// # Errors
///
/// Same checks as [`getrf`].
pub fn getrf_packed(a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    if a.rows() != a.cols() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut f = Matrix::zeros(n, n + 1);
    for j in 0..n {
        f.col_mut(j).copy_from_slice(a.col(j));
    }
    let mut piv = Vec::new();
    {
        let mut full = f.view_mut();
        let mut lu = full.subview_mut(0, 0, n, n);
        getrf(&mut lu, &mut piv, cfg)?;
    }
    for (j, &p) in piv.iter().enumerate() {
        f[(j, n)] = p as f64;
    }
    Ok(f)
}

/// Apply the forward row swaps recorded in the pivot column of a packed LU
/// factor `f` (`m x (m+1)`, see [`getrf_packed`]) to a fresh copy of `b`:
/// `Bp := P·B`. Pivot entries are rounded and clamped to the legal range
/// `[j, m-1]`, so a factor operand filled with arbitrary data (as the
/// isolated-call benchmark harness does) still applies a valid permutation.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `f` is not `m x (m+1)`
/// for `b`'s row count `m`.
pub fn pivot_apply(f: &Matrix, b: &Matrix) -> Result<Matrix> {
    let m = b.rows();
    if f.rows() != m || f.cols() != m + 1 {
        return Err(MatrixError::DimensionMismatch {
            op: "pivot_apply",
            lhs: f.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = b.clone();
    if m == 0 {
        return Ok(out);
    }
    for j in 0..m {
        // Clamp untrusted pivot data into range rather than panicking.
        let p = (f[(j, m)].round().max(0.0) as usize).clamp(j, m - 1);
        if p != j {
            for c in 0..out.cols() {
                let col = out.col_mut(c);
                col.swap(j, p);
            }
        }
    }
    Ok(out)
}

/// Apply the permutation recorded in the pivot column of a packed LU factor
/// `f` (`n x (n+1)`, see [`getrf_packed`]) to the *columns* of a fresh copy
/// of `b`: `Bp := B·P`. With `P = Pₙ₋₁···P₀` (the forward row swaps of
/// [`pivot_apply`]), right-multiplication applies the same transpositions as
/// column swaps in *reverse* order, `j = n-1` down to `0` — this is the last
/// step of the right-side LU solve `B·A⁻¹ = ((B·U⁻¹)·L⁻¹)·P`. Pivot entries
/// are rounded and clamped to the legal range like the left-side apply.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `f` is not `n x (n+1)`
/// for `b`'s column count `n`.
pub fn pivot_apply_right(f: &Matrix, b: &Matrix) -> Result<Matrix> {
    let n = b.cols();
    if f.rows() != n || f.cols() != n + 1 {
        return Err(MatrixError::DimensionMismatch {
            op: "pivot_apply_right",
            lhs: f.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = b.clone();
    if n == 0 {
        return Ok(out);
    }
    for j in (0..n).rev() {
        // Clamp untrusted pivot data into range rather than panicking.
        let p = (f[(j, n)].round().max(0.0) as usize).clamp(j, n - 1);
        if p != j {
            for r in 0..out.rows() {
                let tmp = out[(r, j)];
                out[(r, j)] = out[(r, p)];
                out[(r, p)] = tmp;
            }
        }
    }
    Ok(out)
}

/// Extract an explicit triangular factor from a packed factor operand `f`
/// (`r x (n+1)`, `n = cols - 1`; see [`getrf_packed`] and
/// [`crate::qr::qr_packed`]): [`Uplo::Lower`] materialises the unit-lower
/// factor (implicit unit diagonal written out), [`Uplo::Upper`] the upper
/// factor including its stored diagonal. Entries outside the extracted
/// triangle are exact zeros. Performs no floating-point arithmetic.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `f` has no pivot/tau
/// column (`cols == 0`) or fewer than `n` rows.
pub fn factor_triangle(uplo: Uplo, f: &Matrix) -> Result<Matrix> {
    let Some(n) = f.cols().checked_sub(1) else {
        return Err(MatrixError::DimensionMismatch {
            op: "factor_triangle",
            lhs: f.shape(),
            rhs: (0, 0),
        });
    };
    if f.rows() < n {
        return Err(MatrixError::DimensionMismatch {
            op: "factor_triangle",
            lhs: f.shape(),
            rhs: (n, n),
        });
    }
    Ok(match uplo {
        Uplo::Lower => Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Greater => f[(i, j)],
            std::cmp::Ordering::Equal => 1.0,
            std::cmp::Ordering::Less => 0.0,
        }),
        Uplo::Upper => Matrix::from_fn(n, n, |i, j| if i <= j { f[(i, j)] } else { 0.0 }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use crate::trsm::trsm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::random_seeded;

    /// `P·A`: replay the recorded forward swaps on a copy of `a`.
    fn permute(a: &Matrix, piv: &[usize]) -> Matrix {
        let mut out = a.clone();
        for (j, &p) in piv.iter().enumerate() {
            if p != j {
                for c in 0..out.cols() {
                    out.col_mut(c).swap(j, p);
                }
            }
        }
        out
    }

    fn check_reconstruction(n: usize, seed: u64, cfg: &BlockConfig) {
        let a = random_seeded(n, n, seed);
        let mut f = a.clone();
        let mut piv = Vec::new();
        getrf(&mut f.view_mut(), &mut piv, cfg).unwrap();
        assert_eq!(piv.len(), n);
        let l = factor_triangle(Uplo::Lower, &pad_pivot(&f, &piv)).unwrap();
        let u = factor_triangle(Uplo::Upper, &pad_pivot(&f, &piv)).unwrap();
        // L·U must reproduce P·A.
        let mut back = Matrix::zeros(n, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &l.view(),
            &u.view(),
            0.0,
            &mut back.view_mut(),
        )
        .unwrap();
        let pa = permute(&a, &piv);
        let diff = max_abs_diff(&back, &pa).unwrap();
        assert!(
            diff < 1e-10 * (n as f64).max(1.0),
            "n {n}: reconstruction diff {diff}"
        );
    }

    /// Pack a factored matrix plus pivot vector into the `n x (n+1)` form.
    fn pad_pivot(f: &Matrix, piv: &[usize]) -> Matrix {
        let n = f.rows();
        Matrix::from_fn(n, n + 1, |i, j| {
            if j < n {
                f[(i, j)]
            } else if i < piv.len() {
                piv[i] as f64
            } else {
                0.0
            }
        })
    }

    #[test]
    fn blocked_factor_reconstructs_the_permuted_matrix() {
        let cfg = BlockConfig::serial();
        for n in [1, 2, 5, 23, 64, 65, 97] {
            check_reconstruction(n, 11 + n as u64, &cfg);
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_panels() {
        let cfg = BlockConfig::tiny(); // tri_block = 3
        check_reconstruction(13, 3, &cfg);
        check_reconstruction(7, 4, &cfg);
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        let a = random_seeded(150, 150, 17);
        let mut blocked = a.clone();
        let mut piv_b = Vec::new();
        getrf(&mut blocked.view_mut(), &mut piv_b, &cfg).unwrap();
        let mut naive = a.clone();
        let mut piv_n = Vec::new();
        getrf_naive(&mut naive.view_mut(), &mut piv_n).unwrap();
        assert_eq!(piv_b, piv_n, "pivot sequences must agree");
        assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-9);
    }

    #[test]
    fn blocked_and_naive_agree_on_the_factor_itself() {
        let cfg = BlockConfig::serial();
        let a = random_seeded(40, 40, 33);
        let mut blocked = a.clone();
        let mut naive = a.clone();
        let (mut pb, mut pn) = (Vec::new(), Vec::new());
        getrf(&mut blocked.view_mut(), &mut pb, &cfg).unwrap();
        getrf_naive(&mut naive.view_mut(), &mut pn).unwrap();
        assert_eq!(pb, pn);
        assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-10);
    }

    #[test]
    fn factor_solves_general_systems_through_pivot_and_two_trsms() {
        // The LU realisation of A⁻¹·B: GETRF, P·B, then L⁻¹, then U⁻¹. The
        // residual A·X - B certifies the pipeline end to end.
        let cfg = BlockConfig::serial();
        let n = 31;
        let a = random_seeded(n, n, 9);
        let b = random_seeded(n, 6, 10);
        let f = getrf_packed(&a, &cfg).unwrap();
        let l = factor_triangle(Uplo::Lower, &f).unwrap();
        let u = factor_triangle(Uplo::Upper, &f).unwrap();
        let bp = pivot_apply(&f, &b).unwrap();
        let mut y = Matrix::zeros(n, 6);
        trsm_naive(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &bp.view(),
            &mut y.view_mut(),
        )
        .unwrap();
        let mut x = Matrix::zeros(n, 6);
        trsm_naive(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            1.0,
            &u.view(),
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
    fn singular_matrices_are_reported_with_the_pivot_index() {
        let cfg = BlockConfig::tiny();
        // A rank-deficient matrix: column 2 is a copy of column 1, so the
        // third pivot column is eliminated to exact... not exact zero in
        // floating point generally, so build a matrix with an exactly zero
        // trailing column instead.
        let mut a = random_seeded(9, 9, 21);
        for i in 0..9 {
            a[(i, 4)] = 0.0;
        }
        let mut piv = Vec::new();
        let err = getrf(&mut a.clone().view_mut(), &mut piv, &cfg).unwrap_err();
        assert_eq!(err, MatrixError::SingularDiagonal { index: 4 });
        assert!(getrf_naive(&mut a.view_mut(), &mut piv).is_err());
        // The identically-zero matrix fails on the very first pivot.
        let mut zero = Matrix::zeros(4, 4);
        assert_eq!(
            getrf(&mut zero.view_mut(), &mut Vec::new(), &cfg).unwrap_err(),
            MatrixError::SingularDiagonal { index: 0 }
        );
    }

    #[test]
    fn nan_below_the_diagonal_is_reported_as_singular() {
        // `v > best` steps over a NaN; the pivot search must not, or the
        // factor comes back Ok and poisoned. Column 37 holds the NaN below
        // its diagonal (rows are not swapped past it before column 37).
        let cfg = BlockConfig::default();
        let mut a = random_seeded(90, 90, 8);
        a[(80, 37)] = f64::NAN;
        let err = getrf(&mut a.clone().view_mut(), &mut Vec::new(), &cfg).unwrap_err();
        assert!(
            matches!(err, MatrixError::SingularDiagonal { index } if index <= 37),
            "{err:?}"
        );
        let err = getrf_naive(&mut a.view_mut(), &mut Vec::new()).unwrap_err();
        assert!(
            matches!(err, MatrixError::SingularDiagonal { index } if index <= 37),
            "{err:?}"
        );
    }

    #[test]
    fn degenerate_and_rectangular_inputs() {
        let cfg = BlockConfig::default();
        // n = 0 is a no-op.
        let mut empty = Matrix::zeros(0, 0);
        let mut piv = Vec::new();
        getrf(&mut empty.view_mut(), &mut piv, &cfg).unwrap();
        assert!(piv.is_empty());
        getrf_naive(&mut empty.view_mut(), &mut piv).unwrap();
        let f = getrf_packed(&Matrix::zeros(0, 0), &cfg).unwrap();
        assert_eq!(f.shape(), (0, 1));
        // n = 1 is the identity pivot.
        let mut one = Matrix::filled(1, 1, 4.0);
        getrf(&mut one.view_mut(), &mut piv, &cfg).unwrap();
        assert_eq!(piv, vec![0]);
        assert_eq!(one[(0, 0)], 4.0);
        // Rectangular input is rejected.
        let mut rect = Matrix::zeros(3, 4);
        assert!(matches!(
            getrf(&mut rect.view_mut(), &mut piv, &cfg),
            Err(MatrixError::NotSquare { .. })
        ));
        assert!(getrf_packed(&Matrix::zeros(2, 5), &cfg).is_err());
    }

    #[test]
    fn right_pivot_apply_closes_the_mirrored_lu_solve() {
        // The LU realisation of B·A⁻¹: GETRF(A), then B·U⁻¹, then ·L⁻¹,
        // then ·P applied as reverse-order column swaps. The residual
        // X·A - B certifies the right-side pipeline end to end.
        let cfg = BlockConfig::serial();
        let (m, n) = (6, 23);
        let a = random_seeded(n, n, 11);
        let b = random_seeded(m, n, 12);
        let f = getrf_packed(&a, &cfg).unwrap();
        let l = factor_triangle(Uplo::Lower, &f).unwrap();
        let u = factor_triangle(Uplo::Upper, &f).unwrap();
        let mut y = Matrix::zeros(m, n);
        trsm_naive(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            1.0,
            &u.view(),
            &b.view(),
            &mut y.view_mut(),
        )
        .unwrap();
        let mut z = Matrix::zeros(m, n);
        trsm_naive(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            1.0,
            &l.view(),
            &y.view(),
            &mut z.view_mut(),
        )
        .unwrap();
        let x = pivot_apply_right(&f, &z).unwrap();
        let mut xa = Matrix::zeros(m, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &x.view(),
            &a.view(),
            0.0,
            &mut xa.view_mut(),
        )
        .unwrap();
        assert!(max_abs_diff(&xa, &b).unwrap() < 1e-10 * n as f64);
        // The right apply inverts the left one: P·(Pᵀ·B)ᵀ round-trips.
        // Equivalently, (P·C)ᵀ = Cᵀ·Pᵀ, so applying the right swap order
        // to rows would undo the left apply; check via the simpler
        // identity-permutation and shape-error paths instead.
        assert!(pivot_apply_right(&Matrix::zeros(n, n), &b).is_err());
        let empty = pivot_apply_right(&Matrix::zeros(0, 1), &Matrix::zeros(4, 0)).unwrap();
        assert_eq!(empty.shape(), (4, 0));
    }

    #[test]
    fn right_pivot_apply_is_the_transpose_of_the_left_apply() {
        // B·P = (Pᵀ·Bᵀ)ᵀ and P⁻¹ = Pᵀ, so the right apply composed with
        // the left apply through a transpose must reproduce the operand
        // structure: compare against an explicitly materialised P.
        let cfg = BlockConfig::serial();
        let n = 9;
        let a = random_seeded(n, n, 13);
        let f = getrf_packed(&a, &cfg).unwrap();
        // P·I gives the permutation matrix; then B·P via plain GEMM.
        let p = pivot_apply(&f, &Matrix::identity(n)).unwrap();
        let b = random_seeded(4, n, 14);
        let mut expect = Matrix::zeros(4, n);
        gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            &b.view(),
            &p.view(),
            0.0,
            &mut expect.view_mut(),
        )
        .unwrap();
        let got = pivot_apply_right(&f, &b).unwrap();
        assert!(max_abs_diff(&got, &expect).unwrap() < 1e-12);
    }

    #[test]
    fn pivot_apply_clamps_untrusted_pivot_data() {
        // The isolated-call benchmark harness fills factor operands with
        // arbitrary random data; pivot application must stay in bounds.
        let b = random_seeded(5, 3, 2);
        let f = Matrix::from_fn(5, 6, |i, j| {
            if j == 5 {
                1000.0 * (i as f64) - 7.3
            } else {
                0.0
            }
        });
        let out = pivot_apply(&f, &b).unwrap();
        assert_eq!(out.shape(), (5, 3));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        // Shape mismatches are rejected.
        assert!(pivot_apply(&Matrix::zeros(5, 5), &b).is_err());
        // Degenerate: no rows, nothing to swap.
        let empty = pivot_apply(&Matrix::zeros(0, 1), &Matrix::zeros(0, 4)).unwrap();
        assert_eq!(empty.shape(), (0, 4));
    }

    #[test]
    fn factor_triangle_extracts_unit_lower_and_upper() {
        let cfg = BlockConfig::serial();
        let a = random_seeded(8, 8, 5);
        let f = getrf_packed(&a, &cfg).unwrap();
        let l = factor_triangle(Uplo::Lower, &f).unwrap();
        let u = factor_triangle(Uplo::Upper, &f).unwrap();
        assert!(lamb_matrix::ops::is_triangular(&l, Uplo::Lower).unwrap());
        assert!(lamb_matrix::ops::is_triangular(&u, Uplo::Upper).unwrap());
        for i in 0..8 {
            assert_eq!(l[(i, i)], 1.0, "L must carry an explicit unit diagonal");
        }
        // Degenerate and malformed inputs.
        assert_eq!(
            factor_triangle(Uplo::Lower, &Matrix::zeros(0, 1))
                .unwrap()
                .shape(),
            (0, 0)
        );
        assert!(factor_triangle(Uplo::Lower, &Matrix::zeros(3, 0)).is_err());
        assert!(factor_triangle(Uplo::Upper, &Matrix::zeros(2, 4)).is_err());
    }
}
