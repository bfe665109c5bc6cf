//! Householder QR factorisation: `A = Q·R` for a general `m x n` matrix with
//! `m >= n`, in place, LAPACK `dgeqrf`-style.
//!
//! The factor overwrites `A`: the upper triangle including the diagonal holds
//! `R`, and each column's strictly-sub-diagonal part holds the essential part
//! of a Householder vector `v_j` (its leading 1 is implicit). Together with
//! the scalar coefficients `tau`, reflector `j` is `H_j = I - tau_j·v_j·v_jᵀ`
//! and `Q = H_0·H_1⋯H_{n-1}`.
//!
//! Structure: a **two-level compact-WY** algorithm on in-place views of
//! `A`. The outer loop walks the columns in panels of
//! [`BlockConfig::tri_block`] (the outer panel width); inside a panel,
//! Elmroth and Gustavson's recursive QR halves the column range until at
//! most `BASE` columns remain. Each step, at either level, with `k` columns
//!
//! 1. factors the left `k` columns, full height, by the recursion,
//! 2. forms their triangular factor `T` (`larft`, forward columnwise) from
//!    the upper triangle of `VᵀV`, one [`crate::syrk::syrk`] call, so the
//!    `k` reflectors are `I - V·T·Vᵀ`, and
//! 3. applies `Qₖᵀ = I - V·Tᵀ·Vᵀ` to the right columns in place with
//!    three GEMM-shaped updates (`apply_block_reflector`),
//!
//! and leaves the lower right block to the next step.
//!
//! Column ranges of at most `BASE` are factored by a scalar loop over
//! contiguous columns (an exactly-zero column yields `tau = 0`, i.e. the
//! identity reflector — rank deficiency surfaces later as a zero on `R`'s
//! diagonal, not here). That loop is `O(m·n·BASE)` of the `2mn² - 2n³/3`
//! FLOPs (see [`crate::flops::qr_flops`]); the rest runs on the packed core.
//!
//! [`qr_packed`] produces the single-operand packed form the kernel-call IR
//! uses: an `m x (n+1)` matrix with the factors in columns `0..n` and the
//! `tau` coefficients in the first `n` rows of column `n`. [`ormqr`] applies
//! `Qᵀ` from such a packed factor, [`BlockConfig::tri_block`] reflectors at
//! a time through the same `larft` and `apply_block_reflector` — the
//! least-squares pipeline is `x = R⁻¹·(Qᵀb)` via one ORMQR and one TRSM.

use crate::config::BlockConfig;
use crate::gemm::gemm_acc;
use crate::recursion::{column_pair, owned, split};
use crate::syrk::syrk;
use lamb_matrix::{Matrix, MatrixError, MatrixView, MatrixViewMut, Result, Trans, Uplo};

/// Widest column range factored by the scalar loop.
const BASE: usize = 8;

/// Factor the `m x n` matrix `a` (`m >= n`) in place as `A = Q·R`. On return
/// `tau` holds the `n` Householder coefficients.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `m < n` (the wide case
/// needs an LQ factorisation this crate does not provide).
pub fn qr(a: &mut MatrixViewMut<'_>, tau: &mut Vec<f64>, cfg: &BlockConfig) -> Result<()> {
    let (m, n) = check_tall(a)?;
    tau.clear();
    tau.resize(n, 0.0);
    let tb = cfg.tri_block.max(1);
    let mut k0 = 0;
    while k0 < n {
        let kb = tb.min(n - k0);
        let panel = a.subview_mut(k0, k0, m - k0, n - k0);
        step(panel, kb, &mut tau[k0..k0 + kb], cfg)?;
        k0 += kb;
    }
    Ok(())
}

/// Factor the view `a` (at least as many rows as columns) by halving,
/// writing one coefficient per column into `tau`.
fn householder(mut a: MatrixViewMut<'_>, tau: &mut [f64], cfg: &BlockConfig) -> Result<()> {
    let (m, n) = (a.rows(), a.cols());
    if n <= BASE {
        householder_base(&mut a, tau);
        return Ok(());
    }
    let h = split(n);
    step(a.subview_mut(0, 0, m, n), h, &mut tau[..h], cfg)?;
    householder(a.subview_mut(h, h, m - h, n - h), &mut tau[h..], cfg)
}

/// Factor the first `k` columns of the view `a` (full height) and apply
/// their block reflector to the columns to their right, whose lower part is
/// left for the caller to factor.
fn step(a: MatrixViewMut<'_>, k: usize, tau: &mut [f64], cfg: &BlockConfig) -> Result<()> {
    let m = a.rows();
    let (mut left, mut right) = a.split_at_col_mut(k);
    householder(left.subview_mut(0, 0, m, k), tau, cfg)?;
    if right.cols() == 0 {
        return Ok(());
    }
    let v = reflectors(&left.as_view());
    let t = larft(&v.view(), tau, cfg)?;
    apply_block_reflector(&v.view(), &t.view(), &mut right, cfg);
    Ok(())
}

/// Scalar Householder QR of a view at most `BASE` columns wide, over
/// contiguous columns: each reflector is formed, then applied to the
/// remaining columns with one dot product and one `axpy` each.
fn householder_base(a: &mut MatrixViewMut<'_>, tau: &mut [f64]) {
    let (m, n, ld) = (a.rows(), a.cols(), a.ld());
    let data = a.as_mut_slice();
    for j in 0..n {
        let col = &mut data[j * ld..j * ld + m];
        let normsq: f64 = col[j + 1..].iter().map(|x| x * x).sum();
        if normsq == 0.0 {
            // Already triangular in this column: the identity reflector.
            tau[j] = 0.0;
            continue;
        }
        let alpha = col[j];
        let norm = (alpha * alpha + normsq).sqrt();
        let beta = if alpha >= 0.0 { -norm } else { norm };
        let t = (beta - alpha) / beta;
        tau[j] = t;
        let scale = 1.0 / (alpha - beta);
        for x in &mut col[j + 1..] {
            *x *= scale;
        }
        col[j] = beta;
        for jj in (j + 1)..n {
            let (dst, v) = column_pair(data, ld, m, jj, j);
            let dot: f64 = v[j + 1..]
                .iter()
                .zip(&dst[j + 1..])
                .map(|(x, y)| x * y)
                .sum();
            let tw = t * (dst[j] + dot);
            dst[j] -= tw;
            for (x, &vi) in dst[j + 1..].iter_mut().zip(&v[j + 1..]) {
                *x -= tw * vi;
            }
        }
    }
}

/// The reflectors stored below the diagonal of the `m x k` view `a`
/// (`m >= k`), with their implicit unit diagonal written out and zeros
/// above it.
fn reflectors(a: &MatrixView<'_>) -> Matrix {
    let mut v = Matrix::zeros(a.rows(), a.cols());
    for j in 0..a.cols() {
        let col = v.col_mut(j);
        col[j] = 1.0;
        col[j + 1..].copy_from_slice(&a.col(j)[j + 1..]);
    }
    v
}

/// LAPACK `larft` (forward, columnwise): the upper-triangular `T` with
/// `H_0·H_1⋯H_{k-1} = I - V·T·Vᵀ`. The inner products of the reflectors come
/// from one [`syrk`] call (the upper triangle of `VᵀV`); the
/// `O(k³)` recurrence `T[0..j, j] = -tau_j·T[0..j, 0..j]·(VᵀV)[0..j, j]`
/// reads it.
fn larft(v: &MatrixView<'_>, tau: &[f64], cfg: &BlockConfig) -> Result<Matrix> {
    let k = v.cols();
    let mut s = Matrix::zeros(k, k);
    syrk(Uplo::Upper, Trans::Yes, 1.0, v, 0.0, &mut s.view_mut(), cfg)?;
    let mut t = Matrix::zeros(k, k);
    for j in 0..k {
        t[(j, j)] = tau[j];
        if tau[j] == 0.0 {
            continue;
        }
        for i in 0..j {
            let dot: f64 = (i..j).map(|p| t[(i, p)] * s[(p, j)]).sum();
            t[(i, j)] = -tau[j] * dot;
        }
    }
    Ok(t)
}

/// `C := (I - V·T·Vᵀ)ᵀ·C = C - V·(Tᵀ·(Vᵀ·C))` on the packed core: the
/// block-reflector update of QR's trailing columns and of ORMQR's
/// right-hand sides.
fn apply_block_reflector(
    v: &MatrixView<'_>,
    t: &MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    cfg: &BlockConfig,
) {
    let (k, nc) = (v.cols(), c.cols());
    let mut w = Matrix::zeros(k, nc);
    gemm_acc(
        1.0,
        v,
        Trans::Yes,
        &c.as_view(),
        Trans::No,
        &mut w.view_mut(),
        cfg,
    );
    let mut tw = Matrix::zeros(k, nc);
    gemm_acc(
        1.0,
        t,
        Trans::Yes,
        &w.view(),
        Trans::No,
        &mut tw.view_mut(),
        cfg,
    );
    gemm_acc(-1.0, v, Trans::No, &tw.view(), Trans::No, c, cfg);
}

/// Reference QR: the scalar unblocked Householder recurrence over the whole
/// matrix, one element at a time. Used by the unit and property tests to
/// validate the blocked kernel.
///
/// # Errors
///
/// Same checks as [`qr`].
pub fn qr_naive(a: &mut MatrixViewMut<'_>, tau: &mut Vec<f64>) -> Result<()> {
    let (m, n) = check_tall(a)?;
    tau.clear();
    for c in 0..n {
        // Householder vector annihilating a[c+1.., c] into a[c, c].
        let mut normsq = 0.0;
        for i in (c + 1)..m {
            let v = a.at(i, c);
            normsq += v * v;
        }
        let alpha = a.at(c, c);
        if normsq == 0.0 {
            // Already triangular in this column: the identity reflector.
            tau.push(0.0);
            continue;
        }
        let norm = (alpha * alpha + normsq).sqrt();
        let beta = if alpha >= 0.0 { -norm } else { norm };
        let t = (beta - alpha) / beta;
        tau.push(t);
        let scale = 1.0 / (alpha - beta);
        for i in (c + 1)..m {
            *a.at_mut(i, c) *= scale;
        }
        *a.at_mut(c, c) = beta;
        // Apply H = I - tau·v·vᵀ to the remaining columns.
        for cc in (c + 1)..n {
            let mut w = a.at(c, cc);
            for i in (c + 1)..m {
                w += a.at(i, c) * a.at(i, cc);
            }
            let tw = t * w;
            *a.at_mut(c, cc) -= tw;
            for i in (c + 1)..m {
                let v = a.at(i, c);
                *a.at_mut(i, cc) -= tw * v;
            }
        }
    }
    Ok(())
}

fn check_tall(a: &MatrixViewMut<'_>) -> Result<(usize, usize)> {
    if a.rows() < a.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "qr (requires rows >= cols)",
            lhs: (a.rows(), a.cols()),
            rhs: (a.cols(), a.cols()),
        });
    }
    Ok((a.rows(), a.cols()))
}

/// Factor `a` out of place into the packed `m x (n+1)` operand the
/// kernel-call IR uses: Householder vectors and `R` in columns `0..n` and the
/// `tau` coefficients, one per reflector, in the first `n` rows of column `n`.
///
/// # Errors
///
/// Same checks as [`qr`].
pub fn qr_packed(a: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    let (m, n) = (a.rows(), a.cols());
    let mut f = Matrix::zeros(m, n + 1);
    for j in 0..n {
        f.col_mut(j).copy_from_slice(a.col(j));
    }
    let mut tau = Vec::new();
    {
        let mut full = f.view_mut();
        let mut panel = full.subview_mut(0, 0, m, n);
        qr(&mut panel, &mut tau, cfg)?;
    }
    for (j, &t) in tau.iter().enumerate() {
        f[(j, n)] = t;
    }
    Ok(f)
}

/// Apply `Qᵀ` from a packed QR factor `f` (`m x (n+1)`, see [`qr_packed`]) to
/// `b` (`m x k`) and return the *top `n` rows* of the product — exactly the
/// `Qᵀb` block the least-squares triangular solve `x = R⁻¹·(Qᵀb)` consumes.
///
/// The reflectors are applied [`BlockConfig::tri_block`] at a time, in
/// factorisation order, each block as one compact-WY update on the packed
/// core.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] when `f` has no tau column,
/// `b`'s row count differs from `f`'s, or `n > m`.
pub fn ormqr(f: &Matrix, b: &Matrix, cfg: &BlockConfig) -> Result<Matrix> {
    let n = check_factor(f, b)?;
    let (m, k) = (f.rows(), b.cols());
    let tau = &f.col(n)[..n];
    let tb = cfg.tri_block.max(1);
    let mut work = b.clone();
    let mut work_view = work.view_mut();
    for k0 in (0..n).step_by(tb) {
        let kb = tb.min(n - k0);
        let v = reflectors(&f.subview(k0, k0, m - k0, kb));
        let t = larft(&v.view(), &tau[k0..k0 + kb], cfg)?;
        let mut c = work_view.subview_mut(k0, 0, m - k0, k);
        apply_block_reflector(&v.view(), &t.view(), &mut c, cfg);
    }
    Ok(owned(&work.subview(0, 0, n, k)))
}

/// Reference ORMQR: the reflectors applied one rank-1 update at a time, in
/// factorisation order. Used by the tests to validate [`ormqr`].
///
/// # Errors
///
/// Same checks as [`ormqr`].
pub fn ormqr_naive(f: &Matrix, b: &Matrix) -> Result<Matrix> {
    let n = check_factor(f, b)?;
    let m = f.rows();
    let k = b.cols();
    // Qᵀ·B = H_{n-1}⋯H_0·B: apply the reflectors in factorisation order.
    let mut work = b.clone();
    for j in 0..n {
        let t = f[(j, n)];
        if t == 0.0 {
            continue;
        }
        for c in 0..k {
            let col = work.col_mut(c);
            let mut w = col[j];
            for i in (j + 1)..m {
                w += f[(i, j)] * col[i];
            }
            let tw = t * w;
            col[j] -= tw;
            for i in (j + 1)..m {
                col[i] -= tw * f[(i, j)];
            }
        }
    }
    Ok(Matrix::from_fn(n, k, |i, j| work[(i, j)]))
}

/// The reflector count `n` of a packed factor `f` (`m x (n+1)`) applied to
/// `b`, or the shape error [`ormqr`] reports.
fn check_factor(f: &Matrix, b: &Matrix) -> Result<usize> {
    let mismatch = || MatrixError::DimensionMismatch {
        op: "ormqr",
        lhs: f.shape(),
        rhs: b.shape(),
    };
    let n = f.cols().checked_sub(1).ok_or_else(mismatch)?;
    if b.rows() != f.rows() || n > f.rows() {
        return Err(mismatch());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::gemm_naive;
    use crate::getrf::factor_triangle;
    use crate::trsm::trsm_naive;
    use lamb_matrix::ops::max_abs_diff;
    use lamb_matrix::random::random_seeded;
    use lamb_matrix::{Side, Uplo};

    /// `Q·B` from a packed factor: apply the reflectors in reverse order.
    fn apply_q(f: &Matrix, b: &Matrix) -> Matrix {
        let m = f.rows();
        let n = f.cols() - 1;
        let mut work = b.clone();
        for j in (0..n).rev() {
            let t = f[(j, n)];
            if t == 0.0 {
                continue;
            }
            for c in 0..b.cols() {
                let col = work.col_mut(c);
                let mut w = col[j];
                for i in (j + 1)..m {
                    w += f[(i, j)] * col[i];
                }
                let tw = t * w;
                col[j] -= tw;
                for i in (j + 1)..m {
                    col[i] -= tw * f[(i, j)];
                }
            }
        }
        work
    }

    fn check_reconstruction(m: usize, n: usize, seed: u64, cfg: &BlockConfig) {
        let a = random_seeded(m, n, seed);
        let f = qr_packed(&a, cfg).unwrap();
        assert_eq!(f.shape(), (m, n + 1));
        // Q · [R; 0] must reproduce A.
        let r = factor_triangle(Uplo::Upper, &f).unwrap();
        let r_padded = Matrix::from_fn(m, n, |i, j| if i < n { r[(i, j)] } else { 0.0 });
        let back = apply_q(&f, &r_padded);
        let diff = max_abs_diff(&back, &a).unwrap();
        assert!(
            diff < 1e-10 * (m as f64).max(1.0),
            "m {m} n {n}: reconstruction diff {diff}"
        );
        // ORMQR must agree: Qᵀ·A is [R; 0], so its top n rows are R.
        let qta = ormqr(&f, &a, cfg).unwrap();
        assert!(max_abs_diff(&qta, &r).unwrap() < 1e-10 * (m as f64).max(1.0));
    }

    #[test]
    fn blocked_factor_reconstructs_the_matrix() {
        let cfg = BlockConfig::serial();
        for (m, n) in [(1, 1), (2, 1), (5, 3), (23, 23), (64, 40), (97, 13)] {
            check_reconstruction(m, n, 7 + (m + n) as u64, &cfg);
        }
    }

    #[test]
    fn tiny_blocking_exercises_partial_panels() {
        let cfg = BlockConfig::tiny(); // tri_block = 3
        check_reconstruction(13, 13, 3, &cfg);
        check_reconstruction(11, 7, 4, &cfg);
    }

    #[test]
    fn parallel_path_matches_naive() {
        let cfg = BlockConfig {
            parallel_flop_threshold: 1,
            ..BlockConfig::default()
        };
        let a = random_seeded(150, 90, 17);
        let mut blocked = a.clone();
        let mut tau_b = Vec::new();
        qr(&mut blocked.view_mut(), &mut tau_b, &cfg).unwrap();
        let mut naive = a.clone();
        let mut tau_n = Vec::new();
        qr_naive(&mut naive.view_mut(), &mut tau_n).unwrap();
        assert_eq!(tau_b.len(), tau_n.len());
        for (b, n) in tau_b.iter().zip(&tau_n) {
            assert!((b - n).abs() < 1e-9, "tau diverged: {b} vs {n}");
        }
        assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-9);
    }

    #[test]
    fn factor_solves_least_squares_through_ormqr_and_trsm() {
        // The QR realisation of argmin ‖Ax - b‖: ORMQR then one TRSM. The
        // normal-equations residual Aᵀ(A·X - B) certifies optimality.
        let cfg = BlockConfig::serial();
        let (m, n, k) = (37, 13, 4);
        let a = random_seeded(m, n, 9);
        let b = random_seeded(m, k, 10);
        let f = qr_packed(&a, &cfg).unwrap();
        let r = factor_triangle(Uplo::Upper, &f).unwrap();
        let c = ormqr(&f, &b, &cfg).unwrap();
        let mut x = Matrix::zeros(n, k);
        trsm_naive(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            1.0,
            &r.view(),
            &c.view(),
            &mut x.view_mut(),
        )
        .unwrap();
        let mut ax = Matrix::zeros(m, k);
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
        let resid = Matrix::from_fn(m, k, |i, j| ax[(i, j)] - b[(i, j)]);
        let mut normal = Matrix::zeros(n, k);
        gemm_naive(
            Trans::Yes,
            Trans::No,
            1.0,
            &a.view(),
            &resid.view(),
            0.0,
            &mut normal.view_mut(),
        )
        .unwrap();
        assert!(lamb_matrix::ops::max_abs(&normal) < 1e-10 * m as f64);
    }

    #[test]
    fn zero_columns_factor_with_identity_reflectors() {
        // Rank deficiency is not an error at factor time: a zero column gives
        // tau = 0 and a zero on R's diagonal; only the later TRSM fails.
        let cfg = BlockConfig::tiny();
        let mut a = random_seeded(9, 5, 21);
        for i in 0..9 {
            a[(i, 2)] = 0.0;
        }
        let f = qr_packed(&a, &cfg).unwrap();
        let r = factor_triangle(Uplo::Upper, &f).unwrap();
        let r_padded = Matrix::from_fn(9, 5, |i, j| if i < 5 { r[(i, j)] } else { 0.0 });
        let back = apply_q(&f, &r_padded);
        assert!(max_abs_diff(&back, &a).unwrap() < 1e-10 * 9.0);
    }

    #[test]
    fn degenerate_and_wide_inputs() {
        let cfg = BlockConfig::default();
        // n = 0 factors to an empty R and a bare tau column.
        let f = qr_packed(&Matrix::zeros(3, 0), &cfg).unwrap();
        assert_eq!(f.shape(), (3, 1));
        let f0 = qr_packed(&Matrix::zeros(0, 0), &cfg).unwrap();
        assert_eq!(f0.shape(), (0, 1));
        // 1 x 1 is a single (possibly identity) reflector.
        let one = Matrix::filled(1, 1, -3.0);
        let f1 = qr_packed(&one, &cfg).unwrap();
        assert!((f1[(0, 0)].abs() - 3.0).abs() < 1e-14);
        // Wide input is rejected.
        let mut wide = Matrix::zeros(2, 5);
        assert!(matches!(
            qr(&mut wide.view_mut(), &mut Vec::new(), &cfg),
            Err(MatrixError::DimensionMismatch { .. })
        ));
        // ORMQR shape errors.
        let b = Matrix::zeros(4, 2);
        assert!(ormqr(&Matrix::zeros(4, 0), &b, &cfg).is_err());
        assert!(ormqr(&Matrix::zeros(3, 3), &b, &cfg).is_err());
        assert!(ormqr(&Matrix::zeros(4, 6), &b, &cfg).is_err());
        // Degenerate ORMQR: no reflectors leaves the top 0 rows.
        let c = ormqr(&Matrix::zeros(4, 1), &b, &cfg).unwrap();
        assert_eq!(c.shape(), (0, 2));
    }

    #[test]
    fn blocked_and_naive_agree_on_the_factor_itself() {
        let cfg = BlockConfig::serial();
        let a = random_seeded(40, 28, 33);
        let mut blocked = a.clone();
        let mut naive = a.clone();
        let (mut tb, mut tn) = (Vec::new(), Vec::new());
        qr(&mut blocked.view_mut(), &mut tb, &cfg).unwrap();
        qr_naive(&mut naive.view_mut(), &mut tn).unwrap();
        assert!(max_abs_diff(&blocked, &naive).unwrap() < 1e-10);
    }
}
