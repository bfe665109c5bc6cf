//! Element-wise utilities, norms, and comparison helpers.
//!
//! These are deliberately simple, reference-grade operations: they are used to
//! validate the optimised kernels and to prepare operands, not to be fast.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};
use crate::types::Uplo;

/// Maximum absolute difference between two matrices of identical shape.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if the shapes differ.
pub fn max_abs_diff(a: &Matrix, b: &Matrix) -> Result<f64> {
    if a.shape() != b.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "max_abs_diff",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max))
}

/// Whether two matrices are element-wise equal within a tolerance that scales
/// with the magnitude of the entries (mixed absolute/relative criterion).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if the shapes differ.
pub fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> Result<bool> {
    if a.shape() != b.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "approx_eq",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| {
        let scale = 1.0_f64.max(x.abs()).max(y.abs());
        (x - y).abs() <= tol * scale
    }))
}

/// Frobenius norm of a matrix.
#[must_use]
pub fn frobenius_norm(a: &Matrix) -> f64 {
    a.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Maximum absolute value of any element.
#[must_use]
pub fn max_abs(a: &Matrix) -> f64 {
    a.as_slice().iter().map(|x| x.abs()).fold(0.0, f64::max)
}

/// Whether a square matrix is numerically symmetric within `tol`.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input.
pub fn is_symmetric(a: &Matrix, tol: f64) -> Result<bool> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    for j in 0..n {
        for i in (j + 1)..n {
            let x = a[(i, j)];
            let y = a[(j, i)];
            let scale = 1.0_f64.max(x.abs()).max(y.abs());
            if (x - y).abs() > tol * scale {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Whether a square matrix is exactly triangular: every element outside the
/// `uplo` triangle (diagonal included in the triangle) is zero.
///
/// Kernels such as TRMM/TRSM read only the stored triangle and *assume* the
/// rest is zero — a declared-triangular operand that is not actually
/// triangular makes the structured and GEMM-based variants of one expression
/// diverge. The measured executor asserts this invariant on its triangular
/// operands in debug builds (it is O(n²), so the release timing path skips
/// it), and the triangular-generator tests validate against it.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input.
pub fn is_triangular(a: &Matrix, uplo: Uplo) -> Result<bool> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    for j in 0..n {
        for i in 0..n {
            if !uplo.contains(i, j) && a[(i, j)] != 0.0 {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Whether a square matrix is symmetric positive definite: numerically
/// symmetric within `tol` and admitting a Cholesky factorisation (every pivot
/// of the unblocked factorisation strictly positive).
///
/// This is a *validation* routine — `O(n³)`, scalar, reference-grade — used
/// by tests and by debug assertions in the executors; it is the ground truth
/// the blocked POTRF kernel in `lamb-kernels` is checked against. Operands
/// declared `S[spd]` at the expression level must satisfy it, or the
/// Cholesky-based and inverse-free algorithm variants of one expression
/// diverge (or fail outright with a non-positive pivot).
///
/// The pivot recurrence below must stay in lockstep with the kernel crate's
/// `potrf_naive` reference factor (this crate sits *below* `lamb-kernels` in
/// the dependency order, so it cannot call `potrf_naive` and carries its own
/// copy): in particular, both reject NaN pivots.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input.
pub fn is_spd(a: &Matrix, tol: f64) -> Result<bool> {
    if !is_symmetric(a, tol)? {
        return Ok(false);
    }
    // Unblocked lower Cholesky on a scratch copy; any non-positive pivot
    // certifies indefiniteness.
    let n = a.rows();
    let mut l = a.clone();
    for j in 0..n {
        let mut d = l[(j, j)];
        for p in 0..j {
            d -= l[(j, p)] * l[(j, p)];
        }
        // The NaN check matches the blocked kernel: a NaN pivot (e.g. a
        // poisoned diagonal, which the off-diagonal symmetry scan above
        // never inspects) is not positive definite.
        if d <= 0.0 || d.is_nan() {
            return Ok(false);
        }
        let d = d.sqrt();
        l[(j, j)] = d;
        for i in (j + 1)..n {
            let mut s = l[(i, j)];
            for p in 0..j {
                s -= l[(i, p)] * l[(j, p)];
            }
            l[(i, j)] = s / d;
        }
    }
    Ok(true)
}

/// `b := alpha * a + b` for matrices of identical shape.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if the shapes differ.
pub fn axpy(alpha: f64, a: &Matrix, b: &mut Matrix) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "axpy",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    for (y, x) in b.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *y += alpha * x;
    }
    Ok(())
}

/// Scale every element of `a` by `alpha` in place.
pub fn scale(alpha: f64, a: &mut Matrix) {
    for x in a.as_mut_slice() {
        *x *= alpha;
    }
}

/// Build a full symmetric matrix from the `uplo` triangle of `a`, zeroing
/// nothing: the missing triangle is reconstructed by mirroring.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input.
pub fn full_from_triangle(a: &Matrix, uplo: Uplo) -> Result<Matrix> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    Ok(Matrix::from_fn(n, n, |i, j| {
        if uplo.contains(i, j) {
            a[(i, j)]
        } else {
            a[(j, i)]
        }
    }))
}

/// Zero out the triangle of `a` *not* selected by `uplo` (strictly: the
/// off-diagonal part of the opposite triangle). Useful for testing kernels
/// that promise not to touch the unreferenced triangle.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input.
pub fn zero_opposite_triangle(a: &mut Matrix, uplo: Uplo) -> Result<()> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    for j in 0..n {
        for i in 0..n {
            if i != j && !uplo.contains(i, j) {
                a[(i, j)] = 0.0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_fn(3, 3, |i, j| (i as f64) - 2.0 * (j as f64))
    }

    #[test]
    fn max_abs_diff_of_identical_is_zero() {
        let a = sample();
        assert_eq!(max_abs_diff(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_single_change() {
        let a = sample();
        let mut b = a.clone();
        b[(2, 1)] += 0.5;
        assert!((max_abs_diff(&a, &b).unwrap() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn max_abs_diff_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(max_abs_diff(&a, &b).is_err());
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        let a = Matrix::filled(2, 2, 1.0e12);
        let mut b = a.clone();
        b[(0, 0)] += 1.0; // relative error 1e-12
        assert!(approx_eq(&a, &b, 1e-10).unwrap());
        assert!(!approx_eq(&a, &b, 1e-14).unwrap());
    }

    #[test]
    fn frobenius_norm_matches_hand_computation() {
        let a = Matrix::from_rows(2, 2, &[3.0, 0.0, 0.0, 4.0]).unwrap();
        assert!((frobenius_norm(&a) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_finds_largest_magnitude() {
        let a = Matrix::from_rows(2, 2, &[1.0, -7.0, 3.0, 2.0]).unwrap();
        assert_eq!(max_abs(&a), 7.0);
    }

    #[test]
    fn is_symmetric_detects_both_cases() {
        let mut a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        assert!(is_symmetric(&a, 1e-12).unwrap());
        a[(0, 2)] += 1.0;
        assert!(!is_symmetric(&a, 1e-12).unwrap());
    }

    #[test]
    fn is_symmetric_rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(is_symmetric(&a, 1e-12).is_err());
    }

    #[test]
    fn is_spd_detects_definiteness_and_rejects_rectangular() {
        assert!(is_spd(&Matrix::identity(5), 1e-12).unwrap());
        // Asymmetric and indefinite matrices both fail.
        let mut asym = Matrix::identity(3);
        asym[(0, 2)] = 0.5;
        assert!(!is_spd(&asym, 1e-12).unwrap());
        let mut indef = Matrix::identity(3);
        indef[(1, 1)] = -1.0;
        assert!(!is_spd(&indef, 1e-12).unwrap());
        assert!(is_spd(&Matrix::zeros(2, 3), 1e-12).is_err());
    }

    #[test]
    fn is_spd_rejects_nan_poisoned_matrices_like_the_kernel() {
        // A NaN on the diagonal is invisible to the off-diagonal symmetry
        // scan; the pivot check must still reject it, exactly as the blocked
        // POTRF kernel does.
        for idx in [0usize, 2] {
            let mut a = Matrix::identity(4);
            a[(idx, idx)] = f64::NAN;
            assert!(!is_spd(&a, 1e-12).unwrap(), "NaN pivot at {idx}");
        }
    }

    #[test]
    fn is_triangular_detects_structure() {
        let mut a = Matrix::from_fn(3, 3, |i, j| if i >= j { 1.0 } else { 0.0 });
        assert!(is_triangular(&a, Uplo::Lower).unwrap());
        assert!(!is_triangular(&a, Uplo::Upper).unwrap());
        a[(0, 2)] = 0.5;
        assert!(!is_triangular(&a, Uplo::Lower).unwrap());
        assert!(is_triangular(&Matrix::zeros(2, 3), Uplo::Lower).is_err());
        // The diagonal belongs to both triangles.
        let d = Matrix::identity(4);
        assert!(is_triangular(&d, Uplo::Lower).unwrap());
        assert!(is_triangular(&d, Uplo::Upper).unwrap());
    }

    #[test]
    fn axpy_accumulates() {
        let a = Matrix::filled(2, 2, 2.0);
        let mut b = Matrix::filled(2, 2, 1.0);
        axpy(3.0, &a, &mut b).unwrap();
        assert!(b.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn scale_multiplies_every_element() {
        let mut a = Matrix::filled(2, 3, 2.0);
        scale(-0.5, &mut a);
        assert!(a.as_slice().iter().all(|&x| x == -1.0));
    }

    #[test]
    fn full_from_triangle_lower_mirrors() {
        let a = Matrix::from_fn(
            3,
            3,
            |i, j| if i >= j { (i * 3 + j + 1) as f64 } else { 99.0 },
        );
        let f = full_from_triangle(&a, Uplo::Lower).unwrap();
        assert!(is_symmetric(&f, 0.0).unwrap());
        assert_eq!(f[(2, 0)], a[(2, 0)]);
        assert_eq!(f[(0, 2)], a[(2, 0)]);
    }

    #[test]
    fn full_from_triangle_upper_mirrors() {
        let a = Matrix::from_fn(
            3,
            3,
            |i, j| if i <= j { (i + 3 * j + 1) as f64 } else { -5.0 },
        );
        let f = full_from_triangle(&a, Uplo::Upper).unwrap();
        assert!(is_symmetric(&f, 0.0).unwrap());
        assert_eq!(f[(0, 2)], a[(0, 2)]);
        assert_eq!(f[(2, 0)], a[(0, 2)]);
    }

    #[test]
    fn zero_opposite_triangle_keeps_selected_triangle() {
        let mut a = Matrix::filled(3, 3, 4.0);
        zero_opposite_triangle(&mut a, Uplo::Lower).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i >= j { 4.0 } else { 0.0 };
                assert_eq!(a[(i, j)], expected);
            }
        }
    }
}
