//! Edge-shape agreement of the structured kernels with their unblocked
//! references: TRMM, SYRK, TRSM, POTRF, GETRF, QR and ORMQR at orders on
//! both sides of every block and recursion boundary, under the default,
//! serial, tiny and forced-parallel configurations.
//!
//! References are computed once per case and compared with every
//! configuration, so the test stays cheap in unoptimised builds.

use lamb_kernels::{
    gemm_naive, getrf, getrf_naive, ormqr, ormqr_naive, potrf, potrf_naive, qr, qr_naive,
    qr_packed, syrk, trmm, trmm_naive, trsm, trsm_naive, BlockConfig,
};
use lamb_matrix::ops::max_abs_diff;
use lamb_matrix::random::{random_seeded, random_spd, random_triangular};
use lamb_matrix::{Matrix, Side, Trans, Uplo};

/// Triangle orders and matrix orders: empty, scalar, tiny, one below, at
/// and above a power-of-two block edge, and two sizes spanning several
/// blocks.
const ORDERS: [usize; 11] = [0, 1, 2, 7, 8, 9, 63, 64, 65, 129, 200];

/// Right-hand-side widths: a single vector, a few columns, a wide block.
const WIDTHS: [usize; 3] = [1, 3, 100];

fn configs() -> [(&'static str, BlockConfig); 4] {
    [
        ("default", BlockConfig::default()),
        ("serial", BlockConfig::serial()),
        ("tiny", BlockConfig::tiny()),
        (
            "parallel",
            BlockConfig {
                parallel_flop_threshold: 1,
                ..BlockConfig::default()
            },
        ),
    ]
}

/// The tolerance the kernels' own tests use: `1e-10` per unit of order.
fn tol(order: usize) -> f64 {
    1e-10 * (order as f64).max(1.0)
}

#[test]
fn structured_kernels_agree_with_their_references_on_edge_shapes() {
    let configs = configs();
    for &n in &ORDERS {
        // TRMM: every side, uplo and trans, every width of the other side.
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let l = random_triangular(n, uplo, 5 + n as u64);
                for trans in [Trans::No, Trans::Yes] {
                    for &w in &WIDTHS {
                        let (rows, cols) = match side {
                            Side::Left => (n, w),
                            Side::Right => (w, n),
                        };
                        let b = random_seeded(rows, cols, 100 + w as u64);
                        let mut reference = Matrix::zeros(rows, cols);
                        trmm_naive(
                            side,
                            uplo,
                            trans,
                            -1.5,
                            &l.view(),
                            &b.view(),
                            &mut reference.view_mut(),
                        )
                        .unwrap();
                        for (name, cfg) in &configs {
                            let mut c = Matrix::filled(rows, cols, f64::NAN);
                            trmm(
                                side,
                                uplo,
                                trans,
                                -1.5,
                                &l.view(),
                                &b.view(),
                                &mut c.view_mut(),
                                cfg,
                            )
                            .unwrap();
                            let diff = max_abs_diff(&c, &reference).unwrap();
                            assert!(
                                diff < tol(n),
                                "trmm {side:?}/{uplo:?}/{trans:?} order {n} width {w} \
                                 [{name}]: diff {diff}"
                            );
                        }
                    }
                }
            }
        }

        // SYRK: both triangles and both transpositions, inner dimensions
        // from WIDTHS; the stored triangle matches the full product and the
        // opposite triangle keeps its sentinel.
        const SENTINEL: f64 = 777.0;
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::No, Trans::Yes] {
                for &k in &WIDTHS {
                    let (rows, cols) = match trans {
                        Trans::No => (n, k),
                        Trans::Yes => (k, n),
                    };
                    let a = random_seeded(rows, cols, 300 + (n + k) as u64);
                    let c0 = Matrix::from_fn(n, n, |i, j| {
                        if uplo.contains(i, j) {
                            ((i + 2 * j) % 7) as f64 - 3.0
                        } else {
                            SENTINEL
                        }
                    });
                    for beta in [0.0, 1.0, -0.5] {
                        let mut reference = c0.clone();
                        gemm_naive(
                            trans,
                            trans.flip(),
                            -1.5,
                            &a.view(),
                            &a.view(),
                            beta,
                            &mut reference.view_mut(),
                        )
                        .unwrap();
                        for (name, cfg) in &configs {
                            let mut c = c0.clone();
                            syrk(uplo, trans, -1.5, &a.view(), beta, &mut c.view_mut(), cfg)
                                .unwrap();
                            for j in 0..n {
                                for i in 0..n {
                                    if uplo.contains(i, j) {
                                        let diff = (c[(i, j)] - reference[(i, j)]).abs();
                                        assert!(
                                            diff < tol(k),
                                            "syrk {uplo:?}/{trans:?} order {n} k {k} \
                                             beta {beta} [{name}] ({i},{j}): diff {diff}"
                                        );
                                    } else {
                                        assert_eq!(
                                            c[(i, j)],
                                            SENTINEL,
                                            "syrk {uplo:?}/{trans:?} order {n} k {k} \
                                             beta {beta} [{name}] wrote ({i},{j})"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // TRSM: every side, uplo and trans, every right-hand-side width.
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let l = random_triangular(n, uplo, 9 + n as u64);
                for trans in [Trans::No, Trans::Yes] {
                    for &w in &WIDTHS {
                        let (rows, cols) = match side {
                            Side::Left => (n, w),
                            Side::Right => (w, n),
                        };
                        let b = random_seeded(rows, cols, 200 + w as u64);
                        let mut reference = Matrix::zeros(rows, cols);
                        trsm_naive(
                            side,
                            uplo,
                            trans,
                            -1.5,
                            &l.view(),
                            &b.view(),
                            &mut reference.view_mut(),
                        )
                        .unwrap();
                        for (name, cfg) in &configs {
                            let mut x = Matrix::filled(rows, cols, f64::NAN);
                            trsm(
                                side,
                                uplo,
                                trans,
                                -1.5,
                                &l.view(),
                                &b.view(),
                                &mut x.view_mut(),
                                cfg,
                            )
                            .unwrap();
                            let diff = max_abs_diff(&x, &reference).unwrap();
                            assert!(
                                diff < tol(n),
                                "trsm {side:?}/{uplo:?}/{trans:?} order {n} width {w} \
                                 [{name}]: diff {diff}"
                            );
                        }
                    }
                }
            }
        }

        // POTRF: both triangles; only the factored triangle is compared
        // (the other one is untouched input in both).
        let spd = random_spd(n, 17 + n as u64);
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let mut reference = spd.clone();
            potrf_naive(uplo, &mut reference.view_mut()).unwrap();
            for (name, cfg) in &configs {
                let mut f = spd.clone();
                potrf(uplo, &mut f.view_mut(), cfg).unwrap();
                let diff = max_abs_diff(&f, &reference).unwrap();
                assert!(
                    diff < tol(n),
                    "potrf {uplo:?} order {n} [{name}]: diff {diff}"
                );
            }
        }

        // GETRF: the same pivot sequence and the same factor.
        let a = random_seeded(n, n, 31 + n as u64);
        let mut reference = a.clone();
        let mut ref_piv = Vec::new();
        getrf_naive(&mut reference.view_mut(), &mut ref_piv).unwrap();
        for (name, cfg) in &configs {
            let mut f = a.clone();
            let mut piv = Vec::new();
            getrf(&mut f.view_mut(), &mut piv, cfg).unwrap();
            assert_eq!(piv, ref_piv, "getrf order {n} [{name}]: pivots");
            let diff = max_abs_diff(&f, &reference).unwrap();
            assert!(diff < tol(n), "getrf order {n} [{name}]: diff {diff}");
        }

        // QR and ORMQR: square, tall and one-column inputs.
        for (m, cols) in [(n, n), (2 * n + 1, n), (n.max(1), 1)] {
            let a = random_seeded(m, cols, 43 + (m + cols) as u64);
            let mut reference = a.clone();
            let mut ref_tau = Vec::new();
            qr_naive(&mut reference.view_mut(), &mut ref_tau).unwrap();
            let bs: Vec<Matrix> = WIDTHS
                .iter()
                .map(|&w| random_seeded(m, w, 57 + w as u64))
                .collect();
            // ORMQR's reference applies the reference factor's reflectors.
            let packed = qr_packed(&a, &BlockConfig::serial()).unwrap();
            let ref_qtb: Vec<Matrix> = bs
                .iter()
                .map(|b| ormqr_naive(&packed, b).unwrap())
                .collect();
            for (name, cfg) in &configs {
                let mut f = a.clone();
                let mut tau = Vec::new();
                qr(&mut f.view_mut(), &mut tau, cfg).unwrap();
                let diff = max_abs_diff(&f, &reference).unwrap();
                assert!(diff < tol(m), "qr {m}x{cols} [{name}]: diff {diff}");
                assert_eq!(tau.len(), ref_tau.len());
                for (t, r) in tau.iter().zip(&ref_tau) {
                    assert!((t - r).abs() < tol(m), "qr {m}x{cols} [{name}]: tau");
                }
                for (b, expected) in bs.iter().zip(&ref_qtb) {
                    let qtb = ormqr(&packed, b, cfg).unwrap();
                    let diff = max_abs_diff(&qtb, expected).unwrap();
                    assert!(
                        diff < tol(m),
                        "ormqr {m}x{cols} width {} [{name}]: diff {diff}",
                        b.cols()
                    );
                }
            }
        }
    }
}
