//! Concurrency stress for the sharded [`PredictionCache`]: many threads
//! preloading calibration tables (with non-canonical keys), taking
//! snapshots, predicting algorithm times and running whole plans against one
//! shared cache, concurrently. The invariants checked at every step and at
//! the end:
//!
//! * every snapshot — including mid-stress snapshots — contains only
//!   canonical timing keys with finite, non-negative times (checked with
//!   `lamb-verify`'s table lint, the PR-5 cache-poisoning class);
//! * concurrent preloads of transposed-variant entries never split one
//!   benchmark entry into several;
//! * predictions and plans agree with a single-threaded reference run.
//!
//! Run under ThreadSanitizer (see the `concurrency` CI job) to turn data
//! races into hard failures; under the normal test profile this still
//! hammers the shard locks enough to catch logic races.

use lamb_expr::{AatbExpression, Expression, KernelOp, TreeExpression};
use lamb_matrix::Trans;
use lamb_perfmodel::{CallTimeTable, Executor, SimulatedExecutor};
use lamb_plan::{CachingExecutor, MinPredictedTime, Planner, PredictionCache};
use lamb_verify::verify_call_table;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A small calibration table whose keys are deliberately *non-canonical*
/// spellings (transposed GEMMs): every ingest path must canonicalise them.
fn transposed_variant_table(seed: usize) -> CallTimeTable {
    let base = 16 + (seed % 7) * 8;
    CallTimeTable::from_entries(vec![
        (
            KernelOp::Gemm {
                transa: Trans::Yes,
                transb: Trans::No,
                m: base,
                n: base + 4,
                k: base + 8,
            },
            1.0e-4 + seed as f64 * 1.0e-6,
        ),
        (
            KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::Yes,
                m: base + 4,
                n: base,
                k: base + 8,
            },
            2.0e-4,
        ),
    ])
}

#[test]
fn sharded_cache_survives_concurrent_preload_snapshot_and_planning() {
    let cache = Arc::new(PredictionCache::new());
    let aatb = AatbExpression::new();
    let chain = TreeExpression::parse("A*B*C*D").unwrap();
    let failed = Arc::new(AtomicBool::new(false));

    let threads = 12;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let aatb = &aatb;
            let chain = &chain;
            let failed = Arc::clone(&failed);
            scope.spawn(move || {
                let mut executor = SimulatedExecutor::paper_like();
                for round in 0..20 {
                    match (t + round) % 4 {
                        // Preloaders: hammer every shard with canonicalised
                        // and to-be-canonicalised entries.
                        0 => cache.preload(&transposed_variant_table(t * 31 + round)),
                        // Snapshotters: a mid-stress snapshot must already
                        // be canonical and finite.
                        1 => {
                            let report = verify_call_table(&cache.snapshot());
                            if !report.is_clean() {
                                eprintln!("mid-stress snapshot unclean:\n{report}");
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                        // Predictors: fill the cache through the miss path.
                        2 => {
                            let dims = [40 + round, 60 + t, 80];
                            for alg in aatb.algorithms(&dims).unwrap() {
                                let timing = CachingExecutor::new(&mut executor, &cache)
                                    .predict_from_isolated_calls(&alg);
                                if !timing.seconds.is_finite() || timing.seconds < 0.0 {
                                    failed.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                        // Planners: the full pipeline over the shared cache.
                        _ => {
                            let planner = Planner::for_expression(chain)
                                .policy(MinPredictedTime)
                                .shared_cache(Arc::clone(&cache));
                            let dims = vec![30 + t, 40, 20 + round, 50, 25];
                            if planner.plan(&dims).is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    assert!(!failed.load(Ordering::Relaxed), "a stress thread failed");

    // Final snapshot: canonical keys only, finite times, and the transposed
    // GEMM variants collapsed into single canonical entries.
    let snapshot = cache.snapshot();
    let report = verify_call_table(&snapshot);
    assert!(report.is_clean(), "final snapshot unclean:\n{report}");
    assert!(!snapshot.is_empty());
    let (hits, misses) = cache.stats();
    assert!(misses > 0, "predictors must have filled the cache");
    assert!(hits > 0, "repeated instances must have hit the cache");

    // Reference check: a fresh single-threaded prediction over the same
    // expression agrees with one computed through the stressed cache (the
    // deterministic executor keys timings on call signatures alone).
    let mut executor = SimulatedExecutor::paper_like();
    let reference = PredictionCache::new();
    let dims = [40, 60, 80];
    for alg in aatb.algorithms(&dims).unwrap() {
        let fresh = CachingExecutor::new(&mut executor, &reference)
            .predict_from_isolated_calls(&alg)
            .seconds;
        let stressed = CachingExecutor::new(&mut executor, &cache)
            .predict_from_isolated_calls(&alg)
            .seconds;
        assert!(
            (fresh - stressed).abs() <= 1e-12 * fresh.max(1.0),
            "stressed cache diverged: {stressed} vs {fresh}"
        );
    }
}

#[test]
fn concurrent_preloads_of_equivalent_keys_collapse_to_one_entry() {
    let cache = Arc::new(PredictionCache::new());
    std::thread::scope(|scope| {
        for t in 0..8 {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for _ in 0..50 {
                    // Same logical GEMM under the four transposition
                    // spellings: one canonical entry must result.
                    for (ta, tb) in [
                        (Trans::No, Trans::No),
                        (Trans::Yes, Trans::No),
                        (Trans::No, Trans::Yes),
                        (Trans::Yes, Trans::Yes),
                    ] {
                        cache.preload(&CallTimeTable::from_entries(vec![(
                            KernelOp::Gemm {
                                transa: ta,
                                transb: tb,
                                m: 32,
                                n: 24,
                                k: 48,
                            },
                            1.0e-4 + t as f64 * 1.0e-7,
                        )]));
                    }
                }
            });
        }
    });
    let snapshot = cache.snapshot();
    assert_eq!(snapshot.len(), 1, "variants must collapse to one entry");
    assert!(verify_call_table(&snapshot).is_clean());
}
