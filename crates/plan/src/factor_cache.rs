//! The batch-level factor cache and the reuse-aware scoring executor.
//!
//! [`FactorCache`] is the planner-side implementation of
//! [`FactorStore`]: a map from canonical node identities
//! ([`lamb_expr::node_identities`]) to computed factors, held in the same
//! sharded map (`Sharded`) as [`PredictionCache`](crate::PredictionCache),
//! so the many workers of a batch run do not serialise on one lock. Shared
//! across a [`BatchPlanner`](crate::BatchPlanner) batch it carries factor
//! residency *between requests*: once one request's chosen algorithm
//! factors an SPD operand, every later solve against the same operand
//! starts warm.
//!
//! [`ReuseAwareExecutor`] makes the planner's *time model* DAG-aware at batch
//! level: isolated-call benchmarks of calls whose
//! [cacheable](lamb_expr::is_cacheable_op) result is resident in the store
//! cost zero seconds, so `MinPredictedTime` (and `Hybrid`) actively prefer
//! algorithms that reuse cached factors. Non-resident calls fall through to
//! the wrapped executor — typically a
//! [`CachingExecutor`](crate::CachingExecutor), so everything else still
//! memoises through the prediction cache.

use crate::sharded::Sharded;
use lamb_expr::{cacheable_identities, Algorithm};
use lamb_matrix::Matrix;
use lamb_perfmodel::{AlgorithmTiming, Executor, FactorStore, MachineModel};
use std::collections::HashMap;
use std::sync::Arc;

/// One shard: identity → resident factor (`None` = noted, bytes not held).
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, Option<Arc<Matrix>>>,
    hits: usize,
}

/// A thread-safe, sharded store of computed factors keyed by canonical node
/// identity, shared across the requests of a batch.
#[derive(Debug, Default)]
pub struct FactorCache {
    shards: Sharded<Shard>,
}

impl FactorCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        FactorCache::default()
    }

    /// Number of resident identities (noted or held).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.lock_each().map(|s| s.entries.len()).sum()
    }

    /// Whether nothing is resident yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful byte-serving lookups so far (factors injected instead of
    /// recomputed).
    #[must_use]
    pub fn hits(&self) -> usize {
        self.shards.lock_each().map(|s| s.hits).sum()
    }

    /// Total bytes of the factors whose contents are held.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.shards
            .lock_each()
            .map(|s| {
                s.entries
                    .values()
                    .flatten()
                    .map(|m| (m.len() * 8) as u64)
                    .sum::<u64>()
            })
            .sum()
    }
}

impl FactorStore for FactorCache {
    fn lookup(&self, key: &str) -> Option<Arc<Matrix>> {
        let mut shard = self.shards.lock(key);
        let found = shard.entries.get(key).and_then(Clone::clone);
        if found.is_some() {
            shard.hits += 1;
        }
        found
    }

    fn store(&self, key: &str, value: Arc<Matrix>) {
        self.shards
            .lock(key)
            .entries
            .insert(key.to_string(), Some(value));
    }

    fn contains(&self, key: &str) -> bool {
        self.shards.lock(key).entries.contains_key(key)
    }

    fn note(&self, key: &str) {
        // Never downgrade held bytes to a bare note.
        self.shards
            .lock(key)
            .entries
            .entry(key.to_string())
            .or_insert(None);
    }
}

/// The FLOPs `alg` actually pays given the residency of `store`: its (already
/// DAG-deduplicated) total minus the calls whose cacheable result is
/// resident. This is the batch-level FLOP discriminant — a shared-factor
/// algorithm gets cheaper as the cache warms.
#[must_use]
pub fn effective_flops(alg: &Algorithm, store: &dyn FactorStore) -> u64 {
    let mut flops = alg.flops();
    for (i, _, identity) in cacheable_identities(alg) {
        if store.contains(&identity) {
            flops = flops.saturating_sub(alg.calls[i].flops());
        }
    }
    flops
}

/// An [`Executor`] adapter that makes isolated-call benchmarks *residency
/// aware*: a call whose cacheable result is resident in the factor store
/// costs zero seconds (it would be injected, not recomputed); every other
/// call falls through to the wrapped executor. Whole-algorithm executions
/// pass straight through untouched — selection-time execution must not
/// deposit factors the batch never actually computes.
pub struct ReuseAwareExecutor<'a> {
    inner: &'a mut dyn Executor,
    store: &'a dyn FactorStore,
}

impl<'a> ReuseAwareExecutor<'a> {
    /// Wrap `inner`, discounting calls resident in `store`.
    pub fn new(inner: &'a mut dyn Executor, store: &'a dyn FactorStore) -> Self {
        ReuseAwareExecutor { inner, store }
    }
}

impl Executor for ReuseAwareExecutor<'_> {
    fn name(&self) -> String {
        format!("reuse-aware({})", self.inner.name())
    }

    fn machine(&self) -> &MachineModel {
        self.inner.machine()
    }

    fn execute_algorithm(&mut self, alg: &Algorithm) -> AlgorithmTiming {
        self.inner.execute_algorithm(alg)
    }

    fn time_isolated_call(&mut self, alg: &Algorithm, call_index: usize) -> f64 {
        let resident = cacheable_identities(alg)
            .into_iter()
            .any(|(i, _, identity)| i == call_index && self.store.contains(&identity));
        if resident {
            0.0
        } else {
            self.inner.time_isolated_call(alg, call_index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_expr::{Expression, TreeExpression};
    use lamb_perfmodel::SimulatedExecutor;

    fn solve_algorithm() -> Algorithm {
        let expr = TreeExpression::parse("S[spd]^-1*B").unwrap();
        expr.algorithms(&[64, 8])
            .unwrap()
            .into_iter()
            .find(|a| a.kernel_summary().contains("potrf"))
            .unwrap()
    }

    #[test]
    fn cache_holds_notes_and_bytes_with_hit_accounting() {
        let cache = FactorCache::new();
        assert!(cache.is_empty());
        cache.note("a");
        assert!(cache.contains("a"));
        assert!(cache.lookup("a").is_none(), "a note serves no bytes");
        assert_eq!(cache.hits(), 0);
        cache.store("a", Arc::new(Matrix::identity(4)));
        assert!(cache.lookup("a").is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.resident_bytes(), 16 * 8);
        cache.note("a");
        assert!(cache.lookup("a").is_some(), "a note never evicts bytes");
        // Many keys spread over the shards without loss.
        for i in 0..100 {
            cache.note(&format!("key-{i}"));
        }
        assert_eq!(cache.len(), 101);
    }

    #[test]
    fn resident_factors_zero_their_isolated_times_and_discount_flops() {
        let alg = solve_algorithm();
        let cache = FactorCache::new();
        let mut sim = SimulatedExecutor::paper_like();
        let cold: Vec<f64> = (0..alg.calls.len())
            .map(|i| {
                let mut reuse = ReuseAwareExecutor::new(&mut sim, &cache);
                reuse.time_isolated_call(&alg, i)
            })
            .collect();
        assert!(cold.iter().all(|&t| t > 0.0));
        assert_eq!(effective_flops(&alg, &cache), alg.flops());

        // Mark every cacheable node resident, as a batch would after planning
        // an identical earlier request.
        for (_, _, identity) in cacheable_identities(&alg) {
            cache.note(&identity);
        }
        let potrf_index = alg
            .calls
            .iter()
            .position(|c| c.op.mnemonic() == "potrf")
            .unwrap();
        let mut reuse = ReuseAwareExecutor::new(&mut sim, &cache);
        assert_eq!(reuse.time_isolated_call(&alg, potrf_index), 0.0);
        assert!(reuse.predict_from_isolated_calls(&alg).seconds < cold.iter().sum::<f64>());
        let discounted = effective_flops(&alg, &cache);
        assert!(discounted < alg.flops());
        // Executions pass through untouched (no store mutation on selection).
        let before = cache.len();
        let _ = reuse.execute_algorithm(&alg);
        assert_eq!(cache.len(), before);
    }
}
