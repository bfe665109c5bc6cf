//! The crate's one sharded map: a fixed set of independently locked shards,
//! with every key routed to its shard by hash, so the many worker threads of
//! a batched planning run do not serialise on a single mutex.
//! [`PredictionCache`](crate::PredictionCache) and
//! [`FactorCache`](crate::FactorCache) both wrap one.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of independently locked shards; a small power of two well above
/// the worker counts rayon uses on typical machines.
const SHARD_COUNT: usize = 16;

/// [`SHARD_COUNT`] independently locked values of `S`.
#[derive(Debug)]
pub(crate) struct Sharded<S> {
    shards: [Mutex<S>; SHARD_COUNT],
}

impl<S: Default> Default for Sharded<S> {
    fn default() -> Self {
        Sharded {
            shards: std::array::from_fn(|_| Mutex::new(S::default())),
        }
    }
}

impl<S> Sharded<S> {
    /// Lock the shard responsible for `key`.
    pub(crate) fn lock<K: Hash + ?Sized>(&self, key: &K) -> MutexGuard<'_, S> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        lock(&self.shards[(hasher.finish() as usize) % SHARD_COUNT])
    }

    /// Lock every shard in turn, each only while the iterator's item lives.
    pub(crate) fn lock_each(&self) -> impl Iterator<Item = MutexGuard<'_, S>> {
        self.shards.iter().map(lock)
    }
}

/// Lock `shard`, recovering it if a holder panicked: every critical section
/// in this crate is one map operation, so a poisoned shard is still whole.
fn lock<S>(shard: &Mutex<S>) -> MutexGuard<'_, S> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}
