//! The elaboration cache.
//!
//! [`crate::run_testbench_parsed`] and [`crate::simulate_records_parsed`]
//! combine a DUT with a driver and elaborate the pair into the flat
//! [`Design`] the simulator executes. The same pair recurs constantly with *different*
//! downstream work: the RS matrix simulates one driver against 20 RTLs
//! but each RTL against many scenario replays, Eval2 runs the same
//! testbench against ten mutants, and repetition sweeps re-run identical
//! pairs under fresh seeds (which miss the simulation cache only when the
//! scenario set changed). PR 1's simulation cache absorbs *repeated
//! runs*; this cache absorbs the combine-elaborate cost of *repeated
//! designs* whose runs still have to happen.
//!
//! An [`ElabCache`] memoizes the elaborated [`Design`] under the
//! structural hashes of the (DUT, driver) source pair, returning a shared
//! [`Arc`]: elaboration is a pure function of the two sources, so a hit
//! is semantically identical to re-elaborating — simulation results, and
//! therefore every harness artifact, stay byte-identical (the harness
//! determinism tests pin this). Mirroring [`crate::SimCache`], the cache
//! is *installed* per worker thread ([`ElabCache::install`]) so the
//! pipeline layers between the harness and the runner stay oblivious,
//! and the table is sharded, bounded, and evicts never-hit entries
//! first.

use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::Fingerprint;
use correctbench_verilog::Design;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::install;

pub use crate::cache::CacheStats;

/// Number of independently-locked shards (power of two).
const SHARDS: usize = 16;

/// Maximum entries one shard holds before cold entries are evicted. A
/// elaborated design is heavier than a record stream, so the bound sits
/// well below the simulation cache's; the recurring pairs (golden
/// testbenches, Eval2 mutants, validator RTL groups) accumulate hits and
/// survive eviction.
pub const MAX_ENTRIES_PER_SHARD: usize = 512;

/// The content address of one elaboration: structural fingerprints of
/// the two sources that are combined and flattened.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ElabKey {
    /// [`SourceFile::fingerprint`] of the DUT.
    pub dut: Fingerprint,
    /// [`SourceFile::fingerprint`] of the driver.
    pub driver: Fingerprint,
}

impl ElabKey {
    /// Builds the key for one (DUT, driver) pair.
    pub fn for_pair(dut: &SourceFile, driver: &SourceFile) -> Self {
        ElabKey {
            dut: dut.fingerprint(),
            driver: driver.fingerprint(),
        }
    }

    fn shard(&self) -> usize {
        (self.dut.0.wrapping_mul(31).wrapping_add(self.driver.0)) as usize & (SHARDS - 1)
    }
}

struct Entry {
    value: Arc<Design>,
    hits: u32,
}

/// A sharded, thread-safe, bounded memo table for elaborated designs.
pub struct ElabCache {
    shards: Vec<Mutex<HashMap<ElabKey, Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ElabCache {
    /// An empty cache, ready to share across worker threads.
    pub fn new() -> Arc<ElabCache> {
        Arc::new(ElabCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks up an elaborated design, counting a hit or a miss.
    pub fn get(&self, key: &ElabKey) -> Option<Arc<Design>> {
        let found = self.shards[key.shard()]
            .lock()
            .expect("elab cache shard poisoned")
            .get_mut(key)
            .map(|e| {
                e.hits += 1;
                Arc::clone(&e.value)
            });
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                correctbench_obs::add(correctbench_obs::Counter::ElabCacheHits, 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                correctbench_obs::add(correctbench_obs::Counter::ElabCacheMisses, 1);
            }
        };
        found
    }

    /// Stores an elaborated design. A full shard first evicts a never-hit
    /// entry (or, when every entry has hits, an arbitrary one), so memory
    /// stays bounded at `SHARDS * MAX_ENTRIES_PER_SHARD` entries.
    pub fn put(&self, key: ElabKey, value: Arc<Design>) {
        let mut shard = self.shards[key.shard()]
            .lock()
            .expect("elab cache shard poisoned");
        if shard.len() >= MAX_ENTRIES_PER_SHARD && !shard.contains_key(&key) {
            let victim = shard
                .iter()
                .find(|(_, e)| e.hits == 0)
                .or_else(|| shard.iter().next())
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                shard.remove(&victim);
            }
        }
        shard.insert(key, Entry { value, hits: 0 });
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("elab cache shard poisoned").len() as u64)
                .sum(),
        }
    }

    /// Makes `self` the active elaboration cache of the *current thread*
    /// until the returned guard drops. The runner consults the active
    /// cache transparently; nesting restores the previous cache.
    ///
    /// A thin shim over [`CacheStack`](crate::CacheStack), which is the
    /// preferred handle — it installs every layer under one guard.
    pub fn install(self: &Arc<Self>) -> ElabCacheGuard {
        crate::CacheStack::empty()
            .with_elab_cache(Arc::clone(self))
            .install()
    }
}

/// Runs `f` with the thread's active elaboration cache, if one is
/// installed.
pub fn with_active<R>(f: impl FnOnce(&ElabCache) -> R) -> Option<R> {
    install::with_active(&install::ELAB, f)
}

/// Re-activates the previous cache (usually none) when dropped.
pub type ElabCacheGuard = install::StackGuard;

#[cfg(test)]
mod tests {
    use super::*;

    fn design(n: u64) -> Arc<Design> {
        let src = format!(
            "module tb;\nreg [7:0] v;\ninitial begin v = 8'd{};\n$finish;\nend\nendmodule",
            n % 200
        );
        let file = correctbench_verilog::parse(&src).expect("parse");
        Arc::new(correctbench_verilog::elaborate(&file, "tb").expect("elab"))
    }

    fn key(n: u64) -> ElabKey {
        ElabKey {
            dut: Fingerprint(n),
            driver: Fingerprint(n ^ 1),
        }
    }

    #[test]
    fn get_put_and_stats() {
        let cache = ElabCache::new();
        assert!(cache.get(&key(1)).is_none());
        let cd = design(1);
        cache.put(key(1), Arc::clone(&cd));
        let hit = cache.get(&key(1)).expect("hit");
        assert!(Arc::ptr_eq(&hit, &cd), "hit shares the stored design");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_bounds_entries_and_keeps_hot_keys() {
        let cache = ElabCache::new();
        let hot = design(0);
        cache.put(key(u64::MAX), Arc::clone(&hot));
        assert!(cache.get(&key(u64::MAX)).is_some());
        let flood = (SHARDS * MAX_ENTRIES_PER_SHARD + 512) as u64;
        let cold = design(7);
        for n in 0..flood {
            cache.put(key(n), Arc::clone(&cold));
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= (SHARDS * MAX_ENTRIES_PER_SHARD) as u64,
            "cache exceeded its bound: {stats}"
        );
        assert!(cache.get(&key(u64::MAX)).is_some(), "hot key was evicted");
    }

    #[test]
    fn install_is_scoped_and_nested() {
        let outer = ElabCache::new();
        let inner = ElabCache::new();
        assert!(with_active(|_| ()).is_none());
        {
            let _g1 = outer.install();
            with_active(|c| c.put(key(7), design(7))).expect("outer active");
            {
                let _g2 = inner.install();
                assert!(!with_active(|c| c.get(&key(7)).is_some()).expect("inner active"));
            }
            assert!(with_active(|c| c.get(&key(7)).is_some()).expect("outer restored"));
        }
        assert!(with_active(|_| ()).is_none());
    }
}
