//! The cross-job evaluation context: a pool of compiled sessions.
//!
//! PR 3's [`EvalSession`] amortizes checker compilation, record-binding
//! resolution and simulator construction *within* one job — but the
//! validator and AutoEval still built a fresh session per call, even
//! though the harness replays the same golden testbench (same problem,
//! same checker fingerprint) across every repetition and method of a
//! problem. An [`EvalContext`] carries that amortization *across* job
//! boundaries: a bounded, sharded pool of reset-reusable sessions keyed
//! on the `(module interface, checker)` fingerprint pair.
//!
//! Mirroring the data layers ([`SimCache`](crate::SimCache),
//! [`GoldenCache`](crate::GoldenCache)), the context is *installed* per
//! worker thread through a [`CacheStack`](crate::CacheStack) so the
//! pipeline layers between the harness and the evaluators stay
//! oblivious; evaluators call [`acquire_session`], which leases a
//! pooled session when one is available and builds a fresh one
//! otherwise (also the no-context behavior, so library users without a
//! harness see no change).
//!
//! Leases are **exclusive**: `acquire_session` checks the session *out*
//! of the pool, so two workers evaluating the same `(problem, checker)`
//! pair concurrently get distinct sessions (the second takes a miss).
//! Dropping the [`SessionLease`] checks the session back in, evicting a
//! never-reused entry when the shard is full. Sessions are deterministic
//! in their run inputs — a warm session (compiled judge, resolved
//! bindings) produces byte-identical results to a cold one, which the
//! harness determinism suite pins by comparing whole-plan artifacts
//! with the pool on and off.

use crate::cache::{module_interface_fingerprint, CacheStats};
use crate::install;
use crate::runner::TbError;
use crate::session::EvalSession;
use correctbench_checker::CheckerProgram;
use correctbench_dataset::Problem;
use correctbench_verilog::hash::Fingerprint;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently-locked shards (power of two).
const SHARDS: usize = 8;

/// Maximum sessions one shard holds before cold entries are evicted. A
/// parked session owns a compiled checker and binding tables (no
/// design or simulator), so the bound sits well below the artifact caches';
/// the recurring keys — golden testbenches replayed per rep and method
/// — accumulate hits and survive eviction.
pub const MAX_SESSIONS_PER_SHARD: usize = 64;

/// The identity of a pooled session: the fingerprint pair an
/// [`EvalSession`] is pinned to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PoolKey {
    /// [`module_interface_fingerprint`] of the problem.
    pub problem: Fingerprint,
    /// [`CheckerProgram::fingerprint`] of the checker.
    pub checker: Fingerprint,
}

impl PoolKey {
    /// The key for one `(problem, checker)` pair.
    pub fn for_pair(problem: &Problem, checker: &CheckerProgram) -> PoolKey {
        PoolKey {
            problem: module_interface_fingerprint(&problem.name, &problem.ports),
            checker: checker.fingerprint(),
        }
    }

    fn shard(&self) -> usize {
        (self.problem.0.wrapping_mul(31).wrapping_add(self.checker.0)) as usize & (SHARDS - 1)
    }
}

struct Entry {
    session: EvalSession,
    hits: u32,
}

/// A sharded, thread-safe, bounded pool of compiled evaluation
/// sessions, shared across worker threads.
pub struct EvalContext {
    shards: Vec<Mutex<HashMap<PoolKey, Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalContext {
    /// An empty context, ready to share across worker threads.
    pub fn new() -> Arc<EvalContext> {
        Arc::new(EvalContext {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Checks a session out of the pool, removing its entry (leases are
    /// exclusive). Returns the session plus its accumulated hit count.
    fn checkout(&self, key: &PoolKey) -> Option<(EvalSession, u32)> {
        self.shards[key.shard()]
            .lock()
            .expect("eval context shard poisoned")
            .remove(key)
            .map(|e| (e.session, e.hits))
    }

    /// Checks a session back in. A full shard first evicts a never-hit
    /// entry (or, when every entry has hits, an arbitrary one), so
    /// memory stays bounded at `SHARDS * MAX_SESSIONS_PER_SHARD` live
    /// pooled sessions. When another lease already re-populated the key
    /// (two workers raced on the same pair), the incumbent is kept.
    fn checkin(&self, key: PoolKey, mut session: EvalSession, hits: u32) {
        session.park();
        let mut shard = self.shards[key.shard()]
            .lock()
            .expect("eval context shard poisoned");
        if shard.contains_key(&key) {
            return;
        }
        if shard.len() >= MAX_SESSIONS_PER_SHARD {
            let victim = shard
                .iter()
                .find(|(_, e)| e.hits == 0)
                .or_else(|| shard.iter().next())
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                shard.remove(&victim);
            }
        }
        shard.insert(key, Entry { session, hits });
    }

    /// Current counters. `entries` counts sessions *parked* in the pool;
    /// checked-out sessions are not included until their lease drops.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("eval context shard poisoned").len() as u64)
                .sum(),
        }
    }
}

/// Runs `f` with the thread's active context, if one is installed.
pub fn with_active<R>(f: impl FnOnce(&EvalContext) -> R) -> Option<R> {
    install::with_active(&install::POOL, f)
}

/// An exclusive lease on an evaluation session. Derefs to
/// [`EvalSession`]; dropping it returns a pooled session to the
/// thread's context (a context-less lease simply drops its session).
pub struct SessionLease {
    session: Option<EvalSession>,
    home: Option<(Arc<EvalContext>, PoolKey, u32)>,
}

impl Deref for SessionLease {
    type Target = EvalSession;

    fn deref(&self) -> &EvalSession {
        self.session.as_ref().expect("lease holds a session")
    }
}

impl DerefMut for SessionLease {
    fn deref_mut(&mut self) -> &mut EvalSession {
        self.session.as_mut().expect("lease holds a session")
    }
}

impl Drop for SessionLease {
    fn drop(&mut self) {
        // A lease dropped while unwinding holds a session in an unknown
        // mid-evaluation state (partially reset simulator, judge state,
        // half-filled buffers). Checking it in would let one aborted job
        // poison every later job that leases the same (problem, checker)
        // pair — discard it instead; the pool refills on the next miss.
        if std::thread::panicking() {
            return;
        }
        if let (Some(session), Some((ctx, key, hits))) = (self.session.take(), self.home.take()) {
            ctx.checkin(key, session, hits);
        }
    }
}

/// Acquires a session for one `(problem, checker)` pair: a pooled one
/// when the thread's [`EvalContext`] holds a match (checker compile and
/// bindings already paid by an earlier job), a fresh one otherwise.
/// With no context installed this is exactly [`EvalSession::new`] — the
/// session is dropped with the lease.
///
/// # Errors
///
/// As [`EvalSession::new`]: the checker program is malformed. Failed
/// constructions are never pooled.
pub fn acquire_session(
    problem: &Problem,
    checker: &CheckerProgram,
) -> Result<SessionLease, TbError> {
    acquire_session_keyed(problem, checker, None)
}

/// [`acquire_session`] with the `(problem, checker)` fingerprints
/// already in hand — the runner's cached path computes them for its
/// `CacheKey` and must not pay the visitor walks again on a miss.
pub(crate) fn acquire_session_keyed(
    problem: &Problem,
    checker: &CheckerProgram,
    fingerprints: Option<(Fingerprint, Fingerprint)>,
) -> Result<SessionLease, TbError> {
    let build_key = || match fingerprints {
        Some((problem_fp, checker_fp)) => PoolKey {
            problem: problem_fp,
            checker: checker_fp,
        },
        None => PoolKey::for_pair(problem, checker),
    };
    let ctx = install::active(&install::POOL);
    let Some(ctx) = ctx else {
        let key = build_key();
        return Ok(SessionLease {
            session: Some(EvalSession::with_fingerprints(
                problem,
                checker,
                key.problem,
                key.checker,
            )?),
            home: None,
        });
    };
    let key = build_key();
    if let Some((session, hits)) = ctx.checkout(&key) {
        ctx.hits.fetch_add(1, Ordering::Relaxed);
        correctbench_obs::add(correctbench_obs::Counter::PoolHits, 1);
        return Ok(SessionLease {
            session: Some(session),
            home: Some((ctx, key, hits + 1)),
        });
    }
    ctx.misses.fetch_add(1, Ordering::Relaxed);
    correctbench_obs::add(correctbench_obs::Counter::PoolMisses, 1);
    // The key's fingerprints are handed to the constructor so a miss
    // pays the visitor walk once, not twice.
    let session = EvalSession::with_fingerprints(problem, checker, key.problem, key.checker)?;
    Ok(SessionLease {
        session: Some(session),
        home: Some((ctx, key, 0)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::generate_driver;
    use crate::scenarios::generate_scenarios;
    use correctbench_checker::compile_module;
    use correctbench_verilog::parse;

    fn install(ctx: &Arc<EvalContext>) -> crate::StackGuard {
        crate::CacheStack::empty()
            .with_session_pool(Arc::clone(ctx))
            .install()
    }

    fn setup(name: &str) -> (Problem, CheckerProgram) {
        let p = correctbench_dataset::problem(name).expect("problem");
        let checker = compile_module(&p.golden_module()).expect("checker");
        (p, checker)
    }

    #[test]
    fn acquire_without_context_builds_fresh() {
        let (p, checker) = setup("and_8");
        let a = acquire_session(&p, &checker).expect("session");
        assert!(a.home.is_none());
    }

    #[test]
    fn pool_hits_on_reacquire_and_counts() {
        let (p, checker) = setup("and_8");
        let ctx = EvalContext::new();
        let _guard = install(&ctx);
        {
            let _lease = acquire_session(&p, &checker).expect("session");
            // Checked out: not parked, and a concurrent acquire of the
            // same key must miss rather than share the session.
            assert_eq!(ctx.stats().entries, 0);
            let second = acquire_session(&p, &checker).expect("second session");
            drop(second);
        }
        let s = ctx.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(s.entries, 1, "raced check-ins keep one incumbent");
        {
            let _lease = acquire_session(&p, &checker).expect("pooled");
        }
        let s = ctx.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn pooled_session_produces_identical_runs() {
        let (p, checker) = setup("counter_8");
        let scen = generate_scenarios(&p, 11);
        let driver = parse(&generate_driver(&p, &scen)).expect("driver");
        let dut = parse(&p.golden_rtl).expect("golden");
        let mut cold_session = EvalSession::new(&p, &checker).expect("session");
        let cold = cold_session.run(&dut, &driver, &scen).expect("cold run");
        let (cold_records, _) = cold_session
            .simulate(&dut, &driver, &scen)
            .expect("cold records");
        let ctx = EvalContext::new();
        let _guard = install(&ctx);
        for _ in 0..3 {
            let mut lease = acquire_session(&p, &checker).expect("lease");
            let warm = lease.run(&dut, &driver, &scen).expect("warm run");
            assert_eq!(warm, cold);
            let (warm_records, _) = lease.simulate(&dut, &driver, &scen).expect("warm records");
            assert_eq!(warm_records, cold_records);
        }
        assert_eq!(ctx.stats().hits, 2, "second and third acquires hit");
    }

    #[test]
    fn distinct_checkers_get_distinct_entries() {
        use rand::SeedableRng;
        let (p, checker) = setup("alu_8");
        let mut mutated = checker.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(!correctbench_checker::mutate_ir(&mut mutated, &mut rng, 2).is_empty());
        let ctx = EvalContext::new();
        let _guard = install(&ctx);
        drop(acquire_session(&p, &checker).expect("a"));
        drop(acquire_session(&p, &mutated).expect("b"));
        let s = ctx.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn eviction_bounds_the_pool_and_keeps_hot_keys() {
        let (p, checker) = setup("and_8");
        let ctx = EvalContext::new();
        // Park one real session under a synthetic hot key with hits.
        let hot = PoolKey {
            problem: Fingerprint(u64::MAX),
            checker: Fingerprint(u64::MAX),
        };
        ctx.checkin(hot, EvalSession::new(&p, &checker).expect("session"), 5);
        // Flood the pool with cold keys well past the global bound.
        let flood = (SHARDS * MAX_SESSIONS_PER_SHARD + 64) as u64;
        for n in 0..flood {
            let key = PoolKey {
                problem: Fingerprint(n),
                checker: Fingerprint(n ^ 1),
            };
            ctx.checkin(key, EvalSession::new(&p, &checker).expect("session"), 0);
        }
        let s = ctx.stats();
        assert!(
            s.entries <= (SHARDS * MAX_SESSIONS_PER_SHARD) as u64,
            "pool exceeded its bound: {s}"
        );
        assert!(ctx.checkout(&hot).is_some(), "hot key was evicted");
    }

    #[test]
    fn install_is_scoped_and_nested() {
        let outer = EvalContext::new();
        let inner = EvalContext::new();
        assert!(with_active(|_| ()).is_none());
        {
            let _g1 = install(&outer);
            assert!(with_active(|_| ()).is_some());
            {
                let _g2 = install(&inner);
                with_active(|c| c.hits.fetch_add(1, Ordering::Relaxed)).expect("inner active");
            }
            assert_eq!(outer.stats().hits, 0, "outer untouched while inner active");
            assert_eq!(inner.stats().hits, 1);
        }
        assert!(with_active(|_| ()).is_none());
    }
}
