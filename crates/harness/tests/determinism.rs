//! The harness's central contract: the JSONL artifact streams of a plan
//! (`outcomes.jsonl` and `diagnostics.jsonl`) are **byte-identical**
//! regardless of worker count, and independent of which [`CacheStack`]
//! layers (simulation cache, session pool, golden-artifact cache) are
//! enabled — caching is a pure memoization: it may change wall time,
//! never results.

use correctbench_harness::{diagnostics_jsonl, outcomes_jsonl, Engine, LintMode, RunPlan};
use correctbench_llm::{ModelKind, SimulatedClientFactory};

fn plan() -> RunPlan {
    let problems = ["and_8", "mux4_8", "counter_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    let mut plan = RunPlan::new("determinism", problems);
    plan.reps = 2;
    plan
}

fn artifact_with(engine: Engine) -> String {
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let result = engine.execute(&plan(), &factory);
    outcomes_jsonl(&result.outcomes)
}

#[test]
fn two_and_eight_threads_produce_byte_identical_jsonl() {
    let two = artifact_with(Engine::new(2));
    let eight = artifact_with(Engine::new(8));
    assert_eq!(plan().num_jobs(), two.lines().count());
    assert!(
        two == eight,
        "artifact stream depends on thread count:\n--- 2 threads ---\n{two}\n--- 8 threads ---\n{eight}"
    );
}

#[test]
fn observability_is_semantically_transparent_across_thread_counts() {
    // Observability only absorbs measurements — collectors never feed
    // back into evaluation — so the deterministic artifact must be
    // byte-identical with obs armed (the default), disarmed (--no-obs),
    // and across worker counts in both modes.
    let obs_on_4 = artifact_with(Engine::new(4));
    let obs_off_4 = artifact_with(Engine::new(4).without_obs());
    assert!(
        obs_on_4 == obs_off_4,
        "observability changed outcomes:\n--- obs on ---\n{obs_on_4}\n--- obs off ---\n{obs_off_4}"
    );
    let obs_off_2 = artifact_with(Engine::new(2).without_obs());
    let obs_on_8 = artifact_with(Engine::new(8));
    assert!(
        obs_off_2 == obs_on_8,
        "observability x thread count changed outcomes:\n--- off@2 ---\n{obs_off_2}\n--- on@8 ---\n{obs_on_8}"
    );
}

#[test]
fn cache_is_semantically_transparent() {
    let cached = artifact_with(Engine::new(4));
    let uncached = artifact_with(Engine::new(4).without_cache());
    assert!(
        cached == uncached,
        "simulation cache changed outcomes:\n--- cached ---\n{cached}\n--- uncached ---\n{uncached}"
    );
}

#[test]
fn session_pool_is_semantically_transparent() {
    // Isolate the pool layer: the data caches stay on, only the session
    // pool is toggled. A pooled (warm) session — primed design memo,
    // already-compiled checker — must evaluate byte-identically to a
    // fresh one, whichever worker and job it lands on. Also pin the
    // fully-stripped engine (`--no-cache` disables the pool too)
    // against the pooled one, so no other layer papers over a
    // divergence.
    let pooled = artifact_with(Engine::new(4));
    let unpooled = artifact_with(Engine::new(4).without_session_pool());
    assert!(
        pooled == unpooled,
        "session pool changed outcomes:\n--- pooled ---\n{pooled}\n--- unpooled ---\n{unpooled}"
    );
    let stripped = artifact_with(Engine::new(4).without_cache());
    assert!(
        pooled == stripped,
        "pooled engine diverged from the cache-free engine:\n--- pooled ---\n{pooled}\n--- stripped ---\n{stripped}"
    );
}

#[test]
fn golden_cache_is_semantically_transparent_across_thread_counts() {
    // Isolate the golden-artifact layer: the other layers stay on, only
    // the golden cache is toggled — and the comparison spans thread
    // counts, so a cached golden bundle must evaluate byte-identically
    // to a freshly derived one no matter which worker first populated
    // the shard. (A stale or mixed-up bundle would corrupt every later
    // cell of its problem, so this is the layer's load-bearing test.)
    let golden_on_4 = artifact_with(Engine::new(4));
    let golden_off_4 = artifact_with(Engine::new(4).without_golden_cache());
    assert!(
        golden_on_4 == golden_off_4,
        "golden cache changed outcomes:\n--- cached ---\n{golden_on_4}\n--- derived ---\n{golden_off_4}"
    );
    let golden_off_2 = artifact_with(Engine::new(2).without_golden_cache());
    let golden_on_8 = artifact_with(Engine::new(8));
    assert!(
        golden_off_2 == golden_on_8,
        "golden cache x thread count changed outcomes:\n--- off@2 ---\n{golden_off_2}\n--- on@8 ---\n{golden_on_8}"
    );
}

fn diagnostics_with(engine: Engine, lint: LintMode) -> String {
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let mut p = plan();
    p.lint = lint;
    let result = engine.execute(&p, &factory);
    diagnostics_jsonl(&result.outcomes)
}

#[test]
fn diagnostics_stream_is_byte_identical_across_threads_and_caches() {
    // The lint pass is pure, so diagnostics.jsonl shares outcomes.jsonl's
    // determinism contract: byte-identical across worker counts and
    // with the whole stack stripped.
    let two = diagnostics_with(Engine::new(2), LintMode::Warn);
    let four = diagnostics_with(Engine::new(4), LintMode::Warn);
    let eight = diagnostics_with(Engine::new(8), LintMode::Warn);
    assert!(
        two == four && four == eight,
        "diagnostics stream depends on thread count:\n--- 2 ---\n{two}\n--- 4 ---\n{four}\n--- 8 ---\n{eight}"
    );
    let stripped = diagnostics_with(Engine::new(4).without_cache(), LintMode::Warn);
    assert!(
        four == stripped,
        "cache stack changed diagnostics:\n--- full ---\n{four}\n--- stripped ---\n{stripped}"
    );
}

#[test]
fn lint_off_writes_an_empty_diagnostics_stream() {
    // `--lint=off` still writes the sidecar (the artifact set is fixed)
    // but it must carry zero lines — the pass never ran.
    let off = diagnostics_with(Engine::new(4), LintMode::Off);
    assert_eq!(off, "", "diagnostics under --lint=off:\n{off}");
}

#[test]
fn lint_mode_does_not_change_outcomes_on_clean_rtl() {
    // The golden dataset is lint-clean at deny level, so warn and gate
    // runs take the same path as off: the outcome stream must be
    // byte-identical across all three modes.
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let mut streams = Vec::new();
    for mode in LintMode::ALL {
        let mut p = plan();
        p.lint = mode;
        let result = Engine::new(4).execute(&p, &factory);
        streams.push(outcomes_jsonl(&result.outcomes));
    }
    assert!(
        streams[0] == streams[1] && streams[1] == streams[2],
        "lint mode changed outcomes on clean RTL"
    );
}

#[test]
fn sweep_plan_shows_golden_cache_hits() {
    // Every (method, rep) cell of a problem evaluates with the same
    // problem-keyed eval seed, so only the first cell may derive the
    // golden bundle. On one worker thread the accounting is exact: one
    // miss per distinct problem, every later fetch a hit.
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let result = Engine::new(1).execute(&plan(), &factory);
    let stats = result
        .caches
        .golden
        .expect("golden cache enabled by default");
    assert_eq!(
        (stats.misses, stats.entries),
        (3, 3),
        "golden derivation must run exactly once per problem: {stats}"
    );
    assert!(
        stats.hits > 0,
        "no golden-cache hits in a multi-rep sweep: {stats}"
    );
}

#[test]
fn sweep_plan_shows_session_pool_hits() {
    // Every (method, rep) job of a problem leases the golden checker's
    // session for its Eval2 agreement pass; with 3 methods x 2 reps the
    // pool must convert most of those acquisitions into hits.
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let result = Engine::new(4).execute(&plan(), &factory);
    let stats = result.caches.sessions.expect("pool enabled by default");
    assert!(
        stats.hits > 0,
        "no session-pool hits in a multi-rep sweep: {stats}"
    );
}

#[test]
fn sweep_plan_shows_cache_hits() {
    // A Table-1-style sweep (multiple methods and reps per problem)
    // re-simulates identical (design, testbench) pairs constantly; the
    // shared cache must convert a substantial share into hits.
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let engine = Engine::new(4);
    let result = engine.execute(&plan(), &factory);
    let stats = result.caches.sim.expect("cache enabled by default");
    assert!(
        stats.hits > 0,
        "no cache hits in a multi-rep sweep: {stats}"
    );
    assert!(
        stats.entries < stats.hits + stats.misses,
        "every lookup missed: {stats}"
    );
}
