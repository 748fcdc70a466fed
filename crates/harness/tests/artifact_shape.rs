//! Golden-shape tests for the artifact schemas: the exact field set and
//! ordering of `outcomes.jsonl`, `timings.jsonl` (v4) and `metrics.json`
//! are a contract — downstream joins and the offline report CLI depend
//! on them — so schema drift must show up as a reviewed diff here, not
//! as an accident.

use correctbench_harness::json::{parse, Value};
use correctbench_harness::{
    metrics_json, outcomes_jsonl, timings_jsonl, Engine, RunPlan, RunResult,
};
use correctbench_llm::{ModelKind, SimulatedClientFactory};

fn smoke_result(engine: Engine) -> RunResult {
    let problems = ["and_8", "mux4_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    let plan = RunPlan::new("shape", problems);
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    engine.execute(&plan, &factory)
}

#[test]
fn outcomes_lines_pin_field_set_and_order() {
    let result = smoke_result(Engine::new(2));
    let stream = outcomes_jsonl(&result.outcomes);
    assert_eq!(stream.lines().count(), result.outcomes.len());
    for line in stream.lines() {
        let v = parse(line).expect("outcomes line parses");
        assert_eq!(
            v.keys(),
            vec![
                "job",
                "problem",
                "kind",
                "method",
                "model",
                "rep",
                "seed",
                "eval",
                "status",
                "failure",
                "validated",
                "gave_up",
                "corrections",
                "reboots",
                "final_from_corrector",
                "validator_intervened",
                "trace",
                "input_tokens",
                "output_tokens",
                "requests",
            ],
            "outcomes.jsonl field drift:\n{line}"
        );
    }
}

#[test]
fn timings_lines_pin_field_set_and_order() {
    let result = smoke_result(Engine::new(2));
    let stream = timings_jsonl(&result);
    let mut lines = stream.lines();
    let run = parse(lines.next().expect("run line")).expect("run line parses");
    assert_eq!(
        run.keys(),
        vec![
            "run_wall_ms",
            "threads",
            "jobs",
            "sim_cache",
            "session_pool",
            "golden_cache",
            "outcome_store",
        ],
        "timings.jsonl run-line field drift"
    );
    let mut jobs = 0;
    for line in lines {
        let v = parse(line).expect("job line parses");
        jobs += 1;
        assert_eq!(
            v.keys(),
            vec![
                "job", "problem", "method", "rep", "seed", "wall_ms", "wall_us", "phases",
                "counters",
            ],
            "timings.jsonl job-line field drift:\n{line}"
        );
        // The default engine arms observability: both objects present,
        // with the canonical phase/counter taxonomies in order.
        let phases = v.get("phases").expect("phases");
        assert_eq!(
            phases.keys(),
            vec![
                "parse", "elab", "compile", "simulate", "judge", "llm", "validate", "autoeval",
                "lint",
            ],
            "phase taxonomy drift:\n{line}"
        );
        let counters = v.get("counters").expect("counters");
        assert_eq!(
            counters.keys(),
            vec![
                "sim_events",
                "sim_instrs",
                "nba_commits",
                "judge_commits",
                "sim_cache_hits",
                "sim_cache_misses",
                "pool_hits",
                "pool_misses",
                "golden_hits",
                "golden_misses",
                "llm_retries",
                "job_aborts",
                "lint_diags",
                "store_hits",
                "store_misses",
                "sim_exhausted_runs",
                "sim_overflow_runs",
                "sim_loop_shortcuts",
            ],
            "counter taxonomy drift:\n{line}"
        );
    }
    assert_eq!(jobs, result.outcomes.len());
}

#[test]
fn timings_job_lines_are_null_padded_without_obs() {
    let result = smoke_result(Engine::new(2).without_obs());
    for line in timings_jsonl(&result).lines().skip(1) {
        let v = parse(line).expect("job line parses");
        assert_eq!(
            v.get("phases"),
            Some(&Value::Null),
            "phases not null: {line}"
        );
        assert_eq!(
            v.get("counters"),
            Some(&Value::Null),
            "counters not null: {line}"
        );
    }
}

#[test]
fn metrics_json_pins_field_set_and_order() {
    let result = smoke_result(Engine::new(2));
    let v = parse(&metrics_json(&result)).expect("metrics.json parses");
    assert_eq!(
        v.keys(),
        vec![
            "schema",
            "run_wall_ms",
            "threads",
            "jobs",
            "observed_jobs",
            "phase_totals_us",
            "counter_totals",
            "caches",
            "lint",
            "latency",
        ],
        "metrics.json field drift"
    );
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("correctbench-metrics-v3")
    );
    assert_eq!(
        v.get("caches").expect("caches").keys(),
        vec!["sim_cache", "session_pool", "golden_cache", "outcome_store"]
    );
    // The lint rollup is zero-filled over the whole rule taxonomy so
    // downstream joins never branch on key presence.
    let lint = v.get("lint").expect("lint");
    assert_eq!(lint.keys(), vec!["diagnostics", "rules"]);
    assert_eq!(
        lint.get("rules").expect("rules").keys(),
        correctbench_verilog::Rule::ALL
            .iter()
            .map(|r| r.name())
            .collect::<Vec<_>>()
    );
    let Some(Value::Arr(latency)) = v.get("latency") else {
        panic!("latency is not an array");
    };
    // One cell per (problem, method): 2 problems x 3 methods.
    assert_eq!(latency.len(), 6);
    for cell in latency {
        assert_eq!(
            cell.keys(),
            vec!["problem", "method", "count", "p50_us", "p90_us", "p99_us", "max_us", "mean_us"],
            "latency cell field drift"
        );
        assert_eq!(cell.get("count").and_then(Value::as_u64), Some(1));
    }
}

#[test]
fn diagnostics_lines_pin_field_set_and_order() {
    let result = smoke_result(Engine::new(2));
    let stream = correctbench_harness::diagnostics_jsonl(&result.outcomes);
    let total: usize = result.outcomes.iter().map(|o| o.lint.len()).sum();
    assert_eq!(stream.lines().count(), total);
    for line in stream.lines() {
        let v = parse(line).expect("diagnostics line parses");
        assert_eq!(
            v.keys(),
            vec![
                "job", "problem", "method", "rep", "rule", "severity", "module", "signal",
                "location", "message",
            ],
            "diagnostics.jsonl field drift:\n{line}"
        );
        let rule = v.get("rule").and_then(Value::as_str).expect("rule");
        assert!(
            correctbench_verilog::Rule::ALL
                .iter()
                .any(|r| r.name() == rule),
            "rule outside the closed taxonomy: {rule}"
        );
        let severity = v.get("severity").and_then(Value::as_str).expect("severity");
        assert!(
            matches!(severity, "warning" | "error"),
            "bad severity: {severity}"
        );
    }
}

#[test]
fn summary_contains_latency_percentile_table() {
    let result = smoke_result(Engine::new(2));
    let problems = ["and_8", "mux4_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    let plan = RunPlan::new("shape", problems);
    let summary = correctbench_harness::render_summary(&plan, &result);
    for needle in ["job latency percentiles (ms)", "p50", "p90", "p99"] {
        assert!(
            summary.contains(needle),
            "summary missing `{needle}`:\n{summary}"
        );
    }
}
