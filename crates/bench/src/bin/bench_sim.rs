//! `bench_sim`: the simulation-core micro-benchmark behind the
//! `BENCH_sim.json` perf trajectory.
//!
//! Every arm is one closure timed over interleaved samples; the report
//! gives each arm's median with its p25–p75 spread, and each pair of
//! arms that isolates one layer gives a speedup:
//!
//! * `judge_interp_ns` vs `judge_session_ns` — judging one pre-captured
//!   record stream with the interpreter (`judge_records`) and with the
//!   session's compiled checker.
//! * `key_debug_hash_ns` vs `key_fingerprint_ns` — building one full
//!   simulation-cache key with the retired rendering hashes
//!   (pretty-print / `Debug` FNV) and with the `StructuralHash` visitor
//!   fingerprints (computed fresh, i.e. the `OnceLock` miss cost; a
//!   steady-state probe on a cached `SourceFile` is two u64 reads).
//! * `session_fresh_ns` vs `session_pooled_ns` — acquiring an
//!   evaluation session by constructing it (checker compile + binding
//!   resolution, the per-job cost the validator and AutoEval used to
//!   pay) and by leasing it from an installed `EvalContext` pool.
//! * `cached_simulate_ns` vs `hot_path_obs_ns` — the same simulation of
//!   an already-elaborated `Design` with no observability collector
//!   armed (spans and counter probes
//!   short-circuit on the thread-local check) and with a live per-job
//!   collector installed (`ObsStack::enabled`), pinning the
//!   enabled-span overhead the harness pays per job.
//! * `golden_derive_ns` vs `golden_cached_ns` — acquiring the
//!   per-problem golden evaluation bundle (golden testbench generation,
//!   golden DUT/driver parses, Eval2 mutant set) by deriving it from
//!   scratch (the per-cell cost AutoEval paid before the golden cache)
//!   and by fetching it from an installed `GoldenCache` (steady state:
//!   every cell of a problem after the first).
//! * `store_cold_job_ns` vs `store_warm_hit_ns` — one full evaluation
//!   job of the problem (CorrectBench method, rep 0) executed from
//!   scratch and replayed from a primed persistent outcome store
//!   (probe + cell decode): the cost a warm `correctbench-run --store`
//!   restart pays per content-identical cell instead of re-executing it.
//! * `session_sweep_ns` — the absolute cost of a repeated-pair sweep
//!   (the RS-matrix / Eval2 shape) through one reusable `EvalSession`
//!   (last-pair design memo, simulator reset, compiled judge).
//! * `lint_cold_ns` — the absolute cost of the static-analysis pass
//!   (`lint_file`) on the combined (DUT + driver) source.
//! * `lint_warn_ns` — the absolute per-job cost `--lint=warn` adds on
//!   top of a job (combine the sources, parse, lint — the parse
//!   dominates). Its *relative* overhead only means
//!   something against a full job, which this micro-benchmark does not
//!   run, so the end-to-end number is measured on the harness itself
//!   (the `lint` phase's share of total phase-attributed time in a real
//!   sweep's `metrics.json`) and recorded via `--lint-warn-overhead`.
//! * `runaway_full_ns` vs `runaway_shortcut_ns` — one simulation of a
//!   `priority_enc_8` mutant whose `for` step is `i = i - 1` (the loop
//!   counts down against `i < 8`, so it never exits), under the
//!   harness budget (`limits_for`). The full arm runs the design with
//!   every `ProcessDef::loops` cleared, so it spends the whole step
//!   budget before `EventBudgetExhausted`; the shortcut arm runs the
//!   design as elaborated and fails at loop entry with the same error.
//!   Measured once, outside the per-problem rows.
//!
//! ```text
//! bench_sim [--quick] [--samples N] [--out FILE] [--lint-warn-overhead PCT]
//! ```
//!
//! Writes `BENCH_sim.json` (default, in the working directory).
//! `--quick` is the CI smoke mode.

use correctbench_autoeval::{derive_golden_artifacts, golden_artifacts};
use correctbench_checker::CheckerProgram;
use correctbench_dataset::Problem;
use correctbench_harness::{
    cell_key, config_fingerprint, decode_cell, encode_cell, run_job, OutcomeStore, RunPlan,
};
use correctbench_llm::SimulatedClientFactory;
use correctbench_obs::ObsStack;
use correctbench_tbgen::{
    acquire_session, elaborate_pair, generate_driver, generate_scenarios, judge_records,
    limits_for, module_interface_fingerprint, CacheStack, EvalContext, EvalSession, GoldenCache,
    ScenarioSet,
};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::{debug_hash, structural_hash, StructuralHash};
use correctbench_verilog::{lint_file, parse, Design, SimError, SimLimits, Simulator};
use std::fmt::Write as _;
use std::time::Instant;

const PROBLEMS: &[&str] = &["alu_8", "mux4_8", "counter_8", "shift18"];

/// Runs per sweep sample: enough repetition for the session's amortized
/// costs to show as they do in a real RS-matrix / Eval2 batch.
const SWEEP: usize = 4;

/// Eval seed of the golden-artifact arms (any fixed value: the bundle's
/// cost, not its content, is what the arms measure).
const GOLDEN_SEED: u64 = 2025;

struct Case {
    problem: Problem,
    scenarios: ScenarioSet,
    dut: SourceFile,
    driver: SourceFile,
    checker: CheckerProgram,
    limits: SimLimits,
}

fn case_for(name: &str) -> Case {
    let problem = correctbench_dataset::problem(name).expect("known problem");
    let scenarios = generate_scenarios(&problem, 7);
    let driver = parse(&generate_driver(&problem, &scenarios)).expect("driver parses");
    let dut = parse(&problem.golden_rtl).expect("golden parses");
    let checker =
        correctbench_checker::compile_module(&problem.golden_module()).expect("golden checker");
    let limits = limits_for(&scenarios);
    Case {
        problem,
        scenarios,
        dut,
        driver,
        checker,
        limits,
    }
}

/// One simulation of an elaborated design — what `run_testbench_parsed`
/// does between elaboration and judging.
fn simulate(case: &Case, design: &Design) {
    let out = Simulator::with_limits(design, case.limits)
        .run()
        .expect("simulation ok");
    std::hint::black_box(out);
}

/// One arm's sample distribution, in nanoseconds.
#[derive(Clone, Copy)]
struct Spread {
    p25: u64,
    median: u64,
    p75: u64,
}

/// Times `samples` interleaved runs of each named arm. Interleaving
/// matters on shared machines: measuring the arms back-to-back lets a
/// load spike land entirely on one arm. The order is rotated every
/// sample, and its direction alternates, so no arm always runs first or
/// always follows the same neighbour (a fixed order let an arm inherit
/// the warm caches of an identical predecessor).
fn spreads_interleaved(
    samples: usize,
    arms: &mut [(&'static str, &mut dyn FnMut())],
) -> Vec<(&'static str, Spread)> {
    for (_, arm) in arms.iter_mut() {
        arm(); // warm up
    }
    let n = arms.len();
    let mut times = vec![Vec::with_capacity(samples); n];
    for s in 0..samples {
        for k in 0..n {
            let i = if s % 2 == 0 {
                (s + k) % n
            } else {
                (s + n - k) % n
            };
            let t0 = Instant::now();
            (arms[i].1)();
            times[i].push(t0.elapsed().as_nanos() as u64);
        }
    }
    arms.iter()
        .zip(times)
        .map(|((name, _), mut t)| {
            t.sort_unstable();
            let spread = Spread {
                p25: t[samples / 4],
                median: t[samples / 2],
                p75: t[samples * 3 / 4],
            };
            (*name, spread)
        })
        .collect()
}

/// Layer speedups: (per-problem field, summary field, slow arm, fast arm).
const SPEEDUPS: &[(&str, &str, &str, &str)] = &[
    (
        "speedup_judge_compiled_vs_interp",
        "median_speedup_judge_compiled_vs_interp",
        "judge_interp",
        "judge_session",
    ),
    (
        "speedup_key_fingerprint",
        "median_speedup_key_fingerprint_vs_debug_hash",
        "key_debug_hash",
        "key_fingerprint",
    ),
    (
        "speedup_session_pooled",
        "median_speedup_session_pooled_vs_fresh",
        "session_fresh",
        "session_pooled",
    ),
    (
        "speedup_golden_cached",
        "median_speedup_golden_cached_vs_derived",
        "golden_derive",
        "golden_cached",
    ),
    (
        "speedup_store_warm_vs_cold",
        "median_speedup_store_warm_vs_cold",
        "store_cold_job",
        "store_warm_hit",
    ),
];

struct Row {
    name: String,
    kind: &'static str,
    arms: Vec<(&'static str, Spread)>,
}

impl Row {
    fn median(&self, arm: &str) -> u64 {
        self.arms
            .iter()
            .find(|(n, _)| *n == arm)
            .map(|(_, s)| s.median)
            .expect("known arm")
    }

    /// Median of `slow` over median of `fast`.
    fn speedup(&self, slow: &str, fast: &str) -> f64 {
        self.median(slow) as f64 / self.median(fast).max(1) as f64
    }

    /// Cost of a live observability collector on the simulation hot
    /// path, in percent over the unobserved run.
    fn obs_overhead_pct(&self) -> f64 {
        (self.median("hot_path_obs") as f64 / self.median("cached_simulate").max(1) as f64 - 1.0)
            * 100.0
    }
}

/// The runaway-loop pair: the same budget-exhausting simulation of a
/// `priority_enc_8` mutant without and with its counted-loop marks.
fn runaway_arms(samples: usize) -> Vec<(&'static str, Spread)> {
    let case = case_for("priority_enc_8");
    let step = "i = i + 1";
    assert!(case.problem.golden_rtl.contains(step), "golden loop step");
    let mutant = parse(&case.problem.golden_rtl.replace(step, "i = i - 1")).expect("mutant parses");
    let marked = elaborate_pair(&mutant, &case.driver).expect("elaborate");
    let mut unmarked = marked.clone();
    for p in &mut unmarked.processes {
        p.loops.clear();
    }
    let exhaust = |design: &Design| {
        let r = Simulator::with_limits(design, case.limits).run();
        assert!(matches!(r, Err(SimError::EventBudgetExhausted)), "{r:?}");
    };
    spreads_interleaved(
        samples,
        &mut [
            ("runaway_full", &mut || exhaust(&unmarked)),
            ("runaway_shortcut", &mut || exhaust(&marked)),
        ],
    )
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn main() {
    let mut samples = 40usize;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut lint_warn_overhead: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => samples = 9,
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage("--samples needs a positive number"))
            }
            "--out" => out_path = it.next().unwrap_or_else(|| usage("--out needs a path")),
            "--lint-warn-overhead" => {
                lint_warn_overhead = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--lint-warn-overhead needs a percentage")),
                )
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let mut rows = Vec::new();
    for name in PROBLEMS {
        let case = case_for(name);
        let design = elaborate_pair(&case.dut, &case.driver).expect("elaborate");
        // One pre-captured record stream for the judge-only arms.
        let records = {
            let out = Simulator::with_limits(&design, case.limits)
                .run()
                .expect("simulation ok");
            correctbench_tbgen::parse_records(&out.lines)
        };
        let mut sweep_session =
            EvalSession::new(&case.problem, &case.checker).expect("checker compiles");
        let mut judge_session =
            EvalSession::new(&case.problem, &case.checker).expect("checker compiles");
        let _layers = CacheStack::empty()
            .with_session_pool(EvalContext::new())
            .with_golden_cache(GoldenCache::new())
            .install();
        // Prime the golden shard so the cached arm measures steady-state
        // hits, not the first derivation.
        std::hint::black_box(golden_artifacts(&case.problem, GOLDEN_SEED));
        // The combined (DUT + driver) source the worker's lint pass
        // analyzes: pre-parsed for the cold arm; the warn-mode arm
        // rebuilds it from the texts, as the worker does per job.
        let driver_text = generate_driver(&case.problem, &case.scenarios);
        let combined_lint = parse(&format!("{}\n{}", case.problem.golden_rtl, driver_text))
            .expect("combined parses");
        // The persistent-store pair: one full job of this problem
        // (CorrectBench, rep 0) executed cold vs replayed from a store
        // primed with its published cell.
        let store_plan = RunPlan::new("bench-store", vec![case.problem.clone()]);
        let store_jobs = store_plan.jobs();
        let store_job = &store_jobs[0];
        let store_factory = SimulatedClientFactory::for_model(store_plan.model);
        let store_dir = std::env::temp_dir().join(format!(
            "correctbench_bench_store_{}_{}",
            std::process::id(),
            case.problem.name
        ));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = OutcomeStore::open(&store_dir).expect("open store");
        let store_key = cell_key(store_job, config_fingerprint(&store_plan));
        let primed = run_job(store_job, &store_plan.config, &store_factory);
        store
            .put(&store_key, &encode_cell(&primed))
            .expect("publish primed cell");
        let arms = spreads_interleaved(
            samples,
            &mut [
                ("cached_simulate", &mut || simulate(&case, &design)),
                ("hot_path_obs", &mut || {
                    // The identical simulation with a collector armed:
                    // every span and counter flush does real work.
                    let _obs = ObsStack::enabled().install();
                    simulate(&case, &design);
                }),
                ("session_sweep", &mut || {
                    for _ in 0..SWEEP {
                        std::hint::black_box(
                            sweep_session
                                .run(&case.dut, &case.driver, &case.scenarios)
                                .expect("run ok"),
                        );
                    }
                }),
                ("judge_interp", &mut || {
                    std::hint::black_box(
                        judge_records(&records, &case.checker, &case.problem, case.scenarios.len())
                            .expect("judge ok"),
                    );
                }),
                ("judge_session", &mut || {
                    std::hint::black_box(
                        judge_session
                            .judge(&records, case.scenarios.len())
                            .expect("judge ok"),
                    );
                }),
                ("key_debug_hash", &mut || {
                    // One full cache key the retired way: render the
                    // artifacts and FNV the streams.
                    std::hint::black_box((
                        structural_hash(&case.dut),
                        structural_hash(&case.driver),
                        debug_hash(&case.checker),
                        debug_hash(&case.scenarios),
                        debug_hash(&(case.problem.name.as_str(), &case.problem.ports)),
                    ));
                }),
                ("key_fingerprint", &mut || {
                    // The same key via visitor fingerprints, computed
                    // fresh (trait call bypasses the SourceFile cache).
                    std::hint::black_box((
                        StructuralHash::fingerprint(&case.dut),
                        StructuralHash::fingerprint(&case.driver),
                        case.checker.fingerprint(),
                        case.scenarios.fingerprint(),
                        module_interface_fingerprint(&case.problem.name, &case.problem.ports),
                    ));
                }),
                ("session_fresh", &mut || {
                    // The per-call session construction the validator
                    // and AutoEval paid before the pool existed.
                    std::hint::black_box(
                        EvalSession::new(&case.problem, &case.checker).expect("checker compiles"),
                    );
                }),
                ("session_pooled", &mut || {
                    // Lease from the installed pool (steady state: a
                    // hit after the first acquisition).
                    std::hint::black_box(
                        acquire_session(&case.problem, &case.checker).expect("lease"),
                    );
                }),
                ("golden_derive", &mut || {
                    // The per-cell golden cost AutoEval paid before
                    // the cache: full bundle derivation.
                    std::hint::black_box(derive_golden_artifacts(&case.problem, GOLDEN_SEED));
                }),
                ("golden_cached", &mut || {
                    // Fetch the primed bundle from the installed
                    // golden cache (steady state: every cell after
                    // the first).
                    std::hint::black_box(golden_artifacts(&case.problem, GOLDEN_SEED));
                }),
                ("lint_cold", &mut || {
                    // The static-analysis pass alone.
                    std::hint::black_box(lint_file(&combined_lint));
                }),
                ("lint_warn", &mut || {
                    // Exactly what `--lint=warn` adds per job:
                    // combine, parse, lint.
                    let combined = format!("{}\n{}", case.problem.golden_rtl, driver_text);
                    let parsed = parse(&combined).expect("combined parses");
                    std::hint::black_box(lint_file(&parsed));
                }),
                ("store_cold_job", &mut || {
                    // The cold side: the full job a warm restart
                    // gets to skip.
                    std::hint::black_box(run_job(store_job, &store_plan.config, &store_factory));
                }),
                ("store_warm_hit", &mut || {
                    // The warm side: probe the open store and decode
                    // the cell back into a TaskOutcome.
                    let payload = store.get(&store_key).expect("primed cell");
                    std::hint::black_box(
                        decode_cell(&payload, store_job, false).expect("cell decodes"),
                    );
                }),
            ],
        );
        let _ = std::fs::remove_dir_all(&store_dir);
        let row = Row {
            name: case.problem.name.clone(),
            kind: if case.problem.kind.is_combinational() {
                "cmb"
            } else {
                "seq"
            },
            arms,
        };
        let mut line = format!("{:<12}", row.name);
        for (field, _, slow, fast) in SPEEDUPS {
            let _ = write!(line, " | {field} {:.2}x", row.speedup(slow, fast));
        }
        eprintln!(
            "{line} | lint_warn {} ns | obs {:+.2}%",
            row.median("lint_warn"),
            row.obs_overhead_pct()
        );
        rows.push(row);
    }

    let median_obs = median_f64(rows.iter().map(Row::obs_overhead_pct).collect());
    let runaway = runaway_arms(samples);
    let runaway_speedup = runaway[0].1.median as f64 / runaway[1].1.median.max(1) as f64;
    eprintln!("runaway loop | speedup_runaway_shortcut {runaway_speedup:.0}x");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sim_exec\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"sweep_runs_per_sample\": {SWEEP},");
    let mut summary = Vec::new();
    for (field, median_field, slow, fast) in SPEEDUPS {
        let m = median_f64(rows.iter().map(|r| r.speedup(slow, fast)).collect());
        let _ = writeln!(json, "  \"{median_field}\": {m:.2},");
        summary.push(format!("{field} {m:.2}x"));
    }
    if let Some(pct) = lint_warn_overhead {
        let _ = writeln!(json, "  \"lint_warn_overhead_pct\": {pct:.2},");
        let _ = writeln!(
            json,
            "  \"lint_warn_overhead_method\": \"lint-phase share of total phase-attributed time in metrics.json over a correctbench-run sweep (--problems 24 --reps 2 --lint warn), same machine and binary\","
        );
        summary.push(format!("lint warn overhead {pct:+.2}%"));
    }
    let _ = writeln!(json, "  \"median_obs_overhead_pct\": {median_obs:.2},");
    summary.push(format!("obs overhead {median_obs:+.2}%"));
    for (arm, s) in &runaway {
        let _ = writeln!(
            json,
            "  \"{arm}_ns\": {}, \"{arm}_p25_ns\": {}, \"{arm}_p75_ns\": {},",
            s.median, s.p25, s.p75
        );
    }
    let _ = writeln!(
        json,
        "  \"speedup_runaway_shortcut\": {runaway_speedup:.2},"
    );
    summary.push(format!("runaway shortcut {runaway_speedup:.0}x"));
    let _ = writeln!(json, "  \"problems\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let mut fields = format!("\"name\":\"{}\",\"kind\":\"{}\"", r.name, r.kind);
        for (arm, s) in &r.arms {
            let _ = write!(
                fields,
                ",\"{arm}_ns\":{},\"{arm}_p25_ns\":{},\"{arm}_p75_ns\":{}",
                s.median, s.p25, s.p75
            );
        }
        for (field, _, slow, fast) in SPEEDUPS {
            let _ = write!(fields, ",\"{field}\":{:.2}", r.speedup(slow, fast));
        }
        let _ = write!(fields, ",\"obs_overhead_pct\":{:.2}", r.obs_overhead_pct());
        let _ = writeln!(json, "    {{{fields}}}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("medians: {} -> {out_path}", summary.join(", "));
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: bench_sim [--quick] [--samples N] [--out FILE] [--lint-warn-overhead PCT]");
    std::process::exit(2)
}
