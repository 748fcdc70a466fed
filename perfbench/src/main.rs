//! The end-to-end sweep benchmark of the CorrectBench harness.
//!
//! ```text
//! bash perfbench/run.sh --workload sweep24|seq_cb [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Every measured run is a fresh child
//! process (this binary with `--child`), so caches, allocator state and
//! the RSS high-water mark start clean, as they do for a CLI invocation.
//! The child makes the public harness calls `correctbench-run` makes —
//! problem set, `RunPlan`, `Engine::execute_replayed` into an
//! `OutcomeJournal`, `write_sidecars` — and reports its measurements in
//! a `result.txt` beside its artifacts under `perfbench/out/`.
//!
//! `--trace 0` runs untraced children (`Engine::without_obs`) for about
//! `--seconds` and reports the median of each end-to-end metric;
//! `setup_s` also takes set-up-only children. `--trace 1` adds one
//! traced child (observability armed, spans around every harness call,
//! one span per job from the outcome hook) and reports its per-layer
//! split; its spans, span self-times and the slowest jobs land in
//! `trace.json` beside its artifacts.
//!
//! Output check: every child's `outcomes.jsonl` (traced or not) must be
//! byte-identical, must match the digest recorded for the workload's
//! plan in `perfbench/digests.txt`, and on `sweep24` must match the
//! `correctbench-run` CLI's own output for the same plan. Any mismatch
//! fails the benchmark before a number is printed. The last line of
//! stdout is the JSON result.

#![forbid(unsafe_code)]

use correctbench::Method;
use correctbench_harness::artifact::json_escape;
use correctbench_harness::json::{self, Value};
use correctbench_harness::{
    plan_manifest_json, problem_subset, render_summary, summarize, write_atomic, write_sidecars,
    Engine, OutcomeJournal, RunPlan, RunResult, TaskOutcome,
};
use correctbench_llm::{ModelKind, SimulatedClientFactory};
use correctbench_obs::{Counter, JobObs, Phase};
use perfbench::{
    declared_names, digest, median, parse_cpu_ticks, parse_vm_hwm_kb, percentile, recorded_digest,
    self_time, valid_name,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Where runs write their artifacts, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";
/// The recorded `outcomes.jsonl` digests, one `workload seed digest` per line.
const DIGESTS: &str = "perfbench/digests.txt";
/// Linux reports `utime`/`stime` in `USER_HZ` ticks, 100 per second on
/// every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;
/// How many of the slowest jobs the traced run's tail view lists.
const TAIL_JOBS: usize = 10;
/// Set-up-only runs per invocation: `setup_s` is under a millisecond, so
/// its median needs more samples than the full runs give.
const SETUP_RUNS: usize = 15;
/// The base seed of both plans: the ROADMAP's fixed sweep. The plan's
/// work is a strong function of its seed — budget-exhausted runaway
/// simulations alone move `sweep24` between 4.7 s and 26 s across base
/// seeds 1 to 9 — so a plan drawn from `--seed` would bury every change
/// under input variance. `--seed` is accepted and recorded; the inputs
/// are the same for every seed.
const PLAN_SEED: u64 = 2025;

/// One benchmark workload: a fixed plan shape run on a closed loop of
/// `threads` workers.
struct Workload {
    name: &'static str,
    threads: usize,
    methods: &'static [Method],
    reps: u64,
    /// The `--problems N` subset for a plan the CLI can express; `None`
    /// runs every sequential problem.
    subset: Option<usize>,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sweep24",
        threads: 1,
        methods: &Method::ALL,
        reps: 2,
        subset: Some(24),
    },
    Workload {
        name: "seq_cb",
        threads: 2,
        methods: &[Method::CorrectBench],
        reps: 2,
        subset: None,
    },
];

impl Workload {
    fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn plan(&self) -> RunPlan {
        let problems = match self.subset {
            Some(n) => problem_subset(Some(n)),
            None => correctbench_dataset::sequential_problems(),
        };
        let mut plan = RunPlan::new(format!("perfbench-{}", self.name), problems);
        plan.methods = self.methods.to_vec();
        plan.model = ModelKind::Gpt4o;
        plan.reps = self.reps;
        plan.base_seed = PLAN_SEED;
        plan
    }
}

/// What one child process does.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Set up, run the plan untraced, write the artifacts.
    Untraced,
    /// The same with observability armed and spans recorded.
    Traced,
    /// Set up and stop before any file is written (a `setup_s` sample).
    Setup,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Untraced, Mode::Traced, Mode::Setup];

    fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::Setup => "setup",
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: error: {msg}");
    std::process::exit(1)
}

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        child(t0, &args[1..]);
        return;
    }
    let mut workload = None;
    let mut seed = 2025u64;
    let mut seconds = 50u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{flag}: `{v}` is not a number")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::named(name)
                        .unwrap_or_else(|| fail(&format!("unknown workload `{name}`"))),
                );
            }
            "--seed" => seed = number(value()),
            "--seconds" => seconds = number(value()).max(1),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => fail(&format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => fail(&format!(
                "unknown flag `{other}` (usage: --workload sweep24|seq_cb [--seed N] [--seconds N] [--trace 0|1])"
            )),
        }
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    orchestrate(workload, seed, seconds, trace);
}

// ---------------------------------------------------------------------
// Child: one measured run of one plan.
// ---------------------------------------------------------------------

/// One recorded span: `start`/`end` in nanoseconds since child start.
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start: u64,
    end: u64,
}

/// The child's in-memory span log, written out when the child ends.
struct SpanLog {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    fn record(&self, id: usize, parent: Option<usize>, name: String, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            name,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }
}

// Span ids of the benchmark's own calls; job spans take ids after these.
const ROOT: usize = 0;
const SETUP_PLAN: usize = 1;
const SETUP_ENGINE: usize = 2;
const JOURNAL: usize = 3;
const ENGINE: usize = 4;
const ARTIFACTS: usize = 5;
const FIRST_JOB: usize = 6;

fn child(t0: Instant, args: &[String]) {
    let [name, mode, dir] = args else {
        fail("--child takes: workload untraced|traced|setup dir");
    };
    let workload = Workload::named(name).unwrap_or_else(|| fail("child: unknown workload"));
    let mode = Mode::ALL
        .into_iter()
        .find(|m| m.name() == mode)
        .unwrap_or_else(|| fail("child: unknown mode"));
    let traced = mode == Mode::Traced;
    let dir = PathBuf::from(dir);
    let log = std::sync::Arc::new(SpanLog {
        t0,
        spans: Mutex::new(Vec::new()),
    });

    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let t_plan = Instant::now();
    let plan = workload.plan();
    let jobs = plan.num_jobs();
    let t_engine = Instant::now();
    let mut engine = Engine::new(workload.threads);
    if traced {
        let hook_log = std::sync::Arc::clone(&log);
        engine = engine.with_outcome_hook(Box::new(move |o: &TaskOutcome| {
            let end = Instant::now();
            let name = format!("job:{}:{}:{}", o.problem, o.method.name(), o.rep);
            let start = end.checked_sub(o.wall).unwrap_or(hook_log.t0);
            hook_log.record(FIRST_JOB + o.job_id, Some(ENGINE), name, start, end);
        }));
    } else {
        engine = engine.without_obs();
    }
    let factory = SimulatedClientFactory::for_model(plan.model);
    // Set-up ends here: the run directory, manifest and journal below
    // are durable file writes whose fsync latency swings from 1 ms to
    // 20 ms on a shared disk, so they count in `wall_s` only.
    let t_journal = Instant::now();
    if mode == Mode::Setup {
        let out = format!("metric setup_s {}\n", secs(t0, t_journal));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("result.txt"), out))
            .unwrap_or_else(|e| fail(&format!("cannot write result.txt: {e}")));
        return;
    }
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
    write_atomic(&dir.join("plan.json"), &plan_manifest_json(&plan))
        .unwrap_or_else(|e| fail(&format!("cannot write plan.json: {e}")));
    let journal = OutcomeJournal::create(&dir.join("outcomes.jsonl"))
        .unwrap_or_else(|e| fail(&format!("cannot create journal: {e}")));
    let t_execute = Instant::now();
    let result = engine.execute_replayed(&plan, &factory, Some(&journal), 0, Vec::new());
    let t_artifacts = Instant::now();
    if let Some(e) = journal.take_error() {
        fail(&format!("journal write failed: {e}"));
    }
    drop(journal);
    let summary = render_summary(&plan, &result);
    write_sidecars(&dir, &result, &summary)
        .unwrap_or_else(|e| fail(&format!("cannot write artifacts: {e}")));
    let t_end = Instant::now();

    let cpu_ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .unwrap_or_else(|| fail("cannot read utime/stime from /proc/self/stat"));
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .unwrap_or_else(|| fail("cannot read VmHWM from /proc/self/status"));
    let outcomes_bytes = std::fs::read(dir.join("outcomes.jsonl"))
        .unwrap_or_else(|e| fail(&format!("cannot read outcomes.jsonl: {e}")));

    let wall_s = secs(t0, t_end);
    let mut walls_ms: Vec<f64> = result
        .outcomes
        .iter()
        .map(|o| o.wall.as_secs_f64() * 1e3)
        .collect();
    walls_ms.sort_by(f64::total_cmp);
    let aborted = result
        .outcomes
        .iter()
        .filter(|o| o.failure.is_some())
        .count();
    let mut m: Vec<(String, f64)> = [
        ("wall_s", wall_s),
        ("jobs_per_s", jobs as f64 / wall_s),
        ("job_p50_ms", percentile(&walls_ms, 0.5).unwrap_or(f64::NAN)),
        ("job_p90_ms", percentile(&walls_ms, 0.9).unwrap_or(f64::NAN)),
        ("setup_s", secs(t0, t_journal)),
        ("peak_rss_mb", hwm_kb as f64 / 1024.0),
        ("cpu_s", cpu_ticks as f64 / TICKS_PER_S),
        ("abort_ratio", aborted as f64 / jobs as f64),
        ("harness.engine_s", secs(t_execute, t_artifacts)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for method in &plan.methods {
        let s = summarize(&result.outcomes, *method);
        let key = match method {
            Method::CorrectBench => "eval2_cb_pct",
            Method::AutoBench => "eval2_ab_pct",
            Method::Baseline => "eval2_base_pct",
        };
        m.push((key.to_string(), 100.0 * s.ratio(2)));
    }

    if traced {
        let calls = [
            (SETUP_PLAN, "setup.plan", t_plan, t_engine),
            (SETUP_ENGINE, "setup.engine", t_engine, t_journal),
            (JOURNAL, "journal", t_journal, t_execute),
            (ENGINE, "engine", t_execute, t_artifacts),
            (ARTIFACTS, "artifacts", t_artifacts, t_end),
        ];
        for (id, name, start, end) in calls {
            log.record(id, Some(ROOT), name.into(), start, end);
        }
        log.record(ROOT, None, "child".into(), t0, t_end);
        let spans = log.spans.lock().expect("span log poisoned");
        m.extend(layer_metrics(&result, &spans, workload.threads));
        write_atomic(&dir.join("trace.json"), &render_trace(&spans, &result))
            .unwrap_or_else(|e| fail(&format!("cannot write trace.json: {e}")));
    }

    let mut out = String::new();
    let _ = writeln!(out, "digest {}", digest(&outcomes_bytes));
    let _ = writeln!(out, "jobs {}", result.outcomes.len());
    let _ = writeln!(out, "aborted {aborted}");
    for (k, v) in &m {
        let _ = writeln!(out, "metric {k} {v}");
    }
    write_atomic(&dir.join("result.txt"), &out)
        .unwrap_or_else(|e| fail(&format!("cannot write result.txt: {e}")));
}

/// Σ job wall − Σ phase self-times: job time no phase span covers.
fn unattributed_s(result: &RunResult) -> f64 {
    let job_wall_s: f64 = result.outcomes.iter().map(|o| o.wall.as_secs_f64()).sum();
    job_wall_s - obs_totals(result).total_phase_ns() as f64 / 1e9
}

/// Every job's observability fragments, merged.
fn obs_totals(result: &RunResult) -> JobObs {
    let mut totals = JobObs::default();
    for o in &result.outcomes {
        if let Some(obs) = &o.obs {
            totals.merge(obs);
        }
    }
    totals
}

/// The per-layer split of one traced run: phase self-times and counters
/// from the jobs' `JobObs` rollup, cache-layer statistics from the
/// engine's stack, and the harness layer from the benchmark's spans.
fn layer_metrics(result: &RunResult, spans: &[Span], threads: usize) -> Vec<(String, f64)> {
    let obs = obs_totals(result);
    let s = |p: Phase| obs.phase(p) as f64 / 1e9;
    let c = |k: Counter| obs.counter(k) as f64;
    let sum = |f: &dyn Fn(&TaskOutcome) -> u64| result.outcomes.iter().map(f).sum::<u64>() as f64;
    let span_s = |id: usize| {
        let sp = spans.iter().find(|sp| sp.id == id).expect("span recorded");
        (sp.end - sp.start) as f64 / 1e9
    };
    let job_wall_s = result
        .outcomes
        .iter()
        .map(|o| o.wall.as_secs_f64())
        .sum::<f64>();
    let engine_s = span_s(ENGINE);
    let mut m: Vec<(String, f64)> = [
        ("verilog.simulate_s", s(Phase::Simulate)),
        ("verilog.sim_instrs", c(Counter::SimInstrs)),
        (
            "verilog.ns_per_instr",
            obs.phase(Phase::Simulate) as f64 / c(Counter::SimInstrs).max(1.0),
        ),
        ("verilog.parse_s", s(Phase::Parse)),
        ("verilog.elab_s", s(Phase::Elab)),
        ("verilog.compile_s", s(Phase::Compile)),
        ("verilog.sim_events", c(Counter::SimEvents)),
        ("verilog.nba_commits", c(Counter::NbaCommits)),
        ("verilog.lint_s", s(Phase::Lint)),
        ("verilog.lint_diags", c(Counter::LintDiags)),
        ("core.validate_s", s(Phase::Validate)),
        ("core.corrections", sum(&|o| u64::from(o.corrections))),
        ("core.reboots", sum(&|o| u64::from(o.reboots))),
        ("core.gave_up", sum(&|o| u64::from(o.gave_up))),
        ("checker.judge_s", s(Phase::Judge)),
        ("checker.judge_commits", c(Counter::JudgeCommits)),
        ("llm.self_s", s(Phase::Llm)),
        ("llm.requests", sum(&|o| o.tokens.requests)),
        ("llm.tokens_in", sum(&|o| o.tokens.input_tokens)),
        ("llm.tokens_out", sum(&|o| o.tokens.output_tokens)),
        ("llm.retries", c(Counter::LlmRetries)),
        ("autoeval.self_s", s(Phase::Autoeval)),
        ("harness.plan_s", span_s(SETUP_PLAN)),
        ("harness.artifacts_s", span_s(ARTIFACTS)),
        (
            "harness.worker_util",
            job_wall_s / (threads as f64 * engine_s),
        ),
        ("harness.unattributed_s", unattributed_s(result)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let caches = &result.caches;
    let layers = [
        ("sim_cache", caches.sim),
        ("elab_cache", caches.elab),
        ("session_pool", caches.sessions),
        ("golden_cache", caches.golden),
        ("lint_cache", caches.lint),
    ];
    for (layer, stats) in layers {
        let stats = stats.unwrap_or_default();
        for (field, v) in [
            ("hits", stats.hits as f64),
            ("misses", stats.misses as f64),
            ("hit_ratio", stats.hit_ratio()),
            ("entries", stats.entries as f64),
        ] {
            m.push((format!("tbgen.{layer}.{field}"), v));
        }
    }
    m
}

/// `trace.json` of a traced run: every span, self-times by span name,
/// the run-level unattributed job time, and the slowest jobs with their
/// phase and counter breakdown.
fn render_trace(spans: &[Span], result: &RunResult) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|sp| sp.id);
    let span_rows: Vec<String> = sorted
        .iter()
        .map(|sp| {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "    {{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                sp.id,
                json_escape(&sp.name),
                sp.start,
                sp.end
            )
        })
        .collect();
    let mut self_by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for sp in &sorted {
        let children: Vec<(u64, u64)> = sorted
            .iter()
            .filter(|c| c.parent == Some(sp.id))
            .map(|c| (c.start, c.end))
            .collect();
        let key = if sp.name.starts_with("job:") {
            "job"
        } else {
            &sp.name
        };
        *self_by_name.entry(key).or_default() +=
            self_time((sp.start, sp.end), &children) as f64 / 1e9;
    }
    let self_fields: Vec<String> = self_by_name
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let mut by_wall: Vec<&TaskOutcome> = result.outcomes.iter().collect();
    by_wall.sort_by(|a, b| b.wall.cmp(&a.wall).then(a.job_id.cmp(&b.job_id)));
    let tail_rows: Vec<String> = by_wall
        .iter()
        .take(TAIL_JOBS)
        .map(|o| format!("    {}", tail_json(o)))
        .collect();
    format!(
        "{{\n  \"spans\": [\n{}\n  ],\n  \"self_s\": {{{}}},\n  \"unattributed_s\": {},\n  \"tail\": [\n{}\n  ]\n}}\n",
        span_rows.join(",\n"),
        self_fields.join(","),
        unattributed_s(result),
        tail_rows.join(",\n"),
    )
}

/// One tail-view row: the job, its wall time, its non-zero phase
/// self-times and counters, and the wall time no phase covers.
fn tail_json(o: &TaskOutcome) -> String {
    let obs = o.obs.clone().unwrap_or_default();
    let wall_ms = o.wall.as_secs_f64() * 1e3;
    let phases: Vec<String> = obs
        .phases()
        .filter(|(_, ns)| *ns > 0)
        .map(|(k, ns)| format!("\"{k}\":{}", ns as f64 / 1e6))
        .collect();
    let counters: Vec<String> = obs
        .counter_values()
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("\"{k}\":{n}"))
        .collect();
    format!(
        "{{\"job\":{},\"problem\":\"{}\",\"method\":\"{}\",\"rep\":{},\"wall_ms\":{wall_ms},\"unattributed_ms\":{},\"phases_ms\":{{{}}},\"counters\":{{{}}}}}",
        o.job_id,
        json_escape(&o.problem),
        o.method.name(),
        o.rep,
        wall_ms - obs.total_phase_ns() as f64 / 1e6,
        phases.join(","),
        counters.join(","),
    )
}

// ---------------------------------------------------------------------
// Orchestrator: children, output check, medians, the result line.
// ---------------------------------------------------------------------

/// What one child reported.
struct ChildResult {
    digest: String,
    jobs: usize,
    aborted: usize,
    metrics: BTreeMap<String, f64>,
}

fn read_child(dir: &Path) -> ChildResult {
    let path = dir.join("result.txt");
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let mut r = ChildResult {
        digest: String::new(),
        jobs: 0,
        aborted: 0,
        metrics: BTreeMap::new(),
    };
    for line in src.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || -> ! { fail(&format!("{}: bad line `{line}`", path.display())) };
        match f.as_slice() {
            ["digest", d] => r.digest = d.to_string(),
            ["jobs", n] => r.jobs = n.parse().unwrap_or_else(|_| bad()),
            ["aborted", n] => r.aborted = n.parse().unwrap_or_else(|_| bad()),
            ["metric", k, v] => {
                r.metrics
                    .insert(k.to_string(), v.parse().unwrap_or_else(|_| bad()));
            }
            _ => bad(),
        }
    }
    r
}

fn run_child(workload: &Workload, mode: Mode, dir: &Path) -> ChildResult {
    let _ = std::fs::remove_dir_all(dir);

    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let status = Command::new(exe)
        .arg("--child")
        .arg(workload.name)
        .arg(mode.name())
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot spawn child: {e}")));
    if !status.success() {
        fail(&format!("child run failed ({status})"));
    }
    read_child(dir)
}

/// Runs `correctbench-run` on `sweep24`'s plan and returns the digest of
/// its `outcomes.jsonl`.
fn cli_digest(dir: &Path) -> String {
    let _ = std::fs::remove_dir_all(dir);
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("current_exe: {e}")))
        .with_file_name("correctbench-run");
    let seed = PLAN_SEED.to_string();
    let status = Command::new(&exe)
        .args([
            "--problems",
            "24",
            "--reps",
            "2",
            "--threads",
            "1",
            "--seed",
            &seed,
        ])
        .arg("--out")
        .arg(dir)
        .arg("--quiet")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot run {}: {e}", exe.display())));
    if !status.success() {
        fail(&format!("correctbench-run failed ({status})"));
    }
    let bytes = std::fs::read(dir.join("outcomes.jsonl"))
        .unwrap_or_else(|e| fail(&format!("cannot read the CLI's outcomes.jsonl: {e}")));
    digest(&bytes)
}

/// The declared metrics of one `BENCHMARK.json` section, with units.
fn declared_metrics(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = benchmark.get(section) else {
        fail(&format!("BENCHMARK.json has no `{section}` list"));
    };
    items
        .iter()
        .map(|i| {
            let name = i.get("name").and_then(Value::as_str).unwrap_or("");
            let unit = i.get("unit").and_then(Value::as_str).unwrap_or("");
            if !valid_name(name) {
                fail(&format!("BENCHMARK.json: invalid metric name `{name}`"));
            }
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// Metrics reported by every run but not declared end-to-end: deterministic
/// reproduction checks (or zero by design), printed for the reader.
const REPORTED_ONLY: [(&str, &str); 4] = [
    ("abort_ratio", "ratio"),
    ("eval2_cb_pct", "%"),
    ("eval2_ab_pct", "%"),
    ("eval2_base_pct", "%"),
];

fn orchestrate(workload: &'static Workload, seed: u64, seconds: u64, trace: bool) {
    let benchmark_src = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        fail(&format!(
            "cannot read BENCHMARK.json (run from the repository root): {e}"
        ))
    });
    let benchmark =
        json::parse(&benchmark_src).unwrap_or_else(|e| fail(&format!("BENCHMARK.json: {e}")));
    if !declared_names(&benchmark, "workloads").contains(&workload.name) {
        fail(&format!(
            "workload `{}` is not declared in BENCHMARK.json",
            workload.name
        ));
    }
    let declared = declared_metrics(&benchmark, if trace { "per_layer" } else { "end_to_end" });
    let digests = std::fs::read_to_string(DIGESTS)
        .unwrap_or_else(|e| fail(&format!("cannot read {DIGESTS}: {e}")));

    let root = PathBuf::from(OUT_DIR).join(workload.name);
    let _ = std::fs::remove_dir_all(&root);
    let started = Instant::now();
    let setups: Vec<f64> = (0..SETUP_RUNS)
        .map(|i| {
            run_child(workload, Mode::Setup, &root.join(format!("setup{i}"))).metrics["setup_s"]
        })
        .collect();
    // The CLI comparison runs inside the measuring window, so an
    // invocation takes about `--seconds` on either workload.
    let cli = workload.subset.map(|_| cli_digest(&root.join("cli")));
    let mut untraced: Vec<ChildResult> = Vec::new();
    let mut traced: Option<ChildResult> = None;
    let mut run_s: Vec<f64> = Vec::new();
    // Closed loop of whole runs: start another while at least half of
    // it fits in the window, so invocations average about `--seconds`
    // (at least one untraced run, and the traced run when asked for).
    loop {
        let enough = !untraced.is_empty() && (!trace || traced.is_some());
        let per_run = run_s.iter().sum::<f64>() / run_s.len().max(1) as f64;
        if enough && started.elapsed().as_secs_f64() + per_run / 2.0 > seconds as f64 {
            break;
        }
        let t = Instant::now();
        // With tracing, the traced run goes second, after one untraced run.
        if trace && traced.is_none() && !untraced.is_empty() {
            traced = Some(run_child(workload, Mode::Traced, &root.join("traced")));
        } else {
            let dir = root.join(format!("run{}", untraced.len()));
            untraced.push(run_child(workload, Mode::Untraced, &dir));
        }
        run_s.push(t.elapsed().as_secs_f64());
    }
    let measured_s = started.elapsed().as_secs_f64();

    // Output check: identical outcomes across every run, the recorded
    // digest, and (sweep24) the CLI.
    let first = &untraced[0].digest;
    for r in untraced.iter().chain(traced.iter()) {
        if &r.digest != first {
            fail(&format!(
                "outcomes.jsonl differs between runs of the same plan ({first} vs {})",
                r.digest
            ));
        }
        let expected = workload.plan().num_jobs();
        if r.jobs != expected {
            fail(&format!(
                "a run produced {} outcomes, expected {expected}",
                r.jobs
            ));
        }
    }
    match recorded_digest(&digests, workload.name, PLAN_SEED) {
        Some(d) if &d == first => eprintln!("perfbench: outcomes match the recorded digest {d}"),
        Some(d) => fail(&format!(
            "outcomes.jsonl digest {first} does not match the recorded {d} for {} seed {PLAN_SEED}",
            workload.name
        )),
        None => fail(&format!(
            "no digest recorded for {} seed {PLAN_SEED} in {DIGESTS} (outcomes digest {first})",
            workload.name
        )),
    }
    if let Some(cli) = cli {
        if &cli != first {
            fail(&format!(
                "outcomes.jsonl differs from correctbench-run's ({first} vs {cli})"
            ));
        }
        eprintln!("perfbench: outcomes match correctbench-run");
    }

    let runs = untraced.len() + usize::from(traced.is_some());
    eprintln!(
        "perfbench: {} seed {seed}: {runs} runs in {measured_s:.1} s ({} untraced{})",
        workload.name,
        untraced.len(),
        if traced.is_some() { ", 1 traced" } else { "" }
    );
    let attempted: usize = untraced.iter().chain(traced.iter()).map(|r| r.jobs).sum();
    let failed: usize = untraced
        .iter()
        .chain(traced.iter())
        .map(|r| r.aborted)
        .sum();
    let med = |name: &str| -> f64 {
        let values: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        median(&values).unwrap_or(f64::NAN)
    };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(t) = &traced {
        values.extend(t.metrics.iter().map(|(k, v)| (k.clone(), *v)));
        let untraced_engine = med("harness.engine_s");
        values.insert(
            "obs.overhead_pct".into(),
            100.0 * (t.metrics["harness.engine_s"] / untraced_engine - 1.0),
        );
        let trace_path = root.join("traced").join("trace.json");
        eprintln!(
            "perfbench: spans, self-times and the slowest jobs: {}",
            trace_path.display()
        );
    } else {
        for (name, _) in &declared {
            values.insert(name.clone(), med(name));
        }
        let all_setups: Vec<f64> = setups
            .iter()
            .copied()
            .chain(untraced.iter().map(|r| r.metrics["setup_s"]))
            .collect();
        values.insert("setup_s".into(), median(&all_setups).unwrap_or(f64::NAN));
        for (name, unit) in REPORTED_ONLY {
            if untraced[0].metrics.contains_key(name) {
                println!("{name} {} {unit}", med(name));
            }
        }
    }

    let mut fields = Vec::new();
    for (name, unit) in &declared {
        let v = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or_else(|| fail(&format!("metric `{name}` was not measured")));
        println!("{name} {v} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}
