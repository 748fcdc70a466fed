//! Session-oriented evaluation: the batch surface of the runner.
//!
//! Every experiment in the reproduction bottoms out in *sweeps* — the
//! validator's RS matrix runs one driver against a whole RTL group,
//! Eval2 replays one testbench against ten mutants, repetition sweeps
//! re-run near-identical pairs. Rebuilding everything per run would
//! mean a fresh [`Simulator`] value table and a fresh judging pass that
//! re-interprets the checker IR with name-keyed maps
//! ([`crate::simulate_records_limited`] plus [`crate::judge_records`],
//! the fresh-everything reference the session tests compare against).
//!
//! An [`EvalSession`] is the amortized form. It is pinned to one
//! `(problem, checker)` pair and owns, across arbitrarily many runs:
//!
//! * the **compiled checker** ([`JudgeSession`]) — IR flattened to slot
//!   bytecode once, stepped positionally ever after;
//! * the **record bindings** — `(checker input → record field, port
//!   width)` resolved to indices once, not string-searched per record;
//! * the **last-pair design memo** — the elaborated [`Design`] of the
//!   most recent (DUT, driver) pair, the only design reuse in the
//!   crate: a repeated pair skips combine + elaborate;
//! * the **simulator** — kept while consecutive runs execute the same
//!   elaborated [`Design`] (by `Arc` identity, which the memo provides)
//!   and rewound with [`Simulator::reset`] instead of reconstructed;
//! * the **judging buffers** (per-scenario flags, positional inputs).
//!
//! [`EvalSession::run`] consults the thread's
//! [`SimCache`](crate::SimCache) under the same content key as
//! [`crate::run_testbench_parsed`], which is itself a thin wrapper over
//! a leased session, so both entry points share one memo table and one
//! execution engine.

use crate::cache::{module_interface_fingerprint, CacheKey};
use crate::record::{parse_records, Record, RecordBinding};
use crate::runner::{elaborate_pair, limits_for, ScenarioResult, TbError, TbRun};
use crate::scenarios::ScenarioSet;
use correctbench_checker::{CheckerProgram, JudgeSession};
use correctbench_dataset::Problem;
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::Fingerprint;
use correctbench_verilog::{Design, LogicVec, Simulator};
use std::sync::Arc;

/// A reusable evaluation session for one `(problem, checker)` pair.
///
/// # Examples
///
/// Sweep one driver across an RTL group (the RS-matrix shape):
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use correctbench_tbgen::{generate_driver, generate_scenarios, EvalSession};
///
/// let problem = correctbench_dataset::problem("adder_8").expect("known problem");
/// let scenarios = generate_scenarios(&problem, 42);
/// let driver = correctbench_verilog::parse(&generate_driver(&problem, &scenarios))?;
/// let checker = correctbench_checker::compile_module(&problem.golden_module())?;
/// let dut = correctbench_verilog::parse(&problem.golden_rtl)?;
///
/// let mut session = EvalSession::new(&problem, &checker)?;
/// for run in session.sweep_mutants(std::slice::from_ref(&dut), &driver, &scenarios) {
///     assert!(run?.all_pass());
/// }
/// # Ok(())
/// # }
/// ```
pub struct EvalSession {
    /// [`CacheKey`] components fixed for the session, computed once in
    /// [`EvalSession::new`] — visitor fingerprints are cheap enough to
    /// take eagerly, and the session pool needs them as its key anyway.
    checker_fp: Fingerprint,
    problem_fp: Fingerprint,
    judge: JudgeSession,
    /// Record-field resolution for the checker's inputs and outputs,
    /// re-indexed per record (first-occurrence semantics, exactly like
    /// [`Record::field`]).
    binding: RecordBinding,
    /// Per checker input: its binding slot and the port width the
    /// record prints it at.
    input_slots: Vec<(usize, usize)>,
    /// Binding slot per checker output.
    output_slots: Vec<usize>,
    /// Positional step buffer, `input_slots`-parallel.
    input_buf: Vec<LogicVec>,
    seen: Vec<bool>,
    failed: Vec<bool>,
    /// Kept while consecutive runs share an elaborated design.
    sim: Option<Simulator<'static>>,
    /// The last-pair design memo: fingerprints of the last (DUT, driver)
    /// pair and its elaborated design. Repeated pairs — the defining
    /// shape of a sweep — reuse the design and the simulator. Keyed on
    /// [`SourceFile::fingerprint`]: the caller's files cache their own
    /// fingerprint, so a repeated probe is two u64 compares.
    last_dut: Option<Fingerprint>,
    last_driver: Option<Fingerprint>,
    last_design: Option<Arc<Design>>,
}

impl EvalSession {
    /// Builds a session: compiles the checker and resolves the record
    /// bindings. One-time cost, amortized over every subsequent run.
    ///
    /// # Errors
    ///
    /// [`TbError::Checker`] when the checker program is malformed (the
    /// same class the interpreter rejects at judge time).
    pub fn new(problem: &Problem, checker: &CheckerProgram) -> Result<EvalSession, TbError> {
        Self::with_fingerprints(
            problem,
            checker,
            module_interface_fingerprint(&problem.name, &problem.ports),
            checker.fingerprint(),
        )
    }

    /// [`EvalSession::new`] with the `(problem, checker)` fingerprints
    /// already in hand — the pool computes them for its key and must not
    /// pay the visitor walk twice on a miss.
    pub(crate) fn with_fingerprints(
        problem: &Problem,
        checker: &CheckerProgram,
        problem_fp: Fingerprint,
        checker_fp: Fingerprint,
    ) -> Result<EvalSession, TbError> {
        let judge = JudgeSession::new(checker)?;
        let mut binding = RecordBinding::default();
        let input_slots = crate::runner::bind_inputs(&mut binding, checker, &problem.ports);
        let output_slots = judge
            .compiled()
            .output_names()
            .map(|name| binding.slot(name))
            .collect();
        let input_buf = input_slots
            .iter()
            .map(|(_, w)| LogicVec::filled_x((*w).max(1)))
            .collect();
        Ok(EvalSession {
            checker_fp,
            problem_fp,
            judge,
            binding,
            input_slots,
            output_slots,
            input_buf,
            seen: Vec::new(),
            failed: Vec::new(),
            sim: None,
            last_dut: None,
            last_driver: None,
            last_design: None,
        })
    }

    /// The elaborated pair: the last-pair memo when the fingerprints
    /// match, a fresh elaboration otherwise. Elaboration is a pure
    /// function of the two sources, so a memo hit is semantically
    /// identical to re-elaborating.
    fn design(&mut self, dut: &SourceFile, driver: &SourceFile) -> Result<Arc<Design>, TbError> {
        let dut_fp = dut.fingerprint();
        let driver_fp = driver.fingerprint();
        if self.last_dut == Some(dut_fp) && self.last_driver == Some(driver_fp) {
            if let Some(design) = &self.last_design {
                return Ok(Arc::clone(design));
            }
        }
        let design = Arc::new(elaborate_pair(dut, driver)?);
        self.last_dut = Some(dut_fp);
        self.last_driver = Some(driver_fp);
        self.last_design = Some(Arc::clone(&design));
        Ok(design)
    }

    /// Runs the hybrid testbench against one DUT — the session
    /// counterpart of [`crate::run_testbench_parsed`], byte-identical
    /// results included. Consults the thread's simulation cache first and
    /// stores misses back, so batched and single-run callers share one
    /// memo table.
    ///
    /// # Errors
    ///
    /// As [`crate::run_testbench`].
    pub fn run(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let key = crate::cache::with_active(|_| CacheKey {
            dut: dut.fingerprint(),
            driver: driver.fingerprint(),
            checker: self.checker_fp,
            scenarios: scenarios.fingerprint(),
            problem: self.problem_fp,
        });
        if let Some(key) = key {
            if let Some(cached) = crate::cache::with_active(|c| c.get(&key)).flatten() {
                return cached;
            }
            let result = self.run_once(dut, driver, scenarios);
            crate::cache::with_active(|c| c.put(key, result.clone()));
            return result;
        }
        self.run_once(dut, driver, scenarios)
    }

    /// Sweeps one driver across many DUTs — the RS-matrix / Eval2 shape.
    /// Setup (checker compilation, bindings) is shared; the simulator is
    /// reused whenever consecutive DUTs elaborate to the same design.
    pub fn sweep_mutants<'d>(
        &mut self,
        duts: impl IntoIterator<Item = &'d SourceFile>,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Vec<Result<TbRun, TbError>> {
        duts.into_iter()
            .map(|dut| self.run(dut, driver, scenarios))
            .collect()
    }

    /// Sweeps one DUT across many stimulus schedules (each a driver with
    /// its scenario set) — the repetition-sweep shape.
    pub fn sweep_schedules<'d>(
        &mut self,
        dut: &SourceFile,
        schedules: impl IntoIterator<Item = &'d (SourceFile, ScenarioSet)>,
    ) -> Vec<Result<TbRun, TbError>> {
        schedules
            .into_iter()
            .map(|(driver, scenarios)| self.run(dut, driver, scenarios))
            .collect()
    }

    /// The uncached run: simulate (session simulator) and judge (compiled
    /// checker).
    pub(crate) fn run_once(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let design = self.design(dut, driver)?;
        let (limits, binding) = crate::runner::budgeted_limits(limits_for(scenarios));
        let sim = match &mut self.sim {
            Some(sim) if sim.shares(&design) => {
                sim.reset();
                sim.set_limits(limits);
                sim
            }
            slot => slot.insert(Simulator::from_design_with_limits(design, limits)),
        };
        let out = sim
            .run()
            .map_err(|e| crate::runner::classify_sim_err(e, binding))?;
        let records = parse_records(&out.lines);
        let results = self.judge(&records, scenarios.len())?;
        Ok(TbRun {
            results,
            records,
            end_time: out.end_time,
        })
    }

    /// Judges a pre-captured record stream with the compiled checker —
    /// the session counterpart of [`crate::judge_records`], same verdicts
    /// (pinned by the checker differential suite), no per-record maps or
    /// name lookups. Checker state is rewound first, so one session
    /// judges arbitrarily many streams.
    ///
    /// # Errors
    ///
    /// [`TbError::Checker`] when the stream cannot be stepped.
    pub fn judge(
        &mut self,
        records: &[Record],
        num_scenarios: usize,
    ) -> Result<Vec<ScenarioResult>, TbError> {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Judge);
        self.judge.reset();
        self.seen.clear();
        self.seen.resize(num_scenarios, false);
        self.failed.clear();
        self.failed.resize(num_scenarios, false);

        for rec in records {
            self.binding.bind(rec);
            for ((slot, width), buf) in self.input_slots.iter().zip(self.input_buf.iter_mut()) {
                match self.binding.field(*slot, rec) {
                    Some(fv) => *buf = fv.to_logic(*width),
                    None => *buf = LogicVec::filled_x((*width).max(1)),
                }
            }
            self.judge.step(&self.input_buf)?;

            let idx = rec.scenario;
            if idx == 0 || idx > num_scenarios {
                continue;
            }
            self.seen[idx - 1] = true;
            for (oi, slot) in self.output_slots.iter().enumerate() {
                let reference = self.judge.output(oi);
                if !crate::runner::output_ok(reference, self.binding.field(*slot, rec)) {
                    self.failed[idx - 1] = true;
                }
            }
        }

        correctbench_obs::add(
            correctbench_obs::Counter::JudgeCommits,
            self.judge.take_commits_retired(),
        );

        Ok((0..num_scenarios)
            .map(|i| {
                if !self.seen[i] {
                    ScenarioResult::Missing
                } else if self.failed[i] {
                    ScenarioResult::Fail
                } else {
                    ScenarioResult::Pass
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::generate_driver;
    use crate::runner::{judge_records, simulate_records_limited};
    use crate::scenarios::generate_scenarios;
    use correctbench_checker::compile_module;
    use correctbench_verilog::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tb_run_eq(a: &TbRun, b: &TbRun) -> bool {
        a.results == b.results && a.records == b.records && a.end_time == b.end_time
    }

    /// The fresh-everything reference: a new simulator per run and the
    /// interpreted judge.
    fn fresh_reference(
        dut: &SourceFile,
        driver: &SourceFile,
        checker: &CheckerProgram,
        problem: &Problem,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let (records, end_time) = simulate_records_limited(dut, driver, limits_for(scenarios))?;
        let results = judge_records(&records, checker, problem, scenarios.len())?;
        Ok(TbRun {
            results,
            records,
            end_time,
        })
    }

    /// A two-site mutant of `golden`'s `name` module.
    fn mutant(golden: &SourceFile, name: &str, seed: u64) -> SourceFile {
        let mut file = golden.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        if let Some(m) = file.module_mut(name) {
            correctbench_verilog::mutate::mutate_module(m, &mut rng, 2);
        }
        file
    }

    /// Session runs must match the fresh reference exactly — on golden
    /// DUTs, mutants, repeated DUTs (simulator reuse via reset), and
    /// interleavings that force simulator reconstruction.
    #[test]
    fn session_matches_fresh_reference_across_a_sweep() {
        for name in ["alu_8", "counter_8", "shift18"] {
            let p = correctbench_dataset::problem(name).expect("problem");
            let scen = generate_scenarios(&p, 33);
            let driver = parse(&generate_driver(&p, &scen)).expect("driver");
            let checker = compile_module(&p.golden_module()).expect("checker");
            let golden = parse(&p.golden_rtl).expect("golden");

            // A few mutants, with the golden DUT repeated in between so
            // the sweep exercises reset-reuse *and* reconstruction.
            let mut duts = vec![golden.clone(), golden.clone()];
            for seed in 0..3u64 {
                duts.push(mutant(&golden, &p.name, seed));
                duts.push(golden.clone());
            }

            let mut session = EvalSession::new(&p, &checker).expect("session");
            let swept = session.sweep_mutants(duts.iter(), &driver, &scen);
            for (dut, via_session) in duts.iter().zip(swept) {
                let reference = fresh_reference(dut, &driver, &checker, &p, &scen);
                match (via_session, reference) {
                    (Ok(a), Ok(b)) => assert!(
                        tb_run_eq(&a, &b),
                        "{name}: session diverged from the fresh reference"
                    ),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{name}: one path errored: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn sweep_schedules_matches_fresh_reference() {
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let checker = compile_module(&p.golden_module()).expect("checker");
        let dut = parse(&p.golden_rtl).expect("golden");
        let schedules: Vec<(SourceFile, ScenarioSet)> = (0..3u64)
            .map(|seed| {
                let scen = generate_scenarios(&p, 100 + seed);
                let driver = parse(&generate_driver(&p, &scen)).expect("driver");
                (driver, scen)
            })
            .collect();
        let mut session = EvalSession::new(&p, &checker).expect("session");
        for ((driver, scen), run) in schedules
            .iter()
            .zip(session.sweep_schedules(&dut, schedules.iter()))
        {
            let reference = fresh_reference(&dut, driver, &checker, &p, scen).expect("reference");
            assert!(tb_run_eq(&run.expect("session run"), &reference));
        }
    }

    /// The last-pair memo is the only design reuse: a repeated (DUT,
    /// driver) pair keeps the same `Arc<Design>` and the simulator built
    /// on it; a different DUT replaces both. Results never depend on it.
    #[test]
    fn last_pair_memo_reuses_design_and_simulator() {
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let scen = generate_scenarios(&p, 21);
        let driver = parse(&generate_driver(&p, &scen)).expect("driver");
        let checker = compile_module(&p.golden_module()).expect("checker");
        let golden = parse(&p.golden_rtl).expect("golden");
        let other = mutant(&golden, &p.name, 7);
        assert_ne!(golden.fingerprint(), other.fingerprint());

        let mut session = EvalSession::new(&p, &checker).expect("session");
        let run = |session: &mut EvalSession, dut: &SourceFile| {
            let got = session.run(dut, &driver, &scen);
            let reference = fresh_reference(dut, &driver, &checker, &p, &scen);
            match (&got, &reference) {
                (Ok(a), Ok(b)) => assert!(tb_run_eq(a, b), "memo changed a result"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("one path errored: {a:?} vs {b:?}"),
            }
            let design = session.last_design.clone().expect("memo filled");
            let sim = session.sim.as_ref().expect("simulator built");
            assert!(sim.shares(&design), "simulator runs the memoized design");
            design
        };

        let first = run(&mut session, &golden);
        let repeat = run(&mut session, &golden);
        assert!(
            Arc::ptr_eq(&first, &repeat),
            "a repeated pair must reuse the memoized design"
        );
        let replaced = run(&mut session, &other);
        assert!(
            !Arc::ptr_eq(&first, &replaced),
            "a different DUT must replace the design"
        );
        let sim = session.sim.as_ref().expect("simulator");
        assert!(!sim.shares(&first), "the old simulator was replaced");
        let back = run(&mut session, &golden);
        assert!(
            !Arc::ptr_eq(&first, &back),
            "the memo holds one pair, not a history"
        );
    }

    #[test]
    fn session_uses_sim_cache() {
        let p = correctbench_dataset::problem("and_8").expect("problem");
        let scen = generate_scenarios(&p, 5);
        let driver = parse(&generate_driver(&p, &scen)).expect("driver");
        let checker = compile_module(&p.golden_module()).expect("checker");
        let dut = parse(&p.golden_rtl).expect("golden");
        let cache = crate::SimCache::new();
        let _guard = crate::CacheStack::empty()
            .with_sim_cache(Arc::clone(&cache))
            .install();
        let mut session = EvalSession::new(&p, &checker).expect("session");
        let a = session.run(&dut, &driver, &scen).expect("first");
        let b = session.run(&dut, &driver, &scen).expect("second");
        assert!(tb_run_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // And the free-function wrapper hits the very same entry.
        let c = crate::run_testbench_parsed(&dut, &driver, &checker, &p, &scen).expect("wrapper");
        assert!(tb_run_eq(&a, &c));
        assert_eq!(cache.stats().hits, 2);
    }
}
