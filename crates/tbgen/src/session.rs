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
//! * the **prepared driver** — the last driver, elaborated once into a
//!   [`PreparedTestbench`]; every DUT run against it links only the DUT
//!   instance into the shared driver design;
//! * the **last-pair design memo** — the linked [`Design`] of the most
//!   recent (DUT, driver) pair: a repeated pair skips the link too;
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
use crate::runner::{limits_for, ScenarioResult, TbError, TbRun};
use crate::scenarios::ScenarioSet;
use correctbench_checker::{CheckerProgram, JudgeSession};
use correctbench_dataset::Problem;
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::elaborate::PreparedTestbench;
use correctbench_verilog::hash::Fingerprint;
use correctbench_verilog::{Design, LogicVec, Simulator, VerilogError};
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
    /// The last driver, prepared once: each new DUT only links into it.
    /// Keyed, like the memo below, on [`SourceFile::fingerprint`] — the
    /// caller's files cache their own fingerprint, so a repeated probe
    /// is a u64 compare.
    prepared: Option<(Fingerprint, PreparedTestbench)>,
    /// The last-pair design memo: fingerprints of the last (DUT, driver)
    /// pair and its linked design. Repeated pairs reuse the design and
    /// the simulator.
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
            prepared: None,
            last_dut: None,
            last_driver: None,
            last_design: None,
        })
    }

    /// Drops everything tied to the last driver and DUT — the prepared
    /// driver, the design memo and the simulator — and keeps what the
    /// session's `(problem, checker)` pair fixes: the compiled checker,
    /// the bindings and the judging buffers. The pool parks every
    /// session it takes back, so an idle session holds no design.
    pub(crate) fn park(&mut self) {
        self.prepared = None;
        self.sim = None;
        self.last_dut = None;
        self.last_driver = None;
        self.last_design = None;
    }

    /// The elaborated pair: the last-pair memo when the fingerprints
    /// match, otherwise `dut` linked into the prepared driver (prepared
    /// first when the driver changed). Linking produces exactly the
    /// design [`crate::elaborate_pair`] produces, and both are pure
    /// functions of the two sources, so reuse never changes a result.
    fn design(&mut self, dut: &SourceFile, driver: &SourceFile) -> Result<Arc<Design>, TbError> {
        let dut_fp = dut.fingerprint();
        let driver_fp = driver.fingerprint();
        if self.last_dut == Some(dut_fp) && self.last_driver == Some(driver_fp) {
            if let Some(design) = &self.last_design {
                return Ok(Arc::clone(design));
            }
        }
        let prepared = match &mut self.prepared {
            Some((fp, prepared)) if *fp == driver_fp => prepared,
            slot => {
                let prepared = PreparedTestbench::new(driver.clone(), crate::driver::TB_MODULE);
                &slot.insert((driver_fp, prepared)).1
            }
        };
        let design = Arc::new(prepared.link(dut).map_err(VerilogError::from)?);
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
        let scenarios_fp = crate::cache::with_active(|_| scenarios.fingerprint());
        self.run_cached(dut, driver, scenarios, scenarios_fp)
    }

    /// [`EvalSession::run`] with the scenario fingerprint taken by the
    /// caller — `None` when no simulation cache is installed — so a
    /// sweep fingerprints its scenario set once, not once per row.
    fn run_cached(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
        scenarios_fp: Option<Fingerprint>,
    ) -> Result<TbRun, TbError> {
        let Some(scenarios_fp) = scenarios_fp else {
            return self.run_once(dut, driver, scenarios);
        };
        let key = CacheKey {
            dut: dut.fingerprint(),
            driver: driver.fingerprint(),
            checker: self.checker_fp,
            scenarios: scenarios_fp,
            problem: self.problem_fp,
        };
        if let Some(cached) = crate::cache::with_active(|c| c.get(&key)).flatten() {
            return cached;
        }
        let result = self.run_once(dut, driver, scenarios);
        crate::cache::with_active(|c| c.put(key, result.clone()));
        result
    }

    /// Sweeps one driver across many DUTs — the RS-matrix / Eval2 shape.
    /// Setup (checker compilation, bindings, the driver's elaboration,
    /// the scenario fingerprint) is shared; each DUT pays only its own
    /// link, simulation and judging, and the simulator is reused
    /// whenever consecutive DUTs elaborate to the same design.
    pub fn sweep_mutants<'d>(
        &mut self,
        duts: impl IntoIterator<Item = &'d SourceFile>,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Vec<Result<TbRun, TbError>> {
        let scenarios_fp = crate::cache::with_active(|_| scenarios.fingerprint());
        duts.into_iter()
            .map(|dut| self.run_cached(dut, driver, scenarios, scenarios_fp))
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
    /// checker). The record stream lives only for the judging.
    pub(crate) fn run_once(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let (records, end_time) = self.simulate(dut, driver, scenarios)?;
        Ok(TbRun {
            results: self.judge(&records, scenarios.len())?,
            end_time,
        })
    }

    /// The simulation half of [`EvalSession::run_once`]: the record stream
    /// and end time of `dut` under `driver`, on the session's design
    /// memo and simulator — the exact stream a run judges.
    pub(crate) fn simulate(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<(Vec<Record>, u64), TbError> {
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
        Ok((parse_records(&out.lines), out.end_time))
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

    /// The fresh-everything reference: a new monolithic elaboration and
    /// simulator per run and the interpreted judge. Returns the record
    /// stream with the run.
    fn fresh_reference(
        dut: &SourceFile,
        driver: &SourceFile,
        checker: &CheckerProgram,
        problem: &Problem,
        scenarios: &ScenarioSet,
    ) -> Result<(Vec<Record>, TbRun), TbError> {
        let (records, end_time) = simulate_records_limited(dut, driver, limits_for(scenarios))?;
        let results = judge_records(&records, checker, problem, scenarios.len())?;
        Ok((records, TbRun { results, end_time }))
    }

    /// Runs `dut` through `session` and checks it against the fresh
    /// reference: the same verdicts and end time, and the same record
    /// stream simulated on the session's own design and simulator.
    fn check_run(
        session: &mut EvalSession,
        dut: &SourceFile,
        driver: &SourceFile,
        checker: &CheckerProgram,
        problem: &Problem,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let got = session.run(dut, driver, scenarios);
        let simulated = session.simulate(dut, driver, scenarios);
        match (
            &got,
            simulated,
            fresh_reference(dut, driver, checker, problem, scenarios),
        ) {
            (Ok(run), Ok((records, end_time)), Ok((ref_records, reference))) => {
                assert_eq!(*run, reference, "session verdicts diverged");
                assert_eq!(end_time, reference.end_time);
                assert!(
                    records == ref_records,
                    "session simulated a different record stream"
                );
            }
            (Err(_), Err(_), Err(_)) => {}
            // A checker failure is the only error the simulation half
            // cannot see.
            (Err(TbError::Checker(_)), Ok(_), Err(TbError::Checker(_))) => {}
            (a, b, c) => panic!("paths disagree: {a:?} vs {b:?} vs {c:?}"),
        }
        got
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
    /// interleavings that force simulator reconstruction — and a sweep
    /// must return what the runs return one by one.
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
            let one_by_one: Vec<_> = duts
                .iter()
                .map(|dut| check_run(&mut session, dut, &driver, &checker, &p, &scen).ok())
                .collect();
            let mut fresh = EvalSession::new(&p, &checker).expect("session");
            let swept: Vec<_> = fresh
                .sweep_mutants(duts.iter(), &driver, &scen)
                .into_iter()
                .map(Result::ok)
                .collect();
            assert_eq!(swept, one_by_one, "{name}: sweep diverged from runs");
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
        let swept = session.sweep_schedules(&dut, schedules.iter());
        for ((driver, scen), run) in schedules.iter().zip(swept) {
            let checked = check_run(&mut session, &dut, driver, &checker, &p, scen);
            assert_eq!(run.expect("session run"), checked.expect("checked run"));
        }
    }

    /// The driver is prepared once per driver and the last pair's design
    /// is memoized: a repeated (DUT, driver) pair keeps the same
    /// `Arc<Design>` and the simulator built on it; a different DUT
    /// replaces both but keeps the prepared driver; a different driver
    /// replaces the prepared one. Results never depend on either.
    #[test]
    fn prepared_driver_and_last_pair_memo_are_reused() {
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let scen = generate_scenarios(&p, 21);
        let driver = parse(&generate_driver(&p, &scen)).expect("driver");
        let checker = compile_module(&p.golden_module()).expect("checker");
        let golden = parse(&p.golden_rtl).expect("golden");
        let other = mutant(&golden, &p.name, 7);
        assert_ne!(golden.fingerprint(), other.fingerprint());

        let mut session = EvalSession::new(&p, &checker).expect("session");
        let run = |session: &mut EvalSession, dut: &SourceFile, driver: &SourceFile| {
            let _ = check_run(session, dut, driver, &checker, &p, &scen);
            let design = session.last_design.clone().expect("memo filled");
            let sim = session.sim.as_ref().expect("simulator built");
            assert!(sim.shares(&design), "simulator runs the memoized design");
            let prepared = session.prepared.as_ref().expect("driver prepared");
            assert_eq!(prepared.0, driver.fingerprint());
            let prepared = prepared.1.driver() as *const SourceFile;
            (design, prepared)
        };

        let (first, prepared) = run(&mut session, &golden, &driver);
        let (repeat, _) = run(&mut session, &golden, &driver);
        assert!(
            Arc::ptr_eq(&first, &repeat),
            "a repeated pair must reuse the memoized design"
        );
        let (replaced, same_prepared) = run(&mut session, &other, &driver);
        assert!(
            !Arc::ptr_eq(&first, &replaced),
            "a different DUT must replace the design"
        );
        assert_eq!(prepared, same_prepared, "the driver is prepared once");
        let sim = session.sim.as_ref().expect("simulator");
        assert!(!sim.shares(&first), "the old simulator was replaced");
        let (back, _) = run(&mut session, &golden, &driver);
        assert!(
            !Arc::ptr_eq(&first, &back),
            "the memo holds one pair, not a history"
        );
        let other_scen = generate_scenarios(&p, 22);
        let other_driver = parse(&generate_driver(&p, &other_scen)).expect("driver");
        let run_other = session.run(&golden, &other_driver, &other_scen);
        let reference = fresh_reference(&golden, &other_driver, &checker, &p, &other_scen);
        assert_eq!(run_other.ok(), reference.ok().map(|(_, run)| run));
        let prepared_other = session.prepared.as_ref().expect("driver prepared");
        assert_eq!(prepared_other.0, other_driver.fingerprint());
    }

    /// A parked session holds no design, yet runs exactly as before.
    #[test]
    fn parking_drops_designs_and_keeps_results() {
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let scen = generate_scenarios(&p, 8);
        let driver = parse(&generate_driver(&p, &scen)).expect("driver");
        let checker = compile_module(&p.golden_module()).expect("checker");
        let dut = parse(&p.golden_rtl).expect("golden");
        let mut session = EvalSession::new(&p, &checker).expect("session");
        let before = check_run(&mut session, &dut, &driver, &checker, &p, &scen);
        session.park();
        assert!(session.prepared.is_none() && session.last_design.is_none());
        assert!(session.sim.is_none(), "a parked session keeps no simulator");
        let after = check_run(&mut session, &dut, &driver, &checker, &p, &scen);
        assert_eq!(before.ok(), after.ok());
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
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // And the free-function wrapper hits the very same entry.
        let c = crate::run_testbench_parsed(&dut, &driver, &checker, &p, &scen).expect("wrapper");
        assert_eq!(a, c);
        assert_eq!(cache.stats().hits, 2);
        // A sweep fingerprints its scenario set once and keys every row
        // the same way: the repeated pair hits again.
        let swept = session.sweep_mutants([&dut, &dut], &driver, &scen);
        assert!(swept.iter().all(|r| r.as_ref().ok() == Some(&a)));
        assert_eq!(cache.stats().hits, 4);
    }
}
