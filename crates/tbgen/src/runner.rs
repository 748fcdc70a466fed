//! The hybrid-testbench runner: simulate DUT + driver, check outputs
//! against the checker's reference model, and produce per-scenario
//! verdicts.
//!
//! This is the execution engine behind everything in the paper that
//! "runs a testbench": Eval1/Eval2 runs, the validator's RS-matrix rows,
//! and the final user-facing verification.

use crate::record::{parse_records, FieldValue, Record};
use crate::scenarios::ScenarioSet;
use correctbench_checker::{step, CheckerProgram, CheckerRunError, CheckerState};
use correctbench_dataset::Problem;
use correctbench_verilog::{
    elaborate, parse, Design, SimError, SimLimits, Simulator, VerilogError,
};
use std::collections::HashMap;
use std::fmt;

/// Per-scenario outcome of a testbench run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioResult {
    /// Every record of the scenario matched the reference.
    Pass,
    /// At least one record mismatched.
    Fail,
    /// The driver produced no records for the scenario.
    Missing,
}

/// Result of running a hybrid testbench against one DUT: its verdicts.
/// The record stream the driver printed is judged and dropped; the
/// reference path [`simulate_records_limited`] returns it when a caller
/// needs the records themselves.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TbRun {
    /// Verdict per scenario (index 0 holds scenario 1).
    pub results: Vec<ScenarioResult>,
    /// Simulation end time.
    pub end_time: u64,
}

impl TbRun {
    /// `true` when every scenario passed.
    pub fn all_pass(&self) -> bool {
        self.results.iter().all(|r| *r == ScenarioResult::Pass)
    }

    /// Indices (1-based) of failing scenarios.
    pub fn failing_scenarios(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == ScenarioResult::Fail)
            .map(|(i, _)| i + 1)
            .collect()
    }
}

/// A testbench run failure.
#[derive(Clone, Debug)]
pub enum TbError {
    /// The DUT or driver failed to parse, elaborate or simulate.
    Verilog(VerilogError),
    /// The checker program itself failed at runtime.
    Checker(CheckerRunError),
}

impl fmt::Display for TbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TbError::Verilog(e) => write!(f, "{e}"),
            TbError::Checker(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TbError {}

impl From<VerilogError> for TbError {
    fn from(e: VerilogError) -> Self {
        TbError::Verilog(e)
    }
}

impl From<CheckerRunError> for TbError {
    fn from(e: CheckerRunError) -> Self {
        TbError::Checker(e)
    }
}

/// Simulates `driver_src` against `dut_src` and returns the captured
/// records.
///
/// # Errors
///
/// Any front-end or simulation failure of the combined sources.
pub fn simulate_records(dut_src: &str, driver_src: &str) -> Result<(Vec<Record>, u64), TbError> {
    let dut = parse(dut_src).map_err(VerilogError::from)?;
    let driver = parse(driver_src).map_err(VerilogError::from)?;
    simulate_records_parsed(&dut, &driver)
}

/// Like [`simulate_records`], for already-parsed sources. Hot paths (the
/// RS matrix builds one row per RTL against the *same* driver; Eval2 runs
/// the same testbench against 10 mutants) parse once and reuse.
///
/// # Errors
///
/// Elaboration or simulation failure of the combined design.
pub fn simulate_records_parsed(
    dut: &correctbench_verilog::ast::SourceFile,
    driver: &correctbench_verilog::ast::SourceFile,
) -> Result<(Vec<Record>, u64), TbError> {
    simulate_records_limited(dut, driver, SimLimits::default())
}

/// [`simulate_records_parsed`] with explicit simulator limits. Testbench
/// runs bound `max_time` to the driver's stimulus schedule so a corrupted
/// driver that lost its `$finish` cannot burn the full default horizon.
///
/// # Errors
///
/// Elaboration or simulation failure of the combined design.
pub fn simulate_records_limited(
    dut: &correctbench_verilog::ast::SourceFile,
    driver: &correctbench_verilog::ast::SourceFile,
    limits: SimLimits,
) -> Result<(Vec<Record>, u64), TbError> {
    let design = elaborate_pair(dut, driver)?;
    let (limits, binding) = budgeted_limits(limits);
    let out = Simulator::with_limits(&design, limits)
        .run()
        .map_err(|e| classify_sim_err(e, binding))?;
    Ok((parse_records(&out.lines), out.end_time))
}

/// Applies the thread's active [`crate::JobBudget`] to one run's
/// limits: clamps `max_steps` when the step budget undercuts the
/// natural limit (the *binding* case) and threads the wall deadline
/// through. Returns the clamped limits and whether the step budget
/// binds — the flag that decides whether an exhaustion is a natural,
/// cacheable `Err` (today's behavior) or a structured job abort.
pub(crate) fn budgeted_limits(mut limits: SimLimits) -> (SimLimits, bool) {
    let budget = crate::install::active_budget();
    let mut binding = false;
    if let Some(b) = budget.max_sim_steps {
        if b < limits.max_steps {
            limits.max_steps = b;
            binding = true;
        }
    }
    if budget.deadline.is_some() {
        limits.deadline = budget.deadline;
    }
    (limits, binding)
}

/// Classifies a simulation error under a budgeted run: a missed wall
/// deadline or a *binding* step-budget exhaustion aborts the job
/// (unwinding before any cache `put`, so the abort can never be
/// memoized); everything else stays an ordinary error.
pub(crate) fn classify_sim_err(err: SimError, binding: bool) -> VerilogError {
    match err {
        SimError::DeadlineExceeded => {
            crate::abort::abort_job(crate::abort::AbortKind::DeadlineExceeded)
        }
        SimError::EventBudgetExhausted if binding => {
            crate::abort::abort_job(crate::abort::AbortKind::SimBudgetExhausted)
        }
        e => VerilogError::Sim(e),
    }
}

/// Combines a DUT with a driver and elaborates the pair under
/// [`crate::driver::TB_MODULE`] — the definition of "the design a
/// testbench run executes". Evaluation sessions never call it: they
/// link each DUT into a once-prepared driver
/// ([`correctbench_verilog::elaborate::PreparedTestbench`]), which is
/// tested to produce exactly this design. It remains the monolithic
/// reference behind [`simulate_records_limited`], the tests and the
/// benches.
///
/// # Errors
///
/// Elaboration failure of the combined design.
pub fn elaborate_pair(
    dut: &correctbench_verilog::ast::SourceFile,
    driver: &correctbench_verilog::ast::SourceFile,
) -> Result<Design, TbError> {
    let mut file = dut.clone();
    file.modules.extend(driver.modules.iter().cloned());
    Ok(elaborate(&file, crate::driver::TB_MODULE).map_err(VerilogError::from)?)
}

/// The simulation-time bound implied by a scenario schedule: every
/// stimulus takes one `#10` step, plus slack for resets and trailing
/// activity.
pub fn limits_for(scenarios: &ScenarioSet) -> SimLimits {
    let stimuli = scenarios.total_stimuli() as u64;
    SimLimits {
        max_time: (stimuli + scenarios.len() as u64 + 32) * 10,
        // Generated DUT mutants can contain runaway procedural loops
        // (e.g. an inverted for-loop step); a tight per-run instruction
        // budget keeps each RS-matrix row cheap. Honest runs use a few
        // hundred instructions per stimulus. A runaway counted loop
        // fails at loop entry instead of spending the budget (see
        // `verilog::sim`), with the same `EventBudgetExhausted`.
        max_steps: 200_000 + stimuli * 20_000,
        ..SimLimits::default()
    }
}

/// Runs the hybrid testbench (driver + checker) against a DUT and returns
/// per-scenario verdicts.
///
/// The checker consumes the *input fields of the records* — what the DUT
/// actually saw — so driver bugs (wrong stimuli, missing scenarios) are
/// observable as `Missing` scenarios rather than silently compensated.
///
/// # Errors
///
/// [`TbError::Verilog`] when the DUT/driver fails the front end or the
/// simulation; [`TbError::Checker`] when the checker program is broken.
pub fn run_testbench(
    dut_src: &str,
    driver_src: &str,
    checker: &CheckerProgram,
    problem: &Problem,
    scenarios: &ScenarioSet,
) -> Result<TbRun, TbError> {
    let dut = parse(dut_src).map_err(VerilogError::from)?;
    let driver = parse(driver_src).map_err(VerilogError::from)?;
    run_testbench_parsed(&dut, &driver, checker, problem, scenarios)
}

/// [`run_testbench`] over already-parsed sources.
///
/// When a [`crate::SimCache`] is installed on the current thread (see
/// [`crate::CacheStack::install`]), the run is memoized under the content
/// address of `(dut, driver, checker, problem ports, scenarios)`: a
/// repeated key returns the stored result without simulating. A run is a
/// pure function of that key, so cached and fresh results are identical.
///
/// # Errors
///
/// As [`run_testbench`].
pub fn run_testbench_parsed(
    dut: &correctbench_verilog::ast::SourceFile,
    driver: &correctbench_verilog::ast::SourceFile,
    checker: &CheckerProgram,
    problem: &Problem,
    scenarios: &ScenarioSet,
) -> Result<TbRun, TbError> {
    let key = crate::cache::with_active(|_| {
        crate::cache::CacheKey::for_run(dut, driver, checker, problem, scenarios)
    });
    if let Some(key) = key {
        if let Some(cached) = crate::cache::with_active(|c| c.get(&key)).flatten() {
            return cached;
        }
        // The cache key already paid the checker/interface visitor
        // walks; hand them to the session acquisition below.
        let fps = Some((key.problem, key.checker));
        let result = run_testbench_uncached(dut, driver, checker, problem, scenarios, fps);
        crate::cache::with_active(|c| c.put(key, result.clone()));
        return result;
    }
    run_testbench_uncached(dut, driver, checker, problem, scenarios, None)
}

fn run_testbench_uncached(
    dut: &correctbench_verilog::ast::SourceFile,
    driver: &correctbench_verilog::ast::SourceFile,
    checker: &CheckerProgram,
    problem: &Problem,
    scenarios: &ScenarioSet,
    fingerprints: Option<(
        correctbench_verilog::Fingerprint,
        correctbench_verilog::Fingerprint,
    )>,
) -> Result<TbRun, TbError> {
    // A leased session: same execution engine as the batch paths, so
    // single-run callers and sweeps produce identical artifacts by
    // construction. Under an installed `EvalContext` even these
    // wrapper calls reuse a pooled compiled checker; without one the
    // lease owns a throwaway session, exactly the old behavior.
    crate::context::acquire_session_keyed(problem, checker, fingerprints)?
        .run_once(dut, driver, scenarios)
}

/// The width a record prints `name` at: its port width, defaulting to 1
/// — the single definition shared by the interpreted and compiled
/// judges.
pub(crate) fn port_width(ports: &[correctbench_dataset::PortSpec], name: &str) -> usize {
    ports.iter().find(|p| p.name == name).map_or(1, |p| p.width)
}

/// Registers every checker input in `binding`, returning its `(slot,
/// printed width)` pairs — the binding-table construction shared by both
/// judges so their record resolution cannot drift.
pub(crate) fn bind_inputs(
    binding: &mut crate::record::RecordBinding,
    checker: &CheckerProgram,
    ports: &[correctbench_dataset::PortSpec],
) -> Vec<(usize, usize)> {
    checker
        .inputs
        .iter()
        .map(|name| (binding.slot(name), port_width(ports, name)))
        .collect()
}

/// The verdict rule for one printed output against its reference value —
/// shared by both judges: a missing field fails, a known value must
/// match exactly, and a printed `x`/`z` is right iff the reference is
/// not fully known.
pub(crate) fn output_ok(
    reference: &correctbench_verilog::LogicVec,
    printed: Option<&FieldValue>,
) -> bool {
    match printed {
        None => false,
        Some(FieldValue::Known(v)) => reference.to_u128() == Some(*v),
        Some(FieldValue::Unknown) => !reference.is_fully_known(),
    }
}

/// Judges already-captured records against the checker, interpreting the
/// IR with [`step`] — the semantic reference the compiled session judge
/// ([`crate::EvalSession`]) is differentially tested against.
pub fn judge_records(
    records: &[Record],
    checker: &CheckerProgram,
    problem: &Problem,
    num_scenarios: usize,
) -> Result<Vec<ScenarioResult>, TbError> {
    let _span = correctbench_obs::span(correctbench_obs::Phase::Judge);
    let mut state = CheckerState::new(checker);
    let mut seen = vec![false; num_scenarios];
    let mut failed = vec![false; num_scenarios];

    // Binding table, resolved once for the whole stream: each checker
    // input and output gets a slot keyed by name plus its port width;
    // per record one pass over the printed fields fills the slots
    // (first occurrence, exactly like `Record::field`) instead of one
    // linear name search per signal per record.
    let mut binding = crate::record::RecordBinding::default();
    let in_binds = bind_inputs(&mut binding, checker, &problem.ports);
    let out_slots: Vec<usize> = checker
        .outputs
        .iter()
        .map(|o| binding.slot(&o.name))
        .collect();

    // One reusable input table: the key set is fixed (the checker's
    // declared inputs), so per record only the values change — no
    // per-record map or key-string allocation.
    let mut inputs: HashMap<String, correctbench_verilog::LogicVec> = HashMap::new();
    for rec in records {
        binding.bind(rec);
        // Build checker inputs from the record's input fields.
        for (name, (slot, width)) in checker.inputs.iter().zip(in_binds.iter()) {
            let v = match binding.field(*slot, rec) {
                Some(fv) => fv.to_logic(*width),
                None => correctbench_verilog::LogicVec::filled_x(*width),
            };
            match inputs.get_mut(name) {
                Some(entry) => *entry = v,
                None => {
                    inputs.insert(name.clone(), v);
                }
            }
        }
        let expected = step(checker, &mut state, &inputs)?;

        let idx = rec.scenario;
        if idx == 0 || idx > num_scenarios {
            continue;
        }
        seen[idx - 1] = true;
        for (out, slot) in checker.outputs.iter().zip(out_slots.iter()) {
            if !output_ok(&expected[&out.name], binding.field(*slot, rec)) {
                failed[idx - 1] = true;
            }
        }
    }

    Ok((0..num_scenarios)
        .map(|i| {
            if !seen[i] {
                ScenarioResult::Missing
            } else if failed[i] {
                ScenarioResult::Fail
            } else {
                ScenarioResult::Pass
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::generate_driver;
    use crate::scenarios::generate_scenarios;
    use correctbench_checker::compile_module;
    use correctbench_dataset::problem;

    fn golden_setup(
        name: &str,
        seed: u64,
    ) -> (
        correctbench_dataset::Problem,
        ScenarioSet,
        String,
        CheckerProgram,
    ) {
        let p = problem(name).expect("problem");
        let scen = generate_scenarios(&p, seed);
        let driver = generate_driver(&p, &scen);
        let checker = compile_module(&p.golden_module()).expect("checker");
        (p, scen, driver, checker)
    }

    #[test]
    fn golden_dut_passes_combinational() {
        let (p, scen, driver, checker) = golden_setup("alu_8", 11);
        let run = run_testbench(&p.golden_rtl, &driver, &checker, &p, &scen).expect("run");
        assert!(run.all_pass(), "results: {:?}", run.results);
    }

    #[test]
    fn golden_dut_passes_sequential() {
        let (p, scen, driver, checker) = golden_setup("counter_8", 13);
        let run = run_testbench(&p.golden_rtl, &driver, &checker, &p, &scen).expect("run");
        assert!(run.all_pass(), "results: {:?}", run.results);
    }

    #[test]
    fn mutant_dut_fails_somewhere() {
        use rand::SeedableRng;
        let (p, scen, driver, checker) = golden_setup("alu_8", 17);
        let mut file = correctbench_verilog::parse(&p.golden_rtl).expect("parse");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = file.module_mut(&p.name).expect("module");
        correctbench_verilog::mutate::mutate_module(m, &mut rng, 2);
        let mutant_src = correctbench_verilog::pretty::print_file(&file);
        let run = run_testbench(&mutant_src, &driver, &checker, &p, &scen).expect("run");
        assert!(
            !run.all_pass(),
            "a 2-site ALU mutant should fail some scenario"
        );
    }

    #[test]
    fn broken_dut_is_verilog_error() {
        let (p, scen, driver, checker) = golden_setup("and_8", 3);
        let broken = p.golden_rtl.replace(';', "");
        let r = run_testbench(&broken, &driver, &checker, &p, &scen);
        assert!(matches!(r, Err(TbError::Verilog(_))));
    }

    #[test]
    fn missing_scenarios_detected() {
        let (p, scen, driver, checker) = golden_setup("and_8", 9);
        // Truncate the driver's stimulus block: drop lines for the last
        // scenario by cutting the source at its comment.
        let marker = format!("// Scenario {}", scen.len());
        let cut = driver.find(&marker).expect("marker");
        let truncated = format!("{}\n$finish;\nend\nendmodule\n", &driver[..cut]);
        let run = run_testbench(&p.golden_rtl, &truncated, &checker, &p, &scen).expect("run");
        assert_eq!(*run.results.last().expect("last"), ScenarioResult::Missing);
        assert!(!run.all_pass());
    }
}
