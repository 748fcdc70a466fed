//! Event-driven simulation of an elaborated [`Design`].
//!
//! The scheduler follows the usual stratified event regions: at each
//! simulation time, *active* events (process resumptions and continuous
//! assignment re-evaluations) run to exhaustion, then queued non-blocking
//! assignments commit as one batch (possibly waking more active events —
//! a delta cycle), and only when both are empty does time advance to the
//! next scheduled delay. Combinational oscillation is caught by a
//! delta-cycle limit; runaway testbenches by a global event budget.
//!
//! # Execution
//!
//! The simulator interprets the elaborated design directly: process
//! bodies are the flat [`Instr`] sequences elaboration produced, and
//! every expression is evaluated by walking its `RExpr` tree with
//! [`eval`]. The design is borrowed (or shared through an [`Arc`]) and
//! never cloned: the executor borrows each instruction from the design
//! while it mutates the value table and the scheduler queues, so no
//! step clones an instruction.
//!
//! The step budget ([`SimLimits::max_steps`]) counts process
//! instructions: one step per instruction executed, plus one when a
//! process runs off the end of its code.
//!
//! # Counted loops
//!
//! A run that is certain to exhaust the budget may fail before spending
//! it. Elaboration marks each process's *counted loops*
//! ([`ProcessDef::loops`], found by [`counted_loops`]): a loop whose
//! counter is tested against a literal, stepped by a literal and written
//! by nothing else, with a body that cannot yield, `$finish` or leave.
//! When such a loop is entered with a known counter, the simulator
//! replays the counter alone in native integers. If the condition would
//! hold for more trips than the remaining budget can pay for (every trip
//! costs at least three instructions), or holds on a cycle of the step
//! such as a fixed point, the run returns [`SimError::EventBudgetExhausted`] at once: the
//! error the full run would reach, since nothing else executes before
//! the process yields. Steps skipped this way are not counted.

use crate::design::*;
use crate::error::SimError;
use crate::logic::{Bit, LogicVec};
use crate::sysfmt::format_display;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Limits protecting the simulator from pathological generated code.
#[derive(Clone, Copy, Debug)]
pub struct SimLimits {
    /// Max delta cycles within one simulation time before
    /// [`SimError::DeltaOverflow`].
    pub max_deltas: usize,
    /// Max total executed instructions before
    /// [`SimError::EventBudgetExhausted`]. A run may fail at the entry
    /// of a counted loop that is certain to pass this budget (see the
    /// module docs); the steps it skips are not counted.
    pub max_steps: u64,
    /// Simulation stops (cleanly) at this time if `$finish` never runs.
    pub max_time: u64,
    /// Optional wall-clock deadline: the run fails with
    /// [`SimError::DeadlineExceeded`] once this instant passes. Checked
    /// every few thousand executed instructions, so enforcement is
    /// approximate — and inherently non-deterministic, unlike the step
    /// budget above.
    pub deadline: Option<std::time::Instant>,
}

impl Default for SimLimits {
    fn default() -> Self {
        SimLimits {
            max_deltas: 4096,
            max_steps: 10_000_000,
            max_time: 1_000_000,
            deadline: None,
        }
    }
}

/// The result of a completed simulation.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Lines captured from `$display`/`$fdisplay`/`$write`/`$fwrite`.
    pub lines: Vec<String>,
    /// Final simulation time.
    pub end_time: u64,
    /// `true` when the run ended via `$finish` (vs. event exhaustion or
    /// hitting `max_time`).
    pub finished: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProcStatus {
    Ready,
    Waiting,
    Done,
}

struct ProcState {
    pc: usize,
    status: ProcStatus,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Activation {
    Process(usize),
    Assign(usize),
}

/// Watcher entry: who wakes when a signal changes.
#[derive(Clone, Copy, Debug)]
enum Watcher {
    /// Continuous assignment index (level-sensitive, permanent).
    Assign(usize),
    /// Process waiting on an edge (one-shot; re-armed by `WaitEvent`).
    Process { idx: usize, edge: crate::ast::Edge },
}

/// Either a borrowed design (one-shot runs) or a shared handle (the
/// session hot path: the simulator co-owns an `Arc` so it is `'static`
/// and can live inside a long-lived session next to the cache entry it
/// executes).
enum DesignRef<'d> {
    Borrowed(&'d Design),
    Shared(Arc<Design>),
}

impl DesignRef<'_> {
    fn get(&self) -> &Design {
        match self {
            DesignRef::Borrowed(d) => d,
            DesignRef::Shared(d) => d,
        }
    }
}

/// An event-driven simulator over an elaborated design.
///
/// # Examples
///
/// One-shot simulation from a [`Design`]:
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use correctbench_verilog::{parse, elaborate, Simulator};
///
/// let src = "
///   module tb;
///     reg [3:0] a;
///     wire [3:0] y;
///     assign y = a + 4'd1;
///     initial begin
///       a = 4'd2;
///       #1 $display(\"y=%0d\", y);
///       $finish;
///     end
///   endmodule";
/// let design = elaborate(&parse(src)?, "tb")?;
/// let out = Simulator::new(&design).run()?;
/// assert_eq!(out.lines, vec!["y=3".to_string()]);
/// # Ok(())
/// # }
/// ```
///
/// Elaborate once, run many (the harness hot path — a shared design
/// and one simulator rewound with [`Simulator::reset`] between runs):
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use correctbench_verilog::{parse, elaborate, Simulator};
/// use std::sync::Arc;
///
/// let src = "module tb; initial begin $display(\"hi\"); $finish; end endmodule";
/// let design = Arc::new(elaborate(&parse(src)?, "tb")?);
/// let mut sim = Simulator::from_design(Arc::clone(&design));
/// for _ in 0..3 {
///     assert_eq!(sim.run()?.lines, vec!["hi"]);
///     sim.reset();
/// }
/// # Ok(())
/// # }
/// ```
pub struct Simulator<'d> {
    design: DesignRef<'d>,
    state: SimState,
}

impl<'d> Simulator<'d> {
    /// Creates a simulator over a borrowed design with default
    /// [`SimLimits`]. Construction allocates only the value table and
    /// the scheduler state.
    pub fn new(design: &'d Design) -> Self {
        Self::with_limits(design, SimLimits::default())
    }

    /// [`Simulator::new`] with explicit limits.
    pub fn with_limits(design: &'d Design, limits: SimLimits) -> Self {
        Simulator {
            state: SimState::new(design, limits),
            design: DesignRef::Borrowed(design),
        }
    }

    /// Creates a `'static` simulator that co-owns a shared design: the
    /// session constructor. Pair with [`Simulator::reset`] to sweep many
    /// runs over one design without reconstructing the value table or
    /// the scheduler queues.
    pub fn from_design(design: Arc<Design>) -> Simulator<'static> {
        Self::from_design_with_limits(design, SimLimits::default())
    }

    /// [`Simulator::from_design`] with explicit limits.
    pub fn from_design_with_limits(design: Arc<Design>, limits: SimLimits) -> Simulator<'static> {
        Simulator {
            state: SimState::new(&design, limits),
            design: DesignRef::Shared(design),
        }
    }

    /// Replaces the simulation limits for the next run (sessions bound
    /// `max_time` per scenario schedule).
    pub fn set_limits(&mut self, limits: SimLimits) {
        self.state.limits = limits;
    }

    /// `true` when this simulator executes the shared `design` (sessions
    /// use this to decide between [`Simulator::reset`] and
    /// reconstruction).
    pub fn shares(&self, design: &Arc<Design>) -> bool {
        match &self.design {
            DesignRef::Shared(d) => Arc::ptr_eq(d, design),
            DesignRef::Borrowed(_) => false,
        }
    }

    /// Reads a signal's current value (test and harness access).
    pub fn value(&self, sig: SignalId) -> &LogicVec {
        &self.state.values[sig.0 as usize]
    }

    /// Runs to `$finish`, event exhaustion, or `max_time`.
    ///
    /// Runs continue from the current state: a freshly constructed (or
    /// [`reset`](Simulator::reset)) simulator performs a whole
    /// simulation; calling `run` again after completion without a reset
    /// observes the final state and returns immediately-empty output.
    ///
    /// # Errors
    ///
    /// [`SimError::DeltaOverflow`] on combinational loops,
    /// [`SimError::EventBudgetExhausted`] when the instruction budget runs
    /// out (runaway zero-delay loops) or a counted loop is entered that
    /// is certain to run it out.
    pub fn run(&mut self) -> Result<SimOutput, SimError> {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Simulate);
        let Simulator { design, state } = self;
        let steps_before = state.steps;
        let out = state.run(design.get());
        // Flush the run's work volumes to the job's collector (inert
        // when none is armed). The accumulators are pure measurement
        // fields, zeroed after flush so a session's next run reports its
        // own delta.
        correctbench_obs::add(
            correctbench_obs::Counter::SimInstrs,
            state.steps - steps_before,
        );
        correctbench_obs::add(
            correctbench_obs::Counter::SimEvents,
            std::mem::take(&mut state.events),
        );
        correctbench_obs::add(
            correctbench_obs::Counter::NbaCommits,
            std::mem::take(&mut state.nba_commits),
        );
        correctbench_obs::add(
            correctbench_obs::Counter::SimLoopShortcuts,
            std::mem::take(&mut state.loop_shortcuts),
        );
        match &out {
            Err(SimError::EventBudgetExhausted) => {
                correctbench_obs::add(correctbench_obs::Counter::SimExhaustedRuns, 1)
            }
            Err(SimError::DeltaOverflow { .. }) => {
                correctbench_obs::add(correctbench_obs::Counter::SimOverflowRuns, 1)
            }
            _ => {}
        }
        out
    }

    /// Rewinds every piece of mutable simulation state to power-on —
    /// value table back to all-x, scheduler queues, watcher lists,
    /// captured lines, time and budgets all cleared — **without
    /// releasing any allocation** that still fits. A reset simulator is
    /// observationally identical to a newly constructed one (pinned by
    /// `reset_replays_identically`); the point is that a session
    /// sweeping N runs pays the table setup once, not N times.
    pub fn reset(&mut self) {
        let Simulator { design, state } = self;
        state.reset(design.get());
    }
}

/// All mutable simulation state, split from the (shared, immutable)
/// design so the executor borrows instead of cloning: an instruction
/// reference from the design and mutable access to values and scheduler
/// queues coexist without any per-step `Instr`/`RExpr` clone.
struct SimState {
    values: Vec<LogicVec>,
    time: u64,
    procs: Vec<ProcState>,
    sig_watchers: Vec<Vec<Watcher>>,
    active: VecDeque<Activation>,
    /// Pending NBA commits: (signal, low bit, value).
    nba: Vec<(SignalId, usize, LogicVec)>,
    /// Drain buffer the NBA queue swaps into each delta, so neither
    /// vector ever gives its capacity back mid-run.
    nba_scratch: Vec<(SignalId, usize, LogicVec)>,
    timed: BinaryHeap<std::cmp::Reverse<(u64, u64, usize)>>,
    seq: u64,
    lines: Vec<String>,
    finished: bool,
    limits: SimLimits,
    steps: u64,
    /// Activations processed since the last observability flush
    /// (measurement only — never read by simulation logic).
    events: u64,
    /// NBA commits applied since the last observability flush
    /// (measurement only).
    nba_commits: u64,
    /// Counted-loop entries failed early since the last observability
    /// flush (measurement only).
    loop_shortcuts: u64,
}

impl SimState {
    fn new(design: &Design, limits: SimLimits) -> SimState {
        let values = design
            .signals
            .iter()
            .map(|s| LogicVec::filled_x(s.width))
            .collect();
        let procs = design
            .processes
            .iter()
            .map(|_| ProcState {
                pc: 0,
                status: ProcStatus::Ready,
            })
            .collect();
        let mut sig_watchers: Vec<Vec<Watcher>> = vec![Vec::new(); design.signals.len()];
        for (i, a) in design.assigns.iter().enumerate() {
            for s in &a.reads {
                sig_watchers[s.0 as usize].push(Watcher::Assign(i));
            }
        }
        SimState {
            values,
            time: 0,
            procs,
            sig_watchers,
            active: VecDeque::new(),
            nba: Vec::new(),
            nba_scratch: Vec::new(),
            timed: BinaryHeap::new(),
            seq: 0,
            lines: Vec::new(),
            finished: false,
            limits,
            steps: 0,
            events: 0,
            nba_commits: 0,
            loop_shortcuts: 0,
        }
    }

    /// Rewinds to power-on state in place, preserving allocations: the
    /// value table keeps its buffers, watcher lists are rebuilt with
    /// their capacity, queues are cleared.
    fn reset(&mut self, design: &Design) {
        for (slot, sig) in self.values.iter_mut().zip(design.signals.iter()) {
            debug_assert_eq!(slot.width(), sig.width.max(1));
            slot.set_all_x();
        }
        self.time = 0;
        for p in &mut self.procs {
            p.pc = 0;
            p.status = ProcStatus::Ready;
        }
        for ws in &mut self.sig_watchers {
            ws.clear();
        }
        for (i, a) in design.assigns.iter().enumerate() {
            for s in &a.reads {
                self.sig_watchers[s.0 as usize].push(Watcher::Assign(i));
            }
        }
        self.active.clear();
        self.nba.clear();
        self.nba_scratch.clear();
        self.timed.clear();
        self.seq = 0;
        self.lines.clear();
        self.finished = false;
        self.steps = 0;
        self.events = 0;
        self.nba_commits = 0;
        self.loop_shortcuts = 0;
    }

    /// Fails the run if the optional wall-clock deadline has passed.
    /// Called at a coarse cadence (every 4096 executed instructions and
    /// once per simulated time step) so the `Instant::now()` cost stays
    /// off the hot path when no deadline is set.
    fn check_deadline(&self) -> Result<(), SimError> {
        match self.limits.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(SimError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    fn run(&mut self, design: &Design) -> Result<SimOutput, SimError> {
        // Time zero: all continuous assignments evaluate once, every
        // process starts.
        for i in 0..design.assigns.len() {
            self.active.push_back(Activation::Assign(i));
        }
        for i in 0..design.processes.len() {
            self.active.push_back(Activation::Process(i));
        }
        self.settle(design)?;
        while !self.finished {
            let Some(std::cmp::Reverse((t, _, proc))) = self.timed.pop() else {
                break;
            };
            if t > self.limits.max_time {
                break;
            }
            if self.limits.deadline.is_some() {
                self.check_deadline()?;
            }
            self.time = t;
            self.procs[proc].status = ProcStatus::Ready;
            self.active.push_back(Activation::Process(proc));
            // Pull in everything else scheduled for the same instant.
            while let Some(std::cmp::Reverse((t2, _, _))) = self.timed.peek() {
                if *t2 != t {
                    break;
                }
                let Some(std::cmp::Reverse((_, _, p2))) = self.timed.pop() else {
                    break;
                };
                self.procs[p2].status = ProcStatus::Ready;
                self.active.push_back(Activation::Process(p2));
            }
            self.settle(design)?;
        }
        Ok(SimOutput {
            lines: std::mem::take(&mut self.lines),
            end_time: self.time,
            finished: self.finished,
        })
    }

    /// Runs the active/NBA delta loop at the current time.
    fn settle(&mut self, design: &Design) -> Result<(), SimError> {
        let mut deltas = 0usize;
        // Oscillation through continuous assignments alone never touches
        // the NBA queue, so the activation count itself must be bounded.
        let mut activations = 0usize;
        let activation_budget = self
            .limits
            .max_deltas
            .saturating_mul(design.assigns.len() + design.processes.len() + 1);
        loop {
            while let Some(act) = self.active.pop_front() {
                if self.finished {
                    return Ok(());
                }
                activations += 1;
                self.events += 1;
                if activations > activation_budget {
                    return Err(SimError::DeltaOverflow { time: self.time });
                }
                match act {
                    Activation::Assign(i) => self.eval_assign(design, i),
                    Activation::Process(i) => self.run_process(design, i)?,
                }
            }
            if self.nba.is_empty() {
                return Ok(());
            }
            deltas += 1;
            if deltas > self.limits.max_deltas {
                return Err(SimError::DeltaOverflow { time: self.time });
            }
            std::mem::swap(&mut self.nba, &mut self.nba_scratch);
            self.nba_commits += self.nba_scratch.len() as u64;
            for i in 0..self.nba_scratch.len() {
                let (sig, lo, value) = std::mem::replace(
                    &mut self.nba_scratch[i],
                    (SignalId(0), 0, LogicVec::zeros(1)),
                );
                self.commit_bits(sig, lo, &value);
            }
            self.nba_scratch.clear();
        }
    }

    // ---- execution ----

    /// A read-only view of the value table for [`eval`].
    fn store(&self) -> ValueStore<'_> {
        ValueStore {
            values: &self.values,
            time: self.time,
        }
    }

    /// Evaluates the right-hand side of an assignment to `lhs`: sized
    /// to the wider of the two sides, then resized to the target width.
    fn eval_rhs(&self, design: &Design, lhs: &RLValue, rhs: &RExpr) -> LogicVec {
        let lhs_width = lhs.width(design);
        eval(rhs, lhs_width.max(rhs.width), &self.store()).resize(lhs_width, rhs.signed)
    }

    fn eval_assign(&mut self, design: &Design, i: usize) {
        let a = &design.assigns[i];
        let value = self.eval_rhs(design, &a.lhs, &a.rhs);
        self.write_lvalue(design, &a.lhs, value);
    }

    fn run_process(&mut self, design: &Design, i: usize) -> Result<(), SimError> {
        let loops = &design.processes[i].loops;
        // The pc executed just before this one in this activation, so a
        // loop head can tell entry from its own back edge.
        let mut prev_pc = usize::MAX;
        loop {
            self.steps += 1;
            if self.steps > self.limits.max_steps {
                return Err(SimError::EventBudgetExhausted);
            }
            if self.steps & 0xFFF == 0 {
                self.check_deadline()?;
            }
            let pc = self.procs[i].pc;
            let Some(instr) = design.processes[i].code.get(pc) else {
                self.procs[i].status = ProcStatus::Done;
                return Ok(());
            };
            match instr {
                Instr::Assign(lhs, rhs) => {
                    let v = self.eval_rhs(design, lhs, rhs);
                    self.write_lvalue(design, lhs, v);
                    self.procs[i].pc = pc + 1;
                }
                Instr::NbAssign(lhs, rhs) => {
                    let v = self.eval_rhs(design, lhs, rhs);
                    self.schedule_nba(design, lhs, v);
                    self.procs[i].pc = pc + 1;
                }
                Instr::JumpIfFalse(cond, target) => {
                    if let Some(l) = loops.iter().find(|l| l.head == pc) {
                        if prev_pc != l.back_edge && self.loop_must_exhaust(l) {
                            self.loop_shortcuts += 1;
                            return Err(SimError::EventBudgetExhausted);
                        }
                    }
                    let store = self.store();
                    let t = eval(cond, cond.width, &store).truthy();
                    self.procs[i].pc = if t == Bit::One { pc + 1 } else { *target };
                }
                Instr::Jump(target) => {
                    self.procs[i].pc = *target;
                }
                Instr::CaseJump {
                    expr,
                    kind,
                    arms,
                    default,
                } => {
                    let store = self.store();
                    let sel_w = arms
                        .iter()
                        .flat_map(|(ls, _)| ls.iter().map(|l| l.width))
                        .fold(expr.width, usize::max);
                    let sel = eval(expr, sel_w, &store);
                    let mut target = *default;
                    'arms: for (labels, t) in arms {
                        for l in labels {
                            let lv = eval(l, sel_w, &store);
                            let hit = match kind {
                                crate::ast::CaseKind::Case => sel.eq_case(&lv) == Bit::One,
                                crate::ast::CaseKind::Casez => sel.casez_match(&lv),
                                crate::ast::CaseKind::Casex => sel.casex_match(&lv),
                            };
                            if hit {
                                target = *t;
                                break 'arms;
                            }
                        }
                    }
                    self.procs[i].pc = target;
                }
                Instr::Delay(d) => {
                    self.procs[i].pc = pc + 1;
                    self.procs[i].status = ProcStatus::Waiting;
                    self.seq += 1;
                    self.timed
                        .push(std::cmp::Reverse((self.time + d, self.seq, i)));
                    return Ok(());
                }
                Instr::WaitEvent(edges) => {
                    self.procs[i].pc = pc + 1;
                    self.procs[i].status = ProcStatus::Waiting;
                    for (edge, sig) in edges {
                        self.sig_watchers[sig.0 as usize].push(Watcher::Process {
                            idx: i,
                            edge: *edge,
                        });
                    }
                    return Ok(());
                }
                Instr::SysCall { name, args } => {
                    if is_display(name) {
                        let line = self.render(args, display_skip(name));
                        self.lines.push(line);
                    }
                    self.syscall_effect(name);
                    if self.finished {
                        return Ok(());
                    }
                    self.procs[i].pc = pc + 1;
                }
                Instr::Halt => {
                    self.procs[i].status = ProcStatus::Done;
                    return Ok(());
                }
            }
            prev_pc = pc;
        }
    }

    /// Whether the counted loop `l`, whose head has just been counted on
    /// entry, is certain to exhaust the step budget. Every trip executes
    /// at least the head, the step and the back edge, so a condition
    /// that holds for `remaining / 3 + 1` consecutive trips takes the
    /// run past `max_steps` before the loop can exit; nothing else runs
    /// in between, since the body cannot yield or `$finish`.
    fn loop_must_exhaust(&self, l: &CountedLoop) -> bool {
        let Some(start) = self.values[l.var.0 as usize].to_u64() else {
            return false;
        };
        let remaining = self.limits.max_steps.saturating_sub(self.steps);
        l.outruns(start, remaining / 3 + 1)
    }

    fn render(&self, args: &[RSysArg], skip: usize) -> String {
        let store = self.store();
        let args = &args[skip.min(args.len())..];
        let (fmt, rest): (&str, &[RSysArg]) = match args.first() {
            Some(RSysArg::Str(s)) => (s, &args[1..]),
            _ => {
                // No format string: default-format every argument.
                let mut parts = Vec::new();
                for a in args {
                    if let RSysArg::Expr(e) = a {
                        parts.push(eval(e, e.width, &store).to_decimal_string());
                    }
                }
                return parts.join(" ");
            }
        };
        let values: Vec<LogicVec> = rest
            .iter()
            .filter_map(|a| match a {
                RSysArg::Expr(e) => Some(eval(e, e.width, &store)),
                RSysArg::Str(_) => None,
            })
            .collect();
        format_display(fmt, &values, self.time)
    }

    fn write_lvalue(&mut self, design: &Design, lhs: &RLValue, value: LogicVec) {
        match lhs {
            RLValue::Sig(s) => self.commit_bits(*s, 0, &value),
            RLValue::Part(s, lo, w) => self.commit_bits(*s, *lo, &value.slice(0, *w)),
            RLValue::Bit(s, idx) => {
                let i = eval(idx, idx.width, &self.store());
                if let Some(i) = i.to_u64() {
                    let width = design.signal(*s).width;
                    if (i as usize) < width {
                        self.commit_bits(*s, i as usize, &value.slice(0, 1));
                    }
                }
            }
            RLValue::IndexedPart(s, base, w) => {
                let b = eval(base, base.width, &self.store());
                if let Some(lo) = b.to_u64() {
                    self.commit_bits(*s, lo as usize, &value.slice(0, *w));
                }
            }
            RLValue::Concat(parts) => {
                // MSB-first: the last part takes the low bits.
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = part.width(design);
                    let chunk = value.slice(lo, w);
                    self.write_lvalue(design, part, chunk);
                    lo += w;
                }
            }
        }
    }

    fn schedule_nba(&mut self, design: &Design, lhs: &RLValue, value: LogicVec) {
        match lhs {
            RLValue::Sig(s) => self.nba.push((*s, 0, value)),
            RLValue::Part(s, lo, w) => self.nba.push((*s, *lo, value.slice(0, *w))),
            RLValue::Bit(s, idx) => {
                let i = eval(idx, idx.width, &self.store());
                if let Some(i) = i.to_u64() {
                    let width = design.signal(*s).width;
                    if (i as usize) < width {
                        self.nba.push((*s, i as usize, value.slice(0, 1)));
                    }
                }
            }
            RLValue::IndexedPart(s, base, w) => {
                let b = eval(base, base.width, &self.store());
                if let Some(lo) = b.to_u64() {
                    self.nba.push((*s, lo as usize, value.slice(0, *w)));
                }
            }
            RLValue::Concat(parts) => {
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = part.width(design);
                    let chunk = value.slice(lo, w);
                    self.schedule_nba(design, part, chunk);
                    lo += w;
                }
            }
        }
    }

    // ---- scheduling ----

    /// Applies a system task's scheduler effect (display rendering is
    /// handled by the caller).
    fn syscall_effect(&mut self, name: &str) {
        match name {
            "$finish" | "$stop" => {
                self.finished = true;
            }
            "$monitor" | "$fopen" | "$fclose" | "$dumpfile" | "$dumpvars" => {
                // Accepted but inert: generated testbenches sometimes emit
                // these; Icarus would honour them, we do not need to.
            }
            _ => {}
        }
    }

    /// Writes `bits` into `sig` starting at `lo`, firing watchers when the
    /// stored value actually changes. In place — no clone of the stored
    /// value, no allocation.
    fn commit_bits(&mut self, sig: SignalId, lo: usize, bits: &LogicVec) {
        let slot = &mut self.values[sig.0 as usize];
        if lo >= slot.width() {
            return;
        }
        let old_lsb = slot.bit(0);
        if !slot.write_range(lo, bits, bits.width()) {
            return;
        }
        let new_lsb = slot.bit(0);

        // Wake watchers. Edge-qualified watchers look at bit 0 (clocks and
        // resets are 1-bit in practice). The list is compacted in place —
        // taken out for the duration of the walk (wakes mutate other
        // state), then put back with its allocation intact.
        let mut watchers = std::mem::take(&mut self.sig_watchers[sig.0 as usize]);
        let mut kept = 0usize;
        for i in 0..watchers.len() {
            let w = watchers[i];
            let keep = match w {
                Watcher::Assign(i) => {
                    self.active.push_back(Activation::Assign(i));
                    true
                }
                Watcher::Process { idx, edge } => {
                    let fire = match edge {
                        crate::ast::Edge::Any => true,
                        crate::ast::Edge::Pos => old_lsb != Bit::One && new_lsb == Bit::One,
                        crate::ast::Edge::Neg => old_lsb != Bit::Zero && new_lsb == Bit::Zero,
                    };
                    if fire && self.procs[idx].status == ProcStatus::Waiting {
                        self.procs[idx].status = ProcStatus::Ready;
                        self.active.push_back(Activation::Process(idx));
                        self.remove_process_watchers(idx, sig);
                        false
                    } else {
                        // A firing watcher whose process already woke via
                        // another signal this delta is stale either way.
                        !fire
                    }
                }
            };
            if keep {
                watchers[kept] = w;
                kept += 1;
            }
        }
        watchers.truncate(kept);
        self.sig_watchers[sig.0 as usize] = watchers;
    }

    /// Removes the remaining one-shot watchers of `proc` from every other
    /// signal (it woke via `except`, whose list is being rebuilt by the
    /// caller).
    fn remove_process_watchers(&mut self, proc: usize, except: SignalId) {
        for (s, ws) in self.sig_watchers.iter_mut().enumerate() {
            if s == except.0 as usize {
                continue;
            }
            ws.retain(|w| !matches!(w, Watcher::Process { idx, .. } if *idx == proc));
        }
    }
}

/// Signal-value view the tree evaluator reads from.
struct ValueStore<'a> {
    values: &'a [LogicVec],
    time: u64,
}

impl SigRead for ValueStore<'_> {
    fn read(&self, id: SignalId) -> &LogicVec {
        &self.values[id.0 as usize]
    }
    fn now(&self) -> u64 {
        self.time
    }
}

/// Display-family system tasks that render a line.
fn is_display(name: &str) -> bool {
    matches!(name, "$display" | "$write" | "$fdisplay" | "$fwrite")
}

/// `$fdisplay`/`$fwrite` take a file descriptor first; we capture
/// everything into one stream.
fn display_skip(name: &str) -> usize {
    match name {
        "$fdisplay" | "$fwrite" => 1,
        _ => 0,
    }
}

/// Convenience: parse, elaborate and simulate `src` with `top` as the root.
///
/// # Errors
///
/// Any [`crate::error::VerilogError`] from the front end or the run.
pub fn run_source(src: &str, top: &str) -> Result<SimOutput, crate::error::VerilogError> {
    let file = crate::parser::parse(src)?;
    let design = crate::elaborate::elaborate(&file, top)?;
    Ok(Simulator::new(&design).run()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, top: &str) -> SimOutput {
        run_source(src, top).expect("simulation ok")
    }

    #[test]
    fn combinational_assign() {
        let out = run(
            "module tb;\nreg [3:0] a, b;\nwire [3:0] y;\nassign y = a + b;\ninitial begin\na = 4'd3; b = 4'd4;\n#1 $display(\"y=%0d\", y);\na = 4'd9;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["y=7", "y=13"]);
        assert!(out.finished);
    }

    #[test]
    fn clocked_register() {
        let out = run(
            "module tb;\nreg clk, d;\nreg q;\nalways @(posedge clk) q <= d;\ninitial begin\nclk = 0; d = 1;\n#1 $display(\"q=%b\", q);\n#4 clk = 1;\n#1 $display(\"q=%b\", q);\nd = 0;\n#4 clk = 0;\n#5 clk = 1;\n#1 $display(\"q=%b\", q);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["q=x", "q=1", "q=0"]);
    }

    #[test]
    fn nonblocking_swap() {
        let out = run(
            "module tb;\nreg clk;\nreg [3:0] a, b;\nalways @(posedge clk) begin a <= b; b <= a; end\ninitial begin\nclk = 0; a = 4'd1; b = 4'd2;\n#5 clk = 1;\n#1 $display(\"a=%0d b=%0d\", a, b);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["a=2 b=1"]);
    }

    #[test]
    fn clock_generator_and_counter() {
        let out = run(
            "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [7:0] n = 0;\nalways @(posedge clk) n <= n + 8'd1;\ninitial begin\n#52 $display(\"n=%0d\", n);\n$finish;\nend\nendmodule",
            "tb",
        );
        // Posedges at 5,15,25,35,45 -> n == 5 at t=52.
        assert_eq!(out.lines, vec!["n=5"]);
    }

    #[test]
    fn dut_instance() {
        let out = run(
            "module add1(input [3:0] a, output [3:0] y);\nassign y = a + 4'd1;\nendmodule\nmodule tb;\nreg [3:0] a;\nwire [3:0] y;\nadd1 dut(.a(a), .y(y));\ninitial begin\na = 4'd7;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["y=8"]);
    }

    #[test]
    fn always_star_mux() {
        let out = run(
            "module tb;\nreg s;\nreg [3:0] a, b;\nreg [3:0] y;\nalways @(*) begin if (s) y = a; else y = b; end\ninitial begin\na = 4'd10; b = 4'd5; s = 0;\n#1 $display(\"y=%0d\", y);\ns = 1;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["y=5", "y=10"]);
    }

    #[test]
    fn combinational_loop_detected() {
        let r = run_source(
            "module tb;\nwire a, b;\nassign a = ~b;\nassign b = ~a;\ninitial #1 $finish;\nendmodule",
            "tb",
        );
        // a and b start x; ~x = x, so this particular loop actually
        // settles. Make a real oscillator with known values instead.
        assert!(r.is_ok());
        // A ring that escapes the x fixpoint via ===, then oscillates.
        let r2 = run_source(
            "module tb;\nwire a, b;\nassign a = (b === 1'bx) ? 1'b0 : ~b;\nassign b = a;\ninitial #1 $finish;\nendmodule",
            "tb",
        );
        match r2 {
            Err(crate::error::VerilogError::Sim(SimError::DeltaOverflow { .. })) => {}
            other => panic!("expected delta overflow, got {other:?}"),
        }
    }

    #[test]
    fn zero_delay_runaway_caught() {
        let src =
            "module tb;\nreg x;\ninitial begin x = 0; forever begin #0; x = ~x; end end\nendmodule";
        // #0 delays still advance the queue at the same time; the step
        // budget eventually trips.
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, "tb").expect("elab");
        let limits = SimLimits {
            max_steps: 10_000,
            ..SimLimits::default()
        };
        let r = Simulator::with_limits(&design, limits).run();
        assert!(matches!(r, Err(SimError::EventBudgetExhausted)));
    }

    #[test]
    fn for_loop_popcount() {
        let out = run(
            "module tb;\nreg [7:0] v;\nreg [3:0] n;\ninteger i;\ninitial begin\nv = 8'b1011_0110;\nn = 0;\nfor (i = 0; i < 8; i = i + 1) if (v[i]) n = n + 1;\n$display(\"n=%0d\", n);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["n=5"]);
    }

    #[test]
    fn case_statement() {
        let out = run(
            "module tb;\nreg [1:0] s;\nreg [3:0] y;\nalways @(*) begin\ncase (s)\n2'd0: y = 4'd1;\n2'd1: y = 4'd2;\ndefault: y = 4'd15;\nendcase\nend\ninitial begin\ns = 2'd0; #1 $display(\"%0d\", y);\ns = 2'd1; #1 $display(\"%0d\", y);\ns = 2'd3; #1 $display(\"%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["1", "2", "15"]);
    }

    #[test]
    fn event_wait_in_initial() {
        let out = run(
            "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\ninitial begin\n@(posedge clk);\n$display(\"t=%0d\", $time);\n@(posedge clk);\n$display(\"t=%0d\", $time);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["t=5", "t=15"]);
    }

    #[test]
    fn part_select_write() {
        let out = run(
            "module tb;\nreg [7:0] v;\ninitial begin\nv = 8'h00;\nv[3:0] = 4'hf;\nv[6] = 1'b1;\n$display(\"%h\", v);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["4f"]);
    }

    #[test]
    fn concat_lvalue() {
        let out = run(
            "module tb;\nreg [3:0] hi, lo;\ninitial begin\n{hi, lo} = 8'hA5;\n$display(\"%h %h\", hi, lo);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["a 5"]);
    }

    #[test]
    fn max_time_stops_unfinished_run() {
        let src = "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nendmodule";
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, "tb").expect("elab");
        let limits = SimLimits {
            max_time: 100,
            ..SimLimits::default()
        };
        let out = Simulator::with_limits(&design, limits).run().expect("run");
        assert!(!out.finished);
        assert!(out.end_time <= 105);
    }

    #[test]
    fn sequential_sr_with_sync_reset() {
        let out = run(
            "module tb;\nreg clk = 0, rst;\nalways #5 clk = ~clk;\nreg [3:0] q;\nalways @(posedge clk) begin\nif (rst) q <= 4'd0; else q <= q + 4'd1;\nend\ninitial begin\nrst = 1;\n#12 rst = 0;\n#40 $display(\"q=%0d\", q);\n$finish;\nend\nendmodule",
            "tb",
        );
        // Posedges: 5 (rst), 15,25,35,45 counting -> q=4 at t=52.
        assert_eq!(out.lines, vec!["q=4"]);
    }

    #[test]
    fn wide_arithmetic_and_selects() {
        let out = run(
            "module tb;\nreg [99:0] a, b;\nwire [99:0] s;\nassign s = a + b;\ninitial begin\na = 100'd1;\nb = 100'd0;\na = a << 64;\nb = 100'd5;\n#1 $display(\"%0d %0d\", s[99:60], s[7:0]);\n$display(\"%b\", s[64]);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["16 5", "1"]);
    }

    #[test]
    fn hot_path_has_no_per_step_clones() {
        // An earlier simulator deep-cloned every executed `Instr` and the
        // continuous-assign target. Both borrow now; this source scan
        // keeps the regression from sneaking back in. (The needles are
        // assembled at runtime so the scan does not match its own
        // source.)
        let src = include_str!("sim.rs");
        for needle in [
            format!("instr{}", ".clone"),
            format!("lhs{}", ".clone"),
            format!("code{}", ".clone"),
        ] {
            assert!(
                src.matches(&needle).count() == 0,
                "per-step clone `{needle}` reintroduced in the simulator hot path"
            );
        }
    }

    #[test]
    fn reset_replays_identically() {
        // A reset simulator must be observationally identical to a fresh
        // one — including after runs that *errored* or hit limits. Sequential design with NBA
        // traffic, event waits and timed activity exercises every queue.
        let src = "module tb;\nreg clk = 0, rst;\nalways #5 clk = ~clk;\nreg [7:0] q;\nwire [7:0] y;\nassign y = q ^ 8'h0f;\nalways @(posedge clk) begin\nif (rst) q <= 8'd0; else q <= q + 8'd3;\nend\ninitial begin\nrst = 1;\n#12 rst = 0;\n#40 $display(\"q=%0d y=%0d t=%0d\", q, y, $time);\n$finish;\nend\nendmodule";
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, "tb").expect("elab");
        let design = Arc::new(design);

        let reference = Simulator::new(&design).run().expect("fresh");
        let mut sim = Simulator::from_design(Arc::clone(&design));
        assert!(sim.shares(&design));
        for round in 0..3 {
            let out = sim.run().expect("session run");
            assert_eq!(out.lines, reference.lines, "round {round}");
            assert_eq!(out.end_time, reference.end_time, "round {round}");
            assert_eq!(out.finished, reference.finished, "round {round}");
            sim.reset();
        }

        // Interleave an errored run (step budget) and confirm reset still
        // restores a clean replay afterwards.
        sim.set_limits(SimLimits {
            max_steps: 10,
            ..SimLimits::default()
        });
        assert!(sim.run().is_err(), "tiny budget must trip");
        sim.set_limits(SimLimits::default());
        sim.reset();
        let after_err = sim.run().expect("post-error run");
        assert_eq!(after_err.lines, reference.lines);
        assert_eq!(after_err.end_time, reference.end_time);
    }

    #[test]
    fn run_after_completion_without_reset_is_inert() {
        let src = "module tb;\ninitial begin $display(\"once\"); $finish; end\nendmodule";
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, "tb").expect("elab");
        let mut sim = Simulator::from_design(Arc::new(design));
        assert_eq!(sim.run().expect("first").lines, vec!["once"]);
        // No reset: the finished flag stands, nothing re-executes.
        assert!(sim.run().expect("second").lines.is_empty());
        sim.reset();
        assert_eq!(sim.run().expect("third").lines, vec!["once"]);
    }

    #[test]
    fn simulator_run_keeps_old_api_shape() {
        let out = run(
            "module tb;\ninitial begin $display(\"ok\"); $finish; end\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["ok"]);
    }
}
