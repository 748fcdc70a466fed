//! Elaborated design representation and expression evaluation.
//!
//! Elaboration flattens the module hierarchy into a [`Design`]: a table of
//! signals, a list of continuous assignments, and a list of processes whose
//! bodies are lowered to flat instruction lists ([`Instr`]) so that the
//! event simulator can suspend them at delays and event controls and
//! resume them later. The simulator executes this form directly.
//! Elaboration also marks each process's *counted loops*
//! ([`counted_loops`]), which the simulator uses to fail a runaway loop
//! at entry.
//!
//! Expression evaluation implements the Verilog context-determined sizing
//! rules: operands of arithmetic and bitwise operators are extended to the
//! context width before the operation; comparison operands are extended to
//! the larger of the two sides; shift amounts, concatenation parts,
//! replication bodies and indices are self-determined.

use crate::ast::{BinaryOp, CaseKind, Edge, UnaryOp};
use crate::logic::{Bit, LogicVec};
use std::sync::Arc;

/// Index of a signal in the flattened design.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SignalId(pub u32);

/// What kind of storage a signal is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignalKind {
    /// Driven by continuous assignments / instance connections.
    Wire,
    /// Assigned from procedural code.
    Reg,
}

/// A flattened signal.
#[derive(Clone, Debug)]
pub struct SignalDef {
    /// Hierarchical name (`u1.q` for instance-internal signals).
    pub name: String,
    /// Bit width.
    pub width: usize,
    /// Declared signed.
    pub signed: bool,
    /// Declared LSB index (`[7:4]` gives 4); selects are rebased by this.
    pub lsb: i64,
    /// Storage kind.
    pub kind: SignalKind,
}

/// A resolved expression: operator tree with signal ids, annotated with the
/// self-determined width and signedness used by the sizing rules.
#[derive(Clone, Debug)]
pub struct RExpr {
    /// Self-determined width.
    pub width: usize,
    /// Signedness for extension purposes.
    pub signed: bool,
    /// Node kind.
    pub kind: RExprKind,
}

/// Expression node kinds.
#[derive(Clone, Debug)]
pub enum RExprKind {
    /// Literal value.
    Lit(LogicVec),
    /// Whole-signal read.
    Sig(SignalId),
    /// Unary operator.
    Unary(UnaryOp, Box<RExpr>),
    /// Binary operator.
    Binary(BinaryOp, Box<RExpr>, Box<RExpr>),
    /// `cond ? t : f` with Verilog X-merge semantics.
    Ternary(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    /// Concatenation, MSB part first.
    Concat(Vec<RExpr>),
    /// Replication.
    Repl(usize, Box<RExpr>),
    /// Dynamic bit select (index already rebased by the signal's LSB).
    Bit(SignalId, Box<RExpr>),
    /// Constant part select, rebased: low bit and width.
    Part(SignalId, usize, usize),
    /// Indexed part select `sig[base +: w]`, base rebased at eval time.
    IndexedPart(SignalId, Box<RExpr>, usize),
    /// `$time` (64-bit simulation time).
    Time,
}

impl RExpr {
    /// A literal node.
    pub fn lit(value: LogicVec, signed: bool) -> RExpr {
        RExpr {
            width: value.width(),
            signed,
            kind: RExprKind::Lit(value),
        }
    }

    /// Collects signals read by this expression.
    pub fn collect_sigs(&self, out: &mut Vec<SignalId>) {
        match &self.kind {
            RExprKind::Lit(_) | RExprKind::Time => {}
            RExprKind::Sig(s) => out.push(*s),
            RExprKind::Unary(_, e) | RExprKind::Repl(_, e) => e.collect_sigs(out),
            RExprKind::Binary(_, a, b) => {
                a.collect_sigs(out);
                b.collect_sigs(out);
            }
            RExprKind::Ternary(c, a, b) => {
                c.collect_sigs(out);
                a.collect_sigs(out);
                b.collect_sigs(out);
            }
            RExprKind::Concat(es) => {
                for e in es {
                    e.collect_sigs(out);
                }
            }
            RExprKind::Bit(s, i) => {
                out.push(*s);
                i.collect_sigs(out);
            }
            RExprKind::Part(s, _, _) => out.push(*s),
            RExprKind::IndexedPart(s, b, _) => {
                out.push(*s);
                b.collect_sigs(out);
            }
        }
    }
}

/// A resolved assignment target.
#[derive(Clone, Debug)]
pub enum RLValue {
    /// Whole signal.
    Sig(SignalId),
    /// One dynamically-selected bit.
    Bit(SignalId, Box<RExpr>),
    /// Constant slice: low bit (rebased) and width.
    Part(SignalId, usize, usize),
    /// Indexed part select.
    IndexedPart(SignalId, Box<RExpr>, usize),
    /// Concatenation of targets, MSB first.
    Concat(Vec<RLValue>),
}

impl RLValue {
    /// Total width of the target.
    pub fn width(&self, design: &Design) -> usize {
        match self {
            RLValue::Sig(s) => design.signals[s.0 as usize].width,
            RLValue::Bit(_, _) => 1,
            RLValue::Part(_, _, w) | RLValue::IndexedPart(_, _, w) => *w,
            RLValue::Concat(parts) => parts.iter().map(|p| p.width(design)).sum(),
        }
    }

    /// Signals written by this target.
    pub fn collect_sigs(&self, out: &mut Vec<SignalId>) {
        match self {
            RLValue::Sig(s)
            | RLValue::Bit(s, _)
            | RLValue::Part(s, _, _)
            | RLValue::IndexedPart(s, _, _) => out.push(*s),
            RLValue::Concat(parts) => {
                for p in parts {
                    p.collect_sigs(out);
                }
            }
        }
    }
}

/// A system-task argument after resolution.
#[derive(Clone, Debug)]
pub enum RSysArg {
    /// String literal (format strings).
    Str(String),
    /// Expression argument.
    Expr(RExpr),
}

/// One instruction of a process body.
#[derive(Clone, Debug)]
pub enum Instr {
    /// Blocking assignment.
    Assign(RLValue, RExpr),
    /// Non-blocking assignment (applied in the NBA region).
    NbAssign(RLValue, RExpr),
    /// Jump to `target` if the condition is not true (`x` counts as false).
    JumpIfFalse(RExpr, usize),
    /// Unconditional jump.
    Jump(usize),
    /// Multi-way branch for `case`/`casez`/`casex`.
    CaseJump {
        /// Selector.
        expr: RExpr,
        /// Case flavour.
        kind: CaseKind,
        /// `(labels, target)` per arm, tested in order.
        arms: Vec<(Vec<RExpr>, usize)>,
        /// Target when nothing matches.
        default: usize,
    },
    /// Suspend for `n` ticks.
    Delay(u64),
    /// Suspend until one of the edges occurs.
    WaitEvent(Vec<(Edge, SignalId)>),
    /// Invoke a system task.
    SysCall {
        /// Task name with `$`.
        name: String,
        /// Arguments.
        args: Vec<RSysArg>,
    },
    /// Terminate the process.
    Halt,
}

/// Kind of process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcessKind {
    /// Runs once from time zero.
    Initial,
    /// Loops forever (compiled with a trailing jump to the top).
    Always,
}

/// An elaborated process.
#[derive(Clone, Debug)]
pub struct ProcessDef {
    /// Initial or always.
    pub kind: ProcessKind,
    /// Instruction list, shared by every design linked from one
    /// [`PreparedTestbench`](crate::elaborate::PreparedTestbench).
    pub code: Arc<[Instr]>,
    /// Debug name (`initial#0`, `always#2`).
    pub name: String,
    /// The counted loops of `code` ([`counted_loops`]), in head order.
    /// The simulator consults them at loop entry; clearing them only
    /// removes that shortcut, never changes a result.
    pub loops: Vec<CountedLoop>,
}

/// A loop whose trip count depends on its counter alone: the head tests
/// the counter against a literal, the last instruction before the back
/// edge steps it by a literal, and nothing in between writes it, yields
/// or leaves the loop. Found by [`counted_loops`].
///
/// Every field mirrors how [`eval`] sizes the two instructions, so the
/// replay the simulator runs at loop entry reproduces the simulated
/// counter and exit test exactly for a fully known counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountedLoop {
    /// Pc of the head, `JumpIfFalse(cond, back_edge + 1)`.
    pub(crate) head: usize,
    /// Pc of the back edge, `Jump(head)`.
    pub(crate) back_edge: usize,
    /// The counter.
    pub(crate) var: SignalId,
    /// The counter's width (1..=64).
    pub(crate) width: usize,
    /// Step operator: `Add`, `Sub`, `Or`, `And` or `Xor`.
    pub(crate) step_op: BinaryOp,
    /// Step literal, extended as `eval` extends it, then truncated to
    /// `width` (the step's result is truncated to the counter anyway).
    pub(crate) step_lit: u64,
    /// Exit test with the counter on the left: `Lt`, `Le`, `Gt`, `Ge`
    /// or `Ne` (a mirrored `lit < v` is stored as `v > lit`).
    pub(crate) cmp: BinaryOp,
    /// Width both sides of the comparison are extended to (1..=64).
    pub(crate) cmp_width: usize,
    /// Whether the counter sign-extends into `cmp_width`.
    pub(crate) cmp_var_signed: bool,
    /// The comparison literal, extended to `cmp_width`.
    pub(crate) cmp_lit: u64,
    /// Two's-complement ordering (both sides signed).
    pub(crate) cmp_signed: bool,
}

/// The replay bound of [`CountedLoop::outruns`]: past this many trips it
/// gives up undecided, so a huge step budget cannot stall a process at
/// loop entry. It exceeds a third of the default 10M-step budget.
const MAX_REPLAY_TRIPS: u64 = 1 << 22;

impl CountedLoop {
    /// The counter after one step from `x`.
    fn step(&self, x: u64) -> u64 {
        let k = self.step_lit;
        let r = match self.step_op {
            BinaryOp::Add => x.wrapping_add(k),
            BinaryOp::Sub => x.wrapping_sub(k),
            BinaryOp::Or => x | k,
            BinaryOp::And => x & k,
            _ => x ^ k,
        };
        r & mask(self.width)
    }

    /// `x` extended to the comparison width, with the sign bit flipped
    /// for a signed comparison so that unsigned order on keys is the
    /// comparison's order.
    fn key(&self, x: u64) -> u64 {
        (extend(x, self.width, self.cmp_var_signed) & mask(self.cmp_width)) ^ self.sign_flip()
    }

    /// The comparison literal's key (see [`CountedLoop::key`]).
    fn lit_key(&self) -> u64 {
        self.cmp_lit ^ self.sign_flip()
    }

    fn sign_flip(&self) -> u64 {
        u64::from(self.cmp_signed) << (self.cmp_width - 1)
    }

    /// `true` when, entered with the counter at `start`, the condition
    /// holds on `trips` consecutive tests, or holds on every value of a
    /// cycle of the step (a fixed point, or a return to `start`), and so
    /// forever. `false` when the loop exits sooner, or when `trips`
    /// exceeds [`MAX_REPLAY_TRIPS`] and no cycle decides it. `trips` is at
    /// least 1.
    pub(crate) fn outruns(&self, start: u64, trips: u64) -> bool {
        // One monomorphic replay per comparison keeps the per-trip work
        // to a few integer operations.
        let lit = self.lit_key();
        match self.cmp {
            BinaryOp::Lt => self.replay(start, trips, |k| k < lit),
            BinaryOp::Le => self.replay(start, trips, |k| k <= lit),
            BinaryOp::Gt => self.replay(start, trips, |k| k > lit),
            BinaryOp::Ge => self.replay(start, trips, |k| k >= lit),
            _ => self.replay(start, trips, |k| k != lit),
        }
    }

    /// [`CountedLoop::outruns`] for the condition `holds` on keys.
    fn replay(&self, start: u64, trips: u64, holds: impl Fn(u64) -> bool) -> bool {
        let mut x = start;
        for _ in 1..trips.min(MAX_REPLAY_TRIPS) {
            if !holds(self.key(x)) {
                return false;
            }
            let next = self.step(x);
            if next == x || next == start {
                return true;
            }
            x = next;
        }
        trips <= MAX_REPLAY_TRIPS && holds(self.key(x))
    }
}

/// All-ones in the low `width` bits (`width` in 1..=64).
fn mask(width: usize) -> u64 {
    u64::MAX >> (64 - width)
}

/// `x` (a `width`-bit value) extended to 64 bits, as `LogicVec::resize`
/// does.
fn extend(x: u64, width: usize, signed: bool) -> u64 {
    if signed {
        let shift = 64 - width;
        (((x << shift) as i64) >> shift) as u64
    } else {
        x
    }
}

/// Finds the counted loops of a lowered process body; `signals` is the
/// design's signal table. `for`, `while` and `repeat` all lower to the
/// shape matched here:
///
/// ```text
/// h:    JumpIfFalse(v cmp lit, j + 1)   cmp in <, <=, >, >=, != (or mirrored)
/// h+1..j-2: body                        assignments and in-loop branches only
/// j-1:  v = v op lit                    op in +, -, |, &, ^
/// j:    Jump(h)
/// ```
///
/// The body may hold blocking and non-blocking assignments that do not
/// write `v`, and jumps and case arms whose targets stay in `h+1..=j-1`;
/// a delay, event wait, system task or halt disqualifies the loop. Every
/// width involved must be at most 64 bits and both literals fully known.
pub fn counted_loops(code: &[Instr], signals: &[SignalDef]) -> Vec<CountedLoop> {
    let mut out = Vec::new();
    for (head, instr) in code.iter().enumerate() {
        let Instr::JumpIfFalse(cond, exit) = instr else {
            continue;
        };
        let Some(back_edge) = exit.checked_sub(1) else {
            continue;
        };
        if back_edge < head + 2
            || !matches!(code.get(back_edge), Some(Instr::Jump(t)) if *t == head)
        {
            continue;
        }
        if let Some(l) = match_loop(code, signals, head, back_edge, cond) {
            out.push(l);
        }
    }
    out
}

fn match_loop(
    code: &[Instr],
    signals: &[SignalDef],
    head: usize,
    back_edge: usize,
    cond: &RExpr,
) -> Option<CountedLoop> {
    // The step: `v = v op lit`.
    let Instr::Assign(RLValue::Sig(var), rhs) = &code[back_edge - 1] else {
        return None;
    };
    let width = signals.get(var.0 as usize)?.width;
    let RExprKind::Binary(step_op, a, b) = &rhs.kind else {
        return None;
    };
    if !matches!(
        step_op,
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Or | BinaryOp::And | BinaryOp::Xor
    ) || !matches!(a.kind, RExprKind::Sig(s) if s == *var)
    {
        return None;
    }
    // `eval_rhs` evaluates at max(width, rhs.width); both operands must
    // extend to that common width.
    let ctx = width.max(rhs.width);
    if ctx > 64 || a.width != width || b.width > ctx {
        return None;
    }
    let step_lit = extend(literal(b)?, b.width, b.signed) & mask(width);

    // The exit test: `v cmp lit` or `lit cmp v`.
    let RExprKind::Binary(cmp, l, r) = &cond.kind else {
        return None;
    };
    let (v, lit, cmp) = match (&l.kind, &r.kind) {
        (RExprKind::Sig(s), RExprKind::Lit(_)) if s == var => (l, r, *cmp),
        (RExprKind::Lit(_), RExprKind::Sig(s)) if s == var => (r, l, mirror(*cmp)?),
        _ => return None,
    };
    if !matches!(
        cmp,
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge | BinaryOp::Ne
    ) {
        return None;
    }
    let cmp_width = v.width.max(lit.width);
    if cmp_width > 64 || v.width != width {
        return None;
    }
    let cmp_lit = extend(literal(lit)?, lit.width, lit.signed) & mask(cmp_width);

    // The body: no write to `v`, no yield, no way out but the step.
    let mut written = Vec::new();
    for instr in &code[head + 1..back_edge - 1] {
        let in_loop = |t: &usize| (head + 1..back_edge).contains(t);
        match instr {
            Instr::Assign(lhs, _) | Instr::NbAssign(lhs, _) => lhs.collect_sigs(&mut written),
            Instr::JumpIfFalse(_, t) | Instr::Jump(t) if in_loop(t) => {}
            Instr::CaseJump { arms, default, .. }
                if in_loop(default) && arms.iter().all(|(_, t)| in_loop(t)) => {}
            _ => return None,
        }
    }
    if written.contains(var) {
        return None;
    }
    Some(CountedLoop {
        head,
        back_edge,
        var: *var,
        width,
        step_op: *step_op,
        step_lit,
        cmp,
        cmp_width,
        cmp_var_signed: v.signed,
        cmp_lit,
        cmp_signed: v.signed && lit.signed,
    })
}

/// The value of a fully known literal of at most 64 bits.
fn literal(e: &RExpr) -> Option<u64> {
    match &e.kind {
        RExprKind::Lit(v) if e.width <= 64 && v.width() == e.width => v.to_u64(),
        _ => None,
    }
}

/// The comparison with its operands swapped (`a < b` is `b > a`).
fn mirror(cmp: BinaryOp) -> Option<BinaryOp> {
    Some(match cmp {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        BinaryOp::Ne => BinaryOp::Ne,
        _ => return None,
    })
}

/// A continuous assignment.
#[derive(Clone, Debug)]
pub struct RAssign {
    /// Target.
    pub lhs: RLValue,
    /// Source expression.
    pub rhs: RExpr,
    /// Signals whose change re-triggers evaluation.
    pub reads: Vec<SignalId>,
}

/// A flattened, executable design.
#[derive(Clone, Debug, Default)]
pub struct Design {
    /// All signals.
    pub signals: Vec<SignalDef>,
    /// Continuous assignments.
    pub assigns: Vec<RAssign>,
    /// Processes.
    pub processes: Vec<ProcessDef>,
}

impl Design {
    /// Looks a signal up by hierarchical name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }

    /// The definition of `id`.
    pub fn signal(&self, id: SignalId) -> &SignalDef {
        &self.signals[id.0 as usize]
    }
}

/// Read access to signal values during evaluation.
pub trait SigRead {
    /// Current value of `id`.
    fn read(&self, id: SignalId) -> &LogicVec;
    /// Current simulation time (for `$time`).
    fn now(&self) -> u64;
}

/// Evaluates `e` in a context of `ctx` bits (callers pass
/// `max(e.width, lhs_width)` for assignments, or `e.width` for
/// self-determined positions).
pub fn eval<S: SigRead>(e: &RExpr, ctx: usize, store: &S) -> LogicVec {
    let ctx = ctx.max(e.width);
    match &e.kind {
        RExprKind::Lit(v) => v.resize(ctx, e.signed),
        RExprKind::Sig(s) => store.read(*s).resize(ctx, e.signed),
        RExprKind::Time => LogicVec::from_u64(64, store.now()).resize(ctx.max(64), false),
        RExprKind::Unary(op, a) => eval_unary(*op, a, ctx, store),
        RExprKind::Binary(op, a, b) => eval_binary(*op, a, b, ctx, e.signed, store),
        RExprKind::Ternary(c, t, f) => {
            let cond = eval(c, c.width, store).truthy();
            match cond {
                Bit::One => eval(t, ctx, store),
                Bit::Zero => eval(f, ctx, store),
                _ => {
                    // X condition: merge branch bits, X where they differ.
                    let tv = eval(t, ctx, store);
                    let fv = eval(f, ctx, store);
                    let mut out = LogicVec::filled_x(ctx);
                    for i in 0..ctx {
                        let (a, b) = (tv.bit(i), fv.bit(i));
                        if a == b && a.is_known() {
                            out.set_bit(i, a);
                        }
                    }
                    out
                }
            }
        }
        RExprKind::Concat(parts) => {
            let mut acc: Option<LogicVec> = None;
            for p in parts {
                let v = eval(p, p.width, store);
                acc = Some(match acc {
                    None => v,
                    Some(hi) => hi.concat(&v),
                });
            }
            acc.expect("concat is non-empty").resize(ctx, false)
        }
        RExprKind::Repl(n, inner) => {
            let v = eval(inner, inner.width, store);
            v.repeat(*n).resize(ctx, false)
        }
        RExprKind::Bit(s, idx) => {
            let sig = store.read(*s);
            let i = eval(idx, idx.width, store);
            let out = match i.to_u64() {
                Some(i) if (i as usize) < sig.width() => LogicVec::from_bit(sig.bit(i as usize)),
                _ => LogicVec::filled_x(1),
            };
            out.resize(ctx, false)
        }
        RExprKind::Part(s, lo, w) => store.read(*s).slice(*lo, *w).resize(ctx, false),
        RExprKind::IndexedPart(s, base, w) => {
            let sig = store.read(*s);
            let b = eval(base, base.width, store);
            let out = match b.to_u64() {
                Some(lo) => sig.slice(lo as usize, *w),
                None => LogicVec::filled_x(*w),
            };
            out.resize(ctx, false)
        }
    }
}

fn eval_unary<S: SigRead>(op: UnaryOp, a: &RExpr, ctx: usize, store: &S) -> LogicVec {
    match op {
        UnaryOp::Plus => eval(a, ctx, store),
        UnaryOp::Neg => eval(a, ctx, store).neg(),
        UnaryOp::Not => eval(a, ctx, store).not(),
        UnaryOp::LogicNot => {
            let t = eval(a, a.width, store).truthy();
            let b = match t {
                Bit::One => Bit::Zero,
                Bit::Zero => Bit::One,
                _ => Bit::X,
            };
            LogicVec::from_bit(b).resize(ctx, false)
        }
        UnaryOp::RedAnd => {
            LogicVec::from_bit(eval(a, a.width, store).reduce_and()).resize(ctx, false)
        }
        UnaryOp::RedOr => {
            LogicVec::from_bit(eval(a, a.width, store).reduce_or()).resize(ctx, false)
        }
        UnaryOp::RedXor => {
            LogicVec::from_bit(eval(a, a.width, store).reduce_xor()).resize(ctx, false)
        }
        UnaryOp::RedNand => {
            LogicVec::from_bit(invert(eval(a, a.width, store).reduce_and())).resize(ctx, false)
        }
        UnaryOp::RedNor => {
            LogicVec::from_bit(invert(eval(a, a.width, store).reduce_or())).resize(ctx, false)
        }
        UnaryOp::RedXnor => {
            LogicVec::from_bit(invert(eval(a, a.width, store).reduce_xor())).resize(ctx, false)
        }
    }
}

pub(crate) fn invert(b: Bit) -> Bit {
    match b {
        Bit::Zero => Bit::One,
        Bit::One => Bit::Zero,
        other => other,
    }
}

fn eval_binary<S: SigRead>(
    op: BinaryOp,
    a: &RExpr,
    b: &RExpr,
    ctx: usize,
    signed: bool,
    store: &S,
) -> LogicVec {
    use BinaryOp::*;
    match op {
        Add => eval(a, ctx, store).add(&eval(b, ctx, store)),
        Sub => eval(a, ctx, store).sub(&eval(b, ctx, store)),
        Mul => eval(a, ctx, store).mul(&eval(b, ctx, store)),
        Div => {
            let (va, vb) = (eval(a, ctx, store), eval(b, ctx, store));
            if signed {
                signed_divmod(&va, &vb, ctx, true)
            } else {
                va.div(&vb)
            }
        }
        Mod => {
            let (va, vb) = (eval(a, ctx, store), eval(b, ctx, store));
            if signed {
                signed_divmod(&va, &vb, ctx, false)
            } else {
                va.rem(&vb)
            }
        }
        Pow => {
            let base = eval(a, ctx, store);
            let exp = eval(b, b.width, store);
            match exp.to_u64() {
                None => LogicVec::filled_x(ctx),
                Some(mut e) => {
                    if !base.is_fully_known() {
                        return LogicVec::filled_x(ctx);
                    }
                    let mut acc = LogicVec::from_u64(ctx, 1);
                    let mut sq = base;
                    while e > 0 {
                        if e & 1 == 1 {
                            acc = acc.mul(&sq);
                        }
                        e >>= 1;
                        if e > 0 {
                            sq = sq.mul(&sq);
                        }
                    }
                    acc
                }
            }
        }
        And => eval(a, ctx, store).and(&eval(b, ctx, store)),
        Or => eval(a, ctx, store).or(&eval(b, ctx, store)),
        Xor => eval(a, ctx, store).xor(&eval(b, ctx, store)),
        Xnor => eval(a, ctx, store).xnor(&eval(b, ctx, store)),
        LogicAnd | LogicOr => {
            let ta = eval(a, a.width, store).truthy();
            let tb = eval(b, b.width, store).truthy();
            let r = if op == LogicAnd {
                match (ta, tb) {
                    (Bit::Zero, _) | (_, Bit::Zero) => Bit::Zero,
                    (Bit::One, Bit::One) => Bit::One,
                    _ => Bit::X,
                }
            } else {
                match (ta, tb) {
                    (Bit::One, _) | (_, Bit::One) => Bit::One,
                    (Bit::Zero, Bit::Zero) => Bit::Zero,
                    _ => Bit::X,
                }
            };
            LogicVec::from_bit(r).resize(ctx, false)
        }
        Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => {
            let w = a.width.max(b.width);
            let both_signed = a.signed && b.signed;
            let va = eval(a, w, store);
            let vb = eval(b, w, store);
            let r = match op {
                Eq => va.eq_logic(&vb),
                Ne => invert(va.eq_logic(&vb)),
                CaseEq => va.eq_case(&vb),
                CaseNe => invert(va.eq_case(&vb)),
                Lt => va.lt(&vb, both_signed),
                Ge => invert(va.lt(&vb, both_signed)),
                Gt => vb.lt(&va, both_signed),
                Le => invert(vb.lt(&va, both_signed)),
                _ => unreachable!(),
            };
            LogicVec::from_bit(r).resize(ctx, false)
        }
        Shl | AShl => {
            let amount = eval(b, b.width, store);
            eval(a, ctx, store).shl(&amount)
        }
        Shr => {
            let amount = eval(b, b.width, store);
            eval(a, ctx, store).shr(&amount)
        }
        AShr => {
            let amount = eval(b, b.width, store);
            let v = eval(a, ctx, store);
            if a.signed {
                v.ashr(&amount)
            } else {
                v.shr(&amount)
            }
        }
    }
}

/// Signed division/remainder: Verilog truncates toward zero and the
/// remainder takes the dividend's sign.
pub(crate) fn signed_divmod(a: &LogicVec, b: &LogicVec, ctx: usize, want_div: bool) -> LogicVec {
    if !a.is_fully_known() || !b.is_fully_known() {
        return LogicVec::filled_x(ctx);
    }
    let (Some(ai), Some(bi)) = (a.to_i64(), b.to_i64()) else {
        return LogicVec::filled_x(ctx);
    };
    if bi == 0 {
        return LogicVec::filled_x(ctx);
    }
    let r = if want_div {
        ai.wrapping_div(bi)
    } else {
        ai.wrapping_rem(bi)
    };
    LogicVec::from_u64(64.max(ctx), r as u64).resize(ctx, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Store {
        vals: Vec<LogicVec>,
    }

    impl SigRead for Store {
        fn read(&self, id: SignalId) -> &LogicVec {
            &self.vals[id.0 as usize]
        }
        fn now(&self) -> u64 {
            42
        }
    }

    fn sig(id: u32, width: usize, signed: bool) -> RExpr {
        RExpr {
            width,
            signed,
            kind: RExprKind::Sig(SignalId(id)),
        }
    }

    #[test]
    fn context_widening_add() {
        // 4-bit a=15, b=1: (a+b) evaluated in 5-bit context keeps the carry.
        let store = Store {
            vals: vec![LogicVec::from_u64(4, 15), LogicVec::from_u64(4, 1)],
        };
        let e = RExpr {
            width: 4,
            signed: false,
            kind: RExprKind::Binary(
                BinaryOp::Add,
                Box::new(sig(0, 4, false)),
                Box::new(sig(1, 4, false)),
            ),
        };
        assert_eq!(eval(&e, 4, &store).to_u64(), Some(0));
        assert_eq!(eval(&e, 5, &store).to_u64(), Some(16));
    }

    #[test]
    fn signed_comparison_extends() {
        // 4-bit signed a = -2 (0b1110), 6-bit signed b = 1.
        let store = Store {
            vals: vec![LogicVec::from_u64(4, 0b1110), LogicVec::from_u64(6, 1)],
        };
        let e = RExpr {
            width: 1,
            signed: false,
            kind: RExprKind::Binary(
                BinaryOp::Lt,
                Box::new(sig(0, 4, true)),
                Box::new(sig(1, 6, true)),
            ),
        };
        assert_eq!(eval(&e, 1, &store).to_u64(), Some(1));
    }

    #[test]
    fn ternary_x_merge() {
        let store = Store {
            vals: vec![
                LogicVec::filled_x(1),
                LogicVec::from_u64(4, 0b1010),
                LogicVec::from_u64(4, 0b1001),
            ],
        };
        let e = RExpr {
            width: 4,
            signed: false,
            kind: RExprKind::Ternary(
                Box::new(sig(0, 1, false)),
                Box::new(sig(1, 4, false)),
                Box::new(sig(2, 4, false)),
            ),
        };
        let v = eval(&e, 4, &store);
        assert_eq!(v.bit(3), Bit::One);
        assert_eq!(v.bit(2), Bit::Zero);
        assert_eq!(v.bit(1), Bit::X);
        assert_eq!(v.bit(0), Bit::X);
    }

    #[test]
    fn time_expr() {
        let store = Store { vals: vec![] };
        let e = RExpr {
            width: 64,
            signed: false,
            kind: RExprKind::Time,
        };
        assert_eq!(eval(&e, 64, &store).to_u64(), Some(42));
    }

    #[test]
    fn pow_and_signed_div() {
        let store = Store {
            vals: vec![LogicVec::from_u64(8, 3), LogicVec::from_u64(8, 4)],
        };
        let e = RExpr {
            width: 8,
            signed: false,
            kind: RExprKind::Binary(
                BinaryOp::Pow,
                Box::new(sig(0, 8, false)),
                Box::new(sig(1, 8, false)),
            ),
        };
        assert_eq!(eval(&e, 8, &store).to_u64(), Some(81));

        let store2 = Store {
            vals: vec![
                LogicVec::from_u64(8, (-7i64 as u64) & 0xff),
                LogicVec::from_u64(8, 2),
            ],
        };
        let d = RExpr {
            width: 8,
            signed: true,
            kind: RExprKind::Binary(
                BinaryOp::Div,
                Box::new(sig(0, 8, true)),
                Box::new(sig(1, 8, true)),
            ),
        };
        // -7 / 2 truncates toward zero: -3.
        assert_eq!(eval(&d, 8, &store2).to_i64(), Some(-3));
    }
}
