//! The counted-loop shortcut is exact: failing a run at loop entry must
//! never change a result. Random counted loops (`for`, `while` and
//! `repeat`; any width up to 64 bits, either signedness, any comparison,
//! step operator and literals, an empty body or one with an `if` and a
//! write to another register) run under budgets around their true step count, once as
//! elaborated and once with every `ProcessDef::loops` cleared (the
//! simulator then has nothing to shortcut). Both must give the same
//! lines and end time, or the same error.

use correctbench_obs::{Counter, ObsStack};
use correctbench_verilog::{elaborate, parse, Design, SimError, SimLimits, SimOutput, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Loops that finish within this many steps get budgets right around
/// their true step count; longer ones get random budgets below it.
const PROBE_BUDGET: u64 = 4_000;

fn mask(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// A width biased toward narrow counters, where wrap-around is common.
fn width(rng: &mut StdRng) -> u32 {
    if rng.gen_bool(0.5) {
        rng.gen_range(1..=8)
    } else {
        rng.gen_range(1..=64)
    }
}

/// A `width`-bit value biased toward the small and the near-maximal.
fn value(rng: &mut StdRng, width: u32) -> u64 {
    let v = match rng.gen_range(0u32..4) {
        0 | 1 => rng.gen_range(0u64..20),
        2 => mask(width).wrapping_sub(rng.gen_range(0u64..20)),
        _ => rng.gen::<u64>(),
    };
    v & mask(width)
}

/// A sized hex literal, or now and then an unsized (32-bit signed)
/// decimal one.
fn literal(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.2) {
        return rng.gen_range(0u32..40).to_string();
    }
    let w = width(rng);
    let s = if rng.gen_bool(0.5) { "s" } else { "" };
    format!("{w}'{s}h{:x}", value(rng, w))
}

/// A step literal, mostly small so finite loops are common.
fn step_literal(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.7) {
        format!("{}", rng.gen_range(0u32..4))
    } else {
        literal(rng)
    }
}

/// One testbench holding one random counted loop.
fn loop_source(rng: &mut StdRng) -> String {
    let w = width(rng);
    let signed = if rng.gen_bool(0.5) { " signed" } else { "" };
    let init = format!("{w}'h{:x}", value(rng, w));
    let cmp = ["<", "<=", ">", ">=", "!="][rng.gen_range(0usize..5)];
    let bound = literal(rng);
    let cond = if rng.gen_bool(0.5) {
        format!("i {cmp} {bound}")
    } else {
        format!("{bound} {cmp} i")
    };
    let op = ["+", "-", "|", "&", "^"][rng.gen_range(0usize..5)];
    let step = format!("i = i {op} {}", step_literal(rng));
    // An empty body makes every trip cost exactly the three instructions
    // the shortcut's bound assumes.
    let body = if rng.gen_bool(0.5) {
        ""
    } else {
        "if (i[0]) o = o + 8'd1; else o = o ^ 8'h5a;"
    };
    let stmt = match rng.gen_range(0u32..5) {
        0 | 1 => format!("for (i = {init}; {cond}; {step}) begin {body} end"),
        2 | 3 => format!("i = {init};\nwhile ({cond}) begin {body} {step}; end"),
        _ => format!("repeat ({}) begin {body} end", literal(rng)),
    };
    format!(
        "module tb;\nreg{signed} [{}:0] i;\nreg [7:0] o;\ninitial begin\no = 0;\n{stmt}\n$display(\"%0d %0d\", i, o);\nend\nendmodule",
        w - 1
    )
}

/// Runs `design` under `max_steps`; returns the result and how many
/// loop shortcuts fired.
fn run(design: &Design, max_steps: u64) -> (Result<SimOutput, SimError>, u64) {
    let _obs = ObsStack::enabled().install();
    let limits = SimLimits {
        max_steps,
        ..SimLimits::default()
    };
    let result = Simulator::with_limits(design, limits).run();
    let obs = correctbench_obs::take_job().expect("collector armed");
    (result, obs.counter(Counter::SimLoopShortcuts))
}

/// The comparable part of a result: lines, end time and finish flag, or
/// the error.
fn fingerprint(result: &Result<SimOutput, SimError>) -> String {
    match result {
        Ok(out) => format!("ok {:?} {} {}", out.lines, out.end_time, out.finished),
        Err(e) => format!("err {e:?}"),
    }
}

/// What one generated case exercised.
struct Coverage {
    /// Some budget made the shortcut fire.
    fired: bool,
    /// The loop finishes within [`PROBE_BUDGET`].
    finite: bool,
}

/// Checks one generated loop under every budget it draws; panics on a
/// divergence.
fn check(seed: u64) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let src = loop_source(&mut rng);
    let design = elaborate(&parse(&src).expect("parse"), "tb").expect("elab");
    assert!(
        design.processes.iter().any(|p| !p.loops.is_empty()),
        "generated loop is not marked counted:\n{src}"
    );
    let mut unmarked = design.clone();
    for p in &mut unmarked.processes {
        p.loops.clear();
    }

    // The true step count, when the loop finishes within the probe.
    let steps = {
        let _obs = ObsStack::enabled().install();
        let limits = SimLimits {
            max_steps: PROBE_BUDGET,
            ..SimLimits::default()
        };
        let probe = Simulator::with_limits(&unmarked, limits).run();
        let obs = correctbench_obs::take_job().expect("collector armed");
        probe.ok().map(|_| obs.counter(Counter::SimInstrs))
    };
    let mut budgets: Vec<u64> = match steps {
        Some(n) => (n.saturating_sub(8).max(1)..=n + 2).collect(),
        None => Vec::new(),
    };
    let top = steps.unwrap_or(PROBE_BUDGET);
    budgets.extend((0..4).map(|_| rng.gen_range(1..=top)));

    let mut fired = false;
    for budget in budgets {
        let (result, shortcuts) = run(&design, budget);
        let (reference, _) = run(&unmarked, budget);
        assert_eq!(
            fingerprint(&result),
            fingerprint(&reference),
            "budget {budget}, seed {seed}:\n{src}"
        );
        if shortcuts > 0 {
            assert!(matches!(result, Err(SimError::EventBudgetExhausted)));
            fired = true;
        }
    }
    Coverage {
        fired,
        finite: steps.is_some(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fires ⇒ the full run exhausts too; does not fire ⇒ nothing changes.
    #[test]
    fn shortcut_never_changes_a_result(seed: u64) {
        check(seed);
    }
}

#[test]
fn generated_loops_cover_both_outcomes() {
    // Guards the property above against a generator that drifts into
    // only finite or only runaway loops.
    let (mut fired, mut finite) = (0, 0);
    for seed in 0..32 {
        let c = check(seed);
        fired += usize::from(c.fired);
        finite += usize::from(c.finite);
    }
    assert!(fired >= 4, "only {fired} of 32 cases fired the shortcut");
    assert!(finite >= 4, "only {finite} of 32 loops finished");
}
