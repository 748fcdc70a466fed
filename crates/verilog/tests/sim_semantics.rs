//! Regression battery for event-simulation semantics: scheduling regions,
//! non-blocking assignment, sensitivity, selects, and timing corners that
//! generated testbenches rely on.

use correctbench_verilog::{elaborate, parse, run_source, SimError, SimLimits, Simulator};

fn lines(src: &str) -> Vec<String> {
    run_source(src, "tb").expect("simulation ok").lines
}

#[test]
fn nba_reads_old_values_in_same_edge() {
    // Classic pipeline: both registers update from pre-edge values.
    let out = lines(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [3:0] a, b;\nalways @(posedge clk) begin a <= 4'd1; b <= a; end\ninitial begin\na = 4'd9;\n#6;\n$display(\"a=%0d b=%0d\", a, b);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["a=1 b=9"]);
}

#[test]
fn blocking_then_nba_interleave() {
    // Blocking temp inside a clocked block is visible to later NBAs.
    let out = lines(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [3:0] t, q;\nalways @(posedge clk) begin\nt = 4'd3;\nq <= t + 4'd1;\nend\ninitial begin\n#6 $display(\"q=%0d\", q);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["q=4"]);
}

#[test]
fn two_always_blocks_nba_swap() {
    // Cross-coupled NBAs in separate blocks still swap atomically.
    let out = lines(
        "module tb;\nreg clk = 0;\nreg [3:0] x, y;\nalways @(posedge clk) x <= y;\nalways @(posedge clk) y <= x;\ninitial begin\nx = 4'd5; y = 4'd7;\n#1 clk = 1;\n#1 $display(\"x=%0d y=%0d\", x, y);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["x=7 y=5"]);
}

#[test]
fn comb_chain_settles_in_one_timestep() {
    let out = lines(
        "module tb;\nreg [7:0] a;\nwire [7:0] b, c, d;\nassign b = a + 8'd1;\nassign c = b * 8'd2;\nassign d = c - 8'd3;\ninitial begin\na = 8'd10;\n#1 $display(\"%0d\", d);\na = 8'd0;\n#1 $display(\"%0d\", d);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["19", "255"]); // (0+1)*2-3 wraps to 255
}

#[test]
fn casez_wildcard_priority() {
    let out = lines(
        "module tb;\nreg [3:0] v;\nreg [1:0] y;\nalways @(*) begin\ncasez (v)\n4'b1???: y = 2'd3;\n4'b01??: y = 2'd2;\n4'b001?: y = 2'd1;\ndefault: y = 2'd0;\nendcase\nend\ninitial begin\nv = 4'b1010; #1 $display(\"%0d\", y);\nv = 4'b0110; #1 $display(\"%0d\", y);\nv = 4'b0011; #1 $display(\"%0d\", y);\nv = 4'b0000; #1 $display(\"%0d\", y);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["3", "2", "1", "0"]);
}

#[test]
fn dynamic_bit_write_and_read() {
    let out = lines(
        "module tb;\nreg [7:0] v;\nreg [2:0] i;\ninitial begin\nv = 8'd0;\nfor (i = 0; i < 3'd7; i = i + 3'd1) begin\nv[i] = i[0];\nend\n$display(\"%b\", v);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["00101010"]);
}

#[test]
fn indexed_part_select_rw() {
    let out = lines(
        "module tb;\nreg [15:0] v;\nreg [1:0] k;\ninitial begin\nv = 16'h0000;\nk = 2'd2;\nv[k * 4 +: 4] = 4'hf;\n#1 $display(\"%h %h\", v, v[4 +: 8]);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["0f00 f0"]);
}

#[test]
fn negedge_and_multiple_events() {
    let out = lines(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [3:0] np, nn;\ninitial begin np = 0; nn = 0; end\nalways @(posedge clk) np <= np + 4'd1;\nalways @(negedge clk) nn <= nn + 4'd1;\ninitial begin\n#23 $display(\"np=%0d nn=%0d\", np, nn);\n$finish;\nend\nendmodule",
    );
    // posedges at 5,15; negedges at 10,20.
    assert_eq!(out, vec!["np=2 nn=2"]);
}

#[test]
fn wait_on_level_change() {
    let out = lines(
        "module tb;\nreg s = 0;\ninitial #7 s = 1;\ninitial begin\n@(s);\n$display(\"t=%0d\", $time);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["t=7"]);
}

#[test]
fn while_loop_in_initial() {
    let out = lines(
        "module tb;\nreg [7:0] n, acc;\ninitial begin\nn = 8'd5; acc = 8'd0;\nwhile (n > 8'd0) begin\nacc = acc + n;\nn = n - 8'd1;\nend\n$display(\"%0d\", acc);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["15"]);
}

#[test]
fn signed_arithmetic_in_expressions() {
    let out = lines(
        "module tb;\nreg signed [7:0] a;\nreg signed [7:0] b;\nwire signed [7:0] q;\nassign q = a / b;\ninitial begin\na = -8'd7; b = 8'd2;\n#1 $display(\"%0d\", $unsigned(q));\n$finish;\nend\nendmodule",
    );
    // -7/2 = -3 -> 0xFD = 253 unsigned.
    assert_eq!(out, vec!["253"]);
}

#[test]
fn concat_in_port_connection() {
    let out = lines(
        "module take(input [7:0] x, output [7:0] y);\nassign y = x;\nendmodule\nmodule tb;\nreg [3:0] hi, lo;\nwire [7:0] y;\ntake u(.x({hi, lo}), .y(y));\ninitial begin\nhi = 4'ha; lo = 4'h5;\n#1 $display(\"%h\", y);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["a5"]);
}

#[test]
fn output_to_concat_lvalue() {
    let out = lines(
        "module split(input [7:0] x, output [7:0] y);\nassign y = x;\nendmodule\nmodule tb;\nreg [7:0] v;\nwire [3:0] hi, lo;\nsplit u(.x(v), .y({hi, lo}));\ninitial begin\nv = 8'h3c;\n#1 $display(\"%h %h\", hi, lo);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["3 c"]);
}

#[test]
fn x_propagates_through_uninitialised_reg() {
    let out = lines(
        "module tb;\nreg [3:0] q;\nwire [3:0] y;\nassign y = q + 4'd1;\ninitial begin\n#1 $display(\"%0d\", y);\nq = 4'd1;\n#1 $display(\"%0d\", y);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["x", "2"]);
}

#[test]
fn display_without_format_string() {
    let out = lines(
        "module tb;\nreg [3:0] a;\ninitial begin\na = 4'd9;\n#1 $display(a);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["9"]);
}

#[test]
fn finish_stops_clock_immediately() {
    let out = run_source(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\ninitial #12 $finish;\nendmodule",
        "tb",
    )
    .expect("run");
    assert!(out.finished);
    assert_eq!(out.end_time, 12);
}

#[test]
fn repeat_with_dynamic_count() {
    let out = lines(
        "module tb;\nreg [3:0] n;\nreg [7:0] acc;\ninitial begin\nn = 4'd4; acc = 8'd0;\nrepeat (n) acc = acc + 8'd2;\n$display(\"%0d\", acc);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["8"]);
}

#[test]
fn sequential_reset_released_mid_stream() {
    let out = lines(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg rst;\nreg [3:0] q;\nalways @(posedge clk) begin\nif (rst) q <= 4'd0; else q <= q + 4'd1;\nend\ninitial begin\nrst = 1;\n#12 rst = 0;\n#20 rst = 1;\n#10 rst = 0;\n#18 $display(\"q=%0d\", q);\n$finish;\nend\nendmodule",
    );
    // Edges: 5(r),15,25,35(r),45,55 -> after reset at 35, counts at 45,55 -> q=2.
    assert_eq!(out, vec!["q=2"]);
}

#[test]
fn parameterised_state_machine() {
    let out = lines(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nparameter IDLE = 2'd0;\nparameter RUN = 2'd2;\nreg [1:0] s;\ninitial s = IDLE;\nalways @(posedge clk) begin\nif (s == IDLE) s <= RUN;\nelse s <= IDLE;\nend\ninitial begin\n#6 $display(\"%0d\", s);\n#10 $display(\"%0d\", s);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["2", "0"]);
}

#[test]
fn step_budget_boundary_is_exact() {
    // One process, K = 10 loop trips. Its instruction list is
    //   0: n = 0          1: i = 0
    //   2: if !(i < 10) goto 6
    //   3: n = n + 1      4: i = i + 1      5: goto 2
    //   6: $display       7: halt
    // so a run executes 2 + 4*K + 1 (the failing test) + 2 = 4*K + 5
    // instructions. The budget counts exactly these, so the run must
    // complete at N and exhaust at N - 1. Job outcomes depend on this
    // boundary through the runner's budget classification.
    const K: u64 = 10;
    const N: u64 = 4 * K + 5;
    let src = format!(
        "module tb;\ninteger i;\nreg [7:0] n;\ninitial begin\nn = 0;\nfor (i = 0; i < {K}; i = i + 1) n = n + 1;\n$display(\"n=%0d\", n);\nend\nendmodule"
    );
    let design = elaborate(&parse(&src).expect("parse"), "tb").expect("elab");
    let limits = |max_steps| SimLimits {
        max_steps,
        ..SimLimits::default()
    };

    let _obs = correctbench_obs::ObsStack::enabled().install();
    let out = Simulator::with_limits(&design, limits(N))
        .run()
        .expect("completes at exactly N steps");
    assert_eq!(out.lines, vec![format!("n={K}")]);
    let obs = correctbench_obs::take_job().expect("collector armed");
    assert_eq!(obs.counter(correctbench_obs::Counter::SimInstrs), N);

    let short = Simulator::with_limits(&design, limits(N - 1)).run();
    assert!(
        matches!(short, Err(SimError::EventBudgetExhausted)),
        "N - 1 steps must exhaust the budget, got {short:?}"
    );
}

// ---- counted-loop shortcut ----

/// Runs `design` under `max_steps` with a collector armed, returning the
/// result and the run's counters.
fn run_observed(
    design: &correctbench_verilog::Design,
    max_steps: u64,
) -> (
    Result<correctbench_verilog::SimOutput, SimError>,
    correctbench_obs::JobObs,
) {
    let _obs = correctbench_obs::ObsStack::enabled().install();
    let limits = SimLimits {
        max_steps,
        ..SimLimits::default()
    };
    let result = Simulator::with_limits(design, limits).run();
    (
        result,
        correctbench_obs::take_job().expect("collector armed"),
    )
}

fn design_of(src: &str) -> correctbench_verilog::Design {
    elaborate(&parse(src).expect("parse"), "tb").expect("elab")
}

fn marked_loops(design: &correctbench_verilog::Design) -> usize {
    design.processes.iter().map(|p| p.loops.len()).sum()
}

/// A `priority_enc_8`-style testbench whose combinational loop has the
/// given header, as mutants of the sweep carry them.
fn priority_loop(header: &str) -> String {
    format!(
        "module tb;\ninteger i;\nreg [7:0] req;\nreg [2:0] y;\ninitial begin\nreq = 8'b0010_0100;\ny = 0;\nfor ({header}) if (req[i]) y = i;\n$display(\"y=%0d\", y);\nend\nendmodule"
    )
}

const BUDGET: u64 = 200_000;

#[test]
fn runaway_counted_loops_fail_at_entry() {
    for header in [
        // Counts down against an upper bound: wraps all 32 bits first.
        "i = 0; i < 8; i = i - 1",
        // Fixed points of the step.
        "i = 0; i < 8; i = i + 0",
        "i = 0; i < 8; i = i | 1",
        "i = 0; i < 8; i = i & 1",
        // A mutated bound far past the budget.
        "i = 0; i < 268435463; i = i + 1",
    ] {
        let design = design_of(&priority_loop(header));
        assert_eq!(marked_loops(&design), 1, "`{header}` is a counted loop");
        let (result, obs) = run_observed(&design, BUDGET);
        assert!(
            matches!(result, Err(SimError::EventBudgetExhausted)),
            "`{header}`: {result:?}"
        );
        assert_eq!(obs.counter(correctbench_obs::Counter::SimLoopShortcuts), 1);
        assert_eq!(obs.counter(correctbench_obs::Counter::SimExhaustedRuns), 1);
        // Failed at entry: only the prologue and the head executed.
        assert!(
            obs.counter(correctbench_obs::Counter::SimInstrs) < 10,
            "`{header}` ran {obs:?}"
        );
    }
}

/// A testbench whose initial block runs `stmt` and then displays `y`.
fn loop_tb(stmt: &str) -> String {
    format!(
        "module tb;\ninteger i, n;\nreg [7:0] req;\nreg [2:0] y;\ninitial begin\nreq = 8'b0010_0100;\nn = 8;\ny = 0;\n{stmt}\n$display(\"y=%0d\", y);\nend\nendmodule"
    )
}

#[test]
fn loops_that_break_the_pattern_stay_unmarked() {
    for (why, stmt) in [
        (
            "the body writes the counter",
            "for (i = 0; i < 8; i = i - 1) begin if (req[i]) y = i; i = i + 0; end",
        ),
        (
            "the body delays",
            "for (i = 0; i < 8; i = i - 1) #1 y = y + 1;",
        ),
        (
            "the condition reads a second signal",
            "for (i = 0; i < n; i = i - 1) y = y + 1;",
        ),
    ] {
        let design = design_of(&loop_tb(stmt));
        assert_eq!(marked_loops(&design), 0, "{why}");
        let (result, obs) = run_observed(&design, BUDGET);
        assert!(
            matches!(result, Err(SimError::EventBudgetExhausted)),
            "{why}: {result:?}"
        );
        assert_eq!(obs.counter(correctbench_obs::Counter::SimLoopShortcuts), 0);
        assert_eq!(obs.counter(correctbench_obs::Counter::SimExhaustedRuns), 1);
        assert_eq!(
            obs.counter(correctbench_obs::Counter::SimInstrs),
            BUDGET + 1,
            "{why}: the budget was spent"
        );
    }
}

#[test]
fn a_finish_in_the_body_keeps_the_loop_unmarked() {
    // Marking this loop would fail a run that `$finish`es on its first
    // trip.
    let design = design_of(&loop_tb(
        "for (i = 0; i < 8; i = i - 1) if (req[i + 2]) $finish;",
    ));
    assert_eq!(marked_loops(&design), 0);
    let (result, obs) = run_observed(&design, BUDGET);
    assert!(result.expect("finishes").finished);
    assert_eq!(obs.counter(correctbench_obs::Counter::SimLoopShortcuts), 0);
}

#[test]
fn an_unknown_counter_never_fires() {
    // Marked, but entered with `i` still x: the head sees an x condition
    // and leaves, exactly as before.
    let design = design_of(
        "module tb;\ninteger i;\nreg [2:0] y;\ninitial begin\ny = 0;\nwhile (i < 8) i = i - 1;\n$display(\"y=%0d i=%0d\", y, i);\nend\nendmodule",
    );
    assert_eq!(marked_loops(&design), 1);
    let (result, obs) = run_observed(&design, BUDGET);
    assert_eq!(result.expect("completes").lines, vec!["y=0 i=x"]);
    assert_eq!(obs.counter(correctbench_obs::Counter::SimLoopShortcuts), 0);
}

#[test]
fn honest_counted_loop_runs_as_before() {
    let mut design = design_of(&priority_loop("i = 0; i < 8; i = i + 1"));
    assert_eq!(marked_loops(&design), 1);
    let (result, obs) = run_observed(&design, BUDGET);
    let out = result.expect("completes");
    assert_eq!(out.lines, vec!["y=5"]);
    assert_eq!(obs.counter(correctbench_obs::Counter::SimLoopShortcuts), 0);
    assert_eq!(obs.counter(correctbench_obs::Counter::SimExhaustedRuns), 0);

    for p in &mut design.processes {
        p.loops.clear();
    }
    let (unmarked, unmarked_obs) = run_observed(&design, BUDGET);
    assert_eq!(unmarked.expect("completes").lines, out.lines);
    assert_eq!(
        unmarked_obs.counter(correctbench_obs::Counter::SimInstrs),
        obs.counter(correctbench_obs::Counter::SimInstrs)
    );
}

#[test]
fn cumulative_exhaustion_fires_only_in_the_last_activation() {
    // An 8-trip loop per clock edge completes every activation; only the
    // budget left for the last one can be too small for it.
    let src = "module tb;\nreg clk = 0;\ninteger i;\nreg [7:0] n;\nalways @(posedge clk) for (i = 0; i < 8; i = i + 1) n = n + 1;\ninitial begin\nn = 0;\nrepeat (6) begin #1 clk = 1; #1 clk = 0; end\n$display(\"n=%0d\", n);\n$finish;\nend\nendmodule";
    let design = design_of(src);
    assert_eq!(marked_loops(&design), 1, "the delayed repeat is unmarked");
    let (full, full_obs) = run_observed(&design, BUDGET);
    assert_eq!(full.expect("completes").lines, vec!["n=48"]);
    let total = full_obs.counter(correctbench_obs::Counter::SimInstrs);

    let mut unmarked = design.clone();
    for p in &mut unmarked.processes {
        p.loops.clear();
    }
    // The full budget completes: no activation fired on the way.
    assert_eq!(
        full_obs.counter(correctbench_obs::Counter::SimLoopShortcuts),
        0
    );
    // Short of it, every run exhausts inside some activation's loop or
    // just after; the shortcut may fire only where the unmarked run
    // exhausts too, and it must fire for the budgets that cannot pay for
    // a whole 8-trip loop (8 * 4 + 1 = 33 instructions).
    let mut fired = 0;
    for budget in total - 60..total {
        let (result, obs) = run_observed(&design, budget);
        let (reference, _) = run_observed(&unmarked, budget);
        assert_eq!(
            format!("{result:?}"),
            format!("{reference:?}"),
            "budget {budget}"
        );
        if obs.counter(correctbench_obs::Counter::SimLoopShortcuts) == 1 {
            fired += 1;
            // It fired in the activation whose loop the unmarked run
            // exhausts in: within one loop's worth of the budget.
            let executed = obs.counter(correctbench_obs::Counter::SimInstrs);
            assert!(
                executed <= budget && budget - executed < 33,
                "budget {budget}: fired after {executed} instructions"
            );
        }
    }
    assert!(fired > 0, "no activation's entry ever fired");
}

#[test]
fn narrow_counter_wraps_before_a_wider_compare() {
    // `i` is 4 bits, so `0 - 1` is 15 and the 8-bit test `i != 15` fails
    // on the second trip; a step replayed without wrapping at 4 bits
    // would never reach 15 and fire.
    let design = design_of(
        "module tb;\nreg [3:0] i;\nreg [7:0] o;\ninitial begin\no = 0;\nfor (i = 0; i != 8'd15; i = i - 1) o = o + 1;\n$display(\"i=%0d o=%0d\", i, o);\nend\nendmodule",
    );
    assert_eq!(marked_loops(&design), 1);
    let (result, obs) = run_observed(&design, 20);
    assert_eq!(result.expect("completes").lines, vec!["i=15 o=1"]);
    assert_eq!(obs.counter(correctbench_obs::Counter::SimLoopShortcuts), 0);
}
