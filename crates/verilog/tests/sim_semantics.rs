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
