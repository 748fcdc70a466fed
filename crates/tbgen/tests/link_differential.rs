//! Linking a DUT into a prepared driver must be indistinguishable from
//! elaborating the two files concatenated.
//!
//! Evaluation sessions elaborate each driver once
//! ([`PreparedTestbench::new`]) and link every DUT into it
//! ([`PreparedTestbench::link`]); [`elaborate_pair`] is the monolithic
//! oracle. For every dataset problem's golden DUT, several mutants and
//! corrupted or malformed DUTs, and for drivers that exercise every kind
//! of item around the DUT instance, the linked design must be
//! `Debug`-equal to the oracle's (signal ids, process order and names
//! included), and the link must fail exactly when, and with the error
//! that, the oracle fails.

use correctbench_tbgen::{elaborate_pair, generate_driver, generate_scenarios, TbError, TB_MODULE};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::corrupt::{corrupt_source_with, CorruptionKind};
use correctbench_verilog::elaborate::PreparedTestbench;
use correctbench_verilog::mutate::mutate_module;
use correctbench_verilog::{parse, VerilogError};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CORRUPTIONS: [CorruptionKind; 5] = [
    CorruptionKind::DropSemicolon,
    CorruptionKind::DropEnd,
    CorruptionKind::DropParen,
    CorruptionKind::Truncate,
    CorruptionKind::MangleIdent,
];

/// Asserts that linking `dut` into `prepared` reproduces the oracle.
/// Returns whether the pair elaborated.
fn assert_link_matches(prepared: &PreparedTestbench, dut: &SourceFile, what: &str) -> bool {
    let oracle = elaborate_pair(dut, prepared.driver());
    let linked = prepared
        .link(dut)
        .map_err(|e| TbError::Verilog(VerilogError::from(e)));
    match (&linked, &oracle) {
        (Ok(a), Ok(b)) => assert!(
            format!("{a:?}") == format!("{b:?}"),
            "{what}: linked design differs from the monolithic elaboration"
        ),
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}"),
        (a, b) => panic!(
            "{what}: link {} but the monolithic elaboration {}",
            if a.is_ok() { "succeeded" } else { "failed" },
            if b.is_ok() { "succeeded" } else { "failed" },
        ),
    }
    oracle.is_ok()
}

/// The DUTs one problem is checked with: the golden module, mutants,
/// and every corruption of the golden source that still parses.
fn duts_for(problem: &correctbench_dataset::Problem, seed: u64) -> Vec<(String, SourceFile)> {
    let golden = parse(&problem.golden_rtl).expect("golden parses");
    let mut duts = vec![("golden".to_string(), golden.clone())];
    let mut rng = StdRng::seed_from_u64(seed);
    for sites in 1..=3 {
        let mut mutant = golden.clone();
        if let Some(m) = mutant.module_mut(&problem.name) {
            mutate_module(m, &mut rng, sites);
        }
        duts.push((format!("{sites}-site mutant"), mutant));
    }
    for kind in CORRUPTIONS {
        for _ in 0..3 {
            let src = corrupt_source_with(&problem.golden_rtl, kind, &mut rng);
            if let Ok(file) = parse(&src) {
                duts.push((format!("{kind:?}"), file));
            }
        }
    }
    // Well-formed sources that do not fit the driver: the module under
    // another name, and one input port renamed.
    let renamed = problem.golden_rtl.replacen(
        &format!("module {}", problem.name),
        &format!("module {}_v2", problem.name),
        1,
    );
    duts.push(("renamed module".into(), parse(&renamed).expect("parses")));
    if let Some(port) = problem.ports.first() {
        let src = problem
            .golden_rtl
            .replace(&port.name, &format!("{}_x", port.name));
        if let Ok(file) = parse(&src) {
            duts.push(("renamed port".into(), file));
        }
    }
    duts
}

#[test]
fn link_matches_monolithic_elaboration_on_every_problem() {
    let mut elaborated = 0;
    let mut failed = 0;
    for (i, problem) in correctbench_dataset::all_problems().iter().enumerate() {
        let scenarios = generate_scenarios(problem, 40 + i as u64);
        let driver = parse(&generate_driver(problem, &scenarios)).expect("driver parses");
        let prepared = PreparedTestbench::new(driver, TB_MODULE);
        for (what, dut) in duts_for(problem, i as u64) {
            if assert_link_matches(&prepared, &dut, &format!("{}: {what}", problem.name)) {
                elaborated += 1;
            } else {
                failed += 1;
            }
        }
    }
    // Both outcomes must actually be exercised.
    assert!(elaborated > 156 * 4, "only {elaborated} designs elaborated");
    assert!(failed > 0, "no malformed DUT failed to elaborate");
}

/// DUTs that parse but cannot pair with the driver: a missing or
/// renamed module, a module clashing with the driver's, a DUT that
/// brings its own `tb`, and an empty file.
#[test]
fn malformed_duts_fail_as_the_monolithic_elaboration_does() {
    let problem = correctbench_dataset::problem("counter_8").expect("problem");
    let scenarios = generate_scenarios(&problem, 3);
    let driver = parse(&generate_driver(&problem, &scenarios)).expect("driver parses");
    let prepared = PreparedTestbench::new(driver, TB_MODULE);
    let golden = &problem.golden_rtl;
    let cases = [
        ("empty file", String::new()),
        ("renamed module", golden.replace("counter_8", "counter_9")),
        ("duplicate module", format!("{golden}\n{golden}")),
        (
            "clashes with the driver",
            format!("{golden}\nmodule tb; endmodule"),
        ),
        ("missing port", golden.replacen("clk", "clock", 1)),
        (
            "instantiates the driver",
            format!("{golden}\nmodule wrap; tb t(); endmodule"),
        ),
    ];
    for (what, src) in cases {
        let dut = parse(&src).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_link_matches(&prepared, &dut, what);
    }
}

/// Hand-written drivers covering every item kind before and after the
/// instance: continuous assignments, `always` and `initial` processes,
/// `repeat` counters (whose ids and names follow the instance's
/// signals), declaration initializers, helper modules the driver
/// defines, several instances, a failing item, and a driver whose top
/// the DUT must provide.
#[test]
fn hand_written_drivers_link_exactly() {
    let dut_src = "module inv(input a, output y);
  reg [1:0] k;
  assign y = ~a;
  initial begin k = 0; repeat (2) k = k + 1; end
endmodule
module buf1(input a, output y); assign y = a; endmodule";
    let drivers = [
        (
            "items around the instance",
            "module tb;
  reg a; wire y; wire z; reg [3:0] n = 4'd3;
  assign z = ~y;
  initial begin a = 0; repeat (3) #1 a = ~a; end
  always @(a) n = n + 1;
  inv dut(.a(a), .y(y));
  initial repeat (2) begin #2 $display(\"%0d %0d\", y, n); end
  always #5 a = ~a;
  initial begin #20 $finish; end
endmodule",
        ),
        (
            "helper module and two instances",
            "module helper(input a, output y); wire t; inv i(.a(a), .y(t)); assign y = t; endmodule
module tb;
  reg a; wire y1, y2;
  helper h(.a(a), .y(y1));
  initial repeat (4) #1 a = ~a;
  buf1 b(a, y2);
  initial begin a = 0; #9 $finish; end
endmodule",
        ),
        (
            "failing item after the instance",
            "module tb; reg a; wire y; inv dut(.a(a), .y(y)); assign y = nope; endmodule",
        ),
        (
            "failing declaration",
            "module tb; reg a; reg a; inv dut(.a(a), .y(a)); endmodule",
        ),
        (
            "unknown instance module",
            "module tb; reg a; wire y; not_there dut(.a(a), .y(y)); endmodule",
        ),
        ("no top module", "module other; endmodule"),
    ];
    let duts = [
        parse(dut_src).expect("dut parses"),
        parse("module tb; reg q; initial q = 1; endmodule").expect("dut parses"),
        parse("module buf1(input a, output y); assign y = a; endmodule").expect("dut parses"),
    ];
    let mut linked = 0;
    for (what, src) in drivers {
        let prepared = PreparedTestbench::new(parse(src).expect("driver parses"), TB_MODULE);
        for (i, dut) in duts.iter().enumerate() {
            if assert_link_matches(&prepared, dut, &format!("{what}, DUT {i}")) {
                linked += 1;
            }
        }
    }
    // Only the first two drivers with the first DUT, and the topless
    // driver with the DUT that brings a `tb`, form a design.
    assert_eq!(linked, 3, "hand-written pairs that elaborated");
}

/// Drivers as the simulated LLM degrades them — every corruption that
/// still parses — link like the monolithic elaboration too.
#[test]
fn corrupted_drivers_link_exactly() {
    let mut rng = StdRng::seed_from_u64(11);
    for name in ["alu_8", "counter_8", "shift18", "seq_det_1101"] {
        let problem = correctbench_dataset::problem(name).expect("problem");
        let scenarios = generate_scenarios(&problem, 5);
        let text = generate_driver(&problem, &scenarios);
        let dut = parse(&problem.golden_rtl).expect("golden parses");
        for kind in CORRUPTIONS {
            for _ in 0..4 {
                let src = corrupt_source_with(&text, kind, &mut rng);
                if let Ok(driver) = parse(&src) {
                    let prepared = PreparedTestbench::new(driver, TB_MODULE);
                    assert_link_matches(&prepared, &dut, &format!("{name}: {kind:?} driver"));
                }
            }
        }
    }
}
