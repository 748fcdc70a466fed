//! Criterion micro-benchmarks of the simulator on representative
//! combinational (`alu_8`) and sequential (`shift18`) testbench runs:
//! one simulation of an already-elaborated design, and the per-run
//! elaboration cost a session's last-pair memo saves. The `bench_sim`
//! binary emits the machine-readable `BENCH_sim.json` from the same
//! workload.

use correctbench_tbgen::{elaborate_pair, generate_driver, generate_scenarios, limits_for};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::{Design, Simulator};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

struct Prepared {
    name: &'static str,
    design: Design,
    dut: SourceFile,
    driver: SourceFile,
    limits: correctbench_verilog::SimLimits,
}

fn prepare(name: &'static str) -> Prepared {
    let problem = correctbench_dataset::problem(name).expect("problem");
    let scenarios = generate_scenarios(&problem, 7);
    let driver =
        correctbench_verilog::parse(&generate_driver(&problem, &scenarios)).expect("driver");
    let dut = correctbench_verilog::parse(&problem.golden_rtl).expect("golden");
    let design = elaborate_pair(&dut, &driver).expect("elaborate");
    Prepared {
        name,
        design,
        dut,
        driver,
        limits: limits_for(&scenarios),
    }
}

fn bench_simulate(c: &mut Criterion) {
    for p in [prepare("alu_8"), prepare("shift18")] {
        c.bench_function(&format!("simulate_{}", p.name), |b| {
            b.iter(|| {
                black_box(
                    Simulator::with_limits(&p.design, p.limits)
                        .run()
                        .expect("run"),
                )
            })
        });
        // What a session's last-pair memo saves on every repeated pair.
        c.bench_function(&format!("elaborate_{}", p.name), |b| {
            b.iter(|| black_box(elaborate_pair(&p.dut, &p.driver).expect("elaborate")))
        });
    }
}

criterion_group!(benches, bench_simulate);
criterion_main!(benches);
