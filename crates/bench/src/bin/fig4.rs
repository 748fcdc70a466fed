//! Regenerates **Fig. 4** (example RS matrices): ASCII renderings of the
//! RTL–Scenario matrices of two correct testbenches and one wrong one,
//! showing the column signature that drives validation (`.` = green /
//! correct, `#` = red / wrong, `?` = no verdict).

use correctbench::validator::generate_rtl_group;
use correctbench::{build_rs_matrix, judge, Config, HybridTb};
use correctbench_checker::compile_module;
use correctbench_llm::{CheckerArtifact, LlmClient, ModelKind, ModelProfile, SimulatedLlm};
use correctbench_tbgen::{generate_driver, generate_scenarios};
use rand::SeedableRng;

fn main() {
    let cfg = Config::default();
    let seed = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2025u64);

    // Both `alu_8` panels share one RTL group's worth of simulations:
    // the harness cache answers the repeats.
    let cache = correctbench_harness::SimCache::new();
    let _guard = correctbench_harness::CacheStack::empty()
        .with_sim_cache(std::sync::Arc::clone(&cache))
        .install();

    for (title, name, inject) in [
        ("Correct TB (combinational task `alu_8`)", "alu_8", 0usize),
        ("Correct TB (sequential task `shift18`)", "shift18", 0),
        (
            "Wrong TB (checker with 2 injected defects, `alu_8`)",
            "alu_8",
            2,
        ),
    ] {
        let problem = correctbench_dataset::problem(name).expect("known problem");
        let scenarios = generate_scenarios(&problem, seed);
        let driver = generate_driver(&problem, &scenarios);
        let mut checker = CheckerArtifact::clean(
            compile_module(&problem.golden_module()).expect("golden checker"),
        );
        if inject > 0 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbad);
            correctbench_checker::mutate_ir(&mut checker.program, &mut rng, inject);
        }
        let tb = HybridTb {
            scenarios,
            driver,
            checker,
        };
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
        let rtls = generate_rtl_group(&problem, &mut llm, &cfg);
        let matrix = build_rs_matrix(&problem, &tb, &rtls);
        let verdict = judge(&matrix, &cfg);
        println!("== {title} ==");
        println!(
            "{} RTL rows x {} scenario columns; verdict: {}",
            matrix.num_rtls(),
            matrix.num_scenarios(),
            if verdict.is_correct() {
                "correct"
            } else {
                "wrong"
            }
        );
        println!("{}", matrix.to_ascii());
        let _ = llm.usage();
    }
    eprintln!("simulation cache: {}", cache.stats());
}
