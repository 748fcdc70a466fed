//! The hybrid testbench artifact the pipeline produces and judges.

use correctbench_llm::CheckerArtifact;
use correctbench_tbgen::ScenarioSet;
use correctbench_verilog::ast::SourceFile;

/// A complete hybrid testbench: scenario list, Verilog driver, and
/// checker (reference model).
#[derive(Clone, Debug)]
pub struct HybridTb {
    /// The test scenarios the testbench claims to cover.
    pub scenarios: ScenarioSet,
    /// Verilog driver source (may be syntactically broken).
    pub driver: String,
    /// Checker artifact (may be flagged broken).
    pub checker: CheckerArtifact,
}

impl HybridTb {
    /// `true` when both tracks are syntactically sound (the Eval0
    /// condition): the driver parses and the checker is not broken.
    pub fn is_syntactically_valid(&self) -> bool {
        self.parse_driver().is_some()
    }

    /// The parsed driver when both tracks are syntactically sound (see
    /// [`HybridTb::is_syntactically_valid`]), `None` otherwise. The
    /// checker is tested first, so a broken checker costs no parse. The
    /// validator's syntax gate and its RS-matrix sweep share this one
    /// parse.
    pub fn parse_driver(&self) -> Option<SourceFile> {
        if self.checker.broken {
            return None;
        }
        correctbench_verilog::parse(&self.driver).ok()
    }

    /// Scenario indexes (1-based) whose stimulus stanza is present in the
    /// driver source — used by AutoBench's scenario-list checking.
    pub fn driver_scenario_coverage(&self) -> Vec<usize> {
        (1..=self.scenarios.len())
            .filter(|i| self.driver.contains(&format!("// Scenario {i}:")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctbench_checker::compile_module;
    use correctbench_tbgen::{generate_driver, generate_scenarios};

    fn sample_tb() -> (correctbench_dataset::Problem, HybridTb) {
        let p = correctbench_dataset::problem("and_8").expect("problem");
        let scenarios = generate_scenarios(&p, 4);
        let driver = generate_driver(&p, &scenarios);
        let checker =
            CheckerArtifact::clean(compile_module(&p.golden_module()).expect("golden checker"));
        (
            p,
            HybridTb {
                scenarios,
                driver,
                checker,
            },
        )
    }

    #[test]
    fn golden_tb_is_valid() {
        let (_, tb) = sample_tb();
        assert!(tb.is_syntactically_valid());
        assert_eq!(tb.driver_scenario_coverage().len(), tb.scenarios.len());
    }

    #[test]
    fn broken_driver_invalid() {
        let (_, mut tb) = sample_tb();
        tb.driver = tb.driver.replace("endmodule", "");
        assert!(!tb.is_syntactically_valid());
    }

    #[test]
    fn broken_checker_invalid() {
        let (_, mut tb) = sample_tb();
        tb.checker.broken = true;
        assert!(!tb.is_syntactically_valid());
    }
}
