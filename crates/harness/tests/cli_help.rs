//! `correctbench-run --help` documents every cache-layer flag.
//!
//! The per-layer switches (`--no-sim-cache`, `--no-session-pool`,
//! `--no-golden-cache`) and their `--no-cache` alias are part of the
//! binary's contract — CI's cache-layer matrix and the README both lean
//! on them — so the help text is pinned here by running the real
//! binary. The switches of the removed elaboration and lint-report
//! caches are pinned as gone: absent from the help, rejected as usage
//! errors.

use std::process::Command;

fn help_output() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_correctbench-run"))
        .arg("--help")
        .output()
        .expect("run correctbench-run --help");
    assert!(
        out.status.success(),
        "--help must exit 0, got {:?}",
        out.status
    );
    String::from_utf8(out.stdout).expect("help text is UTF-8")
}

#[test]
fn help_lists_every_cache_layer_flag() {
    let help = help_output();
    for flag in [
        "--no-cache",
        "--no-sim-cache",
        "--no-session-pool",
        "--no-golden-cache",
    ] {
        assert!(
            help.contains(flag),
            "--help output is missing `{flag}`:\n{help}"
        );
    }
    for flag in removed_layer_flags() {
        assert!(
            !help.contains(&flag),
            "--help output still lists removed `{flag}`:\n{help}"
        );
    }
}

/// Switches of the cache layers that no longer exist (the elaboration
/// and lint-report caches).
fn removed_layer_flags() -> [String; 2] {
    ["elab", "lint"].map(|layer| format!("--no-{layer}-cache"))
}

#[test]
fn removed_layer_flags_are_usage_errors() {
    for flag in removed_layer_flags() {
        let out = Command::new(env!("CARGO_BIN_EXE_correctbench-run"))
            .args([flag.as_str(), "--problems", "1", "--reps", "1", "--quiet"])
            .output()
            .expect("run correctbench-run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "`{flag}` must exit 2 (usage error), got {:?}",
            out.status
        );
    }
}

#[test]
fn help_lists_the_observability_flags() {
    let help = help_output();
    for flag in ["--no-obs", "--progress"] {
        assert!(
            help.contains(flag),
            "--help output is missing `{flag}`:\n{help}"
        );
    }
}

#[test]
fn report_binary_documents_its_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_correctbench-report"))
        .arg("--help")
        .output()
        .expect("run correctbench-report --help");
    assert!(
        out.status.success(),
        "--help must exit 0, got {:?}",
        out.status
    );
    let help = String::from_utf8(out.stdout).expect("help text is UTF-8");
    assert!(
        help.contains("correctbench-report") && help.contains("TIMINGS.JSONL"),
        "report --help missing usage line:\n{help}"
    );
}

#[test]
fn help_lists_the_robustness_flags() {
    let help = help_output();
    for flag in ["--sim-budget", "--job-deadline-ms", "--faults", "--resume"] {
        assert!(
            help.contains(flag),
            "--help output is missing robustness flag `{flag}`:\n{help}"
        );
    }
}

#[test]
fn help_documents_the_lint_gate() {
    // `--lint` and its three modes are the static-analysis gate's CLI
    // contract; the golden-dataset CI gate scripts against them.
    let help = help_output();
    assert!(
        help.contains("--lint"),
        "--help output is missing `--lint`:\n{help}"
    );
    for mode in ["off", "warn", "gate"] {
        assert!(
            help.contains(mode),
            "--help output is missing lint mode `{mode}`:\n{help}"
        );
    }
}

#[test]
fn help_lists_the_store_flags() {
    // The persistent-store attachment flags are the warm-restart CLI
    // contract; CI's store matrix smoke scripts against them.
    let help = help_output();
    for flag in ["--store", "--no-store", "--store-readonly"] {
        assert!(
            help.contains(flag),
            "--help output is missing store flag `{flag}`:\n{help}"
        );
    }
}

#[test]
fn help_lists_the_core_sweep_flags() {
    let help = help_output();
    for flag in [
        "--full",
        "--problems",
        "--reps",
        "--seed",
        "--threads",
        "--out",
    ] {
        assert!(
            help.contains(flag),
            "--help output is missing core flag `{flag}`:\n{help}"
        );
    }
}
