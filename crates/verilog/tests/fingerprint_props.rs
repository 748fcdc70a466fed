//! Differential properties of the visitor fingerprint against the
//! rendering-hash oracles it replaced on every cache-key path.
//!
//! The retired scheme — `structural_hash` (FNV over the pretty-print)
//! and `debug_hash` (FNV over the `Debug` rendering) — survives purely
//! as the *oracle* defining what "distinguishable designs" means. The
//! visitor fingerprint must be:
//!
//! 1. **stable across re-parses** — parsing the same (or a reprinted)
//!    source yields the same fingerprint, so content addressing works
//!    across processes and pipeline stages; and
//! 2. **at least as discriminating** — every design pair the
//!    pretty-print hash separates, the fingerprint separates too, so
//!    migrating the caches cannot introduce aliasing the old keys did
//!    not have.
//!
//! The corpus is the real workload: all 156 golden RTLs plus seeded
//! semantic mutants of each.

use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::{fnv1a64, Fingerprint, StructuralHash};
use correctbench_verilog::mutate::mutate_module;
use correctbench_verilog::parser::parse;
use correctbench_verilog::pretty::print_file;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The pretty-print oracle: FNV-1a over the rendered source. Two sources
/// that pretty-print identically are structurally identical (the
/// printer is a parser fixpoint — see `roundtrip_props.rs`).
fn structural_hash(file: &SourceFile) -> u64 {
    fnv1a64(print_file(file).as_bytes())
}

#[test]
fn fingerprint_is_stable_across_reparses_for_all_golden_rtl() {
    for p in correctbench_dataset::all_problems() {
        let a = parse(&p.golden_rtl).expect("golden parses");
        let b = parse(&p.golden_rtl).expect("golden parses");
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{}: re-parse drift",
            p.name
        );
        let reprinted = parse(&print_file(&a)).expect("reprint parses");
        assert_eq!(
            a.fingerprint(),
            reprinted.fingerprint(),
            "{}: print-reparse drift",
            p.name
        );
    }
}

/// Every design pair the pretty-print oracle distinguishes, the visitor
/// fingerprint distinguishes: across the whole golden corpus plus
/// mutants, no fingerprint may map to two distinct oracle hashes.
#[test]
fn fingerprint_distinguishes_every_pair_the_oracle_does() {
    let mut seen: HashMap<Fingerprint, (u64, String)> = HashMap::new();
    let mut designs = 0usize;
    for p in correctbench_dataset::all_problems() {
        let golden = parse(&p.golden_rtl).expect("golden parses");
        let mut variants = vec![golden.clone()];
        for seed in 0..4u64 {
            let mut file = golden.clone();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xf1f0);
            if let Some(m) = file.module_mut(&p.name) {
                mutate_module(m, &mut rng, 1 + (seed as usize % 2));
            }
            variants.push(file);
        }
        for file in variants {
            designs += 1;
            let fp = file.fingerprint();
            let oracle = structural_hash(&file);
            match seen.get(&fp) {
                None => {
                    seen.insert(fp, (oracle, p.name.clone()));
                }
                Some((prev, origin)) => assert_eq!(
                    *prev, oracle,
                    "fingerprint {fp} aliases designs the oracle separates \
                     (first seen at {origin}, again at {})",
                    p.name
                ),
            }
        }
    }
    assert!(designs > 300, "corpus unexpectedly small: {designs}");
}

/// The cached fingerprint is per value: clones recompute (they are the
/// raw material of mutants), and `module_mut` invalidates.
#[test]
fn fingerprint_cache_does_not_survive_cloning_or_mutation() {
    let p = correctbench_dataset::problem("alu_8").expect("problem");
    let golden = parse(&p.golden_rtl).expect("golden parses");
    let before = golden.fingerprint();

    // Clone *after* the original computed its fingerprint, then mutate
    // the clone: the clone must report its own, different identity.
    let mut mutant = golden.clone();
    let mut rng = StdRng::seed_from_u64(99);
    mutate_module(mutant.module_mut(&p.name).expect("module"), &mut rng, 2);
    assert_ne!(mutant, golden, "mutation was a no-op");
    assert_ne!(
        mutant.fingerprint(),
        before,
        "clone inherited a stale fingerprint"
    );
    assert_eq!(golden.fingerprint(), before, "original drifted");

    // In-place mutation through module_mut invalidates the cache.
    let mut file = parse(&p.golden_rtl).expect("golden parses");
    let original = file.fingerprint();
    let mut rng = StdRng::seed_from_u64(7);
    mutate_module(file.module_mut(&p.name).expect("module"), &mut rng, 2);
    assert_ne!(
        file.fingerprint(),
        original,
        "module_mut left a stale fingerprint behind"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fingerprints of mutants are stable across print-reparse, and
    /// agree with the oracle's verdict against their own golden design.
    #[test]
    fn mutant_fingerprints_track_the_oracle(problem_idx: usize, seed: u64, n in 1usize..4) {
        let problems = correctbench_dataset::all_problems();
        let p = &problems[problem_idx % problems.len()];
        let golden = parse(&p.golden_rtl).expect("golden parses");
        let mut file = golden.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(m) = file.module_mut(&p.name) {
            mutate_module(m, &mut rng, n);
        }
        // Stability: the mutant's reprint re-parses to the same fingerprint.
        let reparsed = parse(&print_file(&file)).expect("mutant reparses");
        prop_assert_eq!(file.fingerprint(), reparsed.fingerprint());
        // Discrimination: oracle-separated pairs stay separated. (The
        // converse may not hold — the printer normalizes formatting-
        // irrelevant details — so only this direction is required.)
        if structural_hash(&file) != structural_hash(&golden) {
            prop_assert_ne!(file.fingerprint(), golden.fingerprint());
        }
        // Fresh trait computation matches the cached inherent one.
        prop_assert_eq!(file.fingerprint(), StructuralHash::fingerprint(&file));
    }
}
