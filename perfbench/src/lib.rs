//! Pure helpers of the end-to-end sweep benchmark: percentile selection,
//! span self-times, metric-name validation, the layer-map consistency
//! check, the outcome digest, and `/proc` parsing. Everything that
//! touches processes, clocks or the harness lives in `main.rs`.

#![forbid(unsafe_code)]

use correctbench_harness::json::Value;

/// A reported tail percentile needs at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending `sorted` slice: the sample at
/// rank `ceil(q * n)`. `None` when the slice is empty, `q` is outside
/// `(0, 1]`, or fewer than [`MIN_BEYOND`] samples lie beyond that rank —
/// a tail percentile resting on fewer samples is not reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for an even count);
/// `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers. Children may overlap
/// each other (parallel workers) and are clipped to the span.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// of `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The names declared in one array section (`workloads`, `end_to_end`,
/// `per_layer`) of `BENCHMARK.json`.
pub fn declared_names<'a>(benchmark: &'a Value, section: &str) -> Vec<&'a str> {
    match benchmark.get(section) {
        Some(Value::Arr(items)) => items
            .iter()
            .filter_map(|i| i.get("name").and_then(Value::as_str))
            .collect(),
        _ => Vec::new(),
    }
}

/// Checks the layer map against `BENCHMARK.json`: every entry names a
/// declared per-layer metric with a valid name, its `moves` entries
/// name declared end-to-end metrics, and its `most_work`, `little_work`
/// and `baseline` workloads are declared. Returns every problem found.
pub fn check_layer_map(benchmark: &Value, layers: &Value) -> Result<(), Vec<String>> {
    let workloads = declared_names(benchmark, "workloads");
    let end_to_end = declared_names(benchmark, "end_to_end");
    let per_layer = declared_names(benchmark, "per_layer");
    let mut errors = Vec::new();
    let Some(Value::Obj(entries)) = layers.get("metrics") else {
        return Err(vec!["layer map has no `metrics` object".to_string()]);
    };
    for (name, entry) in entries {
        if !valid_name(name) || !per_layer.contains(&name.as_str()) {
            errors.push(format!("`{name}` is not a declared per-layer metric"));
        }
        if entry.get("crate").and_then(Value::as_str).is_none() {
            errors.push(format!("`{name}` names no crate"));
        }
        let names_in = |key: &str| -> Vec<String> {
            match entry.get(key) {
                Some(Value::Arr(v)) => v
                    .iter()
                    .map(|x| x.as_str().unwrap_or("").to_string())
                    .collect(),
                Some(Value::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
                _ => Vec::new(),
            }
        };
        for m in names_in("moves") {
            if !end_to_end.contains(&m.as_str()) {
                errors.push(format!("`{name}` moves undeclared metric `{m}`"));
            }
        }
        for key in ["most_work", "little_work", "baseline"] {
            for w in names_in(key) {
                if !workloads.contains(&w.as_str()) {
                    errors.push(format!("`{name}`.{key} names undeclared workload `{w}`"));
                }
            }
        }
    }
    for m in per_layer {
        if !entries.iter().any(|(k, _)| k == m) {
            errors.push(format!("per-layer metric `{m}` has no layer-map entry"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits: the digest recorded per
/// (workload, seed) for `outcomes.jsonl`.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The recorded digest for `(workload, seed)` in the digest table: lines
/// of `workload seed digest`, `#` comments and blank lines ignored.
pub fn recorded_digest(table: &str, workload: &str, seed: u64) -> Option<String> {
    table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed).then(|| d.to_string())
        })
}

/// The peak resident set (`VmHWM`, kB) from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// User plus system CPU time, in clock ticks, from a `/proc/<pid>/stat`
/// text. The fields after the parenthesised command name start at
/// field 3 (`state`); `utime` and `stime` are fields 14 and 15.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctbench_harness::json;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ascending(144);
        // ceil(0.5 * 144) = 72, ceil(0.9 * 144) = 130.
        assert_eq!(percentile(&v, 0.5), Some(72.0));
        assert_eq!(percentile(&v, 0.9), Some(130.0));
        assert_eq!(percentile(&ascending(150), 0.9), Some(135.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&v, 1.5), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, with exactly 10 beyond.
        assert_eq!(percentile(&ascending(100), 0.9), Some(90.0));
        // 99 samples: p90 is rank 90 (ceil 89.1), 9 beyond — refused.
        assert_eq!(percentile(&ascending(99), 0.9), None);
        // p99 of 144 jobs has 1 sample beyond.
        assert_eq!(percentile(&ascending(144), 0.99), None);
        // The median of a tiny set has too few samples above it too.
        assert_eq!(percentile(&ascending(5), 0.5), None);
        assert_eq!(percentile(&ascending(21), 0.5), Some(11.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two workers) count their union once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 60)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((0, 100), &[(200, 300)]), 100);
        // Full cover leaves nothing.
        assert_eq!(self_time((0, 100), &[(0, 50), (50, 100)]), 0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "wall_s",
            "verilog.sim_instrs",
            "tbgen.sim_cache.hit_ratio",
            "p-90",
            "9a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "wall s", "a/b", "ms%", "ä", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn digest_table_lookup() {
        let table = "# workload seed digest\nsweep24 7 00ff\n\nseq_cb 7 abcd\n";
        assert_eq!(recorded_digest(table, "seq_cb", 7).as_deref(), Some("abcd"));
        assert_eq!(
            recorded_digest(table, "sweep24", 7).as_deref(),
            Some("00ff")
        );
        assert_eq!(recorded_digest(table, "sweep24", 8), None);
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_ne!(digest(b"a"), digest(b"b"));
    }

    #[test]
    fn proc_parsing() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4321));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
        // The command name may hold spaces and parentheses.
        let stat = "42 (perf (bench) x) R 1 42 42 0 -1 4194304 10 0 0 0 250 31 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(281));
        assert_eq!(parse_cpu_ticks("42 (x) R 1"), None);
    }

    fn load(name: &str) -> Value {
        let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        json::parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn layer_map_references_only_declared_names() {
        let benchmark = load("../BENCHMARK.json");
        let layers = load("layers.json");
        if let Err(errors) = check_layer_map(&benchmark, &layers) {
            panic!("layer map: {errors:#?}");
        }
        for section in ["workloads", "end_to_end", "per_layer"] {
            for name in declared_names(&benchmark, section) {
                assert!(valid_name(name), "{section}: `{name}`");
            }
        }
    }

    #[test]
    fn layer_map_check_reports_strays() {
        let benchmark = json::parse(
            r#"{"workloads":[{"name":"w"}],"end_to_end":[{"name":"wall_s"}],
                "per_layer":[{"name":"a.x"},{"name":"a.y"}]}"#,
        )
        .expect("json");
        let layers = json::parse(
            r#"{"metrics":{"a.x":{"crate":"a","moves":["wall_s","cpu_s"],
                "most_work":["w"],"little_work":["v"]},
                "b.z":{"crate":"b"}}}"#,
        )
        .expect("json");
        let errors = check_layer_map(&benchmark, &layers).expect_err("strays");
        assert!(errors.iter().any(|e| e.contains("`cpu_s`")));
        assert!(errors.iter().any(|e| e.contains("workload `v`")));
        assert!(errors.iter().any(|e| e.contains("`b.z` is not a declared")));
        assert!(errors
            .iter()
            .any(|e| e.contains("`a.y` has no layer-map entry")));
    }
}
