//! Runs the whole matrix at smoke size twice on one seed and holds the
//! benchmark to its contract: counted metrics repeat byte for byte, and
//! `BENCHMARK.json` and the program agree on every workload, metric and
//! unit.

use std::collections::BTreeSet;
use std::process::Command;

/// `(name, unit)` of every metric in `BENCHMARK.json`, and the workload
/// names. The file is ours and flat, so scanning for the keys is enough.
fn declared() -> (Vec<(String, String)>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let field = |entry: &str, key: &str| {
        entry
            .split_once(&format!("\"{key}\": \""))
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(v, _)| v.to_string())
    };
    let mut metrics = Vec::new();
    let mut workloads = Vec::new();
    for entry in text.split('{').filter(|e| e.contains("\"name\"")) {
        let name = field(entry, "name").expect("name");
        match field(entry, "unit") {
            Some(unit) => metrics.push((name, unit)),
            None => workloads.push(name),
        }
    }
    (metrics, workloads)
}

fn smoke() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dmx-benchmark"))
        .args(["--smoke", "--seed", "7"])
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "--smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn smoke_repeats_exactly_and_matches_benchmark_json() {
    let (first, second) = (smoke(), smoke());
    let counted = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("counted "))
            .map(str::to_string)
            .collect()
    };
    let (metrics, workloads) = declared();
    assert_eq!(workloads.len(), 5, "five workloads");
    assert_eq!(counted(&first).len(), workloads.len());
    assert_eq!(
        counted(&first),
        counted(&second),
        "counted metrics must repeat byte for byte on one seed"
    );

    let mut names = BTreeSet::new();
    for (name, _) in &metrics {
        assert!(names.insert(name), "{name} declared twice");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}: only letters, digits, '_', '.', '-'"
        );
    }
    for w in &workloads {
        // `name value unit` lines of this workload's two sections
        let printed: BTreeSet<(String, String)> = first
            .split("# workload ")
            .filter(|section| section.starts_with(&format!("{w} (")))
            .flat_map(str::lines)
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                match (it.next(), it.next(), it.next(), it.next()) {
                    (Some(n), Some(_value), Some(u), None) => Some((n.into(), u.into())),
                    _ => None,
                }
            })
            .collect();
        for m in &metrics {
            assert!(printed.contains(m), "{w} did not print {} in {}", m.0, m.1);
        }
    }
}
