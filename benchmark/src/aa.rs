//! `--aa`: the same code measured twice. N sets run the workloads in
//! order and N in reverse, alternately; for every workload and end-to-end
//! metric the two sides' medians are compared against the metric's bound, and every
//! counted metric is compared digit for digit between the two runs of a
//! seed. A benchmark that cannot tell its own build from itself cannot
//! tell a regression from noise.
//!
//! Each run is a child process, as the driver runs it: peak memory is per
//! process.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::env::{bail, Res};
use crate::metrics::{median, quartiles_exclusive, Kind, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

/// Metric name → value as printed.
type Metrics = BTreeMap<String, String>;

/// Pulls `"name": {"value": X, ...}` pairs out of a result line.
fn parse_result(line: &str) -> Res<Metrics> {
    let Some((head, body)) = line.split_once("\"metrics\": {") else {
        return bail(format!("not a result line: {line}"));
    };
    if !head.contains("\"correct\": true") || !head.contains("\"failed\": 0,") {
        return bail(format!("run was not correct: {head}"));
    }
    let mut out = Metrics::new();
    for part in body.split("}, ") {
        let Some((name, rest)) = part.split_once("\": {\"value\": ") else {
            continue;
        };
        let value = rest.split(',').next().unwrap_or("");
        out.insert(name.trim_start_matches('"').to_string(), value.to_string());
    }
    Ok(out)
}

fn child(workload: &str, seed: u64, seconds: f64, trace: u8) -> Res<Metrics> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()?;
    if !out.status.success() {
        return bail(format!(
            "{workload} seed {seed} trace {trace} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_result(stdout.lines().last().unwrap_or(""))
}

/// The bound `BENCHMARK.json` gives an end-to-end metric.
fn bounds() -> Res<BTreeMap<String, f64>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path)?;
    let mut out = BTreeMap::new();
    for d in END_TO_END {
        let bound = text
            .split_once(&format!("\"name\": \"{}\"", d.name))
            .and_then(|(_, after)| after.split_once("\"bound\":"))
            .and_then(|(_, after)| {
                after
                    .split(['}', ','])
                    .next()
                    .and_then(|n| n.trim().parse::<f64>().ok())
            });
        match bound {
            Some(b) => out.insert(d.name.to_string(), b),
            None => return bail(format!("no bound for {} in {path}", d.name)),
        };
    }
    Ok(out)
}

pub fn run(sets: usize, seconds: f64) -> Res<ExitCode> {
    let bounds = bounds()?;
    // side → workload → metric → one value per set
    let mut timed: [BTreeMap<(&str, &str), Vec<f64>>; 2] = Default::default();
    // (workload, seed) → side → counted metrics as printed
    let mut counted: BTreeMap<(&str, u64), [Metrics; 2]> = BTreeMap::new();
    // A forward set, then a reverse set on the same seed, and so on: the
    // host changes speed by tens of percent for minutes at a time, and
    // sides run one after the other would each get a different host.
    for set in 0..sets {
        let seed = 1 + set as u64;
        for side in 0..2 {
            let mut order: Vec<_> = WORKLOADS.iter().collect();
            if side == 1 {
                order.reverse();
            }
            for w in order {
                eprintln!(
                    "aa: {} set {} of {sets}, seed {seed}: {}",
                    ["forward", "reverse"][side],
                    set + 1,
                    w.name
                );
                let e2e = child(w.name, seed, seconds, 0)?;
                let layers = child(w.name, seed, seconds, 1)?;
                for d in END_TO_END {
                    let v: f64 = e2e.get(d.name).and_then(|v| v.parse().ok()).unwrap_or(0.0);
                    timed[side].entry((w.name, d.name)).or_default().push(v);
                }
                let exact = &mut counted.entry((w.name, seed)).or_default()[side];
                for (defs, got) in [(END_TO_END, &e2e), (PER_LAYER, &layers)] {
                    for d in defs.iter().filter(|d| d.kind == Kind::Counted) {
                        exact.insert(d.name.into(), got.get(d.name).cloned().unwrap_or_default());
                    }
                }
            }
        }
    }

    let mut past = 0;
    println!(
        "{:<13} {:<26} {:>12} {:>12} {:>8} {:>7}  {:<27} {:<27}",
        "workload",
        "metric",
        "forward",
        "reverse",
        "diff",
        "bound",
        "forward q1..q3",
        "reverse q1..q3"
    );
    for w in WORKLOADS {
        for d in END_TO_END {
            let a = &timed[0][&(w.name, d.name)];
            let b = &timed[1][&(w.name, d.name)];
            let (ma, mb) = (median(a), median(b));
            let diff = if ma == 0.0 { 0.0 } else { (mb - ma).abs() / ma };
            let bound = bounds[d.name];
            let verdict = if diff > bound {
                past += 1;
                "  PAST BOUND"
            } else {
                ""
            };
            let (qa, qb) = (quartiles_exclusive(a), quartiles_exclusive(b));
            println!(
                "{:<13} {:<26} {:>12.5} {:>12.5} {:>7.2}% {:>6.0}%  {:<27} {:<27}{verdict}",
                w.name,
                d.name,
                ma,
                mb,
                diff * 100.0,
                bound * 100.0,
                format!("{:.5}..{:.5}", qa.0, qa.1),
                format!("{:.5}..{:.5}", qb.0, qb.1),
            );
        }
    }
    let mut unequal = 0;
    for ((workload, seed), [fwd, rev]) in &counted {
        for (name, a) in fwd {
            let b = rev.get(name).map_or("", String::as_str);
            if a != b {
                unequal += 1;
                println!("count did not repeat: {workload} seed {seed} {name}: {a} then {b}");
            }
        }
    }
    println!(
        "aa: {sets} sets a side, window {seconds} s: {past} medians past their bound, \
         {unequal} counts that did not repeat"
    );
    Ok(if past == 0 && unequal == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
