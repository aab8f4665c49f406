//! The repo benchmark. One command builds the engine, runs a named
//! workload for a seed, checks its outputs against a model and prints
//! every metric by name and unit:
//!
//! ```text
//! dmx-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dmx-benchmark --aa [--sets N] [--seconds S]   # same code twice: do the numbers repeat?
//! dmx-benchmark --smoke                         # whole matrix, tiny sizes, invariants only
//! ```
//!
//! The last line of standard output of a workload run is the JSON object
//! the driver reads. See `README.md` beside this crate for what is
//! measured and why.

mod aa;
mod env;
mod harness;
mod metrics;
mod probes;
mod trace;
mod workloads;

use std::process::ExitCode;

use env::{bail, Res};
use harness::Args;
use metrics::{Kind, Report};
use workloads::WORKLOADS;

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dmx-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare flags, in any order.
struct Cli(Vec<String>);

impl Cli {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Res<Option<T>> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        match self.0.get(i + 1).map(|v| v.parse::<T>()) {
            Some(Ok(v)) => Ok(Some(v)),
            _ => bail(format!("{name} needs a value of the right type")),
        }
    }
}

fn dispatch(argv: Vec<String>) -> Res<ExitCode> {
    let cli = Cli(argv);
    if cli.flag("--smoke") {
        return smoke(cli.value("--seed")?.unwrap_or(1));
    }
    let seconds: f64 = cli.value("--seconds")?.unwrap_or(12.0);
    if cli.flag("--aa") {
        return aa::run(cli.value("--sets")?.unwrap_or(4), seconds);
    }
    let Some(name) = cli.value::<String>("--workload")? else {
        return bail(format!(
            "--workload <name> is required; one of: {}",
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    };
    let Some(entry) = WORKLOADS.iter().find(|w| w.name == name) else {
        return bail(format!("no workload named {name}"));
    };
    let args = Args {
        seed: cli.value("--seed")?.unwrap_or(1),
        seconds,
        trace: cli.value::<u8>("--trace")?.unwrap_or(0) != 0,
        smoke: false,
    };
    let report = (entry.run)(&args)?;
    print!("{}", report.render_text());
    if report.failed > 0 || !report.correct {
        eprintln!(
            "dmx-benchmark: {} FAILED: {} of {} operations wrong, end state or recovery {}",
            entry.name,
            report.failed,
            report.attempted,
            if report.correct { "right" } else { "WRONG" }
        );
    }
    println!("{}", report.render_json());
    Ok(ExitCode::SUCCESS)
}

/// Every workload in both modes at tiny sizes. Prints each metric with
/// its unit, then one `counted` line per workload holding every metric
/// that must repeat exactly for a seed, and fails on a broken invariant.
fn smoke(seed: u64) -> Res<ExitCode> {
    let mut broken = Vec::new();
    for entry in WORKLOADS {
        let mut counted = Vec::new();
        for trace in [false, true] {
            let report = (entry.run)(&Args {
                seed,
                seconds: 0.0,
                trace,
                smoke: true,
            })?;
            print!("{}", report.render_text());
            if report.failed > 0 || !report.correct {
                broken.push(format!(
                    "{}: {} of {} operations wrong",
                    entry.name, report.failed, report.attempted
                ));
            }
            broken.extend(invariants(&report));
            counted.extend(
                report
                    .defs()
                    .iter()
                    .filter(|d| d.kind == Kind::Counted)
                    .map(|d| format!("{}={}", d.name, metrics::fmt_num(report.values.get(d.name)))),
            );
        }
        println!("counted {} {}", entry.name, counted.join(" "));
    }
    for b in &broken {
        eprintln!("dmx-benchmark: smoke: {b}");
    }
    Ok(if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What must hold at any size: the attribution each workload was chosen
/// for, in its crudest form.
fn invariants(r: &Report) -> Vec<String> {
    let v = |name: &str| r.values.get(name);
    let mut broken = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            broken.push(format!("{}: {what}", r.workload));
        }
    };
    if !r.traced {
        for d in r.defs() {
            check(v(d.name) > 0.0, &format!("{} is not positive", d.name));
        }
        return broken;
    }
    check(v("wal.restart_frames_per_s") > 0.0, "no recovery was timed");
    match r.workload {
        "point_select" => {
            check(v("pagestore.hit_rate") == 1.0, "data does not fit the pool");
            check(
                v("query.parse_us") > 0.0 && v("query.plan_us") > 0.0,
                "no compile spans",
            );
            check(
                v("query.plan_cache_hit_rate") > 0.02 && v("query.plan_cache_hit_rate") < 0.3,
                "plan-cache hit rate is not near 0.10",
            );
        }
        "point_cold" => {
            check(v("pagestore.hit_rate") < 0.9, "pool is not under pressure");
            check(v("pagestore.disk_reads_per_stmt") > 0.5, "no disk reads");
            check(v("pagestore.fetch_miss_us") > 0.0, "miss probe did not run");
        }
        "scan_join" => {
            check(
                v("core.scan_rows_per_stmt") > 10.0,
                "statements scan nothing",
            );
            check(v("wal.bytes_per_commit") < 100.0, "a read workload logs");
            check(
                v("query.join_probe_us") > 0.0 && v("query.scan_us") > 0.0,
                "class spans missing",
            );
        }
        "keyed_dml" => {
            check(v("query.update_us") > 0.0, "no UPDATE spans");
            check(
                v("wal.forces_per_commit") > 0.9,
                "commits do not force the log",
            );
        }
        "attached_dml" => {
            check(
                v("query.exec_us") == 0.0 && v("query.parse_us") == 0.0,
                "a query span appeared",
            );
            check(
                v("attach.invocations_per_write") >= 5.0,
                "attachments are not invoked",
            );
            check(v("attach.veto_rate") > 0.0, "nothing was vetoed");
            check(v("txn.abort_rate") > 0.0, "nothing aborted");
            check(v("core.rollback_us") > 0.0, "no rollback span");
        }
        _ => {}
    }
    broken
}
