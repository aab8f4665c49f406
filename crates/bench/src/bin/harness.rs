//! `harness [name-or-prefix …]`: runs the selected lanes at full size
//! (`scale` 1) and prints one table: lane, claim, ops, ns/op, then the
//! counter deltas. An argument selects the lane of that name and every
//! lane under it as a prefix (`e5`, `e6/selective`); none selects all.
//!
//! Run with: `cargo run --release -p dmx-bench --bin harness -- e3 e8`

use dmx_bench::{render, run, LANES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let picks = |name: &str, arg: &str| {
        name == arg || name.strip_prefix(arg).is_some_and(|s| s.starts_with('/'))
    };
    if let Some(unknown) = args
        .iter()
        .find(|a| !LANES.iter().any(|l| picks(l.name, a)))
    {
        let names: Vec<&str> = LANES.iter().map(|l| l.name).collect();
        eprintln!(
            "harness: no lane named `{unknown}`; choose from {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let rows: Vec<_> = LANES
        .iter()
        .filter(|l| args.is_empty() || args.iter().any(|a| picks(l.name, a)))
        .map(|l| run(l, 1))
        .collect();
    print!("{}", render(&rows, true));
}
