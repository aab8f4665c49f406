//! CLI for the workspace static-analysis gate.
//!
//! Usage: `cargo xtask verify [--root <dir>]` (`cargo xtask` is an alias
//! for `cargo run -p xtask --`, see `.cargo/config.toml`).

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Default root: the workspace this binary was built from.
    let built_from = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let root = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["verify"] => built_from.unwrap_or(Path::new(".")),
        ["verify", "--root", dir] | ["--root", dir, "verify"] => Path::new(dir),
        _ => {
            eprintln!("usage: cargo xtask verify [--root <dir>]");
            return ExitCode::from(2);
        }
    };
    match xtask::verify(root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask verify: all checked invariants hold");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            print!("{}", xtask::render(&violations));
            eprintln!("xtask verify: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask verify: error: {e}");
            ExitCode::from(2)
        }
    }
}
