//! `xtask` — the workspace's static-analysis gate.
//!
//! `cargo xtask verify` (alias for `cargo run -p xtask -- verify`) runs
//! a source-level analysis over the workspace and fails on any violation
//! of the architecture's checked invariants — seven families:
//!
//! 1. panic discipline in runtime crates (shrinking allowlist in
//!    `crates/xtask/allow.toml`);
//! 2. fault-path discipline (no raw `MemDisk`/`StableLog` construction
//!    outside the I/O crates — all I/O passes the fault injector);
//! 3. audited `unsafe` (allowlisted module + `// SAFETY:` comment);
//! 4. the crate-layering DAG and the std-only dependency rule, and the
//!    paths extension crates may not name — among them `Appended::`, so
//!    no extension mints a write-ahead token or takes the unlogged path;
//! 5. one matcher from predicates to a key range (no extension takes
//!    the keyed predicate shapes apart);
//! 6. deterministic time (no `Instant`/`SystemTime` in runtime crates
//!    outside the `[[wallclock]]` allowlist — wall-clock timing belongs
//!    to `crates/bench`);
//! 7. registered metrics (no `static` atomics in runtime crates — all
//!    observability state flows through the per-database
//!    `MetricsRegistry`).
//!
//! What the compiler or a debug build proves needs no lint: write-ahead
//! is a type (`dmx_types::Appended`), and the latch rules — no lock,
//! device operation or scan pull under a latch or the evaluator — are
//! assertions every debug test run checks (`dmx_types::held`).
//!
//! The analysis is deliberately lexical (file walking plus token
//! scanning on comment-stripped source): it needs no network, no
//! rustc internals, and runs in milliseconds, so it can gate every
//! build. See DESIGN.md § "Checked invariants".

pub mod allowlist;
pub mod rules;
pub mod scan;

use std::path::Path;

use allowlist::Allowlist;
use rules::Violation;
use scan::{rust_files, SourceFile};

/// Runs every rule family against the workspace at `root`, returning
/// the findings sorted by rule, file and line. `Err` for I/O or
/// config-syntax failures.
pub fn verify(root: &Path) -> Result<Vec<Violation>, String> {
    let allow = Allowlist::load(&root.join("crates/xtask/allow.toml"))?;

    // Load runtime-crate sources once; all source-level rules share them.
    let mut files: Vec<SourceFile> = Vec::new();
    for krate in rules::RUNTIME_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        for (abs, rel) in rust_files(root, &src)? {
            files.push(SourceFile::load(&abs, rel)?);
        }
    }

    let mut violations = Vec::new();
    violations.extend(rules::check_panics(&files, &allow));
    violations.extend(rules::check_raw_io_construction(&files));
    violations.extend(rules::check_unsafe(&files, &allow));
    violations.extend(rules::check_layering(root));
    violations.extend(rules::check_private_paths(&files));
    violations.extend(rules::check_relevance(&files));
    violations.extend(rules::check_wallclock(&files, &allow));
    violations.extend(rules::check_metric_statics(&files));
    violations.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    Ok(violations)
}

/// Renders violations in `file:line: [CODE/rule] message` form.
pub fn render(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!(
            "{}:{}: [{}/{}] {}\n",
            v.path,
            v.line,
            v.code(),
            v.rule,
            v.msg
        ));
    }
    out
}
