//! `xtask` — the workspace's static-analysis gate.
//!
//! `cargo xtask verify` (alias for `cargo run -p xtask -- verify`) runs
//! a source-level analysis over the workspace and fails on any violation
//! of the architecture's checked invariants:
//!
//! 1. panic discipline in runtime crates (shrinking allowlist in
//!    `crates/xtask/allow.toml`);
//! 2. fault-path discipline (no raw `MemDisk`/`StableLog` construction
//!    outside the I/O crates — all I/O passes the fault injector);
//! 3. audited `unsafe` (allowlisted module + `// SAFETY:` comment);
//! 4. the crate-layering DAG and the std-only dependency rule;
//! 5. one matcher from predicates to a key range (no extension takes
//!    the keyed predicate shapes apart);
//! 6. deterministic time (no `Instant`/`SystemTime` in runtime crates
//!    outside the `[[wallclock]]` allowlist — wall-clock timing belongs
//!    to `crates/bench`);
//! 7. registered metrics (no `static` atomics in runtime crates — all
//!    observability state flows through the per-database
//!    `MetricsRegistry`);
//! 8. write-ahead discipline, 9. lock-order acyclicity, and 10. no
//!    device I/O under a live page latch — the interprocedural effect
//!    rules of `effects.rs`, driven by `crates/xtask/effects.toml` and
//!    the shrink-only waiver baseline `effects_baseline.toml`
//!    (skipped by `verify --fast`).
//!
//! The analysis is deliberately lexical (file walking plus token
//! scanning on comment-stripped source): it needs no network, no
//! rustc internals, and runs in milliseconds, so it can gate every
//! build. See DESIGN.md § "Checked invariants".

pub mod allowlist;
pub mod effects;
pub mod graph;
pub mod rules;
pub mod scan;

use std::path::Path;

use allowlist::Allowlist;
use effects::WaiverUse;
use rules::Violation;
use scan::{rust_files, SourceFile};

/// Knobs for a verify run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Options {
    /// Skip the interprocedural effect pass (rules 8–10). Pre-commit
    /// lane; the full pass gates `scripts/check.sh`.
    pub fast: bool,
}

/// Outcome of a verify run: sorted findings plus the waivers the
/// effect pass consumed (surfaced in `--json` so the shrink-only
/// ratchet in check.sh can diff the waiver set).
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub waivers: Vec<WaiverUse>,
}

/// Runs every rule family against the workspace at `root`.
/// `Err` for I/O or config-syntax failures.
pub fn run(root: &Path, opts: Options) -> Result<Report, String> {
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
    let mut waivers = Vec::new();
    if !opts.fast {
        let (effect_violations, used) = effects::check_effects(root, &files)?;
        violations.extend(effect_violations);
        waivers = used;
    }
    violations.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    waivers.sort_by_key(|w| (w.code.clone(), w.site.clone()));
    Ok(Report {
        violations,
        waivers,
    })
}

/// Compatibility wrapper: full run, violations only.
pub fn verify(root: &Path) -> Result<Vec<Violation>, String> {
    run(root, Options::default()).map(|r| r.violations)
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

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report. Violations carry their stable
/// DMX code; consumed waivers carry an `id` of the form
/// `"DMXnnn Type::fn"`, which check.sh diffs shrink-only against the
/// committed `VERIFY.json`.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"code\": \"{}\", \"rule\": \"{}\", \"path\": \"{}\", \
             \"line\": {}, \"msg\": \"{}\"}}",
            v.code(),
            json_escape(v.rule),
            json_escape(&v.path),
            v.line,
            json_escape(&v.msg)
        ));
    }
    out.push_str(if report.violations.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"waivers\": [");
    for (i, w) in report.waivers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"id\": \"{} {}\", \"count\": {}}}",
            json_escape(&w.code),
            json_escape(&w.site),
            w.count
        ));
    }
    out.push_str(if report.waivers.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}
