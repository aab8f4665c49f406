//! The seven rule families of `xtask verify`.
//!
//! 1. **Panic discipline** — no `unwrap()` / `expect(` / `panic!` /
//!    `todo!` / `unimplemented!` and no unjustified range-slicing in
//!    non-test runtime code, modulo the shrinking allowlist.
//! 2. **Fault-path discipline** — no direct `MemDisk`/`StableLog`
//!    construction in non-test runtime code outside the I/O crates, so
//!    every disk/log flows through the fault-injection layer.
//! 3. **Unsafe audit** — every `unsafe` token lives in an allowlisted
//!    module and carries a nearby `// SAFETY:` comment.
//! 4. **Layering** — runtime crates only depend on crates below them in
//!    the documented DAG, never on external crates, and the extension
//!    crates never name kernel-internal paths (a write-ahead token's
//!    `Appended::` among them).
//! 5. **Extension relevance** — no storage method or attachment takes
//!    the keyed predicate shapes apart: `KeyMatch::of` is the one
//!    matcher. (That each implements its trait's operations is rustc's
//!    check, not this pass's.)
//! 6. **Deterministic time** — no `Instant`/`SystemTime` in non-test
//!    runtime code (modulo the `[[wallclock]]` allowlist), so metric
//!    snapshots and recovery stay pure functions of the workload;
//!    timing lives in `crates/bench`, which is not a runtime crate.
//! 7. **Registered metrics** — no `static` atomics in runtime crates:
//!    ad-hoc process-global counters bypass the per-database
//!    `MetricsRegistry` and alias state across databases.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

use crate::allowlist::{Allowlist, Entry};
use crate::scan::SourceFile;

/// One finding. `path` is root-relative.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub msg: String,
}

impl Violation {
    fn new(rule: &'static str, path: &str, line: usize, msg: String) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line,
            msg,
        }
    }

    /// The stable DMX code of this finding. Codes are append-only: a
    /// retired rule's code is never reused, and report consumers key on
    /// the code, not the internal rule name.
    pub fn code(&self) -> &'static str {
        match self.rule {
            "panic" | "panic-allowlist" => "DMX001",
            "raw-io" => "DMX002",
            "unsafe" | "unsafe-allowlist" => "DMX003",
            "layering" | "private-path" => "DMX004",
            "relevance" => "DMX005",
            "wallclock" | "wallclock-allowlist" => "DMX006",
            "metric-static" => "DMX007",
            _ => "DMX000",
        }
    }
}

/// The crates subject to the panic and layering rules, together with the
/// set of workspace crates each may depend on (the layering DAG of
/// DESIGN.md: types → pagestore/wal/lock → txn/btree/expr → core →
/// storage/attach → query).
pub const LAYERING: &[(&str, &[&str])] = &[
    ("types", &[]),
    ("pagestore", &["dmx-types"]),
    ("wal", &["dmx-types"]),
    ("lock", &["dmx-types"]),
    ("txn", &["dmx-types", "dmx-wal"]),
    ("btree", &["dmx-types", "dmx-page"]),
    ("expr", &["dmx-types"]),
    (
        "core",
        &[
            "dmx-types",
            "dmx-page",
            "dmx-wal",
            "dmx-lock",
            "dmx-txn",
            "dmx-expr",
            "dmx-btree",
        ],
    ),
    (
        "storage",
        &[
            "dmx-types",
            "dmx-page",
            "dmx-wal",
            "dmx-lock",
            "dmx-txn",
            "dmx-expr",
            "dmx-btree",
            "dmx-core",
        ],
    ),
    (
        "attach",
        &[
            "dmx-types",
            "dmx-page",
            "dmx-wal",
            "dmx-lock",
            "dmx-txn",
            "dmx-expr",
            "dmx-btree",
            "dmx-core",
        ],
    ),
    (
        "query",
        &[
            "dmx-types",
            "dmx-page",
            "dmx-wal",
            "dmx-lock",
            "dmx-txn",
            "dmx-expr",
            "dmx-btree",
            "dmx-core",
            "dmx-storage",
            "dmx-attach",
        ],
    ),
];

/// Crates whose non-test code must be panic-free (rule 1). `types` is
/// included: it is below everything and its panics would surface
/// everywhere.
pub const RUNTIME_CRATES: &[&str] = &[
    "types",
    "pagestore",
    "wal",
    "lock",
    "txn",
    "btree",
    "expr",
    "core",
    "storage",
    "attach",
    "query",
];

const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "unwrap"),
    (".expect(", "expect"),
    ("panic!", "panic"),
    ("todo!", "todo"),
    ("unimplemented!", "unimplemented"),
];

// ---------------------------------------------------------------------
// Rule 1: panic discipline
// ---------------------------------------------------------------------

/// Scans `files` (runtime-crate sources) for banned panic tokens and
/// unjustified range-slicing, then reconciles the hits against the
/// allowlist: uncovered hits are violations, and so are allowlist
/// entries whose recorded count no longer matches the source (the
/// ratchet must shrink explicitly, not rot).
pub fn check_panics(files: &[SourceFile], allow: &Allowlist) -> Vec<Violation> {
    // (path, token) -> the lines it occurs on
    let mut hits: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for f in files {
        for (i, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for (needle, token) in PANIC_TOKENS {
                let mut n = 0;
                let mut rest = line.code.as_str();
                while let Some(p) = rest.find(needle) {
                    n += 1;
                    rest = &rest[p + needle.len()..];
                }
                // `debug_assert!`-style macros are fine; `panic!` inside
                // their message strings was already blanked by the lexer.
                for _ in 0..n {
                    hits.entry((f.rel.clone(), token.to_string()))
                        .or_default()
                        .push(i + 1);
                }
            }
            for col in slice_sites(&line.code) {
                if !slice_justified(f, i) {
                    let _ = col;
                    hits.entry((f.rel.clone(), "slice-index".to_string()))
                        .or_default()
                        .push(i + 1);
                }
            }
        }
    }
    ratchet(
        ("panic", "panic-allowlist"),
        &allow.panics,
        hits,
        |token, allowed, found| {
            format!("`{token}` in non-test runtime code (allowlisted: {allowed}, found: {found})")
        },
    )
}

/// The allowlist ratchet of rules 1 and 6. `hits` maps `(path, token)`
/// (the token empty for wall-clock hits) to the lines it occurs on, and
/// the entries tolerate a count per key. Hits beyond an entry's count
/// are `rule` violations — `found(token, allowed, hits)` says what — and
/// entries with no reason, or a count the source no longer matches, are
/// `stale` violations: the list must shrink explicitly, not rot.
fn ratchet(
    (rule, stale): (&'static str, &'static str),
    entries: &[Entry],
    hits: HashMap<(String, String), Vec<usize>>,
    found: impl Fn(&str, usize, usize) -> String,
) -> Vec<Violation> {
    let label = |(path, token): &(String, String)| match token.is_empty() {
        true => path.clone(),
        false => format!("{path}:{token}"),
    };
    let mut out = Vec::new();
    let mut allowed: HashMap<(String, String), usize> = HashMap::new();
    for e in entries {
        let key = (e.path.clone(), e.token.clone());
        if e.reason.trim().is_empty() {
            let msg = format!("entry for {} has no justification", label(&key));
            out.push(Violation::new(stale, ALLOW_TOML, e.line, msg));
        }
        *allowed.entry(key).or_default() += e.count;
    }
    let mut keys: Vec<_> = hits.keys().cloned().collect();
    keys.sort();
    for key in keys {
        let lines = &hits[&key];
        let allow_n = allowed.remove(&key).unwrap_or(0);
        for l in lines.iter().skip(allow_n) {
            let msg = found(&key.1, allow_n, lines.len());
            out.push(Violation::new(rule, &key.0, *l, msg));
        }
        if lines.len() < allow_n {
            let msg = format!(
                "stale entry: {} allows {allow_n} but source has {} — shrink the allowlist",
                label(&key),
                lines.len()
            );
            out.push(Violation::new(stale, ALLOW_TOML, 0, msg));
        }
    }
    // Entries whose file/token produced no hits at all are stale too.
    for (key, n) in allowed {
        let msg = format!(
            "stale entry: {} allows {n} but source has 0 — remove it",
            label(&key)
        );
        out.push(Violation::new(stale, ALLOW_TOML, 0, msg));
    }
    out
}

const ALLOW_TOML: &str = "crates/xtask/allow.toml";

/// Byte columns of range-slicing subscripts (`x[a..b]`, `x[..n]`) in a
/// code line. Subscript position = `[` preceded by an identifier char,
/// `)`, or `]`; the bracket content must contain `..` and no `;` (which
/// would make it an array type/repeat expression).
fn slice_sites(code: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    for i in 0..b.len() {
        if b[i] != b'[' || i == 0 {
            continue;
        }
        let prev = b[i - 1] as char;
        if !(prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
            continue;
        }
        // find the matching bracket on this line (subscripts are short)
        let mut depth = 0;
        let mut end = None;
        for (j, &c) in b.iter().enumerate().skip(i) {
            if c == b'[' {
                depth += 1;
            } else if c == b']' {
                depth -= 1;
                if depth == 0 {
                    end = Some(j);
                    break;
                }
            }
        }
        let Some(end) = end else { continue };
        let inner = &code[i + 1..end];
        if inner.contains("..") && !inner.contains(';') {
            out.push(i);
        }
    }
    out
}

/// A range-slice is justified by a comment containing "bounds" on the
/// same line or within the two lines above (e.g. `// bounds: header
/// length validated by the checksum above`).
fn slice_justified(f: &SourceFile, idx: usize) -> bool {
    let lo = idx.saturating_sub(2);
    f.lines[lo..=idx]
        .iter()
        .any(|l| l.comment.to_ascii_lowercase().contains("bounds"))
}

// ---------------------------------------------------------------------
// Rule 2: fault-path discipline
// ---------------------------------------------------------------------

/// Constructors that bypass the fault-injection layer. Runtime code above
/// the I/O crates must obtain its disk and log through the fault-aware
/// environment (`FaultDisk::fresh`/`over`, `StableLog::with_injector`, or
/// `DatabaseEnv`), so every I/O is visible to the shared injector and the
/// crash-point sweep covers it.
const RAW_IO_CONSTRUCTORS: &[&str] = &[
    "MemDisk::new",
    "MemDisk::default",
    "StableLog::new",
    "StableLog::default",
];

/// Denies direct `MemDisk`/`StableLog` construction in non-test runtime
/// code outside `crates/pagestore/` and `crates/wal/` (the crates that
/// define them and their fault-aware wrappers).
pub fn check_raw_io_construction(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if f.rel.starts_with("crates/pagestore/") || f.rel.starts_with("crates/wal/") {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for ctor in RAW_IO_CONSTRUCTORS {
                if line.code.contains(ctor) {
                    out.push(Violation::new(
                        "raw-io",
                        &f.rel,
                        i + 1,
                        format!(
                            "`{ctor}` bypasses the fault-injection layer — construct the \
                             disk/log through `DatabaseEnv` or the fault-aware wrappers"
                        ),
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 3: unsafe audit
// ---------------------------------------------------------------------

/// Every `unsafe` token must live in an allowlisted module and carry a
/// `// SAFETY:` comment on the same line or within three lines above.
pub fn check_unsafe(files: &[SourceFile], allow: &Allowlist) -> Vec<Violation> {
    let mut out = Vec::new();
    let allowed: HashSet<&str> = allow
        .unsafe_modules
        .iter()
        .map(|e| e.path.as_str())
        .collect();
    let mut used: HashSet<String> = HashSet::new();
    for f in files {
        for (i, line) in f.lines.iter().enumerate() {
            if !has_word(&line.code, "unsafe") {
                continue;
            }
            used.insert(f.rel.clone());
            if !allowed.contains(f.rel.as_str()) {
                out.push(Violation::new(
                    "unsafe",
                    &f.rel,
                    i + 1,
                    "`unsafe` outside the allowlisted modules in allow.toml".to_string(),
                ));
            }
            let lo = i.saturating_sub(3);
            let justified = f.lines[lo..=i]
                .iter()
                .any(|l| l.comment.contains("SAFETY:"));
            if !justified {
                out.push(Violation::new(
                    "unsafe",
                    &f.rel,
                    i + 1,
                    "`unsafe` without a `// SAFETY:` comment".to_string(),
                ));
            }
        }
    }
    for e in &allow.unsafe_modules {
        if !used.contains(&e.path) {
            out.push(Violation::new(
                "unsafe-allowlist",
                "crates/xtask/allow.toml",
                e.line,
                format!(
                    "stale entry: {} contains no unsafe code — remove it",
                    e.path
                ),
            ));
        }
    }
    out
}

fn has_word(code: &str, word: &str) -> bool {
    let b = code.as_bytes();
    let mut start = 0;
    while let Some(p) = code[start..].find(word) {
        let at = start + p;
        let before_ok = at == 0 || {
            let c = b[at - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        let after = at + word.len();
        let after_ok = after >= b.len() || {
            let c = b[after] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

// ---------------------------------------------------------------------
// Rule 6: deterministic time
// ---------------------------------------------------------------------

/// Wall-clock tokens denied in non-test runtime code (word-boundary
/// matched, so e.g. "Instantiates" in prose does not trip it — though
/// comments are stripped before scanning anyway). The observability
/// layer is clock-free by design: a metric snapshot must be a pure
/// function of the workload, and recovery must not branch on real time.
/// Wall-clock timing belongs to the bench harness (`crates/bench`),
/// which is not a runtime crate and is not scanned.
const WALLCLOCK_TOKENS: &[&str] = &["Instant", "SystemTime"];

/// Scans runtime-crate sources for wall-clock tokens and reconciles the
/// hits against the `[[wallclock]]` allowlist with the same ratchet
/// contract as the panic rule: uncovered hits are violations, and so
/// are entries whose recorded count no longer matches the source.
pub fn check_wallclock(files: &[SourceFile], allow: &Allowlist) -> Vec<Violation> {
    let mut hits: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for f in files {
        for (i, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for tok in WALLCLOCK_TOKENS {
                if has_word(&line.code, tok) {
                    hits.entry((f.rel.clone(), String::new()))
                        .or_default()
                        .push(i + 1);
                }
            }
        }
    }
    ratchet(
        ("wallclock", "wallclock-allowlist"),
        &allow.wallclock,
        hits,
        |_, allowed, found| {
            format!(
            "wall-clock type in non-test runtime code (allowlisted: {allowed}, found: {found}) \
             — deterministic paths must not read real time; timing belongs in crates/bench"
        )
        },
    )
}

// ---------------------------------------------------------------------
// Rule 7: registered metrics (no ad-hoc atomic statics)
// ---------------------------------------------------------------------

/// Denies `static` items holding atomics in non-test runtime code.
/// Observability state must live in the per-database `MetricsRegistry`
/// (`crates/types/src/obs.rs`, the one exempt module): a process-global
/// counter aliases state across concurrently open databases and makes
/// snapshots depend on unrelated instances.
pub fn check_metric_statics(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if f.rel == "crates/types/src/obs.rs" {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if has_word(&line.code, "static") && line.code.contains("Atomic") {
                out.push(Violation::new(
                    "metric-static",
                    &f.rel,
                    i + 1,
                    "`static` atomic in runtime code — register a counter on the \
                     per-database `MetricsRegistry` instead of a process-global"
                        .to_string(),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 4: layering
// ---------------------------------------------------------------------

/// Verifies the dependency DAG from each crate's `Cargo.toml` and the
/// std-only constraint (no external crates anywhere in runtime crates,
/// dev-dependencies included — the workspace must resolve offline).
pub fn check_layering(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for (krate, allowed) in LAYERING {
        let rel = format!("crates/{krate}/Cargo.toml");
        let path = root.join(&rel);
        if !path.exists() {
            continue;
        }
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                out.push(Violation::new(
                    "layering",
                    &rel,
                    0,
                    format!("unreadable: {e}"),
                ));
                continue;
            }
        };
        let allowed: HashSet<&str> = allowed.iter().copied().collect();
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                section = line.to_string();
                continue;
            }
            let dep_section = matches!(
                section.as_str(),
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            if !dep_section || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((name, _)) = line.split_once('=') else {
                continue;
            };
            // `dmx-types.workspace = true` — the dep name is the part
            // before the first dot.
            let name = name.trim().trim_matches('"');
            let name = name.split('.').next().unwrap_or(name);
            if let Some(dep) = name.strip_prefix("dmx-") {
                let _ = dep;
                if section == "[dependencies]" && !allowed.contains(name) {
                    out.push(Violation::new(
                        "layering",
                        &rel,
                        i + 1,
                        format!(
                            "crate `{krate}` must not depend on `{name}` (layering DAG: {})",
                            if allowed.is_empty() {
                                "no workspace deps".to_string()
                            } else {
                                let mut v: Vec<_> = allowed.iter().copied().collect();
                                v.sort();
                                v.join(", ")
                            }
                        ),
                    ));
                }
            } else {
                out.push(Violation::new(
                    "layering",
                    &rel,
                    i + 1,
                    format!(
                        "external dependency `{name}` in runtime crate `{krate}` — the \
                         workspace is std-only (put tooling deps in the excluded bench crate)"
                    ),
                ));
            }
        }
    }
    out
}

/// Extension crates must reach the kernel only through the generic trait
/// surface re-exported at `dmx_core::` root — naming `dmx_core::database::`
/// or `dmx_core::catalog::` module paths is a contract violation, and so
/// is `Appended::`: an extension changes a page against the token its log
/// append returned, and neither mints one nor takes the unlogged path on
/// a page that exists (a fresh page it may format, `FreshPage`). The
/// mirror image holds for the planner and the executor: they choose and
/// open access paths through the generic interfaces alone, so they name
/// no storage-method crate, no attachment type but the join index (a
/// pair scan, an operator of its own) and look no extension up, or tell
/// one from another, by its name.
pub fn check_private_paths(files: &[SourceFile]) -> Vec<Violation> {
    const DENIED: &[&str] = &["dmx_core::database::", "dmx_core::catalog::", "Appended::"];
    const PLANNER: &[&str] = &["crates/query/src/planner.rs", "crates/query/src/exec.rs"];
    let mut out = Vec::new();
    for f in files {
        let extension = f.rel.starts_with("crates/storage/") || f.rel.starts_with("crates/attach/");
        let planner = PLANNER.contains(&f.rel.as_str());
        if !extension && !planner {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            let mut deny =
                |msg: String| out.push(Violation::new("private-path", &f.rel, i + 1, msg));
            for d in DENIED
                .iter()
                .filter(|d| extension && line.code.contains(**d))
            {
                deny(format!(
                    "extension crate names kernel-internal path `{d}` — use the \
                     generic interface re-exports at `dmx_core::` root"
                ));
            }
            if !planner {
                continue;
            }
            let code = line.code.replace("dmx_attach::join_index::", "");
            let named = ["dmx_storage::", "dmx_attach::", ".name() =="]
                .into_iter()
                .find(|d| code.contains(d))
                .or(
                    (code.contains("_id_by_name(\"") && line.literals != "joinindex")
                        .then_some("_id_by_name(\"…\")"),
                );
            if let Some(d) = named {
                deny(format!(
                    "planner names an extension (`{d}`) — an access path enters a \
                     plan through `estimate`, never by name"
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 5: extension relevance
// ---------------------------------------------------------------------

/// Which predicates a key answers is decided once, by `KeyMatch::of` in
/// `dmx_core::cost`: a keyed extension states its key fields and calls
/// it, and takes none of the sarg shapes it reads apart. The spatial
/// shapes are the R-tree's own. (That every extension implements its
/// trait's required operations is rustc's to enforce, not this pass's.)
pub fn check_relevance(files: &[SourceFile]) -> Vec<Violation> {
    const KEYED: &[&str] = &["Eq", "EqParam", "Range"];
    let extension =
        |rel: &str| rel.starts_with("crates/storage/src/") || rel.starts_with("crates/attach/src/");
    let mut out = Vec::new();
    for f in files.iter().filter(|f| extension(&f.rel)) {
        for (i, line) in f.lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
            let mut names = line.code.split("SargOp::").skip(1).map(|rest| {
                rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
                    .unwrap_or_default()
            });
            if let Some(shape) = names.find(|name| KEYED.contains(name)) {
                let msg = format!(
                    "extension takes `SargOp::{shape}` apart — state the key fields and \
                     call `KeyMatch::of`, the one matcher from predicates to a key range"
                );
                out.push(Violation::new("relevance", &f.rel, i + 1, msg));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(rel: &str, src: &str) -> SourceFile {
        // Tests run on parallel threads and several share a `rel`: the
        // sequence number keeps their temp files apart.
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xtask-test-{}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            rel.replace('/', "_")
        ));
        std::fs::write(&dir, src).expect("write temp");
        let f = SourceFile::load(&dir, rel.to_string()).expect("load");
        let _ = std::fs::remove_file(&dir);
        f
    }

    #[test]
    fn panic_tokens_found_outside_tests_only() {
        let f = sf(
            "crates/wal/src/log.rs",
            "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn b() { y.unwrap(); } }\n",
        );
        let v = check_panics(&[f], &Allowlist::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn slice_needs_bounds_comment() {
        let with = sf(
            "crates/wal/src/a.rs",
            "// bounds: header checked above\nlet y = &buf[4..8];\n",
        );
        let without = sf("crates/wal/src/b.rs", "let y = &buf[4..8];\n");
        assert!(check_panics(&[with], &Allowlist::default()).is_empty());
        let v = check_panics(&[without], &Allowlist::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("slice-index"));
    }

    #[test]
    fn array_types_and_attrs_are_not_slices() {
        let f = sf(
            "crates/wal/src/c.rs",
            "let a: [u8; 4] = [0; 4];\n#[cfg(feature = \"x\")]\nlet m = map[key];\n",
        );
        assert!(check_panics(&[f], &Allowlist::default()).is_empty());
    }

    #[test]
    fn raw_io_construction_denied_outside_io_crates() {
        let core = sf(
            "crates/core/src/services.rs",
            "fn mk() { let d = MemDisk::new(); }\n#[cfg(test)]\nmod t { fn b() { let l = StableLog::new(); } }\n",
        );
        let v = check_raw_io_construction(&[core]);
        assert_eq!(v.len(), 1, "only the non-test hit: {v:?}");
        assert_eq!(v[0].line, 1);
        assert!(v[0].msg.contains("MemDisk::new"));

        let wal = sf(
            "crates/wal/src/log.rs",
            "fn mk() { let l = StableLog::new(); }\n",
        );
        assert!(check_raw_io_construction(&[wal]).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_and_allowlisting() {
        let f = sf("crates/pagestore/src/raw.rs", "unsafe { do_it() }\n");
        let v = check_unsafe(&[f], &Allowlist::default());
        assert_eq!(v.len(), 2, "both unallowlisted and uncommented: {v:?}");
    }

    #[test]
    fn wallclock_denied_outside_tests_with_word_boundaries() {
        let f = sf(
            "crates/core/src/database.rs",
            "fn now() { let t = std::time::Instant::now(); }\n\
             /// Instantiates a plan subtree.\n\
             fn mk() { let s = SystemTime::now(); }\n\
             #[cfg(test)]\nmod t { use std::time::Instant; }\n",
        );
        let v = check_wallclock(&[f], &Allowlist::default());
        // line 1 (Instant) and line 3 (SystemTime); the doc comment and
        // the test module are exempt.
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn wallclock_allowlist_covers_and_ratchets() {
        let f = sf(
            "crates/lock/src/manager.rs",
            "fn a() { let t = Instant::now(); }\n",
        );
        let mut allow = Allowlist::default();
        allow.wallclock.push(crate::allowlist::Entry {
            path: "crates/lock/src/manager.rs".into(),
            count: 1,
            reason: "timeout".into(),
            line: 1,
            ..Default::default()
        });
        assert!(check_wallclock(std::slice::from_ref(&f), &allow).is_empty());
        // An over-counted entry is stale and fails the ratchet.
        allow.wallclock[0].count = 2;
        let v = check_wallclock(&[f], &allow);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("shrink"));
    }

    #[test]
    fn metric_statics_denied_outside_obs() {
        let bad = sf(
            "crates/wal/src/log.rs",
            "static APPENDS: AtomicU64 = AtomicU64::new(0);\n",
        );
        let v = check_metric_statics(&[bad]);
        assert_eq!(v.len(), 1, "{v:?}");
        // Atomics as struct fields (no `static`) and the obs module
        // itself are both fine.
        let field = sf("crates/wal/src/log.rs", "appends: AtomicU64,\n");
        let obs = sf(
            "crates/types/src/obs.rs",
            "static FALLBACK: AtomicU64 = AtomicU64::new(0);\n",
        );
        assert!(check_metric_statics(&[field, obs]).is_empty());
    }

    #[test]
    fn obs_extension_code_paths_stay_rule7_clean() {
        // The observability surface keeps all state per database: the
        // EXPLAIN ANALYZE profile holds its counters as struct fields
        // and the system storage method only reads the registry. Both
        // shapes must pass; a static atomic in either file must not.
        let profile = sf(
            "crates/query/src/exec.rs",
            "pub struct PlanProfile {\n    counters: Vec<AtomicU64>,\n}\n",
        );
        let sysrel = sf(
            "crates/storage/src/system.rs",
            "fn materialize() { let m = db.metrics().snapshot(); }\n",
        );
        assert!(check_metric_statics(&[profile, sysrel]).is_empty());
        let bad = sf(
            "crates/storage/src/system.rs",
            "static SCANS: AtomicU64 = AtomicU64::new(0);\n",
        );
        let v = check_metric_statics(&[bad]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("MetricsRegistry"));
    }
}
