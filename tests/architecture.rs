//! The architecture's rules that no compiler lint states (DESIGN §8),
//! checked over the workspace's own manifests, lockfile and sources. The
//! panic, raw I/O, unsafe and wall-clock rules are lints (`Cargo.toml`,
//! `clippy.toml`), and the kernel's private paths are private modules of
//! `dmx-core`.
//!
//! Each check is a function of a file's root-relative path and its text
//! that returns one `path:line: message` per violation. A source line
//! splits at its first `//` into code and comment, and everything from a
//! file's `#[cfg(test)] mod tests` onward is test code.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::path::Path;

/// Each workspace package (`dmx-` dropped) and the packages its
/// `[dependencies]` may name (DMX004); the timing harness sits on top.
const DAG: &str = "
types:
page: types
wal: types
lock: types
expr: types
txn: types wal
btree: types page
core: types page wal lock txn expr btree
storage: types page wal lock txn expr btree core
attach: types page wal lock txn expr btree core
query: types page wal lock txn expr btree core storage attach
bench: types page wal lock txn expr btree core storage attach query";

/// A crate manifest: every dependency is a workspace package, and a
/// normal one lies below the crate in the DAG.
fn layering(path: &str, text: &str) -> Vec<String> {
    let (mut out, mut section, mut allowed) = (Vec::new(), "", None);
    for (i, line) in text.lines().map(str::trim).enumerate() {
        section = if line.starts_with('[') { line } else { section };
        let (key, value) = line.split_once('=').unwrap_or_default();
        let dep = key.split('.').next().unwrap_or_default().trim();
        if section == "[package]" && dep == "name" {
            let name = value.trim().trim_matches('"').trim_start_matches("dmx-");
            allowed = DAG
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name}:")));
        }
        if !section.ends_with("dependencies]") || key.is_empty() {
            continue;
        }
        let at = format!("{path}:{}", i + 1);
        let Some(dep) = dep.strip_prefix("dmx-") else {
            out.push(format!("{at}: external dependency `{dep}`"));
            continue;
        };
        let below = allowed.is_some_and(|a| a.split_whitespace().any(|a| a == dep));
        if section == "[dependencies]" && !below {
            out.push(format!("{at}: `dmx-{dep}` is not below this crate"));
        }
    }
    out
}

/// `Cargo.lock`: std-only, so no package comes from a registry or git.
fn std_only(path: &str, text: &str) -> Vec<String> {
    let msg = "a package from outside the workspace";
    report(path, text, msg, |ls, i| ls[i].0.starts_with("source ="))
}

/// A line's code, its `//` comment and whether it is test code.
type Line<'a> = (&'a str, &'a str, bool);

fn lines(text: &str) -> Vec<Line<'_>> {
    let raw: Vec<&str> = text.lines().map(str::trim).collect();
    // The first line past `i`'s attributes and comments.
    let item = |i: usize| raw[i..].iter().find(|l| !l.starts_with(['#', '/']));
    let opens_tests =
        |i| raw[i] == "#[cfg(test)]" && item(i).is_some_and(|l| l.starts_with("mod tests"));
    let end = raw.len();
    let tests = (0..end).find(|&i| opens_tests(i)).unwrap_or(end);
    raw.iter()
        .enumerate()
        .map(|(i, l)| {
            let (code, comment) = l.split_once("//").unwrap_or((l, ""));
            (code, comment, i >= tests)
        })
        .collect()
}

/// One `path:line: msg` for each line `hit` picks out.
fn report(path: &str, text: &str, msg: &str, hit: impl Fn(&[Line], usize) -> bool) -> Vec<String> {
    let ls = lines(text);
    let hits = (0..ls.len()).filter(|&i| hit(&ls, i));
    hits.map(|i| format!("{path}:{}: {msg}", i + 1)).collect()
}

fn is_extension(path: &str) -> bool {
    path.starts_with("crates/storage/src/") || path.starts_with("crates/attach/src/")
}

fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
}

/// An extension changes a page against the token its log append
/// returned: it neither mints a write-ahead token nor takes the unlogged
/// path on a page that exists (DMX004).
fn appended(path: &str, text: &str) -> Vec<String> {
    let msg = "an extension names `Appended::`";
    let hit = |ls: &[Line], i: usize| is_extension(path) && ls[i].0.contains("Appended::");
    report(path, text, msg, hit)
}

/// The planner and the executor choose and open access paths through
/// the generic interfaces alone: they name no extension but the join
/// index (a pair scan, an operator of its own) and look none up by name.
fn planner_names(path: &str, text: &str) -> Vec<String> {
    let planner = path == "crates/query/src/planner.rs" || path == "crates/query/src/exec.rs";
    let msg = "the planner names an extension: a path enters a plan through `estimate`";
    let named = [
        "dmx_storage::",
        "dmx_attach::",
        ".name() ==",
        "_id_by_name(\"",
    ];
    report(path, text, msg, |ls, i| {
        let code = ls[i].0.replace("dmx_attach::join_index::", "");
        let code = code.replace("_id_by_name(\"joinindex\")", "");
        planner && named.iter().any(|d| code.contains(d))
    })
}

/// Which predicates a key answers is decided once, by `KeyMatch::of`: no
/// extension takes the keyed sarg shapes apart (DMX005).
fn relevance(path: &str, text: &str) -> Vec<String> {
    let msg = "an extension takes a keyed `SargOp` apart: call `KeyMatch::of`";
    let keyed = |rest: &str| matches!(words(rest).next(), Some("Eq" | "EqParam" | "Range"));
    report(path, text, msg, |ls, i| {
        is_extension(path) && !ls[i].2 && ls[i].0.split("SargOp::").skip(1).any(keyed)
    })
}

/// Metrics live in the per-database `MetricsRegistry`: a `static`
/// atomic would alias state across databases (DMX007).
fn static_atomics(path: &str, text: &str) -> Vec<String> {
    let msg = "a `static` atomic outside obs.rs";
    report(path, text, msg, |ls, i| {
        let atomic = words(ls[i].0).any(|w| w == "static") && ls[i].0.contains("Atomic");
        path != "crates/types/src/obs.rs" && !ls[i].2 && atomic
    })
}

/// A subscript like `x[a..b]` or `x[..n]`: `[` after a name, `)` or `]`,
/// holding `..` and no `;` (an array type or repeat expression).
fn has_range_slice(code: &str) -> bool {
    code.match_indices('[').any(|(i, _)| {
        let mut depth = 0;
        let close = code[i..].find(|c| {
            depth += i32::from(c == '[') - i32::from(c == ']');
            depth == 0
        });
        let inner = close.map_or("", |n| &code[i + 1..i + n]);
        let subscript = code[..i].ends_with(|c: char| c.is_alphanumeric() || "_)]".contains(c));
        subscript && inner.contains("..") && !inner.contains(';')
    })
}

/// A range slice panics out of bounds, so runtime code says why its
/// bounds hold, in a comment naming them on its line or the two above
/// (DMX001). Plain indexes are many and left to review.
fn range_slices(path: &str, text: &str) -> Vec<String> {
    let msg = "a range slice with no `// bounds:` comment";
    report(path, text, msg, |ls, i| {
        let near = &ls[i.saturating_sub(2)..=i];
        let justified = near.iter().any(|l| l.1.contains("bounds"));
        !ls[i].2 && has_range_slice(ls[i].0) && !justified
    })
}

type Check = fn(&str, &str) -> Vec<String>;

fn read(root: &Path, rel: &str, out: &mut Vec<(String, String)>) {
    let path = root.join(rel);
    if !path.is_dir() {
        return out.push((rel.to_string(), fs::read_to_string(path).unwrap()));
    }
    for entry in fs::read_dir(path).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        read(root, &format!("{rel}/{name}"), out);
    }
}

#[test]
fn the_workspace_passes_every_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    read(root, "Cargo.lock", &mut files);
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        let krate = entry.unwrap().file_name().into_string().unwrap();
        read(root, &format!("crates/{krate}/Cargo.toml"), &mut files);
        if krate != "bench" {
            read(root, &format!("crates/{krate}/src"), &mut files);
        }
    }
    let sources = [
        appended,
        planner_names,
        relevance,
        static_atomics,
        range_slices,
    ];
    let (mut found, mut rust) = (Vec::new(), 0);
    for (path, text) in &files {
        let each: &[Check] = match path.rsplit('.').next() {
            Some("lock") => &[std_only],
            Some("toml") => &[layering],
            Some("rs") => &sources,
            _ => &[],
        };
        rust += usize::from(path.ends_with(".rs"));
        found.extend(each.iter().flat_map(|check| check(path, text)));
    }
    assert!(rust > 80, "the walk found {rust} runtime sources");
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// The cases of `check` on `path`: `bad` holds one violation, `good` none.
fn cases(check: Check, path: &str) -> impl Fn(&str, &str) + '_ {
    move |bad, good| {
        assert_eq!(check(path, bad).len(), 1, "{path}: {bad}");
        assert_eq!(check(path, good), Vec::<String>::new(), "{path}: {good}");
    }
}

#[test]
fn layering_rejects_upward_and_external_dependencies() {
    let fires = cases(layering, "crates/wal/Cargo.toml");
    let wal = "[package]\nname = \"dmx-wal\"\n[dependencies]\ndmx-types = {}\n";
    let dev = format!("{wal}[dev-dependencies]\ndmx-core = {{}}\n");
    fires(&format!("{wal}dmx-core.workspace = true\n"), &dev);
    fires(&format!("{wal}serde = \"1\"\n"), wal);
    let cache = "[package]\nname = \"dmx-cache\"\n";
    fires(&format!("{cache}[dependencies]\ndmx-types = {{}}\n"), cache);
}

#[test]
fn std_only_rejects_a_package_from_a_registry() {
    let lock = "[[package]]\nname = \"serde\"\nversion = \"1.0.0\"\n";
    let registry = format!("{lock}source = \"registry+https://example.com\"\n");
    cases(std_only, "Cargo.lock")(&registry, lock);
}

#[test]
fn extensions_mint_no_write_ahead_token() {
    let mint = "p.write(Appended::unlogged());";
    cases(appended, "crates/attach/src/keyed.rs")(mint, "p.write(token);");
    cases(appended, "crates/storage/src/heap.rs")(mint, "// Appended::new()");
    assert!(appended("crates/core/src/dml.rs", mint).is_empty());
}

#[test]
fn the_planner_names_no_extension_but_the_join_index() {
    let fires = cases(planner_names, "crates/query/src/planner.rs");
    fires("use dmx_storage::Heap;", "use dmx_attach::join_index::Ji;");
    fires("if a.name() == \"btree\" {", "if a.id() == id {");
    fires(
        "r.att_id_by_name(\"hash\")",
        "r.att_id_by_name(\"joinindex\")",
    );
    assert!(planner_names("crates/query/src/session.rs", "use dmx_storage::X;").is_empty());
}

#[test]
fn relevance_keeps_keyed_sarg_shapes_out_of_extensions() {
    let fires = cases(relevance, "crates/storage/src/btree_sm.rs");
    fires("SargOp::Eq(v) => v,", "SargOp::Overlaps(r) => r,");
    fires("SargOp::EqParam(p) => p,", "SargOp::Equals(x)");
    fires("Some(SargOp::Range { .. })", "KeyMatch::of(fields, sargs)");
    assert!(relevance("crates/core/src/cost.rs", "SargOp::Eq(v)").is_empty());
}

#[test]
fn static_atomics_live_only_in_obs() {
    let global = "static APPENDS: AtomicU64 = AtomicU64::new(0);";
    cases(static_atomics, "crates/wal/src/log.rs")(global, "appends: AtomicU64,");
    assert!(static_atomics("crates/types/src/obs.rs", global).is_empty());
}

#[test]
fn a_global_atomic_is_reported_at_its_line() {
    let text = "fn f() {}\nstatic N: AtomicUsize = AtomicUsize::new(0);\n";
    let found = static_atomics("crates/types/src/lib.rs", text);
    let want = "crates/types/src/lib.rs:2: a `static` atomic outside obs.rs";
    assert_eq!(found, [want]);
}

#[test]
fn a_range_slice_needs_a_bounds_comment() {
    let fires = cases(range_slices, "crates/wal/src/record.rs");
    let slice = "let a = 1;\nlet y = &buf[4..8];\n";
    fires(slice, &format!("// bounds: checked above\n{slice}"));
    fires("x(&buf[..n]);", "x(&buf[..n]); // bounds: n <= buf.len()");
    fires("let t = f()[1..];", "let t = f()[1];");
}

#[test]
fn array_types_and_attributes_are_not_range_slices() {
    let text = "let a: [u8; 4] = [0; 4];\n#[cfg(feature = \"x\")]\nlet m = map[key];\n";
    assert!(range_slices("crates/wal/src/record.rs", text).is_empty());
}

#[test]
fn an_unjustified_runtime_slice_is_reported_at_its_line() {
    let text = "fn f(b: &[u8]) -> &[u8] {\n    &b[1..]\n}\n";
    let found = range_slices("crates/types/src/lib.rs", text);
    let want = "crates/types/src/lib.rs:2: a range slice with no `// bounds:` comment";
    assert_eq!(found, [want]);
}

#[test]
fn test_modules_are_exempt() {
    let body = "static N: AtomicU64 = AtomicU64::new(0);\nlet y = &b[1..];\n";
    let module =
        format!("fn real() {{}}\n#[cfg(test)]\n// why\n#[allow(x)]\nmod tests {{\n{body}}}\n");
    assert!(static_atomics("crates/wal/src/log.rs", &module).is_empty());
    assert!(range_slices("crates/wal/src/log.rs", &module).is_empty());
}

#[test]
fn a_braceless_cfg_test_item_stays_runtime_code() {
    let atomic = "static N: AtomicU64 = AtomicU64::new(0);\n";
    let item = format!("#[cfg(test)]\nuse foo::bar;\n{atomic}");
    assert_eq!(static_atomics("crates/wal/src/log.rs", &item).len(), 1);
}
