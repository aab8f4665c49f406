//! End-to-end tests for the verify pass over the miniature workspace
//! trees in `tests/fixtures/`. The clean tree must produce zero
//! violations; the violations tree must fire every rule family; and a
//! shrink-only allowlist must flag entries the source has outgrown.

// Test helpers may panic on a broken fixture tree; `is_in_test` does not
// reach helper fns in integration-test crates, so allow it file-wide.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::path::PathBuf;

use xtask::rules::Violation;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> Vec<Violation> {
    xtask::verify(&fixture(name)).expect("verify runs on fixture tree")
}

#[test]
fn clean_tree_passes() {
    let v = run("clean");
    assert!(
        v.is_empty(),
        "clean fixture should have no violations, got:\n{}",
        xtask::render(&v)
    );
}

#[test]
fn violation_tree_fires_every_rule_family() {
    let v = run("violations");
    let rules: BTreeSet<&str> = v.iter().map(|x| x.rule).collect();
    for expected in [
        "panic",
        "panic-allowlist",
        "unsafe",
        "layering",
        "private-path",
        "relevance",
        "wallclock",
        "wallclock-allowlist",
        "metric-static",
    ] {
        assert!(
            rules.contains(expected),
            "rule `{expected}` did not fire; got:\n{}",
            xtask::render(&v)
        );
    }
}

#[test]
fn panic_rule_reports_unwrap_and_unjustified_slice() {
    let v = run("violations");
    let panics: Vec<&Violation> = v
        .iter()
        .filter(|x| x.rule == "panic" && x.path == "crates/types/src/lib.rs")
        .collect();
    assert!(
        panics.iter().any(|x| x.msg.contains("`unwrap`")),
        "unwrap not reported:\n{}",
        xtask::render(&v)
    );
    assert!(
        panics.iter().any(|x| x.msg.contains("`slice-index`")),
        "unjustified range slice not reported:\n{}",
        xtask::render(&v)
    );
    // The stale-covered `.expect(` must NOT surface as a panic violation
    // (its allowlist entry still covers it; only the count is stale).
    assert!(
        !panics.iter().any(|x| x.msg.contains("`expect`")),
        "allow-covered expect wrongly reported:\n{}",
        xtask::render(&v)
    );
}

#[test]
fn stale_allowlist_entries_fail_the_pass() {
    let v = run("violations");
    let stale: Vec<&Violation> = v.iter().filter(|x| x.rule == "panic-allowlist").collect();
    // Entry whose count (3) exceeds the single remaining site.
    assert!(
        stale
            .iter()
            .any(|x| x.msg.contains("crates/types/src/lib.rs:expect") && x.msg.contains("shrink")),
        "over-counted entry not flagged:\n{}",
        xtask::render(&v)
    );
    // Entry covering a file with no hits at all.
    assert!(
        stale
            .iter()
            .any(|x| x.msg.contains("crates/wal/src/gone.rs:unwrap") && x.msg.contains("remove")),
        "entry for vanished file not flagged:\n{}",
        xtask::render(&v)
    );
}

#[test]
fn wallclock_rule_reports_uncovered_reads_and_stale_entries() {
    let v = run("violations");
    let wc: Vec<&Violation> = v.iter().filter(|x| x.rule == "wallclock").collect();
    // Two uncovered `Instant` token hits in the fixture source.
    assert_eq!(
        wc.len(),
        2,
        "expected both Instant hits reported:\n{}",
        xtask::render(&v)
    );
    assert!(wc.iter().all(|x| x.path == "crates/types/src/lib.rs"));
    assert!(
        v.iter().any(|x| x.rule == "wallclock-allowlist"
            && x.msg.contains("crates/wal/src/gone.rs")
            && x.msg.contains("remove")),
        "stale wallclock entry not flagged:\n{}",
        xtask::render(&v)
    );
    // The clean tree covers its wall-clock use with a matching entry.
    assert!(
        !run("clean").iter().any(|x| x.rule.starts_with("wallclock")),
        "allowlisted wallclock use must not fire"
    );
}

#[test]
fn metric_static_rule_reports_global_atomics() {
    let v = run("violations");
    assert!(
        v.iter().any(|x| x.rule == "metric-static"
            && x.path == "crates/types/src/lib.rs"
            && x.msg.contains("MetricsRegistry")),
        "global atomic static not reported:\n{}",
        xtask::render(&v)
    );
}

#[test]
fn unsafe_rule_requires_safety_comment_and_allowlisted_module() {
    let v = run("violations");
    let msgs: Vec<&str> = v
        .iter()
        .filter(|x| x.rule == "unsafe")
        .map(|x| x.msg.as_str())
        .collect();
    assert!(
        msgs.iter().any(|m| m.contains("SAFETY")),
        "missing SAFETY comment not reported:\n{}",
        xtask::render(&v)
    );
    assert!(
        msgs.iter().any(|m| m.contains("allowlisted")),
        "un-allowlisted module not reported:\n{}",
        xtask::render(&v)
    );
}

#[test]
fn layering_rule_rejects_external_and_upward_deps() {
    let v = run("violations");
    let layering: Vec<&Violation> = v.iter().filter(|x| x.rule == "layering").collect();
    assert!(
        layering.iter().any(|x| x.msg.contains("serde")),
        "external dependency not reported:\n{}",
        xtask::render(&v)
    );
    assert!(
        layering.iter().any(|x| x.msg.contains("dmx-core")),
        "upward dependency from `types` not reported:\n{}",
        xtask::render(&v)
    );
}

#[test]
fn private_path_rule_keeps_extension_names_out_of_the_planner() {
    let v = run("violations");
    let hits: Vec<&Violation> = v.iter().filter(|x| x.rule == "private-path").collect();
    // the storage crate's kernel-internal import, as before
    assert!(
        hits.iter().any(
            |x| x.path == "crates/storage/src/lib.rs" && x.msg.contains("dmx_core::database::")
        ),
        "kernel-internal path not reported:\n{}",
        xtask::render(&v)
    );
    // and a page taken against a token the extension made itself
    assert!(
        hits.iter()
            .any(|x| x.path == "crates/storage/src/lib.rs" && x.msg.contains("`Appended::`")),
        "minted write-ahead token not reported:\n{}",
        xtask::render(&v)
    );
    // one line each: `dmx_storage::`, `_id_by_name("btree")`,
    // `dmx_attach::btree_index::`, `.name() ==`
    let planner: Vec<usize> = hits
        .iter()
        .filter(|x| x.path == "crates/query/src/planner.rs")
        .map(|x| x.line)
        .collect();
    assert_eq!(planner, vec![5, 8, 9, 10], "{}", xtask::render(&v));
    assert!(hits.iter().all(|x| x.code() == "DMX004"));
    // The clean tree's planner names the join index, and only that.
    assert!(!run("clean").iter().any(|x| x.rule == "private-path"));
}

#[test]
fn relevance_rule_keeps_the_keyed_sarg_shapes_out_of_the_extensions() {
    let v = run("violations");
    let hits: Vec<&Violation> = v.iter().filter(|x| x.rule == "relevance").collect();
    // one line each: `SargOp::Eq`, `SargOp::EqParam`, `SargOp::Range`; the
    // spatial arm below them is the extension's own
    let lines: Vec<usize> = hits.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![6, 7, 8], "{}", xtask::render(&v));
    assert!(hits
        .iter()
        .all(|x| x.path == "crates/attach/src/keyed.rs" && x.code() == "DMX005"));
    assert!(hits[1].msg.contains("`SargOp::EqParam`"), "{}", hits[1].msg);
    // The clean tree's keyed path calls the matcher and its spatial path
    // matches the spatial shapes.
    assert!(!run("clean").iter().any(|x| x.rule == "relevance"));
}
