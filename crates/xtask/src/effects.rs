//! Interprocedural effect analysis (rules 8–10).
//!
//! Effect facts are declared in `crates/xtask/effects.toml` against the
//! known extension-API surface (WAL appends, LSN stamps, page-dirtying
//! operations, lock/latch acquisitions, device I/O), assigned to call
//! events recovered by the scanner, and propagated bottom-up over the
//! conservative workspace call graph to a fixed point. Three
//! whole-program disciplines are then checked:
//!
//! - **DMX008 write-ahead** — every path from a declared entry point to
//!   a page-dirtying effect must complete a WAL-append effect first (in
//!   the entry function itself or a dominating caller, ordered by call
//!   *completion* position so `append_record(.., |p, s| log(..))`
//!   counts), and must have an LSN-stamp effect in scope.
//! - **DMX009 lock order** — the interprocedural lock-acquisition graph
//!   must respect the declared catalog → relation → record → page-latch
//!   hierarchy: no event may acquire a coarser level than one already
//!   held (same-level re-acquisition is allowed).
//! - **DMX010 no I/O under latch** — no device-I/O effect may complete
//!   while a page-latch guard is live in the enclosing scope
//!   (`let`-bound guards live to the end of their block, temporaries to
//!   the end of their statement).
//!
//! Findings are reconciled against the shrink-only waiver baseline in
//! `crates/xtask/effects_baseline.toml`: every waiver needs a
//! justification, over-counted waivers are stale (DMX011), and nothing
//! adds waivers automatically. A missing `effects.toml` disables the
//! pass (fixture trees for the line-level rules stay unaffected).

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use crate::graph::FnIndex;
use crate::rules::Violation;
use crate::scan::{CallSite, FnItem, SourceFile};

/// The declared lock hierarchy, coarsest first. Rank order is the
/// required acquisition order.
pub const LOCK_LEVELS: &[&str] = &["catalog", "relation", "record", "page_latch"];

const PAGE_LATCH: u8 = 3;

fn level_bit(level: u8) -> u8 {
    1 << level
}

fn level_name(level: u8) -> &'static str {
    LOCK_LEVELS[level as usize]
}

fn parse_level(s: &str) -> Option<u8> {
    LOCK_LEVELS.iter().position(|l| *l == s).map(|p| p as u8)
}

// ---------------------------------------------------------------------
// Declarative configuration (effects.toml)
// ---------------------------------------------------------------------

/// How a `[[fact]]`'s `call` pattern addresses call events.
#[derive(Debug, Clone)]
enum CallPat {
    /// `"name"` — a bare (free-function) call.
    Bare(String),
    /// `".name"` — a method call on any receiver.
    AnyRecv(String),
    /// `"recv.name"` — a method call whose receiver's last path segment
    /// is `recv` (`self.txn.log(..)` matches `"txn.log"`).
    RecvDot(String, String),
    /// `"Type::name"` — a path-qualified call (`Self::` matches the
    /// literal `Self` qualifier in any impl).
    Qual(String, String),
}

impl CallPat {
    fn parse(s: &str) -> Result<CallPat, String> {
        if let Some((ty, name)) = s.split_once("::") {
            if ty.is_empty() || name.is_empty() {
                return Err(format!("bad call pattern `{s}`"));
            }
            return Ok(CallPat::Qual(ty.to_string(), name.to_string()));
        }
        if let Some(name) = s.strip_prefix('.') {
            return Ok(CallPat::AnyRecv(name.to_string()));
        }
        if let Some((recv, name)) = s.split_once('.') {
            return Ok(CallPat::RecvDot(recv.to_string(), name.to_string()));
        }
        Ok(CallPat::Bare(s.to_string()))
    }

    fn matches(&self, site: &CallSite) -> bool {
        match self {
            CallPat::Bare(n) => {
                site.name == *n && !site.method && site.qual.is_none() && site.chain.is_none()
            }
            CallPat::AnyRecv(n) => site.method && site.name == *n,
            CallPat::RecvDot(r, n) => {
                site.method && site.name == *n && site.recv.as_deref() == Some(r)
            }
            CallPat::Qual(t, n) => site.name == *n && site.qual.as_deref() == Some(t),
        }
    }
}

/// The effects a single event can carry.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct EffectSet {
    pub appends_wal: bool,
    pub stamps_lsn: bool,
    pub dirties_page: bool,
    pub performs_io: bool,
    pub checks_quarantine: bool,
    pub acquires_latch: bool,
    /// Bitmask over [`LOCK_LEVELS`].
    pub locks: u8,
}

impl EffectSet {
    fn add(&mut self, name: &str) -> Result<(), String> {
        match name {
            "appends_wal" => self.appends_wal = true,
            "stamps_lsn" => self.stamps_lsn = true,
            "dirties_page" => self.dirties_page = true,
            "performs_io" => self.performs_io = true,
            "checks_quarantine" => self.checks_quarantine = true,
            "acquires_latch" => {
                self.acquires_latch = true;
                self.locks |= level_bit(PAGE_LATCH);
            }
            other => {
                let inner = other
                    .strip_prefix("acquires_lock(")
                    .and_then(|r| r.strip_suffix(')'))
                    .ok_or_else(|| format!("unknown effect `{other}`"))?;
                let level =
                    parse_level(inner).ok_or_else(|| format!("unknown lock level `{inner}`"))?;
                self.locks |= level_bit(level);
            }
        }
        Ok(())
    }

    fn is_empty(&self) -> bool {
        *self == EffectSet::default()
    }
}

/// One `[[fact]]`: effects attached to matching call events. Either a
/// `call` pattern or a `kind` + `method` handle fact.
#[derive(Debug)]
struct Fact {
    pat: Option<CallPat>,
    kind: Option<String>,
    method: Option<String>,
    args_contains: Option<String>,
    effects: EffectSet,
    /// Handle kind of the call's result (chain/binding propagation).
    returns: Option<String>,
}

/// One `[[binder]]`: a producer call whose result is a typed handle
/// (e.g. `Self::tree` → kind `tree`).
#[derive(Debug)]
struct Binder {
    pat: CallPat,
    kind: String,
}

/// Parsed `effects.toml`.
#[derive(Debug, Default)]
pub struct EffectsConfig {
    facts: Vec<Fact>,
    binders: Vec<Binder>,
    /// `Type::fn` entry-point patterns (`*` wildcards one segment).
    entries: Vec<String>,
}

impl EffectsConfig {
    /// Loads `path`; `Ok(None)` when the file is absent (pass disabled).
    pub fn load(path: &Path) -> Result<Option<EffectsConfig>, String> {
        if !path.exists() {
            return Ok(None);
        }
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_config(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn parse_config(text: &str) -> Result<EffectsConfig, String> {
    #[derive(Default)]
    struct RawFact {
        call: Option<String>,
        kind: Option<String>,
        method: Option<String>,
        args_contains: Option<String>,
        effect: Option<String>,
        returns: Option<String>,
        line: usize,
    }
    enum Section {
        None,
        Fact,
        Binder,
        Entry,
    }
    let mut facts: Vec<RawFact> = Vec::new();
    let mut binders: Vec<(Option<String>, Option<String>, usize)> = Vec::new();
    let mut entries: Vec<(Option<String>, usize)> = Vec::new();
    let mut section = Section::None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "[[fact]]" => {
                section = Section::Fact;
                facts.push(RawFact {
                    line: lineno,
                    ..RawFact::default()
                });
                continue;
            }
            "[[binder]]" => {
                section = Section::Binder;
                binders.push((None, None, lineno));
                continue;
            }
            "[[entry]]" => {
                section = Section::Entry;
                entries.push((None, lineno));
                continue;
            }
            _ => {}
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: unknown section {line}"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected key = value"))?;
        let key = key.trim();
        let value = unquote(value.trim(), lineno)?;
        match section {
            Section::Fact => {
                let f = facts
                    .last_mut()
                    .ok_or_else(|| format!("line {lineno}: key before [[fact]]"))?;
                match key {
                    "call" => f.call = Some(value),
                    "kind" => f.kind = Some(value),
                    "method" => f.method = Some(value),
                    "args_contains" => f.args_contains = Some(value),
                    "effect" => f.effect = Some(value),
                    "returns" => f.returns = Some(value),
                    _ => return Err(format!("line {lineno}: unknown key {key}")),
                }
            }
            Section::Binder => {
                let b = binders
                    .last_mut()
                    .ok_or_else(|| format!("line {lineno}: key before [[binder]]"))?;
                match key {
                    "call" => b.0 = Some(value),
                    "kind" => b.1 = Some(value),
                    _ => return Err(format!("line {lineno}: unknown key {key}")),
                }
            }
            Section::Entry => {
                let e = entries
                    .last_mut()
                    .ok_or_else(|| format!("line {lineno}: key before [[entry]]"))?;
                match key {
                    "fn" => e.0 = Some(value),
                    _ => return Err(format!("line {lineno}: unknown key {key}")),
                }
            }
            Section::None => return Err(format!("line {lineno}: key before any [[section]]")),
        }
    }
    let mut out = EffectsConfig::default();
    for f in facts {
        let line = f.line;
        let err = |m: String| format!("line {line}: {m}");
        let mut effects = EffectSet::default();
        if let Some(e) = &f.effect {
            for part in e.split(',') {
                effects.add(part.trim()).map_err(err)?;
            }
        }
        if effects.is_empty() && f.returns.is_none() {
            return Err(err("[[fact]] needs an effect or a returns kind".into()));
        }
        let pat = match (&f.call, &f.kind, &f.method) {
            (Some(c), None, None) => Some(CallPat::parse(c).map_err(err)?),
            (None, Some(_), Some(_)) => None,
            _ => {
                return Err(err(
                    "[[fact]] needs either call = … or kind = … with method = …".into(),
                ))
            }
        };
        out.facts.push(Fact {
            pat,
            kind: f.kind,
            method: f.method,
            args_contains: f.args_contains,
            effects,
            returns: f.returns,
        });
    }
    for (call, kind, line) in binders {
        let (Some(call), Some(kind)) = (call, kind) else {
            return Err(format!("line {line}: [[binder]] needs call and kind"));
        };
        out.binders.push(Binder {
            pat: CallPat::parse(&call).map_err(|m| format!("line {line}: {m}"))?,
            kind,
        });
    }
    for (pat, line) in entries {
        let Some(pat) = pat else {
            return Err(format!("line {line}: [[entry]] needs fn"));
        };
        out.entries.push(pat);
    }
    Ok(out)
}

fn unquote(v: &str, lineno: usize) -> Result<String, String> {
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("line {lineno}: expected quoted string, got {v}"))
    }
}

// ---------------------------------------------------------------------
// Waiver baseline (effects_baseline.toml)
// ---------------------------------------------------------------------

/// One `[[waiver]]`: `count` tolerated findings of `code` whose site is
/// `site` (a `Type::fn` key), with a mandatory justification. Same
/// shrink-only contract as `allow.toml`.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub code: String,
    pub site: String,
    pub count: usize,
    pub reason: String,
    pub line: usize,
}

/// Parsed waiver baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    pub waivers: Vec<Waiver>,
}

impl Baseline {
    /// Loads `path`; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        if !path.exists() {
            return Ok(Baseline::default());
        }
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_baseline(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut out = Baseline::default();
    let mut in_section = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[waiver]]" {
            in_section = true;
            out.waivers.push(Waiver {
                code: String::new(),
                site: String::new(),
                count: 0,
                reason: String::new(),
                line: lineno,
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: unknown section {line}"));
        }
        if !in_section {
            return Err(format!("line {lineno}: key before [[waiver]]"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected key = value"))?;
        let entry = out
            .waivers
            .last_mut()
            .ok_or_else(|| format!("line {lineno}: key before [[waiver]]"))?;
        match key.trim() {
            "code" => entry.code = unquote(value.trim(), lineno)?,
            "site" => entry.site = unquote(value.trim(), lineno)?,
            "count" => {
                entry.count = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad count {value}"))?
            }
            "reason" => entry.reason = unquote(value.trim(), lineno)?,
            k => return Err(format!("line {lineno}: unknown key {k}")),
        }
    }
    for w in &out.waivers {
        if w.code.is_empty() || w.site.is_empty() || w.count == 0 {
            return Err(format!(
                "line {}: [[waiver]] entry needs code, site and count >= 1",
                w.line
            ));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Per-event effect assignment
// ---------------------------------------------------------------------

/// Effects and handle kind of every call event of one function, in the
/// function's source order.
fn assign_effects(item: &FnItem, cfg: &EffectsConfig) -> Vec<(EffectSet, Option<String>)> {
    let mut out: Vec<(EffectSet, Option<String>)> = Vec::with_capacity(item.calls.len());
    // `let`-bound handle kinds, in source order (no shadowing model).
    let mut vars: HashMap<String, String> = HashMap::new();
    for site in &item.calls {
        let mut eff = EffectSet::default();
        // subject kind: the handle this call is invoked on
        let subject = site
            .chain
            .and_then(|p| out[p].1.clone())
            .or_else(|| site.recv.as_ref().and_then(|r| vars.get(r).cloned()));
        let mut result_kind = None;
        for fact in &cfg.facts {
            let hit = match &fact.pat {
                Some(pat) => pat.matches(site),
                None => {
                    subject.as_deref() == fact.kind.as_deref()
                        && fact.method.as_deref() == Some(site.name.as_str())
                }
            };
            if !hit {
                continue;
            }
            if let Some(needle) = &fact.args_contains {
                if !site.args.contains(needle.as_str()) {
                    continue;
                }
            }
            eff.appends_wal |= fact.effects.appends_wal;
            eff.stamps_lsn |= fact.effects.stamps_lsn;
            eff.dirties_page |= fact.effects.dirties_page;
            eff.performs_io |= fact.effects.performs_io;
            eff.checks_quarantine |= fact.effects.checks_quarantine;
            eff.acquires_latch |= fact.effects.acquires_latch;
            eff.locks |= fact.effects.locks;
            if fact.returns.is_some() {
                result_kind = fact.returns.clone();
            }
        }
        for binder in &cfg.binders {
            if binder.pat.matches(site) {
                result_kind = Some(binder.kind.clone());
            }
        }
        if let (Some(bound), Some(kind)) = (&site.bound, &result_kind) {
            vars.insert(bound.clone(), kind.clone());
        }
        out.push((eff, result_kind));
    }
    out
}

// ---------------------------------------------------------------------
// Summaries and fixed-point propagation
// ---------------------------------------------------------------------

/// Bottom-up effect summary of one function.
#[derive(Debug, Default, Clone, PartialEq)]
struct Summary {
    /// Function may complete a WAL append.
    appends: bool,
    /// Function has an LSN-stamp effect in scope.
    stamps: bool,
    performs_io: bool,
    checks_quarantine: bool,
    /// Lock levels still held after return (transaction locks persist
    /// under strict 2PL; internal latch guards do not).
    locks_held: u8,
    /// Acquires a page latch somewhere inside (edge target only).
    latches_inside: bool,
    /// Witness of a page-dirtying effect with no dominating WAL append.
    dirty_unlogged: Option<String>,
    /// Witness of a page-dirtying effect with no LSN stamp in scope.
    dirty_unstamped: Option<String>,
}

/// One call event prepared for propagation, ordered by completion.
struct Ev {
    call: usize,
    close: usize,
    eff: EffectSet,
    callee: Option<usize>,
}

struct Analysis<'a> {
    idx: &'a FnIndex,
    /// events of each fn, sorted by completion position
    events: Vec<Vec<Ev>>,
    summaries: Vec<Summary>,
}

fn site_label(item: &FnItem, site: &CallSite) -> String {
    let callee = match (&site.qual, &site.recv) {
        (Some(q), _) => format!("{q}::{}", site.name),
        (_, Some(r)) => format!("{r}.{}", site.name),
        _ => site.name.clone(),
    };
    format!("`{callee}` ({}:{})", item.file, site.line)
}

fn build_analysis<'a>(idx: &'a FnIndex, cfg: &EffectsConfig) -> Analysis<'a> {
    let mut events = Vec::with_capacity(idx.fns.len());
    for item in &idx.fns {
        let eff = assign_effects(item, cfg);
        let mut evs: Vec<Ev> = item
            .calls
            .iter()
            .enumerate()
            .map(|(i, site)| Ev {
                call: i,
                close: site.close,
                eff: eff[i].0,
                callee: idx.resolve(item, site),
            })
            .collect();
        evs.sort_by_key(|e| e.close);
        events.push(evs);
    }
    let mut an = Analysis {
        idx,
        events,
        summaries: vec![Summary::default(); idx.fns.len()],
    };
    // Effects are monotone over the call graph, so iteration converges;
    // the bound covers the longest acyclic chain plus recursion slack.
    for _ in 0..an.idx.fns.len() + 2 {
        let mut changed = false;
        for f in 0..an.idx.fns.len() {
            let next = summarize(&an, f);
            if next != an.summaries[f] {
                an.summaries[f] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    an
}

fn summarize(an: &Analysis<'_>, f: usize) -> Summary {
    let item = &an.idx.fns[f];
    let empty = Summary::default();
    let callee = |ev: &Ev| -> &Summary {
        match ev.callee {
            Some(c) => &an.summaries[c],
            None => &empty,
        }
    };
    // LSN-stamp coverage is scoped to the whole function: the heap
    // stamps the page *after* the slot mutation (same pin), which is
    // the correct protocol shape.
    let stamps = an.events[f]
        .iter()
        .any(|ev| ev.eff.stamps_lsn || callee(ev).stamps);
    let mut s = Summary {
        stamps,
        ..Summary::default()
    };
    let mut seen_append = false;
    for ev in &an.events[f] {
        let c = callee(ev);
        let site = &item.calls[ev.call];
        if ev.eff.dirties_page {
            if !seen_append && s.dirty_unlogged.is_none() {
                s.dirty_unlogged = Some(format!(
                    "{} dirties a page before any WAL append",
                    site_label(item, site)
                ));
            }
            if !s.stamps && s.dirty_unstamped.is_none() {
                s.dirty_unstamped = Some(format!(
                    "{} dirties a page with no LSN stamp in scope",
                    site_label(item, site)
                ));
            }
        }
        if let Some(w) = &c.dirty_unlogged {
            if !seen_append && s.dirty_unlogged.is_none() {
                s.dirty_unlogged = Some(format!("{w}, via {}", site_label(item, site)));
            }
        }
        if let Some(w) = &c.dirty_unstamped {
            if !s.stamps && s.dirty_unstamped.is_none() {
                s.dirty_unstamped = Some(format!("{w}, via {}", site_label(item, site)));
            }
        }
        if ev.eff.appends_wal || c.appends {
            seen_append = true;
            s.appends = true;
        }
        s.performs_io |= ev.eff.performs_io || c.performs_io;
        s.checks_quarantine |= ev.eff.checks_quarantine || c.checks_quarantine;
        // Latch bits do not persist past the acquiring function: guards
        // are scope-bound, unlike transaction locks.
        s.locks_held |= (ev.eff.locks & !level_bit(PAGE_LATCH)) | c.locks_held;
        s.latches_inside |= ev.eff.acquires_latch || c.latches_inside;
    }
    s
}

// ---------------------------------------------------------------------
// Rules 8–10
// ---------------------------------------------------------------------

fn entry_matches(pat: &str, key: &str) -> bool {
    let (pt, pn) = pat.split_once("::").unwrap_or(("", pat));
    let (kt, kn) = key.split_once("::").unwrap_or(("", key));
    let seg = |p: &str, k: &str| p == "*" || p == k;
    seg(pt, kt) && seg(pn, kn)
}

/// All rule 8–10 findings, pre-baseline. Each finding's waiver site is
/// the reporting function's `Type::fn` key, carried in `msg` and used
/// for reconciliation.
fn run_rules(an: &Analysis<'_>, cfg: &EffectsConfig) -> Vec<(String, Violation)> {
    let mut out = Vec::new();
    for (f, item) in an.idx.fns.iter().enumerate() {
        let key = item.key();
        // Rule 8 at declared entry points only: interior helpers with a
        // residual unlogged dirty (e.g. `append_record`) are the reason
        // callers must dominate them with an append, not findings.
        if cfg.entries.iter().any(|p| entry_matches(p, &key)) {
            let s = &an.summaries[f];
            if let Some(w) = &s.dirty_unlogged {
                out.push((
                    key.clone(),
                    Violation::at(
                        "write-ahead",
                        &item.file,
                        item.line,
                        format!(
                            "{key}: {w} — the WAL append must complete before the page \
                             mutation on every entry path"
                        ),
                    ),
                ));
            }
            if let Some(w) = &s.dirty_unstamped {
                out.push((
                    key.clone(),
                    Violation::at(
                        "write-ahead",
                        &item.file,
                        item.line,
                        format!(
                            "{key}: {w} — stamp the dirtied page with the record's LSN \
                             (`set_lsn` / `with_wal_lsn`)"
                        ),
                    ),
                ));
            }
        }
        rule9_rule10(an, f, &key, &mut out);
    }
    out
}

fn rule9_rule10(an: &Analysis<'_>, f: usize, key: &str, out: &mut Vec<(String, Violation)>) {
    let item = &an.idx.fns[f];
    let empty = Summary::default();
    let callee = |ev: &Ev| -> &Summary {
        match ev.callee {
            Some(c) => &an.summaries[c],
            None => &empty,
        }
    };
    // Rule 9: ordered acquisition edges must never go coarser.
    let mut held: u8 = 0;
    let mut reported: Vec<(u8, u8)> = Vec::new();
    for ev in &an.events[f] {
        let c = callee(ev);
        let mut acquired = ev.eff.locks | c.locks_held;
        if c.latches_inside {
            acquired |= level_bit(PAGE_LATCH);
        }
        for la in 0..LOCK_LEVELS.len() as u8 {
            if held & level_bit(la) == 0 {
                continue;
            }
            for lb in 0..la {
                if acquired & level_bit(lb) == 0 || reported.contains(&(la, lb)) {
                    continue;
                }
                reported.push((la, lb));
                let site = &item.calls[ev.call];
                out.push((
                    key.to_string(),
                    Violation::at(
                        "lock-order",
                        &item.file,
                        site.line,
                        format!(
                            "{key}: {} acquires `{}` while `{}` is already held — \
                             inverts the declared {} hierarchy",
                            site_label(item, site),
                            level_name(lb),
                            level_name(la),
                            LOCK_LEVELS.join(" → "),
                        ),
                    ),
                ));
            }
        }
        // Transaction locks persist (strict 2PL); a latch acquired by a
        // *guard-producing* event is handled by the live-range walk
        // below, so only lock levels extend `held` here.
        held |= ev.eff.locks & !level_bit(PAGE_LATCH) | c.locks_held;
    }
    // Latch-guard live ranges: rule 9 (coarser acquisition under latch)
    // and rule 10 (device I/O under latch).
    for g in &an.events[f] {
        if !g.eff.acquires_latch {
            continue;
        }
        let gsite = &item.calls[g.call];
        let live_end = match gsite.bound.as_deref() {
            Some("_") | None => gsite.stmt_end,
            Some(_) => gsite.block_end,
        };
        for ev in &an.events[f] {
            if ev.close <= g.close || ev.close > live_end {
                continue;
            }
            let c = callee(ev);
            let site = &item.calls[ev.call];
            let acquired = ev.eff.locks | c.locks_held;
            for lb in 0..PAGE_LATCH {
                if acquired & level_bit(lb) == 0 {
                    continue;
                }
                out.push((
                    key.to_string(),
                    Violation::at(
                        "lock-order",
                        &item.file,
                        site.line,
                        format!(
                            "{key}: {} acquires `{}` while the page-latch guard from {} \
                             is live — latches are the hierarchy's leaf level",
                            site_label(item, site),
                            level_name(lb),
                            site_label(item, gsite),
                        ),
                    ),
                ));
            }
            if ev.eff.performs_io || c.performs_io {
                out.push((
                    key.to_string(),
                    Violation::at(
                        "io-under-latch",
                        &item.file,
                        site.line,
                        format!(
                            "{key}: {} performs device I/O while the page-latch guard \
                             from {} is live",
                            site_label(item, site),
                            site_label(item, gsite),
                        ),
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Baseline reconciliation and the public entry point
// ---------------------------------------------------------------------

/// A waiver consumed by the current run (reported in `--json`).
#[derive(Debug, Clone)]
pub struct WaiverUse {
    pub code: String,
    pub site: String,
    pub count: usize,
}

/// Runs the interprocedural pass for the workspace at `root` over the
/// already-loaded runtime sources. A missing `effects.toml` disables
/// the pass.
pub fn check_effects(
    root: &Path,
    files: &[SourceFile],
) -> Result<(Vec<Violation>, Vec<WaiverUse>), String> {
    let Some(cfg) = EffectsConfig::load(&root.join("crates/xtask/effects.toml"))? else {
        return Ok((Vec::new(), Vec::new()));
    };
    let baseline = Baseline::load(&root.join("crates/xtask/effects_baseline.toml"))?;
    let idx = FnIndex::build(files);
    let an = build_analysis(&idx, &cfg);
    let findings = run_rules(&an, &cfg);

    let mut out = Vec::new();
    let mut used = Vec::new();
    // group findings by (code, site) for waiver reconciliation
    let mut groups: HashMap<(String, String), Vec<Violation>> = HashMap::new();
    for (site, v) in findings {
        groups
            .entry((v.code().to_string(), site))
            .or_default()
            .push(v);
    }
    let mut consumed = vec![0usize; baseline.waivers.len()];
    for w in &baseline.waivers {
        if w.reason.trim().is_empty() {
            out.push(Violation::at(
                "effects-baseline",
                "crates/xtask/effects_baseline.toml",
                w.line,
                format!("waiver {} {} has no justification", w.code, w.site),
            ));
        }
    }
    let mut keys: Vec<_> = groups.keys().cloned().collect();
    keys.sort();
    for gkey in keys {
        let Some(vs) = groups.remove(&gkey) else {
            continue;
        };
        let (code, site) = &gkey;
        let mut budget = 0usize;
        for (i, w) in baseline.waivers.iter().enumerate() {
            if &w.code == code && &w.site == site {
                budget += w.count;
                consumed[i] = w.count.min(vs.len().saturating_sub(budget - w.count));
            }
        }
        if budget > 0 {
            used.push(WaiverUse {
                code: code.clone(),
                site: site.clone(),
                count: vs.len().min(budget),
            });
        }
        if vs.len() > budget {
            out.extend(vs.into_iter().skip(budget));
        } else if vs.len() < budget {
            out.push(Violation::at(
                "effects-baseline",
                "crates/xtask/effects_baseline.toml",
                0,
                format!(
                    "stale waiver: {code} {site} allows {budget} but the analysis reports \
                     {} — shrink the baseline",
                    vs.len()
                ),
            ));
        }
    }
    // Waivers that matched nothing at all are stale too.
    for (i, w) in baseline.waivers.iter().enumerate() {
        if consumed[i] == 0 && !used.iter().any(|u| u.code == w.code && u.site == w.site) {
            out.push(Violation::at(
                "effects-baseline",
                "crates/xtask/effects_baseline.toml",
                w.line,
                format!(
                    "stale waiver: {} {} matches no finding — remove it",
                    w.code, w.site
                ),
            ));
        }
    }
    Ok((out, used))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{lex_for_tests, SourceFile};

    fn cfg() -> EffectsConfig {
        parse_config(
            r#"
[[fact]]
call = ".log_ext_op"
effect = "appends_wal"

[[fact]]
call = "log_att"
effect = "appends_wal"

[[fact]]
call = "SlottedPage::insert_at"
effect = "dirties_page"

[[fact]]
call = ".set_lsn"
effect = "stamps_lsn"

[[fact]]
kind = "tree"
method = "insert"
effect = "dirties_page"

[[fact]]
kind = "tree"
method = "with_wal_lsn"
effect = "stamps_lsn"
returns = "tree"

[[fact]]
call = ".lock"
args_contains = "LockName::Catalog"
effect = "acquires_lock(catalog)"

[[fact]]
call = ".lock"
args_contains = "LockName::Record"
effect = "acquires_lock(record)"

[[fact]]
call = "latch.write"
effect = "acquires_latch"

[[fact]]
call = ".flush_all"
effect = "performs_io"

[[binder]]
call = "Self::tree"
kind = "tree"

[[entry]]
fn = "*::on_modify"

[[entry]]
fn = "Store::insert"
"#,
        )
        .expect("config parses")
    }

    fn analyze(src: &str) -> (FnIndex, Vec<(String, Violation)>) {
        let file = SourceFile {
            rel: "crates/x/src/a.rs".into(),
            lines: lex_for_tests(src),
        };
        let idx = FnIndex::build(std::slice::from_ref(&file));
        let an = build_analysis(&idx, &cfg());
        let findings = run_rules(&an, &cfg());
        (idx, findings)
    }

    #[test]
    fn log_before_mutate_is_clean_even_through_closures_and_helpers() {
        let (_, f) = analyze(
            "fn append_record(x: X) { SlottedPage::insert_at(p, s); pin.set_lsn(l); }\n\
             impl Store {\n    fn insert(&self, ctx: &C) {\n        \
             append_record(pool, |p, s| ctx.log_ext_op(op));\n    }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mutate_before_log_is_dmx008_at_the_entry() {
        // the PR 3 bug shape: the tree mutation completes before the
        // attachment's WAL append
        let (_, f) = analyze(
            "impl Ix {\n    fn on_modify(&self, ctx: &C) {\n        \
             let tree = Self::tree(s, &d);\n        tree.insert(k);\n        \
             log_att(ctx, rd);\n    }\n}\n",
        );
        let codes: Vec<_> = f.iter().map(|(s, v)| (s.as_str(), v.code())).collect();
        assert!(
            codes
                .iter()
                .filter(|(s, c)| *s == "Ix::on_modify" && *c == "DMX008")
                .count()
                == 2,
            "unlogged + unstamped: {f:?}"
        );
    }

    #[test]
    fn wal_lsn_chain_stamps_and_logs() {
        let (_, f) = analyze(
            "impl Ix {\n    fn on_modify(&self, ctx: &C) {\n        \
             let lsn = log_att(ctx, rd);\n        \
             Self::tree(s, &d).with_wal_lsn(lsn).insert(k);\n    }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_order_inversion_is_dmx009() {
        let (_, f) = analyze(
            "impl Db {\n    fn bad(&self, ctx: &C) {\n        \
             ctx.lock(LockName::Record(r, k), X);\n        \
             ctx.lock(LockName::Catalog, X);\n    }\n}\n",
        );
        assert!(
            f.iter()
                .any(|(s, v)| s == "Db::bad" && v.code() == "DMX009"),
            "{f:?}"
        );
    }

    #[test]
    fn io_under_live_latch_is_dmx010_and_scoped_guards_pass() {
        let (_, f) = analyze(
            "impl Db {\n    fn commit(&self) {\n        \
             let _g = self.latch.write();\n        self.pool.flush_all();\n    }\n}\n",
        );
        assert!(
            f.iter()
                .any(|(s, v)| s == "Db::commit" && v.code() == "DMX010"),
            "{f:?}"
        );
        let (_, ok) = analyze(
            "impl Db {\n    fn commit(&self) {\n        \
             {\n            let _g = self.latch.write();\n        }\n        \
             self.pool.flush_all();\n    }\n}\n",
        );
        assert!(ok.is_empty(), "guard dies with its block: {ok:?}");
    }

    #[test]
    fn unlogged_dirty_propagates_to_callers_until_dominated() {
        // helper dirties unlogged; entry covers it with a prior append
        let (_, clean) = analyze(
            "fn helper(p: P) { SlottedPage::insert_at(p, s); q.set_lsn(l); }\n\
             impl Store {\n    fn insert(&self, ctx: &C) {\n        \
             ctx.log_ext_op(op);\n        helper(p);\n    }\n}\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
        let (_, bad) = analyze(
            "fn helper(p: P) { SlottedPage::insert_at(p, s); q.set_lsn(l); }\n\
             impl Store {\n    fn insert(&self, ctx: &C) {\n        \
             helper(p);\n        ctx.log_ext_op(op);\n    }\n}\n",
        );
        assert!(
            bad.iter()
                .any(|(s, v)| s == "Store::insert" && v.code() == "DMX008"),
            "{bad:?}"
        );
    }

    #[test]
    fn baseline_parses_and_validates() {
        let b = parse_baseline(
            "[[waiver]]\ncode = \"DMX008\"\nsite = \"BTreeStorage::insert\"\ncount = 2\n\
             reason = \"logical undo\"\n",
        )
        .expect("parses");
        assert_eq!(b.waivers.len(), 1);
        assert!(parse_baseline("[[waiver]]\ncode = \"DMX008\"\n").is_err());
    }
}
