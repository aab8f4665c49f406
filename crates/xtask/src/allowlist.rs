//! The checked-in violation allowlist (`crates/xtask/allow.toml`).
//!
//! The file is a deliberately small TOML subset (array-of-tables with
//! string/integer scalar keys) parsed by hand so the analyzer itself
//! stays dependency-free. The contract is ratchet-shaped: every entry
//! must carry a justification, the recorded count must match the source
//! exactly (an entry larger than reality is stale and fails the pass),
//! and new panic sites fail the pass because nothing adds entries
//! automatically.

use std::fs;
use std::path::Path;

/// One entry: `count` tolerated occurrences of `token` in `path`
/// (`[[panic]]`), `count` wall-clock tokens in `path` (`[[wallclock]]`),
/// or a module allowed to contain `unsafe` blocks (`[[unsafe-module]]`;
/// each block still needs its own `// SAFETY:` comment) — with a
/// mandatory human justification.
#[derive(Debug, Clone, Default)]
pub struct Entry {
    pub path: String,
    pub token: String,
    pub count: usize,
    pub reason: String,
    /// Line in allow.toml (for error messages).
    pub line: usize,
}

/// Parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub panics: Vec<Entry>,
    pub unsafe_modules: Vec<Entry>,
    pub wallclock: Vec<Entry>,
}

impl Allowlist {
    /// Loads `path`; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        if !path.exists() {
            return Ok(Allowlist::default());
        }
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The sections and the keys their entries take; every key but the last,
/// `reason`, is required (a count of at least 1).
const SECTIONS: [(&str, &[&str]); 3] = [
    ("[[panic]]", &["path", "token", "count", "reason"]),
    ("[[unsafe-module]]", &["path", "reason"]),
    ("[[wallclock]]", &["path", "count", "reason"]),
];

fn parse(text: &str) -> Result<Allowlist, String> {
    let mut sections: [Vec<Entry>; 3] = Default::default();
    let mut current = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(n) = SECTIONS.iter().position(|(name, _)| *name == line) {
            current = Some(n);
            sections[n].push(Entry {
                line: lineno,
                ..Entry::default()
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: unknown section {line}"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected key = value"))?;
        let (key, value) = (key.trim(), value.trim());
        let n = current.ok_or_else(|| format!("line {lineno}: key before any [[section]]"))?;
        let entry = sections[n].last_mut().ok_or("section without an entry")?;
        match key {
            _ if !SECTIONS[n].1.contains(&key) => {
                return Err(format!("line {lineno}: unknown key {key}"))
            }
            "path" => entry.path = unquote(value, lineno)?,
            "token" => entry.token = unquote(value, lineno)?,
            "reason" => entry.reason = unquote(value, lineno)?,
            _ => {
                entry.count = value
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad count {value}"))?
            }
        }
    }
    for ((name, keys), entries) in SECTIONS.iter().zip(&sections) {
        let missing = |e: &Entry, key: &str| match key {
            "path" => e.path.is_empty(),
            "token" => e.token.is_empty(),
            "count" => e.count == 0,
            _ => false,
        };
        if let Some(e) = entries.iter().find(|e| keys.iter().any(|k| missing(e, k))) {
            let needed = keys[..keys.len() - 1].join(", ");
            return Err(format!("line {}: {name} entry needs {needed}", e.line));
        }
    }
    let [panics, unsafe_modules, wallclock] = sections;
    Ok(Allowlist {
        panics,
        unsafe_modules,
        wallclock,
    })
}

fn unquote(v: &str, lineno: usize) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("line {lineno}: expected quoted string, got {v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_sections() {
        let text = r##"
# header comment
[[panic]]
path = "crates/a/src/x.rs"
token = "unwrap"
count = 3
reason = "legacy decode path"

[[unsafe-module]]
path = "crates/b/src/raw.rs"
reason = "page aliasing"
"##;
        let a = parse(text).expect("parses");
        assert_eq!(a.panics.len(), 1);
        assert_eq!(a.panics[0].count, 3);
        assert_eq!(a.unsafe_modules[0].path, "crates/b/src/raw.rs");
    }

    #[test]
    fn rejects_incomplete_entries() {
        assert!(parse("[[panic]]\npath = \"x\"\n").is_err());
        assert!(parse("[[unsafe-module]]\nreason = \"r\"\n").is_err());
        assert!(parse("stray = \"v\"\n").is_err());
        assert!(parse("[panic]\n").is_err());
        // a key of another section's shape
        assert!(parse("[[wallclock]]\npath = \"x\"\ncount = 1\ntoken = \"t\"\n").is_err());
    }
}
