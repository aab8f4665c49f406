//! Lexical source model and item extractor.
//!
//! The verify pass works on a line-oriented view of each source file in
//! which comment text and string-literal contents have been separated
//! from code, and `#[cfg(test)]` regions are marked. This is a lexer,
//! not a parser: it understands line/block comments (nested), plain and
//! raw string literals, and char literals — enough to scan for tokens
//! without false positives from prose or test fixtures embedded in
//! strings.
//!
//! On top of the lexical view, [`extract_functions`] recovers the item
//! structure the interprocedural effect analysis needs: `impl` blocks,
//! the functions they contain, and every call site inside a function
//! body — with enough position information (argument-close offsets) to
//! order call completions the way expression evaluation does, which is
//! what the write-ahead rule reasons about.

use std::fs;
use std::path::{Path, PathBuf};

/// One analysed line.
pub struct Line {
    /// Code with comments removed and string-literal contents blanked
    /// (the delimiting quotes remain, so tokens never straddle them).
    pub code: String,
    /// Concatenated comment text on this line (for `SAFETY:` / `bounds`
    /// justification checks).
    pub comment: String,
    /// Concatenated string-literal contents on this line (for rules about
    /// which names code may spell out).
    pub literals: String,
    /// True when the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// An analysed source file.
pub struct SourceFile {
    /// Path relative to the verify root, with `/` separators.
    pub rel: String,
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Loads and lexes `path`, recording it under the relative name `rel`.
    pub fn load(path: &Path, rel: String) -> Result<SourceFile, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(SourceFile {
            rel,
            lines: lex(&text),
        })
    }
}

/// Test-only access to the lexer for sibling-module unit tests.
#[cfg(test)]
pub(crate) fn lex_for_tests(text: &str) -> Vec<Line> {
    lex(text)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    Block(u32),  // nested block comment depth
    Str,         // inside "..."
    RawStr(u32), // inside r#"..."# with N hashes
}

/// Splits source text into per-line code/comment channels.
fn lex(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw in text.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut literals = String::new();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match mode {
                Mode::Code => {
                    if c == '/' && next == Some('/') {
                        comment.push_str(&raw[raw.char_indices().nth(i).map_or(0, |(b, _)| b)..]);
                        break;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::Block(1);
                        i += 2;
                        continue;
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Str;
                    } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                        // raw string r"..." or r#"..."#
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            code.push('"');
                            mode = Mode::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                        code.push(c);
                    } else if c == '\'' {
                        // char literal or lifetime; consume conservatively:
                        // 'x' or '\x' forms, otherwise treat as lifetime tick
                        if next == Some('\\') && chars.get(i + 3) == Some(&'\'') {
                            code.push_str("' '");
                            i += 4;
                            continue;
                        }
                        if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                            code.push_str("' '");
                            i += 3;
                            continue;
                        }
                        code.push('\'');
                    } else {
                        code.push(c);
                    }
                }
                Mode::Block(d) => {
                    if c == '*' && next == Some('/') {
                        mode = if d == 1 {
                            Mode::Code
                        } else {
                            Mode::Block(d - 1)
                        };
                        i += 2;
                        continue;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::Block(d + 1);
                        i += 2;
                        continue;
                    }
                    comment.push(c);
                }
                Mode::Str => {
                    if c == '\\' {
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        code.push('"');
                        mode = Mode::Code;
                    } else {
                        literals.push(c);
                    }
                }
                Mode::RawStr(h) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..h {
                            if chars.get(i + 1 + k as usize) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            code.push('"');
                            mode = Mode::Code;
                            i += 1 + h as usize;
                            continue;
                        }
                    }
                    literals.push(c);
                }
            }
            i += 1;
        }
        // A string literal may legally span lines; block comments too.
        out.push(Line {
            code,
            comment,
            literals,
            in_test: false,
        });
    }
    mark_test_regions(&mut out);
    out
}

/// Marks lines belonging to `#[cfg(test)]` items by brace matching.
fn mark_test_regions(lines: &mut [Line]) {
    let mut pending = false; // saw #[cfg(test)], waiting for the item body
    let mut depth = 0u32; // >0 while inside a test item
    for line in lines.iter_mut() {
        let code = line.code.clone();
        if depth > 0 {
            line.in_test = true;
        }
        for (i, c) in code.char_indices() {
            if depth == 0 && !pending && code[i..].starts_with("#[cfg(test)]") {
                pending = true;
            }
            match c {
                '{' => {
                    if pending {
                        pending = false;
                        depth = 1;
                        line.in_test = true;
                    } else if depth > 0 {
                        depth += 1;
                    }
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                }
                // `#[cfg(test)] use x;` — attribute on a braceless item
                ';' if pending => {
                    pending = false;
                    line.in_test = true;
                }
                _ => {}
            }
        }
        if pending {
            line.in_test = true;
        }
    }
}

// ---------------------------------------------------------------------
// Item / function extraction (the interprocedural analysis substrate)
// ---------------------------------------------------------------------

/// One call event inside a function body.
///
/// Offsets index the file's flattened code text (test-region lines
/// blanked, lines joined by `\n`), so positions are comparable across
/// lines. `close` — the offset of the matching `)` — is the call's
/// *completion* position: in `f(g())` the inner `g` completes first,
/// and in `a.f().g()` the chain completes left to right, which is the
/// evaluation order the write-ahead rule reasons about.
pub struct CallSite {
    pub name: String,
    /// `Type::name(...)` qualifier (last path segment before `::`).
    pub qual: Option<String>,
    /// Method receiver: the identifier segment immediately before
    /// `.name(` — `self.txn.log(..)` gives `Some("txn")`.
    pub recv: Option<String>,
    /// True for `.name(` method calls (even when the receiver could not
    /// be recovered, e.g. `(a + b).name(..)`).
    pub method: bool,
    /// Index (within the owning function's `calls`) of the call this
    /// one chains onto: in `a.f().g()`, `g.chain == Some(index of f)`.
    pub chain: Option<usize>,
    /// 1-based source line of the call name.
    pub line: usize,
    /// Offset of the matching close paren (completion position).
    pub close: usize,
    /// Argument text (string contents already blanked by the lexer).
    pub args: String,
    /// `let` binding target when the enclosing statement is
    /// `let <ident> = …` (guard and handle bindings).
    pub bound: Option<String>,
    /// Offset where the enclosing statement ends (`;` or block close).
    pub stmt_end: usize,
    /// Offset where the innermost enclosing block closes (`}`) —
    /// the live range of a `let`-bound guard.
    pub block_end: usize,
}

/// A free or associated function recovered from the lexical view.
pub struct FnItem {
    /// Path of the defining file, relative to the verify root.
    pub file: String,
    /// Enclosing `impl` type, e.g. `Some("HeapStorage")`.
    pub impl_ty: Option<String>,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Call events in the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// Stable workspace-unique-ish key: `Type::name` or bare `name`.
    pub fn key(&self) -> String {
        match &self.impl_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Keywords that look like `name(` but are not calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "fn", "impl", "where", "as", "move",
    "mut", "let", "else", "ref", "dyn", "pub", "use", "break",
];

/// Extracts the functions (and their call events) of one source file.
/// Test-region lines are excluded; closures stay attributed to the
/// enclosing `fn`; calls inside a nested `fn` belong to the innermost
/// one.
pub fn extract_functions(f: &SourceFile) -> Vec<FnItem> {
    // Flatten: blank test lines, keep line boundaries so offsets map
    // back to line numbers.
    let mut flat = String::new();
    let mut line_start = Vec::with_capacity(f.lines.len());
    for l in &f.lines {
        line_start.push(flat.len());
        if !l.in_test {
            flat.push_str(&l.code);
        }
        flat.push('\n');
    }
    let b = flat.as_bytes();
    let line_of = |off: usize| line_start.partition_point(|&s| s <= off);

    // impl ranges: (body_open, body_close, type name), top level only.
    let impls = find_impls(&flat);
    // fn spans: (sig_off, body_open, body_close, name)
    let fns = find_fns(&flat);
    // raw call sites over the whole flattened text
    let raw = find_calls(&flat);

    let mut out = Vec::new();
    for (fi, &(sig, open, close, ref name)) in fns.iter().enumerate() {
        let impl_ty = impls
            .iter()
            .find(|&&(io, ic, _)| io < sig && sig < ic)
            .map(|(_, _, t)| t.clone());
        // innermost-fn attribution: skip calls inside a nested fn body
        let nested: Vec<(usize, usize)> = fns
            .iter()
            .enumerate()
            .filter(|&(gi, &(gs, _, gc, _))| gi != fi && open < gs && gc <= close)
            .map(|(_, &(_, go, gc, _))| (go, gc))
            .collect();
        let mut calls = Vec::new();
        let mut closes = Vec::new(); // close offset -> index, for chains
        for site in &raw {
            let ns = site.name_start;
            if ns <= open || ns >= close {
                continue;
            }
            if nested.iter().any(|&(go, gc)| go < ns && ns < gc) {
                continue;
            }
            let chain = site
                .chain_paren
                .and_then(|p| closes.iter().position(|&c| c == p));
            closes.push(site.close);
            calls.push(CallSite {
                name: site.name.clone(),
                qual: site.qual.clone(),
                recv: site.recv.clone(),
                method: site.method,
                chain,
                line: line_of(ns),
                close: site.close,
                args: flat[site.open + 1..site.close].to_string(),
                bound: stmt_binding(&flat, ns),
                stmt_end: stmt_end_of(b, site.close),
                block_end: block_end_of(b, site.close),
            });
        }
        out.push(FnItem {
            file: f.rel.clone(),
            impl_ty,
            name: name.clone(),
            line: line_of(sig),
            calls,
        });
    }
    out
}

/// Top-level `impl` blocks: `(body_open, body_close, type_name)`.
fn find_impls(flat: &str) -> Vec<(usize, usize, String)> {
    let b = flat.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b'i' if depth == 0
                && flat[i..].starts_with("impl")
                && (i == 0 || !is_ident(b[i - 1]))
                && !is_ident(*b.get(i + 4).unwrap_or(&b' ')) =>
            {
                // header runs to the opening brace
                let Some(rel_open) = flat[i..].find('{') else {
                    break;
                };
                let open = i + rel_open;
                let header = &flat[i + 4..open];
                // `impl<G> Trait for Type` → Type; `impl<G> Type` → Type.
                let subject = match header.rfind(" for ") {
                    Some(p) => &header[p + 5..],
                    None => header_after_generics(header),
                };
                let ty: String = subject
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let close = match_brace(b, open);
                if !ty.is_empty() {
                    out.push((open, close, ty));
                }
                i = open + 1;
                depth += 1;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Skips a balanced `<...>` generic list at the start of an impl header.
fn header_after_generics(header: &str) -> &str {
    let t = header.trim_start();
    if !t.starts_with('<') {
        return t;
    }
    let mut depth = 0i32;
    for (i, c) in t.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &t[i + 1..];
                }
            }
            _ => {}
        }
    }
    t
}

/// All `fn` definitions with a body: `(sig_off, body_open, body_close,
/// name)`. Bodyless trait-method declarations are skipped.
fn find_fns(flat: &str) -> Vec<(usize, usize, usize, String)> {
    let b = flat.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(p) = flat[i..].find("fn ") {
        let at = i + p;
        i = at + 3;
        if at > 0 && is_ident(b[at - 1]) {
            continue; // e.g. `often `
        }
        let name: String = flat[at + 3..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // body opens at the first `{` at paren depth 0; a `;` first
        // means a bodyless declaration.
        let mut depth = 0i32;
        let mut open = None;
        for (j, &c) in b.iter().enumerate().skip(at + 3) {
            match c {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    open = Some(j);
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        out.push((at, open, match_brace(b, open), name));
    }
    out
}

/// Offset of the `}` matching the `{` at `open` (or text end).
fn match_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    b.len()
}

struct RawCall {
    name_start: usize,
    open: usize,
    close: usize,
    name: String,
    qual: Option<String>,
    recv: Option<String>,
    method: bool,
    /// Offset of the `)` this call chains off (`).name(`).
    chain_paren: Option<usize>,
}

/// Scans the flattened text for `name(` call shapes.
fn find_calls(flat: &str) -> Vec<RawCall> {
    let b = flat.as_bytes();
    let mut out = Vec::new();
    for i in 0..b.len() {
        if b[i] != b'(' || i == 0 || !is_ident(b[i - 1]) {
            continue;
        }
        let mut ns = i;
        while ns > 0 && is_ident(b[ns - 1]) {
            ns -= 1;
        }
        let name = &flat[ns..i];
        if name.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&name) {
            continue;
        }
        if ns > 0 && b[ns - 1] == b'!' {
            continue; // macro invocation
        }
        let mut qual = None;
        let mut recv = None;
        let mut method = false;
        let mut chain_paren = None;
        if ns >= 1 && b[ns - 1] == b'.' {
            method = true;
            // skip whitespace before the dot (rustfmt keeps `.name(`
            // attached, but the receiver may sit on a previous line)
            let mut j = ns as isize - 2;
            while j >= 0 && (b[j as usize] as char).is_whitespace() {
                j -= 1;
            }
            if j >= 0 {
                let c = b[j as usize];
                if c == b')' {
                    chain_paren = Some(j as usize);
                } else if is_ident(c) {
                    let mut rs = j as usize;
                    while rs > 0 && is_ident(b[rs - 1]) {
                        rs -= 1;
                    }
                    recv = Some(flat[rs..j as usize + 1].to_string());
                }
            }
        } else if ns >= 2 && &b[ns - 2..ns] == b"::" {
            let mut j = ns - 2;
            while j > 0 && is_ident(b[j - 1]) {
                j -= 1;
            }
            if j < ns - 2 {
                qual = Some(flat[j..ns - 2].to_string());
            }
        }
        // matching close paren
        let mut depth = 0i32;
        let mut close = None;
        for (j, &c) in b.iter().enumerate().skip(i) {
            match c {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        out.push(RawCall {
            name_start: ns,
            open: i,
            close,
            name: name.to_string(),
            qual,
            recv,
            method,
            chain_paren,
        });
    }
    out
}

/// `let` binding target of the statement containing offset `ns`, found
/// by scanning back to the nearest statement boundary. Compound
/// statements (`let x = if c { f() } …`) yield `None` for inner calls —
/// a conservative answer the analysis tolerates.
fn stmt_binding(flat: &str, ns: usize) -> Option<String> {
    let b = flat.as_bytes();
    let mut k = ns;
    while k > 0 {
        let c = b[k - 1];
        if c == b';' || c == b'{' || c == b'}' {
            break;
        }
        k -= 1;
    }
    let stmt = flat[k..ns].trim_start();
    let rest = stmt.strip_prefix("let ")?;
    let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest);
    let ident: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        return None;
    }
    // require a plain `ident =` / `ident: T =` binding, not a pattern
    let after = rest.trim_start()[ident.len()..].trim_start();
    if after.starts_with('=') || after.starts_with(':') {
        Some(ident)
    } else {
        None
    }
}

/// Offset where the statement containing the call that closes at `from`
/// ends: the next `;` at nesting depth 0, or the enclosing close
/// bracket.
fn stmt_end_of(b: &[u8], from: usize) -> usize {
    let mut depth = 0i32;
    for (j, &c) in b.iter().enumerate().skip(from + 1) {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            b';' if depth == 0 => return j,
            _ => {}
        }
    }
    b.len()
}

/// Offset of the `}` closing the innermost block containing the call
/// that closes at `from`.
fn block_end_of(b: &[u8], from: usize) -> usize {
    let mut depth = 0i32;
    for (j, &c) in b.iter().enumerate().skip(from + 1) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    b.len()
}

/// Recursively collects `.rs` files under `dir`, returning (abs, rel)
/// pairs with `rel` relative to `root`.
pub fn rust_files(root: &Path, dir: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| format!("cannot list {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                let rel = p
                    .strip_prefix(root)
                    .map_err(|_| format!("{} outside root", p.display()))?
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((p, rel));
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_separated() {
        let lines = lex("let x = \"unwrap()\"; // call unwrap() here\nlet y = 1; /* panic! */");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains("unwrap"));
        assert!(!lines[1].code.contains("panic"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let lines = lex("let f = r#\"x.unwrap()\"#;");
        assert!(!lines[0].code.contains("unwrap"));
    }

    #[test]
    fn nested_block_comments() {
        let lines = lex("/* a /* b */ still comment */ let z = 3;");
        assert!(lines[0].code.contains("let z"));
        assert!(!lines[0].code.contains('a'));
    }

    #[test]
    fn test_regions_marked() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn more() {}\n";
        let lines = lex(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test);
        assert!(lines[3].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn braceless_cfg_test_item_does_not_latch() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() { x { } }\n";
        let lines = lex(src);
        assert!(lines[1].in_test);
        assert!(!lines[2].in_test);
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let lines = lex("fn f<'a>(x: &'a str) { x.unwrap(); }");
        assert!(lines[0].code.contains("unwrap"));
    }

    fn extract(src: &str) -> Vec<FnItem> {
        extract_functions(&SourceFile {
            rel: "crates/x/src/a.rs".into(),
            lines: lex(src),
        })
    }

    #[test]
    fn functions_and_impl_types_extracted() {
        let fns = extract(
            "impl StorageMethod for HeapStorage {\n    fn insert(&self) { self.log(1); }\n}\n\
             pub fn free_one() { help(); }\n",
        );
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].key(), "HeapStorage::insert");
        assert_eq!(fns[1].key(), "free_one");
        assert_eq!(fns[0].calls[0].recv.as_deref(), Some("self"));
        assert!(fns[1].calls[0].recv.is_none() && !fns[1].calls[0].method);
    }

    #[test]
    fn completion_order_nests_and_chains() {
        // f(g()) completes g first; a.f().g() completes f before g.
        let fns = extract("fn h() { outer(inner(1)); x.f().g(); }");
        let c = &fns[0].calls;
        let outer = c.iter().position(|s| s.name == "outer").unwrap();
        let inner = c.iter().position(|s| s.name == "inner").unwrap();
        assert!(c[inner].close < c[outer].close);
        let fpos = c.iter().position(|s| s.name == "f").unwrap();
        let gpos = c.iter().position(|s| s.name == "g").unwrap();
        assert!(c[fpos].close < c[gpos].close);
        assert_eq!(c[gpos].chain, Some(fpos));
    }

    #[test]
    fn qualifiers_receivers_and_bindings() {
        let fns = extract(
            "fn h(&self) {\n    let lsn = Self::log(self);\n    let tree = BTree::open(p)\n        \
             .with_wal_lsn(lsn);\n    tree.insert(k);\n}\n",
        );
        let c = &fns[0].calls;
        assert_eq!(c[0].qual.as_deref(), Some("Self"));
        assert_eq!(c[0].bound.as_deref(), Some("lsn"));
        let open = c.iter().position(|s| s.name == "open").unwrap();
        assert_eq!(c[open].qual.as_deref(), Some("BTree"));
        let wal = c.iter().position(|s| s.name == "with_wal_lsn").unwrap();
        assert_eq!(c[wal].chain, Some(open), "chain across the line break");
        assert_eq!(c[wal].bound.as_deref(), Some("tree"));
        let ins = c.iter().position(|s| s.name == "insert").unwrap();
        assert_eq!(c[ins].recv.as_deref(), Some("tree"));
    }

    #[test]
    fn guard_scopes_have_statement_and_block_ends() {
        let src = "fn c(&self) {\n    {\n        let _g = self.latch.write();\n        \
                   self.pool.flush_all();\n    }\n    self.txn.force();\n}\n";
        let fns = extract(src);
        let c = &fns[0].calls;
        let w = c.iter().position(|s| s.name == "write").unwrap();
        assert_eq!(c[w].recv.as_deref(), Some("latch"));
        assert_eq!(c[w].bound.as_deref(), Some("_g"));
        let fl = c.iter().position(|s| s.name == "flush_all").unwrap();
        let fo = c.iter().position(|s| s.name == "force").unwrap();
        // flush_all is inside the guard's block, force is after it
        assert!(c[fl].close < c[w].block_end);
        assert!(c[fo].close > c[w].block_end);
    }

    #[test]
    fn closure_calls_complete_before_the_outer_call() {
        let fns = extract("fn i() { append_record(pool, |p, s| Self::log(p, s)); }");
        let c = &fns[0].calls;
        let ap = c.iter().position(|s| s.name == "append_record").unwrap();
        let lg = c.iter().position(|s| s.name == "log").unwrap();
        assert!(c[lg].close < c[ap].close);
    }

    #[test]
    fn test_regions_macros_and_nested_fns_are_excluded() {
        let src = "fn outer() {\n    fn inner() { only_inner(); }\n    only_outer();\n    \
                   vec![1];\n}\n#[cfg(test)]\nmod t {\n    fn tt() { in_test(); }\n}\n";
        let fns = extract(src);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer.calls.iter().all(|s| s.name != "only_inner"));
        assert!(outer.calls.iter().any(|s| s.name == "only_outer"));
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(inner.calls.iter().any(|s| s.name == "only_inner"));
        assert!(!fns.iter().any(|f| f.name == "tt"));
    }
}
