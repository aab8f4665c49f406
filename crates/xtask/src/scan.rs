//! Lexical source model.
//!
//! The verify pass works on a line-oriented view of each source file in
//! which comment text and string-literal contents have been separated
//! from code, and `#[cfg(test)]` regions are marked. This is a lexer,
//! not a parser: it understands line/block comments (nested), plain and
//! raw string literals, and char literals — enough to scan for tokens
//! without false positives from prose or test fixtures embedded in
//! strings.

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
}
