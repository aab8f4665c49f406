//! Attribute/value lists for extension-specific DDL parameters.
//!
//! The paper extends the data definition language so a `CREATE` statement
//! can name a storage method or attachment type and hand it an attribute /
//! value list of extension-specific parameters (e.g. which device a storage
//! method instance should use). Extensions supply generic operations to
//! *validate* these lists during DDL parsing and to interpret them during
//! execution. [`AttrList`] is that list; an attachment instance's
//! descriptor is the list that made it, stored with [`AttrList::encode`].

use std::fmt;

use crate::bytes::{put_varint, varint};
use crate::error::{DmxError, Result};

/// An ordered list of `key = value` string pairs. Keys are matched
/// case-insensitively; duplicate keys are rejected at construction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttrList {
    pairs: Vec<(String, String)>,
}

impl AttrList {
    /// An empty list.
    pub fn new() -> Self {
        AttrList::default()
    }

    /// Builds from pairs, rejecting duplicate keys.
    pub fn from_pairs<I, K, V>(pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        let mut list = AttrList::new();
        for (k, v) in pairs {
            list.push(k.into(), v.into())?;
        }
        Ok(list)
    }

    /// Parses `k1 = v1, k2 = v2, …`. Values may be single-quoted (quotes
    /// stripped, doubled quotes unescaped) or bare tokens.
    pub fn parse(text: &str) -> Result<Self> {
        let mut list = AttrList::new();
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Ok(list);
        }
        for piece in split_top_level_commas(trimmed) {
            let (k, v) = piece
                .split_once('=')
                .ok_or_else(|| DmxError::Parse(format!("expected key=value, got '{piece}'")))?;
            let key = k.trim();
            if key.is_empty() {
                return Err(DmxError::Parse(format!("empty key in '{piece}'")));
            }
            list.push(key.to_string(), unquote(v.trim())?)?;
        }
        Ok(list)
    }

    /// Appends `key = value`, rejecting a key already present.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<String>) -> Result<()> {
        let (key, value) = (key.into(), value.into());
        if self.get(&key).is_some() {
            return Err(DmxError::InvalidArg(format!("duplicate attribute {key}")));
        }
        self.pairs.push((key, value));
        Ok(())
    }

    /// The list without the attributes named in `keys`.
    pub fn without(&self, keys: &[&str]) -> AttrList {
        let pairs = self
            .pairs
            .iter()
            .filter(|(k, _)| !keys.iter().any(|drop| drop.eq_ignore_ascii_case(k)));
        AttrList {
            pairs: pairs.cloned().collect(),
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no attributes are present.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The raw pairs, in declaration order.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Fetches a value by key (case-insensitive).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// Fetches a required value, erroring with the extension's name if
    /// absent — the shape an extension's parser wants.
    pub fn require(&self, key: &str, who: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| DmxError::InvalidArg(format!("{who} requires attribute '{key}'")))
    }

    /// Parses a boolean attribute (`true/false/1/0/yes/no`), defaulting
    /// when absent.
    pub fn get_bool(&self, key: &str, default: bool) -> Result<bool> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.to_ascii_lowercase().as_str() {
                "true" | "1" | "yes" | "on" => Ok(true),
                "false" | "0" | "no" | "off" => Ok(false),
                other => Err(DmxError::InvalidArg(format!(
                    "attribute {key}: expected boolean, got '{other}'"
                ))),
            },
        }
    }

    /// Parses an unsigned integer attribute, defaulting when absent.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse::<u64>().map_err(|_| {
                DmxError::InvalidArg(format!("attribute {key}: expected integer, got '{v}'"))
            }),
        }
    }

    /// Validates that every present key is in `allowed`; an extension's
    /// parser calls this first, and its `create_instance` parses before it
    /// allocates, so a typo in DDL is reported before anything is.
    pub fn check_allowed(&self, allowed: &[&str], who: &str) -> Result<()> {
        for (k, _) in &self.pairs {
            if !allowed.iter().any(|a| a.eq_ignore_ascii_case(k)) {
                return Err(DmxError::InvalidArg(format!(
                    "{who} does not understand attribute '{k}' (allowed: {})",
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Serializes for descriptor storage: the pair count, then each key
    /// and value, length first, as varints.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.pairs.len() as u64);
        for (k, v) in &self.pairs {
            for s in [k, v] {
                put_varint(&mut out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
        }
        out
    }

    /// Deserializes an [`AttrList::encode`] payload.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let corrupt = || DmxError::Corrupt("truncated attr list".into());
        let mut pos = 0usize;
        let string = |pos: &mut usize| -> Result<String> {
            let len = varint(buf, pos).ok_or_else(corrupt)? as usize;
            let s = buf.get(*pos..*pos + len).ok_or_else(corrupt)?;
            *pos += len;
            String::from_utf8(s.to_vec()).map_err(|_| DmxError::Corrupt("attr not utf8".into()))
        };
        let n = varint(buf, &mut pos).ok_or_else(corrupt)?;
        let mut list = AttrList::new();
        for _ in 0..n {
            let key = string(&mut pos)?;
            list.push(key, string(&mut pos)?)?;
        }
        if pos != buf.len() {
            return Err(corrupt());
        }
        Ok(list)
    }
}

/// The list as a DDL `WITH` clause body writes it, `key = value, …`,
/// which [`AttrList::parse`] and the SQL parser read back: a value that
/// is not one word is single-quoted.
impl fmt::Display for AttrList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let word = v.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && v.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            if word {
                write!(f, "{sep}{k} = {v}")?;
            } else {
                write!(f, "{sep}{k} = '{}'", v.replace('\'', "''"))?;
            }
        }
        Ok(())
    }
}

fn unquote(v: &str) -> Result<String> {
    if let Some(inner) = v.strip_prefix('\'') {
        let inner = inner
            .strip_suffix('\'')
            .ok_or_else(|| DmxError::Parse(format!("unterminated quote in '{v}'")))?;
        Ok(inner.replace("''", "'"))
    } else {
        Ok(v.to_string())
    }
}

/// Splits on commas that are not inside single quotes.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_quote = false;
    for (i, c) in s.char_indices() {
        match c {
            '\'' => in_quote = !in_quote,
            ',' if !in_quote => {
                // bounds: `start` and `i` are char boundaries ≤ s.len().
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    // bounds: `start` is a char boundary ≤ s.len().
    out.push(s[start..].trim());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_and_quoted() {
        let l =
            AttrList::parse("file = emp.dat, unique=true, comment='a, ''quoted'' value'").unwrap();
        assert_eq!(l.get("FILE"), Some("emp.dat"));
        assert!(l.get_bool("unique", false).unwrap());
        assert_eq!(l.get("comment"), Some("a, 'quoted' value"));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn parse_empty_and_errors() {
        assert!(AttrList::parse("").unwrap().is_empty());
        assert!(AttrList::parse("   ").unwrap().is_empty());
        assert!(AttrList::parse("novalue").is_err());
        assert!(AttrList::parse("=v").is_err());
        assert!(AttrList::parse("k='oops").is_err());
        assert!(AttrList::parse("k=1, K=2").is_err(), "case-insensitive dup");
    }

    #[test]
    fn typed_getters() {
        let l = AttrList::parse("n=42, flag=off").unwrap();
        assert_eq!(l.get_u64("n", 0).unwrap(), 42);
        assert_eq!(l.get_u64("missing", 7).unwrap(), 7);
        assert!(!l.get_bool("flag", true).unwrap());
        assert!(l.get_u64("flag", 0).is_err());
        assert!(l.require("n", "heap").is_ok());
        let err = l.require("device", "heap").unwrap_err();
        assert!(err.to_string().contains("heap"));
    }

    #[test]
    fn check_allowed_catches_typos() {
        let l = AttrList::parse("uniqeu=true").unwrap();
        let err = l.check_allowed(&["unique", "fields"], "btree").unwrap_err();
        assert!(err.to_string().contains("uniqeu"));
        assert!(AttrList::parse("unique=1")
            .unwrap()
            .check_allowed(&["UNIQUE"], "btree")
            .is_ok());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let l = AttrList::parse("a=1, b='x y', c=").unwrap();
        let back = AttrList::decode(&l.encode()).unwrap();
        assert_eq!(l, back);
        assert!(AttrList::decode(&[9]).is_err());
        let bytes = l.encode();
        for cut in 0..bytes.len() {
            assert!(AttrList::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn display_reads_back_as_ddl() {
        let l =
            AttrList::parse("fields = 'a,b', unique = true, n = 3, c = 'it''s', e = ''").unwrap();
        let text = l.to_string();
        assert_eq!(
            text,
            "fields = 'a,b', unique = true, n = '3', c = 'it''s', e = ''"
        );
        assert_eq!(AttrList::parse(&text).unwrap(), l);
        assert_eq!(
            l.without(&["UNIQUE", "n"]).to_string(),
            "fields = 'a,b', c = 'it''s', e = ''"
        );
    }
}
