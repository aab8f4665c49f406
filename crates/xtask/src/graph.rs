//! The workspace call graph.
//!
//! Built from the lexical [`FnItem`] extraction, with deliberately
//! conservative resolution: an edge exists only when the callee is
//! unambiguous from the call shape alone. Unresolvable calls (trait
//! objects, std methods, ambiguous names) simply sever the graph — the
//! effect analysis then relies on declared facts at the call site, so
//! severing can hide an effect but never invent one.
//!
//! Resolution rules:
//! - `self.m(..)` → method `m` of the enclosing `impl` type;
//! - `Self::f(..)` → associated `f` of the enclosing `impl` type;
//! - `Type::f(..)` → associated `f` of `Type`, when exactly one type of
//!   that name defines it workspace-wide;
//! - `module::f(..)` (lower-case qualifier) and bare `f(..)` → the free
//!   function `f`, when exactly one exists workspace-wide;
//! - everything else (plain `.m(..)` on a non-`self` receiver) is
//!   unresolved: that shape is dominated by std-collection and trait-
//!   object calls (`map.insert`, `sm.update`, `att.on_modify`), where a
//!   name-only guess would alias unrelated workspace methods.

use std::collections::HashMap;

use crate::scan::{CallSite, FnItem, SourceFile};

/// Index of every extracted function, addressable by resolution key.
pub struct FnIndex {
    pub fns: Vec<FnItem>,
    /// `Type::name` → defining fns (usually one; ambiguity severs).
    assoc: HashMap<String, Vec<usize>>,
    /// free-function name → defining fns.
    free: HashMap<String, Vec<usize>>,
}

impl FnIndex {
    /// Extracts and indexes every function of `files`.
    pub fn build(files: &[SourceFile]) -> FnIndex {
        let mut fns = Vec::new();
        for f in files {
            fns.extend(crate::scan::extract_functions(f));
        }
        let mut assoc: HashMap<String, Vec<usize>> = HashMap::new();
        let mut free: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, item) in fns.iter().enumerate() {
            match &item.impl_ty {
                Some(_) => assoc.entry(item.key()).or_default().push(i),
                None => free.entry(item.name.clone()).or_default().push(i),
            }
        }
        FnIndex { fns, assoc, free }
    }

    fn unique(m: &HashMap<String, Vec<usize>>, key: &str) -> Option<usize> {
        match m.get(key).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    }

    /// Resolves `site` (appearing inside `caller`) to a workspace
    /// function, or `None` when the callee is ambiguous or external.
    pub fn resolve(&self, caller: &FnItem, site: &CallSite) -> Option<usize> {
        if let Some(q) = &site.qual {
            let starts_lower = q.chars().next().is_some_and(|c| c.is_lowercase());
            if starts_lower {
                // module-qualified free call: `heap::append_record(..)`
                return Self::unique(&self.free, &site.name);
            }
            let ty = if q == "Self" {
                caller.impl_ty.as_deref()?
            } else {
                q.as_str()
            };
            return Self::unique(&self.assoc, &format!("{ty}::{}", site.name));
        }
        if site.method {
            if site.recv.as_deref() == Some("self") {
                let ty = caller.impl_ty.as_deref()?;
                return Self::unique(&self.assoc, &format!("{ty}::{}", site.name));
            }
            return None;
        }
        if site.chain.is_none() {
            return Self::unique(&self.free, &site.name);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile {
            rel: "crates/x/src/a.rs".into(),
            lines: crate::scan::lex_for_tests(src),
        }
    }

    #[test]
    fn self_and_qualified_calls_resolve() {
        let idx = FnIndex::build(&[sf(
            "impl Heap {\n    fn log(&self) {}\n    fn insert(&self) { \
                                      self.log(); Self::log(x); Heap::log(y); }\n}\n\
                                      fn free_help() {}\nfn driver() { free_help(); }\n",
        )]);
        let caller_i = idx.fns.iter().position(|f| f.name == "insert").unwrap();
        let log_i = idx.fns.iter().position(|f| f.name == "log").unwrap();
        let caller = &idx.fns[caller_i];
        for site in &caller.calls {
            assert_eq!(idx.resolve(caller, site), Some(log_i), "{}", site.name);
        }
        let driver_i = idx.fns.iter().position(|f| f.name == "driver").unwrap();
        let help_i = idx.fns.iter().position(|f| f.name == "free_help").unwrap();
        let driver = &idx.fns[driver_i];
        assert_eq!(idx.resolve(driver, &driver.calls[0]), Some(help_i));
    }

    #[test]
    fn ambiguous_and_foreign_receivers_sever() {
        let idx = FnIndex::build(&[sf(
            "impl A { fn touch(&self) {} }\nimpl B { fn touch(&self) {} }\n\
             impl C { fn go(&self, m: &M) { m.touch(); m.insert(1); other(); } }\n",
        )]);
        let go_i = idx.fns.iter().position(|f| f.name == "go").unwrap();
        let go = &idx.fns[go_i];
        for site in &go.calls {
            assert_eq!(idx.resolve(go, site), None, "{} must sever", site.name);
        }
    }
}
