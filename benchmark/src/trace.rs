//! Spans recorded from outside the engine: one around each call the
//! benchmark makes into a layer, kept in a buffer sized before the pass
//! starts and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer's buffer.
pub type SpanId = u32;

/// "No parent": a statement's root span, or a probe beside it.
pub const ROOT: SpanId = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one statement (or transaction) share this.
    pub stmt: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stmt: u32,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans without growing, so
    /// no allocation lands inside a traced statement.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stmt: 0,
        }
    }

    /// Starts the next statement: spans opened from here on carry its id.
    pub fn next_stmt(&mut self) {
        self.stmt += 1;
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            stmt: self.stmt,
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name` whose
    /// statement's root span is called `root` (any statement when `None`).
    pub fn durations_us(&self, name: &str, root: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| match root {
                None => true,
                Some(r) => self.root_of(s).name == r,
            })
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    fn root_of<'a>(&'a self, s: &'a Span) -> &'a Span {
        let mut cur = s;
        while cur.parent != ROOT {
            cur = &self.spans[cur.parent as usize];
        }
        cur
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Tab-separated dump: id, statement, parent, name, start, end, self.
    pub fn render_tsv(&self) -> String {
        let own = self.self_ns();
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tstmt\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.stmt, s.name, s.start_ns, s.end_ns, own[i]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::with_capacity(4);
        t.next_stmt();
        let root = t.begin("stmt", ROOT);
        t.span("child", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let own = t.self_ns();
        let s = t.spans();
        assert_eq!(own[1], s[1].dur_ns());
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns());
        assert_eq!(t.durations_us("child", Some("stmt")).len(), 1);
        assert!(t.durations_us("child", Some("other")).is_empty());
    }
}
