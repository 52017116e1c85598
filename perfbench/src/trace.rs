//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A disabled [`Tracer`] records nothing, so the untraced
//! run executes the same code path minus the clock reads and pushes.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed layer call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Sub-label, e.g. the algorithm route of a `core.spec` call.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The op (request, batch, instance solve) the span belongs to.
    pub op: u64,
}

/// Handle returned by [`Tracer::enter`].
#[must_use]
pub struct SpanId(u32);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Sets the op id stamped on subsequent spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str, tag: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let start_ns = self.ns(Instant::now());
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            tag,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[id.0 as usize].end_ns = end;
        self.stack.pop();
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, tag);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a span timed elsewhere (e.g. by the serve receiver).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            tag: "",
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: NO_PARENT,
            op,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns, s.op
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of it that
/// its direct children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time in ns of the spans matching `name` (and `tag`, if given),
/// summed within each op, keyed by op id.
pub fn per_op_ns(spans: &[Span], own: &[u64], name: &str, tag: Option<&str>) -> BTreeMap<u64, u64> {
    let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(own) {
        if s.name == name && tag.is_none_or(|t| t == s.tag) {
            *by_op.entry(s.op).or_default() += ns;
        }
    }
    by_op
}

/// [`per_op_ns`] in ms, one value per op that has a matching span.
pub fn per_op_ms(spans: &[Span], own: &[u64], name: &str, tag: Option<&str>) -> Vec<f64> {
    per_op_ns(spans, own, name, tag)
        .values()
        .map(|&ns| ns as f64 / 1e6)
        .collect()
}

/// Median over ops of [`per_op_ms`]; 0 when no span matches.
pub fn layer_ms(spans: &[Span], own: &[u64], name: &str, tag: Option<&str>) -> f64 {
    median(&per_op_ms(spans, own, name, tag))
}

/// Median over op spans named `op_name` of the share of the op's
/// duration covered by its children's self times — how much of an op
/// the traced layers account for.
pub fn layer_cover(spans: &[Span], own: &[u64], op_name: &str) -> f64 {
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(own) {
        if s.parent != NO_PARENT && spans[s.parent as usize].name == op_name {
            *covered.entry(s.parent).or_default() += ns;
        }
    }
    let shares: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == op_name && s.end_ns > s.start_ns)
        .map(|(i, s)| {
            covered.get(&(i as u32)).copied().unwrap_or(0) as f64 / (s.end_ns - s.start_ns) as f64
        })
        .collect();
    median(&shares)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, op: u64) -> Span {
        Span {
            name,
            tag: "",
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 10_000_000, NO_PARENT, 1),
            span("a", 1_000_000, 4_000_000, 0, 1),
            span("b", 4_000_000, 9_000_000, 0, 1),
        ];
        let own = self_ns(&spans);
        assert_eq!(own, vec![2_000_000, 3_000_000, 5_000_000]);
        assert_eq!(layer_ms(&spans, &own, "b", None), 5.0);
        assert!((layer_cover(&spans, &own, "op") - 0.8).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", "");
        t.exit(id);
        assert_eq!(t.time("y", "", || 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_parent() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let outer = t.enter("op", "");
        t.time("leaf", "tag", || ());
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[1].op, 7);
        assert_eq!(s[1].tag, "tag");
    }
}
