//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. They stay in memory and are written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::util::{json_string, median};

/// One timed call: which op it belongs to, what caused it, when it ran,
/// and how much of that time was its own rather than its children's.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    /// Index of the enclosing span, `-1` for an op's root.
    pub parent: i32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

struct Open {
    span: usize,
    child_ns: u64,
}

/// Records spans when enabled; when disabled a span costs one branch, so
/// the same replay code runs with tracing off and on.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: RefCell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<Open>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a>(Option<&'a Tracer>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: RefCell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Every later span belongs to op `op`.
    pub fn set_op(&self, op: u32) {
        *self.op.borrow_mut() = op;
    }

    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard(None);
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let parent = open.last().map_or(-1, |o| o.span as i32);
        open.push(Open {
            span: spans.len(),
            child_ns: 0,
        });
        spans.push(Span {
            name,
            op: *self.op.borrow(),
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            self_ns: 0,
        });
        SpanGuard(Some(self))
    }

    fn exit(&self) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut open = self.open.borrow_mut();
        let closed = open.pop().expect("a guard closes the span it opened");
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[closed.span];
        span.end_ns = end_ns;
        let total = end_ns - span.start_ns;
        span.self_ns = total.saturating_sub(closed.child_ns);
        if let Some(parent) = open.last_mut() {
            parent.child_ns += total;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.0 {
            tracer.exit();
        }
    }
}

/// Per stage name: each op's summed self time, in µs.
pub fn self_time_by_stage(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for span in spans {
        *per_op.entry((span.name, span.op)).or_default() += span.self_ns;
    }
    let mut by_stage: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_op {
        by_stage.entry(name).or_default().push(ns as f64 / 1e3);
    }
    by_stage
}

/// Median self time per op of `stage` in µs, if any op reached it.
pub fn stage_median(by_stage: &mut BTreeMap<&'static str, Vec<f64>>, stage: &str) -> Option<f64> {
    by_stage.get_mut(stage).map(|v| median(v))
}

/// One span per line: `op`, `id`, `parent` (an `id`, -1 for a root),
/// `name`, `start_ns`, `end_ns`, `self_ns`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"op\": {}, \"id\": {id}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.op,
            s.parent,
            json_string(s.name),
            s.start_ns,
            s.end_ns,
            s.self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let tracer = Tracer::new(true);
        tracer.set_op(7);
        {
            let _outer = tracer.enter("outer");
            {
                let _a = tracer.enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _b = tracer.enter("inner");
        }
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (-1, 0, 0)
        );
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            spans[0].self_ns,
            spans[0].end_ns - spans[0].start_ns - children
        );
        let by_stage = self_time_by_stage(&spans);
        assert_eq!(
            by_stage["inner"].len(),
            1,
            "both inner spans belong to op 7"
        );
        assert!(by_stage["inner"][0] >= 2000.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        drop(tracer.enter("x"));
        assert!(tracer.into_spans().is_empty());
    }
}
