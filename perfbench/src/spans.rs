//! Host-time spans recorded around the benchmark's calls into each
//! layer. A disabled [`Tracer`] records nothing, so the untraced run
//! pays one branch per call site.

use crate::clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: its name, host-time interval in nanoseconds since
/// the tracer started, the enclosing span, and the transaction id of the
/// query it served (0 when it served none).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Transaction id of the query this call served, or 0.
    pub txn: u32,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the parts covered by child spans, ns.
    pub self_ns: u64,
}

/// Records spans in memory when enabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { on: false, origin: clock::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records every span.
    pub fn on() -> Tracer {
        Tracer { on: true, ..Tracer::off() }
    }

    fn ns(&self) -> u64 {
        clock::now().duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, txn: u32) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = self.ns();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, txn });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end;
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Summed duration in seconds of the spans named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-9)
    }

    /// Count, total and self time per span name. Children of one span
    /// never overlap (the benchmark is single-threaded), so a span's self
    /// time is its duration minus the sum of its children's.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `txn`), followed by one `summary` line of per-name totals.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"txn\": {}}}",
                s.name, s.start_ns, s.end_ns, s.txn
            );
        }
        let rows: Vec<String> = self
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        let _ = writeln!(out, "{{\"summary\": {{{}}}}}", rows.join(", "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::on();
        tr.enter("outer", 0);
        tr.enter("inner", 7);
        tr.exit();
        tr.enter("inner", 8);
        tr.exit();
        tr.exit();
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].txn, 8);
        let totals = tr.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(tr.to_jsonl().lines().count() == 4);

        let mut off = Tracer::off();
        off.enter("outer", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
