//! Spans recorded by the harness around its calls into each layer.
//!
//! The engine is not instrumented by this benchmark; every span here
//! starts and ends in harness code, around a public function of one
//! layer. Spans of one operation share a request id and nest through
//! `parent`. A span's *self time* is its duration minus its children's.
//! Spans stay in memory (up to a cap) and are written out when the run
//! ends; the per-layer histograms are fed from every span, capped or not.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::hist::Histogram;
use crate::workload::Class;

/// Spans kept for the trace file; later spans still feed the histograms.
const SPAN_CAP: usize = 200_000;

pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// 0 for a request's root span.
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    name: &'static str,
    id: u32,
    start: Instant,
    children_ns: u64,
}

/// Token proving a span was opened; hand it back to [`Tracer::end`].
#[must_use]
pub struct SpanToken(bool);

pub struct Tracer {
    epoch: Instant,
    /// Off: `begin`/`end` do nothing, so the same probe loop runs
    /// untraced and the difference in its rate is the tracing overhead.
    pub enabled: bool,
    request: u64,
    class: Class,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    /// Self time per call, by span name.
    per_call: BTreeMap<&'static str, Histogram>,
    /// Self time summed over one operation, by class and span name. An
    /// operation without a span of some name counts as zero there, so
    /// the histograms hold the non-zero samples and `ops` the total.
    in_request: BTreeMap<&'static str, u64>,
    per_op: BTreeMap<(bool, &'static str), Histogram>,
    ops: [u64; 2],
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            request: 0,
            class: Class::Read,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            per_call: BTreeMap::new(),
            in_request: BTreeMap::new(),
            per_op: BTreeMap::new(),
            ops: [0; 2],
        }
    }
}

impl Tracer {
    /// Starts the spans of a new operation.
    pub fn start_request(&mut self, class: Class) {
        self.request += 1;
        self.class = class;
        self.in_request.clear();
    }

    /// Closes the operation: its per-layer self-time totals become one
    /// sample each of the per-operation histograms.
    pub fn finish_request(&mut self) {
        debug_assert!(self.stack.is_empty(), "a span outlived its request");
        if !self.enabled {
            return;
        }
        let is_write = self.class == Class::Write;
        self.ops[usize::from(is_write)] += 1;
        for (name, ns) in std::mem::take(&mut self.in_request) {
            self.per_op.entry((is_write, name)).or_default().record(ns);
        }
    }

    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        if !self.enabled {
            return SpanToken(false);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            name,
            id,
            start: Instant::now(),
            children_ns: 0,
        });
        SpanToken(true)
    }

    pub fn end(&mut self, token: SpanToken) {
        if !token.0 {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("end without a matching begin");
        let ns = (end - open.start).as_nanos() as u64;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += ns;
                p.id
            }
            None => 0,
        };
        let self_ns = ns.saturating_sub(open.children_ns);
        self.per_call.entry(open.name).or_default().record(self_ns);
        *self.in_request.entry(open.name).or_default() += self_ns;
        if self.spans.len() < SPAN_CAP {
            let start_ns = (open.start - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent,
                request: self.request,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.begin(name);
        let r = f();
        self.end(t);
        r
    }

    /// Median self time of one call of span `name`, in µs (0 if never
    /// recorded).
    pub fn call_p50_us(&self, name: &str) -> f64 {
        self.per_call.get(name).map_or(0.0, |h| h.quantile_us(0.5))
    }

    /// `(span name, median self time per operation in µs)` over all
    /// traced operations of `class`, in name order.
    pub fn op_budget(&self, class: Class) -> Vec<(&'static str, f64)> {
        let is_write = class == Class::Write;
        let ops = self.ops[usize::from(is_write)] as f64;
        self.per_op
            .iter()
            .filter(|((w, _), _)| *w == is_write)
            .map(|((_, name), h)| {
                // The median over all operations sits among the
                // non-zero samples only if they are the majority.
                let zeros = ops - h.count() as f64;
                let rank = 0.5 * ops - zeros;
                let us = if rank > 0.0 {
                    h.quantile_us(rank / h.count() as f64)
                } else {
                    0.0
                };
                (*name, us)
            })
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
