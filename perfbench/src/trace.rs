//! Harness spans and the per-layer self-time fold.
//!
//! The harness opens a `grepair_obs` span around every call it makes into
//! a layer's public functions; its category is the layer the call is
//! charged to. In a traced iteration the harness switches tracing on, so
//! the program's own spans (`engine.round`, `match.find_all`,
//! `graph.freeze`, `store.compaction`, …) are recorded on the same clock
//! and nest under the harness span that made the call. When the iteration
//! ends its events are drained and tagged with the iteration number. In
//! untraced iterations tracing is off and every span is inert.

use grepair_obs::TraceEvent;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Category of the iteration root span: its self time is unattributed.
pub const ROOT: &str = "root";

/// Layer a span's self time is charged to: a harness span's category is
/// its layer; a program span's category is its module.
fn layer(cat: &'static str) -> &'static str {
    match cat {
        "engine" => "core.engine",
        "plan" => "match.plan",
        "graph" => "graph.snapshot",
        other => other,
    }
}

/// Span recorder. A disabled tracer runs the iterations bare.
pub struct Tracer {
    on: bool,
    /// Every traced iteration's events, tagged with the iteration.
    events: RefCell<Vec<(u32, TraceEvent)>>,
    iter: Cell<u32>,
}

/// Run `f` inside a span `name` charged to `layer` (inert unless a traced
/// iteration is running).
pub fn time<T>(name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = grepair_obs::span(name, layer);
    f()
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            events: RefCell::new(Vec::new()),
            iter: Cell::new(0),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Run one workload iteration as a root span with tracing switched
    /// on, then drain its events.
    pub fn iteration<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let iter = self.iter.get() + 1;
        self.iter.set(iter);
        drop(grepair_obs::take_events());
        grepair_obs::set_tracing(true);
        let out = time("iteration", ROOT, f);
        grepair_obs::set_tracing(false);
        let mut events = self.events.borrow_mut();
        for e in grepair_obs::take_events() {
            if e.ph == 'X' {
                events.push((iter, e));
            }
        }
        out
    }

    /// Number of traced iterations so far.
    pub fn iterations(&self) -> u32 {
        self.iter.get()
    }

    /// Fold the spans into self time per layer: each span's duration
    /// minus the durations of its children. Returns `(layer → self ms,
    /// summed iteration ms)`; the root layer's share is the unattributed
    /// time. Fails if the spans of an iteration do not nest under its one
    /// root span or a span's children cover more than the span.
    pub fn fold(&self) -> Result<(BTreeMap<&'static str, f64>, f64), String> {
        let events = self.events.borrow();
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut root_ns = 0u64;
        let mut start = 0;
        while start < events.len() {
            let iter = events[start].0;
            let end = start
                + events[start..]
                    .iter()
                    .take_while(|(i, _)| *i == iter)
                    .count();
            let spans: Vec<TraceEvent> =
                events[start..end].iter().map(|(_, e)| e.clone()).collect();
            grepair_obs::spans_well_formed(&spans).map_err(|e| format!("iteration {iter}: {e}"))?;
            // `take_events` orders by start, parents before children.
            let mut self_ns: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns)).collect();
            let mut stack: Vec<usize> = Vec::new();
            for (i, s) in spans.iter().enumerate() {
                while let Some(&top) = stack.last() {
                    if spans[top].ts_ns + spans[top].dur_ns <= s.ts_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                match stack.last() {
                    Some(&p) => self_ns[p] -= i128::from(s.dur_ns),
                    None if s.name == "iteration" && s.cat == ROOT && i == 0 => root_ns += s.dur_ns,
                    None => {
                        return Err(format!(
                            "iteration {iter}: span {} ({}) outside the iteration span",
                            s.name, s.cat
                        ))
                    }
                }
                stack.push(i);
            }
            for (s, own) in spans.iter().zip(&self_ns) {
                if *own < 0 {
                    return Err(format!(
                        "iteration {iter}: children of {} cover more than it",
                        s.name
                    ));
                }
                *by_layer.entry(layer(s.cat)).or_default() += *own as f64 / 1e6;
            }
            start = end;
        }
        Ok((by_layer, root_ns as f64 / 1e6))
    }

    /// Durations (ms) of the spans called `name` in category `cat`.
    pub fn durations(&self, name: &str, cat: &str) -> Vec<f64> {
        self.events
            .borrow()
            .iter()
            .filter(|(_, e)| e.name == name && e.cat == cat)
            .map(|(_, e)| e.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Per-iteration sums (ms) of the spans called `name` in category
    /// `cat`, for the iterations that have any.
    pub fn per_iter_ms(&self, name: &str, cat: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for (iter, e) in self.events.borrow().iter() {
            if e.name == name && e.cat == cat {
                *sums.entry(*iter).or_default() += e.dur_ns as f64 / 1e6;
            }
        }
        sums.into_values().collect()
    }

    /// Number of spans called `name` in category `cat`.
    pub fn count(&self, name: &str, cat: &str) -> usize {
        self.durations(name, cat).len()
    }

    /// Write every span as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events: Vec<TraceEvent> = self
            .events
            .borrow()
            .iter()
            .map(|(_, e)| e.clone())
            .collect();
        std::fs::write(path, grepair_obs::chrome_trace_json(&events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, cat: &'static str, ts_ns: u64, end_ns: u64) -> (u32, TraceEvent) {
        let e = TraceEvent {
            name,
            cat,
            ph: 'X',
            ts_ns,
            dur_ns: end_ns - ts_ns,
            tid: 1,
        };
        (1, e)
    }

    #[test]
    fn self_times_add_up_to_the_iterations() {
        let t = Tracer::on();
        t.events.borrow_mut().extend([
            span("iteration", ROOT, 0, 100_000),
            span("engine.repair", "core.engine", 10_000, 90_000),
            span("engine.repair", "engine", 10_100, 89_000),
            span("match.find_all", "match", 20_000, 50_000),
        ]);
        let (layers, root) = t.fold().unwrap();
        assert_eq!(root, 0.1);
        let total: f64 = layers.values().sum();
        assert!((total - root).abs() < 1e-9, "{layers:?}");
        assert!((layers["match"] - 0.03).abs() < 1e-9);
        assert!((layers[ROOT] - 0.02).abs() < 1e-9);
        assert!((layers["core.engine"] - 0.05).abs() < 1e-9);
    }

    #[test]
    fn stray_or_overlapping_spans_fail_the_fold() {
        let t = Tracer::on();
        t.events.borrow_mut().extend([
            span("iteration", ROOT, 0, 100),
            span("io.read", "graph.io", 200, 300),
        ]);
        assert!(t.fold().is_err());
        let t = Tracer::on();
        t.events.borrow_mut().extend([
            span("iteration", ROOT, 0, 100),
            span("io.read", "graph.io", 10, 60),
            span("io.parse", "graph.io", 50, 90),
        ]);
        assert!(t.fold().is_err());
    }
}
