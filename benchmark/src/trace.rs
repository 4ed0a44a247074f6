//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the product is
//! instrumented. A span carries its name, start, end, the span that
//! caused it and the id of the host op it belongs to. They are kept in
//! memory and written once, when the run ends.
//!
//! A layer's *self time* is its span's duration minus the part its
//! direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host op this span belongs to (all spans of one op share it).
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start a new host op; spans recorded from now on carry its id.
    pub fn begin_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span that may have children: `f` receives the
    /// tracer back to open them. With tracing off this is a plain call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Run `f` inside a childless span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// The whole recording as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        s.push_str(&format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": [\n",
            runtime::json_escape(workload)
        ));
        for (i, sp) in self.spans.iter().enumerate() {
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \"op\": {}}}{}\n",
                runtime::json_escape(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        s.push_str("]}\n");
        s
    }
}

/// Duration of each span minus the durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for sp in spans {
        if let Some(p) = sp.parent {
            own[p] = own[p].saturating_sub(sp.duration_ns());
        }
    }
    own
}

/// Per-round totals of calibrated self time and call counts by span
/// name — what the per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct SpanAgg {
    /// name → one `(cal-seconds, calls)` entry per traced round.
    rounds: BTreeMap<&'static str, Vec<(f64, u64)>>,
    n_rounds: usize,
    /// What one round costs through the user's entry points: Σ over op
    /// kinds of the kind's median cal-seconds in the untraced rounds of
    /// the same run. Set by the harness; a workload measures against it
    /// what its spans do not cover.
    pub untraced_round_s: f64,
}

impl SpanAgg {
    /// `op_round[op id]` is the traced round an op ran in (`None` for
    /// ops outside the traced rounds); `round_scale[round]` turns that
    /// round's wall seconds into cal-seconds.
    pub fn build(tracer: &Tracer, op_round: &[Option<usize>], round_scale: &[f64]) -> SpanAgg {
        let own = self_times_ns(tracer.spans());
        let mut rounds: BTreeMap<&'static str, Vec<(f64, u64)>> = BTreeMap::new();
        for (sp, own_ns) in tracer.spans().iter().zip(own) {
            let Some(Some(r)) = op_round.get(sp.op as usize) else {
                continue;
            };
            let slot = &mut rounds
                .entry(sp.name)
                .or_insert_with(|| vec![(0.0, 0); round_scale.len()])[*r];
            slot.0 += own_ns as f64 * 1e-9 * round_scale[*r];
            slot.1 += 1;
        }
        SpanAgg {
            rounds,
            n_rounds: round_scale.len(),
            untraced_round_s: 0.0,
        }
    }

    /// Median over rounds of the summed self time of `names`,
    /// cal-seconds per round.
    pub fn per_round_s(&self, names: &[&str]) -> f64 {
        let mut per_round = vec![0.0; self.n_rounds];
        for name in names {
            if let Some(v) = self.rounds.get(name) {
                for (acc, (s, _)) in per_round.iter_mut().zip(v) {
                    *acc += s;
                }
            }
        }
        crate::stats::median(&per_round)
    }

    /// Median over rounds of (summed self time ÷ calls), cal-seconds
    /// per call; 0 when the span never ran.
    pub fn per_call_s(&self, name: &str) -> f64 {
        let Some(v) = self.rounds.get(name) else {
            return 0.0;
        };
        let per_call: Vec<f64> = v
            .iter()
            .filter(|(_, calls)| *calls > 0)
            .map(|(s, calls)| s / *calls as f64)
            .collect();
        crate::stats::median(&per_call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("a.inner", 15, 25, Some(1), 1),
            span("b", 50, 90, Some(0), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.leaf("y", || 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_op_ids_are_recorded() {
        let mut t = Tracer::new(true);
        let op = t.begin_op();
        t.span("outer", |t| {
            t.leaf("inner", || std::hint::black_box(1 + 1));
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, op));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), op));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn aggregate_scales_by_round_and_divides_by_calls() {
        let mut t = Tracer::new(true);
        // Hand-built spans: two rounds, op 1 in round 0 and op 2 in round 1.
        t.spans = vec![
            span("k", 0, 1_000, None, 1),
            span("k", 1_000, 4_000, None, 1),
            span("k", 0, 2_000, None, 2),
            span("other", 0, 500, None, 3),
        ];
        let agg = SpanAgg::build(&t, &[None, Some(0), Some(1), None], &[1.0, 2.0]);
        // Round 0: 4000 ns over 2 calls; round 1: 2000 ns x2 over 1 call.
        assert!((agg.per_round_s(&["k"]) - 4.0e-6).abs() < 1e-15);
        assert!((agg.per_call_s("k") - 3.0e-6).abs() < 1e-15);
        assert_eq!(agg.per_call_s("other"), 0.0);
        assert_eq!(agg.per_call_s("missing"), 0.0);
    }

    #[test]
    fn trace_json_is_valid() {
        let mut t = Tracer::new(true);
        t.begin_op();
        t.span("a\"b", |t| t.leaf("c", || ()));
        let json = t.to_json("w", 3);
        runtime::json::validate(&json).unwrap();
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"parent\": 0"));
    }
}
