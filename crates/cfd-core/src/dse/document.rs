//! The document: how a ranked portfolio prints, as a text table and as
//! JSON. Both print the three frontiers from one table, [`FRONTIERS`].
//!
//! Ranked rows come in runs: rows that tie on (simulated time, fit)
//! follow each other in the (platform, clock, label) tie order, and
//! rows of one round share its figures. So an outcome row mostly prints
//! the previous row's text up to `"k"` (same platform and clock: 4 133
//! of the dense portfolio's 4 488 rows) and its `"total_s"` …
//! `"service_p99_s"` span (same four figures: 3 882 rows). The one row
//! definition keys those two segments — platform id and clock bits; the
//! four figures' bits, since `-0.0` and `0.0` compare equal but print
//! apart — and where the previous row's key is the same it appends that
//! row's segment again ([`json::Sink::repeat`]): a copy out of the
//! document on a `Line`, the segment's width on the `Width` that sizes
//! the reservation, which so stays the sum of the full rows' widths.
//! Nothing outlives the call. `portfolio_json_equals_the_format_reference`
//! holds the document to the `format!`-per-row emitter it replaced.

use std::fmt::{self, Write};
use std::ops::Range;

use runtime::json::{self, row_end, Line, Sink};

use super::DseOutcome;
use crate::cache::CacheCounters;

/// Allowance for a portfolio report's header: about 1 KB of literals
/// and up to 30 numbers.
const HEADER_BYTES: usize = 2_048;

/// One platform × clock × grid-point outcome of a portfolio sweep.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Catalog id of the platform (`zcu106`, `pynq-z2`, ...).
    pub platform: &'static str,
    /// Fabric clock the kernel was synthesized at (from the platform's
    /// achievable ladder).
    pub clock_mhz: f64,
    pub outcome: DseOutcome,
    /// Largest resource-utilization fraction across LUT/FF/DSP/BRAM —
    /// the "fit" axis of the Pareto frontier (0 when infeasible).
    pub utilization: f64,
    /// Whether this point sits on its platform's Pareto frontier of
    /// (simulated time, utilization). The portfolio frontier is the
    /// union over platforms — pick the node that fits the job.
    pub pareto: bool,
    /// Whether this point sits on its platform's **service** Pareto
    /// frontier — maximize requests/sec against minimizing p99 latency
    /// and utilization (the throughput objective: pick the node that
    /// serves the most traffic per resource).
    pub service_pareto: bool,
    /// Whether this point sits on the portfolio's **cost-efficiency**
    /// frontier, over the portfolio: (requests/s ↑, requests/s per kLUT ↑).
    pub cost_pareto: bool,
}

/// Per-platform feasibility summary of a portfolio sweep.
#[derive(Debug, Clone)]
pub struct PlatformSummary {
    pub platform: &'static str,
    pub board: String,
    /// Grid × clock combinations evaluated on this platform.
    pub evaluated: usize,
    pub feasible: usize,
    /// Points on the platform's time-vs-fit Pareto frontier.
    pub pareto_points: usize,
    /// Best simulated end-to-end time (`None` when nothing fits).
    pub best_total_s: Option<f64>,
}

/// Ranked results of a platform × clock × (k, m) portfolio sweep.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// The kernel names every row ran on, joined by `+`
    /// ([`DseEngine::label`](super::DseEngine::label)): each JSON row's
    /// `"kernel"`.
    pub label: String,
    /// Outcomes ranked feasible-first, then by simulated time.
    pub outcomes: Vec<PortfolioOutcome>,
    pub summaries: Vec<PlatformSummary>,
    pub evaluated: usize,
    pub feasible: usize,
    pub jobs: usize,
    pub elements: usize,
    pub wall_s: f64,
    /// Backend slots of the sweep, one per (kernel, clock, distinct
    /// backend key): what compiling each slot whole would cost. The
    /// engine builds fewer pieces than that (see the module doc's piece
    /// staging); the count is the slots, not the pieces.
    pub backend_compiles: usize,
    /// (Kernel, combination) evaluations beyond the first of each
    /// slot.
    pub backend_reuses: usize,
    /// Compile-cache counters (all zero for an uncached engine).
    pub cache: CacheCounters,
    /// Rows whose simulated time ran past the simulator's `u64` clock
    /// (their `total_s` is infinite). Not printed: `cfdc explore`
    /// refuses to print a report with any.
    pub ticks_overflows: usize,
}

impl PortfolioReport {
    /// The portfolio Pareto frontier: every platform's non-dominated
    /// (time, fit) points, best time first.
    pub fn pareto_frontier(&self) -> Vec<&PortfolioOutcome> {
        self.frontier(Frontier::Pareto).collect()
    }

    /// The rows of frontier `frontier`, in ranking order.
    fn frontier(&self, frontier: Frontier) -> impl Iterator<Item = &PortfolioOutcome> {
        self.outcomes.iter().filter(move |o| match frontier {
            Frontier::Pareto => o.pareto,
            Frontier::Service => o.service_pareto,
            Frontier::Cost => o.cost_pareto,
        })
    }

    /// Render as an aligned text table (Pareto rows marked `*`)
    /// followed by the frontier sections, each row's point and the
    /// frontier's own figures.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let platforms = self.summaries.len();
        s.push_str(&format!(
            "portfolio: {platforms} platform{}, {} combinations ({} feasible), {} jobs, {:.3} s, \
             {} backends compiled ({} reused)\n",
            if platforms == 1 { "" } else { "s" },
            self.evaluated,
            self.feasible,
            self.jobs,
            self.wall_s,
            self.backend_compiles,
            self.backend_reuses,
        ));
        for sum in &self.summaries {
            s.push_str(&format!(
                "  {:<10} {:<22} {:>3}/{:<3} feasible, {} pareto{}\n",
                sum.platform,
                sum.board,
                sum.feasible,
                sum.evaluated,
                sum.pareto_points,
                match sum.best_total_s {
                    Some(t) => format!(", best {t:.4} s"),
                    None => ", nothing fits".to_string(),
                }
            ));
        }
        s.push_str(
            "    platform     MHz   k    m  share  decouple  part      LUT   BRAM   util%     el/s    req/s  pareto\n",
        );
        for o in &self.outcomes {
            let p = &o.outcome.point;
            s.push_str(&format!(
                "  {} {:<10}  {:>4.0}  {:>2}  {:>3}  {:>5}  {:>8}  {:>4}  {:>7}  {:>5}  {:>6.1}  {:>7.0}  {:>7.0}  {}\n",
                if o.pareto { "*" } else { " " },
                o.platform,
                o.clock_mhz,
                p.k,
                p.m,
                p.sharing,
                p.decoupled,
                p.partition,
                o.outcome.luts,
                o.outcome.brams,
                o.utilization * 100.0,
                o.outcome.throughput_eps,
                o.outcome.service_rps,
                if o.outcome.feasible {
                    match (o.pareto, o.service_pareto) {
                        (true, true) => "pareto+serve",
                        (true, false) => "pareto",
                        (false, true) => "serve",
                        (false, false) => "yes",
                    }
                } else {
                    "no"
                },
            ));
        }
        for (frontier, _, title) in FRONTIERS {
            let n = self.frontier(frontier).count();
            s.push_str(&format!("{title} frontier ({n} points):\n"));
            for o in self.frontier(frontier) {
                let (r, p, fit) = (&o.outcome, &o.outcome.point, o.utilization * 100.0);
                let (t, eps, p99, luts) = (r.total_s, r.throughput_eps, r.service_p99_s, r.luts);
                let (rps, per_k) = (r.service_rps, o.rps_per_kluts());
                let figures = match frontier {
                    Frontier::Pareto => format!("{t:.4} s ({eps:.0} el/s) at {fit:.1}% fit"),
                    Frontier::Service => format!("{rps:.0} req/s at p99 {p99:.4} s, {fit:.1}% fit"),
                    Frontier::Cost => {
                        format!("{rps:.0} req/s, {per_k:.1} req/s per kLUT ({luts} LUTs)")
                    }
                };
                s.push_str(&format!(
                    "  {} @ {:.0} MHz: k={} m={} -> {figures}\n",
                    o.platform, o.clock_mhz, p.k, p.m
                ));
            }
        }
        s
    }

    /// Serialize as JSON through the `runtime::json` writer, into one
    /// buffer reserved up front: every row's own bound plus the header
    /// allowance.
    pub fn to_json(&self) -> String {
        let platforms = (self.summaries.iter()).map(|p| json::width(|w| p.json_row(w, "},\n")));
        let frontiers = FRONTIERS.iter().flat_map(|&(frontier, ..)| {
            (self.frontier(frontier))
                .map(move |o| json::width(|w| o.frontier_row(w, frontier, "},\n")))
        });
        let rows = json::width(|w| {
            let mut last = LastRow::default();
            for o in &self.outcomes {
                o.portfolio_row(&self.label, w, "},\n", &mut last);
            }
        });
        let bytes = platforms.sum::<usize>() + frontiers.sum::<usize>() + rows;
        let mut out = String::with_capacity(HEADER_BYTES + bytes);
        // Invariant: `fmt::Write` for a `String` never returns an error.
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Append the document, trailing newline included, to `out`. The
    /// row loops do not allocate.
    fn write_json(&self, out: &mut String) -> fmt::Result {
        write!(
            out,
            "{{\n  \"evaluated\": {},\n  \"feasible\": {},\n  \"jobs\": {},\n  \"elements\": {},\n  \
             \"wall_s\": {:.6},\n  \"backend_cache\": {{\"compiles\": {}, \"reuses\": {}}},\n",
            self.evaluated,
            self.feasible,
            self.jobs,
            self.elements,
            self.wall_s,
            self.backend_compiles,
            self.backend_reuses
        )?;
        writeln!(out, "  \"compile_cache\": {},", self.cache)?;
        out.push_str("  \"platforms\": [\n");
        let mut line = Line::new(out);
        for (i, p) in self.summaries.iter().enumerate() {
            p.json_row(&mut line, row_end(i, self.summaries.len()));
            line.flush();
        }
        for (frontier, name, _) in FRONTIERS {
            write!(out, "  ],\n  \"{name}\": [\n")?;
            let mut line = Line::new(out);
            let mut rows = self.frontier(frontier).peekable();
            while let Some(o) = rows.next() {
                let end = if rows.peek().is_some() { "},\n" } else { "}\n" };
                o.frontier_row(&mut line, frontier, end);
                line.flush();
            }
        }
        out.push_str("  ],\n  \"outcomes\": [\n");
        let (mut line, mut last) = (Line::new(out), LastRow::default());
        for (i, o) in self.outcomes.iter().enumerate() {
            let end = row_end(i, self.outcomes.len());
            o.portfolio_row(&self.label, &mut line, end, &mut last);
            line.flush();
        }
        out.push_str("  ]\n}\n");
        Ok(())
    }
}

/// A portfolio frontier, which picks a frontier row's own three fields.
#[derive(Clone, Copy)]
enum Frontier {
    /// Per platform over (time ↓, fit ↓): pick the node that fits the job.
    Pareto,
    /// Per platform over (requests/s ↑, p99 ↓, fit ↓): place traffic.
    Service,
    /// Over the portfolio, (requests/s ↑, requests/s per kLUT ↑): which
    /// boards earn their silicon when a fleet shards one stream.
    Cost,
}

/// The frontier sections of a portfolio document, in order: each
/// frontier, its JSON key and its table title.
const FRONTIERS: [(Frontier, &str, &str); 3] = [
    (Frontier::Pareto, "pareto_frontier", "pareto"),
    (Frontier::Service, "service_frontier", "service"),
    (Frontier::Cost, "cost_frontier", "cost-efficiency"),
];

/// The keyed segments of the outcome row a sink wrote last
/// ([`PortfolioOutcome::portfolio_row`]): the text up to `"k"`, keyed by
/// platform id and clock bits, and the `"total_s"` … `"service_p99_s"`
/// span, keyed by its four figures' bits. Its marks belong to the one
/// sink that wrote the row, so each pass over the rows starts a fresh
/// one.
#[derive(Default)]
struct LastRow {
    prefix: Segment<(&'static str, u64)>,
    span: Segment<[u64; 4]>,
}

/// A segment's key and the sink's marks around it, once written.
#[derive(Default)]
struct Segment<K>(Option<(K, Range<usize>)>);

impl<K: PartialEq> Segment<K> {
    /// Repeat the segment when it was written for `key`, or make it with
    /// `write` and remember where it went.
    #[inline(always)]
    fn write<S: Sink>(&mut self, s: &mut S, key: K, write: impl FnOnce(&mut S)) {
        if let Some((last, at)) = &self.0 {
            if *last == key && s.repeat(at.clone()) {
                return;
            }
        }
        let start = s.mark();
        write(s);
        self.0 = Some((key, start..s.mark()));
    }
}

impl PlatformSummary {
    /// The `platforms` row, closed by `end`.
    fn json_row<S: Sink>(&self, s: &mut S, end: &str) {
        s.lit("    {\"platform\": \"");
        s.str(self.platform);
        s.lit("\", \"board\": \"");
        s.str(&self.board);
        s.lit("\", \"evaluated\": ");
        s.int(self.evaluated as u64);
        s.lit(", \"feasible\": ");
        s.int(self.feasible as u64);
        s.lit(", \"pareto_points\": ");
        s.int(self.pareto_points as u64);
        s.lit(", \"best_total_s\": ");
        match self.best_total_s {
            Some(t) => s.fixed(t, 6),
            None => s.lit("null"),
        }
        s.lit(end);
    }
}

impl PortfolioOutcome {
    /// Requests per second per thousand design LUTs.
    pub(super) fn rps_per_kluts(&self) -> f64 {
        self.outcome.service_rps / (self.outcome.luts as f64 / 1000.0)
    }

    /// An outcome row: the platform, clock and the report's `label`,
    /// the [`DseOutcome`] fields, the fit and the frontier flags, closed
    /// by `end`. The text up to `"k"` and the `"total_s"` …
    /// `"service_p99_s"` span are keyed segments: where `last` (the
    /// previous row's, on the same sink) has the same key, the row
    /// repeats that segment instead of writing it.
    #[inline]
    fn portfolio_row<S: Sink>(&self, label: &str, s: &mut S, end: &str, last: &mut LastRow) {
        let (o, p) = (&self.outcome, &self.outcome.point);
        let place = (self.platform, self.clock_mhz.to_bits());
        last.prefix.write(s, place, |s| {
            s.lit("    {\"platform\": \"");
            s.str(self.platform);
            s.lit("\", \"clock_mhz\": ");
            s.fixed(self.clock_mhz, 1);
            s.lit(", \"kernel\": \"");
            s.str(label);
            s.lit("\", \"k\": ");
        });
        s.int(p.k as u64);
        s.lit(", \"m\": ");
        s.int(p.m as u64);
        s.lit(", \"sharing\": ");
        s.flag(p.sharing);
        s.lit(", \"decoupled\": ");
        s.flag(p.decoupled);
        s.lit(", \"partition\": ");
        s.int(p.partition.into());
        s.lit(", \"feasible\": ");
        s.flag(o.feasible);
        s.lit(", \"luts\": ");
        s.int(o.luts as u64);
        s.lit(", \"ffs\": ");
        s.int(o.ffs as u64);
        s.lit(", \"dsps\": ");
        s.int(o.dsps as u64);
        s.lit(", \"brams\": ");
        s.int(o.brams as u64);
        s.lit(", \"plm_brams\": ");
        s.int(o.plm_brams as u64);
        s.lit(", \"latency_cycles\": ");
        s.int(o.latency_cycles);
        let figures = [o.total_s, o.throughput_eps, o.service_rps, o.service_p99_s];
        last.span.write(s, figures.map(f64::to_bits), |s| {
            s.lit(", \"total_s\": ");
            s.fixed(o.total_s, 6);
            s.lit(", \"throughput_eps\": ");
            s.fixed(o.throughput_eps, 3);
            s.lit(", \"service_rps\": ");
            s.fixed(o.service_rps, 3);
            s.lit(", \"service_p99_s\": ");
            s.fixed(o.service_p99_s, 6);
        });
        s.lit(", \"utilization\": ");
        s.fixed(self.utilization, 4);
        s.lit(", \"pareto\": ");
        s.flag(self.pareto);
        s.lit(", \"service_pareto\": ");
        s.flag(self.service_pareto);
        s.lit(end);
    }

    /// A frontier row: the point's label, `k`, `m` and the frontier's
    /// own three fields, closed by `end`.
    fn frontier_row<S: Sink>(&self, s: &mut S, frontier: Frontier, end: &str) {
        let o = &self.outcome;
        s.lit("    {\"platform\": \"");
        s.str(self.platform);
        s.lit("\", \"clock_mhz\": ");
        s.fixed(self.clock_mhz, 1);
        s.lit(", \"k\": ");
        s.int(o.point.k as u64);
        s.lit(", \"m\": ");
        s.int(o.point.m as u64);
        match frontier {
            Frontier::Pareto => {
                s.lit(", \"total_s\": ");
                s.fixed(o.total_s, 6);
                s.lit(", \"throughput_eps\": ");
                s.fixed(o.throughput_eps, 3);
                s.lit(", \"utilization\": ");
                s.fixed(self.utilization, 4);
            }
            Frontier::Service => {
                s.lit(", \"service_rps\": ");
                s.fixed(o.service_rps, 3);
                s.lit(", \"service_p99_s\": ");
                s.fixed(o.service_p99_s, 6);
                s.lit(", \"utilization\": ");
                s.fixed(self.utilization, 4);
            }
            Frontier::Cost => {
                s.lit(", \"luts\": ");
                s.int(o.luts as u64);
                s.lit(", \"service_rps\": ");
                s.fixed(o.service_rps, 3);
                s.lit(", \"rps_per_kluts\": ");
                s.fixed(self.rps_per_kluts(), 4);
            }
        }
        s.lit(end);
    }
}

#[cfg(test)]
mod tests {
    use sysgen::Platform;

    use super::*;
    use crate::dse::engine::{Layout, UNPROBED};
    use crate::dse::fixtures::{
        dense_grid, drawn_portfolio, generated_outcome, large_grid, repeating_grid,
    };
    use crate::dse::ranking::rank_portfolio;
    use crate::dse::{DseEngine, DseGrid};
    use crate::program::ProgramOptions;

    impl PortfolioReport {
        /// The emitter `to_json` replaced, verbatim: one `format!` per row.
        fn to_json_reference(&self) -> String {
            let mut s = String::new();
            s.push_str("{\n");
            s.push_str(&format!("  \"evaluated\": {},\n", self.evaluated));
            s.push_str(&format!("  \"feasible\": {},\n", self.feasible));
            s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
            s.push_str(&format!("  \"elements\": {},\n", self.elements));
            s.push_str(&format!("  \"wall_s\": {:.6},\n", self.wall_s));
            s.push_str(&format!(
                "  \"backend_cache\": {{\"compiles\": {}, \"reuses\": {}}},\n",
                self.backend_compiles, self.backend_reuses
            ));
            s.push_str(&format!(
                "  \"compile_cache\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"stores\": {}, \"invalidations\": {}}},\n",
                self.cache.hits,
                self.cache.disk_hits,
                self.cache.misses,
                self.cache.stores,
                self.cache.invalidations
            ));
            s.push_str("  \"platforms\": [\n");
            for (i, p) in self.summaries.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"board\": \"{}\", \"evaluated\": {}, \
                     \"feasible\": {}, \"pareto_points\": {}, \"best_total_s\": {}}}{}\n",
                    runtime::json_escape(p.platform),
                    runtime::json_escape(&p.board),
                    p.evaluated,
                    p.feasible,
                    p.pareto_points,
                    match p.best_total_s {
                        Some(t) => format!("{t:.6}"),
                        None => "null".to_string(),
                    },
                    if i + 1 == self.summaries.len() {
                        ""
                    } else {
                        ","
                    },
                ));
            }
            s.push_str("  ],\n");
            let frontier = self.pareto_frontier();
            s.push_str("  \"pareto_frontier\": [\n");
            for (i, o) in frontier.iter().enumerate() {
                let p = &o.outcome.point;
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"clock_mhz\": {:.1}, \"k\": {}, \"m\": {}, \
                     \"total_s\": {:.6}, \"throughput_eps\": {:.3}, \"utilization\": {:.4}}}{}\n",
                    runtime::json_escape(o.platform),
                    o.clock_mhz,
                    p.k,
                    p.m,
                    o.outcome.total_s,
                    o.outcome.throughput_eps,
                    o.utilization,
                    if i + 1 == frontier.len() { "" } else { "," },
                ));
            }
            s.push_str("  ],\n");
            let service: Vec<_> = self.frontier(Frontier::Service).collect();
            s.push_str("  \"service_frontier\": [\n");
            for (i, o) in service.iter().enumerate() {
                let p = &o.outcome.point;
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"clock_mhz\": {:.1}, \"k\": {}, \"m\": {}, \
                     \"service_rps\": {:.3}, \"service_p99_s\": {:.6}, \"utilization\": {:.4}}}{}\n",
                    runtime::json_escape(o.platform),
                    o.clock_mhz,
                    p.k,
                    p.m,
                    o.outcome.service_rps,
                    o.outcome.service_p99_s,
                    o.utilization,
                    if i + 1 == service.len() { "" } else { "," },
                ));
            }
            s.push_str("  ],\n");
            let cost: Vec<_> = self.frontier(Frontier::Cost).collect();
            s.push_str("  \"cost_frontier\": [\n");
            for (i, o) in cost.iter().enumerate() {
                let p = &o.outcome.point;
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"clock_mhz\": {:.1}, \"k\": {}, \"m\": {}, \
                     \"luts\": {}, \"service_rps\": {:.3}, \"rps_per_kluts\": {:.4}}}{}\n",
                    runtime::json_escape(o.platform),
                    o.clock_mhz,
                    p.k,
                    p.m,
                    o.outcome.luts,
                    o.outcome.service_rps,
                    o.rps_per_kluts(),
                    if i + 1 == cost.len() { "" } else { "," },
                ));
            }
            s.push_str("  ],\n");
            s.push_str("  \"outcomes\": [\n");
            for (i, o) in self.outcomes.iter().enumerate() {
                let p = &o.outcome.point;
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"clock_mhz\": {:.1}, \"kernel\": \"{}\", \"k\": {}, \"m\": {}, \
                     \"sharing\": {}, \"decoupled\": {}, \"partition\": {}, \"feasible\": {}, \
                     \"luts\": {}, \"ffs\": {}, \"dsps\": {}, \"brams\": {}, \"plm_brams\": {}, \
                     \"latency_cycles\": {}, \"total_s\": {:.6}, \"throughput_eps\": {:.3}, \
                     \"service_rps\": {:.3}, \"service_p99_s\": {:.6}, \
                     \"utilization\": {:.4}, \"pareto\": {}, \"service_pareto\": {}}}{}\n",
                    runtime::json_escape(o.platform),
                    o.clock_mhz,
                    runtime::json_escape(&self.label),
                    p.k,
                    p.m,
                    p.sharing,
                    p.decoupled,
                    p.partition,
                    o.outcome.feasible,
                    o.outcome.luts,
                    o.outcome.ffs,
                    o.outcome.dsps,
                    o.outcome.brams,
                    o.outcome.plm_brams,
                    o.outcome.latency_cycles,
                    o.outcome.total_s,
                    o.outcome.throughput_eps,
                    o.outcome.service_rps,
                    o.outcome.service_p99_s,
                    o.utilization,
                    o.pareto,
                    o.service_pareto,
                    if i + 1 == self.outcomes.len() { "" } else { "," },
                ));
            }
            s.push_str("  ]\n}\n");
            s
        }
    }

    /// Labels of generated reports: one a builtin's, one a program's,
    /// one hostile.
    const LABELS: [&str; 3] = ["main", "inverse_helmholtz+axpy", "k\"\\\n\u{3}é"];

    /// A portfolio of about `points` generated outcomes on three
    /// platforms (one hostile name, one where nothing fits): the first
    /// `points.div_ceil(2)` generated points in one block on each of the
    /// other two, every row probed on its own, flagged and ranked by
    /// `rank_portfolio`.
    fn generated_portfolio(label: &str, points: usize) -> PortfolioReport {
        let mut platforms = vec![Platform::zcu106(), Platform::zcu106(), Platform::zcu106()];
        platforms[1].id = "pynq\"z2\\";
        platforms[2].id = "empty";
        let layout = Layout {
            blocks: vec![(0, 100.0), (1, 142.5)],
            points: (0..points.div_ceil(2))
                .map(|i| generated_outcome(i).point)
                .collect(),
        };
        let per_block = layout.points.len();
        let outcomes: Vec<PortfolioOutcome> = (0..2 * per_block)
            .map(|i| {
                let (block, q) = (i / per_block, i % per_block);
                let outcome = DseOutcome {
                    point: layout.points[q],
                    ..generated_outcome(i)
                };
                PortfolioOutcome {
                    platform: platforms[block].id,
                    clock_mhz: layout.blocks[block].1,
                    // Every fourth an odd multiple of 2^-5: a dyadic tie
                    // at the four digits `utilization` prints.
                    utilization: match (outcome.feasible, i % 4) {
                        (false, _) => 0.0,
                        (true, 3) => (i % 32) as f64 / 32.0,
                        (true, _) => (i % 1_000) as f64 / 999.0,
                    },
                    outcome,
                    pareto: false,
                    service_pareto: false,
                    cost_pareto: false,
                }
            })
            .collect();
        let probe_of: Vec<u32> = (outcomes.iter().enumerate())
            .map(|(i, o)| {
                if o.outcome.feasible {
                    i as u32
                } else {
                    UNPROBED
                }
            })
            .collect();
        report_of(label, &platforms, outcomes, &layout, &probe_of)
    }

    /// The report of `rows` (laid out by `layout`, probed as `probe_of`
    /// says), ranked by `rank_portfolio`.
    fn report_of(
        label: &str,
        platforms: &[Platform],
        mut outcomes: Vec<PortfolioOutcome>,
        layout: &Layout,
        probe_of: &[u32],
    ) -> PortfolioReport {
        let summaries = rank_portfolio(platforms, &mut outcomes, layout, probe_of);
        PortfolioReport {
            label: label.into(),
            evaluated: outcomes.len(),
            feasible: summaries.iter().map(|s| s.feasible).sum(),
            jobs: 2,
            elements: 10_000,
            wall_s: 0.123_456_5,
            backend_compiles: 8,
            backend_reuses: outcomes.len().saturating_sub(8),
            cache: CacheCounters {
                hits: 3,
                stores: outcomes.len(),
                ..CacheCounters::default()
            },
            ticks_overflows: 0,
            summaries,
            outcomes,
        }
    }

    /// A buffer that outgrew its reservation would have doubled; one
    /// that did not is within the header allowance and the rows' slack
    /// (a `true`, a carried digit) of the document.
    fn never_grew(json: &String, points: usize) -> bool {
        json.capacity() - json.len() <= HEADER_BYTES + 8 * points
    }

    #[test]
    fn streaming_writers_reproduce_the_reference_emitters() {
        for (label, points) in LABELS
            .iter()
            .flat_map(|l| [0, 1, 2, 7, 100].map(|n| (l, n)))
        {
            let portfolio = generated_portfolio(label, points);
            assert_eq!(portfolio.summaries[2].best_total_s, None);
            let json = portfolio.to_json();
            assert_eq!(
                json,
                portfolio.to_json_reference(),
                "{label} {points} points"
            );
            runtime::json::validate(&json).unwrap();
            assert!(never_grew(&json, portfolio.evaluated));
        }
    }

    /// The reservation is at most 5 % above the document, and it is the
    /// header allowance plus every row's own full width.
    #[test]
    fn json_capacity_is_a_tight_upper_bound_on_a_4488_point_portfolio() {
        let portfolio = generated_portfolio(LABELS[2], 4_488);
        assert!(
            portfolio.pareto_frontier().len() > 1 && portfolio.frontier(Frontier::Cost).count() > 1
        );
        let json = portfolio.to_json();
        assert!(never_grew(&json, 4_488));
        assert!(json.capacity() as f64 <= 1.05 * json.len() as f64);
        assert_eq!(json.capacity(), full_row_reservation(&portfolio));
    }

    /// What `to_json` reserves, summed row by row with nothing repeated:
    /// the header allowance plus the [`json::width`] of every platform,
    /// frontier and outcome row on its own.
    fn full_row_reservation(report: &PortfolioReport) -> usize {
        let platforms = (report.summaries.iter()).map(|p| json::width(|w| p.json_row(w, "},\n")));
        let frontiers = FRONTIERS.iter().flat_map(|&(frontier, ..)| {
            (report.frontier(frontier))
                .map(move |o| json::width(|w| o.frontier_row(w, frontier, "},\n")))
        });
        let rows = report.outcomes.iter().map(|o| {
            json::width(|w| o.portfolio_row(&report.label, w, "},\n", &mut LastRow::default()))
        });
        HEADER_BYTES + platforms.sum::<usize>() + frontiers.sum::<usize>() + rows.sum::<usize>()
    }

    /// `to_json` of `report` is the `format!`-per-row reference, in the
    /// full-row reservation; returns it.
    fn assert_json_as_defined(report: &PortfolioReport, at: &str) -> String {
        let json = report.to_json();
        assert!(json == report.to_json_reference(), "{at}");
        assert_eq!(json.capacity(), full_row_reservation(report), "{at}");
        json
    }

    /// A drawn portfolio ([`drawn_portfolio`]) whose ranked rows repeat
    /// each other's text in runs, with the cases a repeat could miss: the
    /// clocks 200 and 100 MHz become `-0.0` and `0.0`, which compare
    /// equal but print apart, and every seventh row's throughput differs
    /// from the others', so that spans equal but for one figure meet.
    fn json_portfolio(seed: u64, grid: &DseGrid, groups: usize, label: &str) -> PortfolioReport {
        let (platforms, mut rows, mut layout, probe_of) =
            drawn_portfolio(seed, grid, groups, seed % 3 == 2);
        let signed = |clock: f64| match clock {
            200.0 => -0.0,
            100.0 => 0.0,
            clock => clock,
        };
        for block in &mut layout.blocks {
            block.1 = signed(block.1);
        }
        for (i, o) in rows.iter_mut().enumerate() {
            o.clock_mhz = signed(o.clock_mhz);
            o.outcome.throughput_eps = if i % 7 == 0 { 2.5 } else { 4_000.0 };
        }
        report_of(label, &platforms, rows, &layout, &probe_of)
    }

    /// Adjacent ranked rows whose keyed segments are (equal, equal but
    /// for `-0.0` against `0.0` or one figure): how often a repeat is
    /// taken, and how often a wrong key would take one.
    fn runs(report: &PortfolioReport) -> [usize; 4] {
        let span = |o: &PortfolioOutcome| {
            let o = &o.outcome;
            [o.total_s, o.throughput_eps, o.service_rps, o.service_p99_s].map(f64::to_bits)
        };
        let mut counts = [0; 4];
        for pair in report.outcomes.windows(2) {
            let [a, b] = [&pair[0], &pair[1]];
            let same_place = a.platform == b.platform;
            counts[0] += usize::from(same_place && a.clock_mhz.to_bits() == b.clock_mhz.to_bits());
            counts[1] += usize::from(
                same_place
                    && a.clock_mhz.to_bits() != b.clock_mhz.to_bits()
                    && a.clock_mhz == b.clock_mhz,
            );
            let (a, b) = (span(a), span(b));
            counts[2] += usize::from(a == b);
            counts[3] += usize::from((0..4).filter(|&i| a[i] != b[i]).count() == 1);
        }
        counts
    }

    /// Labels of the writer's edge cases: the generated ones, a clean
    /// one longer than the row buffer and a long one that needs escaping.
    fn json_labels() -> Vec<String> {
        let long = "k".repeat(json::ROW + 1);
        let mut labels: Vec<String> = LABELS.iter().map(|l| l.to_string()).collect();
        labels.extend([long.clone(), format!("{long}\"{long}")]);
        labels
    }

    /// `to_json`, which repeats a row's prefix and service span where
    /// the previous row printed the same, is the `format!`-per-row
    /// reference: on drawn portfolios with long runs (one probe group)
    /// to short ones, NaNs, `±0.0`, `∞` and unprobed rows, under every
    /// edge-case label, and on helmholtz:11's dense and simstep:7's
    /// default catalog sweeps at 1 and 4 jobs.
    #[test]
    fn portfolio_json_equals_the_format_reference() {
        let mut counts = [0; 4];
        for (i, label) in json_labels().iter().enumerate() {
            for seed in 0..12 {
                let groups = [1, 2, 3, 8, 40][seed as usize % 5];
                let report =
                    json_portfolio(seed + 100 * i as u64, &repeating_grid(), groups, label);
                let at = format!("label {i}, seed {seed}");
                assert_json_as_defined(&report, &at);
                for (count, n) in counts.iter_mut().zip(runs(&report)) {
                    *count += n;
                }
            }
        }
        assert!(counts.iter().all(|&n| n > 1_000), "{counts:?}");
        let catalog = Platform::catalog();
        let sources = [
            (cfdlang::examples::inverse_helmholtz(11), dense_grid()),
            (cfdlang::examples::simulation_step(7), DseGrid::default()),
        ];
        for (src, grid) in sources {
            let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
            for jobs in [1, 4] {
                let report = engine.run_portfolio(&catalog, &grid, jobs, 2_000);
                let json =
                    assert_json_as_defined(&report, &format!("{} jobs={jobs}", report.label));
                runtime::json::validate(&json).unwrap();
            }
        }
    }

    /// [`portfolio_json_equals_the_format_reference`] on drawn portfolios
    /// of about 20 000 rows (CI runs it in release).
    #[test]
    #[ignore = "about 20 000 rows per portfolio; run with --release --include-ignored"]
    fn portfolio_json_equals_the_reference_on_large_portfolios() {
        let grid = large_grid();
        for (seed, groups) in [(1, 4), (2, 50), (3, 359)] {
            let report = json_portfolio(seed, &grid, groups, LABELS[1]);
            assert_eq!(report.evaluated, 19_968);
            assert_json_as_defined(&report, &format!("seed {seed}"));
        }
    }

    /// A one-board sweep's table says "1 platform"; a catalog's counts
    /// its platforms.
    #[test]
    fn a_one_board_table_names_one_platform() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
        let board = Platform {
            clock_ladder_mhz: vec![200.0],
            ..Platform::zcu106()
        };
        let header = |platforms: &[Platform]| {
            let report = engine.run_portfolio(platforms, &repeating_grid(), 1, 1_000);
            let table = report.render_table();
            table.lines().next().unwrap().to_string()
        };
        assert!(header(&[board]).starts_with("portfolio: 1 platform, 32 combinations ("));
        let catalog = Platform::catalog();
        let many = format!("portfolio: {} platforms, ", catalog.len());
        assert!(header(&catalog).starts_with(&many));
    }
}
