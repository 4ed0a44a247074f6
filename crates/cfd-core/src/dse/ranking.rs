//! Ranking: the order of a portfolio's rows and its three frontiers.
//!
//! A portfolio is ranked by one sort of compact integer keys, over the
//! rows that fit only: (simulated time, fit) as `total_cmp`-ordered
//! bits, then the row's place in the tie order — platform id, clock,
//! label, row index. The sweep lays its rows out in blocks of one
//! (platform, clock) by grid point, so that order comes from sorting
//! the blocks and the points once each, never the rows; the rows that
//! do not fit all score 0 and follow in it unsorted. The rows then move
//! once, along the permutation's cycles. Each platform's latency
//! frontier is read off the ranked order in one pass. The service and
//! cost frontiers are swept over candidates, not rows: rows that share
//! a probe key share (requests/s, p99), so of them only the least-fit
//! one (per platform) can be on the service frontier and only the one
//! with the most requests/s per kLUT — the fewest LUTs, since a row's
//! requests/s per kLUT only falls as its LUTs grow — on the cost
//! frontier; the dense portfolio has at most 360 such groups for its
//! 3 206 rows that fit.
//! `rank_portfolio_equals_the_sorted_quadratic_definition` holds the
//! order, the three frontiers and the summaries to a stable sort by the
//! full comparator and the quadratic Pareto definition.

use std::cmp::Ordering;

use sysgen::Platform;

use super::engine::{Layout, UNPROBED};
use super::{DsePoint, PlatformSummary, PortfolioOutcome};

/// Pareto flags over `N` minimized objectives (callers negate the
/// maximized ones) for the feasible subset; infeasible entries are
/// never on the frontier, and of several points with *identical*
/// objectives only the first stays (ties would otherwise all survive
/// and clutter the frontier).
///
/// Sort-and-sweep: whatever dominates a point — better somewhere and
/// nowhere worse, or identical and earlier — sorts before it
/// lexicographically, the entry index breaking ties among identical
/// points, and whatever is dominated is dominated by a frontier point.
/// So walk the points in that order and keep each one that no frontier
/// point found so far is `<=` in every objective. The sort moves
/// (objectives, index) pairs, so it never looks an entry up.
/// `pareto_flags_reference` in the tests is the quadratic definition.
fn pareto_flags<const N: usize>(
    objectives: impl ExactSizeIterator<Item = Option<[f64; N]>>,
) -> Vec<bool> {
    let mut flags = vec![false; objectives.len()];
    let mut points = Vec::with_capacity(objectives.len());
    for (i, o) in objectives.enumerate() {
        // `+ 0.0` folds -0.0 into 0.0, which `<=` already treats as equal.
        points.extend(o.map(|p| (p.map(|x| x + 0.0), i)));
    }
    points.sort_unstable_by(|(a, i), (b, j)| {
        let mut by_axis = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
        (by_axis.find(|o| o.is_ne()))
            .unwrap_or(Ordering::Equal)
            .then(i.cmp(j))
    });
    let mut frontier: Vec<[f64; N]> = Vec::new();
    for (p, i) in points {
        if !frontier
            .iter()
            .any(|f| f.iter().zip(&p).all(|(f, p)| f <= p))
        {
            flags[i] = true;
            frontier.push(p);
        }
    }
    flags
}

/// `best`-table entry of a group with no row yet.
const NONE: u32 = u32::MAX;

/// Rank a portfolio's rows and flag its three frontiers, in place;
/// return each platform's summary. The rows come as `layout` lays them
/// out, `probe_of` numbering their service probes.
///
/// The rows end in [`rank_order`]. A platform's rows come by time, so
/// a row is on its latency frontier when it is the least-fit row of its
/// time — the first of equals in row order — and fits better than every
/// row of an earlier time. [`pareto_flags`] sweeps the service and cost
/// candidates; a NaN, which neither dominates nor is dominated, makes
/// its row a candidate of its own. The flags equal [`pareto_flags`] over
/// every row of a platform (latency and service; of identical rows the
/// first in row order stays) and over all ranked rows (cost; the first
/// in rank stays).
pub(super) fn rank_portfolio(
    platforms: &[Platform],
    rows: &mut [PortfolioOutcome],
    layout: &Layout,
    probe_of: &[u32],
) -> Vec<PlatformSummary> {
    let points = layout.points.len();
    let platform_of = |row: usize| layout.blocks[row / points].0;
    // Probe groups: one per probe, and one more for the rows that fit
    // unprobed (all at 0 requests/s and p99).
    let probed = probe_of.iter().filter(|&&j| j != UNPROBED).max();
    let unprobed = probed.map_or(0, |&j| j as usize + 1);
    let group = |row: usize| match probe_of[row] {
        UNPROBED => unprobed,
        j => j as usize,
    };
    flag_service(rows, layout, platforms.len(), group, unprobed + 1);
    let order = rank_order(rows, tie_order(platforms, layout));

    let mut summaries: Vec<PlatformSummary> = (platforms.iter())
        .map(|p| PlatformSummary {
            platform: p.id,
            board: p.board.name.clone(),
            evaluated: 0,
            feasible: 0,
            pareto_points: 0,
            best_total_s: None,
        })
        .collect();
    for &(p, _) in &layout.blocks {
        summaries[p].evaluated += points;
    }
    // Per platform: the least fit of its earlier times (NaN before the
    // first) and its open time's (time, least fit, that row).
    let mut reached = vec![f64::NAN; platforms.len()];
    let mut open: Vec<Option<(f64, f64, usize)>> = vec![None; platforms.len()];
    // Per probe group: the ranked position of the best-per-kLUT row and
    // its figure.
    let mut cost_best: Vec<(u32, f64)> = vec![(NONE, 0.0); unprobed + 1];
    let mut cost_candidates: Vec<u32> = Vec::new();
    for (at, &row) in order.iter().enumerate() {
        let row = row as usize;
        let o = &rows[row];
        if !o.outcome.feasible {
            break; // the rest do not fit either
        }
        let (p, g) = (platform_of(row), group(row));
        let (time, fit) = (o.outcome.total_s, o.utilization);
        let (luts, rps, per_kluts) = (o.outcome.luts, o.outcome.service_rps, o.rps_per_kluts());
        let summary = &mut summaries[p];
        summary.feasible += 1;
        summary.best_total_s.get_or_insert(time);
        if time.is_nan() || fit.is_nan() {
            rows[row].pareto = true;
            summary.pareto_points += 1;
        } else {
            match &mut open[p] {
                Some(run) if run.0 == time => {
                    if fit < run.1 || (fit == run.1 && row < run.2) {
                        (run.1, run.2) = (fit, row);
                    }
                }
                run => {
                    if let Some(closed) = run.replace((time, fit, row)) {
                        close_time(rows, &mut summaries[p], &mut reached[p], closed);
                    }
                }
            }
        }
        if luts > 0 && rps.is_nan() {
            cost_candidates.push(at as u32);
        } else if luts > 0 {
            let best = &mut cost_best[g];
            if best.0 == NONE || per_kluts > best.1 {
                *best = (at as u32, per_kluts);
            }
        }
    }
    for (p, run) in open.into_iter().enumerate() {
        if let Some(run) = run {
            close_time(rows, &mut summaries[p], &mut reached[p], run);
        }
    }
    cost_candidates.extend(cost_best.iter().filter(|b| b.0 != NONE).map(|b| b.0));
    cost_candidates.sort_unstable();
    let cost = cost_candidates.iter().map(|&at| {
        let o = &rows[order[at as usize] as usize];
        Some([-o.outcome.service_rps, -o.rps_per_kluts()])
    });
    for (&at, flag) in cost_candidates.iter().zip(pareto_flags(cost)) {
        rows[order[at as usize] as usize].cost_pareto = flag;
    }
    permute(rows, order);
    summaries
}

/// Close a platform's time `(time, least fit, its row)` on the latency
/// frontier: the row is on it unless an earlier time `reached` a fit as
/// good.
fn close_time(
    rows: &mut [PortfolioOutcome],
    summary: &mut PlatformSummary,
    reached: &mut f64,
    (_, fit, row): (f64, f64, usize),
) {
    let dominated = *reached <= fit;
    if !dominated {
        rows[row].pareto = true;
        summary.pareto_points += 1;
    }
    *reached = reached.min(fit);
}

/// Flag each platform's service frontier over (requests/s ↑, p99 ↓,
/// fit ↓): [`pareto_flags`] over the platform's candidates in row
/// order — of the rows that fit in each probe group (`group(row)` <
/// `groups`), the least-fit one, the first of equals; and every row
/// with a NaN objective.
fn flag_service(
    rows: &mut [PortfolioOutcome],
    layout: &Layout,
    platforms: usize,
    group: impl Fn(usize) -> usize,
    groups: usize,
) {
    let view = |o: &PortfolioOutcome| {
        [
            -o.outcome.service_rps,
            o.outcome.service_p99_s,
            o.utilization,
        ]
    };
    let points = layout.points.len();
    let mut best = vec![NONE; groups];
    let mut candidates: Vec<usize> = Vec::new();
    let mut start = 0;
    for p in 0..platforms {
        let blocks = layout.blocks.iter().filter(|b| b.0 == p).count();
        let end = start + blocks * points;
        for row in start..end {
            let o = &rows[row];
            if !o.outcome.feasible {
                continue;
            }
            if view(o).iter().any(|x| x.is_nan()) {
                candidates.push(row);
                continue;
            }
            let best = &mut best[group(row)];
            if *best == NONE || o.utilization < rows[*best as usize].utilization {
                *best = row as u32;
            }
        }
        candidates.extend(
            best.iter_mut()
                .filter(|b| **b != NONE)
                .map(|b| std::mem::replace(b, NONE) as usize),
        );
        candidates.sort_unstable();
        let flags = pareto_flags(candidates.iter().map(|&row| Some(view(&rows[row]))));
        for (&row, flag) in candidates.iter().zip(flags) {
            rows[row].service_pareto = flag;
        }
        candidates.clear();
        start = end;
    }
}

/// The rows of `layout` in the order that settles a tie on
/// (feasibility, time, fit): by platform id, clock (`total_cmp`), label
/// ([`DsePoint::label_key`]) and row index — the rest of
/// `portfolio_order`'s key. It sorts the blocks by (platform id,
/// clock) and the points by label, not the rows: row `b * points + q`
/// comes among the rows of the blocks that tie with `b` and the points
/// that tie with `q`, which are in index order.
fn tie_order(platforms: &[Platform], layout: &Layout) -> Vec<u32> {
    let (blocks, points) = (&layout.blocks, &layout.points);
    let by_block = |a: &usize, b: &usize| {
        let ((pa, ca), (pb, cb)) = (blocks[*a], blocks[*b]);
        platforms[pa]
            .id
            .cmp(platforms[pb].id)
            .then(ca.total_cmp(&cb))
    };
    let labels: Vec<_> = points.iter().map(DsePoint::label_key).collect();
    let by_point = |a: &usize, b: &usize| labels[*a].cmp(&labels[*b]);
    let mut block_order: Vec<usize> = (0..blocks.len()).collect();
    block_order.sort_by(by_block);
    let mut point_order: Vec<usize> = (0..points.len()).collect();
    point_order.sort_by(by_point);
    // Invariant: 2^32 rows of over 100 bytes would not fit in memory.
    let index =
        |b: usize, q: usize| u32::try_from(b * points.len() + q).expect("fewer rows than u32::MAX");
    let mut order = Vec::with_capacity(blocks.len() * points.len());
    for tied_blocks in block_order.chunk_by(|a, b| by_block(a, b).is_eq()) {
        if let &[b] = tied_blocks {
            order.extend(point_order.iter().map(|&q| index(b, q)));
            continue;
        }
        for tied_points in point_order.chunk_by(|a, b| by_point(a, b).is_eq()) {
            for &b in tied_blocks {
                order.extend(tied_points.iter().map(|&q| index(b, q)));
            }
        }
    }
    order
}

/// The ranked order of `rows` (position → row), written over `tie`:
/// the rows that fit by one sort of their (time, fit, place in `tie`)
/// keys, time and fit as [`total_order_bits`], then the rows that do
/// not fit — every one at time and fit 0, so tied until `tie` — in
/// `tie` order.
fn rank_order(rows: &[PortfolioOutcome], mut tie: Vec<u32>) -> Vec<u32> {
    let feasible = rows.iter().filter(|o| o.outcome.feasible).count();
    let mut keys: Vec<(u64, u64, u32, u32)> = Vec::with_capacity(feasible);
    let mut infeasible = 0;
    for at in 0..tie.len() {
        let row = tie[at];
        let o = &rows[row as usize];
        let (time, fit) = (o.outcome.total_s, o.utilization);
        if o.outcome.feasible {
            keys.push((
                total_order_bits(time),
                total_order_bits(fit),
                at as u32,
                row,
            ));
        } else {
            debug_assert!(
                time.to_bits() == 0 && fit.to_bits() == 0,
                "a row that does not fit scores 0"
            );
            tie[infeasible] = row;
            infeasible += 1;
        }
    }
    keys.sort_unstable();
    tie.copy_within(..infeasible, feasible);
    for (at, key) in tie.iter_mut().zip(&keys) {
        *at = key.3;
    }
    tie
}

/// Move every row to its place in `order` (position → row), once each,
/// along the permutation's cycles.
fn permute(rows: &mut [PortfolioOutcome], mut order: Vec<u32>) {
    for start in 0..rows.len() {
        if order[start] as usize == start {
            continue;
        }
        // Position `at` takes the row at `order[at]`; a position done
        // points at itself.
        let first = rows[start].clone();
        let mut at = start;
        loop {
            let from = std::mem::replace(&mut order[at], at as u32) as usize;
            if from == start {
                break;
            }
            rows[at] = rows[from].clone();
            at = from;
        }
        rows[at] = first;
    }
}

/// `x`'s bits as a key whose unsigned order is [`f64::total_cmp`]'s:
/// a negative number (sign bit set) flips every bit, anything else sets
/// the sign bit.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::fixtures::{
        dense_grid, drawn_portfolio, generated_outcome, large_grid, repeating_grid, TRICKY,
    };
    use crate::dse::{DseEngine, DseGrid, DseOutcome};
    use crate::program::ProgramOptions;

    /// Outcomes drawn from a handful of values per ranked field, so
    /// every prefix of either comparator's key ties for many pairs and
    /// the label — with `k`, `m` >= 10 — decides.
    fn tied_outcome(i: usize) -> PortfolioOutcome {
        let pick = |salt: usize, n: usize| {
            (i.wrapping_mul(2_654_435_761).wrapping_add(salt * 97) >> 7) % n
        };
        let feasible = pick(1, 4) != 0;
        let scale = if feasible { 1 + pick(2, 2) } else { 0 };
        PortfolioOutcome {
            platform: ["zcu106", "u250"][pick(3, 2)],
            clock_mhz: [100.0, 200.0][pick(4, 2)],
            outcome: DseOutcome {
                point: DsePoint {
                    k: TRICKY[pick(5, TRICKY.len())],
                    m: TRICKY[pick(6, TRICKY.len())],
                    sharing: pick(7, 2) == 0,
                    decoupled: pick(8, 2) == 0,
                    partition: [1, 2, 10][pick(9, 3)],
                },
                luts: 1_000 * scale,
                brams: 16 * scale,
                total_s: 0.25 * scale as f64,
                throughput_eps: 4_000.0 * scale as f64,
                feasible,
                ..generated_outcome(0)
            },
            utilization: 0.5 * scale as f64,
            pareto: false,
            service_pareto: false,
            cost_pareto: false,
        }
    }

    /// Rank of a portfolio's rows: feasible first, then by simulated
    /// time, fit, platform and clock; the label only ever breaks a full
    /// tie. The definition [`rank_order`] sorts by, under a stable sort.
    fn portfolio_order(a: &PortfolioOutcome, b: &PortfolioOutcome) -> Ordering {
        b.outcome
            .feasible
            .cmp(&a.outcome.feasible)
            .then_with(|| a.outcome.total_s.total_cmp(&b.outcome.total_s))
            .then_with(|| a.utilization.total_cmp(&b.utilization))
            .then_with(|| a.platform.cmp(b.platform))
            .then_with(|| a.clock_mhz.total_cmp(&b.clock_mhz))
            .then_with(|| a.outcome.point.cmp_label(&b.outcome.point))
    }

    /// [`rank_order`] of rows in no layout: the tie order the sweep
    /// derives from its blocks and points, here by a stable sort of the
    /// rows on (platform, clock, label).
    fn rank(rows: &[PortfolioOutcome]) -> Vec<u32> {
        let mut tie: Vec<u32> = (0..rows.len() as u32).collect();
        tie.sort_by(|&a, &b| {
            let (a, b) = (&rows[a as usize], &rows[b as usize]);
            (a.platform.cmp(b.platform))
                .then(a.clock_mhz.total_cmp(&b.clock_mhz))
                .then(a.outcome.point.cmp_label(&b.outcome.point))
        });
        rank_order(rows, tie)
    }

    /// The comparators `sort_by` ran before labels were compared
    /// without being formatted: every key eager, the label a `String`.
    #[test]
    fn ranking_orders_equal_the_eager_label_comparators() {
        let old_portfolio = |a: &PortfolioOutcome, b: &PortfolioOutcome| {
            b.outcome
                .feasible
                .cmp(&a.outcome.feasible)
                .then(a.outcome.total_s.total_cmp(&b.outcome.total_s))
                .then(a.utilization.total_cmp(&b.utilization))
                .then(a.platform.cmp(b.platform))
                .then(a.clock_mhz.total_cmp(&b.clock_mhz))
                .then(a.outcome.point.label().cmp(&b.outcome.point.label()))
        };
        // Everything `portfolio_order` reads before the label.
        let before_label = |o: &PortfolioOutcome| {
            let bits = [o.outcome.total_s, o.utilization, o.clock_mhz].map(f64::to_bits);
            (o.outcome.feasible, bits, o.platform)
        };
        let rows: Vec<PortfolioOutcome> = (0..400).map(tied_outcome).collect();
        let mut label_decided = 0;
        for a in &rows {
            for b in &rows {
                assert_eq!(portfolio_order(a, b), old_portfolio(a, b));
                label_decided += usize::from(
                    a.outcome.point != b.outcome.point && before_label(a) == before_label(b),
                );
            }
        }
        assert!(
            label_decided > 1_000,
            "only {label_decided} pairs reached the label"
        );
        let (mut new, mut old) = (rows.clone(), rows);
        new.sort_by(portfolio_order);
        old.sort_by(old_portfolio);
        let points = |rows: &[PortfolioOutcome]| -> Vec<String> {
            rows.iter()
                .map(|o| format!("{} {} {}", o.platform, o.clock_mhz, o.outcome.point.label()))
                .collect()
        };
        assert_eq!(points(&new), points(&old));

        // The key-sorted rank is the stable sort by `portfolio_order`, on
        // tied portfolios of every size up to 400 and on one whose rows
        // are all equal (the input order decides): both as the input
        // positions of the ranked rows.
        let portfolios = (0..=400)
            .step_by(19)
            .map(|n| (0..n).map(tied_outcome).collect());
        for rows in portfolios.chain([vec![tied_outcome(7); 50]]) {
            let mut stable: Vec<u32> = (0..rows.len() as u32).collect();
            stable.sort_by(|&a, &b| portfolio_order(&rows[a as usize], &rows[b as usize]));
            assert_eq!(rank(&rows), stable, "{} rows", rows.len());
        }
    }

    /// The rank key orders as `total_cmp` over both zeros, both
    /// infinities, subnormals, extremes and NaNs of either sign and any
    /// payload.
    #[test]
    fn total_order_bits_orders_as_total_cmp() {
        let values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0,
            -1.0,
            0.314_480_5,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(u64::MAX),
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a:e} ({:#x}) vs {b:e} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }

    /// The definition `pareto_flags` sweeps for: quadratic, one
    /// dominance test per pair.
    fn pareto_flags_reference<const N: usize>(objectives: &[Option<[f64; N]>]) -> Vec<bool> {
        let dominated = |i: usize, p: &[f64; N]| {
            objectives.iter().enumerate().any(|(j, o)| match o {
                Some(q) => {
                    let no_worse = q.iter().zip(p).all(|(q, p)| q <= p);
                    let better = q.iter().zip(p).any(|(q, p)| q < p);
                    let same = q.iter().zip(p).all(|(q, p)| q == p);
                    (no_worse && better) || (j < i && same)
                }
                None => false,
            })
        };
        objectives
            .iter()
            .enumerate()
            .map(|(i, o)| o.as_ref().is_some_and(|p| !dominated(i, p)))
            .collect()
    }

    /// Objective sets drawn from few values: duplicates, `±0.0`,
    /// infeasible holes and the odd NaN (which neither dominates nor is
    /// dominated, in both forms).
    #[test]
    fn sort_and_sweep_pareto_equals_the_quadratic_definition() {
        const VALUES: [f64; 8] = [-0.0, 0.0, 0.25, 0.5, 1.0, -1.0, 3.0, f64::NAN];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut frontier_sizes = 0;
        for round in 0..300 {
            let n = draw(40);
            // Rounds alternate between all eight values and the first
            // five, where NaN never shows.
            let span = if round % 2 == 0 { 8 } else { 5 };
            let two: Vec<Option<[f64; 2]>> = (0..n)
                .map(|_| (draw(5) != 0).then(|| [VALUES[draw(span)], VALUES[draw(span)]]))
                .collect();
            let three: Vec<Option<[f64; 3]>> = (0..n)
                .map(|_| {
                    (draw(5) != 0)
                        .then(|| [VALUES[draw(span)], VALUES[draw(span)], VALUES[draw(span)]])
                })
                .collect();
            let flags = pareto_flags(two.iter().copied());
            assert_eq!(flags, pareto_flags_reference(&two), "{two:?}");
            assert_eq!(
                pareto_flags(three.iter().copied()),
                pareto_flags_reference(&three),
                "{three:?}"
            );
            frontier_sizes += flags.iter().filter(|&&f| f).count();
        }
        assert!(frontier_sizes > 300);
        // First of identical objectives wins, -0.0 and 0.0 being identical.
        let tied = [None, Some([0.0, 1.0]), Some([-0.0, 1.0]), Some([0.0, 1.0])];
        assert_eq!(pareto_flags(tied.into_iter()), [false, true, false, false]);
    }

    /// The ranked, flagged portfolio by definition: each platform's
    /// latency and service flags by [`pareto_flags_reference`] over its
    /// rows in row order, a stable sort by [`portfolio_order`], the
    /// cost flags by [`pareto_flags_reference`] over the ranked rows,
    /// and each summary by counting.
    fn rank_portfolio_reference(
        platforms: &[Platform],
        mut rows: Vec<PortfolioOutcome>,
        layout: &Layout,
    ) -> (Vec<PortfolioOutcome>, Vec<PlatformSummary>) {
        let mut summaries = Vec::new();
        let mut start = 0;
        for (p, platform) in platforms.iter().enumerate() {
            let blocks = layout.blocks.iter().filter(|b| b.0 == p).count();
            let rows = &mut rows[start..start + blocks * layout.points.len()];
            start += rows.len();
            let latency: Vec<_> = (rows.iter())
                .map(|o| (o.outcome.feasible).then_some([o.outcome.total_s, o.utilization]))
                .collect();
            let service: Vec<_> = (rows.iter())
                .map(|o| {
                    let view = [
                        -o.outcome.service_rps,
                        o.outcome.service_p99_s,
                        o.utilization,
                    ];
                    o.outcome.feasible.then_some(view)
                })
                .collect();
            let flags = pareto_flags_reference(&latency);
            let service_flags = pareto_flags_reference(&service);
            for ((o, pareto), service_pareto) in rows.iter_mut().zip(flags).zip(service_flags) {
                (o.pareto, o.service_pareto) = (pareto, service_pareto);
            }
            let feasible = || rows.iter().filter(|o| o.outcome.feasible);
            summaries.push(PlatformSummary {
                platform: platform.id,
                board: platform.board.name.clone(),
                evaluated: rows.len(),
                feasible: feasible().count(),
                pareto_points: rows.iter().filter(|o| o.pareto).count(),
                best_total_s: feasible().map(|o| o.outcome.total_s).min_by(f64::total_cmp),
            });
        }
        rows.sort_by(portfolio_order);
        let cost: Vec<_> = (rows.iter())
            .map(|o| {
                (o.outcome.feasible && o.outcome.luts > 0)
                    .then(|| [-o.outcome.service_rps, -o.rps_per_kluts()])
            })
            .collect();
        for (o, flag) in rows.iter_mut().zip(pareto_flags_reference(&cost)) {
            o.cost_pareto = flag;
        }
        (rows, summaries)
    }

    /// `rank_portfolio` on `rows` (laid out by `layout`, probed as
    /// `probe_of` says) against [`rank_portfolio_reference`]: the same
    /// rows in the same order with the same flags, and the same
    /// summaries, compared through their `Debug` text (which tells
    /// `-0.0` from `0.0`).
    fn assert_ranks_as_defined(
        platforms: &[Platform],
        rows: Vec<PortfolioOutcome>,
        layout: &Layout,
        probe_of: &[u32],
        at: &str,
    ) {
        let (want, want_summaries) = rank_portfolio_reference(platforms, rows.clone(), layout);
        let mut got = rows;
        let summaries = rank_portfolio(platforms, &mut got, layout, probe_of);
        assert_eq!(
            format!("{summaries:?}"),
            format!("{want_summaries:?}"),
            "{at}"
        );
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}: rank {i}");
        }
        assert_eq!(got.len(), want.len(), "{at}");
    }

    /// The one-sort rank and the per-probe frontiers are the definition
    /// on drawn portfolios — from one probe group shared by most rows to
    /// more groups than pairs of figures, every third with NaNs — and on
    /// the sweeps of
    /// helmholtz:11's dense grid and simstep:7's default grid over the
    /// catalog, at 1 and 4 jobs.
    #[test]
    fn rank_portfolio_equals_the_sorted_quadratic_definition() {
        for seed in 0..60 {
            let groups = [1, 2, 3, 8, 40][seed as usize % 5];
            let nan = seed % 3 == 2;
            let (platforms, rows, layout, probe_of) =
                drawn_portfolio(seed, &repeating_grid(), groups, nan);
            assert_ranks_as_defined(
                &platforms,
                rows,
                &layout,
                &probe_of,
                &format!("seed {seed}"),
            );
        }
        let catalog = Platform::catalog();
        let sources = [
            (cfdlang::examples::inverse_helmholtz(11), dense_grid()),
            (cfdlang::examples::simulation_step(7), DseGrid::default()),
        ];
        for (src, grid) in sources {
            let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
            for jobs in [1, 4] {
                let swept = engine.sweep(&catalog, &grid, jobs, 2_000);
                let at = format!("{} jobs={jobs}", engine.label());
                assert_ranks_as_defined(&catalog, swept.rows, &swept.layout, &swept.probe_of, &at);
            }
        }
    }

    /// [`rank_portfolio_equals_the_sorted_quadratic_definition`] on
    /// drawn portfolios of about 20 000 rows with few distinct service
    /// outcomes (CI runs it in release).
    #[test]
    #[ignore = "about 20 000 rows per portfolio; run with --release --include-ignored"]
    fn rank_portfolio_equals_the_definition_on_large_portfolios() {
        let grid = large_grid();
        for (seed, groups) in [(1, 4), (2, 50), (3, 359)] {
            let (platforms, rows, layout, probe_of) = drawn_portfolio(seed, &grid, groups, false);
            assert_eq!(rows.len(), 19_968);
            assert_ranks_as_defined(
                &platforms,
                rows,
                &layout,
                &probe_of,
                &format!("seed {seed}"),
            );
        }
    }
}
