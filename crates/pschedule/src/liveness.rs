//! Liveness analysis and the memory compatibility graph (Section IV-F).
//!
//! The definition: for every array the interval relation over schedule
//! tuples
//!
//! ```text
//! P = A⁻¹ ∘ B   where   A : array[i] → [write tuple]
//!                       B : array[i] → [read tuple]
//! ```
//!
//! (the paper's `I = (S×S) ∘ RAW`), expanded with `ge_le` into the set `L`
//! of schedule points at which the array holds a live value. Inputs
//! receive a *virtual write* strictly before every statement (`first`)
//! and outputs a *virtual read* after every statement (`last`), exactly
//! as in the paper's modified virtual schedule. The tests enumerate `L`
//! as the union over the array's elements of `[min W, max R]`, each
//! element's earliest write and latest read tuple, and hold every answer
//! here to it.
//!
//! Two arrays are **address-space compatible** when their live sets are
//! disjoint — they may then share addresses. Two arrays are
//! **memory-interface compatible** when no schedule point writes both or
//! reads both — they may then share physical ports. Both relations feed
//! the Mnemosyne configuration (Figure 5 of the paper), and that graph
//! asks one yes/no question per array pair, so
//! [`CompatibilityGraph::build`] answers the question rather than
//! expanding the sets. Every statement's schedule image is exactly the
//! box `[seq, extents in σ order, 0…, micro]`, and the address-space
//! answer climbs a ladder of exact rungs:
//!
//! 1. **Hull.** `L` lies inside `[earliest write, latest read]`. Both ends
//!    are box corners (a writing statement's all-zero point, a reading
//!    statement's all-top point, `first` for inputs, `last` for outputs).
//!    Disjoint hulls prove disjoint live sets.
//! 2. **Witness.** Otherwise `x`, the later of the two hull starts, is
//!    tested for membership in both live sets: `x ∈ L` iff some element
//!    is written at a tuple `≤lex x` and read at a tuple `≥lex x`.
//!    Walking `x`'s coordinates cuts each statement's box into at most
//!    `rank + 1` sub-boxes on either side of `x`; `x` is live iff the
//!    address `image` of some read sub-box meets that of some write
//!    sub-box, each a bitset (a virtual write or read touches every
//!    address). A common live point proves a conflict.
//! 3. **Walk.** A pair neither corner settles — overlapping hulls, yet
//!    no common live point at `x`, as in a fused element-wise chain —
//!    compares the live sets element by element. Every write and read
//!    instance of the array is walked (the virtual points touch every
//!    element), each element is live on `[min W, max R]` in lex order,
//!    and two arrays conflict iff their merged interval lists overlap.
//!    Each array is walked at most once per graph; one with more than
//!    [`WALK_CAP`] instances is not walked and conflicts with every
//!    array, so it is simply not shared.
//!
//! The port question needs no ladder: an array's write (read) points are
//! its writing (reading) statements' boxes plus the virtual point, which
//! lies outside every box, so two arrays share a point iff two of those
//! boxes intersect or both have the virtual point. Empty boxes
//! contribute nothing, to either question. [`LadderCounters`] counts
//! what each rung decided, process-wide.

use crate::model::{image, Image, KernelModel, LinExpr, WALK_CAP};
use crate::schedule::Schedule;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use teil::ir::{Module, TensorKind};
use teil::layout::ArrayId;

/// What one array contributes to the rungs.
#[derive(Debug, Clone)]
struct ArrayFacts {
    /// Statements writing the array, in program order.
    writers: Vec<usize>,
    /// Statements reading it at least once, in program order.
    readers: Vec<usize>,
    /// A non-empty host-written input: virtually written at `first`.
    input: bool,
    /// A non-empty host-read output: virtually read at `last`.
    output: bool,
    /// `[earliest write, latest read]`; `None` when the live set is
    /// empty (no write, no read, or every read before every write).
    hull: Option<(Vec<i64>, Vec<i64>)>,
}

/// What liveness questions over one schedule need: statement boxes,
/// per-array hulls and host flags. No live set is ever built: the rungs
/// answer each question from these (see the module docs).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Schedule-space dimensionality.
    pub dim: usize,
    /// Arrays analyzed (live arrays of the layout plan).
    pub arrays: Vec<ArrayId>,
    schedule: Schedule,
    first: Vec<i64>,
    last: Vec<i64>,
    /// Per statement, the lex-first and lex-last corner of its schedule
    /// image, which are also the box's per-coordinate bounds; `None`
    /// for an empty domain.
    boxes: Vec<Option<(Vec<i64>, Vec<i64>)>>,
    /// Parallel to `arrays`.
    facts: Vec<ArrayFacts>,
}

impl Liveness {
    /// Record what the ladder needs for a kernel under a schedule.
    pub fn analyze(module: &Module, model: &KernelModel, sched: &Schedule) -> Liveness {
        let boxes: Vec<Option<(Vec<i64>, Vec<i64>)>> = model
            .stmts
            .iter()
            .enumerate()
            .map(|(si, stmt)| {
                let top = stmt
                    .extents
                    .iter()
                    .map(|&e| e.checked_sub(1))
                    .collect::<Option<Vec<usize>>>()?;
                Some((
                    sched.tuple_of(si, &vec![0; top.len()]),
                    sched.tuple_of(si, &top),
                ))
            })
            .collect();
        let (first, last) = (sched.first_tuple(), sched.last_tuple());
        let arrays = model.layout.live_arrays();
        let facts = arrays
            .iter()
            .map(|&arr| {
                let stmts = || model.stmts.iter().enumerate();
                let writers: Vec<usize> = stmts()
                    .filter(|(_, s)| s.write_array == arr)
                    .map(|(si, _)| si)
                    .collect();
                let readers: Vec<usize> = stmts()
                    .filter(|(_, s)| s.reads.iter().any(|(a, _)| *a == arr))
                    .map(|(si, _)| si)
                    .collect();
                let non_empty = model.layout.arrays[arr.0].size > 0;
                let input = non_empty && holds_kind(module, model, arr, TensorKind::Input);
                let output = non_empty && holds_kind(module, model, arr, TensorKind::Output);
                let start = writers
                    .iter()
                    .filter_map(|&si| boxes[si].as_ref().map(|(lo, _)| lo))
                    .chain(input.then_some(&first))
                    .min();
                let end = readers
                    .iter()
                    .filter_map(|&si| boxes[si].as_ref().map(|(_, hi)| hi))
                    .chain(output.then_some(&last))
                    .max();
                let hull = match (start, end) {
                    (Some(s), Some(e)) if s <= e => Some((s.clone(), e.clone())),
                    _ => None,
                };
                ArrayFacts {
                    writers,
                    readers,
                    input,
                    output,
                    hull,
                }
            })
            .collect();
        Liveness {
            dim: sched.dim,
            arrays,
            schedule: sched.clone(),
            first,
            last,
            boxes,
            facts,
        }
    }

    /// [`Liveness::analyze`]; `jobs` is unused. The analysis records box
    /// corners and flags, and the graph expands sets only when the
    /// corners cannot decide a pair, so there is nothing to fan out.
    pub fn analyze_jobs(
        module: &Module,
        model: &KernelModel,
        sched: &Schedule,
        _jobs: usize,
    ) -> Liveness {
        Liveness::analyze(module, model, sched)
    }

    fn index(&self, arr: ArrayId) -> usize {
        self.arrays
            .iter()
            .position(|&a| a == arr)
            .expect("array is one of the analyzed arrays")
    }

    /// Whether two arrays may share memory ports: no schedule point
    /// writes both, and no schedule point reads both. Exact from the
    /// statement boxes alone (see the module docs).
    pub fn memory_interface_compatible(&self, a: ArrayId, b: ArrayId) -> bool {
        let (fa, fb) = (&self.facts[self.index(a)], &self.facts[self.index(b)]);
        !self.meet(&fa.writers, fa.input, &fb.writers, fb.input)
            && !self.meet(&fa.readers, fa.output, &fb.readers, fb.output)
    }

    /// Whether the boxes of statements `sa` (plus the virtual point when
    /// `va`) and those of `sb` (plus it when `vb`) share a point. The
    /// virtual point's `seq` lies outside every statement's, so it only
    /// meets itself.
    fn meet(&self, sa: &[usize], va: bool, sb: &[usize], vb: bool) -> bool {
        (va && vb)
            || sa.iter().any(|&s| {
                sb.iter().any(|&t| match (&self.boxes[s], &self.boxes[t]) {
                    (Some((lo_s, hi_s)), Some((lo_t, hi_t))) => {
                        (0..self.dim).all(|d| lo_s[d].max(lo_t[d]) <= hi_s[d].min(hi_t[d]))
                    }
                    _ => false,
                })
            })
    }

    /// Whether `x` is in the live set of the array at index `k`: some
    /// element is written at a tuple `≤lex x` and read at one `≥lex x`.
    /// An image too wide to hold counts as no address, leaving rung 3.
    fn live_at(&self, model: &KernelModel, k: usize, x: &[i64]) -> bool {
        let (arr, f) = (self.arrays[k], &self.facts[k]);
        let top = model.layout.arrays[arr.0].size as i64 - 1;
        let every_address = || image(&LinExpr::new(&[1], 0), &[(0, top)]);
        let mut writes = Vec::new();
        if f.input && self.first.as_slice() <= x {
            writes.extend(every_address());
        }
        for &si in &f.writers {
            let access = &model.stmts[si].write;
            self.cut(model, si, x, Ordering::Less, &mut |bx| {
                writes.extend(image(access, bx));
                false
            });
        }
        if writes.is_empty() {
            return false;
        }
        // Read sub-boxes are imaged lazily; the first to meet a write decides.
        let meets = |read: Option<Image>| read.is_some_and(|r| writes.iter().any(|w| w.meets(&r)));
        (f.output && self.last.as_slice() >= x && meets(every_address()))
            || f.readers.iter().any(|&si| {
                model.stmts[si].reads.iter().any(|(ra, access)| {
                    *ra == arr
                        && self.cut(model, si, x, Ordering::Greater, &mut |bx| {
                            meets(image(access, bx))
                        })
                })
            })
    }

    /// Hand `visit` each sub-box of statement `si`'s domain whose schedule
    /// tuples lie on `side` of `x` (`Less`: `≤lex x`, `Greater`: `≥lex x`),
    /// stopping at the first `true`, which it returns. Walking `x`'s
    /// coordinates yields one sub-box per iteration coordinate that
    /// decides the order there, plus the point equal to `x`, if any.
    fn cut(
        &self,
        model: &KernelModel,
        si: usize,
        x: &[i64],
        side: Ordering,
        visit: &mut impl FnMut(&[(i64, i64)]) -> bool,
    ) -> bool {
        if self.boxes[si].is_none() {
            return false;
        }
        let s = &self.schedule;
        let mut bx: Vec<_> = model.stmts[si]
            .extents
            .iter()
            .map(|&e| (0, e as i64 - 1))
            .collect();
        for (d, &xd) in x.iter().enumerate() {
            let var = (1..self.dim - 1)
                .contains(&d)
                .then(|| s.perms[si].get(d - 1))
                .flatten();
            if let Some(&v) = var {
                let (lo, hi) = bx[v];
                let strict = match side {
                    Ordering::Less => (lo, hi.min(xd - 1)),
                    _ => (lo.max(xd + 1), hi),
                };
                if strict.0 <= strict.1 {
                    bx[v] = strict;
                    if visit(&bx) {
                        return true;
                    }
                }
                if xd < lo || xd > hi {
                    return false;
                }
                bx[v] = (xd, xd);
                continue;
            }
            let c = match d {
                0 => s.seq[si],
                _ if d == self.dim - 1 => s.micro[si],
                _ => 0,
            };
            match c.cmp(&xd) {
                Ordering::Equal => {}
                o if o == side => return visit(&bx),
                _ => return false,
            }
        }
        visit(&bx)
    }

    /// Rung 3, the per-element definition for the array at index `k`:
    /// each element is live on `[min W, max R]`, its earliest write and
    /// latest read tuple, walked over every instance of the array's
    /// accesses (the virtual `first` write and `last` read touch every
    /// element). Returns the merged intervals in lex order, or `None`
    /// without walking when that is more than [`WALK_CAP`] instances.
    fn live_intervals(&self, model: &KernelModel, k: usize) -> Option<Vec<Interval>> {
        let (arr, f) = (self.arrays[k], &self.facts[k]);
        let size = model.layout.arrays[arr.0].size;
        let writes = (f.writers.iter()).map(|&si| (si, &model.stmts[si].write, true));
        let reads = (f.readers.iter()).flat_map(|&si| {
            let reads = model.stmts[si].reads.iter().filter(move |(a, _)| *a == arr);
            reads.map(move |(_, g)| (si, g, false))
        });
        let accesses: Vec<(usize, &LinExpr, bool)> = writes.chain(reads).collect();
        let virtual_points = size as u64 * (f.input as u64 + f.output as u64);
        let instances = (accesses.iter())
            .map(|&(si, ..)| model.stmts[si].instances())
            .fold(virtual_points, u64::saturating_add);
        if instances > WALK_CAP {
            return None;
        }
        // Per element: the earliest write and the latest read tuple.
        let mut spans: HashMap<i128, (Option<Tuple>, Option<Tuple>)> = HashMap::new();
        let mut touch = |addr: i128, t: Vec<i64>, write: bool| {
            let (w, r) = spans.entry(addr).or_default();
            if write && w.as_ref().is_none_or(|cur| t < *cur) {
                *w = Some(t);
            } else if !write && r.as_ref().is_none_or(|cur| t > *cur) {
                *r = Some(t);
            }
        };
        for addr in 0..size as i128 {
            if f.input {
                touch(addr, self.first.clone(), true);
            }
            if f.output {
                touch(addr, self.last.clone(), false);
            }
        }
        for (si, g, write) in accesses {
            model.stmts[si].walk(|point| {
                touch(g.at(point), self.schedule.tuple_of(si, point), write);
                false
            });
        }
        let mut live: Vec<Interval> = (spans.into_values())
            .filter_map(|span| match span {
                (Some(w), Some(r)) if w <= r => Some((w, r)),
                _ => None,
            })
            .collect();
        live.sort_unstable();
        let mut merged: Vec<Interval> = Vec::with_capacity(live.len());
        for (start, end) in live {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = end.max(std::mem::take(&mut last.1)),
                _ => merged.push((start, end)),
            }
        }
        Some(merged)
    }
}

/// A schedule tuple.
type Tuple = Vec<i64>;

/// A closed interval `[start, end]` of schedule tuples in lex order.
type Interval = (Tuple, Tuple);

/// Whether two lists of disjoint intervals, each sorted by start, share a
/// tuple.
fn overlap(a: &[Interval], b: &[Interval]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].1 < b[j].0 {
            i += 1;
        } else if b[j].1 < a[i].0 {
            j += 1;
        } else {
            return true;
        }
    }
    false
}

/// The address-space ladder over one analysis, with what its rungs
/// compute memoized for one graph: whether one array is live at another's
/// hull start (rung 2) and each array's walked live intervals (rung 3).
struct Ladder<'a> {
    lv: &'a Liveness,
    model: &'a KernelModel,
    /// `live_at[k * n + m]`: whether array `m`'s hull start is live in
    /// array `k`.
    live_at: Vec<OnceCell<bool>>,
    /// `None` for an array past the walk cap.
    live: Vec<OnceCell<Option<Vec<Interval>>>>,
}

impl<'a> Ladder<'a> {
    fn new(lv: &'a Liveness, model: &'a KernelModel) -> Ladder<'a> {
        let n = lv.arrays.len();
        Ladder {
            lv,
            model,
            live_at: (0..n * n).map(|_| OnceCell::new()).collect(),
            live: (0..n).map(|_| OnceCell::new()).collect(),
        }
    }

    /// Whether the arrays at indices `i` and `j` of `arrays` have
    /// disjoint live sets.
    fn disjoint(&self, i: usize, j: usize) -> bool {
        self.corners(i, j)
            .unwrap_or_else(|| match (self.walked(i), self.walked(j)) {
                (Some(a), Some(b)) => !overlap(a, b),
                _ => false,
            })
    }

    /// Rungs 1 and 2: `Some(true)` when the hulls are disjoint,
    /// `Some(false)` when the later hull start is live in both arrays,
    /// `None` when the corners cannot tell.
    fn corners(&self, i: usize, j: usize) -> Option<bool> {
        let facts = &self.lv.facts;
        let (Some(hi), Some(hj)) = (&facts[i].hull, &facts[j].hull) else {
            HULL_PAIRS.fetch_add(1, Relaxed);
            return Some(true);
        };
        if hi.1 < hj.0 || hj.1 < hi.0 {
            HULL_PAIRS.fetch_add(1, Relaxed);
            return Some(true);
        }
        let (m, x) = if hi.0 >= hj.0 { (i, &hi.0) } else { (j, &hj.0) };
        let live_at = |k: usize| {
            *self.live_at[k * facts.len() + m].get_or_init(|| self.lv.live_at(self.model, k, x))
        };
        if live_at(i) && live_at(j) {
            WITNESS_PAIRS.fetch_add(1, Relaxed);
            return Some(false);
        }
        None
    }

    /// Rung 3: the array's live intervals, walked once.
    fn walked(&self, k: usize) -> Option<&Vec<Interval>> {
        let walk = || {
            let live = self.lv.live_intervals(self.model, k);
            EXPANDED_ARRAYS.fetch_add(live.is_some() as u64, Relaxed);
            live
        };
        self.live[k].get_or_init(walk).as_ref()
    }
}

fn holds_kind(module: &Module, model: &KernelModel, arr: ArrayId, kind: TensorKind) -> bool {
    model
        .layout
        .placements
        .iter()
        .any(|p| p.array == arr && module.decl(p.tensor).kind == kind)
}

static HULL_PAIRS: AtomicU64 = AtomicU64::new(0);
static WITNESS_PAIRS: AtomicU64 = AtomicU64::new(0);
static EXPANDED_ARRAYS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time totals of the ladder's process-wide counters:
/// address-space questions decided by disjoint hulls (`hull`) and by a
/// common live corner (`witness`), and arrays whose live intervals the
/// third rung walked (`expanded`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LadderCounters {
    pub hull: u64,
    pub witness: u64,
    pub expanded: u64,
}

impl LadderCounters {
    /// Current process totals.
    pub fn snapshot() -> LadderCounters {
        LadderCounters {
            hull: HULL_PAIRS.load(Relaxed),
            witness: WITNESS_PAIRS.load(Relaxed),
            expanded: EXPANDED_ARRAYS.load(Relaxed),
        }
    }

    /// Delta since `base` (saturating).
    pub fn since(&self, base: LadderCounters) -> LadderCounters {
        LadderCounters {
            hull: self.hull.saturating_sub(base.hull),
            witness: self.witness.saturating_sub(base.witness),
            expanded: self.expanded.saturating_sub(base.expanded),
        }
    }
}

/// Edge kind in the compatibility graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompatKind {
    /// Lifetimes disjoint: arrays may overlay the same addresses.
    AddressSpace,
    /// Port usage disjoint: arrays may share physical banks.
    MemoryInterface,
}

/// The memory compatibility graph of Figure 5.
#[derive(Debug, Clone)]
pub struct CompatibilityGraph {
    /// `(array, name, words, interface?)` per node.
    pub nodes: Vec<(ArrayId, String, usize, bool)>,
    /// Compatibility edges between node indices.
    pub edges: Vec<(usize, usize, CompatKind)>,
}

impl CompatibilityGraph {
    /// Build the graph from a liveness analysis of `model`: the ladder
    /// of the module docs per array pair, then the port question when
    /// the address spaces conflict.
    pub fn build(model: &KernelModel, lv: &Liveness) -> CompatibilityGraph {
        let layout = &model.layout;
        let nodes: Vec<(ArrayId, String, usize, bool)> = lv
            .arrays
            .iter()
            .map(|&a| {
                let d = &layout.arrays[a.0];
                (a, d.name.clone(), d.size, d.interface)
            })
            .collect();
        let ladder = Ladder::new(lv, model);
        let mut edges = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if ladder.disjoint(i, j) {
                    edges.push((i, j, CompatKind::AddressSpace));
                } else if lv.memory_interface_compatible(nodes[i].0, nodes[j].0) {
                    edges.push((i, j, CompatKind::MemoryInterface));
                }
            }
        }
        CompatibilityGraph { nodes, edges }
    }

    /// Whether nodes `i` and `j` have an edge of (at least) the given
    /// kind. Address-space compatibility implies a sharing opportunity
    /// for memory-interface purposes as well.
    pub fn compatible(&self, i: usize, j: usize, kind: CompatKind) -> bool {
        self.edges.iter().any(|&(a, b, k)| {
            ((a, b) == (i.min(j), i.max(j)))
                && (k == kind
                    || (kind == CompatKind::MemoryInterface && k == CompatKind::AddressSpace))
        })
    }

    /// Node index by array name.
    pub fn node_by_name(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|(_, n, _, _)| n == name)
    }

    /// Render as Graphviz dot (interface arrays grouped, like Figure 5).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("graph compat {\n  rankdir=LR;\n");
        s.push_str("  subgraph cluster_iface { label=\"interface\";\n");
        for (i, (_, name, _, iface)) in self.nodes.iter().enumerate() {
            if *iface {
                s.push_str(&format!("    n{i} [label=\"{name}\"];\n"));
            }
        }
        s.push_str("  }\n");
        for (i, (_, name, _, iface)) in self.nodes.iter().enumerate() {
            if !*iface {
                s.push_str(&format!("  n{i} [label=\"{name}\"];\n"));
            }
        }
        for &(a, b, k) in &self.edges {
            let style = match k {
                CompatKind::AddressSpace => "solid",
                CompatKind::MemoryInterface => "dashed",
            };
            s.push_str(&format!("  n{a} -- n{b} [style={style}];\n"));
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::tests::{read_map, write_map};
    use crate::schedule::tests::stmt_map;
    use crate::{reschedule, Dependences, SchedulerOptions};
    use std::collections::{BTreeMap, BTreeSet};
    use teil::ir::TensorKind::{Input, Output};
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    /// An array's point sets under a schedule, by enumeration.
    pub(crate) struct LiveSets {
        /// The union over its elements of `[min W, max R]`, merged into
        /// disjoint intervals sorted by start.
        pub live: Vec<Interval>,
        /// The tuples at which it is written.
        pub writes_at: BTreeSet<Tuple>,
        /// The tuples at which it is read.
        pub reads_at: BTreeSet<Tuple>,
    }

    /// The definition, for one array: every instance of every access to it
    /// with its address and tuple, plus a virtual write of every element at
    /// `first` for an input and a virtual read at `last` for an output.
    /// Each element is live on `[min W, max R]`, or nowhere when
    /// `min W >lex max R`.
    pub(crate) fn exact(m: &Module, km: &KernelModel, s: &Schedule, arr: ArrayId) -> LiveSets {
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        for (si, stmt) in km.stmts.iter().enumerate() {
            let tuples = |access: Vec<(Vec<usize>, i64)>| {
                (access.into_iter()).map(move |(point, addr)| (addr, stmt_map(s, si, &point)))
            };
            if stmt.write_array == arr {
                writes.extend(tuples(write_map(km, si)));
            }
            for (k, (ra, _)) in stmt.reads.iter().enumerate() {
                if *ra == arr {
                    reads.extend(tuples(read_map(km, si, k)));
                }
            }
        }
        let elements = 0..km.layout.arrays[arr.0].size as i64;
        if holds_kind(m, km, arr, Input) {
            writes.extend(elements.clone().map(|addr| (addr, s.first_tuple())));
        }
        if holds_kind(m, km, arr, Output) {
            reads.extend(elements.map(|addr| (addr, s.last_tuple())));
        }
        // Per element, its earliest write and latest read.
        let mut spans: BTreeMap<i64, (Option<&Tuple>, Option<&Tuple>)> = BTreeMap::new();
        for (addr, t) in &writes {
            let w = &mut spans.entry(*addr).or_default().0;
            *w = Some(w.map_or(t, |cur| cur.min(t)));
        }
        for (addr, t) in &reads {
            let r = &mut spans.entry(*addr).or_default().1;
            *r = Some(r.map_or(t, |cur| cur.max(t)));
        }
        let mut live: Vec<Interval> = (spans.into_values())
            .filter_map(|span| match span {
                (Some(w), Some(r)) if w <= r => Some((w.clone(), r.clone())),
                _ => None,
            })
            .collect();
        live.sort();
        let mut merged: Vec<Interval> = Vec::new();
        for (w, r) in live {
            match merged.last_mut() {
                Some(last) if w <= last.1 => {
                    if r > last.1 {
                        last.1 = r;
                    }
                }
                _ => merged.push((w, r)),
            }
        }
        let at = |events: Vec<(i64, Tuple)>| events.into_iter().map(|(_, t)| t).collect();
        LiveSets {
            live: merged,
            writes_at: at(writes),
            reads_at: at(reads),
        }
    }

    /// Whether `x` lies in a live set.
    fn contains(live: &[Interval], x: &[i64]) -> bool {
        live.iter()
            .any(|(w, r)| w.as_slice() <= x && x <= r.as_slice())
    }

    /// Whether two live sets share a tuple. Each set's intervals are
    /// disjoint, so with the intervals of both sorted by start, the sets
    /// meet iff some interval starts inside its predecessor from the
    /// other set.
    fn live_sets_meet(a: &[Interval], b: &[Interval]) -> bool {
        let mut all: Vec<(&Interval, bool)> = (a.iter().map(|i| (i, false)))
            .chain(b.iter().map(|i| (i, true)))
            .collect();
        all.sort();
        (all.windows(2)).any(|p| p[0].1 != p[1].1 && p[1].0 .0 <= p[0].0 .1)
    }

    fn setup(n: usize, factored: bool) -> (Module, KernelModel, Schedule) {
        setup_source(&cfdlang::examples::inverse_helmholtz(n), factored)
    }

    fn setup_source(source: &str, factored: bool) -> (Module, KernelModel, Schedule) {
        let (m, km) = kernels(source, factored).remove(0);
        let s = Schedule::reference(&km);
        (m, km, s)
    }

    /// Every kernel of the generated programs (`CFD_GENERATED_PROGRAMS`,
    /// default 200), with and without factorisation, modelled as the
    /// compile flow models it (CSE and DCE included).
    pub(crate) fn generated_kernels() -> Vec<(String, Module, KernelModel)> {
        use crate::generator;
        use teil::transform::{cse, dce};
        let mut cov = generator::Coverage::default();
        let mut out = Vec::new();
        for seed in 0..generator::program_count() {
            let (source, _) = generator::program(seed, &mut cov);
            let set = cfdlang::check_set(&cfdlang::parse_set(&source).unwrap()).unwrap();
            for factored in [false, true] {
                for k in &set.kernels {
                    let mut m = lower(&k.typed).unwrap();
                    if factored {
                        m = factorize(&m);
                    }
                    let m = dce(&cse(&m));
                    let km = KernelModel::build(&m, &LayoutPlan::row_major(&m));
                    let name = format!("seed {seed}, kernel {}, factored {factored}", k.name);
                    out.push((name, m, km));
                }
            }
        }
        assert!(cov.pure_self_reads > 0, "{cov:?}");
        out
    }

    /// Every kernel of `source` (a single kernel or a `kernel { .. }` set).
    pub(crate) fn kernels(source: &str, factored: bool) -> Vec<(Module, KernelModel)> {
        let set = cfdlang::check_set(&cfdlang::parse_set(source).unwrap()).unwrap();
        set.kernels
            .iter()
            .map(|k| {
                let mut m = lower(&k.typed).unwrap();
                if factored {
                    m = factorize(&m);
                }
                let km = KernelModel::build(&m, &LayoutPlan::row_major(&m));
                (m, km)
            })
            .collect()
    }

    fn arr(m: &Module, km: &KernelModel, name: &str) -> ArrayId {
        km.layout.placement(m.find(name).unwrap()).array
    }

    /// Whether the ladder's graph lets two named arrays share addresses.
    fn shares_addresses(km: &KernelModel, lv: &Liveness, a: &str, b: &str) -> bool {
        let g = CompatibilityGraph::build(km, lv);
        let node = |name| g.node_by_name(name).unwrap();
        g.compatible(node(a), node(b), CompatKind::AddressSpace)
    }

    #[test]
    fn inputs_live_from_first() {
        let (m, km, s) = setup(3, false);
        let live = exact(&m, &km, &s, arr(&m, &km, "u")).live;
        // u is live at the virtual first tuple and during statement 0.
        assert!(contains(&live, &s.first_tuple()));
        assert!(contains(&live, &s.tuple_of(0, &[0, 0, 0, 0, 0, 0])));
        // u is dead during statement 1 (Hadamard).
        assert!(!contains(&live, &s.tuple_of(1, &[0, 0, 0])));
    }

    #[test]
    fn outputs_live_to_last() {
        let (m, km, s) = setup(3, false);
        let live = exact(&m, &km, &s, arr(&m, &km, "v")).live;
        assert!(contains(&live, &s.last_tuple()));
        // v is dead during statement 0.
        assert!(!contains(&live, &s.tuple_of(0, &[0; 6])));
    }

    #[test]
    fn temp_lifetime_spans_def_to_last_use() {
        let (m, km, s) = setup(3, false);
        let live = exact(&m, &km, &s, arr(&m, &km, "t")).live;
        // t written in stmt 0, read in stmt 1.
        assert!(contains(&live, &s.tuple_of(0, &[2, 2, 2, 0, 0, 0])));
        assert!(contains(&live, &s.tuple_of(1, &[0, 0, 0])));
        // Dead during stmt 2? t is read only by stmt 1.
        assert!(!contains(&live, &s.tuple_of(2, &[0; 6])));
    }

    #[test]
    fn u_and_r_are_address_space_compatible() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        // u dies after stmt 0; r is born at stmt 1.
        assert!(shares_addresses(&km, &lv, "u", "r"));
    }

    #[test]
    fn t_and_r_conflict() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        // r is written at the points where t is still being read.
        assert!(!shares_addresses(&km, &lv, "t", "r"));
    }

    #[test]
    fn s_conflicts_with_everything_it_overlaps() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        assert!(!shares_addresses(&km, &lv, "S", "t"));
        assert!(!shares_addresses(&km, &lv, "S", "v"));
    }

    #[test]
    fn factored_temp_chain_compatibilities() {
        let (m, km, s) = setup(3, true);
        let lv = Liveness::analyze(&m, &km, &s);
        // Adjacent stages conflict; stages two apart are compatible.
        assert!(!shares_addresses(&km, &lv, "t0", "t1"));
        assert!(shares_addresses(&km, &lv, "t0", "t"));
        assert!(shares_addresses(&km, &lv, "t0", "t2"));
        assert!(shares_addresses(&km, &lv, "t1", "t2"));
    }

    #[test]
    fn memory_interface_compat_for_disjoint_readers() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        let d = arr(&m, &km, "D");
        let u = arr(&m, &km, "u");
        // D is read only in stmt 1, u only in stmt 0; both are written
        // at the virtual first tuple, which is shared... so interface
        // compatibility requires distinguishing host writes. They are
        // written at the same virtual point: not interface compatible.
        assert!(!lv.memory_interface_compatible(d, u));
        // D (read at stmt 1) and t (written stmt 0, read stmt 1): reads
        // coincide at stmt 1 -> not interface compatible either.
        let t = arr(&m, &km, "t");
        assert!(!lv.memory_interface_compatible(d, t));
        // u (read stmt 0) and r (written stmt 1, read stmt 2): disjoint
        // read sets and disjoint write sets.
        let r = arr(&m, &km, "r");
        assert!(lv.memory_interface_compatible(u, r));
    }

    #[test]
    fn compat_graph_matches_analysis() {
        let (m, km, s) = setup(3, true);
        let lv = Liveness::analyze(&m, &km, &s);
        let g = CompatibilityGraph::build(&km, &lv);
        assert_eq!(g.nodes.len(), 10); // S D u v t r t0 t1 t2 t3
        let i_t0 = g.node_by_name("t0").unwrap();
        let i_t2 = g.node_by_name("t2").unwrap();
        assert!(g.compatible(i_t0, i_t2, CompatKind::AddressSpace));
        let i_t1 = g.node_by_name("t1").unwrap();
        assert!(!g.compatible(i_t0, i_t1, CompatKind::AddressSpace));
        let dot = g.to_dot();
        assert!(dot.contains("cluster_iface"));
        assert!(dot.contains("t0"));
    }

    /// Build the graph with the ladder and from the enumerated sets of
    /// every array; both must agree node for node and edge for edge. Tallies
    /// which rung settled each pair: `[hull, witness, exact]`.
    pub(crate) fn assert_ladder_is_exact(
        name: &str,
        m: &Module,
        km: &KernelModel,
        s: &Schedule,
        tally: &mut [usize; 3],
    ) {
        let lv = Liveness::analyze(m, km, s);
        let graph = CompatibilityGraph::build(km, &lv);
        let ladder = Ladder::new(&lv, km);
        let sets: Vec<LiveSets> = lv.arrays.iter().map(|&a| exact(m, km, s, a)).collect();
        let nodes: Vec<(ArrayId, String, usize, bool)> = lv
            .arrays
            .iter()
            .map(|&a| {
                let d = &km.layout.arrays[a.0];
                (a, d.name.clone(), d.size, d.interface)
            })
            .collect();
        let mut edges = Vec::new();
        for (i, a) in sets.iter().enumerate() {
            for (j, b) in sets.iter().enumerate().skip(i + 1) {
                tally[match ladder.corners(i, j) {
                    Some(true) => 0,
                    Some(false) => 1,
                    None => 2,
                }] += 1;
                if !live_sets_meet(&a.live, &b.live) {
                    edges.push((i, j, CompatKind::AddressSpace));
                } else if a.writes_at.is_disjoint(&b.writes_at)
                    && a.reads_at.is_disjoint(&b.reads_at)
                {
                    edges.push((i, j, CompatKind::MemoryInterface));
                }
            }
        }
        assert_eq!(graph.nodes, nodes, "{name}");
        assert_eq!(graph.edges, edges, "{name} under {s:?}");
    }

    /// A schedule with random `seq` (ties fuse statements), random `micro`
    /// and random permutations — legal or not, liveness is defined.
    pub(crate) fn random_schedule(km: &KernelModel, rng: &mut u64) -> Schedule {
        let mut next = |bound: usize| {
            *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut s = Schedule::reference(km);
        let n = km.stmts.len();
        for si in 0..n {
            s.seq[si] = next(n) as i64;
            s.micro[si] = next(3) as i64;
            let perm = &mut s.perms[si];
            for k in (1..perm.len()).rev() {
                perm.swap(k, next(k + 1));
            }
        }
        s
    }

    /// The whole kernel as one fused group: reference loop orders, one
    /// `seq`, `micro` in program order.
    pub(crate) fn fused_schedule(km: &KernelModel) -> Schedule {
        let mut s = Schedule::reference(km);
        s.seq.fill(0);
        for (si, micro) in s.micro.iter_mut().enumerate() {
            *micro = si as i64;
        }
        s
    }

    /// The six `cfdlang::examples` at small extents: the definition
    /// tests' zoo.
    pub(crate) fn example_sources() -> [String; 6] {
        use cfdlang::examples as ex;
        [
            ex::inverse_helmholtz(3),
            ex::interpolation(3, 4),
            ex::matrix_sandwich(3),
            ex::axpy(3),
            ex::simulation_step(3),
            ex::axpy_chain(3),
        ]
    }

    /// Four element-wise statements, each a candidate for fusion with its
    /// neighbours.
    pub(crate) const ELEMENTWISE_CHAIN: &str = "var input a : [4]\nvar input b : [4]\n\
        var output o : [4]\nvar t : [4]\nvar u : [4]\nvar v : [4]\n\
        t = a * b\nu = t * a\nv = b * b\no = u * v";

    /// `inverse_helmholtz(3)` with every tensor laid out column-major
    /// through `LayoutPlan::with_strides`: a layout reaches the rungs only
    /// through the access images.
    pub(crate) fn transposed_kernel() -> (Module, KernelModel) {
        let (m, _) = kernels(&cfdlang::examples::inverse_helmholtz(3), false).remove(0);
        let mut layout = LayoutPlan::row_major(&m);
        for t in (0..m.tensors.len()).map(teil::ir::TensorId) {
            let strides = (m.shape(t).iter())
                .scan(1, |stride, &e| {
                    Some(std::mem::replace(stride, *stride * e as i64))
                })
                .collect();
            layout.with_strides(t, strides, 0);
        }
        let km = KernelModel::build(&m, &layout);
        (m, km)
    }

    #[test]
    fn ladder_equals_the_definition() {
        let mut zoo = Vec::new();
        for (k, src) in example_sources().iter().enumerate() {
            for factored in [false, true] {
                for (m, km) in kernels(src, factored) {
                    zoo.push((format!("source {k}, factored {factored}"), m, km));
                }
            }
        }
        let (m, km) = transposed_kernel();
        zoo.push(("transposed inverse_helmholtz(3)".to_string(), m, km));
        let mut tally = [0usize; 3];
        let mut rng = 0x1AD_DE45_u64;
        for (name, m, km) in &zoo {
            let deps = Dependences::analyze(km);
            let mut schedules = vec![
                Schedule::reference(km),
                reschedule(m, km, &deps, &SchedulerOptions),
                fused_schedule(km),
            ];
            schedules.extend((0..6).map(|_| random_schedule(km, &mut rng)));
            for s in &schedules {
                assert_ladder_is_exact(name, m, km, s, &mut tally);
            }
        }
        assert!(
            tally.iter().all(|&t| t > 0),
            "every rung must settle some pair: {tally:?}"
        );
    }

    /// A fused element-wise chain — one `seq`, `micro` 0..3. `t` is live
    /// from micro 0 to 1 of every point and `v` from 2 to 3, so their live
    /// sets are disjoint while their hulls overlap, and `t` is dead at the
    /// later hull start: only the exact rung can decide the pair.
    #[test]
    fn fused_chain_pair_needs_the_exact_rung() {
        let (m, km, mut s) = setup_source(ELEMENTWISE_CHAIN, false);
        s.seq = vec![0; 4];
        s.micro = vec![0, 1, 2, 3];
        let lv = Liveness::analyze(&m, &km, &s);
        let index = |name| lv.index(arr(&m, &km, name));
        assert_eq!(Ladder::new(&lv, &km).corners(index("t"), index("v")), None);

        let base = LadderCounters::snapshot();
        assert!(shares_addresses(&km, &lv, "t", "v"));
        assert!(LadderCounters::snapshot().since(base).expanded >= 1);
        assert_ladder_is_exact("fused chain", &m, &km, &s, &mut [0; 3]);
    }

    /// The merged `live` intervals of `exact` and rung 3's walked ones
    /// against the definition per element, with the write and read tuples
    /// of every array element enumerated one statement instance at a
    /// time: `x` is live when some element has a write `w` and a read `r`
    /// with `w <=lex x <=lex r`. Every write of an element pairs with
    /// every read of it, so per element that is
    /// `min W <=lex x <=lex max R`. Probed at every enumerated tuple and
    /// its one-step neighbours along each axis, which is where membership
    /// changes.
    #[test]
    fn live_sets_match_enumerated_definition() {
        let ex = cfdlang::examples::inverse_helmholtz;
        let kernels = [
            ("inverse_helmholtz(3)", setup_source(&ex(3), false)),
            (
                "inverse_helmholtz(3) factorised",
                setup_source(&ex(3), true),
            ),
            ("axpy(3)", setup_source(&cfdlang::examples::axpy(3), false)),
        ];
        for (name, (m, km, s)) in &kernels {
            let lv = Liveness::analyze(m, km, s);
            let live: HashMap<ArrayId, Vec<Interval>> = lv
                .arrays
                .iter()
                .map(|&a| (a, exact(m, km, s, a).live))
                .collect();
            // Per array, per element: earliest write and latest read.
            type Span = (Option<Vec<i64>>, Option<Vec<i64>>);
            let mut spans: HashMap<ArrayId, Vec<Span>> = lv
                .arrays
                .iter()
                .map(|&a| (a, vec![(None, None); km.layout.arrays[a.0].size]))
                .collect();
            let mut probes: BTreeSet<Vec<i64>> = BTreeSet::new();
            let mut touch = |arr: ArrayId, addr: i64, tuple: &[i64], is_write: bool| {
                let (w, r) = &mut spans.get_mut(&arr).unwrap()[addr as usize];
                if is_write && w.as_deref().is_none_or(|cur| tuple < cur) {
                    *w = Some(tuple.to_vec());
                }
                if !is_write && r.as_deref().is_none_or(|cur| tuple > cur) {
                    *r = Some(tuple.to_vec());
                }
                probes.insert(tuple.to_vec());
            };
            for (si, stmt) in km.stmts.iter().enumerate() {
                for (point, addr) in write_map(km, si) {
                    touch(stmt.write_array, addr, &s.tuple_of(si, &point), true);
                }
                for (k, (ra, _)) in stmt.reads.iter().enumerate() {
                    for (point, addr) in read_map(km, si, k) {
                        touch(*ra, addr, &s.tuple_of(si, &point), false);
                    }
                }
            }
            for &arr in &lv.arrays {
                for addr in 0..km.layout.arrays[arr.0].size as i64 {
                    if holds_kind(m, km, arr, Input) {
                        touch(arr, addr, &s.first_tuple(), true);
                    }
                    if holds_kind(m, km, arr, Output) {
                        touch(arr, addr, &s.last_tuple(), false);
                    }
                }
            }
            for tuple in probes.clone() {
                for d in 0..tuple.len() {
                    for step in [-1, 1] {
                        let mut x = tuple.clone();
                        x[d] += step;
                        probes.insert(x);
                    }
                }
            }
            for (k, &arr) in lv.arrays.iter().enumerate() {
                let array = &km.layout.arrays[arr.0].name;
                let walked = lv.live_intervals(km, k).expect("a small array is walked");
                for x in &probes {
                    let expected = spans[&arr].iter().any(|span| match span {
                        (Some(w), Some(r)) => w <= x && x <= r,
                        _ => false,
                    });
                    assert_eq!(
                        contains(&live[&arr], x),
                        expected,
                        "{name}: {array} at {x:?}"
                    );
                    let in_walk = walked.iter().any(|(w, r)| w <= x && x <= r);
                    assert_eq!(in_walk, expected, "{name}: {array} walked, at {x:?}");
                }
            }
        }
    }

    /// Rung 3 on every generated kernel under the reference and the
    /// compiled schedule: for every array pair, the walked live intervals
    /// overlap iff the enumerated live sets meet.
    #[test]
    fn generated_walks_equal_the_enumeration() {
        let mut pairs = [0usize; 2];
        for (name, m, km) in generated_kernels() {
            let deps = Dependences::analyze(&km);
            let compiled = reschedule(&m, &km, &deps, &SchedulerOptions);
            for s in [Schedule::reference(&km), compiled] {
                let lv = Liveness::analyze(&m, &km, &s);
                let walked: Vec<Vec<Interval>> = (0..lv.arrays.len())
                    .map(|k| {
                        lv.live_intervals(&km, k)
                            .expect("a generated array is walked")
                    })
                    .collect();
                let live: Vec<Vec<Interval>> = (lv.arrays.iter())
                    .map(|&a| exact(&m, &km, &s, a).live)
                    .collect();
                for i in 0..live.len() {
                    for j in i + 1..live.len() {
                        let meet = overlap(&walked[i], &walked[j]);
                        assert_eq!(
                            meet,
                            live_sets_meet(&live[i], &live[j]),
                            "{name}: {i}, {j} under {s:?}"
                        );
                        pairs[meet as usize] += 1;
                    }
                }
            }
        }
        assert!(pairs.iter().all(|&p| p > 0), "{pairs:?}");
    }

    /// A fused element-wise chain over 600 000 elements: each statement
    /// is under [`WALK_CAP`], but `t`'s and `v`'s accesses together are
    /// past it. The pair the exact rung shares at four elements
    /// (`fused_chain_pair_needs_the_exact_rung`) conflicts here, with
    /// nothing walked.
    #[test]
    fn arrays_past_the_walk_cap_conflict_without_a_walk() {
        let source = ELEMENTWISE_CHAIN.replace("[4]", "[600000]");
        let (m, km, mut s) = setup_source(&source, false);
        assert!(km.stmts.iter().all(|st| st.instances() <= WALK_CAP));
        s.seq = vec![0; 4];
        s.micro = vec![0, 1, 2, 3];
        let lv = Liveness::analyze(&m, &km, &s);
        let index = |name| lv.index(arr(&m, &km, name));
        assert_eq!(Ladder::new(&lv, &km).corners(index("t"), index("v")), None);
        assert_eq!(lv.live_intervals(&km, index("t")), None);
        assert!(!shares_addresses(&km, &lv, "t", "v"));
    }
}
