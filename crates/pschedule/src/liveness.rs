//! Liveness analysis and the memory compatibility graph (Section IV-F).
//!
//! For every array we build the interval relation over schedule tuples
//!
//! ```text
//! P = A⁻¹ ∘ B   where   A : array[i] → [write tuple]
//!                       B : array[i] → [read tuple]
//! ```
//!
//! (the paper's `I = (S×S) ∘ RAW`), restrict it to forward intervals, and
//! expand it with `ge_le` ([`polyhedra::between_set`]) into the set `L` of
//! schedule points at which the array holds a live value. Inputs receive
//! a *virtual write* strictly before every statement (`first`) and
//! outputs a *virtual read* after every statement (`last`), exactly as in
//! the paper's modified virtual schedule.
//!
//! Two arrays are **address-space compatible** when their live sets are
//! disjoint — they may then share addresses. Two arrays are
//! **memory-interface compatible** when no schedule point writes both or
//! reads both — they may then share physical ports. Both relations feed
//! the Mnemosyne configuration (Figure 5 of the paper).

use crate::model::KernelModel;
use crate::schedule::Schedule;
use polyhedra::{between_set_pruned, BasicSet, LinExpr, Map, Set, Space};
use std::collections::HashMap;
use teil::ir::{Module, TensorKind};
use teil::layout::ArrayId;

/// Result of liveness analysis over a schedule.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Schedule-space dimensionality.
    pub dim: usize,
    /// Arrays analyzed (live arrays of the layout plan).
    pub arrays: Vec<ArrayId>,
    /// Live schedule points per array (the paper's `range(L)`).
    pub live: HashMap<ArrayId, Set>,
    /// Schedule points at which each array is written.
    pub writes_at: HashMap<ArrayId, Set>,
    /// Schedule points at which each array is read.
    pub reads_at: HashMap<ArrayId, Set>,
}

impl Liveness {
    /// Run the analysis for a kernel under a schedule (serial).
    pub fn analyze(module: &Module, model: &KernelModel, sched: &Schedule) -> Liveness {
        Liveness::analyze_jobs(module, model, sched, 1)
    }

    /// Run the analysis with up to `jobs` worker threads (`0` = one per
    /// available core). The per-array expansions are independent, so
    /// they stripe across a scoped thread pool; results are merged in
    /// array order, making the outcome bit-identical for every `jobs`
    /// value.
    pub fn analyze_jobs(
        module: &Module,
        model: &KernelModel,
        sched: &Schedule,
        jobs: usize,
    ) -> Liveness {
        let dim = sched.dim;
        let layout = &model.layout;
        let arrays = layout.live_arrays();
        // Per-statement schedule maps are array-independent: build once.
        let stmt_maps: Vec<Map> = (0..model.stmts.len())
            .map(|si| sched.stmt_map(model, si))
            .collect();

        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        } else {
            jobs
        }
        .min(arrays.len().max(1));

        let analyzed: Vec<(Set, Set, Set)> = if jobs <= 1 {
            arrays
                .iter()
                .map(|&arr| analyze_array(module, model, sched, &stmt_maps, dim, arr))
                .collect()
        } else {
            // Worker `w` takes arrays w, w+jobs, ...; reassembling by
            // index restores declaration order exactly.
            let mut indexed: Vec<(usize, (Set, Set, Set))> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs)
                    .map(|w| {
                        let arrays = &arrays;
                        let stmt_maps = &stmt_maps;
                        scope.spawn(move || {
                            (w..arrays.len())
                                .step_by(jobs)
                                .map(|i| {
                                    (
                                        i,
                                        analyze_array(
                                            module, model, sched, stmt_maps, dim, arrays[i],
                                        ),
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("liveness worker panicked"))
                    .collect()
            });
            indexed.sort_by_key(|(i, _)| *i);
            indexed.into_iter().map(|(_, r)| r).collect()
        };

        let mut live = HashMap::new();
        let mut writes_at = HashMap::new();
        let mut reads_at = HashMap::new();
        for (&arr, (l, w, r)) in arrays.iter().zip(analyzed) {
            live.insert(arr, l);
            writes_at.insert(arr, w);
            reads_at.insert(arr, r);
        }
        Liveness {
            dim,
            arrays,
            live,
            writes_at,
            reads_at,
        }
    }

    /// Whether two arrays may share an address space (disjoint live
    /// sets).
    pub fn address_space_compatible(&self, a: ArrayId, b: ArrayId) -> bool {
        self.live[&a].disjoint(&self.live[&b])
    }

    /// Whether two arrays may share memory ports: no schedule point
    /// writes both, and no schedule point reads both.
    pub fn memory_interface_compatible(&self, a: ArrayId, b: ArrayId) -> bool {
        self.writes_at[&a].disjoint(&self.writes_at[&b])
            && self.reads_at[&a].disjoint(&self.reads_at[&b])
    }
}

/// One array's liveness expansion: `(live, writes_at, reads_at)`.
fn analyze_array(
    module: &Module,
    model: &KernelModel,
    sched: &Schedule,
    stmt_maps: &[Map],
    dim: usize,
    arr: ArrayId,
) -> (Set, Set, Set) {
    let layout = &model.layout;
    let arr_decl = &layout.arrays[arr.0];
    let arr_space = Space::set(&arr_decl.name, &["addr"]);
    let arr_dom = BasicSet::boxed(arr_space.clone(), &[(0, arr_decl.size as i64 - 1)]);

    // A : array[addr] → write schedule tuples.
    let mut a = Map::empty(arr_space.clone(), Space::anon(dim));
    for (si, stmt) in model.stmts.iter().enumerate() {
        if stmt.write_array == arr {
            a = a.union(&stmt.write.reverse().compose(&stmt_maps[si]));
        }
    }
    // Virtual write for host-written (input) tensors.
    if holds_kind(module, model, arr, TensorKind::Input) {
        a = a.union(&const_map(&arr_space, &arr_dom, &sched.first_tuple()));
    }

    // B : array[addr] → read schedule tuples.
    let mut b = Map::empty(arr_space.clone(), Space::anon(dim));
    for (si, stmt) in model.stmts.iter().enumerate() {
        for (ra, rm) in &stmt.reads {
            if *ra == arr {
                b = b.union(&rm.reverse().compose(&stmt_maps[si]));
            }
        }
    }
    // Virtual read for host-read (output) tensors.
    if holds_kind(module, model, arr, TensorKind::Output) {
        b = b.union(&const_map(&arr_space, &arr_dom, &sched.last_tuple()));
    }

    // P : write tuple → read tuple over the same element. The
    // seed additionally intersected with `lex_le_map(dim)` to
    // keep forward intervals only; that conjunct is implied
    // inside `between_set` (w <=lex x <=lex r forces w <=lex r by
    // transitivity of the total lex order, and backward pairs
    // expand to empty parts that `prune_empty` drops), so it is
    // omitted — it multiplied the part count by dim+1, and the ge_le
    // expansion pays per part: one table of prefix projections, then a
    // couple of eliminations for each lex split that can hold a point.
    let p = a.reverse().compose(&b);
    let l = between_set_pruned(&p, dim);

    (l, a.range().prune_empty(), b.range().prune_empty())
}

fn holds_kind(module: &Module, model: &KernelModel, arr: ArrayId, kind: TensorKind) -> bool {
    model
        .layout
        .placements
        .iter()
        .any(|p| p.array == arr && module.decl(p.tensor).kind == kind)
}

/// The constant map `{ array[addr] → tuple }` restricted to the array
/// domain.
fn const_map(arr_space: &Space, arr_dom: &BasicSet, tuple: &[i64]) -> Map {
    let exprs: Vec<LinExpr> = tuple.iter().map(|&v| LinExpr::constant(1, v)).collect();
    Map::from_affine(arr_space.clone(), Space::anon(tuple.len()), &exprs)
        .intersect_domain(&Set::from_basic(arr_dom.clone()))
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
    /// Build the graph from a liveness result.
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
        let mut edges = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if lv.address_space_compatible(nodes[i].0, nodes[j].0) {
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
mod tests {
    use super::*;
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn setup(n: usize, factored: bool) -> (Module, KernelModel, Schedule) {
        setup_source(&cfdlang::examples::inverse_helmholtz(n), factored)
    }

    fn setup_source(source: &str, factored: bool) -> (Module, KernelModel, Schedule) {
        let typed = cfdlang::check(&cfdlang::parse(source).unwrap()).unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let s = Schedule::reference(&km);
        (m, km, s)
    }

    fn arr(m: &Module, km: &KernelModel, name: &str) -> ArrayId {
        km.layout.placement(m.find(name).unwrap()).array
    }

    #[test]
    fn inputs_live_from_first() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        let u = arr(&m, &km, "u");
        // u is live at the virtual first tuple and during statement 0.
        assert!(lv.live[&u].contains(&s.first_tuple()));
        let pt0 = s.tuple_of(0, &[0, 0, 0, 0, 0, 0]);
        assert!(lv.live[&u].contains(&pt0));
        // u is dead during statement 1 (Hadamard).
        let pt1 = s.tuple_of(1, &[0, 0, 0]);
        assert!(!lv.live[&u].contains(&pt1));
    }

    #[test]
    fn outputs_live_to_last() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        let v = arr(&m, &km, "v");
        assert!(lv.live[&v].contains(&s.last_tuple()));
        // v is dead during statement 0.
        assert!(!lv.live[&v].contains(&s.tuple_of(0, &[0; 6])));
    }

    #[test]
    fn temp_lifetime_spans_def_to_last_use() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        let t = arr(&m, &km, "t");
        // t written in stmt 0, read in stmt 1.
        assert!(lv.live[&t].contains(&s.tuple_of(0, &[2, 2, 2, 0, 0, 0])));
        assert!(lv.live[&t].contains(&s.tuple_of(1, &[0, 0, 0])));
        // Dead during stmt 2? t is read only by stmt 1.
        assert!(!lv.live[&t].contains(&s.tuple_of(2, &[0; 6])));
    }

    #[test]
    fn u_and_r_are_address_space_compatible() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        let u = arr(&m, &km, "u");
        let r = arr(&m, &km, "r");
        // u dies after stmt 0; r is born at stmt 1.
        assert!(lv.address_space_compatible(u, r));
    }

    #[test]
    fn t_and_r_conflict() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        let t = arr(&m, &km, "t");
        let r = arr(&m, &km, "r");
        // r is written at the points where t is still being read.
        assert!(!lv.address_space_compatible(t, r));
    }

    #[test]
    fn s_conflicts_with_everything_it_overlaps() {
        let (m, km, s) = setup(3, false);
        let lv = Liveness::analyze(&m, &km, &s);
        let s_arr = arr(&m, &km, "S");
        let t = arr(&m, &km, "t");
        let v = arr(&m, &km, "v");
        assert!(!lv.address_space_compatible(s_arr, t));
        assert!(!lv.address_space_compatible(s_arr, v));
    }

    #[test]
    fn factored_temp_chain_compatibilities() {
        let (m, km, s) = setup(3, true);
        let lv = Liveness::analyze(&m, &km, &s);
        let t0 = arr(&m, &km, "t0");
        let t1 = arr(&m, &km, "t1");
        let t2 = arr(&m, &km, "t2");
        let t = arr(&m, &km, "t");
        // Adjacent stages conflict; stages two apart are compatible.
        assert!(!lv.address_space_compatible(t0, t1));
        assert!(lv.address_space_compatible(t0, t));
        assert!(lv.address_space_compatible(t0, t2));
        assert!(lv.address_space_compatible(t1, t2));
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

    /// The `live` sets against the definition itself, with the write and
    /// read tuples of every array element enumerated one statement
    /// instance at a time: `x` is live when some element has a write `w`
    /// and a read `r` with `w <=lex x <=lex r`. Every write of an element
    /// pairs with every read of it, so per element that is
    /// `min W <=lex x <=lex max R`. Probed at every enumerated tuple and
    /// its one-step neighbours along each axis, which is where membership
    /// changes.
    #[test]
    fn live_sets_match_enumerated_definition() {
        use std::collections::BTreeSet;
        use teil::ir::TensorKind::{Input, Output};
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
            // Per array, per element: earliest write and latest read.
            type Span = (Option<Vec<i64>>, Option<Vec<i64>>);
            let mut spans: HashMap<ArrayId, Vec<Span>> = lv
                .arrays
                .iter()
                .map(|&a| (a, vec![(None, None); km.layout.arrays[a.0].size]))
                .collect();
            let mut probes: BTreeSet<Vec<i64>> = BTreeSet::new();
            let mut touch = |arr: ArrayId, addr: usize, tuple: &[i64], is_write: bool| {
                let (w, r) = &mut spans.get_mut(&arr).unwrap()[addr];
                if is_write && w.as_deref().is_none_or(|cur| tuple < cur) {
                    *w = Some(tuple.to_vec());
                }
                if !is_write && r.as_deref().is_none_or(|cur| tuple > cur) {
                    *r = Some(tuple.to_vec());
                }
                probes.insert(tuple.to_vec());
            };
            let address = |access: &Map, point: &[i64], size: usize| {
                (0..size)
                    .find(|&a| access.contains(point, &[a as i64]))
                    .expect("every instance touches one element")
            };
            for (si, stmt) in km.stmts.iter().enumerate() {
                for point in stmt.domain.points() {
                    let instance: Vec<usize> = point.iter().map(|&v| v as usize).collect();
                    let tuple = s.tuple_of(si, &instance);
                    let size = |a: ArrayId| km.layout.arrays[a.0].size;
                    let w = stmt.write_array;
                    touch(w, address(&stmt.write, &point, size(w)), &tuple, true);
                    for (ra, access) in &stmt.reads {
                        touch(*ra, address(access, &point, size(*ra)), &tuple, false);
                    }
                }
            }
            for &arr in &lv.arrays {
                for addr in 0..km.layout.arrays[arr.0].size {
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
            for &arr in &lv.arrays {
                let array = &km.layout.arrays[arr.0].name;
                for x in &probes {
                    let live = spans[&arr].iter().any(|span| match span {
                        (Some(w), Some(r)) => w <= x && x <= r,
                        _ => false,
                    });
                    assert_eq!(lv.live[&arr].contains(x), live, "{name}: {array} at {x:?}");
                }
            }
        }
    }
}
