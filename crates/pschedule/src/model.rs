//! Polyhedral statement model: iteration domains and layout-aware access
//! relations.
//!
//! Every IR statement is promoted to a polyhedral statement (Section
//! IV-C: "we promote every assignment to a statement"). Its iteration
//! domain is the rectangular set of output × reduction indices; its
//! *access relations* map iteration points to flat array addresses
//! through the materialized layout (step ⓘⓘ), which is what makes all
//! downstream analyses layout-aware.

use polyhedra::{BasicMap, BasicSet, LinExpr, Map, Space, System};
use teil::ir::{Module, PointExpr};
use teil::layout::{ArrayId, LayoutPlan};

/// A statement promoted into the polyhedral model.
#[derive(Debug, Clone)]
pub struct PolyStmt {
    /// Index of the underlying IR statement in the module.
    pub stmt_idx: usize,
    /// Statement space `Sk[x0..x_{r-1}]`.
    pub space: Space,
    /// Rectangular iteration domain (output dims then reduction dims).
    pub domain: BasicSet,
    /// Extents of the iteration variables.
    pub extents: Vec<usize>,
    /// Rank of the output tensor (leading iteration variables).
    pub out_rank: usize,
    /// Write access: iteration point → flat address in `write_array`.
    pub write: Map,
    pub write_array: ArrayId,
    /// Read accesses: (array, iteration point → flat address).
    pub reads: Vec<(ArrayId, Map)>,
}

impl PolyStmt {
    /// Number of iteration variables.
    pub fn rank(&self) -> usize {
        self.extents.len()
    }
}

/// The polyhedral model of a whole kernel: statements plus the layout
/// they were materialized against.
#[derive(Debug, Clone)]
pub struct KernelModel {
    pub stmts: Vec<PolyStmt>,
    pub layout: LayoutPlan,
}

impl KernelModel {
    /// Build the model from an IR module and a layout plan.
    pub fn build(module: &Module, layout: &LayoutPlan) -> KernelModel {
        let stmts = module
            .stmts
            .iter()
            .enumerate()
            .map(|(i, stmt)| {
                let extents = module.iter_extents(stmt);
                let rank = extents.len();
                let dims: Vec<String> = (0..rank).map(|d| format!("x{d}")).collect();
                let dim_refs: Vec<&str> = dims.iter().map(String::as_str).collect();
                let space = Space::set(&format!("S{i}"), &dim_refs);
                let bounds: Vec<(i64, i64)> = extents.iter().map(|&e| (0, e as i64 - 1)).collect();
                let domain = BasicSet::boxed(space.clone(), &bounds);
                let out_rank = module.shape(stmt.out).len();

                // Write access: out[x0..x_{out_rank-1}] through layout.
                let wp = layout.placement(stmt.out);
                let write_expr = access_expr(
                    rank,
                    &(0..out_rank).collect::<Vec<_>>(),
                    &wp.strides,
                    wp.offset,
                );
                let arr_name = layout.arrays[wp.array.0].name.clone();
                let write = Map::from_basic(
                    BasicMap::from_affine(
                        space.clone(),
                        Space::set(&arr_name, &["addr"]),
                        &[write_expr],
                    )
                    .intersect_domain(&domain),
                );

                // Read accesses.
                let mut reads = Vec::new();
                collect_reads(&stmt.expr, |tensor, index_map| {
                    let p = layout.placement(tensor);
                    let e = access_expr(rank, index_map, &p.strides, p.offset);
                    let an = layout.arrays[p.array.0].name.clone();
                    let m = Map::from_basic(
                        BasicMap::from_affine(space.clone(), Space::set(&an, &["addr"]), &[e])
                            .intersect_domain(&domain),
                    );
                    reads.push((p.array, m));
                });

                PolyStmt {
                    stmt_idx: i,
                    space,
                    domain,
                    extents,
                    out_rank,
                    write,
                    write_array: wp.array,
                    reads,
                }
            })
            .collect();
        KernelModel {
            stmts,
            layout: layout.clone(),
        }
    }

    /// All arrays written by some statement.
    pub fn written_arrays(&self) -> Vec<ArrayId> {
        let mut out: Vec<ArrayId> = Vec::new();
        for s in &self.stmts {
            if !out.contains(&s.write_array) {
                out.push(s.write_array);
            }
        }
        out
    }
}

/// Build the affine address expression for an access with `index_map`
/// through `strides`/`offset`, over `rank` iteration variables.
fn access_expr(rank: usize, index_map: &[usize], strides: &[i64], offset: i64) -> LinExpr {
    let mut coeffs = vec![0i64; rank];
    for (d, &v) in index_map.iter().enumerate() {
        coeffs[v] += strides[d];
    }
    LinExpr::new(&coeffs, offset)
}

/// Whether two access systems, each over (iteration point, address) of
/// its own statement, touch a common address: joined over one shared
/// address variable, they are non-empty.
pub(crate) fn share_address(a: &System, b: &System) -> bool {
    let (ra, rb) = (a.n_vars() - 1, b.n_vars() - 1);
    !a.insert_vars(ra, rb)
        .intersect(&b.insert_vars(0, ra))
        .is_empty()
}

fn collect_reads(e: &PointExpr, mut f: impl FnMut(teil::ir::TensorId, &[usize])) {
    e.walk(&mut |node| {
        if let PointExpr::Access { tensor, index_map } = node {
            f(*tensor, index_map);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn model(n: usize, factor: bool) -> (Module, KernelModel) {
        let typed =
            cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(n)).unwrap())
                .unwrap();
        let mut m = lower(&typed).unwrap();
        if factor {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        (m, km)
    }

    #[test]
    fn domains_are_boxes_of_right_volume() {
        let (m, km) = model(4, false);
        assert_eq!(km.stmts.len(), 3);
        // First contraction: 4^6 points.
        assert_eq!(km.stmts[0].rank(), 6);
        assert_eq!(km.stmts[0].extents, vec![4; 6]);
        // Hadamard: 4^3.
        assert_eq!(km.stmts[1].rank(), 3);
        drop(m);
    }

    #[test]
    fn write_access_is_row_major() {
        let (_m, km) = model(4, false);
        // t[x0,x1,x2] -> addr 16*x0 + 4*x1 + x2.
        let w = &km.stmts[0].write;
        assert!(w.contains(&[1, 2, 3, 0, 0, 0], &[16 + 8 + 3]));
        assert!(!w.contains(&[1, 2, 3, 0, 0, 0], &[0]));
    }

    #[test]
    fn read_accesses_cover_all_factors() {
        let (_m, km) = model(4, false);
        // Contraction body reads S three times and u once.
        assert_eq!(km.stmts[0].reads.len(), 4);
        // Hadamard reads D and t.
        assert_eq!(km.stmts[1].reads.len(), 2);
    }

    #[test]
    fn read_access_respects_index_map() {
        let (m, km) = model(4, false);
        // u[x3,x4,x5] in the first contraction.
        let u = m.find("u").unwrap();
        let plan = &km.layout;
        let ua = plan.placement(u).array;
        let (_, um) = km.stmts[0]
            .reads
            .iter()
            .find(|(a, _)| *a == ua)
            .expect("u read");
        assert!(um.contains(&[0, 0, 0, 1, 2, 3], &[16 + 8 + 3]));
        assert!(!um.contains(&[1, 2, 3, 0, 0, 0], &[16 + 8 + 3]));
    }

    #[test]
    fn factored_model_has_seven_statements() {
        let (_m, km) = model(4, true);
        assert_eq!(km.stmts.len(), 7);
        for s in &km.stmts {
            assert!(s.rank() == 4 || s.rank() == 3);
        }
    }

    #[test]
    fn access_outside_domain_rejected() {
        let (_m, km) = model(4, false);
        let w = &km.stmts[0].write;
        // Iteration point outside the 0..=3 box is not in the relation.
        assert!(!w.contains(&[4, 0, 0, 0, 0, 0], &[64]));
    }

    #[test]
    fn repeated_operand_counts_once_per_access() {
        let (m, km) = model(4, false);
        let s_id = m.find("S").unwrap();
        let sa = km.layout.placement(s_id).array;
        let s_reads = km.stmts[0].reads.iter().filter(|(a, _)| *a == sa).count();
        assert_eq!(s_reads, 3, "S appears three times in the contraction");
    }
}
