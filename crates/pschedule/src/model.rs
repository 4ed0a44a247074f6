//! Polyhedral statement model: iteration domains and layout-aware access
//! functions.
//!
//! Every IR statement is promoted to a polyhedral statement (Section
//! IV-C: "we promote every assignment to a statement"). Its iteration
//! domain is the rectangular set of output × reduction indices; each
//! access is an address function `addr = c·x + off` through the
//! materialized layout (step ⓘⓘ), which makes all downstream analyses
//! layout-aware, and is a map only on demand ([`KernelModel::write_map`]).

use polyhedra::{BasicMap, BasicSet, LinExpr, Map, Space};
use std::sync::OnceLock;
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
    pub write: LinExpr,
    pub write_array: ArrayId,
    /// Read accesses: (array, iteration point → flat address).
    pub reads: Vec<(ArrayId, LinExpr)>,
    /// The write map, then one map per read, once asked for.
    maps: OnceLock<Vec<Map>>,
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
                let write = access_expr(rank, &Vec::from_iter(0..out_rank), &wp.strides, wp.offset);

                // Read accesses.
                let mut reads = Vec::new();
                collect_reads(&stmt.expr, |tensor, index_map| {
                    let p = layout.placement(tensor);
                    reads.push((p.array, access_expr(rank, index_map, &p.strides, p.offset)));
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
                    maps: OnceLock::new(),
                }
            })
            .collect();
        KernelModel {
            stmts,
            layout: layout.clone(),
        }
    }

    /// Statement `si`'s write relation `Sk[x] → array[addr]`.
    pub fn write_map(&self, si: usize) -> &Map {
        &self.maps(si)[0]
    }

    /// Statement `si`'s relation for `reads[k]`.
    pub fn read_map(&self, si: usize, k: usize) -> &Map {
        &self.maps(si)[k + 1]
    }

    fn maps(&self, si: usize) -> &[Map] {
        let s = &self.stmts[si];
        s.maps.get_or_init(|| {
            let accesses = std::iter::once((s.write_array, &s.write))
                .chain(s.reads.iter().map(|(a, f)| (*a, f)));
            let map = |(arr, f): (ArrayId, &LinExpr)| {
                let range = Space::set(&self.layout.arrays[arr.0].name, &["addr"]);
                let bm = BasicMap::from_affine(s.space.clone(), range, std::slice::from_ref(f));
                Map::from_basic(bm.intersect_domain(&s.domain))
            };
            accesses.map(map).collect()
        })
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

/// Widest span, in addresses, that an [`Image`] holds.
const MAX_SPAN: i64 = 1 << 24;

/// A set of addresses as a bitset: bit `i` is address `lo + i`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Image {
    lo: i64,
    words: Vec<u64>,
}

impl Image {
    /// The 64 addresses from `lo + rel` up, as one word (a negative word
    /// index wraps past the end).
    fn word_at(&self, rel: i64) -> u64 {
        let word = |q: i64| self.words.get(q as usize).map_or(0, |w| *w);
        let (q, r) = (rel.div_euclid(64), rel.rem_euclid(64));
        word(q) >> r | word(q + 1) << 1 << (63 - r)
    }

    /// Whether the two sets share an address. Neither spans `2·MAX_SPAN`,
    /// so clamping their distance there keeps far-apart sets apart.
    pub(crate) fn meets(&self, other: &Image) -> bool {
        let d = (other.lo.saturating_sub(self.lo)).clamp(-2 * MAX_SPAN, 2 * MAX_SPAN);
        (other.words.iter().enumerate()).any(|(i, &w)| w & self.word_at(d + 64 * i as i64) != 0)
    }
}

/// The addresses `f` takes over the box `bx` (one `(lo, hi)` per
/// variable; empty when some `lo > hi`): the Minkowski sum of the strided
/// ranges `{|c_v|·k : k ≤ hi_v − lo_v}` from the lowest address, built by
/// shift-or over its own span, so exact wherever the addresses lie.
/// `None` when the span overflows or is wider than [`MAX_SPAN`].
pub(crate) fn image(f: &LinExpr, bx: &[(i64, i64)]) -> Option<Image> {
    if bx.iter().any(|&(lo, hi)| lo > hi) {
        return Some(Image::default());
    }
    let (mut lo, mut width) = (f.constant, 0i64);
    for (&c, &(vlo, vhi)) in f.coeffs.iter().zip(bx) {
        lo = lo.checked_add(c.checked_mul(if c < 0 { vhi } else { vlo })?)?;
        width = width.checked_add(c.checked_abs()?.checked_mul(vhi.checked_sub(vlo)?)?)?;
    }
    lo.checked_add(width).filter(|_| width < MAX_SPAN)?;
    let mut words = vec![0; width as usize / 64 + 1];
    words[0] = 1;
    let mut img = Image { lo, words };
    for (&c, &(vlo, vhi)) in f.coeffs.iter().zip(bx) {
        // With `img = base + {0..=done}·|c|`, or-ing in `img << s·|c|`
        // for `s ≤ done + 1` extends it to `base + {0..=done + s}·|c|`.
        let (step, n, mut done) = (c.abs(), vhi - vlo, 0);
        while step > 0 && done < n {
            let s = (done + 1).min(n - done);
            for i in (0..img.words.len()).rev() {
                img.words[i] |= img.word_at(64 * i as i64 - s * step);
            }
            done += s;
        }
    }
    Some(img)
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
    use polyhedra::System;
    use std::collections::BTreeSet;
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
        let w = km.write_map(0);
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
        let k = km.stmts[0]
            .reads
            .iter()
            .position(|(a, _)| *a == ua)
            .expect("u read");
        let um = km.read_map(0, k);
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
        let w = km.write_map(0);
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

    /// The addresses an image holds.
    fn addresses(img: &Image) -> BTreeSet<i64> {
        let bits = img.words.iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w >> b & 1 == 1)
                .map(move |b| 64 * i as i64 + b)
        });
        bits.map(|rel| img.lo + rel).collect()
    }

    /// The addresses `f` takes over `bx`, point by point.
    fn enumerate(f: &LinExpr, bx: &[(i64, i64)]) -> BTreeSet<i64> {
        let mut out = BTreeSet::from([f.constant]);
        for (&c, &(lo, hi)) in f.coeffs.iter().zip(bx) {
            out = out
                .iter()
                .flat_map(|&a| (lo..=hi).map(move |x| a + c * x))
                .collect();
        }
        out
    }

    /// The access system over (iteration point, address) on a box.
    fn access_system(f: &LinExpr, bx: &[(i64, i64)]) -> System {
        let space = Space::named("S", bx.len());
        let range = Space::set("A", &["addr"]);
        BasicMap::from_affine(space.clone(), range, std::slice::from_ref(f))
            .intersect_domain(&BasicSet::boxed(space, bx))
            .system
    }

    /// The reference definition of two accesses meeting: their systems,
    /// joined over one shared address variable, are non-empty.
    fn share_address(a: &System, b: &System) -> bool {
        let (ra, rb) = (a.n_vars() - 1, b.n_vars() - 1);
        !a.insert_vars(ra, rb)
            .intersect(&b.insert_vars(0, ra))
            .is_empty()
    }

    /// A random access of rank 0–4 over a box of extents 1–12 (or an
    /// empty box), with zero, negative and non-row-major coefficients
    /// and an offset in `-100..=100`.
    fn random_access(rng: &mut u64) -> (LinExpr, Vec<(i64, i64)>) {
        let mut next = |bound: i64| {
            *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as i64
        };
        const COEFFS: [i64; 10] = [0, 1, -1, 2, -3, 4, 7, -12, 13, 144];
        let rank = next(5) as usize;
        let coeffs: Vec<i64> = (0..rank).map(|_| COEFFS[next(10) as usize]).collect();
        let bx = (0..rank)
            .map(|_| {
                let lo = next(7) - 3;
                match next(10) {
                    0 => (lo, lo - 1),
                    1 => (lo, lo),
                    _ => (lo, lo + next(12)),
                }
            })
            .collect();
        (LinExpr::new(&coeffs, next(201) - 100), bx)
    }

    /// `image` against point-by-point enumeration, and `meets` of
    /// consecutive images against the enumerated sets and the joined
    /// systems. FM can miss that a join is empty over the integers (see
    /// `System::is_empty`), so the joined systems only bound `meets` from
    /// above; `loose` counts the joins where they do.
    #[test]
    fn image_matches_enumeration_and_meets_the_joined_systems() {
        let mut rng = 0x1A6E_5EED_u64;
        let (mut ranks, mut empty, mut verdicts, mut loose) = ([0usize; 5], 0, [0usize; 2], 0);
        let mut prev: Option<(System, BTreeSet<i64>, Image)> = None;
        for _ in 0..400 {
            let (f, bx) = random_access(&mut rng);
            let img = image(&f, &bx).expect("a narrow span is imaged");
            let points = enumerate(&f, &bx);
            assert_eq!(addresses(&img), points, "{f:?} over {bx:?}");
            let sys = access_system(&f, &bx);
            if let Some((prev_sys, prev_points, prev_img)) = &prev {
                let meets = img.meets(prev_img);
                assert_eq!(meets, prev_img.meets(&img));
                assert_eq!(meets, !points.is_disjoint(prev_points), "{f:?} over {bx:?}");
                let joined = share_address(&sys, prev_sys);
                assert!(joined || !meets, "{f:?} over {bx:?}");
                loose += (joined != meets) as usize;
                verdicts[meets as usize] += 1;
            }
            ranks[bx.len()] += 1;
            empty += points.is_empty() as usize;
            prev = Some((sys, points, img));
        }
        assert!(ranks.iter().all(|&r| r > 0), "ranks {ranks:?}");
        assert!(empty > 0 && verdicts.iter().all(|&v| v > 0), "{verdicts:?}");
        assert!(
            loose * 10 < verdicts[0],
            "{loose} loose joins of {verdicts:?}"
        );
    }

    /// Addresses below or past any array are imaged as they are, spans
    /// that do not overlap never meet, and a span that overflows or is
    /// too wide is not imaged, all without a panic.
    #[test]
    fn spans_outside_the_array_are_just_addresses() {
        let f = |c: &[i64], off: i64| LinExpr::new(c, off);
        let bx = [(0, 2), (0, 4)];
        let below = image(&f(&[1, 3], -1000), &bx).unwrap();
        let past = image(&f(&[1, 3], 1 << 40), &bx).unwrap();
        assert_eq!(addresses(&below), (-1000..-985).collect());
        assert!(!below.meets(&past) && !past.meets(&below));
        let top = image(&f(&[1, 3], i64::MAX - 20), &bx).unwrap();
        let bottom = image(&f(&[1, 3], i64::MIN), &bx).unwrap();
        assert!(!top.meets(&bottom) && !bottom.meets(&top) && top.meets(&top));
        let empty = image(&f(&[1, 3], 0), &[(0, 2), (3, 2)]).unwrap();
        assert!(addresses(&empty).is_empty() && !empty.meets(&below) && !below.meets(&empty));
        for (c, off, bx) in [
            (i64::MAX, 1, (0, 1)),
            (i64::MIN, 0, (0, 1)),
            (2, i64::MAX - 1, (0, 3)),
            (1, 0, (i64::MIN, i64::MAX)),
            (1 << 30, 0, (0, 2)),
        ] {
            assert_eq!(
                image(&f(&[c], off), &[bx]),
                None,
                "{c}·x + {off} over {bx:?}"
            );
        }
    }
}
