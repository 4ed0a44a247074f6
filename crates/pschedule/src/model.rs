//! Kernel model: iteration boxes and layout-aware access functions.
//!
//! Every IR statement is promoted to a polyhedral statement (Section
//! IV-C: "we promote every assignment to a statement"). Its iteration
//! domain is the box of output × reduction indices
//! ([`PolyStmt::extents`]); each access is an affine address function
//! `addr = c·x + off` ([`LinExpr`]) through the materialized layout (step
//! ⓘⓘ), which makes all downstream analyses layout-aware.
//!
//! The analyses decide from these boxes alone: box corners, the address
//! `image` of a box as a bitset, and, where neither settles a question,
//! a walk of the instances themselves, capped at [`WALK_CAP`] instances.
//! The tests define each access relation by enumeration: every instance
//! of the box with its address `coeffs·x + constant`, evaluated directly.

use teil::ir::{Module, PointExpr};
use teil::layout::{ArrayId, LayoutPlan};

/// An affine expression `coeffs · x + constant` over the iteration
/// variables of one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinExpr {
    /// Coefficient per iteration variable.
    pub coeffs: Vec<i64>,
    /// Constant term.
    pub constant: i64,
}

impl LinExpr {
    /// Build from a slice of coefficients and a constant.
    pub fn new(coeffs: &[i64], constant: i64) -> LinExpr {
        LinExpr {
            coeffs: coeffs.to_vec(),
            constant,
        }
    }

    /// The value at `point`, in `i128`: no layout's address overflows it.
    pub(crate) fn at(&self, point: &[usize]) -> i128 {
        let terms = self.coeffs.iter().zip(point);
        (terms.map(|(&c, &x)| c as i128 * x as i128)).sum::<i128>() + self.constant as i128
    }
}

/// Instances a box walk visits at most: the equal-`seq` legality walk
/// ([`crate::deps::legal`]) and the third liveness rung
/// ([`crate::CompatibilityGraph::build`]) count them from the extents
/// first and, past this cap, answer conservatively without walking
/// ("not legal", "conflict").
pub const WALK_CAP: u64 = 1 << 20;

/// A statement promoted into the polyhedral model.
#[derive(Debug, Clone)]
pub struct PolyStmt {
    /// Index of the underlying IR statement in the module.
    pub stmt_idx: usize,
    /// Extents of the iteration variables (output dims then reduction
    /// dims): the domain is the box `0 ≤ x_d < extents[d]`.
    pub extents: Vec<usize>,
    /// Rank of the output tensor (leading iteration variables).
    pub out_rank: usize,
    /// Write access: iteration point → flat address in `write_array`.
    pub write: LinExpr,
    pub write_array: ArrayId,
    /// Read accesses: (array, iteration point → flat address).
    pub reads: Vec<(ArrayId, LinExpr)>,
}

impl PolyStmt {
    /// Number of iteration variables.
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// Number of instances (points of the domain), saturating.
    pub(crate) fn instances(&self) -> u64 {
        (self.extents.iter()).fold(1, |n, &e| n.saturating_mul(e as u64))
    }

    /// Hand `visit` every instance in lexicographic order, stopping at the
    /// first `true`, which it returns.
    pub(crate) fn walk(&self, mut visit: impl FnMut(&[usize]) -> bool) -> bool {
        if self.extents.contains(&0) {
            return false;
        }
        let mut point = vec![0; self.rank()];
        loop {
            if visit(&point) {
                return true;
            }
            let Some(d) = (0..point.len()).rfind(|&d| point[d] + 1 < self.extents[d]) else {
                return false;
            };
            point[d] += 1;
            point[d + 1..].fill(0);
        }
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

/// Widest span, in addresses, that an address `image` holds. The program flow
/// rejects a layout array wider than this before scheduling, so a
/// compile never asks for a wider image.
pub const MAX_SPAN: i64 = 1 << 24;

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
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use teil::lower::lower;
    use teil::transform::factorize;

    /// Statement `si`'s iteration domain, the box of its extents, point by
    /// point in lexicographic order.
    pub(crate) fn domain(km: &KernelModel, si: usize) -> Vec<Vec<usize>> {
        let mut points = vec![Vec::new()];
        for &extent in &km.stmts[si].extents {
            let mut longer = Vec::new();
            for point in &points {
                for x in 0..extent {
                    longer.push([point.as_slice(), &[x]].concat());
                }
            }
            points = longer;
        }
        points
    }

    /// Every instance of statement `si` with the address `coeffs·x +
    /// constant` that `f` takes there.
    fn access_map(km: &KernelModel, si: usize, f: &LinExpr) -> Vec<(Vec<usize>, i64)> {
        (domain(km, si).into_iter())
            .map(|p| {
                let terms = f.coeffs.iter().zip(&p);
                let addr = terms.fold(f.constant, |addr, (&c, &x)| addr + c * x as i64);
                (p, addr)
            })
            .collect()
    }

    /// Statement `si`'s write relation: every instance with the address it
    /// writes.
    pub(crate) fn write_map(km: &KernelModel, si: usize) -> Vec<(Vec<usize>, i64)> {
        access_map(km, si, &km.stmts[si].write)
    }

    /// Statement `si`'s relation for `reads[k]`.
    pub(crate) fn read_map(km: &KernelModel, si: usize, k: usize) -> Vec<(Vec<usize>, i64)> {
        access_map(km, si, &km.stmts[si].reads[k].1)
    }

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
        let w = write_map(&km, 0);
        assert!(w.contains(&(vec![1, 2, 3, 0, 0, 0], 16 + 8 + 3)));
        assert!(!w.contains(&(vec![1, 2, 3, 0, 0, 0], 0)));
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
        let um = read_map(&km, 0, k);
        assert!(um.contains(&(vec![0, 0, 0, 1, 2, 3], 16 + 8 + 3)));
        assert!(!um.contains(&(vec![1, 2, 3, 0, 0, 0], 16 + 8 + 3)));
    }

    #[test]
    fn factored_model_has_seven_statements() {
        let (_m, km) = model(4, true);
        assert_eq!(km.stmts.len(), 7);
        for s in &km.stmts {
            assert!(s.rank() == 4 || s.rank() == 3);
        }
    }

    /// `walk` visits exactly the domain's points, in lexicographic order,
    /// `instances` of them, and `LinExpr::at` is the access relation.
    #[test]
    fn walk_visits_the_domain_in_lex_order() {
        for factored in [false, true] {
            let (_m, km) = model(3, factored);
            for (si, s) in km.stmts.iter().enumerate() {
                let mut walked = Vec::new();
                assert!(!s.walk(|p| {
                    walked.push(p.to_vec());
                    false
                }));
                assert_eq!(walked, domain(&km, si), "statement {si}");
                assert_eq!(s.instances(), walked.len() as u64);
                for (p, addr) in write_map(&km, si).iter().step_by(7) {
                    assert_eq!(s.write.at(p), *addr as i128);
                }
                let mut stops = 0;
                assert!(s.walk(|_| {
                    stops += 1;
                    stops == 2
                }));
            }
        }
    }

    #[test]
    fn access_outside_domain_rejected() {
        let (_m, km) = model(4, false);
        let w = write_map(&km, 0);
        // No iteration point outside the 0..=3 box is in the relation.
        assert_eq!(w.len(), 4096);
        assert!(w.iter().all(|(p, _)| p.iter().all(|&x| x < 4)));
        assert!(!w.contains(&(vec![4, 0, 0, 0, 0, 0], 64)));
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

    /// The addresses `f` takes over `bx`, enumerated one variable at a
    /// time.
    pub(crate) fn address_set(f: &LinExpr, bx: &[(i64, i64)]) -> BTreeSet<i64> {
        let mut out = BTreeSet::from([f.constant]);
        for (&c, &(lo, hi)) in f.coeffs.iter().zip(bx) {
            out = out
                .iter()
                .flat_map(|&a| (lo..=hi).map(move |x| a + c * x))
                .collect();
        }
        out
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
    /// consecutive images against the enumerated sets.
    #[test]
    fn image_and_meets_match_enumeration() {
        let mut rng = 0x1A6E_5EED_u64;
        let (mut ranks, mut empty, mut verdicts) = ([0usize; 5], 0, [0usize; 2]);
        let mut prev: Option<(BTreeSet<i64>, Image)> = None;
        for _ in 0..400 {
            let (f, bx) = random_access(&mut rng);
            let img = image(&f, &bx).expect("a narrow span is imaged");
            let points = address_set(&f, &bx);
            assert_eq!(addresses(&img), points, "{f:?} over {bx:?}");
            if let Some((prev_points, prev_img)) = &prev {
                let meets = img.meets(prev_img);
                assert_eq!(meets, prev_img.meets(&img));
                assert_eq!(meets, !points.is_disjoint(prev_points), "{f:?} over {bx:?}");
                verdicts[meets as usize] += 1;
            }
            ranks[bx.len()] += 1;
            empty += points.is_empty() as usize;
            prev = Some((points, img));
        }
        assert!(ranks.iter().all(|&r| r > 0), "ranks {ranks:?}");
        assert!(empty > 0 && verdicts.iter().all(|&v| v > 0), "{verdicts:?}");
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
