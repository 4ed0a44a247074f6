//! Affine relations between named spaces.
//!
//! A [`BasicMap`] from space `A` (arity `m`) to space `B` (arity `n`) is a
//! conjunction of affine constraints over the concatenated variable vector
//! `(a_0..a_{m-1}, b_0..b_{n-1})`. A [`Map`] is a finite union of basic
//! maps. The algebra (compose, product, apply, reverse, domain/range)
//! is everything the CFDlang flow needs for operand maps, schedules,
//! dependence analysis and liveness.

use crate::constraint::Constraint;
use crate::linexpr::LinExpr;
use crate::set::{BasicSet, Set};
use crate::space::Space;
use crate::system::System;
use std::fmt;

/// A single affine relation between two named spaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicMap {
    pub in_space: Space,
    pub out_space: Space,
    /// Constraints over `in_dims ++ out_dims`.
    pub system: System,
}

impl BasicMap {
    /// The universal relation.
    pub fn universe(in_space: Space, out_space: Space) -> Self {
        let system = System::universe(in_space.dim() + out_space.dim());
        BasicMap {
            in_space,
            out_space,
            system,
        }
    }

    /// The empty relation.
    pub fn empty(in_space: Space, out_space: Space) -> Self {
        let system = System::infeasible(in_space.dim() + out_space.dim());
        BasicMap {
            in_space,
            out_space,
            system,
        }
    }

    /// The graph of an affine function: `out_d = exprs[d](in)` where each
    /// expression ranges over the input dimensions only.
    pub fn from_affine(in_space: Space, out_space: Space, exprs: &[LinExpr]) -> Self {
        let m = in_space.dim();
        let n = out_space.dim();
        assert_eq!(exprs.len(), n, "one expression per output dim");
        let mut system = System::universe(m + n);
        for (d, e) in exprs.iter().enumerate() {
            assert_eq!(e.n_vars(), m, "expression over input dims");
            // out_d - e(in) = 0 over (in ++ out).
            let mut row = e.insert_vars(m, n).scale(-1);
            row.coeffs[m + d] += 1;
            system.add(Constraint::eq(row));
        }
        BasicMap {
            in_space,
            out_space,
            system,
        }
    }

    /// The identity map over a space.
    pub fn identity(space: Space) -> Self {
        let n = space.dim();
        let exprs: Vec<LinExpr> = (0..n).map(|d| LinExpr::var(n, d)).collect();
        BasicMap::from_affine(space.clone(), space, &exprs)
    }

    pub fn n_in(&self) -> usize {
        self.in_space.dim()
    }

    pub fn n_out(&self) -> usize {
        self.out_space.dim()
    }

    /// Whether `(input, output)` is in the relation.
    pub fn contains(&self, input: &[i64], output: &[i64]) -> bool {
        let mut pt = Vec::with_capacity(input.len() + output.len());
        pt.extend_from_slice(input);
        pt.extend_from_slice(output);
        self.system.holds(&pt)
    }

    /// Swap input and output.
    pub fn reverse(&self) -> BasicMap {
        let m = self.n_in();
        let n = self.n_out();
        let mut system = System::universe(m + n);
        for c in self.system.constraints() {
            // Permute (in ++ out) -> (out ++ in).
            let mut coeffs = vec![0i64; m + n];
            coeffs[n..n + m].copy_from_slice(&c.expr.coeffs[..m]);
            coeffs[..n].copy_from_slice(&c.expr.coeffs[m..m + n]);
            system.add(Constraint {
                kind: c.kind,
                expr: LinExpr::new(&coeffs, c.expr.constant),
            });
        }
        if self.system.known_infeasible() {
            system = System::infeasible(m + n);
        }
        BasicMap {
            in_space: self.out_space.clone(),
            out_space: self.in_space.clone(),
            system,
        }
    }

    /// The domain (inputs with at least one output).
    pub fn domain(&self) -> BasicSet {
        let n = self.n_out();
        let sys = self.system.eliminate_range(self.n_in(), n);
        BasicSet::from_system(self.in_space.clone(), sys)
    }

    /// The range (outputs reachable from some input).
    pub fn range(&self) -> BasicSet {
        let m = self.n_in();
        let sys = self.system.eliminate_range(0, m);
        BasicSet::from_system(self.out_space.clone(), sys)
    }

    /// Restrict the domain to a basic set.
    pub fn intersect_domain(&self, dom: &BasicSet) -> BasicMap {
        assert!(dom.space.compatible(&self.in_space));
        let lifted = dom.system.insert_vars(dom.dim(), self.n_out());
        BasicMap {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            system: self.system.intersect(&lifted),
        }
    }

    /// Relational composition `other ∘ self`: `self: A→B`, `other: B→C`,
    /// result `A→C` (`{(a,c) : ∃b. self(a,b) ∧ other(b,c)}`).
    pub fn compose(&self, other: &BasicMap) -> BasicMap {
        assert!(
            self.out_space.compatible(&other.in_space),
            "compose: {} vs {}",
            self.out_space,
            other.in_space
        );
        let a = self.n_in();
        let b = self.n_out();
        let c = other.n_out();
        // Variables (a, b, c).
        let s1 = self.system.insert_vars(a + b, c);
        let s2 = other.system.insert_vars(0, a);
        let joined = s1.intersect(&s2);
        let sys = joined.eliminate_range(a, b);
        BasicMap {
            in_space: self.in_space.clone(),
            out_space: other.out_space.clone(),
            system: sys,
        }
    }

    /// Cartesian product: `self: A→B`, `other: C→D`, result
    /// `(A×C) → (B×D)` with concatenated tuples.
    pub fn product(&self, other: &BasicMap) -> BasicMap {
        let a = self.n_in();
        let b = self.n_out();
        let c = other.n_in();
        let d = other.n_out();
        // Target variable order: (a, c, b, d).
        let s1 = self
            .system
            .insert_vars(a, c) // (a, c, b)
            .insert_vars(a + c + b, d); // (a, c, b, d)
        let s2 = other
            .system
            .insert_vars(0, a) // (a, c, d)
            .insert_vars(a + c, b); // (a, c, b, d)
        let in_space = concat_spaces(&self.in_space, &other.in_space);
        let out_space = concat_spaces(&self.out_space, &other.out_space);
        BasicMap {
            in_space,
            out_space,
            system: s1.intersect(&s2),
        }
    }

    /// Apply the relation to a basic set: image of `dom`.
    pub fn apply(&self, dom: &BasicSet) -> BasicSet {
        self.intersect_domain(dom).range()
    }

    /// View the relation as a set over the concatenated space.
    pub fn wrap(&self) -> BasicSet {
        let space = concat_spaces(&self.in_space, &self.out_space);
        BasicSet::from_system(space, self.system.clone())
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.system.is_empty()
    }

    /// Intersect two relations over the same spaces.
    pub fn intersect(&self, other: &BasicMap) -> BasicMap {
        assert!(self.in_space.compatible(&other.in_space));
        assert!(self.out_space.compatible(&other.out_space));
        BasicMap {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            system: self.system.intersect(&other.system),
        }
    }
}

/// Concatenate two spaces into an anonymous product space.
pub fn concat_spaces(a: &Space, b: &Space) -> Space {
    let tuple = if a.tuple.is_empty() && b.tuple.is_empty() {
        String::new()
    } else {
        format!("{}*{}", a.tuple, b.tuple)
    };
    let mut dims = a.dims.clone();
    dims.extend(b.dims.iter().cloned());
    Space { tuple, dims }
}

impl fmt::Display for BasicMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self
            .in_space
            .dims
            .iter()
            .chain(self.out_space.dims.iter())
            .cloned()
            .collect();
        let cs: Vec<String> = self
            .system
            .constraints()
            .iter()
            .map(|c| c.display(&names))
            .collect();
        write!(
            f,
            "{{ {} -> {}{} }}",
            self.in_space,
            self.out_space,
            if cs.is_empty() {
                String::new()
            } else {
                format!(" : {}", cs.join(" and "))
            }
        )
    }
}

/// A finite union of basic maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Map {
    pub in_space: Space,
    pub out_space: Space,
    pub parts: Vec<BasicMap>,
}

impl Map {
    /// The empty relation.
    pub fn empty(in_space: Space, out_space: Space) -> Self {
        Map {
            in_space,
            out_space,
            parts: Vec::new(),
        }
    }

    /// A map from one basic map.
    pub fn from_basic(bm: BasicMap) -> Self {
        Map {
            in_space: bm.in_space.clone(),
            out_space: bm.out_space.clone(),
            parts: vec![bm],
        }
    }

    /// The graph of an affine function.
    pub fn from_affine(in_space: Space, out_space: Space, exprs: &[LinExpr]) -> Self {
        Map::from_basic(BasicMap::from_affine(in_space, out_space, exprs))
    }

    /// Union.
    pub fn union(&self, other: &Map) -> Map {
        assert!(self.in_space.compatible(&other.in_space));
        assert!(self.out_space.compatible(&other.out_space));
        let mut parts = self.parts.clone();
        parts.extend(other.parts.iter().cloned());
        Map {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            parts,
        }
    }

    /// Add one basic map.
    pub fn union_basic(&self, bm: BasicMap) -> Map {
        let mut out = self.clone();
        out.parts.push(bm);
        out
    }

    /// Reverse every part.
    pub fn reverse(&self) -> Map {
        Map {
            in_space: self.out_space.clone(),
            out_space: self.in_space.clone(),
            parts: self.parts.iter().map(|p| p.reverse()).collect(),
        }
    }

    /// Pairwise composition `other ∘ self`.
    pub fn compose(&self, other: &Map) -> Map {
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                let c = a.compose(b);
                if !c.system.known_infeasible() {
                    parts.push(c);
                }
            }
        }
        Map {
            in_space: self.in_space.clone(),
            out_space: other.out_space.clone(),
            parts,
        }
    }

    /// Pairwise cartesian product.
    pub fn product(&self, other: &Map) -> Map {
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                parts.push(a.product(b));
            }
        }
        let in_space = concat_spaces(&self.in_space, &other.in_space);
        let out_space = concat_spaces(&self.out_space, &other.out_space);
        Map {
            in_space,
            out_space,
            parts,
        }
    }

    /// Image of a set.
    pub fn apply(&self, dom: &Set) -> Set {
        let mut parts = Vec::new();
        for m in &self.parts {
            for d in &dom.parts {
                let r = m.apply(d);
                if !r.system.known_infeasible() {
                    parts.push(r);
                }
            }
        }
        Set {
            space: self.out_space.clone(),
            parts,
        }
        .coalesce()
    }

    /// Domain of the union.
    pub fn domain(&self) -> Set {
        Set {
            space: self.in_space.clone(),
            parts: self.parts.iter().map(|p| p.domain()).collect(),
        }
        .coalesce()
    }

    /// Range of the union.
    pub fn range(&self) -> Set {
        Set {
            space: self.out_space.clone(),
            parts: self.parts.iter().map(|p| p.range()).collect(),
        }
        .coalesce()
    }

    /// Restrict domains.
    pub fn intersect_domain(&self, dom: &Set) -> Map {
        let mut parts = Vec::new();
        for m in &self.parts {
            for d in &dom.parts {
                let r = m.intersect_domain(d);
                if !r.system.known_infeasible() {
                    parts.push(r);
                }
            }
        }
        Map {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            parts,
        }
    }

    /// Intersect relations.
    pub fn intersect(&self, other: &Map) -> Map {
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                let c = a.intersect(b);
                if !c.system.known_infeasible() {
                    parts.push(c);
                }
            }
        }
        Map {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            parts,
        }
    }

    /// View as a set over the concatenated space.
    pub fn wrap(&self) -> Set {
        let space = concat_spaces(&self.in_space, &self.out_space);
        Set {
            space,
            parts: self.parts.iter().map(|p| p.wrap()).collect(),
        }
    }

    /// Whether the union is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// Whether `(input, output)` is in the relation.
    pub fn contains(&self, input: &[i64], output: &[i64]) -> bool {
        self.parts.iter().any(|p| p.contains(input, output))
    }
}

impl fmt::Display for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "{{ {} -> {} : false }}", self.in_space, self.out_space);
        }
        let parts: Vec<String> = self.parts.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spa() -> Space {
        Space::set("a", &["i", "j"])
    }
    fn spb() -> Space {
        Space::set("b", &["x"])
    }

    #[test]
    fn affine_graph_contains() {
        // b[x] = a[i, j] with x = i + 2j + 1
        let m = BasicMap::from_affine(spa(), spb(), &[LinExpr::new(&[1, 2], 1)]);
        assert!(m.contains(&[3, 4], &[12]));
        assert!(!m.contains(&[3, 4], &[11]));
    }

    #[test]
    fn identity_map() {
        let id = BasicMap::identity(spa());
        assert!(id.contains(&[1, 2], &[1, 2]));
        assert!(!id.contains(&[1, 2], &[2, 1]));
    }

    #[test]
    fn reverse_swaps() {
        let m = BasicMap::from_affine(spa(), spb(), &[LinExpr::new(&[1, 2], 1)]);
        let r = m.reverse();
        assert!(r.contains(&[12], &[3, 4]));
    }

    #[test]
    fn domain_range_of_restricted_map() {
        let m = BasicMap::from_affine(spa(), spb(), &[LinExpr::new(&[1, 1], 0)])
            .intersect_domain(&BasicSet::boxed(spa(), &[(0, 2), (0, 2)]));
        let dom = m.domain();
        assert_eq!(dom.points().count(), 9);
        let rng = m.range();
        // i + j ranges over 0..=4
        assert_eq!(rng.points().count(), 5);
    }

    #[test]
    fn compose_functions() {
        // f(i,j) = i + j ; g(x) = 2x -> g∘f (i,j) = 2i + 2j
        let f = BasicMap::from_affine(spa(), spb(), &[LinExpr::new(&[1, 1], 0)]);
        let g = BasicMap::from_affine(
            Space::set("b", &["x"]),
            Space::set("c", &["y"]),
            &[LinExpr::new(&[2], 0)],
        );
        let gf = f.compose(&g);
        assert!(gf.contains(&[1, 2], &[6]));
        assert!(!gf.contains(&[1, 2], &[5]));
    }

    #[test]
    fn product_concatenates() {
        let f = BasicMap::from_affine(spb(), spb(), &[LinExpr::new(&[1], 1)]); // x+1
        let g = BasicMap::from_affine(spb(), spb(), &[LinExpr::new(&[1], -1)]); // x-1
        let p = f.product(&g);
        assert_eq!(p.n_in(), 2);
        assert_eq!(p.n_out(), 2);
        assert!(p.contains(&[5, 5], &[6, 4]));
        assert!(!p.contains(&[5, 5], &[4, 6]));
    }

    #[test]
    fn apply_set() {
        let m = Map::from_affine(spb(), spb(), &[LinExpr::new(&[1], 10)]);
        let s = Set::from_basic(BasicSet::boxed(spb(), &[(0, 4)]));
        let img = m.apply(&s);
        assert!(img.contains(&[10]));
        assert!(img.contains(&[14]));
        assert!(!img.contains(&[9]));
        assert!(!img.contains(&[15]));
    }

    #[test]
    fn union_map_apply() {
        let m = Map::from_affine(spb(), spb(), &[LinExpr::new(&[1], 1)]).union(&Map::from_affine(
            spb(),
            spb(),
            &[LinExpr::new(&[1], -1)],
        ));
        let s = Set::from_basic(BasicSet::boxed(spb(), &[(0, 0)]));
        let img = m.apply(&s);
        assert!(img.contains(&[1]));
        assert!(img.contains(&[-1]));
        assert!(!img.contains(&[0]));
    }

    #[test]
    fn wrap_as_set() {
        let m = BasicMap::from_affine(spb(), spb(), &[LinExpr::new(&[1], 1)])
            .intersect_domain(&BasicSet::boxed(spb(), &[(0, 3)]));
        let w = m.wrap();
        assert_eq!(w.dim(), 2);
        assert_eq!(w.points().count(), 4);
        assert!(w.contains(&[2, 3]));
    }

    #[test]
    fn empty_map_detection() {
        let m = BasicMap::from_affine(spb(), spb(), &[LinExpr::new(&[1], 0)])
            .intersect_domain(&BasicSet::boxed(spb(), &[(5, 2)]));
        assert!(m.is_empty());
    }

    #[test]
    fn intersect_maps() {
        // y = x + 1 intersect y = 2x  ->  only x=1,y=2
        let a = BasicMap::from_affine(spb(), spb(), &[LinExpr::new(&[1], 1)]);
        let b = BasicMap::from_affine(spb(), spb(), &[LinExpr::new(&[2], 0)]);
        let c = a.intersect(&b);
        assert!(c.contains(&[1], &[2]));
        assert!(!c.contains(&[2], &[3]));
        assert!(!c.is_empty());
    }
}
