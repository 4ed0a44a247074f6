//! Address-space sharing: clique partitioning of the compatibility graph.
//!
//! Arrays placed in the same group overlay the same physical buffer, so
//! every pair in a group must be address-space compatible (a clique in
//! the compatibility graph). Finding the minimum clique cover is NP-hard
//! in general, but lifetimes of compiler temporaries form an *interval
//! graph* along the schedule's sequence dimension, for which greedy
//! first-fit in creation order is optimal. We run greedy first-fit and,
//! for small instances (≤ 12 shareable arrays), verify against an exact
//! exponential search in tests.

use crate::config::MnemosyneConfig;

/// A sharing solution: groups of array indices overlaid into one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingSolution {
    pub groups: Vec<Vec<usize>>,
}

impl SharingSolution {
    /// Buffer words of one group (max member size — members overlay).
    pub fn group_words(&self, cfg: &MnemosyneConfig, g: usize) -> usize {
        self.groups[g]
            .iter()
            .map(|&a| cfg.arrays[a].words)
            .max()
            .unwrap_or(0)
    }

    /// Total buffer words across groups.
    pub fn total_words(&self, cfg: &MnemosyneConfig) -> usize {
        (0..self.groups.len())
            .map(|g| self.group_words(cfg, g))
            .sum()
    }

    /// Validate that every group is a clique of compatible arrays and
    /// that no interface array shares.
    pub fn validate(&self, cfg: &MnemosyneConfig) -> Result<(), String> {
        let mut seen = vec![false; cfg.arrays.len()];
        for group in &self.groups {
            for (i, &a) in group.iter().enumerate() {
                if seen[a] {
                    return Err(format!("array {a} appears twice"));
                }
                seen[a] = true;
                if group.len() > 1 && cfg.arrays[a].interface {
                    return Err(format!(
                        "interface array '{}' in a shared group",
                        cfg.arrays[a].name
                    ));
                }
                for &b in &group[i + 1..] {
                    if !cfg.addr_compatible(a, b) {
                        return Err(format!(
                            "incompatible arrays '{}' and '{}' share a group",
                            cfg.arrays[a].name, cfg.arrays[b].name
                        ));
                    }
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("some array missing from the solution".into());
        }
        Ok(())
    }
}

/// The trivial solution: one group per array.
pub fn no_sharing(cfg: &MnemosyneConfig) -> SharingSolution {
    SharingSolution {
        groups: (0..cfg.arrays.len()).map(|i| vec![i]).collect(),
    }
}

/// Greedy first-fit clique cover. Interface arrays stay alone (they are
/// wired to the DMA engine; the paper shares only the kernel-private
/// temporaries).
pub fn share_groups(cfg: &MnemosyneConfig) -> SharingSolution {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    // Process big arrays first so the overlay buffer is sized once.
    let mut order: Vec<usize> = (0..cfg.arrays.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cfg.arrays[i].words));
    for i in order {
        let interface = cfg.arrays[i].interface;
        let fit = groups.iter_mut().find(|g| {
            !interface
                && g.iter()
                    .all(|&m| !cfg.arrays[m].interface && cfg.addr_compatible(i, m))
        });
        match fit {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    // Stable order: by smallest member index, so group naming is
    // deterministic.
    for g in groups.iter_mut() {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g[0]);
    let sol = SharingSolution { groups };
    debug_assert_eq!(sol.validate(cfg), Ok(()));
    sol
}

/// Exact minimum clique cover by exhaustive search — exponential, only
/// for validation on small instances. Interface arrays stay alone, as in
/// [`share_groups`].
pub fn exact_min_groups(cfg: &MnemosyneConfig) -> usize {
    let n = cfg.arrays.len();
    assert!(n <= 12, "exact search is exponential");
    let mut best = n;
    let mut groups: Vec<Vec<usize>> = Vec::new();
    fn rec(
        i: usize,
        n: usize,
        cfg: &MnemosyneConfig,
        groups: &mut Vec<Vec<usize>>,
        best: &mut usize,
    ) {
        if groups.len() >= *best {
            return;
        }
        if i == n {
            *best = groups.len();
            return;
        }
        let sharable = !cfg.arrays[i].interface;
        for g in 0..groups.len() {
            let ok = sharable
                && groups[g]
                    .iter()
                    .all(|&m| cfg.addr_compatible(i, m) && !cfg.arrays[m].interface);
            if ok {
                groups[g].push(i);
                rec(i + 1, n, cfg, groups, best);
                groups[g].pop();
            }
        }
        groups.push(vec![i]);
        rec(i + 1, n, cfg, groups, best);
        groups.pop();
    }
    rec(0, n, cfg, &mut groups, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArraySpec;

    fn arr(name: &str, words: usize, interface: bool) -> ArraySpec {
        ArraySpec {
            name: name.into(),
            words,
            interface,
            read_ports: 1,
            write_ports: 1,
        }
    }

    /// A chain of temporaries with interval lifetimes: t0..t5 where ti is
    /// compatible with tj iff |i - j| >= 2.
    fn chain(n: usize) -> MnemosyneConfig {
        let arrays = (0..n).map(|i| arr(&format!("t{i}"), 100, false)).collect();
        let mut compat = Vec::new();
        for i in 0..n {
            for j in (i + 2)..n {
                compat.push((i, j));
            }
        }
        MnemosyneConfig {
            arrays,
            address_space_compatible: compat,
            memory_interface_compatible: vec![],
        }
    }

    #[test]
    fn chain_of_six_needs_two_groups() {
        let cfg = chain(6);
        let sol = share_groups(&cfg);
        assert_eq!(sol.groups.len(), 2, "{sol:?}");
        sol.validate(&cfg).unwrap();
        assert_eq!(exact_min_groups(&cfg), 2);
    }

    #[test]
    fn greedy_matches_exact_on_intervals() {
        for n in 2..8 {
            let cfg = chain(n);
            let sol = share_groups(&cfg);
            assert_eq!(sol.groups.len(), exact_min_groups(&cfg), "chain({n})");
        }
    }

    #[test]
    fn interface_arrays_stay_alone() {
        let mut cfg = chain(4);
        cfg.arrays[0].interface = true;
        // t0 is compatible with t2, t3 but must not share.
        let sol = share_groups(&cfg);
        sol.validate(&cfg).unwrap();
        let g0 = sol.groups.iter().find(|g| g.contains(&0)).unwrap();
        assert_eq!(g0.len(), 1);
    }

    #[test]
    fn no_sharing_is_identity() {
        let cfg = chain(5);
        let sol = no_sharing(&cfg);
        assert_eq!(sol.groups.len(), 5);
        assert_eq!(sol.total_words(&cfg), 500);
    }

    #[test]
    fn overlay_words_take_max() {
        let cfg = MnemosyneConfig {
            arrays: vec![arr("a", 100, false), arr("b", 300, false)],
            address_space_compatible: vec![(0, 1)],
            memory_interface_compatible: vec![],
        };
        let sol = share_groups(&cfg);
        assert_eq!(sol.groups.len(), 1);
        assert_eq!(sol.total_words(&cfg), 300);
    }

    #[test]
    fn validate_rejects_incompatible_group() {
        let cfg = chain(3);
        let bad = SharingSolution {
            groups: vec![vec![0, 1], vec![2]],
        };
        assert!(bad.validate(&cfg).is_err());
    }

    #[test]
    fn validate_rejects_duplicates_and_missing() {
        let cfg = chain(3);
        let dup = SharingSolution {
            groups: vec![vec![0, 2], vec![0], vec![1]],
        };
        assert!(dup.validate(&cfg).is_err());
        let missing = SharingSolution {
            groups: vec![vec![0, 2]],
        };
        assert!(missing.validate(&cfg).is_err());
    }
}
