//! The Mnemosyne configuration — the metadata file the CFDlang compiler
//! generates during step ⓘⓥ ("Array definition and memory access
//! pattern" in Figure 3).

use pschedule::{CompatKind, CompatibilityGraph};

/// One logical array of the kernel interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySpec {
    pub name: String,
    /// Number of 64-bit words.
    pub words: usize,
    /// Host-visible (input/output) array — bound to the DMA engine and by
    /// default excluded from sharing.
    pub interface: bool,
    /// Concurrent read ports required by the HLS schedule.
    pub read_ports: u32,
    /// Concurrent write ports required by the HLS schedule.
    pub write_ports: u32,
}

/// The complete metadata handed from the compiler to Mnemosyne.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MnemosyneConfig {
    pub arrays: Vec<ArraySpec>,
    /// Pairs of arrays with disjoint lifetimes (may overlay addresses).
    pub address_space_compatible: Vec<(usize, usize)>,
    /// Pairs of arrays that never access ports of the same type at the
    /// same schedule point (may share physical banks).
    pub memory_interface_compatible: Vec<(usize, usize)>,
}

impl MnemosyneConfig {
    /// Build from the compiler's compatibility graph.
    pub fn from_graph(graph: &CompatibilityGraph) -> MnemosyneConfig {
        let arrays = graph
            .nodes
            .iter()
            .map(|(_, name, words, interface)| ArraySpec {
                name: name.clone(),
                words: *words,
                interface: *interface,
                read_ports: 1,
                write_ports: 1,
            })
            .collect();
        let mut addr = Vec::new();
        let mut iface = Vec::new();
        for &(a, b, kind) in &graph.edges {
            match kind {
                CompatKind::AddressSpace => addr.push((a, b)),
                CompatKind::MemoryInterface => iface.push((a, b)),
            }
        }
        MnemosyneConfig {
            arrays,
            address_space_compatible: addr,
            memory_interface_compatible: iface,
        }
    }

    /// Whether two arrays may share an address space.
    pub fn addr_compatible(&self, a: usize, b: usize) -> bool {
        let key = (a.min(b), a.max(b));
        self.address_space_compatible.contains(&key)
    }

    /// Index of an array by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a.name == name)
    }

    /// Total words without any sharing.
    pub fn total_words(&self) -> usize {
        self.arrays.iter().map(|a| a.words).sum()
    }

    /// Override the port requirements of an array (set by the HLS tool
    /// when array partitioning raises the demand).
    pub fn set_ports(&mut self, name: &str, read: u32, write: u32) {
        if let Some(i) = self.index_of(name) {
            self.arrays[i].read_ports = read;
            self.arrays[i].write_ports = write;
        }
    }

    /// Keep only the interface arrays, remapping compatibility edges —
    /// used when temporaries stay inside the accelerator (non-decoupled
    /// mode), where Mnemosyne only builds the host-visible memories.
    pub fn retain_interface(&self) -> MnemosyneConfig {
        let mut remap = vec![None; self.arrays.len()];
        let mut arrays = Vec::new();
        for (i, a) in self.arrays.iter().enumerate() {
            if a.interface {
                remap[i] = Some(arrays.len());
                arrays.push(a.clone());
            }
        }
        let remap_edges = |edges: &Vec<(usize, usize)>| {
            edges
                .iter()
                .filter_map(|&(a, b)| Some((remap[a]?, remap[b]?)))
                .collect()
        };
        MnemosyneConfig {
            arrays,
            address_space_compatible: remap_edges(&self.address_space_compatible),
            memory_interface_compatible: remap_edges(&self.memory_interface_compatible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg3() -> MnemosyneConfig {
        MnemosyneConfig {
            arrays: vec![
                ArraySpec {
                    name: "a".into(),
                    words: 100,
                    interface: false,
                    read_ports: 1,
                    write_ports: 1,
                },
                ArraySpec {
                    name: "b".into(),
                    words: 200,
                    interface: false,
                    read_ports: 1,
                    write_ports: 1,
                },
                ArraySpec {
                    name: "c".into(),
                    words: 50,
                    interface: true,
                    read_ports: 1,
                    write_ports: 1,
                },
            ],
            address_space_compatible: vec![(0, 1)],
            memory_interface_compatible: vec![(1, 2)],
        }
    }

    #[test]
    fn compatibility_lookup_is_symmetric() {
        let c = cfg3();
        assert!(c.addr_compatible(0, 1));
        assert!(c.addr_compatible(1, 0));
        assert!(!c.addr_compatible(0, 2));
    }

    #[test]
    fn totals_and_lookup() {
        let c = cfg3();
        assert_eq!(c.total_words(), 350);
        assert_eq!(c.index_of("b"), Some(1));
        assert_eq!(c.index_of("zz"), None);
    }

    #[test]
    fn port_override() {
        let mut c = cfg3();
        c.set_ports("a", 3, 1);
        assert_eq!(c.arrays[0].read_ports, 3);
    }

    #[test]
    fn retain_interface_filters_and_remaps() {
        let mut c = cfg3();
        // Make (1, 2) an address-space edge so we can check remapping.
        c.address_space_compatible.push((1, 2));
        c.arrays[1].interface = true;
        let r = c.retain_interface();
        // Arrays b (idx 1) and c (idx 2) survive as 0 and 1.
        assert_eq!(r.arrays.len(), 2);
        assert_eq!(r.arrays[0].name, "b");
        assert_eq!(r.arrays[1].name, "c");
        // Edge (1,2) remapped to (0,1); edge (0,1) dropped (a removed).
        assert_eq!(r.address_space_compatible, vec![(0, 1)]);
        assert_eq!(r.memory_interface_compatible, vec![(0, 1)]);
    }
}
