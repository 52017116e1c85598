//! Seeded input generators shared by the workloads.

use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::io::write_dimacs;
use mcr_graph::{Graph, GraphBuilder};

/// A disjoint union of `blocks` SPRAND components of `n` nodes and `m`
/// arcs each (weights in [1, 10000], unit transits): every block is its
/// own strongly connected component.
pub fn sprand_union(blocks: usize, n: usize, m: usize, seed: u64) -> Graph {
    let mut b = GraphBuilder::with_capacity(blocks * n, blocks * m);
    for k in 0..blocks {
        let part =
            sprand(&SprandConfig::new(n, m).seed(seed.wrapping_mul(131).wrapping_add(k as u64)));
        let ids = b.add_nodes(part.num_nodes());
        for a in part.arc_ids() {
            b.add_arc_with_transit(
                ids[part.source(a).index()],
                ids[part.target(a).index()],
                part.weight(a),
                part.transit(a),
            );
        }
    }
    b.build()
}

/// `g` as DIMACS text.
pub fn dimacs(g: &Graph) -> String {
    let mut buf = Vec::new();
    write_dimacs(&mut buf, g).expect("writing to memory cannot fail");
    String::from_utf8(buf).expect("DIMACS output is ASCII")
}
