//! Strongly connected components (iterative Tarjan) and condensation.
//!
//! Every cycle mean / cycle ratio algorithm in the study assumes a
//! strongly connected input; the common driver decomposes an arbitrary
//! digraph with [`SccDecomposition::new`], extracts each nontrivial
//! component with [`SccDecomposition::component_subgraph`], solves it,
//! and takes the minimum over components — exactly the procedure
//! described in Section 2 of the paper.

use crate::compact::idx32;
use crate::graph::{ArcId, Graph, GraphBuilder, NodeId};

/// The strongly connected components of a digraph.
///
/// Components are numbered `0..num_components()` in **reverse
/// topological order** of the condensation (Tarjan's output order): if
/// there is an arc from component `a` to component `b` with `a != b`,
/// then `a > b`.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, SccDecomposition};
/// // Two 2-cycles joined by a one-way bridge.
/// let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 3, 1), (3, 2, 1)]);
/// let scc = SccDecomposition::new(&g);
/// assert_eq!(scc.num_components(), 2);
/// assert_eq!(scc.component_of(mcr_graph::NodeId::new(0)),
///            scc.component_of(mcr_graph::NodeId::new(1)));
/// ```
#[derive(Clone, Debug)]
pub struct SccDecomposition {
    comp_of: Vec<u32>,
    comp_nodes: Vec<Vec<NodeId>>,
}

impl SccDecomposition {
    /// Computes the strongly connected components of `g` with an
    /// iterative Tarjan algorithm (no recursion, safe for n in the
    /// hundreds of thousands).
    pub fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp_of = vec![0u32; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut comp_nodes: Vec<Vec<NodeId>> = Vec::new();
        let mut next_index = 0u32;

        // Explicit DFS call stack: (node, position in its out-arc list).
        let mut call: Vec<(u32, usize)> = Vec::new();

        for root in 0..idx32(n) {
            if index[root as usize] != UNVISITED {
                continue;
            }
            crate::chaos::pulse("graph.scc.root");
            call.push((root, 0));
            index[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;

            while let Some(&mut (v, ref mut pos)) = call.last_mut() {
                let vu = v as usize;
                let out = g.out_arcs(NodeId::new(vu));
                if *pos < out.len() {
                    let w = g.target(out[*pos]).index();
                    *pos += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(idx32(w));
                        on_stack[w] = true;
                        call.push((idx32(w), 0));
                    } else if on_stack[w] {
                        lowlink[vu] = lowlink[vu].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        let p = parent as usize;
                        lowlink[p] = lowlink[p].min(lowlink[vu]);
                    }
                    if lowlink[vu] == index[vu] {
                        let comp_id = idx32(comp_nodes.len());
                        let mut members = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp_of[w as usize] = comp_id;
                            members.push(NodeId::new(w as usize));
                            if w == v {
                                break;
                            }
                        }
                        comp_nodes.push(members);
                    }
                }
            }
        }

        SccDecomposition { comp_of, comp_nodes }
    }

    /// Number of strongly connected components.
    pub fn num_components(&self) -> usize {
        self.comp_nodes.len()
    }

    /// Component id of `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.comp_of[v.index()] as usize
    }

    /// The nodes of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.num_components()`.
    pub fn component(&self, c: usize) -> &[NodeId] {
        &self.comp_nodes[c]
    }

    /// Iterates over all components as node slices.
    pub fn components(&self) -> impl Iterator<Item = &[NodeId]> {
        self.comp_nodes.iter().map(|v| v.as_slice())
    }

    /// Whether component `c` can contain a cycle: it has more than one
    /// node, or its single node has a self-loop.
    pub fn is_cyclic_component(&self, g: &Graph, c: usize) -> bool {
        let nodes = &self.comp_nodes[c];
        if nodes.len() > 1 {
            return true;
        }
        let v = nodes[0];
        g.out_neighbors(v).any(|(_, w)| w == v)
    }

    /// Extracts component `c` as a standalone graph.
    ///
    /// Returns the subgraph, the mapping from subgraph node index to
    /// original [`NodeId`], and the mapping from subgraph arc index to
    /// original [`ArcId`]. Only arcs with both endpoints inside the
    /// component are kept; weights and transit times are preserved.
    ///
    /// Allocates a fresh node-translation table per call; batch callers
    /// extracting many components should use a [`SubgraphExtractor`].
    pub fn component_subgraph(&self, g: &Graph, c: usize) -> (Graph, Vec<NodeId>, Vec<ArcId>) {
        let nodes = &self.comp_nodes[c];
        let mut ex = SubgraphExtractor::new(g.num_nodes());
        let (sub, arc_map) = ex.extract(g, nodes);
        (sub, nodes.clone(), arc_map)
    }
}

/// Reusable scratch state for extracting many node-induced subgraphs of
/// the same host graph without re-allocating the `O(n)` translation
/// table each time.
///
/// The per-SCC solver driver extracts every cyclic component up front;
/// with `k` components a naive loop performs `k` allocations of
/// `n · 4` bytes and `O(kn)` initialization. The extractor allocates the
/// table once and resets only the entries it touched.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, scc::SubgraphExtractor, SccDecomposition};
/// let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (2, 3, 5), (3, 2, 5)]);
/// let scc = SccDecomposition::new(&g);
/// let mut ex = SubgraphExtractor::new(g.num_nodes());
/// for c in 0..scc.num_components() {
///     let (sub, arc_map) = ex.extract(&g, scc.component(c));
///     assert_eq!(sub.num_nodes(), 2);
///     assert_eq!(arc_map.len(), 2);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SubgraphExtractor {
    /// `local_of[v] == u32::MAX` outside an `extract` call; only entries
    /// for the current node set are populated, and they are restored on
    /// the way out.
    local_of: Vec<u32>,
}

impl SubgraphExtractor {
    /// Creates an extractor for host graphs of up to `num_nodes` nodes
    /// (the table grows on demand if a larger graph shows up).
    pub fn new(num_nodes: usize) -> Self {
        SubgraphExtractor {
            local_of: vec![u32::MAX; num_nodes],
        }
    }

    /// Extracts the subgraph induced by `nodes` (weights and transit
    /// times preserved), plus the map from subgraph arc index to the
    /// host graph's [`ArcId`]. Node `i` of the subgraph is `nodes[i]`.
    pub fn extract(&mut self, g: &Graph, nodes: &[NodeId]) -> (Graph, Vec<ArcId>) {
        if self.local_of.len() < g.num_nodes() {
            self.local_of.resize(g.num_nodes(), u32::MAX);
        }
        for (i, &v) in nodes.iter().enumerate() {
            self.local_of[v.index()] = idx32(i);
        }
        // The out-degree sum bounds the kept arcs, so neither the
        // builder nor the arc map reallocates.
        let max_arcs = nodes.iter().map(|&v| g.out_degree(v)).sum();
        let mut b = GraphBuilder::with_capacity(nodes.len(), max_arcs);
        b.add_nodes(nodes.len());
        let mut arc_map = Vec::with_capacity(max_arcs);
        for &v in nodes {
            let lv = NodeId::new(self.local_of[v.index()] as usize);
            for (a, t, w, tr) in g.out_adj(v) {
                let lt = self.local_of[t.index()];
                if lt != u32::MAX {
                    b.add_arc_with_transit(lv, NodeId::new(lt as usize), w, tr);
                    arc_map.push(a);
                }
            }
        }
        for &v in nodes {
            self.local_of[v.index()] = u32::MAX;
        }
        (b.build(), arc_map)
    }
}

/// Builds the condensation of `g`: one node per strongly connected
/// component, one zero-weight arc per original arc crossing between two
/// distinct components (parallel condensation arcs are collapsed).
///
/// The result is acyclic. Node `c` of the condensation corresponds to
/// component `c` of `scc`.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, condensation, SccDecomposition};
/// let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 3, 1), (3, 2, 1)]);
/// let scc = SccDecomposition::new(&g);
/// let c = condensation(&g, &scc);
/// assert_eq!(c.num_nodes(), 2);
/// assert_eq!(c.num_arcs(), 1);
/// ```
pub fn condensation(g: &Graph, scc: &SccDecomposition) -> Graph {
    let k = scc.num_components();
    let mut b = GraphBuilder::with_capacity(k, k);
    b.add_nodes(k);
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for a in g.arc_ids() {
        let cu = idx32(scc.component_of(g.source(a)));
        let cv = idx32(scc.component_of(g.target(a)));
        if cu != cv && seen.insert((cu, cv)) {
            b.add_arc(NodeId::new(cu as usize), NodeId::new(cv as usize), 0);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_arc_list;

    #[test]
    fn single_node_no_loop_is_trivial_component() {
        let g = from_arc_list(1, &[]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 1);
        assert!(!scc.is_cyclic_component(&g, 0));
    }

    #[test]
    fn self_loop_component_is_cyclic() {
        let g = from_arc_list(1, &[(0, 0, 1)]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 1);
        assert!(scc.is_cyclic_component(&g, 0));
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 4);
        for c in 0..4 {
            assert_eq!(scc.component(c).len(), 1);
            assert!(!scc.is_cyclic_component(&g, c));
        }
    }

    #[test]
    fn cycle_is_one_component() {
        let g = from_arc_list(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 1);
        assert_eq!(scc.component(0).len(), 5);
    }

    #[test]
    fn components_in_reverse_topological_order() {
        // 0 <-> 1  ->  2 <-> 3  ->  4
        let g = from_arc_list(
            5,
            &[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 3, 1), (3, 2, 1), (3, 4, 1)],
        );
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 3);
        for a in g.arc_ids() {
            let cu = scc.component_of(g.source(a));
            let cv = scc.component_of(g.target(a));
            if cu != cv {
                assert!(cu > cv, "arc {:?} violates reverse topological order", a);
            }
        }
    }

    #[test]
    fn component_subgraph_preserves_weights_and_transits() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(3);
        b.add_arc_with_transit(v[0], v[1], 5, 2);
        b.add_arc_with_transit(v[1], v[0], 7, 3);
        b.add_arc(v[1], v[2], 100); // leaves the component
        let g = b.build();
        let scc = SccDecomposition::new(&g);
        let c = scc.component_of(v[0]);
        let (sub, node_map, arc_map) = scc.component_subgraph(&g, c);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_arcs(), 2);
        assert_eq!(node_map.len(), 2);
        let total_w: i64 = sub.arc_ids().map(|a| sub.weight(a)).sum();
        let total_t: i64 = sub.arc_ids().map(|a| sub.transit(a)).sum();
        assert_eq!(total_w, 12);
        assert_eq!(total_t, 5);
        for (local, &orig) in arc_map.iter().enumerate() {
            assert_eq!(sub.weight(ArcId::new(local)), g.weight(orig));
        }
    }

    #[test]
    fn condensation_is_acyclic_and_collapses_parallel() {
        let g = from_arc_list(
            4,
            &[
                (0, 1, 1),
                (1, 0, 1),
                (0, 2, 1),
                (1, 2, 1), // two cross arcs, same component pair
                (2, 3, 1),
                (3, 2, 1),
            ],
        );
        let scc = SccDecomposition::new(&g);
        let c = condensation(&g, &scc);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.num_arcs(), 1);
        let cscc = SccDecomposition::new(&c);
        assert_eq!(cscc.num_components(), c.num_nodes());
    }

    #[test]
    fn two_disjoint_cycles() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 2);
        assert!(scc.is_cyclic_component(&g, 0));
        assert!(scc.is_cyclic_component(&g, 1));
        assert_ne!(
            scc.component_of(NodeId::new(0)),
            scc.component_of(NodeId::new(2))
        );
    }

    #[test]
    fn extractor_reuse_matches_one_shot_extraction() {
        // Three disjoint rings; extracting them through one extractor
        // must give the same subgraphs as fresh per-component calls.
        let g = from_arc_list(
            6,
            &[(0, 1, 1), (1, 0, 2), (2, 3, 3), (3, 2, 4), (4, 5, 5), (5, 4, 6)],
        );
        let scc = SccDecomposition::new(&g);
        let mut ex = SubgraphExtractor::new(g.num_nodes());
        for c in 0..scc.num_components() {
            let (sub_a, arcs_a) = ex.extract(&g, scc.component(c));
            let (sub_b, _, arcs_b) = scc.component_subgraph(&g, c);
            assert_eq!(arcs_a, arcs_b);
            assert_eq!(sub_a.num_nodes(), sub_b.num_nodes());
            assert_eq!(sub_a.num_arcs(), sub_b.num_arcs());
            for a in sub_a.arc_ids() {
                assert_eq!(sub_a.source(a), sub_b.source(a));
                assert_eq!(sub_a.target(a), sub_b.target(a));
                assert_eq!(sub_a.weight(a), sub_b.weight(a));
                assert_eq!(sub_a.transit(a), sub_b.transit(a));
            }
        }
    }

    #[test]
    fn extractor_grows_for_larger_graphs() {
        let small = from_arc_list(2, &[(0, 1, 1), (1, 0, 1)]);
        let big = from_arc_list(10, &[(8, 9, 2), (9, 8, 2)]);
        let mut ex = SubgraphExtractor::new(small.num_nodes());
        let (sub, _) = ex.extract(&small, &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(sub.num_arcs(), 2);
        let (sub, arcs) = ex.extract(&big, &[NodeId::new(8), NodeId::new(9)]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(arcs.len(), 2);
    }

    #[test]
    fn extraction_matches_arc_id_lookups() {
        // Reference: the extraction written against arc-id lookups
        // (`g.target(a)`, `g.weight(a)`, `g.transit(a)`). The extractor
        // reads the aligned adjacency copies instead and must give the
        // same subgraph, arc for arc, and the same arc map.
        type Arcs = Vec<(usize, usize, i64, i64)>;
        fn reference(g: &Graph, nodes: &[NodeId]) -> (Arcs, Vec<ArcId>) {
            let local = |v: NodeId| nodes.iter().position(|&u| u == v);
            let mut arcs = Vec::new();
            let mut arc_map = Vec::new();
            for (i, &v) in nodes.iter().enumerate() {
                for &a in g.out_arcs(v) {
                    if let Some(j) = local(g.target(a)) {
                        arcs.push((i, j, g.weight(a), g.transit(a)));
                        arc_map.push(a);
                    }
                }
            }
            (arcs, arc_map)
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for n in [1u64, 5, 12, 40] {
            let mut b = GraphBuilder::new();
            let v = b.add_nodes(n as usize);
            for _ in 0..3 * n {
                let (s, t) = (next(n) as usize, next(n) as usize);
                b.add_arc_with_transit(v[s], v[t], next(200) as i64 - 100, next(4) as i64);
            }
            let g = b.build();
            let scc = SccDecomposition::new(&g);
            let mut ex = SubgraphExtractor::new(g.num_nodes());
            for c in 0..scc.num_components() {
                let (sub, arc_map) = ex.extract(&g, scc.component(c));
                let arcs: Vec<_> = sub
                    .arc_ids()
                    .map(|a| (sub.source(a).index(), sub.target(a).index(), sub.weight(a), sub.transit(a)))
                    .collect();
                assert_eq!((arcs, arc_map), reference(&g, scc.component(c)), "n={n} c={c}");
                assert_eq!(sub.num_nodes(), scc.component(c).len());
            }
        }
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 100_000-node path; recursive Tarjan would blow the stack.
        let n = 100_000;
        let arcs: Vec<(usize, usize, i64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        let g = from_arc_list(n, &arcs);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), n);
    }
}
