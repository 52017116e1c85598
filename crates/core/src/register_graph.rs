//! The register-graph reduction for cost-to-time ratio problems
//! (Ito & Parhi, Table 1 row 15: `O(Tm + T³)`).
//!
//! In a circuit-flavored MCR instance, transit times count *registers*
//! on arcs and zero-transit arcs are combinational logic. Instead of
//! expanding arcs into unit chains (which keeps all `n` logic nodes),
//! the Ito–Parhi route collapses the combinational logic away: build a
//! graph whose nodes are the `T` registers themselves, with an arc
//! between two registers weighted by the best (minimum, for MCRP)
//! combinational path between them. Cycle ratios are preserved — a
//! register cycle's weight is the real cycle's weight and its length is
//! the real cycle's register count — so any minimum *mean* cycle
//! algorithm on the register graph solves the original ratio problem.
//! When `T ≪ n` (heavily combinational circuits) this is dramatically
//! smaller than the instance itself: with Karp as the inner solver the
//! total cost is `O(Tm)` for the reduction plus `O(T³)` for the solve —
//! exactly the bound the paper lists.

use crate::algorithms::Algorithm;
use crate::instrument::Counters;
use crate::solution::Solution;
use mcr_graph::{ArcId, Graph, GraphBuilder, NodeId};

const INF: i64 = i64::MAX / 4;

/// A register slot: the `slot`-th register on arc `arc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    arc: ArcId,
    slot: i64,
}

/// The register graph of `g`, plus the bookkeeping needed to map
/// results back.
struct RegisterGraph {
    graph: Graph,
    /// Per register-graph node, the original slot.
    slots: Vec<Slot>,
    /// Per register-graph arc: the original register-bearing arc it
    /// *enters* (`None` for intra-arc slot chains) — used to rebuild
    /// witness cycles.
    enters: Vec<Option<ArcId>>,
}

/// Shortest combinational distances (over zero-transit arcs only) from
/// `start` to every node, with parent arcs for path recovery.
///
/// The zero-transit subgraph is acyclic (otherwise ratios are
/// undefined), so a Bellman–Ford over it converges in at most `n`
/// rounds; we keep it simple rather than topologically sorting.
fn comb_shortest(g: &Graph, start: NodeId, counters: &mut Counters) -> (Vec<i64>, Vec<Option<ArcId>>) {
    let n = g.num_nodes();
    let mut dist = vec![INF; n];
    let mut parent = vec![None; n];
    dist[start.index()] = 0;
    for _ in 0..=n {
        let mut changed = false;
        for e in g.arc_ids() {
            if g.transit(e) != 0 {
                continue;
            }
            counters.relaxations += 1;
            let u = g.source(e).index();
            if dist[u] >= INF {
                continue;
            }
            let cand = dist[u] + g.weight(e);
            let v = g.target(e).index();
            if cand < dist[v] {
                dist[v] = cand;
                parent[v] = Some(e);
                changed = true;
            }
        }
        if !changed {
            return (dist, parent);
        }
    }
    panic!("zero-transit cycle: the cycle ratio is undefined");
}

fn build(g: &Graph, counters: &mut Counters) -> Option<RegisterGraph> {
    // Enumerate register slots.
    let mut slots = Vec::new();
    let mut first_slot_of_arc = vec![usize::MAX; g.num_arcs()];
    for e in g.arc_ids() {
        for s in 0..g.transit(e) {
            if s == 0 {
                first_slot_of_arc[e.index()] = slots.len();
            }
            slots.push(Slot { arc: e, slot: s });
        }
    }
    if slots.is_empty() {
        return None; // no registers at all: acyclic or invalid
    }
    let t_total = slots.len();
    let mut b = GraphBuilder::with_capacity(t_total, t_total * 2);
    b.add_nodes(t_total);
    let mut enters = Vec::new();

    // Intra-arc chains: consecutive slots on the same arc, zero weight.
    for (i, s) in slots.iter().enumerate() {
        if s.slot + 1 < g.transit(s.arc) {
            b.add_arc(NodeId::new(i), NodeId::new(i + 1), 0);
            enters.push(None);
        }
    }

    // Exits: from each arc's last slot, through the combinational
    // subgraph, into the first slot of the next register-bearing arc.
    // Weight convention: w(f) is incurred when entering f's first slot,
    // so a register cycle's weight equals the real cycle's weight.
    for (i, s) in slots.iter().enumerate() {
        if s.slot + 1 != g.transit(s.arc) {
            continue; // not the last slot of its arc
        }
        let exit_node = g.target(s.arc);
        let (dist, _) = comb_shortest(g, exit_node, counters);
        for f in g.arc_ids() {
            if g.transit(f) == 0 {
                continue;
            }
            let du = dist[g.source(f).index()];
            if du >= INF {
                continue;
            }
            b.add_arc(
                NodeId::new(i),
                NodeId::new(first_slot_of_arc[f.index()]),
                du + g.weight(f),
            );
            enters.push(Some(f));
        }
    }

    Some(RegisterGraph {
        graph: b.build(),
        slots,
        enters,
    })
}

/// Minimum cycle ratio via the register graph, solved with `algorithm`
/// (Karp gives the paper's `O(Tm + T³)`).
///
/// Returns `None` for an acyclic input and for inputs with a
/// zero-transit cycle (where the cycle ratio is undefined).
pub fn minimum_ratio_via_registers(g: &Graph, algorithm: Algorithm) -> Option<Solution> {
    if crate::ratio::has_zero_transit_cycle(g) {
        return None;
    }
    let mut counters = Counters::new();
    let rg = build(g, &mut counters)?;
    let inner = algorithm.solve(&rg.graph)?;
    counters += inner.counters;

    // Map the witness back: each register-graph arc entering arc `f`
    // contributes the combinational path to `f` plus `f` itself;
    // intra-arc chain arcs contribute nothing new.
    let mut cycle: Vec<ArcId> = Vec::new();
    for &ra in &inner.cycle {
        let f = match rg.enters[ra.index()] {
            None => continue,
            Some(f) => f,
        };
        let from_slot = rg.slots[rg.graph.source(ra).index()];
        let exit_node = g.target(from_slot.arc);
        // Recover the combinational path exit_node ⇝ source(f).
        let (dist, parent) = comb_shortest(g, exit_node, &mut counters);
        debug_assert!(dist[g.source(f).index()] < INF);
        let mut path = Vec::new();
        let mut v = g.source(f);
        while v != exit_node {
            let e = parent[v.index()].expect("path recovered");
            path.push(e);
            v = g.source(e);
        }
        path.reverse();
        cycle.extend(path);
        cycle.push(f);
    }
    // Rotate so consecutive arcs connect (the register cycle may start
    // mid-pattern).
    if cycle.len() > 1 {
        let misfit = (0..cycle.len())
            .find(|&i| {
                let prev = cycle[(i + cycle.len() - 1) % cycle.len()];
                g.target(prev) != g.source(cycle[i])
            })
            .unwrap_or(0);
        cycle.rotate_left(misfit);
    }
    debug_assert!(crate::solution::check_cycle(g, &cycle).is_ok());
    Some(Solution {
        lambda: inner.lambda,
        cycle,
        guarantee: inner.guarantee,
        solved_by: inner.solved_by,
        counters,
    })
}

/// The number of register slots `T` of an instance — the parameter in
/// the pseudo-polynomial bounds of the paper's Table 1.
pub fn register_count(g: &Graph) -> i64 {
    g.arc_ids().map(|a| g.transit(a)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Ratio64;
    use crate::reference::brute_force_min_ratio;
    use crate::solution::check_cycle;

    /// A circuit-ish instance: mostly combinational arcs, few
    /// registers. Zero-transit arcs only ever point from a lower to a
    /// higher node index, so they cannot form a zero-transit cycle.
    fn circuitish(seed: u64) -> Graph {
        use mcr_gen::sprand::{sprand, SprandConfig};
        let g = sprand(&SprandConfig::new(10, 26).seed(seed).weight_range(-15, 15));
        let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_arcs());
        b.add_nodes(g.num_nodes());
        for a in g.arc_ids() {
            let t = if a.index() < 10 {
                1 + (a.index() as i64 % 2) // ring arcs carry registers
            } else if g.source(a) < g.target(a) {
                0 // forward logic arc
            } else {
                1
            };
            b.add_arc_with_transit(g.source(a), g.target(a), g.weight(a), t);
        }
        b.build()
    }

    #[test]
    fn matches_brute_force_on_circuitish_instances() {
        for seed in 0..25 {
            let g = circuitish(seed);
            let (expected, _) = brute_force_min_ratio(&g).expect("cyclic");
            let sol =
                minimum_ratio_via_registers(&g, Algorithm::Karp).expect("cyclic");
            assert_eq!(sol.lambda, expected, "seed {seed}");
            let (w, _, t) = check_cycle(&g, &sol.cycle).expect("valid witness");
            assert_eq!(Ratio64::new(w, t), expected, "witness seed {seed}");
        }
    }

    #[test]
    fn agrees_with_expansion_and_howard() {
        for seed in 0..10 {
            let g = circuitish(seed + 100);
            let via_registers = minimum_ratio_via_registers(&g, Algorithm::Karp2)
                .expect("cyclic")
                .lambda;
            let howard = crate::minimum_cycle_ratio(&g).expect("cyclic").lambda;
            assert_eq!(via_registers, howard, "seed {seed}");
        }
    }

    #[test]
    fn register_graph_is_smaller_than_expansion() {
        let g = circuitish(7);
        let t = register_count(&g);
        assert!(t < g.num_arcs() as i64 * 2);
        let mut c = Counters::new();
        let rg = build(&g, &mut c).expect("has registers");
        assert_eq!(rg.graph.num_nodes(), t as usize);
    }

    #[test]
    fn pure_register_ring() {
        // All arcs carry registers; the register graph is the line
        // graph of the ring.
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(3);
        b.add_arc_with_transit(v[0], v[1], 4, 1);
        b.add_arc_with_transit(v[1], v[2], 5, 2);
        b.add_arc_with_transit(v[2], v[0], 6, 1);
        let g = b.build();
        let sol = minimum_ratio_via_registers(&g, Algorithm::HowardExact).expect("cyclic");
        assert_eq!(sol.lambda, Ratio64::new(15, 4));
        let (w, _, t) = check_cycle(&g, &sol.cycle).expect("valid");
        assert_eq!(Ratio64::new(w, t), Ratio64::new(15, 4));
    }

    #[test]
    fn no_registers_returns_none() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 1, 0);
        let g = b.build();
        assert!(minimum_ratio_via_registers(&g, Algorithm::Karp).is_none());
    }

    #[test]
    fn zero_transit_cycle_is_rejected_without_panicking() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 1, 0);
        b.add_arc_with_transit(v[1], v[0], 1, 0);
        b.add_arc_with_transit(v[0], v[0], 5, 1);
        let g = b.build();
        assert!(minimum_ratio_via_registers(&g, Algorithm::Karp).is_none());
    }

    use mcr_graph::GraphBuilder;
}
