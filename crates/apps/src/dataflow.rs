//! Iteration bound analysis of recursive dataflow graphs.
//!
//! In a synchronous dataflow graph, actors fire when their inputs are
//! available and edges carry *delays* (initial tokens / registers). The
//! throughput of any schedule — no matter how much hardware is thrown
//! at it — is limited by the **iteration bound** (Ito & Parhi, §1.1 of
//! the study):
//!
//! ```text
//! T∞ = max_C  time(C) / delays(C)
//! ```
//!
//! over the loops `C` of the graph. This module provides the DFG model,
//! the bound, per-loop slack analysis, and the critical loop.

use mcr_core::critical::critical_subgraph;
use mcr_core::reference::for_each_simple_cycle;
use mcr_core::spec::solve_spec;
use mcr_core::{Algorithm, Ratio64, SolveOptions, SolveSpec};
use mcr_graph::{Graph, GraphBuilder, NodeId};

/// A dataflow actor with an execution time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Actor {
    /// Human-readable name.
    pub name: String,
    /// Execution time in integer time units.
    pub execution_time: i64,
}

impl Actor {
    /// Creates a named actor.
    ///
    /// # Panics
    ///
    /// Panics if `execution_time` is negative.
    pub fn new(name: impl Into<String>, execution_time: i64) -> Self {
        assert!(execution_time >= 0, "execution times must be nonnegative");
        Actor {
            name: name.into(),
            execution_time,
        }
    }
}

/// Handle to an actor in a [`DataflowGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ActorId(usize);

/// A synchronous dataflow graph.
#[derive(Clone, Debug, Default)]
pub struct DataflowGraph {
    actors: Vec<Actor>,
    // (from, to, delays)
    edges: Vec<(usize, usize, i64)>,
}

/// The iteration bound and its witness.
#[derive(Clone, Debug)]
pub struct IterationBound {
    /// `T∞`: minimum achievable iteration period.
    pub periods_per_iteration: Ratio64,
    /// Actors on one critical loop, in traversal order.
    pub critical_loop: Vec<ActorId>,
}

/// Slack of one loop relative to the iteration bound.
#[derive(Clone, Debug)]
pub struct LoopSlack {
    /// Actors on the loop, in traversal order.
    pub actors: Vec<ActorId>,
    /// The loop's own bound `time/delays`.
    pub loop_bound: Ratio64,
    /// `T∞ − loop_bound` (zero on critical loops).
    pub slack: Ratio64,
}

impl DataflowGraph {
    /// An empty dataflow graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an actor and returns its handle.
    pub fn add_actor(&mut self, actor: Actor) -> ActorId {
        self.actors.push(actor);
        ActorId(self.actors.len() - 1)
    }

    /// Adds an edge carrying `delays` initial tokens.
    ///
    /// # Panics
    ///
    /// Panics on stale handles or negative delay counts.
    pub fn connect(&mut self, from: ActorId, to: ActorId, delays: i64) {
        assert!(from.0 < self.actors.len() && to.0 < self.actors.len());
        assert!(delays >= 0, "delay counts must be nonnegative");
        self.edges.push((from.0, to.0, delays));
    }

    /// Number of actors.
    pub fn num_actors(&self) -> usize {
        self.actors.len()
    }

    /// The actor behind a handle.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.0]
    }

    fn graph(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.actors.len(), self.edges.len());
        b.add_nodes(self.actors.len());
        for &(from, to, delays) in &self.edges {
            b.add_arc_with_transit(
                NodeId::new(from),
                NodeId::new(to),
                self.actors[from].execution_time,
                delays,
            );
        }
        b.build()
    }

    /// Whether the graph has a delay-free loop (a deadlock: no schedule
    /// exists).
    pub fn has_deadlock(&self) -> bool {
        mcr_core::ratio::has_zero_transit_cycle(&self.graph())
    }

    /// Computes the iteration bound, or `None` for a non-recursive
    /// (acyclic) graph, whose throughput is unbounded by loops.
    ///
    /// # Errors
    ///
    /// Returns `Err` on a delay-free loop (deadlock).
    pub fn iteration_bound(&self) -> Result<Option<IterationBound>, String> {
        let g = self.graph();
        if mcr_core::ratio::has_zero_transit_cycle(&g) {
            return Err("dataflow graph deadlocks: a loop carries no delays".into());
        }
        // A solver failure is reported, never read as "no loop".
        let spec = SolveSpec::ratio(Algorithm::HowardExact).maximize();
        let sol = solve_spec(&g, &spec, &SolveOptions::default()).map_err(|e| e.to_string())?;
        Ok(sol.map(|sol| IterationBound {
            periods_per_iteration: sol.lambda,
            critical_loop: sol
                .cycle
                .iter()
                .map(|&a| ActorId(g.source(a).index()))
                .collect(),
        }))
    }

    /// Enumerates every simple loop with its bound and slack, sorted by
    /// decreasing loop bound (critical loops first). Exponential in the
    /// worst case — intended for design-sized graphs.
    ///
    /// # Errors
    ///
    /// Returns `Err` on a delay-free loop.
    pub fn loop_slacks(&self) -> Result<Vec<LoopSlack>, String> {
        let bound = match self.iteration_bound()? {
            None => return Ok(Vec::new()),
            Some(b) => b.periods_per_iteration,
        };
        let g = self.graph();
        let mut out = Vec::new();
        for_each_simple_cycle(&g, |cycle| {
            let time: i64 = cycle.iter().map(|&a| g.weight(a)).sum();
            let delays: i64 = cycle.iter().map(|&a| g.transit(a)).sum();
            let loop_bound = Ratio64::new(time, delays);
            out.push(LoopSlack {
                actors: cycle.iter().map(|&a| ActorId(g.source(a).index())).collect(),
                loop_bound,
                slack: bound - loop_bound,
            });
        });
        out.sort_by_key(|s| std::cmp::Reverse(s.loop_bound));
        Ok(out)
    }

    /// Actors lying on some critical loop — the ones worth pipelining
    /// or speeding up, derived from the critical subgraph.
    ///
    /// # Errors
    ///
    /// Returns `Err` on a delay-free loop.
    pub fn critical_actors(&self) -> Result<Vec<ActorId>, String> {
        let bound = match self.iteration_bound()? {
            None => return Ok(Vec::new()),
            Some(b) => b.periods_per_iteration,
        };
        let g = self.graph();
        let cs = critical_subgraph(&g.negated(), -bound).map_err(|e| format!("internal: {e}"))?;
        Ok(cs
            .nodes()
            .into_iter()
            .map(|v| ActorId(v.index()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic second-order IIR filter (biquad).
    fn biquad() -> (DataflowGraph, [ActorId; 4]) {
        let mut dfg = DataflowGraph::new();
        let add1 = dfg.add_actor(Actor::new("add1", 1));
        let add2 = dfg.add_actor(Actor::new("add2", 1));
        let mul_a = dfg.add_actor(Actor::new("mul_a", 2));
        let mul_b = dfg.add_actor(Actor::new("mul_b", 2));
        dfg.connect(add1, add2, 0);
        dfg.connect(add2, mul_a, 1);
        dfg.connect(add2, mul_b, 2);
        dfg.connect(mul_a, add1, 0);
        dfg.connect(mul_b, add2, 0);
        (dfg, [add1, add2, mul_a, mul_b])
    }

    #[test]
    fn biquad_iteration_bound() {
        // Loops: add2→mul_a→add1→add2: time 1+2+1=4, delays 1 → 4.
        //        add2→mul_b→add2: time 1+2=3, delays 2 → 3/2.
        let (dfg, _) = biquad();
        let bound = dfg.iteration_bound().unwrap().unwrap();
        assert_eq!(bound.periods_per_iteration, Ratio64::from(4));
        assert_eq!(bound.critical_loop.len(), 3);
    }

    #[test]
    fn loop_slacks_are_sorted_and_consistent() {
        let (dfg, _) = biquad();
        let slacks = dfg.loop_slacks().unwrap();
        assert_eq!(slacks.len(), 2);
        assert_eq!(slacks[0].slack, Ratio64::ZERO);
        assert_eq!(slacks[1].loop_bound, Ratio64::new(3, 2));
        assert_eq!(slacks[1].slack, Ratio64::new(5, 2));
    }

    #[test]
    fn critical_actors_are_the_slow_loop() {
        let (dfg, [add1, add2, mul_a, mul_b]) = biquad();
        let critical = dfg.critical_actors().unwrap();
        assert!(critical.contains(&add1));
        assert!(critical.contains(&add2));
        assert!(critical.contains(&mul_a));
        assert!(!critical.contains(&mul_b));
    }

    #[test]
    fn deadlock_detection() {
        let mut dfg = DataflowGraph::new();
        let a = dfg.add_actor(Actor::new("a", 1));
        let b = dfg.add_actor(Actor::new("b", 1));
        dfg.connect(a, b, 0);
        dfg.connect(b, a, 0);
        assert!(dfg.has_deadlock());
        assert!(dfg.iteration_bound().is_err());
        assert!(dfg.loop_slacks().is_err());
    }

    #[test]
    fn acyclic_graph_has_no_bound() {
        let mut dfg = DataflowGraph::new();
        let a = dfg.add_actor(Actor::new("src", 3));
        let b = dfg.add_actor(Actor::new("sink", 4));
        dfg.connect(a, b, 0);
        assert!(dfg.iteration_bound().unwrap().is_none());
        assert!(dfg.loop_slacks().unwrap().is_empty());
        assert!(dfg.critical_actors().unwrap().is_empty());
    }

    #[test]
    fn faster_multiplier_lowers_the_bound() {
        let (mut base, _) = biquad();
        // Same topology, multiplier sped up from 2 to 1.
        base.actors[2].execution_time = 1;
        let bound = base.iteration_bound().unwrap().unwrap();
        assert_eq!(bound.periods_per_iteration, Ratio64::from(3));
    }
}
