//! Asynchronous circuit performance analysis (Burns' domain, §1.1).
//!
//! Burns developed his cost-to-time-ratio algorithm to find the cycle
//! period of self-timed (asynchronous) circuits, modeled as *timed
//! event-rule systems*: events are transitions (a request, an
//! acknowledge, the completion of a functional unit), and rules
//! `e ─(δ, ε)→ f` say that occurrence `k + ε` of event `f` must wait at
//! least `δ` time units after occurrence `k` of event `e` (`ε` is the
//! occurrence-index offset — how many handshakes "in flight" the rule
//! spans). In steady state the system settles into periodic operation
//! with cycle period
//!
//! ```text
//! P = max_C  δ(C) / ε(C)
//! ```
//!
//! over the cycles of the rule graph — a maximum cost-to-time ratio
//! with delays as weights and occurrence offsets as transit times.

use mcr_core::critical::critical_subgraph;
use mcr_core::spec::solve_spec;
use mcr_core::{Algorithm, Ratio64, SolveOptions, SolveSpec};
use mcr_graph::{Graph, GraphBuilder, NodeId};

/// Handle to an event in an [`EventRuleSystem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId(usize);

/// A timed event-rule system.
#[derive(Clone, Debug, Default)]
pub struct EventRuleSystem {
    names: Vec<String>,
    // (from, to, delay, occurrence offset)
    rules: Vec<(usize, usize, i64, i64)>,
}

/// The steady-state analysis of an event-rule system.
#[derive(Clone, Debug)]
pub struct PeriodAnalysis {
    /// The asymptotic cycle period (time per occurrence index).
    pub period: Ratio64,
    /// Events on one period-limiting rule cycle, in order.
    pub critical_events: Vec<EventId>,
    /// Every rule lying on some period-limiting cycle, as
    /// `(from, to)` event pairs.
    pub critical_rules: Vec<(EventId, EventId)>,
}

impl EventRuleSystem {
    /// An empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event and returns its handle.
    pub fn add_event(&mut self, name: impl Into<String>) -> EventId {
        self.names.push(name.into());
        EventId(self.names.len() - 1)
    }

    /// Adds the rule "occurrence `k + offset` of `to` waits `delay`
    /// after occurrence `k` of `from`".
    ///
    /// # Panics
    ///
    /// Panics on stale handles, negative delay, or negative offset.
    pub fn add_rule(&mut self, from: EventId, to: EventId, delay: i64, offset: i64) {
        assert!(from.0 < self.names.len() && to.0 < self.names.len());
        assert!(delay >= 0, "rule delays must be nonnegative");
        assert!(offset >= 0, "occurrence offsets must be nonnegative");
        self.rules.push((from.0, to.0, delay, offset));
    }

    /// Number of events.
    pub fn num_events(&self) -> usize {
        self.names.len()
    }

    /// The name of an event.
    pub fn event_name(&self, id: EventId) -> &str {
        &self.names[id.0]
    }

    fn rule_graph(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.names.len(), self.rules.len());
        b.add_nodes(self.names.len());
        for &(from, to, delay, offset) in &self.rules {
            b.add_arc_with_transit(NodeId::new(from), NodeId::new(to), delay, offset);
        }
        b.build()
    }

    /// Whether the system deadlocks: a rule cycle with zero total
    /// occurrence offset means some occurrence waits on itself.
    pub fn has_deadlock(&self) -> bool {
        mcr_core::ratio::has_zero_transit_cycle(&self.rule_graph())
    }

    /// Computes the steady-state cycle period, or `None` if the rule
    /// graph is acyclic (the system is not self-timed — throughput is
    /// set by the environment, not by any internal loop).
    ///
    /// # Errors
    ///
    /// Returns `Err` on a deadlocked system.
    pub fn analyze(&self) -> Result<Option<PeriodAnalysis>, String> {
        let g = self.rule_graph();
        if mcr_core::ratio::has_zero_transit_cycle(&g) {
            return Err("event-rule system deadlocks: a rule cycle has zero total offset".into());
        }
        // A solver failure is reported, never read as "no loop".
        let spec = SolveSpec::ratio(Algorithm::HowardExact).maximize();
        let sol = solve_spec(&g, &spec, &SolveOptions::default()).map_err(|e| e.to_string())?;
        let sol = match sol {
            None => return Ok(None),
            Some(s) => s,
        };
        let critical_events = sol
            .cycle
            .iter()
            .map(|&a| EventId(g.source(a).index()))
            .collect();
        let cs = critical_subgraph(&g.negated(), -sol.lambda)
            .map_err(|e| format!("internal: {e}"))?;
        let critical_rules = cs
            .arcs
            .iter()
            .map(|&a| (EventId(g.source(a).index()), EventId(g.target(a).index())))
            .collect();
        Ok(Some(PeriodAnalysis {
            period: sol.lambda,
            critical_events,
            critical_rules,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-stage self-timed micropipeline: request/acknowledge
    /// handshakes around two function blocks.
    fn micropipeline() -> (EventRuleSystem, [EventId; 4]) {
        let mut ers = EventRuleSystem::new();
        let r1 = ers.add_event("req1");
        let a1 = ers.add_event("ack1");
        let r2 = ers.add_event("req2");
        let a2 = ers.add_event("ack2");
        // Stage logic delays.
        ers.add_rule(r1, a1, 20, 0); // stage 1 computes
        ers.add_rule(r2, a2, 30, 0); // stage 2 computes
        // Handshake forward: stage 2 starts after stage 1 acks.
        ers.add_rule(a1, r2, 5, 0);
        // Completion feeds the next token: next req1 fires one
        // occurrence later.
        ers.add_rule(a2, r1, 5, 1);
        // Stage 1 may restart once stage 2 has consumed its data.
        ers.add_rule(r2, r1, 2, 1);
        (ers, [r1, a1, r2, a2])
    }

    #[test]
    fn micropipeline_period() {
        let (ers, _) = micropipeline();
        assert!(!ers.has_deadlock());
        let analysis = ers.analyze().expect("live").expect("cyclic");
        // Limiting loop: r1 → a1 → r2 → a2 → r1 with total delay
        // 20+5+30+5 = 60 over 1 occurrence.
        assert_eq!(analysis.period, Ratio64::from(60));
    }

    #[test]
    fn critical_rules_cover_the_critical_loop() {
        let (ers, [r1, a1, r2, a2]) = micropipeline();
        let analysis = ers.analyze().unwrap().unwrap();
        for pair in [(r1, a1), (a1, r2), (r2, a2), (a2, r1)] {
            assert!(
                analysis.critical_rules.contains(&pair),
                "missing rule {:?}",
                pair
            );
        }
        // The shortcut rule r2 -> r1 is slack (2 < 30 + 5): not critical.
        assert!(!analysis.critical_rules.contains(&(r2, r1)));
    }

    #[test]
    fn faster_stage_shortens_the_period() {
        let (mut ers, [_, _, r2, a2]) = micropipeline();
        // Speed up stage 2 from 30 to 10: period drops to 40.
        ers.rules
            .iter_mut()
            .filter(|r| r.0 == r2.0 && r.1 == a2.0)
            .for_each(|r| r.2 = 10);
        let analysis = ers.analyze().unwrap().unwrap();
        assert_eq!(analysis.period, Ratio64::from(40));
    }

    #[test]
    fn more_pipeline_slack_raises_throughput_only_so_far() {
        // Doubling the occurrence offset on the token-return rule halves
        // that loop's contribution; the period is then set elsewhere.
        let (mut ers, [r1, a1, r2, a2]) = micropipeline();
        ers.rules
            .iter_mut()
            .filter(|r| r.0 == a2.0 && r.1 == r1.0)
            .for_each(|r| r.3 = 2);
        let analysis = ers.analyze().unwrap().unwrap();
        // Main loop now 60/2 = 30; the r2→r1 loop (2+20+5)/1? That loop:
        // r1→a1 (20), a1→r2 (5), r2→r1 (2, offset 1): 27/1 = 27 < 30.
        assert_eq!(analysis.period, Ratio64::from(30));
        let _ = (r1, a1, r2, a2);
    }

    #[test]
    fn deadlock_detection() {
        let mut ers = EventRuleSystem::new();
        let a = ers.add_event("a");
        let b = ers.add_event("b");
        ers.add_rule(a, b, 1, 0);
        ers.add_rule(b, a, 1, 0);
        assert!(ers.has_deadlock());
        assert!(ers.analyze().is_err());
    }

    #[test]
    fn environment_limited_system_has_no_internal_period() {
        let mut ers = EventRuleSystem::new();
        let a = ers.add_event("in");
        let b = ers.add_event("out");
        ers.add_rule(a, b, 10, 0);
        assert!(ers.analyze().expect("live").is_none());
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_offset_panics() {
        let mut ers = EventRuleSystem::new();
        let a = ers.add_event("a");
        ers.add_rule(a, a, 1, -1);
    }
}
