//! End-to-end workflows through the facade crate: generate or parse a
//! graph, solve it, inspect the solution — the way a downstream user
//! would.

use mcr::core::critical::critical_subgraph;
use mcr::core::ratio;
use mcr::gen::circuit::{circuit_graph, CircuitConfig};
use mcr::gen::sprand::{sprand, SprandConfig};
use mcr::gen::transit::with_random_transits;
use mcr::graph::io::{read_dimacs, write_dimacs};
use mcr::{Algorithm, GraphBuilder, Guarantee, Ratio64};

#[test]
fn serialize_solve_roundtrip() {
    let g = sprand(&SprandConfig::new(64, 160).seed(9));
    let before = mcr::minimum_cycle_mean(&g).expect("cyclic").lambda;
    let mut buf = Vec::new();
    write_dimacs(&mut buf, &g).expect("write");
    let g2 = read_dimacs(&mut buf.as_slice()).expect("parse");
    let after = mcr::minimum_cycle_mean(&g2).expect("cyclic").lambda;
    assert_eq!(before, after);
}

#[test]
fn ratio_instance_roundtrip_with_transits() {
    let g0 = sprand(&SprandConfig::new(32, 80).seed(4));
    let g = with_random_transits(&g0, 1, 8, 77);
    let before = mcr::minimum_cycle_ratio(&g).expect("cyclic").lambda;
    let mut buf = Vec::new();
    write_dimacs(&mut buf, &g).expect("write");
    let g2 = read_dimacs(&mut buf.as_slice()).expect("parse");
    assert_eq!(mcr::minimum_cycle_ratio(&g2).expect("cyclic").lambda, before);
}

#[test]
fn clock_period_workflow() {
    // The clock_period example's workflow, verified end to end.
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(3);
    b.add_arc_with_transit(v[0], v[1], 10, 1);
    b.add_arc_with_transit(v[1], v[2], 20, 1);
    b.add_arc_with_transit(v[2], v[0], 12, 1); // loop: 42 delay / 3 regs = 14
    b.add_arc_with_transit(v[1], v[0], 40, 2); // loop: 50 delay / 3 regs
    let g = b.build();
    let sol = mcr::maximum_cycle_ratio(&g).expect("cyclic");
    assert_eq!(sol.lambda, Ratio64::new(50, 3));
    let cs = critical_subgraph(&g.negated(), -sol.lambda).expect("optimal");
    assert!(!cs.arcs.is_empty());
    // All witness arcs are critical in the negated problem.
    for a in &sol.cycle {
        assert!(cs.arcs.contains(a));
    }
}

#[test]
fn large_sprand_instance_solves_quickly_and_consistently() {
    let g = sprand(&SprandConfig::new(2000, 6000).seed(13));
    let howard = Algorithm::HowardExact.solve(&g).expect("cyclic");
    let yto = Algorithm::Yto.solve(&g).expect("cyclic");
    let lawler = Algorithm::LawlerExact.solve(&g).expect("cyclic");
    assert_eq!(howard.lambda, yto.lambda);
    assert_eq!(howard.lambda, lawler.lambda);
    assert!(matches!(howard.guarantee, Guarantee::Exact));
    // §4.3: Howard's iteration count is drastically small.
    assert!(howard.counters.iterations < 200);
}

#[test]
fn circuit_benchmark_workflow() {
    // Circuits are multi-SCC; the solver must pick the global optimum.
    let g = circuit_graph(&CircuitConfig::new(600).seed(11));
    let min = mcr::minimum_cycle_mean(&g).expect("cyclic");
    let max = mcr::maximum_cycle_mean(&g).expect("cyclic");
    assert!(min.lambda <= max.lambda);
    // DG's unfolding advantage shows on circuits (§4.4).
    let dg = Algorithm::Dg.solve(&g).expect("cyclic");
    let karp = Algorithm::Karp.solve(&g).expect("cyclic");
    assert_eq!(dg.lambda, karp.lambda);
    assert!(
        dg.counters.arcs_visited < karp.counters.arcs_visited,
        "DG {} vs Karp {}",
        dg.counters.arcs_visited,
        karp.counters.arcs_visited
    );
}

#[test]
fn guarantees_reported_correctly() {
    let g = sprand(&SprandConfig::new(50, 150).seed(2));
    for alg in Algorithm::ALL {
        let sol = alg.solve(&g).expect("cyclic");
        match sol.guarantee {
            Guarantee::Exact => assert!(!alg.is_approximate(), "{}", alg.name()),
            Guarantee::Epsilon(e) => {
                assert!(alg.is_approximate(), "{}", alg.name());
                assert!(e > 0.0);
            }
        }
    }
}

#[test]
fn expansion_reduction_consistency_at_scale() {
    let g0 = sprand(&SprandConfig::new(60, 150).seed(21).weight_range(1, 500));
    let g = with_random_transits(&g0, 1, 4, 3);
    let native = mcr::minimum_cycle_ratio(&g).expect("cyclic").lambda;
    let opts = mcr::SolveOptions::default();
    let via_karp = ratio::ratio_via_expansion(&g, Algorithm::Karp, &opts)
        .expect("positive transits")
        .expect("cyclic")
        .lambda;
    let via_yto = ratio::ratio_via_expansion(&g, Algorithm::Yto, &opts)
        .expect("positive transits")
        .expect("cyclic")
        .lambda;
    assert_eq!(native, via_karp);
    assert_eq!(native, via_yto);
}

#[test]
fn counters_are_populated_per_algorithm_family() {
    let g = sprand(&SprandConfig::new(100, 300).seed(5));
    let yto = Algorithm::Yto.solve(&g).unwrap();
    assert!(yto.counters.heap.total() > 0, "YTO uses the heap");
    let karp = Algorithm::Karp.solve(&g).unwrap();
    assert!(karp.counters.arcs_visited > 0, "Karp counts arc visits");
    let lawler = Algorithm::Lawler.solve(&g).unwrap();
    assert!(lawler.counters.oracle_calls > 0, "Lawler counts oracle calls");
    let howard = Algorithm::HowardExact.solve(&g).unwrap();
    assert!(howard.counters.cycles_examined > 0, "Howard examines policy cycles");
    let burns = Algorithm::Burns.solve(&g).unwrap();
    assert!(burns.counters.iterations > 0, "Burns iterates");
}
