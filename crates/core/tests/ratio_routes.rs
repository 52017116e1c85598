//! Cross-validation of every route to the minimum cost-to-time ratio:
//! native solvers, the arc-expansion reduction, and the register-graph
//! reduction must agree exactly, with valid witnesses, on instances
//! spanning the transit-time spectrum (unit, mixed, zero-heavy).

use mcr_core::ratio::minimum_ratio_via_registers;
use mcr_core::register_graph::register_count;
use mcr_core::solution::check_cycle;
use mcr_core::spec::solve_spec;
use mcr_core::{
    Algorithm, FallbackChain, Objective, Ratio64, Solution, SolveOptions, SolveSpec,
};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::{Graph, GraphBuilder};

/// Instances with every arc carrying at least one register (all routes
/// apply, including expansion).
fn all_registered(seed: u64, n: usize, m: usize) -> Graph {
    use mcr_gen::transit::with_random_transits;
    let g = sprand(&SprandConfig::new(n, m).seed(seed).weight_range(-100, 100));
    with_random_transits(&g, 1, 6, seed.wrapping_mul(97))
}

/// Circuit-flavored: ring arcs registered, forward chords combinational.
fn circuit_flavored(seed: u64, n: usize, m: usize) -> Graph {
    let g = sprand(&SprandConfig::new(n, m).seed(seed).weight_range(-50, 50));
    let mut b = GraphBuilder::with_capacity(n, m);
    b.add_nodes(n);
    for a in g.arc_ids() {
        let t = if a.index() < n {
            1
        } else if g.source(a) < g.target(a) {
            0
        } else {
            2
        };
        b.add_arc_with_transit(g.source(a), g.target(a), g.weight(a), t);
    }
    b.build()
}

fn witness_ratio(g: &Graph, sol: &Solution) -> Ratio64 {
    let (w, _, t) = check_cycle(g, &sol.cycle).expect("valid witness");
    Ratio64::new(w, t)
}

/// The ratio answer of `alg` alone: no fallback, so a give-up of the
/// named kernel fails the test instead of being answered by another.
fn ratio(g: &Graph, alg: Algorithm) -> Solution {
    let opts = SolveOptions::new().fallback(FallbackChain::NONE);
    let sol = solve_spec(g, &SolveSpec::ratio(alg), &opts)
        .expect("solves")
        .expect("cyclic");
    assert_eq!(sol.solved_by, alg, "{}", alg.name());
    sol
}

fn check_routes(g: &Graph, label: &str, include_expansion: bool) {
    let reference = ratio(g, Algorithm::HowardExact);
    let expected = reference.lambda;
    assert_eq!(witness_ratio(g, &reference), expected, "{label}: howard witness");

    // Every exact native-ratio kernel, plus transit expansion (DG) where
    // every transit is positive, plus the register-graph reduction.
    let mut routes: Vec<(&str, Solution)> = Algorithm::ALL
        .into_iter()
        .filter(|a| !a.is_approximate() && a.has_scc_kernel(Objective::Ratio))
        .map(|a| (a.name(), ratio(g, a)))
        .collect();
    routes.push((
        "registers+karp2",
        minimum_ratio_via_registers(g, Algorithm::Karp2).expect("cyclic"),
    ));
    routes.push((
        "registers+yto",
        minimum_ratio_via_registers(g, Algorithm::Yto).expect("cyclic"),
    ));
    if include_expansion {
        routes.push(("expand+dg", ratio(g, Algorithm::Dg)));
    }
    for (name, sol) in routes {
        assert_eq!(sol.lambda, expected, "{label}: {name} lambda");
        assert_eq!(witness_ratio(g, &sol), expected, "{label}: {name} witness");
    }
}

#[test]
fn fully_registered_instances() {
    for seed in 0..8 {
        let g = all_registered(seed, 16, 48);
        check_routes(&g, &format!("registered-{seed}"), true);
    }
}

#[test]
fn circuit_flavored_instances() {
    for seed in 0..8 {
        let g = circuit_flavored(seed, 16, 44);
        // Zero-transit arcs: expansion route does not apply.
        check_routes(&g, &format!("circuit-{seed}"), false);
    }
}

#[test]
fn register_count_tracks_transits() {
    let g = all_registered(3, 12, 30);
    let t: i64 = g.arc_ids().map(|a| g.transit(a)).sum();
    assert_eq!(register_count(&g), t);
}

#[test]
fn larger_instances_stay_consistent() {
    // No brute force here — pure cross-validation at a size where the
    // routes exercise nontrivial internal structure.
    for seed in 0..3 {
        let g = all_registered(seed + 50, 120, 360);
        let a = ratio(&g, Algorithm::HowardExact).lambda;
        let b = ratio(&g, Algorithm::LawlerExact).lambda;
        let c = ratio(&g, Algorithm::Megiddo).lambda;
        let d = ratio(&g, Algorithm::Yto).lambda;
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(a, c, "seed {seed}");
        assert_eq!(a, d, "seed {seed}");
    }
}

#[test]
fn unit_transit_ratio_equals_mean_for_all_routes() {
    for seed in 0..5 {
        let g = sprand(&SprandConfig::new(14, 40).seed(seed));
        let mean = Algorithm::HowardExact.solve(&g).unwrap().lambda;
        check_routes(&g, &format!("unit-{seed}"), true);
        assert_eq!(ratio(&g, Algorithm::HowardExact).lambda, mean);
    }
}
