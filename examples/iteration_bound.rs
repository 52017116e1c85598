//! Iteration bound of a DSP dataflow graph (paper §1.1, Ito & Parhi).
//!
//! A recursive dataflow graph cannot be executed faster than its
//! *iteration bound* `T∞ = max_C w(C)/t(C)`, where `w` sums the node
//! computation times along a cycle and `t` counts its delay (register)
//! elements. This example computes `T∞` for the classic second-order
//! IIR biquad filter and for a lattice filter, and cross-checks three
//! different ratio solvers.
//!
//! Run with: `cargo run --example iteration_bound`

use mcr::core::spec::solve_spec;
use mcr::core::{Algorithm, SolveSpec};
use mcr::{maximum_cycle_ratio, Graph, GraphBuilder, SolveOptions};

/// Second-order IIR section: y(n) = x(n) + a·y(n−1) + b·y(n−2).
///
/// Nodes: one adder chain (+: 1 time unit each) and two multipliers
/// (×: 2 time units). Delay elements appear on the feedback arcs. Node
/// computation times are modeled on the *outgoing* arcs.
fn biquad() -> (Graph, &'static str) {
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(4); // add1, add2, mul_a, mul_b
    let (add1, add2, mul_a, mul_b) = (v[0], v[1], v[2], v[3]);
    // add1 -> add2 (adder time 1, no delay)
    b.add_arc_with_transit(add1, add2, 1, 0);
    // add2 output y(n) feeds both multipliers through delays.
    b.add_arc_with_transit(add2, mul_a, 1, 1); // y(n-1), adder time 1
    b.add_arc_with_transit(add2, mul_b, 1, 2); // y(n-2)
    // multipliers feed the adders back (multiplier time 2).
    b.add_arc_with_transit(mul_a, add1, 2, 0);
    b.add_arc_with_transit(mul_b, add2, 2, 0);
    (b.build(), "second-order IIR biquad")
}

/// Two-stage lattice filter with tighter recursion.
fn lattice() -> (Graph, &'static str) {
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(4);
    b.add_arc_with_transit(v[0], v[1], 2, 0);
    b.add_arc_with_transit(v[1], v[2], 2, 1);
    b.add_arc_with_transit(v[2], v[3], 1, 0);
    b.add_arc_with_transit(v[3], v[0], 1, 1);
    b.add_arc_with_transit(v[2], v[0], 3, 1);
    b.add_arc_with_transit(v[1], v[3], 2, 2);
    (b.build(), "two-stage lattice filter")
}

fn analyze(g: &Graph, name: &str) {
    let sol = maximum_cycle_ratio(g).expect("recursive dataflow graphs are cyclic");
    println!("{name}:");
    println!(
        "  iteration bound T∞ = {} ≈ {:.3} time units/iteration",
        sol.lambda,
        sol.lambda.to_f64()
    );
    println!(
        "  critical loop: {} arcs, computation {} over {} delays",
        sol.cycle.len(),
        sol.cycle.iter().map(|&a| g.weight(a)).sum::<i64>(),
        sol.cycle.iter().map(|&a| g.transit(a)).sum::<i64>()
    );

    // Cross-check: three structurally different exact MCR algorithms
    // must agree.
    for alg in [Algorithm::Burns, Algorithm::Yto, Algorithm::LawlerExact] {
        let spec = SolveSpec::ratio(alg).maximize();
        let got = solve_spec(g, &spec, &SolveOptions::default())
            .expect("positive-delay loops")
            .expect("cyclic")
            .lambda;
        let label = alg.name();
        assert_eq!(got, sol.lambda, "{label} disagrees");
        println!("  cross-check {label:<13} T∞ = {got}");
    }
    println!();
}

fn main() {
    let (g, name) = biquad();
    analyze(&g, name);
    let (g, name) = lattice();
    analyze(&g, name);
}
