//! The route matrix: every objective × algorithm × orientation goes
//! through `solve_spec`, and every route honours the same contract —
//! cancellation, the work budget, thread-count bit-identity, and a
//! certified witness on every answer. The routes are enumerated, not
//! sampled, so a route that bypasses `SolveOptions` fails here.

use mcr_core::spec::{solve_spec, SpecError};
use mcr_core::{
    certify, Algorithm, Budget, CancelToken, FallbackChain, Objective, Solution, SolveError,
    SolveOptions, SolveSpec,
};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_gen::transit::with_random_transits;
use mcr_graph::{Graph, GraphBuilder};

/// Three strongly connected SPRAND blocks joined by one-way bridges:
/// several components for the driver, on which every route runs more
/// than one iteration. With `transits`, every arc gets a transit in
/// `1..=3` (none zero, so transit expansion applies too); without, unit
/// transits.
fn instance(transits: bool) -> Graph {
    let mut b = GraphBuilder::new();
    let mut first_node = Vec::new();
    for k in 0..3u64 {
        let part = sprand(&SprandConfig::new(7, 18).seed(40 + k).weight_range(-30, 30));
        let part = if transits {
            with_random_transits(&part, 1, 3, 90 + k)
        } else {
            part
        };
        let ids = b.add_nodes(part.num_nodes());
        first_node.push(ids[0]);
        for a in part.arc_ids() {
            b.add_arc_with_transit(
                ids[part.source(a).index()],
                ids[part.target(a).index()],
                part.weight(a),
                part.transit(a),
            );
        }
    }
    for w in first_node.windows(2) {
        b.add_arc_with_transit(w[0], w[1], 1, 1);
    }
    b.build()
}

fn routes() -> impl Iterator<Item = SolveSpec> {
    [Objective::Mean, Objective::Ratio]
        .into_iter()
        .flat_map(|objective| {
            Algorithm::ALL.into_iter().flat_map(move |algorithm| {
                [false, true].map(|maximize| SolveSpec {
                    algorithm,
                    objective,
                    maximize,
                })
            })
        })
}

fn label(spec: &SolveSpec) -> String {
    format!(
        "{} {:?} {}",
        spec.algorithm.name(),
        spec.objective,
        if spec.maximize { "max" } else { "min" }
    )
}

fn solve(g: &Graph, spec: &SolveSpec, opts: &SolveOptions) -> Solution {
    let sol = solve_spec(g, spec, opts)
        .unwrap_or_else(|e| panic!("{}: {e}", label(spec)))
        .unwrap_or_else(|| panic!("{}: reported acyclic", label(spec)));
    certify(&sol, g).unwrap_or_else(|e| panic!("{}: certify: {e}", label(spec)));
    sol
}

#[test]
fn every_route_certifies_and_is_thread_invariant() {
    for spec in routes() {
        // Mean routes solve to the end on unit transits, the mean's
        // definition: on a transit-carrying graph the mean answers
        // differently by algorithm, an open item of its own.
        let g = instance(spec.objective == Objective::Ratio);
        let seq = solve(&g, &spec, &SolveOptions::new().threads(1));
        let par = solve(&g, &spec, &SolveOptions::new().threads(8));
        let at = label(&spec);
        assert_eq!(par.lambda, seq.lambda, "{at}: lambda");
        assert_eq!(par.cycle, seq.cycle, "{at}: witness");
        assert_eq!(par.guarantee, seq.guarantee, "{at}: guarantee");
        assert_eq!(par.solved_by, seq.solved_by, "{at}: solved_by");
        assert_eq!(par.counters, seq.counters, "{at}: counters");
    }
}

#[test]
fn every_route_honours_a_cancelled_token() {
    let g = instance(true);
    let token = CancelToken::new();
    token.cancel();
    let opts = SolveOptions::new().cancel(token);
    for spec in routes() {
        let got = solve_spec(&g, &spec, &opts);
        assert_eq!(
            got.map(|_| ()),
            Err(SpecError::Solve(SolveError::Cancelled)),
            "{}",
            label(&spec)
        );
    }
}

#[test]
fn every_route_honours_a_one_iteration_budget() {
    let g = instance(true);
    let opts = SolveOptions::new()
        .budget(Budget::default().max_iterations(1))
        .fallback(FallbackChain::NONE);
    for spec in routes() {
        let at = label(&spec);
        match solve_spec(&g, &spec, &opts) {
            Ok(Some(sol)) => {
                certify(&sol, &g).unwrap_or_else(|e| panic!("{at}: certify: {e}"));
            }
            Err(SpecError::Solve(SolveError::BudgetExhausted { algorithm, .. })) => {
                assert_eq!(algorithm, spec.algorithm, "{at}: attribution");
            }
            other => panic!("{at}: expected an answer or BudgetExhausted, got {other:?}"),
        }
    }
}

#[test]
fn ratio_routes_agree_with_the_reference() {
    // Every exact ratio route, native or expanded, finds the same λ.
    let g = instance(true);
    for maximize in [false, true] {
        let mut reference = SolveSpec::ratio(Algorithm::HowardExact);
        reference.maximize = maximize;
        let expected = solve(&g, &reference, &SolveOptions::default()).lambda;
        for spec in routes().filter(|s| {
            s.objective == Objective::Ratio && s.maximize == maximize && !s.algorithm.is_approximate()
        }) {
            let got = solve(&g, &spec, &SolveOptions::default()).lambda;
            assert_eq!(got, expected, "{}", label(&spec));
        }
    }
}
