//! Differential tests: every algorithm against the brute-force
//! reference and against each other, over several graph families.

use mcr::core::reference::{brute_force_min_mean, brute_force_min_ratio};
use mcr::core::solution::check_cycle;
use mcr::core::spec::solve_spec;
use mcr::core::{FallbackChain, SolveSpec};
use mcr::gen::circuit::{circuit_graph, CircuitConfig};
use mcr::gen::sprand::{sprand, SprandConfig};
use mcr::gen::structured;
use mcr::gen::transit::with_random_transits;
use mcr::{Algorithm, Graph, Ratio64, SolveOptions};

fn assert_all_exact_agree(g: &Graph, expected: Option<Ratio64>, label: &str) {
    for alg in Algorithm::ALL {
        let sol = alg.solve(g);
        match (&sol, expected) {
            (None, None) => {}
            (Some(sol), Some(expected)) => {
                let (w, len, _) = check_cycle(g, &sol.cycle)
                    .unwrap_or_else(|e| panic!("{label}/{}: bad witness: {e}", alg.name()));
                assert_eq!(
                    Ratio64::new(w, len as i64),
                    sol.lambda,
                    "{label}/{}: lambda is not the witness mean",
                    alg.name()
                );
                if alg.is_approximate() {
                    assert!(
                        sol.lambda >= expected,
                        "{label}/{}: below optimum",
                        alg.name()
                    );
                    let eps = Algorithm::default_epsilon(g);
                    assert!(
                        sol.lambda.to_f64() - expected.to_f64() <= 2.0 * eps + 1e-9,
                        "{label}/{}: {} vs {}",
                        alg.name(),
                        sol.lambda,
                        expected
                    );
                } else {
                    assert_eq!(sol.lambda, expected, "{label}/{}", alg.name());
                }
            }
            _ => panic!(
                "{label}/{}: cyclicity disagreement (got {:?}, expected {:?})",
                alg.name(),
                sol.as_ref().map(|s| s.lambda),
                expected
            ),
        }
    }
}

#[test]
fn sprand_family() {
    for seed in 0..30 {
        let g = sprand(&SprandConfig::new(12, 30).seed(seed).weight_range(-50, 50));
        let expected = brute_force_min_mean(&g).map(|(l, _)| l);
        assert_all_exact_agree(&g, expected, &format!("sprand-{seed}"));
    }
}

#[test]
fn sprand_positive_weights() {
    for seed in 0..15 {
        let g = sprand(&SprandConfig::new(14, 20).seed(seed)); // paper's [1,10000]
        let expected = brute_force_min_mean(&g).map(|(l, _)| l);
        assert_all_exact_agree(&g, expected, &format!("sprand-pos-{seed}"));
    }
}

#[test]
fn circuit_family_multi_scc() {
    for seed in 0..10 {
        let g = circuit_graph(&CircuitConfig::new(40).seed(seed));
        let expected = brute_force_min_mean(&g).map(|(l, _)| l);
        assert_all_exact_agree(&g, expected, &format!("circuit-{seed}"));
    }
}

#[test]
fn structured_families() {
    let cases: Vec<(Graph, &str)> = vec![
        (structured::ring(&[5]), "loop-1"),
        (structured::ring(&[-3, 7, 11, -2]), "ring-4"),
        (structured::complete(6, |u, v| (u as i64) * 3 - (v as i64)), "complete-6"),
        (structured::torus(3, 3, |r, c, d| (r + 2 * c + d) as i64), "torus-3x3"),
        (structured::two_rings_with_bridge(&[4, 4], &[1, 2, 3], 0), "two-rings"),
        (structured::shortcut_ladder(12), "ladder-12"),
        (structured::layered_dag(3, 3, |_, _, _| 1).0, "dag"),
    ];
    for (g, label) in cases {
        let expected = brute_force_min_mean(&g).map(|(l, _)| l);
        assert_all_exact_agree(&g, expected, label);
    }
}

#[test]
fn extreme_weights() {
    // Weights near the scaled-arithmetic comfort zone boundaries.
    let big = 1_000_000_007i64;
    let g = structured::ring(&[big, -big, big, big - 1]);
    let expected = brute_force_min_mean(&g).map(|(l, _)| l);
    assert_all_exact_agree(&g, expected, "big-weights");
}

#[test]
fn ratio_solvers_against_brute_force() {
    for seed in 0..20 {
        let g0 = sprand(&SprandConfig::new(10, 26).seed(seed).weight_range(-30, 30));
        let g = with_random_transits(&g0, 1, 6, seed.wrapping_mul(31));
        let (expected, _) = brute_force_min_ratio(&g).expect("cyclic");
        // Every exact route: the native-ratio kernels, and transit
        // expansion for the algorithms without one. No fallback, so a
        // give-up of the named kernel fails the test.
        let opts = SolveOptions::new().fallback(FallbackChain::NONE);
        for alg in Algorithm::ALL.into_iter().filter(|a| !a.is_approximate()) {
            let sol = solve_spec(&g, &SolveSpec::ratio(alg), &opts)
                .expect("positive transits")
                .expect("cyclic");
            let name = alg.name();
            assert_eq!(sol.solved_by, alg, "{name} seed {seed}");
            assert_eq!(sol.lambda, expected, "{name} seed {seed}");
            let (w, _, t) = check_cycle(&g, &sol.cycle).expect("valid witness");
            assert_eq!(Ratio64::new(w, t), expected, "{name} witness seed {seed}");
        }
    }
}

#[test]
fn mean_equals_ratio_with_unit_transits() {
    for seed in 0..10 {
        let g = sprand(&SprandConfig::new(12, 36).seed(seed).weight_range(1, 100));
        let mean = mcr::minimum_cycle_mean(&g).unwrap().lambda;
        let ratio = mcr::minimum_cycle_ratio(&g).unwrap().lambda;
        assert_eq!(mean, ratio, "seed {seed}");
    }
}
