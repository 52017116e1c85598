//! Maximum cycle mean / ratio via negation.
//!
//! `max_C w(C)/t(C) = −min_C (−w)(C)/t(C)`, so every minimum solver
//! doubles as a maximum solver on the negated graph. The maximum cycle
//! mean is the quantity CAD applications usually need directly: the
//! minimum clock period of a synchronous circuit and the iteration bound
//! of a dataflow graph are *maximum* ratios.

use crate::algorithms::Algorithm;
use crate::options::SolveOptions;
use crate::solution::Solution;
use crate::spec::{solve_spec, SolveSpec};
use mcr_graph::Graph;

/// Maximum cycle mean of `g` (exact, Howard), or `None` if acyclic.
///
/// ```
/// use mcr_graph::graph::from_arc_list;
/// let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 1), (0, 0, 9)]);
/// let sol = mcr_core::maximum::maximum_cycle_mean(&g).expect("cyclic");
/// assert_eq!(sol.lambda, mcr_core::Ratio64::from(9));
/// ```
pub fn maximum_cycle_mean(g: &Graph) -> Option<Solution> {
    let spec = SolveSpec::mean(Algorithm::HowardExact).maximize();
    solve_spec(g, &spec, &SolveOptions::default()).ok().flatten()
}

/// Maximum cost-to-time ratio of `g` (exact, Howard), or `None` if
/// acyclic or if a zero-transit cycle makes the ratio undefined.
pub fn maximum_cycle_ratio(g: &Graph) -> Option<Solution> {
    let spec = SolveSpec::ratio(Algorithm::HowardExact).maximize();
    solve_spec(g, &spec, &SolveOptions::default()).ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Ratio64;
    use crate::reference::{brute_force_min_mean, brute_force_min_ratio, for_each_simple_cycle};
    use mcr_gen::sprand::{sprand, SprandConfig};
    use mcr_gen::transit::with_random_transits;

    fn brute_max_mean(g: &Graph) -> Option<Ratio64> {
        let mut best: Option<Ratio64> = None;
        for_each_simple_cycle(g, |cycle| {
            let w: i64 = cycle.iter().map(|&a| g.weight(a)).sum();
            let mean = Ratio64::new(w, cycle.len() as i64);
            if best.is_none_or(|b| mean > b) {
                best = Some(mean);
            }
        });
        best
    }

    #[test]
    fn max_mean_matches_brute_force() {
        for seed in 0..20 {
            let g = sprand(&SprandConfig::new(9, 24).seed(seed).weight_range(-30, 30));
            let expected = brute_max_mean(&g).expect("cyclic");
            let sol = maximum_cycle_mean(&g).expect("cyclic");
            assert_eq!(sol.lambda, expected, "seed {seed}");
            // Witness cycle achieves the max.
            assert_eq!(sol.cycle_mean(&g), expected);
        }
    }

    #[test]
    fn duality_with_minimum() {
        for seed in 0..10 {
            let g = sprand(&SprandConfig::new(10, 25).seed(seed).weight_range(-9, 9));
            let max = maximum_cycle_mean(&g).unwrap().lambda;
            let min_neg = brute_force_min_mean(&g.negated()).unwrap().0;
            assert_eq!(max, -min_neg);
        }
    }

    #[test]
    fn max_ratio_with_transits() {
        for seed in 0..10 {
            let g0 = sprand(&SprandConfig::new(8, 20).seed(seed).weight_range(1, 50));
            let g = with_random_transits(&g0, 1, 4, seed);
            let sol = maximum_cycle_ratio(&g).expect("cyclic");
            // Cross-check against negated brute force.
            let expected = -brute_force_min_ratio(&g.negated()).unwrap().0;
            assert_eq!(sol.lambda, expected, "seed {seed}");
        }
    }

    #[test]
    fn every_algorithm_solves_the_max_problem() {
        let g = sprand(&SprandConfig::new(12, 30).seed(5).weight_range(1, 99));
        let expected = brute_max_mean(&g).expect("cyclic");
        for alg in [
            Algorithm::Burns,
            Algorithm::Ko,
            Algorithm::Yto,
            Algorithm::HowardExact,
            Algorithm::Karp,
            Algorithm::LawlerExact,
        ] {
            let sol = solve_spec(&g, &SolveSpec::mean(alg).maximize(), &SolveOptions::default())
                .expect("solves")
                .expect("cyclic");
            assert_eq!(sol.lambda, expected, "{}", alg.name());
        }
    }
}
