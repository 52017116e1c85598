//! Megiddo's parametric search (Table 1, row 12).
//!
//! Megiddo's technique runs a *master* algorithm — here Bellman–Ford on
//! `G_λ` — symbolically at the unknown optimum `λ*`. Every distance is
//! a linear function `a − b·λ` of λ, so each comparison the master
//! algorithm makes either has a fixed sign over the current interval
//! known to contain λ*, or crosses at a rational point `λc` that an
//! *oracle* (a concrete negative-cycle test at `λc`) resolves, shrinking
//! the interval to one side. Unlike Lawler's blind bisection, every
//! oracle call lands exactly on a decision point of the master
//! algorithm, so the search homes in on λ* along the algorithm's own
//! critical values — and frequently *pins λ* exactly* when an oracle
//! query hits it (a cycle of ratio exactly `λc` exists but none below).
//! Any residual interval is finished by bisection plus the Stern–Brocot
//! snap, so the result is always exact.
//!
//! Original bound `O(n²m log n)`; this rendering costs one `O(nm)`
//! oracle call per unresolved crossing.

use crate::bellman::{cycle_at_or_below_ws, has_cycle_below_ws};
use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use crate::workspace::Workspace;
use mcr_graph::Graph;

/// Linear distance function `a − b·λ`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Lin {
    a: i64,
    b: i64,
}

/// The λ*-containing interval, with an early-exit flag once λ* is
/// pinned exactly.
struct Interval {
    lo: Ratio64,
    hi: Ratio64,
    pinned: bool,
}

impl Interval {
    fn width_below(&self, target: Ratio64) -> bool {
        self.pinned || self.hi - self.lo < target
    }
}

/// Evaluates `f(x) = num − den·x` exactly.
fn eval(num: i64, den: i64, x: Ratio64) -> Ratio64 {
    Ratio64::from(num) - Ratio64::from(den) * x
}

/// Decides whether `cand < cur` holds at λ*, resolving crossings with
/// oracle calls that shrink (or pin) the interval. Each oracle
/// resolution charges one λ-refinement.
#[allow(clippy::too_many_arguments)] // internal helper threading scratch + budget state
fn less_at_optimum(
    g: &Graph,
    cand: Lin,
    cur: Lin,
    iv: &mut Interval,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<bool, SolveError> {
    let num = cand.a - cur.a;
    let den = cand.b - cur.b;
    // f(λ) = num − den·λ; cand < cur at λ* ⟺ f(λ*) < 0.
    let f_lo = eval(num, den, iv.lo);
    let f_hi = eval(num, den, iv.hi);
    if f_lo < Ratio64::ZERO && f_hi < Ratio64::ZERO {
        return Ok(true);
    }
    if f_lo >= Ratio64::ZERO && f_hi >= Ratio64::ZERO {
        // Nonnegative across the interval: a tie at λ* is "not less",
        // and f can only vanish at one point of a closed interval
        // unless it is identically zero (then num = den = 0).
        return Ok(false);
    }
    // Sign change: the crossing num/den lies strictly inside.
    debug_assert!(den != 0);
    if den == 0 {
        return Err(SolveError::NumericRange {
            context: "Megiddo crossing with a constant comparison function",
        });
    }
    scope.tick_refinement()?;
    scope.chaos_check("core.megiddo.resolve")?;
    let cross = Ratio64::new(num, den);
    if has_cycle_below_ws(g, cross, counters, ws, scope)? {
        // λ* < cross.
        iv.hi = cross;
        Ok(f_lo < Ratio64::ZERO)
    } else if cycle_at_or_below_ws(g, cross, counters, ws, scope)? {
        // No cycle below but one at cross: λ* == cross, pinned.
        iv.lo = cross;
        iv.hi = cross;
        iv.pinned = true;
        Ok(false) // f(λ*) = f(cross) = 0: tie, not less
    } else {
        // λ* > cross.
        iv.lo = cross;
        Ok(f_hi < Ratio64::ZERO)
    }
}

/// Megiddo's algorithm on one strongly connected, cyclic component
/// (general transit times; the cycle mean problem is the unit case).
/// Symbolic Bellman–Ford rounds charge iterations; oracle resolutions
/// charge λ-refinements.
pub(crate) fn solve_scc(
    g: &Graph,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    let n = g.num_nodes();
    let wabs = g
        .arc_ids()
        .map(|a| g.weight(a).abs())
        .max()
        .expect("component has arcs")
        .max(1);
    let bound = wabs.saturating_mul(n as i64) + 1;
    let mut iv = Interval {
        lo: Ratio64::from(-bound),
        hi: Ratio64::from(bound),
        pinned: false,
    };

    // Symbolic Bellman–Ford from an implicit super-source.
    let mut dist = vec![Lin { a: 0, b: 0 }; n];
    scope.loop_metrics("core.megiddo.resolve");
    for _round in 0..=n {
        if iv.pinned {
            break;
        }
        counters.iterations += 1;
        scope.tick_iteration_and_time()?;
        scope.chaos_check("core.megiddo.resolve")?;
        let mut changed = false;
        for e in g.arc_ids() {
            let u = g.source(e).index();
            let v = g.target(e).index();
            counters.relaxations += 1;
            let cand = Lin {
                a: dist[u].a + g.weight(e),
                b: dist[u].b + g.transit(e),
            };
            if less_at_optimum(g, cand, dist[v], &mut iv, counters, ws, scope)? {
                dist[v] = cand;
                counters.distance_updates += 1;
                changed = true;
            }
            if iv.pinned {
                break;
            }
        }
        if !changed {
            break;
        }
    }

    // Finish: bisect any residual interval down to the uniqueness
    // width, then snap to the single representable optimum inside.
    let total_t: i64 = g.arc_ids().map(|a| g.transit(a)).sum();
    let t_bound = total_t.max(1);
    let target = Ratio64::new(1, t_bound.saturating_mul(t_bound - 1).max(1) + 1);
    while !iv.width_below(target) {
        if iv.hi.denom() >= i64::MAX / 8 || iv.lo.denom() >= i64::MAX / 8 {
            return Err(SolveError::NumericRange {
                context: "Megiddo residual bisection exhausted the i64 range",
            });
        }
        scope.tick_refinement()?;
        scope.chaos_check("core.megiddo.resolve")?;
        let mid = iv.lo.midpoint(iv.hi);
        if has_cycle_below_ws(g, mid, counters, ws, scope)? {
            iv.hi = mid;
        } else {
            iv.lo = mid;
        }
    }
    let lambda = if iv.pinned {
        iv.lo
    } else {
        Ratio64::simplest_in(iv.lo, iv.hi)
    };
    if !cycle_at_or_below_ws(g, lambda, counters, ws, scope)? {
        return Err(SolveError::NumericRange {
            context: "Megiddo found no cycle at its computed optimum",
        });
    }
    let cycle = ws.bf.cycle.clone();
    let w: i128 = cycle.iter().map(|&a| g.weight(a) as i128).sum();
    let t: i128 = cycle.iter().map(|&a| g.transit(a) as i128).sum();
    if t <= 0 {
        return Err(SolveError::ZeroTransitCycle);
    }
    let lambda = Ratio64::try_from_i128(w, t).ok_or(SolveError::Overflow {
        context: "Megiddo witness cycle ratio",
    })?;
    Ok(SccOutcome {
        lambda,
        cycle,
        guarantee: Guarantee::Exact,
        solved_by: crate::Algorithm::Megiddo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    fn solve(g: &Graph) -> (Ratio64, Counters) {
        let mut c = Counters::new();
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Megiddo);
        let s = solve_scc(g, &mut c, &mut Workspace::new(), &mut scope).expect("unlimited");
        (s.lambda, c)
    }

    #[test]
    fn single_ring() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 4)]);
        assert_eq!(solve(&g).0, Ratio64::new(7, 3));
    }

    #[test]
    fn self_loop() {
        let g = from_arc_list(1, &[(0, 0, -5)]);
        assert_eq!(solve(&g).0, Ratio64::from(-5));
    }

    #[test]
    fn matches_brute_force() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..50 {
            let g = sprand(&SprandConfig::new(10, 28).seed(seed).weight_range(-40, 40));
            let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
            assert_eq!(solve(&g).0, expected, "seed {seed}");
        }
    }

    #[test]
    fn ratio_with_transits() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        use mcr_gen::transit::with_random_transits;
        for seed in 0..25 {
            let g0 = sprand(&SprandConfig::new(9, 22).seed(seed).weight_range(-20, 20));
            let g = with_random_transits(&g0, 1, 5, seed ^ 0xfeed);
            let (expected, _) = crate::reference::brute_force_min_ratio(&g).expect("cyclic");
            assert_eq!(solve(&g).0, expected, "seed {seed}");
        }
    }

    #[test]
    fn oracle_calls_stay_modest() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..10 {
            let g = sprand(&SprandConfig::new(60, 180).seed(seed));
            let (lam, c) = solve(&g);
            let mut cl = Counters::new();
            let lawler = super::super::lawler::solve_scc_exact_ckpt(
                &g,
                &mut cl,
                &mut crate::workspace::Workspace::new(),
                &mut BudgetScope::unlimited(crate::Algorithm::LawlerExact),
                None,
                &mut None,
            )
            .expect("unlimited");
            assert_eq!(lam, lawler.lambda, "seed {seed}");
            // Every oracle call is an O(nm) Bellman–Ford; Megiddo calls
            // it only at crossings inside the shrinking interval, which
            // stays within a small factor of Lawler's blind bisection.
            assert!(
                c.oracle_calls <= 4 * cl.oracle_calls + 20,
                "seed {seed}: megiddo {} vs lawler {}",
                c.oracle_calls,
                cl.oracle_calls
            );
        }
    }

    #[test]
    fn pins_lambda_early_on_integer_optima() {
        // λ* = 3 is an integer: some oracle query lands on it exactly.
        let g = from_arc_list(2, &[(0, 1, 2), (1, 0, 4), (0, 0, 7)]);
        let (lam, _) = solve(&g);
        assert_eq!(lam, Ratio64::from(3));
    }

    #[test]
    fn zero_transit_arcs() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(3);
        b.add_arc_with_transit(v[0], v[1], -4, 0);
        b.add_arc_with_transit(v[1], v[2], 1, 2);
        b.add_arc_with_transit(v[2], v[0], 1, 1);
        b.add_arc_with_transit(v[0], v[0], 10, 4);
        let g = b.build();
        assert_eq!(solve(&g).0, Ratio64::new(-2, 3));
    }
}
