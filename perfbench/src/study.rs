//! `study`: the paper's Table 2 protocol, reduced in size. In-memory
//! SPRAND instances at n ∈ {128, 256} and m/n ∈ {2, 3} over a few
//! seeds; every algorithm on the mean objective, and every native
//! cost-to-time-ratio route on transit-decorated copies. One op is one
//! (instance, algorithm, objective) `solve_spec` plus `certify`.
//!
//! The kernels do nearly all the work and parse does none; the traced
//! run's per-route times record whether Howard is still the fastest.

use crate::stats::{median, Rng};
use crate::trace::{self, Tracer};
use crate::{run_closed, timed_setup, ClosedLoop, Ctx, Outcome};
use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{certify, Algorithm, Guarantee, Objective, Ratio64, SolveOptions};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_gen::transit::with_random_transits;
use mcr_graph::Graph;

pub struct Route {
    pub algorithm: Algorithm,
    pub objective: Objective,
    /// `<algorithm>.<objective>`, as in `core.algorithms.<label>.ms`.
    pub label: &'static str,
}

const fn mean(algorithm: Algorithm, label: &'static str) -> Route {
    Route {
        algorithm,
        objective: Objective::Mean,
        label,
    }
}

const fn ratio(algorithm: Algorithm, label: &'static str) -> Route {
    Route {
        algorithm,
        objective: Objective::Ratio,
        label,
    }
}

/// Every algorithm on the mean objective, then every algorithm with a
/// native ratio route (the rest reach ratio only through expansion).
/// Burns and Burns-exact share one ratio route, listed once.
const ROUTES: [Route; 22] = [
    mean(Algorithm::Burns, "burns.mean"),
    mean(Algorithm::BurnsExact, "burns-exact.mean"),
    mean(Algorithm::Ko, "ko.mean"),
    mean(Algorithm::Yto, "yto.mean"),
    mean(Algorithm::Howard, "howard.mean"),
    mean(Algorithm::HowardExact, "howard-exact.mean"),
    mean(Algorithm::Ho, "ho.mean"),
    mean(Algorithm::Karp, "karp.mean"),
    mean(Algorithm::Karp2, "karp2.mean"),
    mean(Algorithm::Dg, "dg.mean"),
    mean(Algorithm::Lawler, "lawler.mean"),
    mean(Algorithm::LawlerExact, "lawler-exact.mean"),
    mean(Algorithm::Megiddo, "megiddo.mean"),
    mean(Algorithm::Oa1, "oa1.mean"),
    ratio(Algorithm::Burns, "burns.ratio"),
    ratio(Algorithm::Ko, "ko.ratio"),
    ratio(Algorithm::Yto, "yto.ratio"),
    ratio(Algorithm::Howard, "howard.ratio"),
    ratio(Algorithm::HowardExact, "howard-exact.ratio"),
    ratio(Algorithm::Lawler, "lawler.ratio"),
    ratio(Algorithm::LawlerExact, "lawler-exact.ratio"),
    ratio(Algorithm::Megiddo, "megiddo.ratio"),
];

pub fn routes() -> &'static [Route] {
    &ROUTES
}

struct Instance {
    name: String,
    mean: Graph,
    ratio: Graph,
    /// Howard-exact λ for (mean, ratio): every exact route must match.
    expected: [Ratio64; 2],
}

impl Instance {
    fn graph(&self, objective: Objective) -> &Graph {
        match objective {
            Objective::Mean => &self.mean,
            Objective::Ratio => &self.ratio,
        }
    }

    fn expected(&self, objective: Objective) -> Ratio64 {
        self.expected[(objective == Objective::Ratio) as usize]
    }
}

fn spec(route: &Route) -> SolveSpec {
    SolveSpec {
        algorithm: route.algorithm,
        objective: route.objective,
        maximize: false,
    }
}

/// Instances per round: one per grid point.
const GRID: usize = 4;

/// Rounds of fresh instances generated up front; a run longer than
/// this many rounds starts over with the first.
const ROUNDS: usize = 64;

/// `ROUNDS` rounds of `GRID` instances, round-major.
fn build(seed: u64, smoke: bool) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let sizes: [usize; 2] = if smoke { [64, 128] } else { [128, 256] };
    let mut out = Vec::new();
    for _ in 0..ROUNDS {
        for n in sizes {
            for density in [2, 3] {
                let g = sprand(&SprandConfig::new(n, n * density).seed(rng.next_u64()));
                let r = with_random_transits(&g, 1, 10, rng.next_u64());
                out.push(Instance {
                    name: format!("sprand {n}/{}", n * density),
                    mean: g,
                    ratio: r,
                    expected: [Ratio64::from(0); 2],
                });
            }
        }
    }
    out
}

struct Study {
    instances: Vec<Instance>,
    /// Iteration and arc-visit counts of each op of the first round.
    counts: Vec<(u64, u64)>,
}

impl ClosedLoop for Study {
    /// Every route on every grid point: each round solves fresh
    /// instances, so a longer run averages over more of them.
    fn round_len(&self) -> usize {
        GRID * ROUTES.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let inst = &self.instances[(i / ROUTES.len()) % self.instances.len()];
        let route = &ROUTES[i % ROUTES.len()];
        let g = inst.graph(route.objective);
        let sol = tr
            .time("core.spec", route.label, || {
                solve_spec(g, &spec(route), &SolveOptions::new())
            })
            .map_err(|e| format!("{} {}: {e}", inst.name, route.label))?
            .ok_or_else(|| format!("{} {}: reported acyclic", inst.name, route.label))?;
        tr.time("core.certify", "", || certify(&sol, g))
            .map_err(|e| format!("{} {}: certify: {e}", inst.name, route.label))?;
        let expected = inst.expected(route.objective);
        let agrees = match sol.guarantee {
            Guarantee::Exact => sol.lambda == expected,
            Guarantee::Epsilon(eps) => {
                (sol.lambda.to_f64() - expected.to_f64()).abs() <= eps * (1.0 + 1e-9)
            }
        };
        if !agrees {
            return Err(format!(
                "{} {}: lambda {} ({:?}) disagrees with howard-exact {expected}",
                inst.name, route.label, sol.lambda, sol.guarantee
            ));
        }
        if self.counts.len() < self.round_len() {
            self.counts
                .push((sol.counters.iterations, sol.counters.arcs_visited));
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let (mut instances, setup) = timed_setup(ctx.setup_reps(), || build(ctx.seed, ctx.smoke));
    out.setup_s = setup;
    for (i, inst) in instances.iter_mut().enumerate() {
        for (k, objective) in [Objective::Mean, Objective::Ratio].into_iter().enumerate() {
            let s = SolveSpec {
                algorithm: Algorithm::HowardExact,
                objective,
                maximize: false,
            };
            inst.expected[k] = solve_spec(inst.graph(objective), &s, &SolveOptions::new())
                .ok()
                .flatten()
                .map_or(Ratio64::from(i64::MIN), |sol| sol.lambda);
        }
        if i < GRID {
            out.notes.push(format!(
                "{}: mean lambda {}, ratio lambda {}",
                inst.name, inst.expected[0], inst.expected[1]
            ));
        }
    }
    out.notes.push(format!(
        "{GRID} instances x {} routes = {} ops per round, {ROUNDS} rounds of instances",
        ROUTES.len(),
        GRID * ROUTES.len()
    ));
    let mut w = Study {
        instances,
        counts: Vec::new(),
    };
    let tr = run_closed(ctx, &mut w, &mut out);
    if tr.is_on() {
        let spans = tr.spans();
        let own = trace::self_ns(spans);
        out.layer(
            "core.spec.solve_ms",
            trace::layer_ms(spans, &own, "core.spec", None),
        );
        out.layer(
            "core.certify.ms",
            trace::layer_ms(spans, &own, "core.certify", None),
        );
        let per = w.counts.len().max(1) as f64;
        out.layer(
            "core.spec.iterations",
            w.counts.iter().map(|c| c.0 as f64).sum::<f64>() / per,
        );
        out.layer(
            "core.spec.arcs_visited",
            w.counts.iter().map(|c| c.1 as f64).sum::<f64>() / per,
        );
        let mut fastest = (f64::INFINITY, "");
        for route in &ROUTES {
            let ms = median(&trace::per_op_ms(
                spans,
                &own,
                "core.spec",
                Some(route.label),
            ));
            out.layer(format!("core.algorithms.{}.ms", route.label), ms);
            if route.objective == Objective::Mean && ms < fastest.0 {
                fastest = (ms, route.label);
            }
        }
        out.notes.push(format!("fastest mean route: {}", fastest.1));
        out.layer(
            "core.algorithms.howard_fastest",
            fastest.1.starts_with("howard") as u8 as f64,
        );
    }
    (out, tr)
}
