//! `oneshot`: the `mcr solve` path run in-process on DIMACS text held
//! in memory — `read_dimacs`, SCC planning, `solve_spec` (Howard-exact,
//! minimum cycle mean), `certify`. One op is one instance through the
//! whole path.
//!
//! The only workload where parse and SCC dominate. Giant-SCC SPRAND
//! instances and unions of many small components alternate one to
//! four, so the median op is a union and the 90th percentile a giant.

use crate::inputs::{dimacs, sprand_union};
use crate::stats::Rng;
use crate::trace::{self, Tracer};
use crate::{run_closed, timed_setup, ClosedLoop, Ctx, Outcome};
use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{certify, Algorithm, Ratio64, SccPlan, Solution, SolveOptions};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::io::read_dimacs;
use mcr_graph::Graph;

const SPEC: SolveSpec = SolveSpec {
    algorithm: Algorithm::HowardExact,
    objective: mcr_core::Objective::Mean,
    maximize: false,
};

/// The independent solver whose λ each instance's answers must equal.
const REFERENCE: Algorithm = Algorithm::Yto;

/// Instances are kept as DIMACS text only; the generator graph is
/// rebuilt from its seed when the reference answer is computed.
struct Instance {
    name: String,
    text: String,
    /// `None` for the giant SPRAND graph, else the union's block count.
    blocks: Option<usize>,
    seed: u64,
}

impl Instance {
    fn generate(blocks: Option<usize>, seed: u64, smoke: bool) -> Graph {
        match blocks {
            None if smoke => sprand(&SprandConfig::new(2_000, 10_000).seed(seed)),
            None => sprand(&SprandConfig::new(20_000, 100_000).seed(seed)),
            Some(b) => sprand_union(b, 25, 100, seed),
        }
    }
}

struct Oneshot {
    instances: Vec<Instance>,
    order: Vec<usize>,
    expected: Vec<Ratio64>,
    /// Per instance: (iterations, arcs visited, SCC jobs) of its first op.
    counts: Vec<Option<(u64, u64, usize)>>,
}

/// Giant-SCC instances, and unions, per run. Each giant op is followed
/// by four union ops, so the median op is a union and the 90th
/// percentile the median giant: several giants, because a giant's
/// Howard-exact cost varies from seed to seed.
const GIANTS: usize = 8;
const UNIONS: usize = 8;
const UNIONS_PER_GIANT: usize = 4;

fn build(seed: u64, smoke: bool) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let blocks = if smoke { 100 } else { 1_000 };
    let kinds = std::iter::repeat_n(None, GIANTS).chain(std::iter::repeat_n(Some(blocks), UNIONS));
    kinds
        .enumerate()
        .map(|(k, b)| {
            let seed = rng.next_u64();
            let g = Instance::generate(b, seed, smoke);
            Instance {
                name: match b {
                    None => format!("sprand{k} {}/{}", g.num_nodes(), g.num_arcs()),
                    Some(b) => format!("union{} {b}x25/100", k - GIANTS),
                },
                text: dimacs(&g),
                blocks: b,
                seed,
            }
        })
        .collect()
}

/// The instance each op of a round solves: a giant, then four unions.
fn order() -> Vec<usize> {
    (0..GIANTS)
        .flat_map(|k| {
            std::iter::once(k).chain(
                (0..UNIONS_PER_GIANT).map(move |t| GIANTS + (UNIONS_PER_GIANT * k + t) % UNIONS),
            )
        })
        .collect()
}

/// One instance through the `mcr solve` path.
fn solve_text(text: &str, tr: &mut Tracer) -> Result<(Solution, usize), String> {
    let g = tr
        .time("graph.io", "", || read_dimacs(&mut text.as_bytes()))
        .map_err(|e| format!("parse: {e}"))?;
    let plan = tr.time("graph.scc", "", || SccPlan::prepare(&g));
    let jobs = plan.num_jobs();
    let opts = SolveOptions::new().plan(plan);
    let sol = tr
        .time("core.spec", "", || solve_spec(&g, &SPEC, &opts))
        .map_err(|e| format!("solve: {e}"))?
        .ok_or("instance reported acyclic")?;
    tr.time("core.certify", "", || certify(&sol, &g))
        .map_err(|e| format!("certify: {e}"))?;
    Ok((sol, jobs))
}

impl ClosedLoop for Oneshot {
    fn round_len(&self) -> usize {
        self.order.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let k = self.order[i % self.order.len()];
        let (sol, jobs) = solve_text(&self.instances[k].text, tr)?;
        if sol.lambda != self.expected[k] {
            return Err(format!(
                "{}: lambda {} != reference {}",
                self.instances[k].name, sol.lambda, self.expected[k]
            ));
        }
        self.counts[k].get_or_insert((sol.counters.iterations, sol.counters.arcs_visited, jobs));
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let (instances, setup) = timed_setup(ctx.setup_reps(), || {
        let instances = build(ctx.seed, ctx.smoke);
        // Warm-up: one giant and one union through the path.
        for inst in &instances[..2] {
            let _ = solve_text(&inst.text, &mut Tracer::new(false));
        }
        instances
    });
    out.setup_s = setup;
    let expected: Vec<Ratio64> = instances
        .iter()
        .map(|inst| {
            REFERENCE
                .solve(&Instance::generate(inst.blocks, inst.seed, ctx.smoke))
                .map_or(Ratio64::from(i64::MIN), |s| s.lambda)
        })
        .collect();
    for (inst, lambda) in instances.iter().zip(&expected).take(3) {
        out.notes.push(format!(
            "{}: {} bytes of DIMACS, reference lambda {lambda}",
            inst.name,
            inst.text.len()
        ));
    }
    let order = order();
    out.notes.push(format!(
        "{} instances, {} ops per round",
        instances.len(),
        order.len()
    ));
    let bytes: Vec<usize> = instances.iter().map(|i| i.text.len()).collect();
    let mut w = Oneshot {
        counts: vec![None; instances.len()],
        order,
        instances,
        expected,
    };
    let tr = run_closed(ctx, &mut w, &mut out);
    if tr.is_on() {
        let spans = tr.spans();
        let own = trace::self_ns(spans);
        out.layer(
            "graph.io.parse_ms",
            trace::layer_ms(spans, &own, "graph.io", None),
        );
        let io = trace::per_op_ns(spans, &own, "graph.io", None);
        let total_bytes: usize = io
            .keys()
            .map(|&op| bytes[w.order[op as usize % w.order.len()]])
            .sum();
        let total_ns: u64 = io.values().sum();
        out.layer(
            "graph.io.mb_per_s",
            total_bytes as f64 / 1e6 / (total_ns as f64 / 1e9),
        );
        out.layer(
            "graph.scc.ms",
            trace::layer_ms(spans, &own, "graph.scc", None),
        );
        out.layer(
            "core.spec.solve_ms",
            trace::layer_ms(spans, &own, "core.spec", None),
        );
        out.layer(
            "core.certify.ms",
            trace::layer_ms(spans, &own, "core.certify", None),
        );
        let counted: Vec<(u64, u64, usize)> = w.counts.iter().flatten().copied().collect();
        let per = counted.len().max(1) as f64;
        out.layer(
            "core.spec.iterations",
            counted.iter().map(|c| c.0 as f64).sum::<f64>() / per,
        );
        out.layer(
            "core.spec.arcs_visited",
            counted.iter().map(|c| c.1 as f64).sum::<f64>() / per,
        );
        out.layer(
            "graph.scc.jobs",
            counted.iter().map(|c| c.2 as f64).sum::<f64>() / per,
        );
    }
    (out, tr)
}
