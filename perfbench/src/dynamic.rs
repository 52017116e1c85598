//! `dynamic`: `DynamicSolver::apply` over seeded edit batches on
//! 7000-gate circuits (one giant SCC each) and on unions of many small
//! SPRAND components, Howard-exact minimum cycle mean. One op is one
//! batch. Most batches are weight-only (reweight or retime); the rest
//! are structural (insert or delete).
//!
//! The only workload that enters `core.dynamic`. Each instance's script
//! is a forward half followed by its exact inverse, so the edited graph
//! returns to its start every period: the states are finite, and after
//! the timed loop every batch's λ is checked against a from-scratch
//! `solve_spec` of its state. Deletes only remove arcs the script
//! inserted (last in, first out), which keeps every inverse exact.

use crate::inputs::sprand_union;
use crate::stats::{median, Rng};
use crate::trace::{self, Tracer};
use crate::{run_closed, timed_setup, ClosedLoop, Ctx, Outcome};
use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{Algorithm, DynamicSolver, Edit, Ratio64, SccPlan, SolveMode, SolveOptions};
use mcr_gen::circuit::{circuit_graph, CircuitConfig};
use mcr_graph::{Graph, GraphBuilder, NodeId};
use std::time::Instant;

const SPEC: SolveSpec = SolveSpec {
    algorithm: Algorithm::HowardExact,
    objective: mcr_core::Objective::Mean,
    maximize: false,
};

/// Share of batches that are structural, in percent.
const STRUCTURAL_PERCENT: u64 = 20;

/// Circuits and unions per run, in the order ops rotate over them:
/// many of each, so no one instance's solve cost sets the run's
/// figures (a circuit's Howard-exact cost varies from seed to seed).
const CIRCUITS: usize = 9;
const UNIONS: usize = 3;

struct Batch {
    edits: Vec<Edit>,
    structural: bool,
}

/// (src, dst, weight, transit) of every arc, in arc-id order.
type Arcs = Vec<(usize, usize, i64, i64)>;

struct Instance {
    name: String,
    nodes: usize,
    start: Arcs,
    /// One period: the forward batches, then their inverses.
    script: Vec<Batch>,
    solver: DynamicSolver,
    /// λ reported after each script position (first visit); later
    /// visits must agree.
    seen: Vec<Option<Option<Ratio64>>>,
    visits: usize,
}

fn arcs_of(g: &Graph) -> Arcs {
    g.arc_ids()
        .map(|a| {
            (
                g.source(a).index(),
                g.target(a).index(),
                g.weight(a),
                g.transit(a),
            )
        })
        .collect()
}

/// Builds the graph exactly as `DynamicSolver::current_graph` does.
fn graph_of(nodes: usize, arcs: &Arcs) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_nodes(nodes);
    for &(s, d, w, t) in arcs {
        b.add_arc_with_transit(NodeId::new(s), NodeId::new(d), w, t);
    }
    b.build()
}

fn apply_edit(arcs: &mut Arcs, e: &Edit) {
    match *e {
        Edit::InsertArc {
            src,
            dst,
            weight,
            transit,
        } => arcs.push((src, dst, weight, transit)),
        Edit::DeleteArc { arc } => {
            arcs.remove(arc);
        }
        Edit::Reweight { arc, weight } => arcs[arc].2 = weight,
        Edit::Retime { arc, transit } => arcs[arc].3 = transit,
    }
}

/// A seeded period of `forward` batches and their inverses. Inserted
/// arcs stay inside one block of `block_nodes` nodes, so a union keeps
/// its components apart.
fn script(
    start: &Arcs,
    nodes: usize,
    block_nodes: usize,
    forward: usize,
    rng: &mut Rng,
) -> Vec<Batch> {
    let base = start.len() as u64;
    let (lo, hi) = start.iter().fold((i64::MAX, i64::MIN), |(lo, hi), a| {
        (lo.min(a.2), hi.max(a.2))
    });
    let mut arcs = start.clone();
    let mut inserted = 0usize;
    let mut batches = Vec::new();
    let mut inverses = Vec::new();
    // Exactly STRUCTURAL_PERCENT of the batches are structural; only
    // their positions are random.
    let mut classes: Vec<bool> = (0..forward as u64)
        .map(|k| k * 100 < forward as u64 * STRUCTURAL_PERCENT)
        .collect();
    rng.shuffle(&mut classes);
    for structural in classes {
        let count = if structural {
            rng.range(1, 3)
        } else {
            rng.range(1, 5)
        };
        let mut edits = Vec::new();
        let mut undo = Vec::new();
        for _ in 0..count {
            let (edit, inverse) = if structural && inserted > 0 && rng.chance(50) {
                let arc = arcs.len() - 1;
                let (src, dst, weight, transit) = arcs[arc];
                inserted -= 1;
                (
                    Edit::DeleteArc { arc },
                    Edit::InsertArc {
                        src,
                        dst,
                        weight,
                        transit,
                    },
                )
            } else if structural {
                let block = rng.range(0, (nodes / block_nodes) as u64) as usize * block_nodes;
                let src = block + rng.range(0, block_nodes as u64) as usize;
                let dst = block + rng.range(0, block_nodes as u64) as usize;
                let weight = rng.range(lo as u64, hi as u64 + 1) as i64;
                let transit = rng.range(1, 4) as i64;
                inserted += 1;
                (
                    Edit::InsertArc {
                        src,
                        dst,
                        weight,
                        transit,
                    },
                    Edit::DeleteArc { arc: arcs.len() },
                )
            } else {
                let arc = rng.range(0, base) as usize;
                if rng.chance(70) {
                    let weight = rng.range(lo as u64, hi as u64 + 1) as i64;
                    (
                        Edit::Reweight { arc, weight },
                        Edit::Reweight {
                            arc,
                            weight: arcs[arc].2,
                        },
                    )
                } else {
                    let transit = rng.range(1, 4) as i64;
                    (
                        Edit::Retime { arc, transit },
                        Edit::Retime {
                            arc,
                            transit: arcs[arc].3,
                        },
                    )
                }
            };
            apply_edit(&mut arcs, &edit);
            edits.push(edit);
            undo.push(inverse);
        }
        undo.reverse();
        batches.push(Batch { edits, structural });
        inverses.push(Batch {
            edits: undo,
            structural,
        });
    }
    inverses.reverse();
    batches.extend(inverses);
    batches
}

fn instance(name: String, g: Graph, block_nodes: usize, forward: usize, rng: &mut Rng) -> Instance {
    let start = arcs_of(&g);
    let script = script(&start, g.num_nodes(), block_nodes, forward, rng);
    let mut solver = DynamicSolver::new(&g, SPEC, SolveOptions::new());
    // The initial full solve warms the component cache; it is set-up.
    let _ = solver.solve();
    Instance {
        name,
        nodes: g.num_nodes(),
        start,
        seen: vec![None; script.len()],
        script,
        solver,
        visits: 0,
    }
}

fn build(seed: u64, smoke: bool) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let (gates, blocks, n, m, forward) = if smoke {
        (500, 8, 32, 128, 10)
    } else {
        (7000, 64, 64, 256, 50)
    };
    let mut out = Vec::new();
    for k in 0..CIRCUITS {
        let circuit = circuit_graph(&CircuitConfig::new(gates).seed(rng.next_u64()));
        let nodes = circuit.num_nodes();
        out.push(instance(
            format!("circuit{k} {gates} gates"),
            circuit,
            nodes,
            forward,
            &mut rng,
        ));
    }
    for k in 0..UNIONS {
        let union = sprand_union(blocks, n, m, rng.next_u64());
        out.push(instance(
            format!("union{k} {blocks}x{n}/{m}"),
            union,
            n,
            forward,
            &mut rng,
        ));
    }
    out
}

struct Dynamic {
    instances: Vec<Instance>,
    hits: usize,
    misses: usize,
    full: usize,
    batches: usize,
}

impl ClosedLoop for Dynamic {
    fn round_len(&self) -> usize {
        self.instances.len()
    }

    fn replayable(&self) -> bool {
        false
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let k = i % self.instances.len();
        let inst = &mut self.instances[k];
        let pos = inst.visits % inst.script.len();
        inst.visits += 1;
        let batch = &inst.script[pos];
        let class = if batch.structural {
            "structural"
        } else {
            "weight"
        };
        let outcome = tr
            .time("core.dynamic.apply", class, || {
                inst.solver.apply(&batch.edits)
            })
            .map_err(|e| format!("{} batch {pos}: {e}", inst.name))?;
        self.hits += outcome.cache_hits;
        self.misses += outcome.cache_misses;
        self.full += (outcome.mode == SolveMode::Full) as usize;
        self.batches += 1;
        let lambda = outcome.solution.map(|s| s.lambda);
        match inst.seen[pos] {
            None => inst.seen[pos] = Some(lambda),
            Some(first) if first != lambda => {
                return Err(format!(
                    "{} batch {pos}: lambda {lambda:?} differs from an earlier visit ({first:?})",
                    inst.name
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// The rebuild every batch pays today: the solver's own
    /// `current_graph` plus `SccPlan::prepare`, on the state just
    /// reached.
    fn probe(&mut self, i: usize, tr: &mut Tracer) {
        let inst = &self.instances[i % self.instances.len()];
        tr.time("core.dynamic.rebuild", "", || {
            SccPlan::prepare(&inst.solver.current_graph())
        });
    }
}

/// Replays one period of each script from scratch, checking every
/// reported λ against `solve_spec` of the same state. A wrong position
/// fails every visit the run made to it. Returns the times of the
/// from-scratch solves.
fn check(w: &Dynamic, out: &mut Outcome) -> Vec<f64> {
    let mut scratch_ms = Vec::new();
    for inst in &w.instances {
        let mut arcs = inst.start.clone();
        let period = inst.script.len();
        for (pos, batch) in inst.script.iter().enumerate() {
            for e in &batch.edits {
                apply_edit(&mut arcs, e);
            }
            let Some(reported) = inst.seen[pos] else {
                continue;
            };
            let g = graph_of(inst.nodes, &arcs);
            let t = Instant::now();
            let fresh = solve_spec(&g, &SPEC, &SolveOptions::new());
            scratch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let wrong = match fresh {
                Ok(sol) if sol.as_ref().map(|s| s.lambda) == reported => None,
                Ok(sol) => Some(format!(
                    "incremental lambda {reported:?} != from-scratch {:?}",
                    sol.map(|s| s.lambda)
                )),
                Err(e) => Some(format!("from-scratch solve failed: {e}")),
            };
            if let Some(msg) = wrong {
                let visits = inst.visits / period + usize::from(pos < inst.visits % period);
                out.failed += visits as u64;
                out.problem(format!("{} batch {pos}: {msg}", inst.name));
            }
        }
        if arcs != inst.start {
            out.problem(format!(
                "{}: script does not return to its start",
                inst.name
            ));
        }
    }
    scratch_ms
}

pub fn run(ctx: &Ctx) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let (instances, setup) = timed_setup(ctx.setup_reps(), || build(ctx.seed, ctx.smoke));
    out.setup_s = setup;
    for inst in &instances {
        let structural = inst.script.iter().filter(|b| b.structural).count();
        out.notes.push(format!(
            "{}: {} nodes, {} arcs, period {} batches ({structural} structural)",
            inst.name,
            inst.nodes,
            inst.start.len(),
            inst.script.len()
        ));
    }
    let mut w = Dynamic {
        instances,
        hits: 0,
        misses: 0,
        full: 0,
        batches: 0,
    };
    let tr = run_closed(ctx, &mut w, &mut out);
    for (k, inst) in w.instances.iter().enumerate() {
        let ms: Vec<f64> = out
            .op_ms
            .iter()
            .skip(k)
            .step_by(w.instances.len())
            .copied()
            .collect();
        out.notes
            .push(format!("{}: median batch {:.3} ms", inst.name, median(&ms)));
    }
    let scratch_ms = check(&w, &mut out);
    if tr.is_on() {
        let spans = tr.spans();
        let own = trace::self_ns(spans);
        for class in ["weight", "structural"] {
            out.layer(
                format!("core.dynamic.apply_ms.{class}"),
                trace::layer_ms(spans, &own, "core.dynamic.apply", Some(class)),
            );
        }
        out.layer(
            "core.dynamic.cache_hit_frac",
            w.hits as f64 / (w.hits + w.misses).max(1) as f64,
        );
        out.layer(
            "core.dynamic.full_frac",
            w.full as f64 / w.batches.max(1) as f64,
        );
        out.layer(
            "core.dynamic.rebuild_ms",
            trace::layer_ms(spans, &own, "core.dynamic.rebuild", None),
        );
        out.layer("core.dynamic.scratch_ms", median(&scratch_ms));
    }
    (out, tr)
}
