//! `serve`: an in-process `mcrd` (`mcr_serve::serve`, journal on) under
//! open-loop load. One connection, one sender thread and one receiver:
//! requests go out on a fixed seeded schedule (see [`gap`]) whatever
//! the daemon does, and each is timed from its due time to its
//! response frame. One op is one request.
//!
//! The mix: inline uploads of tens of KB (mostly new graphs, so cache
//! misses, some repeats), repeat solves by `graph_hash` rotating
//! algorithm, objective and orientation, and the deterministic
//! `cancelled` (`deadline_ms: 0`) and `budget-exhausted` (one λ
//! refinement, no fallback) requests. The codec, the journal and the
//! cache only show up under real payload sizes; by-hash requests skip
//! the codec's big strings and the DIMACS parse.
//!
//! The traced run cannot see inside the daemon, so after its open loop
//! it replays each request's layer calls in-process (frame, parse,
//! hash, journal, DIMACS parse and SCC on a miss, solve, certify,
//! render), and reports what the request latency leaves over as
//! `serve.server.residual_ms`: queue wait, scheduling and socket time.

use crate::inputs::dimacs;
use crate::speed::Speed;
use crate::stats::{mean, median, quantile, Rng};
use crate::trace::{self, Tracer};
use crate::{timed_setup, Ctx, Outcome};
use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{certify, Algorithm, Objective, SccPlan, SolveOptions, SolveStatus};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_gen::transit::with_random_transits;
use mcr_graph::io::read_dimacs;
use mcr_graph::Graph;
use mcr_serve::cache::fnv1a;
use mcr_serve::frame::{read_frame, write_frame};
use mcr_serve::journal::Journal;
use mcr_serve::protocol::{format_hash, parse_request, resp_error, resp_solution};
use mcr_serve::{serve, ServeConfig, ServerHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, Cursor};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The wait before the next send, by the kind of request just sent:
/// about twice that kind's latency on a slow moment of the machine the
/// benchmark was introduced on, so requests rarely overlap, queues stay
/// short and a slower daemon shows as latency first. A block of the mix
/// takes 2.35 s, so the offered load averages 8.5 requests per second.
/// (At a uniform 10 per second, a large upload often overlapped the
/// next request whenever the machine slowed, which slowed that request
/// too, and `op_ms_p50` moved by 21% between seeds.)
fn gap(kind: Kind) -> Duration {
    Duration::from_millis(match kind {
        Kind::Upload | Kind::Reupload => 100,
        Kind::BigUpload => 250,
        Kind::ByHash | Kind::Cancelled | Kind::Budget => 50,
    })
}

/// Nodes of the served graphs (SPRAND, m = 3n: about 34 KB of DIMACS
/// text), and of the large uploads (about 70 KB). Fixed sizes, so a
/// request's cost depends on its kind, not on a seeded size draw.
const GRAPH_NODES: usize = 700;
const BIG_NODES: usize = 1400;

/// The sender runs the speed kernel only when the daemon is idle and
/// the next send is at least this far off.
const SPEED_GAP: Duration = Duration::from_millis(30);

/// How long the receiver waits for a response before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// By-hash algorithms, rotated per graph objective.
const BY_HASH_MEAN: [Algorithm; 3] = [Algorithm::HowardExact, Algorithm::Yto, Algorithm::Karp];
const BY_HASH_RATIO: [Algorithm; 2] = [Algorithm::HowardExact, Algorithm::Yto];

struct Instance {
    graph: Graph,
    text: String,
    hash: u64,
    objective: Objective,
}

/// One block of the request mix, in a seeded order: 45% uploads of new
/// graphs and 10% re-uploads of cached ones (about 34 KB each), 20%
/// uploads of new graphs twice that size, 15% solves by hash, 5% built
/// to be cancelled and 5% built to exhaust their budget. The cheap
/// requests sit below the median, the small uploads around it and the
/// large ones around the 90th percentile; an upload's cost is mostly
/// `parse_request`, which grows with the square of the payload. (A mix
/// with slow solves by hash, Lawler-exact or Burns-exact, made both
/// percentiles depend on which requests happened to overlap on the
/// machine's one effective core, and they moved by 30% from seed to
/// seed.)
const MIX: [Kind; 20] = [
    Kind::Upload,
    Kind::Upload,
    Kind::Upload,
    Kind::Upload,
    Kind::Upload,
    Kind::Upload,
    Kind::Upload,
    Kind::Upload,
    Kind::Upload,
    Kind::Reupload,
    Kind::Reupload,
    Kind::BigUpload,
    Kind::BigUpload,
    Kind::BigUpload,
    Kind::BigUpload,
    Kind::ByHash,
    Kind::ByHash,
    Kind::ByHash,
    Kind::Cancelled,
    Kind::Budget,
];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// A graph the daemon has not seen, sent inline.
    Upload,
    /// A cached graph sent inline again.
    Reupload,
    /// A new graph of `BIG_NODES` nodes, sent inline.
    BigUpload,
    /// By hash, rotating algorithm and orientation.
    ByHash,
    Cancelled,
    Budget,
}

struct Request {
    id: u64,
    kind: Kind,
    instance: usize,
    spec: SolveSpec,
    payload: String,
    /// `ok` with its λ, or the expected failure status.
    expect: Result<String, SolveStatus>,
}

/// A running daemon with its journal directory and client connection;
/// dropping it closes the connection, stops the daemon and removes the
/// directory.
struct Daemon {
    handle: Option<ServerHandle>,
    stream: Option<TcpStream>,
    dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stream.take());
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Daemon {
    fn counter(&self, name: &str) -> u64 {
        self.handle
            .as_ref()
            .and_then(|h| h.metric(name))
            .unwrap_or(0)
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn payload(id: u64, inst: &Instance, spec: &SolveSpec, inline: bool, extra: &str) -> String {
    let graph = if inline {
        format!("\"graph\":\"{}\"", escape(&inst.text))
    } else {
        format!("\"graph_hash\":\"{}\"", format_hash(inst.hash))
    };
    format!(
        "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"solve\",{graph},\"algorithm\":\"{}\",\"objective\":\"{}\",\"maximize\":{}{extra}}}",
        spec.algorithm.name().to_ascii_lowercase(),
        spec.objective.wire_name(),
        spec.maximize
    )
}

fn instance(rng: &mut Rng, objective: Objective, n: usize) -> Instance {
    let g = sprand(&SprandConfig::new(n, 3 * n).seed(rng.next_u64()));
    let graph = match objective {
        Objective::Mean => g,
        Objective::Ratio => with_random_transits(&g, 1, 5, rng.next_u64()),
    };
    let text = dimacs(&graph);
    Instance {
        hash: fnv1a(&text),
        graph,
        text,
        objective,
    }
}

fn spec(algorithm: Algorithm, objective: Objective, maximize: bool) -> SolveSpec {
    SolveSpec {
        algorithm,
        objective,
        maximize,
    }
}

/// The graph pool (first `pool` instances, uploaded during warm-up) and
/// the request schedule; new graphs for uploads are appended.
fn schedule(seed: u64, count: usize, smoke: bool) -> (Vec<Instance>, usize, Vec<Request>) {
    let mut rng = Rng::new(seed);
    let (mean_pool, ratio_pool) = if smoke { (2, 1) } else { (8, 4) };
    let mut instances = Vec::new();
    for k in 0..mean_pool + ratio_pool {
        let objective = if k < mean_pool {
            Objective::Mean
        } else {
            Objective::Ratio
        };
        instances.push(instance(&mut rng, objective, GRAPH_NODES));
    }
    let pool = instances.len();
    let mut reqs = Vec::new();
    let mut kinds = Vec::new();
    let mut turns = [0usize; 2];
    for k in 0..count {
        // The mix is exact in every block of `MIX.len()` requests, and
        // only the order within a block is random.
        if kinds.is_empty() {
            kinds = MIX.to_vec();
            rng.shuffle(&mut kinds);
        }
        let kind = kinds.pop().expect("refilled above");
        let id = 1000 + k as u64;
        let pick = rng.range(0, pool as u64) as usize;
        let mean_pick = rng.range(0, mean_pool as u64) as usize;
        let (inst, s, inline, extra) = match kind {
            Kind::Upload | Kind::BigUpload => {
                let n = if kind == Kind::Upload {
                    GRAPH_NODES
                } else {
                    BIG_NODES
                };
                instances.push(instance(&mut rng, Objective::Mean, n));
                let s = spec(Algorithm::HowardExact, Objective::Mean, false);
                (instances.len() - 1, s, true, "")
            }
            Kind::Reupload => {
                let s = spec(Algorithm::HowardExact, instances[pick].objective, false);
                (pick, s, true, "")
            }
            Kind::ByHash => {
                // Rotate algorithm and orientation through every pair.
                let objective = instances[pick].objective;
                let (algorithms, turn): (&[Algorithm], _) = match objective {
                    Objective::Mean => (&BY_HASH_MEAN, &mut turns[0]),
                    Objective::Ratio => (&BY_HASH_RATIO, &mut turns[1]),
                };
                *turn += 1;
                let algorithm = algorithms[*turn % algorithms.len()];
                let maximize = *turn / algorithms.len() % 2 == 1;
                (pick, spec(algorithm, objective, maximize), false, "")
            }
            Kind::Cancelled => {
                let s = spec(Algorithm::HowardExact, instances[pick].objective, false);
                (pick, s, false, ",\"deadline_ms\":0")
            }
            Kind::Budget => {
                let s = spec(Algorithm::LawlerExact, Objective::Mean, false);
                (
                    mean_pick,
                    s,
                    false,
                    ",\"budget\":\"refine=1\",\"fallback\":\"none\"",
                )
            }
        };
        reqs.push(Request {
            id,
            kind,
            instance: inst,
            spec: s,
            payload: payload(id, &instances[inst], &s, inline, extra),
            expect: Err(SolveStatus::InputError),
        });
    }
    (instances, pool, reqs)
}

/// Starts the daemon and uploads the pool, waiting for each answer.
fn start(ctx: &Ctx, instances: &[Instance], pool: usize, rep: usize) -> Result<Daemon, String> {
    let dir = ctx
        .out_dir
        .join(format!("serve-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("journal dir: {e}"))?;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let cfg = ServeConfig {
        workers,
        queue_depth: 4096,
        cache_capacity: 4096,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let mut daemon = Daemon {
        handle: None,
        stream: None,
        dir,
    };
    let handle = serve(cfg).map_err(|e| format!("daemon start: {e}"))?;
    let addr = handle.local_addr();
    daemon.handle = Some(handle);
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    daemon.stream = Some(stream);
    for (i, inst) in instances.iter().take(pool).enumerate() {
        let s = spec(Algorithm::HowardExact, inst.objective, false);
        let p = payload(i as u64 + 1, inst, &s, true, "");
        write_frame(&mut writer, p.as_bytes()).map_err(|e| format!("warm-up send: {e}"))?;
        let reply = read_frame(&mut reader).map_err(|e| format!("warm-up reply: {e}"))?;
        let reply = String::from_utf8_lossy(&reply.unwrap_or_default()).into_owned();
        if field(&reply, "status") != Some("ok") {
            return Err(format!("warm-up upload {i} answered {reply}"));
        }
    }
    Ok(daemon)
}

/// Expected outcome of every request: statuses by construction, λ from
/// an in-process `solve_spec` of the same request.
fn expect_all(instances: &[Instance], reqs: &mut [Request]) {
    let mut solved: BTreeMap<(usize, String), Result<String, SolveStatus>> = BTreeMap::new();
    for r in reqs.iter_mut() {
        r.expect = match r.kind {
            Kind::Cancelled => Err(SolveStatus::Cancelled),
            Kind::Budget => Err(SolveStatus::BudgetExhausted),
            _ => solved
                .entry((r.instance, format!("{:?}", r.spec)))
                .or_insert_with(|| {
                    match solve_spec(&instances[r.instance].graph, &r.spec, &SolveOptions::new()) {
                        Ok(Some(sol)) => Ok(sol.lambda.to_string()),
                        Ok(None) => Ok(String::new()),
                        Err(e) => Err(e.status()),
                    }
                })
                .clone(),
        };
    }
}

/// A string or number field of a flat `mcr-resp v1` object.
fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let at = resp.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &resp[at..];
    if let Some(s) = rest.strip_prefix('"') {
        s.find('"').map(|end| &s[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

struct Reply {
    at: Instant,
    text: String,
}

struct LoopResult {
    /// Due time of each request, and its reply if one came.
    due: Vec<Instant>,
    replies: Vec<Option<Reply>>,
    late_ms: Vec<f64>,
    wall_s: f64,
    /// Speed-kernel samples the sender took between sends, and the
    /// factor they give.
    kernel_ms: Vec<f64>,
    speed_factor: f64,
}

/// Sends `reqs` on the open-loop schedule and collects the replies.
fn open_loop(daemon: &Daemon, reqs: &[Request]) -> Result<LoopResult, String> {
    let stream = daemon.stream.as_ref().ok_or("no connection")?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let first_id = reqs.first().map_or(0, |r| r.id);
    let t0 = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = reqs
        .iter()
        .scan(t0, |at, r| {
            let this = *at;
            *at += gap(r.kind);
            Some(this)
        })
        .collect();
    let mut replies: Vec<Option<Reply>> = (0..reqs.len()).map(|_| None).collect();
    // The receiver signals each new reply, so the sender knows when
    // nothing is outstanding.
    let (answered_tx, answered_rx) = mpsc::channel::<()>();
    let due_at = &due;
    let (late_ms, kernel_ms, speed_factor) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut late = Vec::with_capacity(reqs.len());
            let mut speed = Speed::new();
            let mut answered = 0;
            for (k, (r, &at)) in reqs.iter().zip(due_at).enumerate() {
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                if write_frame(&mut writer, r.payload.as_bytes()).is_err() {
                    break;
                }
                // Calibrate only while the daemon is idle: every request
                // sent so far is answered, and the next send is
                // comfortably far off. A kernel run beside the daemon's
                // work would slow with it and hide its regressions.
                let Some(&next) = due_at.get(k + 1) else {
                    continue;
                };
                let quiet_until = next - SPEED_GAP;
                while answered <= k {
                    let left = quiet_until.saturating_duration_since(Instant::now());
                    if left.is_zero() || answered_rx.recv_timeout(left).is_err() {
                        break;
                    }
                    answered += 1;
                }
                if answered > k && Instant::now() < quiet_until {
                    speed.tick();
                }
            }
            (late, speed.samples().to_vec(), speed.factor())
        });
        let mut got = 0;
        while got < reqs.len() {
            let Ok(Some(frame)) = read_frame(&mut reader) else {
                break;
            };
            let at = Instant::now();
            let text = String::from_utf8_lossy(&frame).into_owned();
            let idx = field(&text, "id")
                .and_then(|v| v.parse::<u64>().ok())
                .and_then(|id| id.checked_sub(first_id))
                .map(|i| i as usize);
            if let Some(slot) = idx.and_then(|i| replies.get_mut(i)) {
                if slot.is_none() {
                    got += 1;
                    let _ = answered_tx.send(());
                }
                *slot = Some(Reply { at, text });
            }
        }
        sender.join().unwrap_or_default()
    });
    let last = replies.iter().flatten().map(|r| r.at).max().unwrap_or(t0);
    Ok(LoopResult {
        wall_s: last.saturating_duration_since(t0).as_secs_f64(),
        due,
        replies,
        late_ms,
        kernel_ms,
        speed_factor,
    })
}

/// Scores the replies against the expectations; returns latencies (ms)
/// of the requests answered as expected.
fn score(reqs: &[Request], run: &LoopResult, out: &mut Outcome) -> Vec<f64> {
    let mut ms = Vec::new();
    for ((r, reply), due) in reqs.iter().zip(&run.replies).zip(&run.due) {
        out.attempted += 1;
        let Some(reply) = reply else {
            out.failed += 1;
            out.problem(format!("request {}: no reply", r.id));
            continue;
        };
        let status = field(&reply.text, "status").unwrap_or("");
        let ok = match &r.expect {
            Ok(lambda) => status == "ok" && field(&reply.text, "lambda").unwrap_or("") == lambda,
            Err(s) => status == s.wire_name(),
        };
        if ok {
            ms.push(reply.at.saturating_duration_since(*due).as_secs_f64() * 1e3);
        } else {
            out.failed += 1;
            out.problem(format!(
                "request {}: expected {:?}, got {}",
                r.id,
                r.expect,
                reply.text.chars().take(200).collect::<String>()
            ));
        }
    }
    ms
}

/// Replays the layer calls each traced request made inside the daemon,
/// one span per layer call, stamped with the request's id.
fn shadow(
    ctx: &Ctx,
    instances: &[Instance],
    pool: usize,
    earlier: &[Request],
    reqs: &[Request],
    tr: &mut Tracer,
) {
    let dir = ctx
        .out_dir
        .join(format!("serve-shadow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = std::fs::create_dir_all(&dir)
        .ok()
        .and_then(|()| Journal::open(&dir).ok());
    // Graphs the daemon had cached, and orientations it had planned,
    // before these requests: the pool (planned by its warm-up solve)
    // and whatever the earlier requests uploaded or solved.
    let mut cached: BTreeSet<usize> = (0..pool).collect();
    let mut planned: BTreeSet<(usize, bool)> = (0..pool).map(|i| (i, false)).collect();
    for r in earlier.iter().filter(|r| r.expect.is_ok()) {
        cached.insert(r.instance);
        planned.insert((r.instance, r.spec.maximize));
    }
    for r in reqs {
        tr.set_op(r.id);
        let inst = &instances[r.instance];
        let _ = tr.time("serve.frame", "", || {
            let mut buf = Vec::with_capacity(r.payload.len() + 4);
            let _ = write_frame(&mut buf, r.payload.as_bytes());
            read_frame(&mut Cursor::new(buf))
        });
        let _ = tr.time("serve.protocol.parse", "", || {
            parse_request(r.payload.as_bytes())
        });
        let inline = matches!(r.kind, Kind::Upload | Kind::BigUpload | Kind::Reupload);
        if inline {
            tr.time("serve.cache.hash", "", || fnv1a(&inst.text));
        }
        if let Some(j) = &journal {
            let _ = tr.time("serve.journal", "", || j.accept(r.id, &r.payload));
        }
        let status = match &r.expect {
            Ok(_) => SolveStatus::Ok,
            Err(s) => *s,
        };
        let mut lambda = None;
        if status == SolveStatus::Ok {
            let graph = if cached.insert(r.instance) {
                tr.time("graph.io", "", || read_dimacs(&mut inst.text.as_bytes()))
                    .unwrap_or_else(|_| inst.graph.clone())
            } else {
                inst.graph.clone()
            };
            let mut opts = SolveOptions::new();
            if planned.insert((r.instance, r.spec.maximize)) {
                let plan = tr.time("graph.scc", "", || {
                    if r.spec.maximize {
                        SccPlan::prepare(&graph.negated())
                    } else {
                        SccPlan::prepare(&graph)
                    }
                });
                opts = opts.plan(plan);
            }
            if let Ok(Some(sol)) = tr.time("core.spec", "", || solve_spec(&graph, &r.spec, &opts)) {
                let _ = tr.time("core.certify", "", || certify(&sol, &graph));
                tr.time("serve.protocol.render", "", || {
                    resp_solution(r.id, Some(inst.hash), &sol)
                });
                lambda = Some(sol.lambda.to_string());
            }
        } else {
            tr.time("serve.protocol.render", "", || {
                resp_error(r.id, status, "expected failure", None)
            });
        }
        if let Some(j) = &journal {
            let _ = tr.time("serve.journal", "", || {
                j.done(r.id, status, lambda.as_deref())
            });
        }
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

const SHADOW_LAYERS: [&str; 9] = [
    "serve.frame",
    "serve.protocol.parse",
    "serve.cache.hash",
    "serve.journal",
    "graph.io",
    "graph.scc",
    "core.spec",
    "core.certify",
    "serve.protocol.render",
];

pub fn run(ctx: &Ctx) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let block: Duration = MIX.iter().map(|&k| gap(k)).sum();
    let blocks = (ctx.seconds / block.as_secs_f64()) as usize;
    let count = (blocks * MIX.len()).max(if ctx.smoke { 8 } else { 100 });
    let mut rep = 0;
    let (setup, setup_s) = timed_setup(ctx.setup_reps(), || {
        rep += 1;
        let (instances, pool, reqs) = schedule(ctx.seed, count, ctx.smoke);
        let daemon = start(ctx, &instances, pool, rep);
        (instances, pool, reqs, daemon)
    });
    out.setup_s = setup_s;
    let (instances, pool, mut reqs, daemon) = setup;
    let mut tr = Tracer::new(ctx.trace);
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            out.attempted = count as u64;
            out.failed = count as u64;
            out.problem(e);
            return (out, tr);
        }
    };
    expect_all(&instances, &mut reqs);
    let bytes: Vec<usize> = reqs.iter().map(|r| r.payload.len()).collect();
    out.notes.push(format!(
        "{count} requests, {:.2} per second, {} graphs ({pool} pooled), payload {}..{} bytes",
        MIX.len() as f64 / block.as_secs_f64(),
        instances.len(),
        bytes.iter().min().unwrap_or(&0),
        bytes.iter().max().unwrap_or(&0)
    ));
    // The traced run's halves split on a block boundary, so both see the
    // same mix.
    let split = match count / 2 {
        _ if !ctx.trace => count,
        half if half >= MIX.len() => half - half % MIX.len(),
        half => half,
    };
    let (plain_reqs, traced_reqs) = reqs.split_at(split);
    let counters = |d: &Daemon| {
        [
            "serve.cache.hit",
            "serve.cache.miss",
            "serve.requests.rejected",
            "serve.solve.slices",
        ]
        .map(|n| d.counter(n))
    };
    let run_phase =
        |rs: &[Request], out: &mut Outcome| -> Option<(LoopResult, Vec<f64>, [u64; 4])> {
            let c0 = counters(&daemon);
            match open_loop(&daemon, rs) {
                Ok(run) => {
                    let ms = score(rs, &run, out);
                    let c1 = counters(&daemon);
                    let delta = [0, 1, 2, 3].map(|i| c1[i] - c0[i]);
                    Some((run, ms, delta))
                }
                Err(e) => {
                    out.attempted += rs.len() as u64;
                    out.failed += rs.len() as u64;
                    out.problem(e);
                    None
                }
            }
        };
    let Some((plain, plain_ms, _)) = run_phase(plain_reqs, &mut out) else {
        return (out, tr);
    };
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((r, reply), due) in plain_reqs.iter().zip(&plain.replies).zip(&plain.due) {
        if let Some(reply) = reply {
            let label = match r.kind {
                Kind::ByHash => format!("by-hash {}", r.spec.algorithm.name()),
                Kind::Upload => "upload".to_string(),
                Kind::BigUpload => "large upload".to_string(),
                Kind::Reupload => "re-upload".to_string(),
                Kind::Cancelled => "cancelled".to_string(),
                Kind::Budget => "budget".to_string(),
            };
            let ms = reply.at.saturating_duration_since(*due).as_secs_f64() * 1e3;
            by_kind.entry(label).or_default().push(ms);
        }
    }
    for (label, ms) in &by_kind {
        out.notes.push(format!(
            "{label}: {} requests, median {:.3} ms",
            ms.len(),
            median(ms)
        ));
    }
    out.op_ms = plain_ms;
    out.wall_s = plain.wall_s;
    out.kernel_ms = plain.kernel_ms.clone();
    out.speed_factor = plain.speed_factor;
    out.rate_bound = true;
    if !ctx.trace {
        return (out, tr);
    }
    let Some((traced, traced_ms, delta)) = run_phase(traced_reqs, &mut out) else {
        return (out, tr);
    };
    drop(daemon);
    for (r, (reply, due)) in traced_reqs
        .iter()
        .zip(traced.replies.iter().zip(&traced.due))
    {
        if let Some(reply) = reply {
            tr.record("serve.request", r.id, *due, reply.at);
        }
    }
    shadow(ctx, &instances, pool, plain_reqs, traced_reqs, &mut tr);
    let spans = tr.spans();
    let own = trace::self_ns(spans);
    let mut layers_by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for name in SHADOW_LAYERS {
        for (op, ns) in trace::per_op_ns(spans, &own, name, None) {
            *layers_by_op.entry(op).or_default() += ns as f64 / 1e6;
        }
    }
    let mut layers = Vec::new();
    let mut residual = Vec::new();
    let mut cover = Vec::new();
    for (r, (reply, due)) in traced_reqs
        .iter()
        .zip(traced.replies.iter().zip(&traced.due))
    {
        if let Some(reply) = reply {
            let latency = reply.at.saturating_duration_since(*due).as_secs_f64() * 1e3;
            let l = layers_by_op.get(&r.id).copied().unwrap_or(0.0);
            layers.push(l);
            residual.push(latency - l);
            cover.push(l / latency);
        }
    }
    for (metric, name) in [
        ("serve.frame.ms", "serve.frame"),
        ("serve.protocol.parse_ms", "serve.protocol.parse"),
        ("serve.protocol.render_ms", "serve.protocol.render"),
        ("serve.cache.hash_ms", "serve.cache.hash"),
        ("serve.journal.ms", "serve.journal"),
        ("graph.io.parse_ms", "graph.io"),
        ("graph.scc.ms", "graph.scc"),
        ("core.spec.solve_ms", "core.spec"),
        ("core.certify.ms", "core.certify"),
    ] {
        out.layer(metric, trace::layer_ms(spans, &own, name, None));
    }
    let io = trace::per_op_ns(spans, &own, "graph.io", None);
    let io_bytes: usize = io
        .keys()
        .filter_map(|op| traced_reqs.iter().find(|r| r.id == *op))
        .map(|r| instances[r.instance].text.len())
        .sum();
    let io_ns: u64 = io.values().sum();
    if io_ns > 0 {
        out.layer(
            "graph.io.mb_per_s",
            io_bytes as f64 / 1e6 / (io_ns as f64 / 1e9),
        );
    }
    let [hit, miss, rejected, slices] = delta;
    out.layer(
        "serve.cache.hit_frac",
        hit as f64 / (hit + miss).max(1) as f64,
    );
    out.layer(
        "serve.server.shed_frac",
        rejected as f64 / traced_reqs.len().max(1) as f64,
    );
    out.layer(
        "serve.server.slices",
        slices as f64 / traced_reqs.len().max(1) as f64,
    );
    out.layer("serve.server.layers_ms", median(&layers));
    out.layer("serve.server.residual_ms", median(&residual));
    let mut late = plain.late_ms.clone();
    late.extend(&traced.late_ms);
    out.layer("loadgen.late_ms_p90", quantile(&late, 0.9));
    // The traced half's open loop records no spans (the layer calls are
    // replayed afterwards), so this reads only the noise between halves.
    out.layer(
        "trace.overhead_frac",
        mean(&traced_ms) / mean(&out.op_ms) - 1.0,
    );
    out.layer("trace.op_ms_p50", median(&traced_ms));
    out.layer("trace.layer_cover_frac", median(&cover));
    // parse_request cost against payload size, for the baseline record.
    let parse = trace::per_op_ns(spans, &own, "serve.protocol.parse", None);
    for (lo, hi) in [(0, 1_000), (1_000, 50_000), (50_000, usize::MAX)] {
        let ms: Vec<f64> = traced_reqs
            .iter()
            .filter(|r| (lo..hi).contains(&r.payload.len()))
            .filter_map(|r| parse.get(&r.id))
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        if !ms.is_empty() {
            let range = if hi == usize::MAX {
                format!("{lo}+")
            } else {
                format!("{lo}..{hi}")
            };
            out.notes.push(format!(
                "parse_request on payloads of {range} bytes: median {:.3} ms over {}",
                median(&ms),
                ms.len()
            ));
        }
    }
    (out, tr)
}
