//! The mcr benchmark: four seeded workloads, each run in a process of
//! its own, that time every op end to end with tracing off, check every
//! answer, and (with `--trace 1`) time the calls into each layer's
//! public functions from this benchmark's own code.
//!
//! ```text
//! mcr-perfbench --workload <oneshot|study|serve|dynamic|all> --seed <n>
//!               --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is nonzero when any output check fails.

mod dynamic;
mod inputs;
mod machine;
mod oneshot;
mod report;
mod serve;
mod speed;
mod stats;
mod study;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["oneshot", "study", "serve", "dynamic"];

/// The seed used when `--seed` is not given. The smoke test also runs
/// a held-out seed, so no workload is tuned to this one only.
pub const DEFAULT_SEED: u64 = 1;

/// Enough samples that at least ten lie beyond the 90th percentile.
const MIN_OPS: usize = 100;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// What every workload is handed.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and short runs, output checks still on.
    pub smoke: bool,
    /// Where traces and scratch files go, inside the working directory.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn min_ops(&self) -> usize {
        if self.smoke {
            1
        } else {
            MIN_OPS
        }
    }

    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// What a workload run reports back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Ops that errored, were shed, timed out, or answered wrongly.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Latency of every op of the untraced run, in ms.
    pub op_ms: Vec<f64>,
    /// Wall time of the untraced run.
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    /// Speed-kernel times taken alongside the untraced run.
    pub kernel_ms: Vec<f64>,
    /// The factor scaling the untraced run's times to the reference
    /// machine speed (see `speed`).
    pub speed_factor: f64,
    /// Whether throughput is set by the offered load rather than by
    /// machine speed (open loop), so `ops_per_s` is not normalized.
    pub rate_bound: bool,
    /// Per-layer metrics of the traced run, by name.
    pub layers: Vec<(String, f64)>,
    /// Input sizes and other context, printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn problem(&mut self, msg: String) {
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }
}

/// Runs `make` `reps` times, timing each, and keeps the last result
/// (earlier ones are dropped before the next set-up starts).
pub fn timed_setup<T>(reps: usize, mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let value = make();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up ran"), times)
}

/// A workload driven in a closed loop: the next op starts when the
/// previous one has finished.
pub trait ClosedLoop {
    /// Ops per round; the op mix repeats every round, and a run stops
    /// only at a round boundary so every run sees the same mix.
    fn round_len(&self) -> usize;
    /// Runs op `i`, timing its layer calls in `tr`.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String>;
    /// Whether op `i` can run again with the same result (no state
    /// carries over between ops), so the traced run can repeat the
    /// untraced run's ops exactly.
    fn replayable(&self) -> bool {
        true
    }
    /// Runs after op `i` in a traced run, outside the op's timing, for
    /// layer calls the op itself does not make.
    fn probe(&mut self, _i: usize, _tr: &mut Tracer) {}
}

/// When a closed-loop run stops.
pub enum Stop {
    /// After at least this long and `min_ops` ops, on a round boundary.
    After { seconds: f64, min_ops: usize },
    /// After exactly this many ops.
    Ops(usize),
}

pub struct LoopRun {
    pub op_ms: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Index of the first op of the next run.
    pub next_op: usize,
}

/// Runs ops `first..` until `stop`. Each op is one `op` span in `tr`;
/// the speed kernel runs between ops.
pub fn closed_loop(
    w: &mut impl ClosedLoop,
    first: usize,
    stop: Stop,
    tr: &mut Tracer,
    speed: &mut speed::Speed,
) -> LoopRun {
    let round = w.round_len().max(1);
    let start = Instant::now();
    let mut run = LoopRun {
        op_ms: Vec::new(),
        wall_s: 0.0,
        failed: 0,
        errors: Vec::new(),
        next_op: first,
    };
    loop {
        let done = run.op_ms.len() + run.failed as usize;
        let finished = match stop {
            Stop::After { seconds, min_ops } => {
                done >= min_ops
                    && done.is_multiple_of(round)
                    && start.elapsed().as_secs_f64() >= seconds
            }
            Stop::Ops(n) => done >= n,
        };
        if finished {
            break;
        }
        speed.tick();
        let i = run.next_op;
        tr.set_op(i as u64);
        let t = Instant::now();
        let span = tr.enter("op", "");
        let result = w.op(i, tr);
        tr.exit(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if tr.is_on() {
            w.probe(i, tr);
        }
        match result {
            Ok(()) => run.op_ms.push(ms),
            Err(e) => {
                run.failed += 1;
                if run.errors.len() < 20 {
                    run.errors.push(format!("op {i}: {e}"));
                }
            }
        }
        run.next_op += 1;
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// The standard run of a closed-loop workload. Untraced: the whole
/// `--seconds`. Traced: an untraced half, then a traced half over the
/// same ops (or, when ops carry state, the next ops of the same
/// sequence), so `trace.overhead_frac` compares like with like.
/// Returns the tracer of the traced half.
pub fn run_closed(ctx: &Ctx, w: &mut impl ClosedLoop, out: &mut Outcome) -> Tracer {
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let min_ops = ctx.min_ops();
    let mut speed = speed::Speed::new();
    let plain = closed_loop(
        w,
        0,
        Stop::After { seconds, min_ops },
        &mut Tracer::new(false),
        &mut speed,
    );
    out.kernel_ms = speed.samples().to_vec();
    out.speed_factor = speed.factor();
    let mut tr = Tracer::new(ctx.trace);
    let record = |run: &LoopRun, out: &mut Outcome| {
        out.attempted += (run.op_ms.len() as u64) + run.failed;
        out.failed += run.failed;
        for e in &run.errors {
            out.problem(e.clone());
        }
    };
    record(&plain, out);
    if ctx.trace {
        let traced = if w.replayable() {
            closed_loop(w, 0, Stop::Ops(plain.next_op), &mut tr, &mut speed)
        } else {
            let stop = Stop::After { seconds, min_ops };
            closed_loop(w, plain.next_op, stop, &mut tr, &mut speed)
        };
        record(&traced, out);
        out.layer(
            "trace.overhead_frac",
            stats::mean(&traced.op_ms) / stats::mean(&plain.op_ms) - 1.0,
        );
        out.layer("trace.op_ms_p50", stats::median(&traced.op_ms));
        let own = trace::self_ns(tr.spans());
        out.layer(
            "trace.layer_cover_frac",
            trace::layer_cover(tr.spans(), &own, "op"),
        );
    }
    out.op_ms = plain.op_ms;
    out.wall_s = plain.wall_s;
    tr
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// `--workload all`: every workload, untraced then traced, each in a
/// process of its own so memory peaks and set-up stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            println!("== workload {w} trace {trace}");
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cannot run workload {w}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            ok &= out.status.success();
            if let Some(last) = stdout.lines().last() {
                attempted += report::json_u64(last, "attempted").unwrap_or(0);
                failed += report::json_u64(last, "failed").unwrap_or(0);
            }
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("mcr-perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir,
    };
    let (outcome, tracer) = match args.workload.as_str() {
        "oneshot" => oneshot::run(&ctx),
        "study" => study::run(&ctx),
        "serve" => serve::run(&ctx),
        "dynamic" => dynamic::run(&ctx),
        _ => unreachable!("validated by parse_args"),
    };
    if tracer.is_on() {
        let path = ctx
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("mcr-perfbench: writing {}: {e}", path.display());
        }
    }
    if report::print(&args.workload, &ctx, &outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
