//! Metric names, units, and the printed result.

use crate::{machine, stats, study, Ctx, Outcome};
use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every workload reports (`--trace 1`); a layer
/// a workload does not enter reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("graph.io.parse_ms", "ms"),
        ("graph.io.mb_per_s", "MB/s"),
        ("graph.scc.ms", "ms"),
        ("graph.scc.jobs", "count"),
        ("core.spec.solve_ms", "ms"),
        ("core.spec.iterations", "count"),
        ("core.spec.arcs_visited", "count"),
        ("core.certify.ms", "ms"),
        ("core.algorithms.howard_fastest", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for route in study::routes() {
        v.push((format!("core.algorithms.{}.ms", route.label), "ms"));
    }
    v.extend(
        [
            ("core.dynamic.apply_ms.weight", "ms"),
            ("core.dynamic.apply_ms.structural", "ms"),
            ("core.dynamic.cache_hit_frac", "fraction"),
            ("core.dynamic.full_frac", "fraction"),
            ("core.dynamic.rebuild_ms", "ms"),
            ("core.dynamic.scratch_ms", "ms"),
            ("serve.protocol.parse_ms", "ms"),
            ("serve.protocol.render_ms", "ms"),
            ("serve.frame.ms", "ms"),
            ("serve.cache.hash_ms", "ms"),
            ("serve.cache.hit_frac", "fraction"),
            ("serve.journal.ms", "ms"),
            ("serve.server.shed_frac", "fraction"),
            ("serve.server.slices", "count"),
            ("serve.server.layers_ms", "ms"),
            ("serve.server.residual_ms", "ms"),
            ("loadgen.late_ms_p90", "ms"),
            ("trace.overhead_frac", "fraction"),
            ("trace.op_ms_p50", "ms"),
            ("trace.layer_cover_frac", "fraction"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// Renders a measured value with all its digits; JSON has no NaN.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Reads an unsigned integer field from a flat JSON line.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The end-to-end metrics; timings scaled by `f` to the reference
/// machine speed (see `speed`).
fn end_to_end(out: &Outcome, f: f64) -> BTreeMap<&'static str, f64> {
    let attempted = out.attempted.max(1) as f64;
    let ops_per_s = out.op_ms.len() as f64 / out.wall_s.max(1e-9);
    BTreeMap::from([
        ("op_ms_p50", stats::median(&out.op_ms) * f),
        ("op_ms_p90", stats::quantile(&out.op_ms, 0.9) * f),
        (
            "ops_per_s",
            if out.rate_bound {
                ops_per_s
            } else {
                ops_per_s / f
            },
        ),
        ("ok_frac", 1.0 - out.failed as f64 / attempted),
        ("setup_s", stats::median(&out.setup_s) * f),
        ("peak_rss_mib", machine::peak_rss_mib()),
    ])
}

/// Prints the human-readable lines and, last, the result object.
/// Returns whether every output check passed.
pub fn print(workload: &str, ctx: &Ctx, out: &Outcome) -> bool {
    println!("machine: {}", machine::describe());
    println!(
        "workload: {workload} seed={} seconds={} trace={} smoke={}",
        ctx.seed, ctx.seconds, ctx.trace as u8, ctx.smoke
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    // A run that failed before its timed loop has no speed samples.
    let f = if out.speed_factor > 0.0 {
        out.speed_factor
    } else {
        1.0
    };
    let raw = end_to_end(out, 1.0);
    let e2e = end_to_end(out, f);
    println!(
        "end-to-end ({} ops, {} attempted, {} failed, {:.3} s; speed kernel median {:.4} ms over {}, factor {f:.4}):",
        out.op_ms.len(),
        out.attempted,
        out.failed,
        out.wall_s,
        stats::median(&out.kernel_ms),
        out.kernel_ms.len()
    );
    println!("  {:<34} {:>14} {:>14}", "", "normalized", "raw");
    for (name, unit) in END_TO_END {
        println!(
            "  {name:<34} {:>14.4} {:>14.4} {unit}",
            e2e[name], raw[name]
        );
    }
    let metrics: Vec<(String, f64, &str)> = if ctx.trace {
        let given: BTreeMap<&str, f64> = out.layers.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        println!("per-layer (traced run):");
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = given.get(name.as_str()).copied().unwrap_or(0.0);
                println!("  {name:<34} {v:>14.4} {unit}");
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), e2e[name], unit))
            .collect()
    };
    let correct = out.problems.is_empty() && out.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_valid() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn benchmark_manifest_lists_every_metric() {
        let manifest = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let listed = |name: &str, unit: &str| {
            manifest.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let layers = per_layer();
        for (name, unit) in &layers {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let entries = manifest.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            crate::WORKLOADS.len() + END_TO_END.len() + layers.len()
        );
    }

    #[test]
    fn json_u64_reads_fields() {
        let line = "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": {}}";
        assert_eq!(json_u64(line, "attempted"), Some(120));
        assert_eq!(json_u64(line, "failed"), Some(0));
        assert_eq!(json_u64(line, "missing"), None);
    }
}
