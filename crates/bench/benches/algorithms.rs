//! Criterion benches: statistically robust timing of every Table 2
//! algorithm on representative SPRAND rows, Howard's scaling sweep, and
//! the ratio solvers.
//!
//! `cargo bench -p mcr-bench --bench algorithms`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcr_core::spec::solve_spec;
use mcr_core::{Algorithm, FallbackChain, SolveOptions, SolveSpec};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_gen::transit::with_random_transits;
use std::hint::black_box;

/// One Table 2 row (n = 512, sweep of densities) per algorithm.
fn bench_table2_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_row_n512");
    group.sample_size(10);
    for &m in &[512usize, 1024, 1536] {
        let g = sprand(&SprandConfig::new(512, m).seed(0));
        for alg in Algorithm::TABLE2 {
            group.bench_with_input(
                BenchmarkId::new(alg.name(), m),
                &g,
                |b, g| b.iter(|| black_box(alg.solve(black_box(g)))),
            );
        }
    }
    group.finish();
}

/// Howard's wall time as n grows (the headline result: near-linear in
/// practice despite exponential worst-case bounds).
fn bench_howard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("howard_scaling");
    group.sample_size(10);
    for &n in &[512usize, 1024, 2048, 4096, 8192] {
        let g = sprand(&SprandConfig::new(n, 3 * n).seed(0));
        group.bench_with_input(BenchmarkId::new("howard_exact", n), &g, |b, g| {
            b.iter(|| black_box(Algorithm::HowardExact.solve(black_box(g))))
        });
        group.bench_with_input(BenchmarkId::new("howard_fig1", n), &g, |b, g| {
            b.iter(|| black_box(Algorithm::Howard.solve(black_box(g))))
        });
    }
    group.finish();
}

/// KO vs YTO head-to-head across densities (§4.2's timing claim).
fn bench_parametric(c: &mut Criterion) {
    let mut group = c.benchmark_group("parametric_ko_vs_yto");
    group.sample_size(10);
    for &m_per_n in &[1usize, 2, 3] {
        let g = sprand(&SprandConfig::new(1024, 1024 * m_per_n).seed(0));
        group.bench_with_input(BenchmarkId::new("KO", m_per_n), &g, |b, g| {
            b.iter(|| black_box(Algorithm::Ko.solve(black_box(g))))
        });
        group.bench_with_input(BenchmarkId::new("YTO", m_per_n), &g, |b, g| {
            b.iter(|| black_box(Algorithm::Yto.solve(black_box(g))))
        });
    }
    group.finish();
}

/// The ratio solvers on a transit-decorated instance (EXP-MCR).
fn bench_ratio(c: &mut Criterion) {
    let mut group = c.benchmark_group("ratio_solvers");
    group.sample_size(10);
    let g0 = sprand(&SprandConfig::new(512, 1536).seed(0));
    let g = with_random_transits(&g0, 1, 10, 1);
    let opts = SolveOptions::new().fallback(FallbackChain::NONE);
    for (name, alg) in [
        ("howard", Algorithm::HowardExact),
        ("burns", Algorithm::BurnsExact),
        ("yto", Algorithm::Yto),
        ("lawler_exact", Algorithm::LawlerExact),
    ] {
        let spec = SolveSpec::ratio(alg);
        group.bench_function(name, |b| {
            b.iter(|| black_box(solve_spec(black_box(&g), &spec, &opts)))
        });
    }
    group.finish();
}

/// Ablation: exact Lawler snap vs ε-Lawler vs OA1 — the cost of
/// exactness in the oracle-based methods.
fn bench_oracle_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_methods");
    group.sample_size(10);
    let g = sprand(&SprandConfig::new(1024, 3072).seed(0));
    group.bench_function("lawler_eps", |b| {
        b.iter(|| black_box(Algorithm::Lawler.solve(black_box(&g))))
    });
    group.bench_function("lawler_exact", |b| {
        b.iter(|| black_box(Algorithm::LawlerExact.solve(black_box(&g))))
    });
    group.bench_function("oa1", |b| {
        b.iter(|| black_box(Algorithm::Oa1.solve(black_box(&g))))
    });
    group.bench_function("megiddo", |b| {
        b.iter(|| black_box(Algorithm::Megiddo.solve(black_box(&g))))
    });
    group.finish();
}

/// Ablation: the study inherited LEDA's Fibonacci heap for KO and YTO
/// ("their use in the KO algorithm was preferred to make these two
/// algorithms comparable", §4.2). How much does that choice matter
/// against a plain indexed binary heap?
fn bench_heap_ablation(c: &mut Criterion) {
    use mcr_core::algorithms::parametric_with_heap;
    let mut group = c.benchmark_group("parametric_heap_ablation");
    group.sample_size(10);
    let g = sprand(&SprandConfig::new(2048, 6144).seed(0));
    group.bench_function("yto_fibonacci", |b| {
        b.iter(|| black_box(parametric_with_heap(black_box(&g), true, true)))
    });
    group.bench_function("yto_binary", |b| {
        b.iter(|| black_box(parametric_with_heap(black_box(&g), true, false)))
    });
    group.bench_function("ko_fibonacci", |b| {
        b.iter(|| black_box(parametric_with_heap(black_box(&g), false, true)))
    });
    group.bench_function("ko_binary", |b| {
        b.iter(|| black_box(parametric_with_heap(black_box(&g), false, false)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table2_row,
    bench_howard_scaling,
    bench_parametric,
    bench_ratio,
    bench_oracle_methods,
    bench_heap_ablation
);
criterion_main!(benches);
