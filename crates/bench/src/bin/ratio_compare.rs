//! EXP-MCR — the optimum cost-to-time ratio solvers.
//!
//! The title's second problem: compares every MCR-capable solver
//! (Howard, Burns, KO, YTO, Lawler-exact, and the transit-expansion
//! reduction) on SPRAND graphs decorated with random transit times,
//! verifying exact agreement and reporting times. The expansion route
//! corresponds to the pseudo-polynomial `O(Tm)` algorithms of the
//! paper's Table 1 (rows 13, 15–17), whose cost grows with the total
//! transit time `T`.
//!
//! `cargo run -p mcr-bench --release --bin ratio_compare [--full]`

use mcr_bench::{fmt_ms, print_table, HarnessConfig};
use mcr_core::spec::solve_spec;
use mcr_core::{Algorithm, FallbackChain, Solution, SolveOptions, SolveSpec};
use mcr_gen::transit::with_random_transits;
use mcr_graph::Graph;
use std::time::{Duration, Instant};

/// One ratio solve with no fallback, so each column times its own
/// kernel.
fn timed(g: &Graph, alg: Algorithm) -> (Duration, Solution) {
    let opts = SolveOptions::new().fallback(FallbackChain::NONE);
    let start = Instant::now();
    let sol = solve_spec(g, &SolveSpec::ratio(alg), &opts)
        .expect("solves")
        .expect("cyclic");
    (start.elapsed(), sol)
}

fn main() {
    let mut cfg = HarnessConfig::from_args();
    // The exact-snap bisection needs ~60 Bellman–Ford oracle calls per
    // component; cap the sweep at n = 2048 so the full run stays in
    // minutes (the agreement result is size-independent).
    cfg.grid.retain(|&(n, _)| n <= 2048);
    // Karp2 has no ratio kernel, so its spec runs transit expansion.
    let solvers = [
        ("Howard", Algorithm::HowardExact),
        ("Burns", Algorithm::BurnsExact),
        ("KO", Algorithm::Ko),
        ("YTO", Algorithm::Yto),
        ("Lawler-exact", Algorithm::LawlerExact),
        ("expand+Karp2", Algorithm::Karp2),
    ];

    let mut header: Vec<String> = vec!["n".into(), "m".into(), "T".into(), "rho*".into()];
    header.extend(solvers.iter().map(|(n, _)| format!("{n} ms")));
    let mut rows = Vec::new();

    for &(n, m) in &cfg.grid {
        // Expansion multiplies the instance by the mean transit; skip
        // the biggest rows for it in full mode only by memory policy.
        let mut times = vec![Duration::ZERO; solvers.len()];
        let mut rho = String::new();
        let mut total_t = 0i64;
        for seed in 0..cfg.seeds {
            let g0 = cfg.instance(n, m, seed);
            let g = with_random_transits(&g0, 1, 10, seed ^ 0x5eed);
            total_t += g.arc_ids().map(|a| g.transit(a)).sum::<i64>();
            let mut expected = None;
            for (i, &(name, alg)) in solvers.iter().enumerate() {
                let (t, sol) = timed(&g, alg);
                times[i] += t;
                match expected {
                    None => {
                        expected = Some(sol.lambda);
                        if seed == 0 {
                            rho = sol.lambda.to_string();
                        }
                    }
                    Some(e) => assert_eq!(sol.lambda, e, "{name} disagrees at n={n} m={m}"),
                }
            }
        }
        let mut row = vec![
            n.to_string(),
            m.to_string(),
            (total_t / cfg.seeds as i64).to_string(),
            rho,
        ];
        for t in &times {
            row.push(fmt_ms(*t / cfg.seeds as u32));
        }
        rows.push(row);
        eprintln!("done n={n} m={m}");
    }

    println!(
        "EXP-MCR: minimum cost-to-time ratio solvers, transit times U[1,10], {} seeds",
        cfg.seeds
    );
    print_table(&header, &rows);
    println!("\nExpected shape: all solvers agree exactly; Howard fastest; the");
    println!("expansion route pays the O(T/m) blowup of its pseudo-polynomial bound.");
}
