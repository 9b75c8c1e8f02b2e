//! **F3 — n-independence and Corollary 10**: rounds as the instance grows
//! with (roughly) constant degree.
//!
//! Sweeping `n` at a fixed edge/vertex ratio keeps Δ nearly constant, so
//! the paper predicts flat rounds for this work at constant ε and a
//! `~log n` slope for the `ε = 1/(nW)` f-approximation mode (Cor. 10,
//! `O(f log n)`). The KVY-style baseline is bounded by
//! `O(f·log(f/ε)·log n)`, which allows growth in n but does not force
//! it: on this sweep it measures flat, 13 rounds at every n.

use dcover_baselines::kvy::solve_kvy;
use dcover_bench::fit::{growth_factor, linear_fit};
use dcover_bench::{f, Table};
use dcover_core::{MwhvcConfig, MwhvcSolver};
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("# F3 — rounds vs n (n-independence; Corollary 10)");
    let eps = 0.5;
    let wmax = 1000u64;
    let mut table = Table::new(
        "rounds per algorithm as n grows (m = 2n, f = 3)",
        &[
            "n",
            "Δ (measured)",
            "this work (f+ε)",
            "this work f-approx",
            "KVY",
        ],
    );
    let mut log_n = Vec::new();
    let mut ours_r = Vec::new();
    let mut fapx_r = Vec::new();
    let mut kvy_r = Vec::new();
    for k in [10u32, 11, 12, 13, 14] {
        let n = 1usize << k;
        let g = random_uniform(
            &RandomUniform {
                n,
                m: 2 * n,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: wmax },
            },
            &mut StdRng::seed_from_u64(6000 + u64::from(k)),
        );
        let ours = MwhvcSolver::with_epsilon(eps)
            .unwrap()
            .solve(&g)
            .expect("solve");
        let fapx = MwhvcSolver::new(MwhvcConfig::f_approximation(n, wmax).expect("config"))
            .solve(&g)
            .expect("solve");
        let kvy = solve_kvy(&g, eps).expect("kvy");
        table.row([
            n.to_string(),
            g.max_degree().to_string(),
            ours.rounds().to_string(),
            fapx.rounds().to_string(),
            kvy.report.rounds.to_string(),
        ]);
        log_n.push(f64::from(k));
        ours_r.push(ours.rounds() as f64);
        fapx_r.push(fapx.rounds() as f64);
        kvy_r.push(kvy.report.rounds as f64);
    }
    table.print();
    println!(
        "\ngrowth n×16: this work ×{} (paper: flat), f-approx ×{} (paper: ~logn), KVY ×{} (bound: O(f·log(f/ε)·log n))",
        f(growth_factor(&ours_r), 2),
        f(growth_factor(&fapx_r), 2),
        f(growth_factor(&kvy_r), 2),
    );
    let fapx_fit = linear_fit(&log_n, &fapx_r);
    println!(
        "fit: f-approx rounds ~ log n slope {:.1} (R² {:.3}) — Corollary 10's O(f log n)",
        fapx_fit.slope, fapx_fit.r2
    );
}
