//! **F2 — the headline separation**: rounds as a function of the weight
//! ratio `W`, topology fixed.
//!
//! The paper's abstract: *“This is the first distributed algorithm for this
//! problem whose running time does not depend on the vertex weights nor the
//! number of vertices.”* We fix the hypergraph and scale only the weight
//! distribution; this work's rounds must stay flat while the KMW-style
//! doubling baseline (whose duals start weight-obliviously, as any
//! `O(logΔ + logW)` scheme's must) climbs linearly in `log W`.

use dcover_baselines::doubling::solve_doubling;
use dcover_baselines::kvy::solve_kvy;
use dcover_bench::fit::{growth_factor, linear_fit};
use dcover_bench::{f, Table};
use dcover_core::MwhvcSolver;
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("# F2 — rounds vs weight ratio W (headline: W-independence)");
    let n = 2500;
    let m = 5000;
    let eps = 0.5;
    let mut table = Table::new(
        "rounds per algorithm as the weight range scales (same topology seed)",
        &[
            "W = max/min",
            "this work",
            "KVY",
            "doubling",
            "ratio≤ (this work)",
        ],
    );
    let mut log_w = Vec::new();
    let mut ours_r = Vec::new();
    let mut kvy_r = Vec::new();
    let mut dbl_r = Vec::new();
    for k in [0u32, 4, 8, 12, 16, 20] {
        let wmax = 1u64 << k;
        let weights = if wmax == 1 {
            WeightDist::unit()
        } else {
            WeightDist::PowersOfTwo { max: wmax }
        };
        // Same seed every time: identical topology, only weights change.
        let g = random_uniform(
            &RandomUniform {
                n,
                m,
                rank: 3,
                weights,
            },
            &mut StdRng::seed_from_u64(5000),
        );
        let ours = MwhvcSolver::with_epsilon(eps)
            .unwrap()
            .solve(&g)
            .expect("solve");
        let kvy = solve_kvy(&g, eps).expect("kvy");
        let dbl = solve_doubling(&g, eps).expect("doubling");
        table.row([
            format!("2^{k}"),
            ours.rounds().to_string(),
            kvy.report.rounds.to_string(),
            dbl.report.rounds.to_string(),
            f(ours.ratio_upper_bound(), 3),
        ]);
        log_w.push(k as f64);
        ours_r.push(ours.rounds() as f64);
        kvy_r.push(kvy.report.rounds as f64);
        dbl_r.push(dbl.report.rounds as f64);
    }
    table.print();
    let ours_fit = linear_fit(&log_w, &ours_r);
    let dbl_fit = linear_fit(&log_w, &dbl_r);
    println!(
        "\nfit: this work rounds ~ logW slope {:.3} (flat = W-independent), growth ×{:.2}",
        ours_fit.slope,
        growth_factor(&ours_r)
    );
    println!(
        "fit: doubling rounds ~ logW slope {:.3} (R² {:.3}), growth ×{:.2} — the logW term the paper removes",
        dbl_fit.slope,
        dbl_fit.r2,
        growth_factor(&dbl_r)
    );
    println!(
        "KVY growth ×{:.2} (scale-free increments; bounded by O(f·log(f/ε)·log n), yet flat in n on F3's sweep)",
        growth_factor(&kvy_r)
    );
}
