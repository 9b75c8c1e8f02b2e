//! **T1 — Table 1 of the paper**: distributed algorithms for minimum weight
//! vertex cover (`f = 2`), measured head-to-head on identical instances.
//!
//! Paper rows reproduced (the `dcover-baselines` crate docs say how each
//! baseline is reconstructed):
//! * *this work* `(2+ε)` — `O(log Δ/log log Δ + log ε⁻¹·(log Δ)^0.001)`;
//! * *this work* `2`-approx — ε = 1/(nW), `O(log n)` (Cor. 10);
//! * KVY-style `O(log ε⁻¹ · log n)` [15];
//! * KMW-style doubling `O(ε⁻⁴ log(W·Δ))`-row stand-in [13, 18];
//! * randomized maximal matching `O(log n)` [12, 16] (unweighted column);
//! * Bar-Yehuda–Even sequential (quality yardstick; not distributed).
//!
//! Expected shape: only the weight-dependent baselines slow down as `W`
//! grows; this work's rounds stay put (its `ε = 1/(nW)` mode pays `log W`
//! by design, matching Cor. 10).

use dcover_baselines::doubling::solve_doubling;
use dcover_baselines::kvy::solve_kvy;
use dcover_baselines::matching::vc_via_matching;
use dcover_baselines::sequential::bar_yehuda_even;
use dcover_bench::{f, Table};
use dcover_core::{MwhvcConfig, MwhvcSolver};
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("# T1 — Table 1 (distributed MWVC, f = 2)");
    let n = 3000;
    let m = 6000;
    let eps = 0.5;
    let mut table = Table::new(
        "measured rounds and certified ratio per algorithm and weight range",
        &[
            "algorithm",
            "paper bound",
            "W",
            "rounds",
            "iters",
            "ratio ≤",
            "cover weight",
        ],
    );

    for (wi, wmax) in [1u64, 1_000, 1_000_000].into_iter().enumerate() {
        let weights = if wmax == 1 {
            WeightDist::unit()
        } else {
            WeightDist::Uniform { min: 1, max: wmax }
        };
        let g = random_uniform(
            &RandomUniform {
                n,
                m,
                rank: 2,
                weights,
            },
            &mut StdRng::seed_from_u64(1000 + wi as u64),
        );

        let ours = MwhvcSolver::with_epsilon(eps)
            .unwrap()
            .solve(&g)
            .expect("solve");
        table.row([
            "this work (2+ε)".to_string(),
            "O(logΔ/loglogΔ + logε⁻¹(logΔ)^.001)".to_string(),
            wmax.to_string(),
            ours.rounds().to_string(),
            ours.iterations.to_string(),
            f(ours.ratio_upper_bound(), 3),
            ours.weight.to_string(),
        ]);

        let fapx = MwhvcSolver::new(MwhvcConfig::f_approximation(g.n(), wmax).expect("config"))
            .solve(&g)
            .expect("solve");
        table.row([
            "this work 2-approx (ε=1/nW)".to_string(),
            "O(logn)  [Cor. 10, f=2]".to_string(),
            wmax.to_string(),
            fapx.rounds().to_string(),
            fapx.iterations.to_string(),
            f(fapx.ratio_upper_bound(), 3),
            fapx.weight.to_string(),
        ]);

        let kvy = solve_kvy(&g, eps).expect("kvy");
        table.row([
            "KVY-style [15]".to_string(),
            "O(logε⁻¹·logn)".to_string(),
            wmax.to_string(),
            kvy.report.rounds.to_string(),
            kvy.iterations.to_string(),
            f(kvy.ratio_upper_bound(), 3),
            kvy.weight.to_string(),
        ]);

        let dbl = solve_doubling(&g, eps).expect("doubling");
        table.row([
            "KMW-style doubling [18]".to_string(),
            "O(logΔ + logW)".to_string(),
            wmax.to_string(),
            dbl.report.rounds.to_string(),
            dbl.iterations.to_string(),
            f(dbl.ratio_upper_bound(), 3),
            dbl.weight.to_string(),
        ]);

        if wmax == 1 {
            let mm = vc_via_matching(&g, 7).expect("matching");
            table.row([
                "rand. maximal matching [12,16]".to_string(),
                "O(logn), unweighted".to_string(),
                wmax.to_string(),
                mm.report.rounds.to_string(),
                mm.iterations.to_string(),
                f(mm.weight as f64 / mm.dual_total, 3),
                mm.weight.to_string(),
            ]);
        }

        let bye = bar_yehuda_even(&g);
        table.row([
            "Bar-Yehuda–Even (sequential)".to_string(),
            "f-approx, centralized".to_string(),
            wmax.to_string(),
            "—".to_string(),
            "—".to_string(),
            f(bye.ratio_upper_bound(), 3),
            bye.weight.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nInstance: random f=2, n = {n}, m = {m}, ε = {eps}. All ratio bounds are \
         certified by each algorithm's own dual (w(C)/Σδ ≥ true ratio)."
    );
}
