//! The localized warm run against its oracle: the whole-network warm run,
//! where every node starts running and no settle pass runs. Both must give
//! the same cover, duals (bit for bit), levels, weight and dual total, and
//! the same rounds whenever any node runs.

use dcover_congest::{EngineArena, Simulator};
use dcover_hypergraph::generators::{
    calibrated_degree, clique, complete_f_partite, coverage_instance, cycle, hyper_star, path,
    planted_cover, preferential_attachment, random_mixed_rank, random_uniform, star, sunflower,
    RandomUniform, WeightDist,
};
use dcover_hypergraph::{EdgeId, Hypergraph, InstanceDelta, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::{CoverResult, MwhvcSolver};
use crate::params::{z_levels, MwhvcConfig, Variant};
use crate::protocol::node::build_network_warm_unsettled;
use crate::warm::{clamped_seed, WarmState};

const EPSILON: f64 = 0.5;
const DELTAS_PER_FAMILY: usize = 8;

/// The warm solve with every node running: the construction before the
/// settle pass, run to completion.
fn solve_warm_whole_network(solver: &MwhvcSolver, g: &Hypergraph, warm: &WarmState) -> CoverResult {
    let z = z_levels(g.rank().max(1), solver.config.epsilon());
    let (duals, levels, _) = clamped_seed(g, warm, z);
    let (topo, nodes) = build_network_warm_unsettled(g, &solver.config, &duals, &levels);
    solver
        .run(g, Simulator::new(topo, nodes), &mut EngineArena::new())
        .expect("the whole-network warm solve succeeds")
}

/// Solves `g` warm both ways, asserts they agree, and returns the
/// localized result.
fn check(solver: &MwhvcSolver, g: &Hypergraph, warm: &WarmState, what: &str) -> CoverResult {
    let local = solver.solve_warm(g, warm).expect("the warm solve succeeds");
    let whole = solve_warm_whole_network(solver, g, warm);
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(local.cover, whole.cover, "{what}: cover");
    assert_eq!(bits(&local.duals), bits(&whole.duals), "{what}: duals");
    assert_eq!(local.levels, whole.levels, "{what}: levels");
    assert_eq!(local.weight, whole.weight, "{what}: weight");
    assert_eq!(
        local.dual_total.to_bits(),
        whole.dual_total.to_bits(),
        "{what}: dual total"
    );
    // One round means every node settled; otherwise the running nodes set
    // the pace in both runs.
    if local.rounds() > 1 {
        assert_eq!(local.rounds(), whole.rounds(), "{what}: rounds");
    }
    assert!(
        local.report.total_messages <= whole.report.total_messages,
        "{what}: settling never adds messages"
    );
    local
}

/// The families of `tests/warm_start.rs`, uniform-400 included.
fn family_instances(rng: &mut StdRng) -> Vec<(&'static str, Hypergraph)> {
    let w = WeightDist::Uniform { min: 1, max: 30 };
    let uniform = |n, m, max, rng: &mut StdRng| {
        let weights = WeightDist::Uniform { min: 1, max };
        random_uniform(
            &RandomUniform {
                n,
                m,
                rank: 3,
                weights,
            },
            rng,
        )
    };
    let geometric = coverage_instance(40, 12, 0.35, 4, &w, rng)
        .system
        .to_hypergraph()
        .expect("coverable instance");
    vec![
        ("uniform", uniform(40, 100, 30, rng)),
        ("mixed", random_mixed_rank(40, 90, 2, 4, &w, rng)),
        ("planted", planted_cover(40, 80, 3, 6, 9, rng).0),
        ("preferential", preferential_attachment(35, 80, 3, &w, rng)),
        ("calibrated", calibrated_degree(3, 6, 3, &w, rng)),
        ("geometric", geometric),
        ("star", star(12, 5, 2)),
        ("clique", clique(8)),
        ("path", path(12)),
        ("cycle", cycle(12)),
        ("sunflower", sunflower(6, 2, 3, 4, 1)),
        ("f-partite", complete_f_partite(3, 3)),
        ("hyper-star", hyper_star(3, 8, 7)),
        (
            "uniform-400",
            uniform(400, 1100, 100, &mut StdRng::seed_from_u64(0x3A97)),
        ),
    ]
}

/// The `random_delta` of `tests/warm_start.rs`: about 10% of the edges
/// removed, one to three inserted, up to three vertices re-weighted.
fn random_delta(g: &Hypergraph, rng: &mut StdRng) -> InstanceDelta {
    let n = g.n();
    let remove_edges = g
        .edges()
        .filter(|_| rng.gen_range(0u32..100) < 10)
        .collect();
    let rank = g.rank().max(2) as usize;
    let add_edges = (0..rng.gen_range(1usize..4))
        .map(|_| {
            let size = rng.gen_range(1..=rank.min(n));
            (0..size)
                .map(|_| VertexId::new(rng.gen_range(0..n)))
                .collect()
        })
        .collect();
    let mut touched = vec![false; n];
    let mut set_weights = Vec::new();
    for _ in 0..rng.gen_range(0usize..4) {
        let v = rng.gen_range(0..n);
        if !touched[v] {
            touched[v] = true;
            set_weights.push((VertexId::new(v), rng.gen_range(1u64..60)));
        }
    }
    InstanceDelta {
        remove_edges,
        add_edges,
        set_weights,
    }
}

/// A 1% revision, as perfbench's `warm_revisions` draws them: remove 1%
/// of the edges, insert as many rank-3 edges, re-weight 5 vertices.
fn churn_delta(g: &Hypergraph, rng: &mut StdRng) -> InstanceDelta {
    let churn = (g.m() / 100).max(1);
    let mut edges: Vec<usize> = (0..g.m()).collect();
    let mut vertices: Vec<usize> = (0..g.n()).collect();
    let remove_edges = edges
        .partial_shuffle(rng, churn)
        .0
        .iter()
        .map(|&e| EdgeId::new(e))
        .collect();
    let add_edges = (0..churn)
        .map(|_| {
            let members = vertices.partial_shuffle(rng, 3).0;
            members.iter().map(|&v| VertexId::new(v)).collect()
        })
        .collect();
    let set_weights = vertices
        .partial_shuffle(rng, 5)
        .0
        .iter()
        .map(|&v| (VertexId::new(v), rng.gen_range(1..=100u64)))
        .collect();
    InstanceDelta {
        remove_edges,
        add_edges,
        set_weights,
    }
}

fn solvers() -> impl Iterator<Item = (Variant, MwhvcSolver)> {
    [Variant::Standard, Variant::HalfBid]
        .into_iter()
        .map(|variant| {
            let config = MwhvcConfig::new(EPSILON).unwrap().with_variant(variant);
            (variant, MwhvcSolver::new(config))
        })
}

/// Runs `deltas` revisions from `base`, each seeded from the previous
/// result, checking both runs on every step and on an empty delta.
fn check_chain(
    solver: &MwhvcSolver,
    base: Hypergraph,
    label: &str,
    deltas: usize,
    mut delta: impl FnMut(&Hypergraph) -> InstanceDelta,
) {
    let cold = solver.solve(&base).unwrap();
    let same = InstanceDelta::empty().apply(&base).unwrap();
    let empty = WarmState::for_delta(&cold, &same);
    check(solver, &same.graph, &empty, &format!("{label} empty delta"));
    let (mut g, mut prev) = (base, cold);
    for step in 0..deltas {
        let out = delta(&g).apply(&g).unwrap();
        let warm = WarmState::for_delta(&prev, &out);
        prev = check(solver, &out.graph, &warm, &format!("{label} step {step}"));
        g = out.graph;
    }
}

#[test]
fn localized_warm_runs_match_the_whole_network_on_every_family_stream() {
    for (variant, solver) in solvers() {
        let mut rng = StdRng::seed_from_u64(0x3A17);
        for (family, base) in family_instances(&mut rng) {
            let label = format!("{variant:?} {family}");
            check_chain(&solver, base, &label, DELTAS_PER_FAMILY, |g| {
                random_delta(g, &mut rng)
            });
        }
    }
}

#[test]
fn localized_warm_runs_match_the_whole_network_on_a_one_percent_churn_chain() {
    let base = random_uniform(
        &RandomUniform {
            n: 2000,
            m: 6000,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 100 },
        },
        &mut StdRng::seed_from_u64(9),
    );
    for (variant, solver) in solvers() {
        let mut rng = StdRng::seed_from_u64(0x0C4A_0009);
        let label = format!("{variant:?} uniform-2000");
        check_chain(&solver, base.clone(), &label, 4, |g| {
            churn_delta(g, &mut rng)
        });
    }
}
