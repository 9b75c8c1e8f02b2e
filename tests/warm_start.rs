//! End-to-end warm-start equivalence over **every generator family**: for
//! each family, a mutation stream of ≥ 8 deltas is re-solved warm
//! (each revision seeded from the previous revision's result, exactly the
//! incremental serving shape) and every warm result must
//!
//! * pass [`Certificate::verify`] — coverage, dual feasibility,
//!   β-tightness — against its own revision, and
//! * respect the `(f + ε)` approximation bound `w(C) ≤ (f+ε)·Σδ`,
//!
//! while a warm solve with an **empty** delta must be bit-identical to
//! re-solving the unchanged instance cold (cover, duals, levels, weight,
//! dual total), and a 1% revision must spend messages, and node steps,
//! only where its delta lands.

use dcover_core::{
    approximation_holds, Certificate, MwhvcConfig, MwhvcSolver, WarmState, DEFAULT_TOLERANCE,
};
use dcover_hypergraph::generators::{
    calibrated_degree, clique, complete_f_partite, coverage_instance, cycle, hyper_star, path,
    planted_cover, preferential_attachment, random_mixed_rank, random_uniform, star, sunflower,
    RandomUniform, WeightDist,
};
use dcover_hypergraph::{EdgeId, Hypergraph, InstanceDelta, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const EPSILON: f64 = 0.5;
const DELTAS_PER_FAMILY: usize = 8;

/// One instance per `dcover gen` family (small enough to keep the stream
/// fast, structured enough to exercise each family's shape), then one
/// larger uniform instance, drawn from its own seed so that it does not
/// shift the draws of the others.
fn family_instances(rng: &mut StdRng) -> Vec<(&'static str, Hypergraph)> {
    let w = WeightDist::Uniform { min: 1, max: 30 };
    vec![
        (
            "uniform",
            random_uniform(
                &RandomUniform {
                    n: 40,
                    m: 100,
                    rank: 3,
                    weights: w.clone(),
                },
                rng,
            ),
        ),
        ("mixed", random_mixed_rank(40, 90, 2, 4, &w, rng)),
        ("planted", planted_cover(40, 80, 3, 6, 9, rng).0),
        ("preferential", preferential_attachment(35, 80, 3, &w, rng)),
        ("calibrated", calibrated_degree(3, 6, 3, &w, rng)),
        (
            "geometric",
            coverage_instance(40, 12, 0.35, 4, &w, rng)
                .system
                .to_hypergraph()
                .expect("coverable instance"),
        ),
        ("star", star(12, 5, 2)),
        ("clique", clique(8)),
        ("path", path(12)),
        ("cycle", cycle(12)),
        ("sunflower", sunflower(6, 2, 3, 4, 1)),
        ("f-partite", complete_f_partite(3, 3)),
        ("hyper-star", hyper_star(3, 8, 7)),
        (
            "uniform-400",
            random_uniform(
                &RandomUniform {
                    n: 400,
                    m: 1100,
                    rank: 3,
                    weights: WeightDist::Uniform { min: 1, max: 100 },
                },
                &mut StdRng::seed_from_u64(0x3A97),
            ),
        ),
    ]
}

/// A small random revision of `g`: remove up to ~15% of edges, insert a
/// few random hyperedges, re-weight a few vertices.
fn random_delta(g: &Hypergraph, rng: &mut StdRng) -> InstanceDelta {
    let n = g.n();
    let remove_edges: Vec<EdgeId> = g
        .edges()
        .filter(|_| rng.gen_range(0u32..100) < 10)
        .collect();
    let rank = g.rank().max(2) as usize;
    let add_edges: Vec<Vec<VertexId>> = (0..rng.gen_range(1usize..4))
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

#[test]
fn mutation_streams_stay_certified_across_every_family() {
    let mut rng = StdRng::seed_from_u64(0x3A17);
    let solver = MwhvcSolver::with_epsilon(EPSILON).unwrap();
    for (family, base) in family_instances(&mut rng) {
        let mut g = base;
        let mut prev = solver
            .solve(&g)
            .unwrap_or_else(|e| panic!("{family}: cold solve failed: {e}"));
        for step in 0..DELTAS_PER_FAMILY {
            let delta = random_delta(&g, &mut rng);
            let out = delta
                .apply(&g)
                .unwrap_or_else(|e| panic!("{family} step {step}: delta failed: {e}"));
            let warm_state = WarmState::for_delta(&prev, &out);
            let warm = solver
                .solve_warm(&out.graph, &warm_state)
                .unwrap_or_else(|e| panic!("{family} step {step}: warm solve failed: {e}"));

            // Correctness is proven from first principles on every step.
            assert!(
                warm.cover.is_cover_of(&out.graph),
                "{family} step {step}: not a cover"
            );
            let cert = Certificate::from_result(&warm, EPSILON);
            let bound = cert
                .verify(&out.graph)
                .unwrap_or_else(|e| panic!("{family} step {step}: certificate failed: {e}"));
            let guarantee = out.graph.rank().max(1) as f64 + EPSILON;
            assert!(
                bound <= guarantee * (1.0 + DEFAULT_TOLERANCE),
                "{family} step {step}: ratio bound {bound} > {guarantee}"
            );
            assert!(
                approximation_holds(
                    &out.graph,
                    warm.weight,
                    warm.dual_total,
                    EPSILON,
                    DEFAULT_TOLERANCE
                ),
                "{family} step {step}: w(C) = {} violates (f+eps)·Σδ = {}",
                warm.weight,
                guarantee * warm.dual_total
            );

            g = out.graph;
            prev = warm;
        }
    }
}

#[test]
fn empty_delta_warm_solve_is_bit_identical_to_cold_across_every_family() {
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let solver = MwhvcSolver::with_epsilon(EPSILON).unwrap();
    for (family, g) in family_instances(&mut rng) {
        let cold = solver.solve(&g).unwrap();

        // Through the delta machinery, exactly as the service does it.
        let out = InstanceDelta::empty().apply(&g).unwrap();
        assert_eq!(out.graph, g, "{family}: empty delta changes nothing");
        let warm = solver
            .solve_warm(&out.graph, &WarmState::for_delta(&cold, &out))
            .unwrap();
        assert_eq!(warm.cover, cold.cover, "{family}: cover");
        assert_eq!(warm.duals, cold.duals, "{family}: duals");
        assert_eq!(warm.levels, cold.levels, "{family}: levels");
        assert_eq!(warm.weight, cold.weight, "{family}: weight");
        assert_eq!(warm.dual_total, cold.dual_total, "{family}: dual total");

        // And through the same-instance path.
        let warm = solver
            .solve_warm(&g, &WarmState::from_result(&cold))
            .unwrap();
        assert_eq!(warm.cover, cold.cover, "{family}: cover (from_result)");
        assert_eq!(warm.duals, cold.duals, "{family}: duals (from_result)");
        assert_eq!(warm.levels, cold.levels, "{family}: levels (from_result)");

        // Previous cover members are still tight and cover every edge, so
        // every node settles before the run: one round, no messages.
        assert_eq!(warm.rounds(), 1, "{family}: unchanged-instance rounds");
        assert_eq!(
            warm.report.total_messages, 0,
            "{family}: unchanged-instance messages"
        );
    }
}

/// A 1% revision, as perfbench's `warm_revisions` draws them: remove 1% of
/// the edges, insert as many rank-3 edges, re-weight 5 vertices.
fn one_percent_revision(g: &Hypergraph, rng: &mut StdRng) -> InstanceDelta {
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

#[test]
fn one_percent_revisions_send_a_fraction_of_a_cold_solves_messages() {
    // `dcover gen uniform --n 2000 --m 6000 --seed 9`.
    let mut g = random_uniform(
        &RandomUniform {
            n: 2000,
            m: 6000,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 100 },
        },
        &mut StdRng::seed_from_u64(9),
    );
    let solver = MwhvcSolver::with_epsilon(EPSILON).unwrap();
    let mut prev = solver.solve(&g).unwrap();
    let mut rng = StdRng::seed_from_u64(0x1C4A);
    for step in 0..4 {
        let out = one_percent_revision(&g, &mut rng).apply(&g).unwrap();
        let warm = solver
            .solve_warm(&out.graph, &WarmState::for_delta(&prev, &out))
            .unwrap();
        let cold = solver.solve(&out.graph).unwrap();
        let (warm_msgs, cold_msgs) = (warm.report.total_messages, cold.report.total_messages);
        assert!(
            warm_msgs * 100 <= cold_msgs * 15,
            "step {step}: a warm 1% revision sent {warm_msgs} messages, over 15% of the \
             cold solve's {cold_msgs}"
        );
        g = out.graph;
        prev = warm;
    }
}

#[test]
fn one_percent_revisions_step_only_the_running_sub_network() {
    // `dcover gen uniform --n 2000 --m 6000 --seed 9`.
    let mut g = random_uniform(
        &RandomUniform {
            n: 2000,
            m: 6000,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 100 },
        },
        &mut StdRng::seed_from_u64(9),
    );
    let solver = MwhvcSolver::new(MwhvcConfig::new(EPSILON).unwrap().with_trace(true));
    let mut prev = solver.solve(&g).unwrap();
    let mut rng = StdRng::seed_from_u64(0x1C4A);
    for step in 0..4 {
        let out = one_percent_revision(&g, &mut rng).apply(&g).unwrap();
        let warm = solver
            .solve_warm(&out.graph, &WarmState::for_delta(&prev, &out))
            .unwrap();
        let network = out.graph.n() + out.graph.m();
        let per_round = warm.report.per_round.as_ref().expect("traced run");
        let running = per_round[0].active_nodes;
        assert!(
            running * 10 <= network,
            "step {step}: round 0 stepped {running} of {network} nodes, over 10%"
        );
        g = out.graph;
        prev = warm;
    }
}
