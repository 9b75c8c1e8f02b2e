//! Shared fixtures for the integration tests: one small seeded instance per
//! generator family (random uniform at three ranks), built from one fixed
//! seed so every suite that uses it sees the same hypergraphs.

use distributed_covering::hypergraph::generators::{
    calibrated_degree, coverage_instance, planted_cover, preferential_attachment,
    random_mixed_rank, random_uniform, structured, RandomUniform, WeightDist,
};
use distributed_covering::hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The labelled instances, in a fixed order.
pub(crate) fn instances() -> Vec<(String, Hypergraph)> {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let mut out = Vec::new();
    for (i, rank) in [2usize, 3, 5].iter().enumerate() {
        let g = random_uniform(
            &RandomUniform {
                n: 40 + 20 * i,
                m: 90 + 40 * i,
                rank: *rank,
                weights: WeightDist::Uniform { min: 1, max: 100 },
            },
            &mut rng,
        );
        out.push((format!("random_uniform_f{rank}"), g));
    }
    out.push((
        "random_mixed_rank".into(),
        random_mixed_rank(
            60,
            120,
            1,
            6,
            &WeightDist::PowersOfTwo { max: 4096 },
            &mut rng,
        ),
    ));
    out.push((
        "planted_cover".into(),
        planted_cover(50, 110, 3, 8, 40, &mut rng).0,
    ));
    out.push((
        "preferential_attachment".into(),
        preferential_attachment(
            48,
            100,
            3,
            &WeightDist::Uniform { min: 1, max: 50 },
            &mut rng,
        ),
    ));
    out.push((
        "calibrated_degree".into(),
        calibrated_degree(3, 7, 4, &WeightDist::Uniform { min: 1, max: 20 }, &mut rng),
    ));
    out.push((
        "geometric_coverage".into(),
        coverage_instance(
            40,
            24,
            0.22,
            4,
            &WeightDist::Uniform { min: 1, max: 30 },
            &mut rng,
        )
        .system
        .to_hypergraph()
        .expect("coverage instances are valid"),
    ));
    out.push(("structured_star".into(), structured::star(20, 100, 3)));
    out.push(("structured_clique".into(), structured::clique(11)));
    out.push(("structured_path".into(), structured::path(30)));
    out.push(("structured_cycle".into(), structured::cycle(28)));
    out.push((
        "structured_sunflower".into(),
        structured::sunflower(9, 2, 4, 3, 1),
    ));
    out.push((
        "structured_f_partite".into(),
        structured::complete_f_partite(3, 5),
    ));
    out.push((
        "structured_hyper_star".into(),
        structured::hyper_star(3, 9, 50),
    ));
    out
}
