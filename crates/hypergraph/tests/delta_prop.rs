//! Property tests for [`InstanceDelta`]: random deltas against random
//! instances, checking the edge-id mapping invariants and that a delta
//! followed by its inverse round-trips the instance.

use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use dcover_hypergraph::{clone_count, EdgeId, Hypergraph, InstanceDelta, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_instance(rng: &mut StdRng, trial: usize) -> Hypergraph {
    random_uniform(
        &RandomUniform {
            n: 10 + trial % 37,
            m: 5 + (trial * 7) % 60,
            rank: 2 + trial % 3,
            weights: WeightDist::Uniform { min: 1, max: 50 },
        },
        rng,
    )
}

fn random_delta(g: &Hypergraph, rng: &mut StdRng) -> InstanceDelta {
    let m = g.m();
    let n = g.n();
    // A random subset of edges to remove (unique by construction).
    let remove_edges: Vec<EdgeId> = g
        .edges()
        .filter(|_| rng.gen_range(0u32..100) < 15)
        .collect();
    let add_edges: Vec<Vec<VertexId>> = (0..rng.gen_range(0usize..4))
        .map(|_| {
            let size = rng.gen_range(1usize..=3.min(n));
            (0..size)
                .map(|_| VertexId::new(rng.gen_range(0..n)))
                .collect()
        })
        .collect();
    let mut reweighted = vec![false; n];
    let mut set_weights = Vec::new();
    for _ in 0..rng.gen_range(0usize..4) {
        let v = rng.gen_range(0..n);
        if !reweighted[v] {
            reweighted[v] = true;
            set_weights.push((VertexId::new(v), rng.gen_range(1u64..100)));
        }
    }
    let _ = m;
    InstanceDelta {
        remove_edges,
        add_edges,
        set_weights,
    }
}

/// Edge multiset with member order preserved (apply keeps member lists
/// verbatim), sorted so edge *order* is canonicalized.
fn canonical_edges(g: &Hypergraph) -> Vec<Vec<usize>> {
    let mut edges: Vec<Vec<usize>> = g
        .edges()
        .map(|e| g.edge(e).iter().map(|v| v.index()).collect())
        .collect();
    edges.sort();
    edges
}

#[test]
fn apply_then_inverse_round_trips_the_instance() {
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    for trial in 0..120 {
        let g = random_instance(&mut rng, trial);
        let delta = random_delta(&g, &mut rng);
        let out = delta.apply(&g).expect("random deltas are valid");
        let inverse = delta.inverse(&g, &out);
        let back = inverse.apply(&out.graph).expect("inverse applies");
        assert_eq!(back.graph.weights(), g.weights(), "trial {trial}: weights");
        assert_eq!(
            canonical_edges(&back.graph),
            canonical_edges(&g),
            "trial {trial}: edge multiset"
        );
        assert_eq!(back.graph.n(), g.n(), "trial {trial}: vertex count");
    }
}

#[test]
fn mapping_is_a_bijection_on_surviving_edges() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for trial in 0..120 {
        let g = random_instance(&mut rng, trial);
        let delta = random_delta(&g, &mut rng);
        let out = delta.apply(&g).expect("random deltas are valid");
        assert_eq!(out.predecessor.len(), out.graph.m(), "trial {trial}");
        assert_eq!(out.survivor.len(), g.m(), "trial {trial}");
        // survivor and predecessor are mutually inverse partial maps, and
        // surviving edges carry their member lists over verbatim.
        for old in g.edges() {
            match out.survivor[old.index()] {
                Some(new) => {
                    assert_eq!(out.predecessor[new.index()], Some(old), "trial {trial}");
                    assert_eq!(out.graph.edge(new), g.edge(old), "trial {trial}");
                }
                None => assert!(
                    delta.remove_edges.contains(&old),
                    "trial {trial}: only removed edges vanish"
                ),
            }
        }
        let survivors = out.predecessor.iter().filter(|p| p.is_some()).count();
        assert_eq!(
            survivors,
            g.m() - delta.remove_edges.len(),
            "trial {trial}: survivor count"
        );
        // Inserted edges are exactly the tail.
        for (i, p) in out.predecessor.iter().enumerate() {
            assert_eq!(p.is_none(), i >= survivors, "trial {trial}: tail layout");
        }
    }
}

#[test]
fn empty_delta_produces_an_equal_instance_without_copying() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = random_instance(&mut rng, 3);
    let out = InstanceDelta::empty().apply(&g).expect("empty delta");
    assert_eq!(out.graph, g);
    for e in g.edges() {
        assert_eq!(out.survivor[e.index()], Some(e));
        assert_eq!(out.predecessor[e.index()], Some(e));
    }
}

#[test]
fn apply_copies_no_instance_payload() {
    let mut rng = StdRng::seed_from_u64(0xC0B1);
    for trial in 0..60 {
        let g = random_instance(&mut rng, trial);
        let delta = if trial % 4 == 0 {
            InstanceDelta::empty()
        } else {
            random_delta(&g, &mut rng)
        };
        let before = clone_count();
        let out = delta.apply(&g).expect("random deltas are valid");
        assert_eq!(clone_count(), before, "trial {trial}: apply deep-copied");
        drop(out);
    }
}
