//! Proves every serving path is **zero-copy**: submitting an instance to
//! the solve service — shared, or borrowed from a slice — never copies
//! the hypergraph payload.
//!
//! `dcover_hypergraph::clone_count()` counts every deep `Hypergraph`
//! payload copy process-wide. Since the CSR payload moved behind a shared
//! allocation, `Hypergraph::clone` itself is a refcount bump, which is
//! what lets a borrowed instance reach the service as a fresh `Arc` at
//! **0** copies. The counter is global, so this file holds exactly one
//! test: the no-copy window must not race with other tests that
//! legitimately deep-copy.

use std::sync::Arc;

use dcover_core::{MwhvcConfig, MwhvcSolver, SolveService, SubmitOptions};
use dcover_hypergraph::clone_count;
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn arc_submission_paths_never_clone_the_instance_payload() {
    let mut rng = StdRng::seed_from_u64(4242);
    let g = Arc::new(random_uniform(
        &RandomUniform {
            n: 60,
            m: 140,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 30 },
        },
        &mut rng,
    ));
    let reference = MwhvcSolver::with_epsilon(0.5)
        .unwrap()
        .solve(&g)
        .expect("reference solve");

    // --- SolveService::submit / try_submit_with: zero deep clones. ---
    let service = SolveService::new(MwhvcConfig::new(0.5).unwrap(), 4);
    let before = clone_count();
    let tickets: Vec<_> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                service.submit(Arc::clone(&g), 0.5).unwrap()
            } else {
                service
                    .try_submit_with(&g, 0.5, SubmitOptions::default())
                    .unwrap()
            }
        })
        .collect();
    for t in tickets {
        let r = t.wait().unwrap();
        assert_eq!(r.cover, reference.cover);
        assert_eq!(r.duals, reference.duals);
    }
    assert_eq!(
        clone_count() - before,
        0,
        "service submission deep-cloned an Arc'd instance"
    );

    // --- The caller's shared handles, submitted and redeemed in input
    // order (the `dcover batch` shape): zero deep clones. ---
    let batch_service = SolveService::new(MwhvcConfig::new(0.5).unwrap(), 4);
    let shared: Vec<Arc<dcover_hypergraph::Hypergraph>> = (0..8).map(|_| Arc::clone(&g)).collect();
    let before = clone_count();
    let tickets: Vec<_> = shared
        .iter()
        .map(|g| batch_service.submit(Arc::clone(g), 0.5).unwrap())
        .collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap().cover, reference.cover);
    }
    assert_eq!(
        clone_count() - before,
        0,
        "in-order submission deep-cloned an Arc'd instance"
    );
    drop(shared);
    drop(service);
    drop(batch_service);

    // Every Arc handle the serving layers took has been released: the
    // caller's handle is the only one left (no hidden retained copies —
    // including the service's delta result cache, which dies with it).
    assert_eq!(Arc::strong_count(&g), 1);

    // A borrowed instance is zero-copy too: it reaches the service as a
    // fresh shared handle around the same payload.
    let slice_service = SolveService::new(MwhvcConfig::new(0.5).unwrap(), 2);
    let slice = [Arc::try_unwrap(g).expect("sole owner")];
    let before = clone_count();
    let ticket = slice_service
        .submit(Arc::new(slice[0].clone()), 0.5)
        .unwrap();
    assert!(ticket.wait().is_ok());
    assert_eq!(
        clone_count() - before,
        0,
        "the slice path no longer copies instance payloads"
    );

    // Deep copies still exist — but only on explicit request.
    let before = clone_count();
    let copy = slice[0].deep_clone();
    assert_eq!(clone_count() - before, 1);
    assert_eq!(copy, slice[0]);
}
