use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::builders::ring;
use crate::{BitBudget, Ctx, PartitionPolicy, Process, SimError, Simulator, Status, Topology};

/// Gossip sum: every node floods its value; everyone halts after
/// `hops` rounds knowing the sum over its distance-`hops` ball.
#[derive(Clone)]
struct Gossip {
    value: u64,
    acc: u64,
    hops: u64,
}

impl Process for Gossip {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        for item in ctx.inbox() {
            self.acc += item.msg;
        }
        if ctx.round() < self.hops {
            ctx.broadcast(self.value + ctx.round());
            Status::Running
        } else {
            Status::Halted
        }
    }
}

/// A split into `threads` chunks.
fn split<P: Process>(topo: Topology, nodes: Vec<P>, threads: usize) -> Simulator<P> {
    Simulator::with_partition(topo, nodes, threads, PartitionPolicy::Contiguous)
}

#[test]
fn parallel_matches_sequential() {
    let n = 23;
    let make_nodes = || -> Vec<Gossip> {
        (0..n)
            .map(|i| Gossip {
                value: (i * i) as u64 % 97,
                acc: 0,
                hops: 6,
            })
            .collect()
    };
    let mut seq = Simulator::new(ring(n), make_nodes()).with_trace(true);
    let seq_report = seq.run(100).unwrap();
    for threads in [1usize, 2, 3, 7] {
        let mut par = split(ring(n), make_nodes(), threads).with_trace(true);
        let par_report = par.run(100).unwrap();
        assert_eq!(par_report, seq_report, "threads = {threads}");
        for id in 0..n {
            assert_eq!(par.node(id).acc, seq.node(id).acc, "node {id}");
        }
    }
}

#[test]
fn budget_enforced_in_parallel() {
    struct Big;
    impl Process for Big {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            ctx.broadcast(u64::MAX);
            Status::Halted
        }
    }
    let mut sim = split(ring(4), vec![Big, Big, Big, Big], 2).with_budget(BitBudget::new(16));
    assert!(matches!(
        sim.run(10),
        Err(SimError::BudgetExceeded { bits: 64, .. })
    ));
}

#[test]
fn round_limit_in_parallel() {
    struct Spin;
    impl Process for Spin {
        type Msg = ();
        fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Status {
            Status::Running
        }
    }
    let mut sim = split(ring(3), vec![Spin, Spin, Spin], 2);
    assert!(matches!(
        sim.run(4),
        Err(SimError::RoundLimit { limit: 4, .. })
    ));
}

#[test]
fn cancel_interrupts_parallel_run_and_pool_survives() {
    use crate::{CancelToken, Interrupt, InterruptReason};
    struct Spin;
    impl Process for Spin {
        type Msg = ();
        fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Status {
            Status::Running
        }
    }
    let token = CancelToken::new();
    token.cancel();
    let mut sim = split(ring(3), vec![Spin, Spin, Spin], 2)
        .with_interrupt(Interrupt::new().with_token(token));
    let err = sim.run(1_000_000).unwrap_err();
    assert_eq!(
        err,
        SimError::Interrupted {
            reason: InterruptReason::Cancelled,
            round: 0,
            active: 3
        }
    );
    // The interrupt lands between rounds, so the chunks are home and
    // every node program is still recoverable.
    let (nodes, report) = sim.into_parts();
    assert_eq!(nodes.len(), 3);
    assert!(!report.all_halted);
}

#[test]
fn more_threads_than_nodes() {
    let n = 3;
    let nodes: Vec<Gossip> = (0..n)
        .map(|i| Gossip {
            value: i as u64,
            acc: 0,
            hops: 2,
        })
        .collect();
    let mut sim = split(ring(n), nodes, 16);
    assert_eq!(sim.workers(), 3);
    let report = sim.run(10).unwrap();
    assert!(report.all_halted);
}

#[test]
fn big_pool_small_instance_uses_prefix_of_workers() {
    let n = 3;
    let nodes: Vec<Gossip> = (0..n)
        .map(|i| Gossip {
            value: i as u64,
            acc: 0,
            hops: 2,
        })
        .collect();
    let mut sim = split(ring(n), nodes, 8);
    assert_eq!(sim.workers(), 3);
    let report = sim.run(10).unwrap();
    assert!(report.all_halted);
}

#[test]
fn pool_threads_persist_across_rounds() {
    // Many rounds on a tiny instance: if threads were spawned per round
    // this would be very slow; mostly this pins the worker lifecycle
    // (drop after run, node access between steps).
    let n = 8;
    let nodes: Vec<Gossip> = (0..n)
        .map(|i| Gossip {
            value: i as u64,
            acc: 0,
            hops: 200,
        })
        .collect();
    let mut sim = split(ring(n), nodes, 4);
    for _ in 0..100 {
        sim.step().unwrap();
    }
    assert_eq!(sim.active_nodes(), n);
    assert!(sim.node(3).acc > 0);
    let report = sim.run(300).unwrap();
    assert!(report.all_halted);
    assert_eq!(report.rounds, 201);
}

/// A node-program panic must surface as a panic on the caller's thread —
/// not a deadlock — whichever chunk the node is in, and dropping the
/// poisoned simulator afterwards must return: every worker joined, none
/// blocked on a reply that nobody reads.
#[test]
fn worker_panic_propagates_to_scheduler() {
    struct Bomb {
        at: usize,
    }
    impl Process for Bomb {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.node() == self.at {
                let thread = std::thread::current();
                panic!("boom at node {} on {:?}", self.at, thread.name());
            }
            ctx.broadcast(1);
            Status::Running
        }
    }
    // Four chunks of ring(9): node 0 is in chunk 0, stepped on this thread
    // while the other chunks are out at their workers; node 5 is in a
    // middle chunk and node 8 in the last.
    let caller = std::thread::current();
    for (at, thread) in [
        (0, caller.name()),
        (5, Some("congest-chunk-2")),
        (8, Some("congest-chunk-3")),
    ] {
        let nodes = (0..9).map(|_| Bomb { at }).collect();
        let mut sim = split(ring(9), nodes, 4);
        let err =
            catch_unwind(AssertUnwindSafe(|| sim.step())).expect_err("step must panic, not hang");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains(&format!("boom at node {at} on {thread:?}")),
            "got: {msg}"
        );
        drop(sim);
    }
}

/// The duplicate same-port-send violation is detected at delivery on a
/// worker; it must reach the caller as a typed error, like on one chunk.
#[test]
fn duplicate_send_is_error_in_parallel_too() {
    struct Double;
    impl Process for Double {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                ctx.send(0, 1);
                ctx.send(0, 2);
                Status::Running
            } else {
                Status::Halted
            }
        }
    }
    let nodes = (0..6).map(|_| Double).collect();
    let mut sim = split(ring(6), nodes, 3);
    let err = sim.run(10).unwrap_err();
    assert!(
        matches!(err, SimError::DuplicateSend { round: 0, .. }),
        "got {err:?}"
    );
}

/// A duplicate send in the last round *before the limit* must surface
/// as DuplicateSend, not be masked by RoundLimit.
#[test]
fn duplicate_send_in_final_round_beats_round_limit() {
    struct Double;
    impl Process for Double {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                ctx.send(0, 1);
                ctx.send(0, 2);
            }
            Status::Running
        }
    }
    let nodes = (0..6).map(|_| Double).collect();
    let mut sim = split(ring(6), nodes, 3);
    let err = sim.run(1).unwrap_err();
    assert!(
        matches!(err, SimError::DuplicateSend { round: 0, .. }),
        "got {err:?}"
    );
}

/// Duplicates addressed to *halted* receivers are dropped without an
/// error at every chunk count (the halted check precedes the duplicate
/// check at delivery), so a run where everyone double-sends and
/// immediately halts is clean.
#[test]
fn duplicate_send_to_halted_receivers_is_dropped_in_both_schedulers() {
    #[derive(Clone)]
    struct DoubleAndQuit;
    impl Process for DoubleAndQuit {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            ctx.send(0, 1);
            ctx.send(0, 2);
            Status::Halted
        }
    }
    let mut seq = Simulator::new(ring(5), vec![DoubleAndQuit; 5]);
    let seq_report = seq.run(10).unwrap();
    let mut par = split(ring(5), vec![DoubleAndQuit; 5], 2);
    let par_report = par.run(10).unwrap();
    assert_eq!(par_report, seq_report);
    assert!(par_report.all_halted);
}

/// The protocol violation [`Faulty`] commits in round 0.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Node 4 sends twice over its port 0.
    Duplicate,
    /// Node 7 sends a 64-bit value on each port.
    Oversized,
    /// Both.
    Both,
}

/// Sends 1 on every port for three rounds, plus its [`Fault`] in round 0.
#[derive(Clone)]
struct Faulty {
    fault: Fault,
}

impl Process for Faulty {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        if ctx.round() == 3 {
            return Status::Halted;
        }
        let first = ctx.round() == 0;
        let duplicate = matches!(self.fault, Fault::Duplicate | Fault::Both);
        let oversized = matches!(self.fault, Fault::Oversized | Fault::Both);
        let value = if first && oversized && ctx.node() == 7 {
            u64::MAX
        } else {
            1
        };
        ctx.broadcast(value);
        if first && duplicate && ctx.node() == 4 {
            ctx.send(0, 2);
        }
        Status::Running
    }
}

/// Every chunk count reports the same first error, from the same
/// `step()`: delivery is part of the round that sent the mail, and
/// delivery errors are checked before the budget.
#[test]
fn the_first_error_is_the_same_at_every_chunk_count() {
    fn first_error(fault: Fault, threads: usize) -> (u64, SimError) {
        let nodes = vec![Faulty { fault }; 9];
        let mut sim = split(ring(9), nodes, threads).with_budget(BitBudget::new(16));
        for step in 1..=5 {
            if let Err(err) = sim.step() {
                return (step, err);
            }
        }
        panic!("{fault:?} went unreported at {threads} chunks");
    }
    // Node 4's port 0 leads to node 3's port 1.
    let duplicate = SimError::DuplicateSend {
        round: 0,
        receiver: 3,
        port: 1,
    };
    for fault in [Fault::Duplicate, Fault::Oversized, Fault::Both] {
        let expected = first_error(fault, 1);
        assert_eq!(
            expected.0, 1,
            "{fault:?} is reported by the round that sent it"
        );
        match fault {
            Fault::Duplicate | Fault::Both => assert_eq!(expected.1, duplicate),
            Fault::Oversized => assert!(
                matches!(
                    expected.1,
                    SimError::BudgetExceeded {
                        round: 0,
                        bits: 64,
                        ..
                    }
                ),
                "got {:?}",
                expected.1
            ),
        }
        for threads in [1, 2, 3] {
            assert_eq!(
                first_error(fault, threads),
                expected,
                "{fault:?} at {threads} chunks"
            );
        }
    }
}

/// Chunks hold a range of each side of a two-sided network, so the
/// programs go out to the chunks and come back in id order: `node(id)`
/// and `into_parts` must both see id order, on a ring and on a bipartite
/// incidence, whose chunks interleave its vertices and hyperedges.
#[test]
fn into_parts_concatenates_in_id_order() {
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let g = random_uniform(
        &RandomUniform {
            n: 30,
            m: 45,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 9 },
        },
        &mut StdRng::seed_from_u64(7),
    );
    for topo in [ring(11), Topology::bipartite_incidence(&g)] {
        let n = topo.len();
        for threads in [1, 2, 3, 4] {
            let nodes: Vec<Gossip> = (0..n)
                .map(|i| Gossip {
                    value: i as u64 * 10,
                    acc: 0,
                    hops: 1,
                })
                .collect();
            let mut sim = split(topo.clone(), nodes, threads);
            sim.run(10).unwrap();
            for id in 0..n {
                assert_eq!(sim.node(id).value, id as u64 * 10, "node({id})");
            }
            let (nodes, report) = sim.into_parts();
            assert!(report.all_halted);
            assert_eq!(nodes.len(), n);
            for (i, node) in nodes.iter().enumerate() {
                assert_eq!(node.value, i as u64 * 10, "into_parts order");
            }
        }
    }
}
