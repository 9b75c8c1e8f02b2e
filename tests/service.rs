//! End-to-end tests of the asynchronous serving stack through its public
//! API: `SolveService` submission/backpressure/shutdown semantics, and
//! served results bit-identical to per-instance solves across
//! configurations, workload families and repeated rounds on one service.
//!
//! (Deterministic queue-state tests — gated workers, panic injection —
//! live in `crates/core/src/{service,pool}.rs`, where a test-only hook
//! runs before a solve; these tests use the public API only.)

use std::sync::Arc;
use std::time::Duration;

use dcover_core::{
    CoverResult, MwhvcConfig, MwhvcSolver, RequestClass, SolveError, SolveService, SubmitError,
    SubmitOptions, Ticket, Variant,
};
use dcover_hypergraph::generators::{
    random_mixed_rank, random_uniform, structured, RandomUniform, WeightDist,
};
use dcover_hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mixed_instances(count: usize, seed: u64) -> Vec<Arc<Hypergraph>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            Arc::new(random_uniform(
                &RandomUniform {
                    n: 20 + (i * 13) % 60,
                    m: 40 + (i * 29) % 120,
                    rank: 2 + i % 3,
                    weights: WeightDist::Uniform {
                        min: 1,
                        max: 4 + (i as u64 * 7) % 40,
                    },
                },
                &mut rng,
            ))
        })
        .collect()
}

/// A mixed serving workload: uniform and mixed-rank random instances of
/// varying size, plus structured extremal shapes.
fn workload(count: usize, seed: u64) -> Vec<Arc<Hypergraph>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            Arc::new(match i % 4 {
                0 | 1 => random_uniform(
                    &RandomUniform {
                        n: 20 + (i * 11) % 60,
                        m: 30 + (i * 17) % 120,
                        rank: 2 + i % 3,
                        weights: WeightDist::Uniform {
                            min: 1,
                            max: 4 + (i as u64 * 3) % 40,
                        },
                    },
                    &mut rng,
                ),
                2 => random_mixed_rank(
                    15 + (i * 7) % 35,
                    25 + (i * 5) % 50,
                    1,
                    4,
                    &WeightDist::Uniform { min: 1, max: 9 },
                    &mut rng,
                ),
                _ => {
                    if rng.gen_bool(0.5) {
                        structured::star(6 + i % 20, 3, 1 + (i as u64 % 5))
                    } else {
                        structured::cycle(5 + i % 25)
                    }
                }
            })
        })
        .collect()
}

fn assert_bit_identical(a: &CoverResult, b: &CoverResult, ctx: &str) {
    assert_eq!(a.cover, b.cover, "{ctx}: covers differ");
    assert_eq!(a.duals, b.duals, "{ctx}: duals differ");
    assert_eq!(a.levels, b.levels, "{ctx}: levels differ");
    assert_eq!(a.weight, b.weight, "{ctx}: weights differ");
    assert_eq!(
        a.dual_total.to_bits(),
        b.dual_total.to_bits(),
        "{ctx}: dual totals differ"
    );
    assert_eq!(a.iterations, b.iterations, "{ctx}: iteration counts differ");
    assert_eq!(a.report, b.report, "{ctx}: reports differ");
}

/// Submits every instance up front (the blocking submit absorbs queue
/// overflow), then redeems the tickets in submission order.
fn serve_in_order(
    service: &SolveService,
    instances: &[Arc<Hypergraph>],
    eps: f64,
) -> Vec<CoverResult> {
    let tickets: Vec<_> = instances
        .iter()
        .map(|g| service.submit(Arc::clone(g), eps).unwrap())
        .collect();
    tickets
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            t.wait()
                .unwrap_or_else(|e| panic!("instance {i} failed: {e}"))
        })
        .collect()
}

#[test]
fn streamed_submissions_are_bit_identical_to_sequential_solves() {
    let instances = mixed_instances(24, 1);
    let service = SolveService::new(MwhvcConfig::new(0.5).unwrap(), 4);
    let solver = MwhvcSolver::with_epsilon(0.5).unwrap();
    // Submit everything up front (queue capacity 16 < 24: the blocking
    // submit absorbs the overflow), then redeem in submission order.
    let tickets: Vec<_> = instances
        .iter()
        .map(|g| service.submit(Arc::clone(g), 0.5).unwrap())
        .collect();
    for (i, (g, t)) in instances.iter().zip(tickets).enumerate() {
        assert_eq!(t.seq(), i as u64, "arrival-order sequence ids");
        let served = t.wait().unwrap();
        let solo = solver.solve(g).unwrap();
        assert_eq!(served.cover, solo.cover, "instance {i}");
        assert_eq!(served.duals, solo.duals, "instance {i}");
        assert_eq!(served.levels, solo.levels, "instance {i}");
        assert_eq!(served.report, solo.report, "instance {i}");
    }

    // Mixed-rank and structured families, across ε / worker-count pairs.
    let instances = workload(24, 42);
    for (eps, threads) in [(1.0, 1usize), (0.5, 4), (0.25, 8)] {
        let solver = MwhvcSolver::with_epsilon(eps).unwrap();
        let service = SolveService::new(MwhvcConfig::new(eps).unwrap(), threads);
        let served = serve_in_order(&service, &instances, eps);
        for (i, (g, s)) in instances.iter().zip(&served).enumerate() {
            let ctx = format!("eps={eps} t={threads} i={i}");
            assert_bit_identical(s, &solver.solve(g).unwrap(), &ctx);
        }
    }

    // A non-default configuration: served == solve == solve_parallel.
    let cfg = MwhvcConfig::new(0.5)
        .unwrap()
        .with_variant(Variant::HalfBid);
    let solver = MwhvcSolver::new(cfg.clone());
    let service = SolveService::new(cfg, 4);
    let instances = workload(8, 99);
    let served = serve_in_order(&service, &instances, 0.5);
    for (i, (g, s)) in instances.iter().zip(&served).enumerate() {
        let solo = solver.solve(g).unwrap();
        let parallel = solver.solve_parallel(g, 4).unwrap();
        assert_bit_identical(&parallel, &solo, &format!("solve_parallel i={i}"));
        assert_bit_identical(s, &solo, &format!("half-bid i={i}"));
    }

    // Repeated rounds on one service: the worker arenas carry capacity
    // from earlier rounds, never state.
    let solver = MwhvcSolver::with_epsilon(0.5).unwrap();
    let service = SolveService::new(MwhvcConfig::new(0.5).unwrap(), 4);
    for round in 0..3 {
        let instances = workload(10, 7_000 + round);
        let served = serve_in_order(&service, &instances, 0.5);
        for (i, (g, s)) in instances.iter().zip(&served).enumerate() {
            let ctx = format!("round={round} i={i}");
            assert_bit_identical(s, &solver.solve(g).unwrap(), &ctx);
        }
    }
}

#[test]
fn completion_order_redemption_covers_every_submission() {
    // Redeem with try_wait polling (the `dcover serve` loop shape): every
    // seq id must come back exactly once, whatever order solves finish.
    let instances = mixed_instances(12, 2);
    let service = SolveService::new(MwhvcConfig::new(1.0).unwrap(), 3);
    let mut pending: Vec<_> = instances
        .iter()
        .map(|g| service.submit(Arc::clone(g), 1.0).unwrap())
        .collect();
    let mut seen = vec![false; pending.len()];
    while !pending.is_empty() {
        let mut still = Vec::with_capacity(pending.len());
        for t in pending {
            let seq = t.seq() as usize;
            match t.try_wait() {
                Ok(result) => {
                    assert!(!seen[seq], "seq {seq} delivered twice");
                    seen[seq] = true;
                    assert!(result.unwrap().cover.is_cover_of(&instances[seq]));
                }
                Err(t) => still.push(t),
            }
        }
        pending = still;
        std::thread::yield_now();
    }
    assert!(seen.iter().all(|&s| s), "every submission completed");
}

#[test]
fn shutdown_resolves_every_outstanding_ticket_then_refuses_work() {
    let instances = mixed_instances(10, 3);
    let service = SolveService::new(MwhvcConfig::new(0.5).unwrap(), 2);
    let tickets: Vec<_> = instances
        .iter()
        .map(|g| service.submit(Arc::clone(g), 0.5).unwrap())
        .collect();
    service.shutdown();
    for (g, t) in instances.iter().zip(tickets) {
        assert!(t.is_done(), "shutdown drained in-flight work");
        assert!(t.wait().unwrap().cover.is_cover_of(g));
    }
    assert!(matches!(
        service.submit(Arc::clone(&instances[0]), 0.5),
        Err(SubmitError::ShutDown)
    ));
}

#[test]
fn try_submit_backpressure_surfaces_under_load() {
    // A tiny queue on one worker under a burst of large instances must
    // hit Backpressure at least once; retrying with the blocking submit
    // still serves everything. (Deterministic single-rejection tests live
    // in the core crate; this exercises the public retry loop.)
    let big: Vec<Arc<Hypergraph>> = mixed_instances(1, 4)
        .into_iter()
        .map(|_| {
            let mut rng = StdRng::seed_from_u64(9);
            Arc::new(random_uniform(
                &RandomUniform {
                    n: 400,
                    m: 900,
                    rank: 3,
                    weights: WeightDist::Uniform { min: 1, max: 50 },
                },
                &mut rng,
            ))
        })
        .collect();
    let g = &big[0];
    let service =
        SolveService::with_queue_capacity(dcover_core::MwhvcConfig::new(0.5).unwrap(), 1, 1);
    let mut tickets = Vec::new();
    let mut rejections = 0usize;
    for _ in 0..12 {
        match service.try_submit_with(g, 0.5, SubmitOptions::default()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Backpressure { capacity }) => {
                assert_eq!(capacity, 1);
                rejections += 1;
                tickets.push(service.submit(Arc::clone(g), 0.5).unwrap());
            }
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
    }
    assert!(rejections > 0, "a 1-deep queue must push back on a burst");
    for t in tickets {
        assert!(t.wait().unwrap().cover.is_cover_of(g));
    }
}

#[test]
fn interactive_class_jumps_the_bulk_backlog_fifo_within_class() {
    // One worker, one long-running instance occupying it, then a bulk
    // backlog and an interactive burst submitted while it runs. With a
    // serial worker, per-ticket queue waits order exactly like dequeues:
    // every interactive wait must undercut every bulk wait (class
    // priority), and waits must increase in submission order within each
    // class (FIFO).
    let mut rng = StdRng::seed_from_u64(41);
    let blocker = Arc::new(random_uniform(
        &RandomUniform {
            n: 700,
            m: 1600,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 50 },
        },
        &mut rng,
    ));
    let small: Vec<Arc<Hypergraph>> = (0..12)
        .map(|_| {
            Arc::new(random_uniform(
                &RandomUniform {
                    n: 40,
                    m: 90,
                    rank: 3,
                    weights: WeightDist::Uniform { min: 1, max: 9 },
                },
                &mut rng,
            ))
        })
        .collect();
    let service =
        SolveService::with_queue_capacity(dcover_core::MwhvcConfig::new(0.5).unwrap(), 1, 64);
    let gate = service.submit(Arc::clone(&blocker), 0.5).unwrap();
    // Bulk submitted *before* interactive: priority, not arrival order,
    // must decide the dequeue order.
    let bulk: Vec<_> = small[..6]
        .iter()
        .map(|g| {
            service
                .submit_with(Arc::clone(g), 0.5, SubmitOptions::bulk())
                .unwrap()
        })
        .collect();
    let interactive: Vec<_> = small[6..]
        .iter()
        .map(|g| {
            service
                .submit_with(Arc::clone(g), 0.5, SubmitOptions::interactive())
                .unwrap()
        })
        .collect();
    // Every class is served bit-identically to a per-instance solve.
    let solver = MwhvcSolver::with_epsilon(0.5).unwrap();
    assert_bit_identical(
        &gate.wait().unwrap(),
        &solver.solve(&blocker).unwrap(),
        "blocker",
    );
    let redeem = |tickets: Vec<Ticket>, instances: &[Arc<Hypergraph>], class| {
        tickets
            .into_iter()
            .zip(instances)
            .enumerate()
            .map(|(i, (t, g))| {
                let (result, timing) = t.wait_timed();
                let solo = solver.solve(g).unwrap();
                assert_bit_identical(&result.unwrap(), &solo, &format!("{class} {i}"));
                timing.queue
            })
            .collect::<Vec<Duration>>()
    };
    let interactive_waits = redeem(interactive, &small[6..], "interactive");
    let bulk_waits = redeem(bulk, &small[..6], "bulk");
    let max_interactive = interactive_waits.iter().max().unwrap();
    let min_bulk = bulk_waits.iter().min().unwrap();
    assert!(
        max_interactive < min_bulk,
        "every interactive dequeue precedes every bulk dequeue \
         (max interactive wait {max_interactive:?} vs min bulk wait {min_bulk:?})"
    );
    for waits in [&interactive_waits, &bulk_waits] {
        for pair in waits.windows(2) {
            assert!(pair[0] < pair[1], "FIFO within class: {waits:?}");
        }
    }
    service.shutdown();
}

#[test]
fn concurrent_mixed_class_submitters_every_ticket_resolves_exactly_once() {
    // Four submitter threads (two interactive, two bulk) hammer a
    // 2-worker service — with SLO shedding and bulk aging armed —
    // through a 2-deep queue with non-blocking submissions. Attempts
    // cycle through the whole outcome matrix: every third carries an
    // already-hopeless deadline, every third is cancelled right after
    // submission, and the main thread shuts the service down mid-stream.
    // Accounting must close exactly: every attempt either yielded a
    // ticket (which resolves exactly once — completed, expired, or
    // cancelled) or was refused (backpressure / shed / shutdown).
    //
    // Submitter 0's first plain attempt blocks for a slot instead, and
    // the main thread waits for that ticket before shutting down:
    // interactive work is never shed and a blocking submit never reports
    // backpressure, so the ticket is issued, and with no deadline and no
    // cancel it resolves Ok once shutdown drains the queue.
    let mut rng = StdRng::seed_from_u64(42);
    let g = Arc::new(random_uniform(
        &RandomUniform {
            n: 150,
            m: 400,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 20 },
        },
        &mut rng,
    ));
    let service = Arc::new(
        SolveService::with_queue_capacity(dcover_core::MwhvcConfig::new(0.5).unwrap(), 2, 2)
            .with_shed_target(Duration::from_micros(1))
            .with_bulk_max_wait(Duration::from_millis(5)),
    );

    #[derive(Default)]
    struct Tally {
        completed: usize,
        expired: usize,
        cancelled_queued: usize,
        cancelled_mid_run: usize,
        backpressure: usize,
        shed: usize,
        shut_down: usize,
        zero_deadline_issued: usize,
    }

    let (issued_tx, issued_rx) = std::sync::mpsc::channel();
    let handles: Vec<_> = (0..4)
        .map(|worker: usize| {
            let service = Arc::clone(&service);
            let g = Arc::clone(&g);
            let issued = issued_tx.clone();
            std::thread::spawn(move || {
                let class = if worker.is_multiple_of(2) {
                    RequestClass::Interactive
                } else {
                    RequestClass::Bulk
                };
                let mut tally = Tally::default();
                let mut tickets = Vec::new();
                for attempt in 0..30 {
                    let mut opts = SubmitOptions {
                        class,
                        deadline: None,
                    };
                    // Disjoint three-way split of the attempts: cancelled
                    // after submission / plain / hopeless deadline.
                    let cancel_me = attempt % 3 == 0;
                    let doomed = attempt % 3 == 2;
                    if doomed {
                        opts = opts.with_deadline(Duration::ZERO);
                    }
                    let submitted = if worker == 0 && attempt == 1 {
                        let blocking = service.submit_with(Arc::clone(&g), 0.5, opts);
                        if blocking.is_ok() {
                            issued.send(()).expect("the main thread waits for it");
                        }
                        blocking
                    } else {
                        service.try_submit_with(&g, 0.5, opts)
                    };
                    match submitted {
                        Ok(t) => {
                            if doomed {
                                tally.zero_deadline_issued += 1;
                            }
                            if cancel_me {
                                t.cancel();
                            }
                            tickets.push(t);
                        }
                        Err(SubmitError::Backpressure { capacity }) => {
                            assert_eq!(capacity, 2);
                            tally.backpressure += 1;
                        }
                        Err(SubmitError::Overloaded { .. }) => {
                            assert_eq!(class, RequestClass::Bulk, "only bulk is shed");
                            tally.shed += 1;
                        }
                        Err(SubmitError::ShutDown) => {
                            // The door never reopens; count the rest of
                            // the attempts as refused and stop submitting.
                            tally.shut_down += 30 - attempt;
                            break;
                        }
                        Err(other) => panic!("unexpected submit error: {other:?}"),
                    }
                }
                (tally, tickets)
            })
        })
        .collect();
    drop(issued_tx);
    issued_rx
        .recv()
        .expect("submitter 0's blocking submission is issued");

    // wall-clock: let the submitter threads generate ~25 ms of real
    // traffic before shutdown; the exact overlap is the point of the test,
    // not a synchronization condition.
    std::thread::sleep(Duration::from_millis(25));
    service.shutdown();

    let mut total = Tally::default();
    let mut attempts_accounted = 0usize;
    for handle in handles {
        let (tally, tickets) = handle.join().unwrap();
        attempts_accounted += tickets.len() + tally.backpressure + tally.shed + tally.shut_down;
        total.backpressure += tally.backpressure;
        total.shed += tally.shed;
        total.shut_down += tally.shut_down;
        total.zero_deadline_issued += tally.zero_deadline_issued;
        for t in tickets {
            // Shutdown drained both classes: nothing is left hanging.
            assert!(t.is_done(), "shutdown resolves every issued ticket");
            let (result, timing) = t.wait_timed();
            match result {
                Ok(result) => {
                    assert!(result.cover.is_cover_of(&g));
                    total.completed += 1;
                }
                Err(SolveError::Expired { .. }) => total.expired += 1,
                // A cancel that landed while the ticket was queued never
                // ran (zero run time); one that landed mid-run stopped a
                // worker at a round boundary. A cancel that lost the race
                // outright resolves Ok above — all three are legal.
                Err(SolveError::Cancelled) => {
                    if timing.run == Duration::ZERO {
                        total.cancelled_queued += 1;
                    } else {
                        total.cancelled_mid_run += 1;
                    }
                }
                Err(other) => panic!("unexpected solve outcome: {other:?}"),
            }
        }
    }
    // Every attempt resolved exactly once, one way or another.
    assert_eq!(attempts_accounted, 4 * 30);
    assert!(total.completed > 0, "some solves ran to completion");
    assert!(
        total.backpressure > 0,
        "a 2-deep queue under 4 hammering submitters must push back"
    );
    assert!(
        total.cancelled_queued + total.cancelled_mid_run > 0,
        "with a third of the attempts cancelled at submit, some must resolve Cancelled"
    );
    if total.zero_deadline_issued > 0 {
        assert!(
            total.expired > 0,
            "zero-deadline tickets were issued ({}) but none expired",
            total.zero_deadline_issued
        );
    }
    // The service's own accounting agrees with the caller's. At the pool
    // level a mid-run cancel is a *completed* task (its worker ran it);
    // the pool's cancelled counter only counts queued discards.
    let m = service.metrics();
    assert_eq!(
        m.interactive.completed + m.bulk.completed,
        (total.completed + total.cancelled_mid_run) as u64
    );
    assert_eq!(m.interactive.expired + m.bulk.expired, total.expired as u64);
    assert_eq!(
        m.interactive.cancelled + m.bulk.cancelled,
        total.cancelled_queued as u64
    );
    assert_eq!(
        m.interactive.rejected + m.bulk.rejected,
        total.backpressure as u64
    );
    assert_eq!(m.interactive.shed, 0, "interactive is never shed");
    assert_eq!(m.bulk.shed, total.shed as u64);
}

#[test]
fn mixed_epsilons_share_one_service() {
    let instances = mixed_instances(9, 6);
    let service = SolveService::new(MwhvcConfig::new(0.5).unwrap(), 3);
    let epsilons = [0.1, 0.5, 1.0];
    let tickets: Vec<_> = instances
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let eps = epsilons[i % 3];
            (eps, service.submit(Arc::clone(g), eps).unwrap())
        })
        .collect();
    for ((eps, t), g) in tickets.into_iter().zip(&instances) {
        let served = t.wait().unwrap();
        let solo = MwhvcSolver::with_epsilon(eps).unwrap().solve(g).unwrap();
        assert_eq!(served.duals, solo.duals, "eps {eps}");
        assert_eq!(served.report, solo.report, "eps {eps}");
        let bound = g.rank().max(1) as f64 + eps;
        assert!(served.ratio_upper_bound() <= bound + 1e-9);
    }
}
