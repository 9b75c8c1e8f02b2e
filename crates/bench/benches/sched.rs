//! **Class-scheduling latency benchmark** — the priority/deadline
//! scheduler's perf record.
//!
//! Reproduces the workload the multi-class scheduler exists for: a
//! saturating backlog of **bulk** re-solves with a burst of small
//! **interactive** requests arriving behind it, served two ways through
//! the same `SolveService`:
//!
//! * `fifo` — the interactive requests are submitted as plain bulk-class
//!   work, so the shared queue degenerates to the pre-class FIFO: every
//!   interactive request waits out the whole bulk backlog;
//! * `classed` — the same requests submitted as
//!   [`RequestClass::Interactive`]: they dequeue ahead of every queued
//!   bulk solve and only ever wait for the workers' in-flight work.
//!
//! The figure of merit is the **per-ticket queue wait** of the
//! interactive requests (from `Ticket::wait_timed` — the same per-ticket
//! metrics `dcover serve` reports as `queue_ms`), summarized as
//! p50/p99. Before any timing, both scheduling modes are asserted
//! **bit-identical** to per-instance `MwhvcSolver::solve` on every
//! instance — scheduling reorders work, never results.
//!
//! Set `BENCH_SCHED_JSON=/path/BENCH_sched.json` for the
//! machine-readable record (see `scripts/bench_sched.sh`) and
//! `BENCH_SCHED_SMOKE=1` for a seconds-long smoke run (CI uses it to
//! catch bench bitrot).

use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dcover_core::{MwhvcConfig, MwhvcSolver, RequestClass, SolveService, SubmitOptions};
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use dcover_hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPSILON: f64 = 0.5;
const THREADS: usize = 4;

fn smoke() -> bool {
    std::env::var("BENCH_SCHED_SMOKE").is_ok_and(|v| v != "0")
}

/// Workload scale: (bulk count, interactive count, timed rounds) — small
/// in smoke mode.
fn scale() -> (usize, usize, usize) {
    if smoke() {
        (10, 6, 2)
    } else {
        (28, 16, 5)
    }
}

/// The saturating bulk backlog: mid-sized instances, several ms each.
fn bulk_workload(count: usize) -> Vec<Arc<Hypergraph>> {
    let mut rng = StdRng::seed_from_u64(0x5C4ED);
    (0..count)
        .map(|i| {
            Arc::new(random_uniform(
                &RandomUniform {
                    n: 240 + (i * 37) % 200,
                    m: 620 + (i * 101) % 500,
                    rank: 3,
                    weights: WeightDist::Uniform {
                        min: 1,
                        max: 10 + (i as u64 * 13) % 90,
                    },
                },
                &mut rng,
            ))
        })
        .collect()
}

/// The interactive burst: small instances a user is waiting on.
fn interactive_workload(count: usize) -> Vec<Arc<Hypergraph>> {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    (0..count)
        .map(|i| {
            Arc::new(random_uniform(
                &RandomUniform {
                    n: 40 + (i * 11) % 50,
                    m: 90 + (i * 23) % 120,
                    rank: 2 + i % 2,
                    weights: WeightDist::Uniform { min: 1, max: 9 },
                },
                &mut rng,
            ))
        })
        .collect()
}

/// Serves one round: the whole bulk backlog submitted first, then the
/// interactive burst under `class`. Returns the interactive tickets'
/// queue waits (the bulk tickets are redeemed too — the queue fully
/// drains before the next round).
fn serve_round(
    service: &SolveService,
    bulk: &[Arc<Hypergraph>],
    interactive: &[Arc<Hypergraph>],
    class: RequestClass,
) -> Vec<Duration> {
    let bulk_tickets: Vec<_> = bulk
        .iter()
        .map(|g| {
            service
                .submit_with(Arc::clone(g), EPSILON, SubmitOptions::bulk())
                .expect("open service")
        })
        .collect();
    let opts = SubmitOptions {
        class,
        deadline: None,
    };
    let interactive_tickets: Vec<_> = interactive
        .iter()
        .map(|g| {
            service
                .submit_with(Arc::clone(g), EPSILON, opts)
                .expect("open service")
        })
        .collect();
    let waits: Vec<Duration> = interactive_tickets
        .into_iter()
        .map(|t| {
            let (result, timing) = t.wait_timed();
            result.expect("interactive instance solves");
            timing.queue
        })
        .collect();
    for t in bulk_tickets {
        t.wait().expect("bulk instance solves");
    }
    waits
}

/// Exact percentile over the collected waits (upper interpolation — the
/// observation at ⌈q·n⌉).
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty());
    #[expect(
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation,
        reason = "q is in [0, 1], so the rank is in [0, len]"
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Correctness gate: both scheduling modes produce results bit-identical
/// to per-instance solves, for every instance of both tiers.
fn assert_bit_identical(
    bulk: &[Arc<Hypergraph>],
    interactive: &[Arc<Hypergraph>],
    service: &SolveService,
) {
    let solver = MwhvcSolver::with_epsilon(EPSILON).expect("valid epsilon");
    for mode in [RequestClass::Bulk, RequestClass::Interactive] {
        let opts = SubmitOptions {
            class: mode,
            deadline: None,
        };
        let tickets: Vec<_> = bulk
            .iter()
            .chain(interactive)
            .map(|g| {
                (
                    Arc::clone(g),
                    service
                        .submit_with(Arc::clone(g), EPSILON, opts)
                        .expect("open service"),
                )
            })
            .collect();
        for (i, (g, t)) in tickets.into_iter().enumerate() {
            let served = t.wait().expect("instance solves");
            let solo = solver.solve(&g).expect("instance solves");
            assert_eq!(served.cover, solo.cover, "{mode} instance {i}: cover");
            assert_eq!(served.duals, solo.duals, "{mode} instance {i}: duals");
            assert_eq!(served.levels, solo.levels, "{mode} instance {i}: levels");
            assert_eq!(served.report, solo.report, "{mode} instance {i}: report");
        }
    }
}

struct ModeStat {
    name: &'static str,
    p50: Duration,
    p99: Duration,
    max: Duration,
    samples: usize,
}

fn summarize(name: &'static str, mut waits: Vec<Duration>) -> ModeStat {
    waits.sort_unstable();
    ModeStat {
        name,
        p50: percentile(&waits, 0.50),
        p99: percentile(&waits, 0.99),
        max: *waits.last().expect("non-empty"),
        samples: waits.len(),
    }
}

fn bench_sched(c: &mut Criterion) {
    let (bulk_count, interactive_count, rounds) = scale();
    let bulk = bulk_workload(bulk_count);
    let interactive = interactive_workload(interactive_count);
    // Queue deep enough to hold a whole round: saturation without
    // blocking the submitter, so queue waits measure scheduling policy,
    // not ingestion backpressure.
    let capacity = bulk_count + interactive_count + 4;
    let config = MwhvcConfig::new(EPSILON).expect("valid epsilon");
    let service = SolveService::with_queue_capacity(config, THREADS, capacity);

    // Correctness gate before any timing: scheduling reorders work, never
    // results — both modes bit-identical to per-instance solves.
    assert_bit_identical(&bulk, &interactive, &service);

    let mut group = c.benchmark_group("sched_interactive_wait");
    group.sample_size(10);
    group.bench_function("fifo_round", |b| {
        b.iter(|| serve_round(&service, &bulk, &interactive, RequestClass::Bulk));
    });
    group.bench_function("classed_round", |b| {
        b.iter(|| serve_round(&service, &bulk, &interactive, RequestClass::Interactive));
    });
    group.finish();

    // Interleave the modes round by round so machine-load drift hits
    // both schedules equally.
    let mut fifo_waits = Vec::new();
    let mut classed_waits = Vec::new();
    black_box(serve_round(
        &service,
        &bulk,
        &interactive,
        RequestClass::Bulk,
    )); // warm-up
    for _ in 0..rounds {
        fifo_waits.extend(serve_round(
            &service,
            &bulk,
            &interactive,
            RequestClass::Bulk,
        ));
        classed_waits.extend(serve_round(
            &service,
            &bulk,
            &interactive,
            RequestClass::Interactive,
        ));
    }
    let fifo = summarize("fifo", fifo_waits);
    let classed = summarize("classed", classed_waits);
    let p99_improvement = ms(fifo.p99) / ms(classed.p99).max(1e-9);
    let depth_high_water = service.metrics().queue_depth_high_water;

    println!(
        "\n== interactive queue wait under saturating bulk load \
         ({bulk_count} bulk + {interactive_count} interactive, {THREADS} threads, {rounds} rounds) =="
    );
    for s in [&fifo, &classed] {
        println!(
            "{:<8} p50 {:>9.3} ms   p99 {:>9.3} ms   max {:>9.3} ms   ({} samples)",
            s.name,
            ms(s.p50),
            ms(s.p99),
            ms(s.max),
            s.samples
        );
    }
    println!("p99 improvement (fifo/classed): {p99_improvement:.2}x");
    println!("queue depth high water         : {depth_high_water}");

    // The record must demonstrate the scheduler doing its one job.
    assert!(
        classed.p99 < fifo.p99,
        "class scheduling must cut the interactive p99 queue wait \
         (classed {:?} vs fifo {:?})",
        classed.p99,
        fifo.p99
    );

    if let Ok(path) = std::env::var("BENCH_SCHED_JSON") {
        let mode_json = |s: &ModeStat| {
            format!(
                "{{\"p50_queue_ms\": {:.3}, \"p99_queue_ms\": {:.3}, \"max_queue_ms\": {:.3}, \"samples\": {}}}",
                ms(s.p50),
                ms(s.p99),
                ms(s.max),
                s.samples
            )
        };
        let json = format!(
            "{{\n  \"benchmark\": \"sched\",\n  \"threads\": {THREADS},\n  \"bulk_instances\": {bulk_count},\n  \"interactive_instances\": {interactive_count},\n  \"rounds\": {rounds},\n  \"epsilon\": {EPSILON},\n  \"smoke\": {},\n  \"bit_identical_to_solve\": true,\n  \"fifo\": {},\n  \"classed\": {},\n  \"interactive_p99_improvement\": {p99_improvement:.2},\n  \"queue_depth_high_water\": {depth_high_water}\n}}\n",
            smoke(),
            mode_json(&fifo),
            mode_json(&classed),
        );
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write BENCH_SCHED_JSON");
        println!("wrote {path}");
    }

    service.shutdown();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
