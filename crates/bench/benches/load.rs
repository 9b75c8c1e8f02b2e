//! **Open-loop load benchmark** — latency vs offered load, with and
//! without SLO-driven shedding.
//!
//! An open-loop generator submits work on a fixed **arrival schedule**
//! (arrivals do not wait for completions, so offered load is controlled,
//! not gated by service throughput): a steady trickle of small
//! **interactive** requests plus a **bursty bulk** stream — each period
//! front-loads its arrivals into the first half, like a batch producer
//! flushing — whose average rate sweeps from below the service's
//! calibrated capacity to far above it. Every point is served twice
//! through the same configuration:
//!
//! * `no_shed` — bulk-aging anti-starvation only
//!   ([`SolveService::with_bulk_max_wait`]): under overload the bulk
//!   backlog ages past the bound, aged bulk preempts younger interactive
//!   requests on every dequeue, and the interactive queue wait grows
//!   with the backlog — without admission control, the aging that
//!   protects bulk from starvation inverts the priorities exactly when
//!   latency matters most;
//! * `shed` — the same aging plus admission control
//!   ([`SolveService::with_shed_target`]): once the rolling interactive
//!   queue-wait p99 crosses the target, new bulk submissions are shed at
//!   the door, the backlog stays short, and the interactive p99 plateaus
//!   near the burst-drain time no matter how much bulk load is offered.
//!
//! The figure of merit is the **interactive queue-wait p50/p99 as a
//! function of offered bulk load** (the latency-vs-offered-load curve),
//! excluding a warm-up quarter of each run so the cold-start transient
//! (the first burst always lands on a cold admission window) does not
//! dominate the percentiles. The record asserts at the saturating point
//! that admission control engaged and bounded the interactive p99
//! before writing anything.
//!
//! Set `BENCH_LOAD_JSON=/path/BENCH_load.json` for the machine-readable
//! record (see `scripts/bench_load.sh`) and `BENCH_LOAD_SMOKE=1` for a
//! seconds-long smoke run (CI uses it to catch bench bitrot).

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcover_core::{
    MwhvcConfig, MwhvcSolver, RequestClass, SolveService, SubmitError, SubmitOptions, Ticket,
};
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use dcover_hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPSILON: f64 = 0.5;
/// Admission-control SLO: shed bulk while the interactive queue-wait
/// signal is above this. Set above the transient backlog a sub-capacity
/// burst creates, so shedding engages on genuine overload rather than
/// on every burst edge.
const SHED_TARGET: Duration = Duration::from_millis(50);
/// Anti-starvation aging bound, active in **both** modes — the point of
/// the comparison is what shedding adds on top of aging, not aging vs
/// nothing.
const BULK_MAX_WAIT: Duration = Duration::from_millis(40);
/// Deep queue: admission control (not ingestion backpressure) should be
/// the operative control; overflow beyond it is still counted, as
/// `rejected`.
const QUEUE_CAPACITY: usize = 2048;
/// Bulk burst period: arrivals land in the first half of each period.
const BURST_PERIOD: Duration = Duration::from_millis(300);

fn smoke() -> bool {
    std::env::var("BENCH_LOAD_SMOKE").is_ok_and(|v| v != "0")
}

/// Worker threads: the machine's parallelism, capped — offered load is
/// expressed against calibrated capacity, so the sweep saturates any
/// box the same way.
fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(4)
}

/// Workload scale: (arrival window per point, offered-load factors as
/// multiples of calibrated capacity) — short window and two factors in
/// smoke mode.
fn scale() -> (Duration, Vec<f64>) {
    if smoke() {
        (Duration::from_millis(2400), vec![0.6, 2.5])
    } else {
        (Duration::from_millis(4800), vec![0.6, 1.2, 2.5, 4.0])
    }
}

/// The bulk stream: mid-sized instances of near-constant cost so the
/// calibrated mean solve time is representative.
fn bulk_instances() -> Vec<Arc<Hypergraph>> {
    let mut rng = StdRng::seed_from_u64(0x10AD);
    (0..8)
        .map(|i| {
            Arc::new(random_uniform(
                &RandomUniform {
                    n: 260 + i * 7,
                    m: 700 + i * 13,
                    rank: 3,
                    weights: WeightDist::Uniform { min: 1, max: 50 },
                },
                &mut rng,
            ))
        })
        .collect()
}

/// The interactive trickle: small instances a user is waiting on.
fn interactive_instances() -> Vec<Arc<Hypergraph>> {
    let mut rng = StdRng::seed_from_u64(0x1A7E5);
    (0..8)
        .map(|i| {
            Arc::new(random_uniform(
                &RandomUniform {
                    n: 40 + i * 5,
                    m: 90 + i * 11,
                    rank: 2 + i % 2,
                    weights: WeightDist::Uniform { min: 1, max: 9 },
                },
                &mut rng,
            ))
        })
        .collect()
}

/// Mean per-instance bulk solve time, measured solo — the capacity
/// anchor the offered-load sweep is expressed against.
fn calibrate(bulk: &[Arc<Hypergraph>]) -> Duration {
    let solver = MwhvcSolver::with_epsilon(EPSILON).expect("valid epsilon");
    // Warm-up pass, then the measured pass.
    for g in bulk {
        solver.solve(g).expect("bulk instance solves");
    }
    let start = Instant::now();
    for g in bulk {
        solver.solve(g).expect("bulk instance solves");
    }
    start.elapsed() / u32::try_from(bulk.len()).expect("few instances")
}

/// One pre-computed arrival: offset from the window start, class, and
/// which instance of the class's set to submit.
struct Arrival {
    at: Duration,
    class: RequestClass,
    index: usize,
}

#[expect(
    clippy::cast_sign_loss,
    clippy::cast_possible_truncation,
    reason = "a non-negative count of arrivals in a bench window"
)]
fn arrival_count(window: Duration, hz: f64) -> usize {
    (window.as_secs_f64() * hz).floor() as usize
}

/// Deterministic open-loop schedule, merged and sorted by arrival time:
/// the interactive trickle is evenly spaced over the whole window; the
/// bulk stream is **bursty** — each [`BURST_PERIOD`] packs its share of
/// the average rate into the first half of the period, so overload
/// arrives the way batch producers deliver it and the admission
/// window's signal (interactive dequeue waits) keeps flowing between
/// bursts.
fn schedule(window: Duration, bulk_hz: f64, interactive_hz: f64) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let interactive_count = arrival_count(window, interactive_hz);
    for i in 0..interactive_count {
        arrivals.push(Arrival {
            at: window.mul_f64((i as f64 + 0.5) / interactive_count as f64),
            class: RequestClass::Interactive,
            index: i,
        });
    }
    let bulk_count = arrival_count(window, bulk_hz);
    #[expect(
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation,
        reason = "a small non-negative count of burst periods"
    )]
    let periods = (window.as_secs_f64() / BURST_PERIOD.as_secs_f64()).ceil() as usize;
    let per_period = bulk_count.div_ceil(periods);
    for i in 0..bulk_count {
        let period = i / per_period;
        let within = (i % per_period) as f64 / per_period as f64;
        arrivals.push(Arrival {
            at: BURST_PERIOD.mul_f64(period as f64) + BURST_PERIOD.mul_f64(within * 0.5),
            class: RequestClass::Bulk,
            index: i,
        });
    }
    arrivals.sort_by_key(|a| a.at);
    arrivals
}

/// What one (mode, offered-load) run observed.
struct ModeStat {
    interactive_p50: Duration,
    interactive_p99: Duration,
    interactive_samples: usize,
    bulk_offered: u64,
    bulk_completed: u64,
    shed: u64,
    rejected: u64,
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

/// Serves one offered-load point: submits the schedule open-loop (never
/// waiting on completions; sheds and queue overflow are counted, not
/// retried), then drains every ticket and collects the interactive
/// queue waits of requests that arrived after the warm-up quarter.
fn run_point(
    bulk: &[Arc<Hypergraph>],
    interactive: &[Arc<Hypergraph>],
    window: Duration,
    bulk_hz: f64,
    interactive_hz: f64,
    shed: bool,
) -> ModeStat {
    let config = MwhvcConfig::new(EPSILON).expect("valid epsilon");
    let mut service = SolveService::with_queue_capacity(config, threads(), QUEUE_CAPACITY)
        .with_bulk_max_wait(BULK_MAX_WAIT);
    if shed {
        service = service.with_shed_target(SHED_TARGET);
    }

    let arrivals = schedule(window, bulk_hz, interactive_hz);
    let warmup = window.mul_f64(0.25);
    let mut tickets: Vec<(&Arrival, Ticket)> = Vec::with_capacity(arrivals.len());
    let mut stat = ModeStat {
        interactive_p50: Duration::ZERO,
        interactive_p99: Duration::ZERO,
        interactive_samples: 0,
        bulk_offered: 0,
        bulk_completed: 0,
        shed: 0,
        rejected: 0,
    };
    let start = Instant::now();
    for a in &arrivals {
        if let Some(sleep) = a.at.checked_sub(start.elapsed()) {
            // wall-clock: open-loop load generation — pace submissions to
            // the arrival schedule; not a synchronization point.
            std::thread::sleep(sleep);
        }
        let g = match a.class {
            RequestClass::Bulk => {
                stat.bulk_offered += 1;
                &bulk[a.index % bulk.len()]
            }
            RequestClass::Interactive => &interactive[a.index % interactive.len()],
        };
        let opts = SubmitOptions {
            class: a.class,
            deadline: None,
        };
        match service.try_submit_with(g, EPSILON, opts) {
            Ok(t) => tickets.push((a, t)),
            Err(SubmitError::Overloaded { .. }) => stat.shed += 1,
            Err(SubmitError::Backpressure { .. }) => stat.rejected += 1,
            Err(e) => panic!("open service: {e}"),
        }
    }

    let mut waits = Vec::new();
    for (a, t) in tickets {
        let (result, timing) = t.wait_timed();
        result.expect("admitted instance solves");
        match a.class {
            RequestClass::Interactive => {
                if a.at >= warmup {
                    waits.push(timing.queue);
                }
            }
            RequestClass::Bulk => stat.bulk_completed += 1,
        }
    }
    service.shutdown();

    waits.sort_unstable();
    stat.interactive_p50 = percentile(&waits, 0.50);
    stat.interactive_p99 = percentile(&waits, 0.99);
    stat.interactive_samples = waits.len();
    stat
}

fn mode_json(s: &ModeStat) -> String {
    format!(
        "{{\"interactive_p50_ms\": {:.3}, \"interactive_p99_ms\": {:.3}, \"interactive_samples\": {}, \"bulk_offered\": {}, \"bulk_completed\": {}, \"shed\": {}, \"rejected\": {}}}",
        ms(s.interactive_p50),
        ms(s.interactive_p99),
        s.interactive_samples,
        s.bulk_offered,
        s.bulk_completed,
        s.shed,
        s.rejected,
    )
}

fn main() {
    let (window, factors) = scale();
    let threads = threads();
    let bulk = bulk_instances();
    let interactive = interactive_instances();

    let mean_bulk = calibrate(&bulk);
    // Service capacity in bulk solves per second; the sweep offers
    // multiples of it. Interactive arrivals are a fixed light trickle —
    // their occupancy is negligible, they exist to be measured.
    let capacity_hz = threads as f64 / mean_bulk.as_secs_f64();
    let interactive_hz = (capacity_hz * 0.15).max(20.0);

    println!(
        "== latency vs offered load ({threads} threads, mean bulk solve {:.2} ms, \
         capacity ≈ {capacity_hz:.0} bulk/s, interactive trickle {interactive_hz:.0}/s, \
         {} ms per point) ==",
        ms(mean_bulk),
        window.as_millis(),
    );

    let mut points = Vec::new();
    for &factor in &factors {
        let bulk_hz = capacity_hz * factor;
        let no_shed = run_point(&bulk, &interactive, window, bulk_hz, interactive_hz, false);
        let shed = run_point(&bulk, &interactive, window, bulk_hz, interactive_hz, true);
        println!(
            "offered {factor:>4.1}x ({bulk_hz:>6.0} bulk/s): \
             no_shed p99 {:>9.3} ms ({} samples, {} rejected)   \
             shed p99 {:>9.3} ms ({} samples, {} shed)",
            ms(no_shed.interactive_p99),
            no_shed.interactive_samples,
            no_shed.rejected,
            ms(shed.interactive_p99),
            shed.interactive_samples,
            shed.shed,
        );
        points.push((factor, bulk_hz, no_shed, shed));
    }

    // The record must demonstrate overload protection doing its one job:
    // at the saturating point, admission control engages and the
    // interactive p99 is no worse than the unprotected run's.
    let (_, _, no_shed, shed) = points.last().expect("at least one point");
    assert!(
        shed.shed > 0,
        "saturating offered load must trip admission control (0 bulk shed)"
    );
    assert!(
        shed.interactive_p99 <= no_shed.interactive_p99,
        "shedding must bound the interactive p99 under saturating bulk load \
         (shed {:?} vs no_shed {:?})",
        shed.interactive_p99,
        no_shed.interactive_p99,
    );

    if let Ok(path) = std::env::var("BENCH_LOAD_JSON") {
        let point_json = |(factor, bulk_hz, no_shed, shed): &(f64, f64, ModeStat, ModeStat)| {
            format!(
                "    {{\"offered_load_factor\": {factor}, \"offered_bulk_hz\": {bulk_hz:.1}, \"no_shed\": {}, \"shed\": {}}}",
                mode_json(no_shed),
                mode_json(shed),
            )
        };
        let json = format!(
            "{{\n  \"benchmark\": \"load\",\n  \"threads\": {threads},\n  \"epsilon\": {EPSILON},\n  \"smoke\": {},\n  \"shed_target_ms\": {:.1},\n  \"bulk_max_wait_ms\": {:.1},\n  \"burst_period_ms\": {},\n  \"mean_bulk_solve_ms\": {:.3},\n  \"capacity_bulk_hz\": {capacity_hz:.1},\n  \"interactive_hz\": {interactive_hz:.1},\n  \"window_ms\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
            smoke(),
            ms(SHED_TARGET),
            ms(BULK_MAX_WAIT),
            BURST_PERIOD.as_millis(),
            ms(mean_bulk),
            window.as_millis(),
            points
                .iter()
                .map(point_json)
                .collect::<Vec<_>>()
                .join(",\n"),
        );
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write BENCH_LOAD_JSON");
        println!("wrote {path}");
    }
}
