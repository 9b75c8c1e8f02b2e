//! `serve_mixed`: an open loop of small requests into a `SolveService`
//! with two workers and the `dcover serve` defaults (default queue, no shed
//! target, no bulk aging). One generator thread sends seeded Poisson
//! arrivals at a fixed rate — about 80% bulk and 20% interactive requests
//! — parsing each record from text when it arrives, as `dcover serve`
//! does. A short saturating closed loop follows to measure capacity. The
//! instances fit in cache, so per-request costs (parse, build, set-up,
//! queue, ticket) dominate and the round engine is a minority.
//!
//! The arrival rate is a constant, never recalibrated: a faster service
//! then sees the same load and shows its gain as lower latency. It was
//! sized once, on a 2-CPU host whose 2-worker capacity measured 1000–2000
//! completions/s as neighbours came and went, to half of the lowest.
//!
//! Every request is timed from when it was due: (submit return − due) +
//! queue wait + run time. In the open loop the workers idle between
//! requests, and on a shared virtual machine the wake-up of an idle CPU
//! swung the open-loop interactive median two-fold between runs, so the
//! open-loop figures are per-layer (`bench.interactive_p50_ms`,
//! `bench.latency_p90_ms`, `bench.interactive_p99_ms`,
//! `bench.bulk_p99_ms`). End-to-end mapping: `latency_p50_ms` is the
//! median interactive latency in the saturating phase, where interactive
//! requests overtake a full queue of bulk work, and `throughput_per_s` is
//! that phase's completions per second (`capacity_per_s`): the median over
//! windows of [`CAPACITY_WINDOW`], so one stall costs one window, not the
//! figure.
//! Every result is checked after the run, off the generator thread: it
//! must equal bit for bit a sequential solve of its record that carries a
//! verified certificate.

use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcover_congest::Topology;
use dcover_core::{
    ClassMetrics, MwhvcConfig, MwhvcSolver, RequestClass, ServiceMetrics, SolveService,
    SubmitOptions, Ticket,
};
use dcover_hypergraph::format;
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gates;
use crate::report::{median, quantile, Outcome};
use crate::solve_large::mailbox_bytes;
use crate::trace::{durations_s, Recorder, Span};
use crate::{time_setups, RunConfig, SETUPS};

const EPSILON: f64 = 0.5;
const WORKERS: usize = 2;
const BULK_SHARE: f64 = 0.8;
/// Share of `--seconds` spent in the open loop; the rest measures capacity.
const OPEN_SHARE: f64 = 0.75;
const CAPACITY_WINDOW: Duration = Duration::from_millis(250);

#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Vertices and edges of a bulk request, give or take 10%.
    pub bulk_n: usize,
    pub bulk_m: usize,
    /// Distinct records per class.
    pub records: usize,
    /// Open-loop arrivals per second, both classes together.
    pub rate_hz: f64,
}

pub const FULL: Size = Size {
    bulk_n: 300,
    bulk_m: 800,
    records: 64,
    rate_hz: 500.0,
};

/// One request as the client holds it: its class and its text.
struct Record {
    class: RequestClass,
    text: String,
}

/// Bulk records: uniform rank 3 around `bulk_n` × `bulk_m`. Interactive
/// records: 40–80 vertices, rank 2 or 3, about two edges per vertex.
fn records(size: &Size, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E77_0000_0000_0002);
    let mut out = Vec::with_capacity(2 * size.records);
    for class in [RequestClass::Bulk, RequestClass::Interactive] {
        for _ in 0..size.records {
            let (n, m, rank) = match class {
                RequestClass::Bulk => {
                    let scale = rng.gen_range(0.9..1.1);
                    let n = (size.bulk_n as f64 * scale) as usize;
                    (n, (size.bulk_m as f64 * scale) as usize, 3)
                }
                RequestClass::Interactive => {
                    let n = rng.gen_range(40..=80usize);
                    (n, 2 * n, rng.gen_range(2..=3usize))
                }
            };
            let g = random_uniform(
                &RandomUniform {
                    n,
                    m,
                    rank,
                    weights: WeightDist::Uniform { min: 1, max: 100 },
                },
                &mut rng,
            );
            out.push(Record {
                class,
                text: format::serialize(&g),
            });
        }
    }
    out
}

/// One arrival: its offset from the start of the open loop and the record
/// it sends.
struct Arrival {
    at: Duration,
    record: usize,
}

/// Poisson arrivals at `rate_hz` over `window`.
fn arrivals(size: &Size, seed: u64, window: Duration) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA771_0000_0000_0003);
    let mut out = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / size.rate_hz;
        if at >= window.as_secs_f64() {
            return out;
        }
        let pick = rng.gen_range(0..size.records);
        let record = if rng.gen::<f64>() < BULK_SHARE {
            pick
        } else {
            size.records + pick
        };
        out.push(Arrival {
            at: Duration::from_secs_f64(at),
            record,
        });
    }
}

struct Setup {
    records: Vec<Record>,
    arrivals: Vec<Arrival>,
    service: SolveService,
}

/// Generates the records and the schedule, starts the service and warms
/// it with one solve of every record.
fn set_up(size: &Size, seed: u64, open: Duration) -> Setup {
    let records = records(size, seed);
    let arrivals = arrivals(size, seed, open);
    let config = MwhvcConfig::new(EPSILON).expect("valid epsilon");
    let service = SolveService::new(config, WORKERS);
    for r in &records {
        let g = Arc::new(format::parse(&r.text).expect("generated records parse"));
        let ticket = service.submit(g, EPSILON).expect("an open service admits");
        ticket.wait().expect("generated records solve");
    }
    Setup {
        records,
        arrivals,
        service,
    }
}

pub fn run(size: &Size, cfg: &RunConfig, out: &mut Outcome) {
    let open = cfg.seconds.mul_f64(OPEN_SHARE);
    let saturate = cfg.seconds - open;
    // A dropped set-up's service drains and joins its workers.
    let fresh = || set_up(size, cfg.seed, open);
    let (mut setups, setup) = time_setups(SETUPS.div_ceil(2), fresh);
    measure(&setup, open, saturate, cfg, out);
    drop(setup);
    setups.extend(time_setups(SETUPS / 2, fresh).0);
    out.put("setup_s", median(&setups), WORKERS);
}

fn measure(setup: &Setup, open: Duration, saturate: Duration, cfg: &RunConfig, out: &mut Outcome) {
    let untraced = serve(setup, open, saturate, false, cfg, out);
    let interactive = latencies(&untraced.open, RequestClass::Interactive);
    let bulk = latencies(&untraced.open, RequestClass::Bulk);
    let p50 = median(&interactive);
    let saturated = latencies(&untraced.capacity_samples, RequestClass::Interactive);
    out.put("bench.interactive_p50_ms", p50 * 1e3, WORKERS);
    out.put_with_unit("capacity_per_s", untraced.capacity_per_s, "1/s", WORKERS);
    out.put_with_unit(
        "interactive_samples",
        interactive.len() as f64,
        "count",
        WORKERS,
    );
    out.put("latency_p50_ms", median(&saturated) * 1e3, WORKERS);
    out.put(
        "bench.latency_p90_ms",
        quantile(&interactive, 0.9) * 1e3,
        WORKERS,
    );
    out.put(
        "bench.interactive_p99_ms",
        quantile(&interactive, 0.99) * 1e3,
        WORKERS,
    );
    out.put("throughput_per_s", untraced.capacity_per_s, WORKERS);
    out.put("bench.bulk_p99_ms", quantile(&bulk, 0.99) * 1e3, WORKERS);
    out.put(
        "congest.sim.rounds",
        untraced.open.iter().map(|s| s.rounds).sum::<u64>() as f64,
        1,
    );
    out.put(
        "congest.sim.messages",
        untraced.open.iter().map(|s| s.messages).sum::<u64>() as f64,
        1,
    );
    // The service's high-water mark only grows, and the first capacity
    // phase fills the queue, so only the first open loop's mark says
    // anything about the open loop.
    out.put(
        "congest.pool.queue_depth_high_water",
        untraced.queue_depth_high_water as f64,
        WORKERS,
    );
    verify(setup, &untraced, out);

    if cfg.trace {
        let traced = serve(setup, open, saturate, true, cfg, out);
        verify(setup, &traced, out);
        layer_metrics(&traced, p50, out);
        cfg.write_spans(&traced.spans);
    }
    setup.service.shutdown();
    let m = setup.service.metrics();
    let count = |f: fn(&ClassMetrics) -> u64| (f(&m.interactive) + f(&m.bulk)) as f64;
    out.put("core.service.rejected", count(|c| c.rejected), WORKERS);
    out.put("core.service.shed", count(|c| c.shed), WORKERS);
    out.put("core.service.expired", count(|c| c.expired), WORKERS);
}

/// A submitted request on its way to a collector.
struct Pending {
    ticket: Ticket,
    record: usize,
    class: RequestClass,
    due: Instant,
    submitted: Instant,
}

/// One resolved request.
struct Sample {
    record: usize,
    class: RequestClass,
    /// From due to result, as the client sees it (see the module docs).
    latency: f64,
    queue: f64,
    run: f64,
    /// `Ticket::wait` return − (submit + queue + run).
    wake: f64,
    resolved: Instant,
    /// `None` for a failed request.
    fingerprint: Option<u64>,
    rounds: u64,
    messages: u64,
}

/// What one pass of both phases saw.
struct Served {
    open: Vec<Sample>,
    /// Generator lateness per open-loop arrival, seconds.
    lags: Vec<f64>,
    capacity_per_s: f64,
    capacity_samples: Vec<Sample>,
    worker_busy_share: f64,
    queue_depth_high_water: u64,
    spans: Vec<Span>,
}

fn serve(
    setup: &Setup,
    open: Duration,
    saturate: Duration,
    traced: bool,
    cfg: &RunConfig,
    out: &mut Outcome,
) -> Served {
    let before = setup.service.metrics();
    let start = Instant::now();
    let (open_samples, lags, spans) = phase(setup, true, open, traced, cfg, out);
    let open_end = open_samples
        .iter()
        .map(|s| s.resolved)
        .max()
        .unwrap_or(start);
    let after = setup.service.metrics();
    let busy = busy_share(&before, &after, open_end - start);

    // The per-layer metrics describe the open loop, so the saturating
    // phase runs untraced.
    let start = Instant::now();
    let (capacity_samples, _, _) = phase(setup, false, saturate, false, cfg, out);
    Served {
        open: open_samples,
        lags,
        capacity_per_s: windowed_rate(&capacity_samples, start, saturate),
        capacity_samples,
        worker_busy_share: busy,
        queue_depth_high_water: after.queue_depth_high_water,
        spans,
    }
}

/// The median completion rate over the whole windows of `phase` after
/// `start`.
fn windowed_rate(samples: &[Sample], start: Instant, phase: Duration) -> f64 {
    let windows = ((phase.as_secs_f64() / CAPACITY_WINDOW.as_secs_f64()) as usize).max(1);
    let mut counts = vec![0u32; windows];
    for s in samples {
        let k = (s.resolved - start).as_secs_f64() / CAPACITY_WINDOW.as_secs_f64();
        if let Some(count) = counts.get_mut(k as usize) {
            *count += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| f64::from(c) / CAPACITY_WINDOW.as_secs_f64())
        .collect();
    median(&rates)
}

fn busy_share(before: &ServiceMetrics, after: &ServiceMetrics, wall: Duration) -> f64 {
    let busy = after.worker_busy.saturating_sub(before.worker_busy);
    busy.as_secs_f64() / (wall.as_secs_f64() * WORKERS as f64)
}

/// Runs one phase to completion: the paced open loop over the schedule,
/// or, unpaced, a saturating closed loop of blocking submissions that
/// cycles through the schedule's records for `window`. Returns the
/// resolved requests, the generator's lateness per paced arrival, and the
/// spans of all three client threads.
fn phase(
    setup: &Setup,
    paced: bool,
    window: Duration,
    traced: bool,
    cfg: &RunConfig,
    out: &mut Outcome,
) -> (Vec<Sample>, Vec<f64>, Vec<Span>) {
    let service = &setup.service;
    std::thread::scope(|scope| {
        let (interactive_tx, interactive_rx) = channel();
        let (bulk_tx, bulk_rx) = channel();
        let collectors = [(interactive_rx, 1), (bulk_rx, 2)].map(|(rx, thread)| {
            scope.spawn(move || collect(rx, Recorder::new(traced, cfg.epoch, thread)))
        });

        let mut rec = Recorder::new(traced, cfg.epoch, 0);
        let mut lags = Vec::new();
        let start = Instant::now();
        for (i, arrival) in (0u64..).zip(setup.arrivals.iter().cycle()) {
            let due = if paced {
                if i as usize >= setup.arrivals.len() {
                    break;
                }
                let due = start + arrival.at;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    // wall-clock: open-loop pacing of the arrival schedule.
                    std::thread::sleep(wait);
                }
                lags.push(Instant::now().duration_since(due).as_secs_f64());
                due
            } else {
                if start.elapsed() >= window {
                    break;
                }
                Instant::now()
            };
            let record = &setup.records[arrival.record];
            out.attempted += 1;
            let span = rec.begin("hypergraph.format.parse", i);
            let parsed = format::parse(&record.text);
            rec.end(span);
            let g = match parsed {
                Ok(g) => Arc::new(g),
                Err(e) => {
                    out.failed += 1;
                    out.gate_failures
                        .push(format!("serve_mixed: record parse: {e}"));
                    continue;
                }
            };
            let opts = SubmitOptions {
                class: record.class,
                deadline: None,
            };
            let span = rec.begin("core.service.submit", i);
            let submitted = service.submit_with(g, EPSILON, opts);
            rec.end(span);
            let ticket = match submitted {
                Ok(ticket) => ticket,
                Err(e) => {
                    out.failed += 1;
                    out.gate_failures.push(format!("serve_mixed: submit: {e}"));
                    continue;
                }
            };
            let pending = Pending {
                ticket,
                record: arrival.record,
                class: record.class,
                due,
                submitted: Instant::now(),
            };
            let tx = match record.class {
                RequestClass::Interactive => &interactive_tx,
                RequestClass::Bulk => &bulk_tx,
            };
            tx.send(pending)
                .expect("the collector outlives the generator");
        }
        drop((interactive_tx, bulk_tx));
        let mut spans = rec.finish();
        let mut samples = Vec::new();
        for collector in collectors {
            let (collected, collector_spans) = collector.join().expect("a collector thread");
            samples.extend(collected);
            spans.extend(collector_spans);
        }
        out.failed += samples.iter().filter(|s| s.fingerprint.is_none()).count() as u64;
        (samples, lags, spans)
    })
}

/// Redeems one class's tickets in submission order.
fn collect(rx: Receiver<Pending>, mut rec: Recorder) -> (Vec<Sample>, Vec<Span>) {
    let mut samples = Vec::new();
    for p in rx {
        let span = rec.begin("core.service.wait", samples.len() as u64);
        let (result, timing) = p.ticket.wait_timed();
        rec.end(span);
        let resolved = Instant::now();
        let served = (p.submitted - p.due) + timing.queue + timing.run;
        let done = p.submitted + timing.queue + timing.run;
        let (fingerprint, rounds, messages) = match &result {
            Ok(r) => (
                Some(gates::fingerprint(r)),
                r.report.rounds,
                r.report.total_messages,
            ),
            Err(_) => (None, 0, 0),
        };
        samples.push(Sample {
            record: p.record,
            class: p.class,
            latency: served.as_secs_f64(),
            queue: timing.queue.as_secs_f64(),
            run: timing.run.as_secs_f64(),
            wake: resolved.saturating_duration_since(done).as_secs_f64(),
            resolved,
            fingerprint,
            rounds,
            messages,
        });
    }
    (samples, rec.finish())
}

fn latencies(samples: &[Sample], class: RequestClass) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class && s.fingerprint.is_some())
        .map(|s| s.latency)
        .collect()
}

/// Checks every served result against a sequential solve of its record
/// whose certificate verifies, and records the computed mailbox bytes of
/// the largest record.
fn verify(setup: &Setup, served: &Served, out: &mut Outcome) {
    let solver = MwhvcSolver::with_epsilon(EPSILON).expect("valid epsilon");
    let mut expected = Vec::with_capacity(setup.records.len());
    let mut ports = 0;
    for (i, record) in setup.records.iter().enumerate() {
        let g = format::parse(&record.text).expect("generated records parse");
        ports = ports.max(Topology::bipartite_incidence(&g).total_ports());
        match solver.solve(&g) {
            Ok(r) => {
                if let Err(e) = gates::certify(&g, &r, EPSILON) {
                    out.gate_failures
                        .push(format!("serve_mixed: record {i}: {e}"));
                }
                expected.push(Some(gates::fingerprint(&r)));
            }
            Err(e) => {
                out.gate_failures
                    .push(format!("serve_mixed: record {i}: {e}"));
                expected.push(None);
            }
        }
    }
    for s in served.open.iter().chain(&served.capacity_samples) {
        if s.fingerprint.is_some() && s.fingerprint != expected[s.record] {
            out.gate_failures.push(format!(
                "serve_mixed: a served result of record {} differs from its sequential solve",
                s.record
            ));
            break;
        }
    }
    let (slot, mailbox) = mailbox_bytes(ports);
    out.put("congest.engine.slot_bytes", slot as f64, 1);
    out.put("congest.engine.mailbox_bytes", mailbox as f64, 1);
}

fn layer_metrics(traced: &Served, untraced_p50: f64, out: &mut Outcome) {
    let spans = &traced.spans;
    let us = |xs: Vec<f64>| xs.into_iter().map(|x| x * 1e6).collect::<Vec<_>>();
    let class_ms = |class: RequestClass, f: fn(&Sample) -> f64| {
        traced
            .open
            .iter()
            .filter(|s| s.class == class)
            .map(|s| f(s) * 1e3)
            .collect::<Vec<_>>()
    };
    let interactive_queue = class_ms(RequestClass::Interactive, |s| s.queue);
    let bulk_queue = class_ms(RequestClass::Bulk, |s| s.queue);
    let wakes: Vec<f64> = traced.open.iter().map(|s| s.wake * 1e6).collect();
    out.put(
        "hypergraph.format.record_parse_us_p50",
        median(&us(durations_s(spans, "hypergraph.format.parse"))),
        1,
    );
    out.put(
        "core.service.submit_us_p99",
        quantile(&us(durations_s(spans, "core.service.submit")), 0.99),
        1,
    );
    out.put("core.service.wake_us_p50", median(&wakes), 1);
    out.put(
        "congest.pool.interactive_queue_wait_ms_p50",
        median(&interactive_queue),
        WORKERS,
    );
    out.put(
        "congest.pool.interactive_queue_wait_ms_p99",
        quantile(&interactive_queue, 0.99),
        WORKERS,
    );
    out.put(
        "congest.pool.bulk_queue_wait_ms_p50",
        median(&bulk_queue),
        WORKERS,
    );
    out.put(
        "congest.pool.bulk_queue_wait_ms_p99",
        quantile(&bulk_queue, 0.99),
        WORKERS,
    );
    out.put(
        "congest.pool.interactive_run_ms_p50",
        median(&class_ms(RequestClass::Interactive, |s| s.run)),
        WORKERS,
    );
    out.put(
        "congest.pool.bulk_run_ms_p50",
        median(&class_ms(RequestClass::Bulk, |s| s.run)),
        WORKERS,
    );
    out.put(
        "congest.pool.worker_busy_share",
        traced.worker_busy_share,
        WORKERS,
    );
    let lags_ms: Vec<f64> = traced.lags.iter().map(|l| l * 1e3).collect();
    out.put("bench.gen_lag_ms_p99", quantile(&lags_ms, 0.99), 1);
    let interactive = latencies(&traced.open, RequestClass::Interactive);
    out.put(
        "bench.trace_overhead",
        median(&interactive) / untraced_p50,
        WORKERS,
    );
}
