//! `dcover serve` — the streaming front end over
//! [`SolveService`](dcover_core::SolveService).
//!
//! Instances are read from **stdin as they arrive** (concatenated in the
//! [`dcover_hypergraph::format`] text format — a new `p …` header starts
//! the next record) and submitted to the service the moment they parse;
//! one JSON line per record goes to stdout **in completion order**,
//! tagged with a 0-based `seq` id in arrival order so a consumer can
//! re-associate responses with requests. Solves overlap with reading: a
//! slow instance does not block the results of fast ones submitted after
//! it.
//!
//! Two record kinds share the stream:
//!
//! * `p mwhvc n m` — a full instance, cold-solved as before;
//! * `p delta <base> <r> <a> <w> [eps]` — a **revision** of the record
//!   whose `seq` is `<base>`: the reader applies the edge/weight delta
//!   to that record's instance, seeds the re-solve with its dual packing
//!   ([`WarmState::for_delta`]) and hands both to the service, which
//!   **warm-starts** it ([`SolveService::submit_warm`]). Without its own
//!   ε a revision inherits its base's. Deltas chain — a delta may
//!   reference an earlier delta's `seq`. If the base is still in flight
//!   when its delta arrives, the reader waits for it (a revision cannot
//!   be resolved before its predecessor). The reader keeps the instance,
//!   result and ε of its last 256 records; a delta naming an older record
//!   gets an error line. Result lines for revisions carry `"warm": true`
//!   and `"base": <seq>`.
//!
//! # Scheduling classes and deadlines
//!
//! `--class interactive|bulk` sets the stream-wide request class
//! (default `bulk`) and `--deadline-ms N` a stream-wide queue deadline;
//! both can be overridden **per record** with comment directives placed
//! inside the record (they are ordinary `c` comment lines, so the
//! instance format is unchanged):
//!
//! ```text
//! p mwhvc 3 2
//! c @class interactive
//! c @deadline-ms 50
//! v 10
//! …
//! ```
//!
//! Interactive records dequeue before queued bulk records (FIFO within a
//! class). Deadlines cover the record's **whole lifecycle**: a record
//! still queued when its deadline passes is discarded without occupying
//! a worker, and one already solving stops cooperatively at its next
//! round boundary — either way it resolves as an `"ok": false,
//! "expired": true` line.
//!
//! # Cancellation, aging, and shedding
//!
//! * `c @cancel SEQ` — a standalone comment line (outside record bodies
//!   it is processed the moment it is read, never buffered) abandons the
//!   in-flight record with reader seq `SEQ`: still queued, it is
//!   discarded; already solving, it stops at the next round boundary.
//!   The record resolves as an `"ok": false, "cancelled": true` line. A
//!   cancel that arrives after the solve finished is a no-op (the result
//!   line is emitted normally).
//! * `--bulk-max-wait-ms N` — anti-starvation aging: a bulk record
//!   queued at least `N` ms is dequeued ahead of younger interactive
//!   records, so an interactive flood cannot starve bulk forever.
//! * `--shed-target-ms N` — SLO-driven admission control: while the
//!   rolling interactive queue-wait p99 exceeds `N` ms, new bulk
//!   records are **shed** at the door (an `"ok": false, "shed": true`
//!   line; nothing is enqueued). Interactive records are never shed.
//!
//! # Exit-code contract
//!
//! The exit code reflects **failures only** (parse errors, solver
//! errors, panics). Expired, cancelled, and shed records are load
//! management doing its job — they are counted and reported separately
//! (summary line and `--metrics`) and never fail the exit code.
//!
//! # Latency accounting
//!
//! Every result line carries `queue_ms` (time waiting in the submission
//! queue) and `solve_ms` (time on the worker), fed from the service's
//! per-ticket metrics, plus `parse_ms` (reader-side parse time, spent
//! before submission). `latency_ms` is **defined as the sum
//! `queue_ms + solve_ms`** — earlier versions reported one
//! wall-clock-from-submission number that conflated queue wait with
//! solve time and dropped parse time entirely.
//!
//! With `--metrics`, one final `{"metrics": …}` JSON line follows the
//! last result: per-class
//! submitted/completed/expired/cancelled/shed/rejected counters and
//! queue-wait/solve-time quantiles (from the service's fixed-bucket
//! histograms), the queue-depth high-water mark, worker busy time, and
//! the rolling interactive queue-wait p99 (the shedding signal).
//!
//! The submission queue is bounded (`--queue`); when it fills, the reader
//! applies natural backpressure by blocking on `submit` until a worker
//! frees a slot — stdin is simply consumed more slowly instead of
//! buffering without limit.

use std::collections::{BTreeMap, VecDeque};
use std::io::BufRead as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcover_core::{
    ClassMetrics, CoverResult, LatencyHistogram, RequestClass, ServiceMetrics, SolveError,
    SolveService, SubmitError, SubmitOptions, Ticket, WarmState,
};
use dcover_hypergraph::{format, Hypergraph};

use super::{default_threads, result_json, runtime, usage};
use crate::args;
use crate::json::Obj;
use crate::out::Stdout;
use crate::Failure;

/// One submitted record awaiting completion.
struct Pending {
    seq: u64,
    /// The record this revision was applied to, for warm submissions.
    base: Option<u64>,
    /// The ε this record was solved with (deltas may override the
    /// stream's ε per record).
    eps: f64,
    /// The request class this record was scheduled under.
    class: RequestClass,
    /// Reader-side parse time, spent before submission.
    parse_ms: f64,
    ticket: Ticket,
    g: Arc<Hypergraph>,
}

/// What became of an already-emitted record, kept so later delta records
/// can resolve their base `seq`.
enum Outcome {
    /// Solved fine: everything a revision of it needs. `eps` is the ε the
    /// record was actually solved with (a chained delta without its own
    /// override inherits it — not the stream default).
    Solved {
        g: Arc<Hypergraph>,
        result: Box<CoverResult>,
        eps: f64,
    },
    /// Parse, submit, solve, or deadline failure — deltas against it are
    /// refused.
    Failed,
}

/// How many record outcomes the reader retains: the warm-start horizon.
/// A delta may name any of the last `OUTCOME_RETENTION` records as its
/// base; the bound keeps a long-running stream's memory flat.
const OUTCOME_RETENTION: usize = 256;

/// Running totals for the stderr summary and the exit code. Only
/// `failed` affects the exit code: expired, cancelled, and shed records
/// are load management, counted and reported separately.
#[derive(Default)]
struct Totals {
    ok: usize,
    failed: usize,
    /// Deadline expiries (queued discard or mid-run stop).
    expired: usize,
    /// Records abandoned by a `c @cancel SEQ` directive.
    cancelled: usize,
    /// Bulk records refused at the door by SLO shedding.
    shed: usize,
    warm: usize,
}

impl Totals {
    fn records(&self) -> usize {
        self.ok + self.failed + self.expired + self.cancelled + self.shed
    }
}

/// The reader-side stream state: everything the emit/poll helpers touch.
struct Stream {
    service: SolveService,
    eps: f64,
    /// Stream-wide scheduling defaults (`--class` / `--deadline-ms`),
    /// overridable per record by `c @class` / `c @deadline-ms`
    /// directives.
    defaults: SubmitOptions,
    next_seq: u64,
    pending: Vec<Pending>,
    /// Bounded at [`OUTCOME_RETENTION`]; insertion order in `outcome_log`.
    outcomes: BTreeMap<u64, Outcome>,
    outcome_log: VecDeque<u64>,
    totals: Totals,
    out: Stdout,
}

/// Recognizes a `c @cancel SEQ` directive line, returning the raw seq
/// operand (empty if missing).
fn cancel_directive(line: &str) -> Option<&str> {
    let mut words = line.split_whitespace();
    (words.next() == Some("c") && words.next() == Some("@cancel"))
        .then(|| words.next().unwrap_or(""))
}

/// Parses a `--class` style value.
fn parse_class(raw: &str) -> Result<RequestClass, String> {
    match raw {
        "interactive" => Ok(RequestClass::Interactive),
        "bulk" => Ok(RequestClass::Bulk),
        other => Err(format!(
            "unknown class `{other}` (expected `interactive` or `bulk`)"
        )),
    }
}

/// `dcover serve [--eps E] [--threads N] [--queue C] [--variant V]
/// [--class interactive|bulk] [--deadline-ms N] [--bulk-max-wait-ms N]
/// [--shed-target-ms N] [--metrics]`
pub(crate) fn serve(raw: &[String]) -> Result<(), Failure> {
    let parsed = args::parse(
        raw,
        &["metrics"],
        &[
            "eps",
            "threads",
            "queue",
            "variant",
            "class",
            "deadline-ms",
            "bulk-max-wait-ms",
            "shed-target-ms",
        ],
    )
    .map_err(usage)?;
    if !parsed.positional.is_empty() {
        return Err(usage(
            "serve reads instances from stdin and takes no positional arguments".to_string(),
        ));
    }
    let config = super::config_from(&parsed)?;
    let eps = config.epsilon();
    let threads: usize = parsed
        .value_or("threads", default_threads())
        .map_err(usage)?;
    if threads == 0 {
        return Err(usage("--threads must be at least 1".to_string()));
    }
    let queue: usize = parsed.value_or("queue", 4 * threads).map_err(usage)?;
    if queue == 0 {
        return Err(usage("--queue must be at least 1".to_string()));
    }
    let class = match parsed.value("class") {
        None => RequestClass::Bulk,
        Some(raw) => parse_class(raw).map_err(usage)?,
    };
    let ms_flag = |name: &str| -> Result<Option<Duration>, Failure> {
        match parsed.value(name) {
            None => Ok(None),
            Some(raw) => {
                let ms: u64 = raw
                    .parse()
                    .map_err(|_| usage(format!("invalid value `{raw}` for --{name}")))?;
                Ok(Some(Duration::from_millis(ms)))
            }
        }
    };
    let deadline = ms_flag("deadline-ms")?;
    let bulk_max_wait = ms_flag("bulk-max-wait-ms")?;
    let shed_target = ms_flag("shed-target-ms")?;
    let emit_metrics = parsed.switch("metrics");

    let mut service = SolveService::with_queue_capacity(config, threads, queue);
    if let Some(bound) = bulk_max_wait {
        service = service.with_bulk_max_wait(bound);
    }
    if let Some(target) = shed_target {
        service = service.with_shed_target(target);
    }
    let mut stream = Stream {
        service,
        eps,
        defaults: SubmitOptions { class, deadline },
        next_seq: 0,
        pending: Vec::new(),
        outcomes: BTreeMap::new(),
        outcome_log: VecDeque::new(),
        totals: Totals::default(),
        out: Stdout::default(),
    };

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut have_header = false;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| runtime(format!("reading stdin: {e}")))?;
        // Cancellation is time-sensitive: a `c @cancel SEQ` line acts the
        // moment it is read (even between the lines of a record) and is
        // never buffered into a record body.
        if let Some(target) = cancel_directive(&line) {
            stream.cancel(target);
            stream.poll_completed()?;
            continue;
        }
        let is_header = line.split_whitespace().next() == Some("p");
        if is_header && have_header {
            stream.submit(&buffer)?;
            buffer.clear();
            have_header = false;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        have_header |= is_header;
        // Emit whatever has completed since the last line (completion
        // order), without blocking the reader.
        stream.poll_completed()?;
        if stream.out.closed() {
            break; // nobody reads the results any more
        }
    }
    if !stream.out.closed()
        && buffer.lines().any(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('c')
        })
    {
        stream.submit(&buffer)?;
    }

    // Stdin is exhausted (or stdout closed): drain the in-flight solves,
    // still emitting in completion order.
    while !stream.pending.is_empty() {
        if stream.out.closed() {
            // Nobody reads the results: abandon what is still in flight.
            for p in &stream.pending {
                p.ticket.cancel();
            }
        }
        stream.poll_completed()?;
        if !stream.pending.is_empty() {
            // wall-clock: poll backoff — tickets expose only non-blocking
            // try_wait, so the drain loop naps between sweeps instead of
            // burning a core.
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    stream.service.shutdown();

    if emit_metrics {
        let metrics = metrics_json(&stream.service.metrics(), &stream.totals);
        stream.out.line(metrics)?;
    }

    let totals = &stream.totals;
    eprintln!(
        "serve: {} records, {} ok ({} warm-started), {} expired, {} cancelled, {} shed, {} failed ({threads} threads, queue {queue})",
        totals.records(),
        totals.ok,
        totals.warm,
        totals.expired,
        totals.cancelled,
        totals.shed,
        totals.failed,
    );
    // Exit-code contract: only genuine failures (parse/solver errors,
    // panics) fail the run — expired, cancelled, and shed records are
    // load management, not errors.
    if totals.failed > 0 {
        return Err(runtime(format!("{} records failed", totals.failed)));
    }
    Ok(())
}

impl Stream {
    /// Parses one framed chunk (instance or delta record) and submits it;
    /// a parse or submit failure emits its error line immediately (it
    /// never occupies a queue slot).
    fn submit(&mut self, text: &str) -> Result<(), Failure> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let opts = match self.record_options(text) {
            Ok(opts) => opts,
            Err(e) => return self.emit_error(seq, &format!("stdin record {seq}: {e}")),
        };
        let header_is_delta = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some("p"))
            .is_some_and(format::is_delta_header);
        if header_is_delta {
            self.submit_delta(seq, text, opts)
        } else {
            self.submit_instance(seq, text, opts)
        }
    }

    /// Handles a `c @cancel SEQ` directive: cooperatively abandons the
    /// pending record with that reader seq (still queued → discarded;
    /// already solving → stopped at its next round boundary). A seq that
    /// is unknown or already resolved is a benign no-op — the cancel
    /// simply lost the race.
    fn cancel(&mut self, raw: &str) {
        match raw.parse::<u64>() {
            Ok(seq) => {
                if let Some(p) = self.pending.iter().find(|p| p.seq == seq) {
                    p.ticket.cancel();
                }
            }
            Err(_) => {
                eprintln!("serve: ignoring malformed directive `c @cancel {raw}` (seq expected)");
            }
        }
    }

    /// Resolves the record's scheduling envelope: the stream-wide
    /// `--class` / `--deadline-ms` defaults, overridden by `c @class` /
    /// `c @deadline-ms` comment directives inside the record.
    fn record_options(&self, text: &str) -> Result<SubmitOptions, String> {
        let mut opts = self.defaults;
        for line in text.lines() {
            let mut words = line.split_whitespace();
            if words.next() != Some("c") {
                continue;
            }
            match words.next() {
                Some("@class") => {
                    let value = words.next().ok_or("`c @class` needs a value")?;
                    opts.class = parse_class(value)?;
                }
                Some("@deadline-ms") => {
                    let value = words.next().ok_or("`c @deadline-ms` needs a value")?;
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| format!("invalid `c @deadline-ms` value `{value}`"))?;
                    opts.deadline = Some(Duration::from_millis(ms));
                }
                _ => {} // ordinary comment
            }
        }
        Ok(opts)
    }

    fn submit_instance(
        &mut self,
        seq: u64,
        text: &str,
        opts: SubmitOptions,
    ) -> Result<(), Failure> {
        let parse_start = Instant::now();
        let parsed = format::parse(text);
        let parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
        match parsed {
            Ok(g) => {
                let g = Arc::new(g);
                match self.service.submit_with(Arc::clone(&g), self.eps, opts) {
                    Ok(ticket) => {
                        self.pending.push(Pending {
                            seq,
                            base: None,
                            eps: self.eps,
                            class: opts.class,
                            parse_ms,
                            ticket,
                            g,
                        });
                        Ok(())
                    }
                    Err(SubmitError::Overloaded { .. }) => self.emit_shed(seq, opts.class),
                    Err(e) => self.emit_error(seq, &e.to_string()),
                }
            }
            Err(e) => self.emit_error(seq, &format!("stdin record {seq}: {e}")),
        }
    }

    /// A delta record: resolve the base (waiting out its solve if it is
    /// still in flight — a revision needs its predecessor's duals), apply
    /// the delta to it, and submit the revision warm, seeded from the
    /// base's result.
    fn submit_delta(&mut self, seq: u64, text: &str, opts: SubmitOptions) -> Result<(), Failure> {
        let parse_start = Instant::now();
        let record = match format::parse_delta(text) {
            Ok(record) => record,
            Err(e) => return self.emit_error(seq, &format!("stdin record {seq}: {e}")),
        };
        let parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
        let base = record.base;
        if base >= seq {
            return self.emit_error(
                seq,
                &format!(
                    "delta record {seq} references base {base}, which is not an earlier record"
                ),
            );
        }
        // Wait until the base record has resolved one way or the other.
        while !self.outcomes.contains_key(&base) {
            if !self.pending.iter().any(|p| p.seq == base) {
                // Neither pending nor kept: every earlier record that is
                // not pending was given an outcome, so this one has
                // fallen out of the retention window.
                break;
            }
            self.poll_completed()?;
            // wall-clock: poll backoff between try_wait sweeps while the
            // base solve is still in flight (see the drain loop above).
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let revision = match self.outcomes.get(&base) {
            // Without an override the revision inherits the ε its *base*
            // was solved with, so the emitted result line reports the ε
            // actually used.
            Some(Outcome::Solved { g, result, eps }) => match record.delta.apply(g) {
                Ok(applied) => Ok((
                    WarmState::for_delta(result, &applied),
                    Arc::new(applied.graph),
                    record.epsilon.unwrap_or(*eps),
                )),
                Err(e) => Err(format!("invalid submission: delta failed to apply: {e}")),
            },
            Some(Outcome::Failed) => Err(format!(
                "base record {base} failed; cannot warm-start from it"
            )),
            None => Err(format!(
                "unknown base record {base} (never solved, or past the retention window)"
            )),
        };
        let (warm, g, eps) = match revision {
            Ok(revision) => revision,
            Err(message) => return self.emit_error(seq, &message),
        };
        match self.service.submit_warm(Arc::clone(&g), eps, warm, opts) {
            Ok(ticket) => {
                self.pending.push(Pending {
                    seq,
                    base: Some(base),
                    eps,
                    class: opts.class,
                    parse_ms,
                    ticket,
                    g,
                });
                Ok(())
            }
            Err(SubmitError::Overloaded { .. }) => self.emit_shed(seq, opts.class),
            Err(e) => self.emit_error(seq, &e.to_string()),
        }
    }

    /// Emits every finished solve (non-blocking); unfinished tickets stay.
    fn poll_completed(&mut self) -> Result<(), Failure> {
        let drained: Vec<Pending> = self.pending.drain(..).collect();
        let mut still = Vec::with_capacity(drained.len());
        for entry in drained {
            let Pending {
                seq,
                base,
                eps,
                class,
                parse_ms,
                ticket,
                g,
            } = entry;
            match ticket.try_wait_timed() {
                Ok((outcome, timing)) => {
                    let queue_ms = timing.queue.as_secs_f64() * 1e3;
                    let solve_ms = timing.run.as_secs_f64() * 1e3;
                    match outcome {
                        Ok(result) => {
                            let mut line = Obj::new()
                                .num("seq", seq)
                                .bool("ok", true)
                                .num("n", g.n())
                                .num("m", g.m())
                                .num("rank", g.rank())
                                .float("epsilon", eps)
                                .str("class", class.name())
                                .bool("warm", base.is_some());
                            if let Some(base) = base {
                                line = line.num("base", base);
                            }
                            // latency_ms is *defined* as queue_ms +
                            // solve_ms; parse_ms is reader-side time spent
                            // before submission and reported separately.
                            let line = line
                                .raw("result", &result_json(&result))
                                .float("queue_ms", queue_ms)
                                .float("solve_ms", solve_ms)
                                .float("latency_ms", queue_ms + solve_ms)
                                .float("parse_ms", parse_ms)
                                .build();
                            self.out.line(line)?;
                            self.totals.ok += 1;
                            if base.is_some() {
                                self.totals.warm += 1;
                            }
                            self.record_outcome(
                                seq,
                                Outcome::Solved {
                                    g,
                                    result: Box::new(result),
                                    eps,
                                },
                            );
                        }
                        Err(SolveError::Expired { .. }) => {
                            self.emit_expired(seq, class, queue_ms)?;
                        }
                        Err(SolveError::Cancelled) => {
                            self.emit_cancelled(seq, class, queue_ms)?;
                        }
                        Err(e) => {
                            self.emit_error(seq, &e.to_string())?;
                        }
                    }
                }
                Err(ticket) => still.push(Pending {
                    seq,
                    base,
                    eps,
                    class,
                    parse_ms,
                    ticket,
                    g,
                }),
            }
        }
        self.pending = still;
        Ok(())
    }

    fn emit_error(&mut self, seq: u64, message: &str) -> Result<(), Failure> {
        let line = Obj::new()
            .num("seq", seq)
            .bool("ok", false)
            .str("error", message)
            .build();
        self.totals.failed += 1;
        self.record_outcome(seq, Outcome::Failed);
        self.out.line(line)
    }

    /// A deadline miss: typed load management, reported with its own
    /// field (and counted apart from failures — it does not fail the
    /// exit code).
    fn emit_expired(
        &mut self,
        seq: u64,
        class: RequestClass,
        queue_ms: f64,
    ) -> Result<(), Failure> {
        let line = Obj::new()
            .num("seq", seq)
            .bool("ok", false)
            .bool("expired", true)
            .str("class", class.name())
            .float("queue_ms", queue_ms)
            .str(
                "error",
                "deadline expired (discarded while queued, or stopped at a round boundary)",
            )
            .build();
        self.totals.expired += 1;
        self.record_outcome(seq, Outcome::Failed);
        self.out.line(line)
    }

    /// A `c @cancel` that landed: caller-requested abandonment, counted
    /// apart from failures — it does not fail the exit code.
    fn emit_cancelled(
        &mut self,
        seq: u64,
        class: RequestClass,
        queue_ms: f64,
    ) -> Result<(), Failure> {
        let line = Obj::new()
            .num("seq", seq)
            .bool("ok", false)
            .bool("cancelled", true)
            .str("class", class.name())
            .float("queue_ms", queue_ms)
            .str("error", "cancelled by `c @cancel` directive")
            .build();
        self.totals.cancelled += 1;
        self.record_outcome(seq, Outcome::Failed);
        self.out.line(line)
    }

    /// A bulk record refused at the door by SLO shedding: overload
    /// protection, counted apart from failures — it does not fail the
    /// exit code.
    fn emit_shed(&mut self, seq: u64, class: RequestClass) -> Result<(), Failure> {
        let line = Obj::new()
            .num("seq", seq)
            .bool("ok", false)
            .bool("shed", true)
            .str("class", class.name())
            .str(
                "error",
                "shed at admission: interactive queue-wait p99 over the shed target",
            )
            .build();
        self.totals.shed += 1;
        self.record_outcome(seq, Outcome::Failed);
        self.out.line(line)
    }

    /// Records a record's outcome, evicting the oldest beyond
    /// [`OUTCOME_RETENTION`] so a long-running stream stays bounded.
    fn record_outcome(&mut self, seq: u64, outcome: Outcome) {
        if self.outcomes.insert(seq, outcome).is_none() {
            self.outcome_log.push_back(seq);
            while self.outcome_log.len() > OUTCOME_RETENTION {
                if let Some(old) = self.outcome_log.pop_front() {
                    self.outcomes.remove(&old);
                }
            }
        }
    }
}

/// Renders a latency histogram as quantile fields (milliseconds; `null`
/// when the histogram is empty or the quantile falls in the open-ended
/// last bucket).
fn histogram_json(h: &LatencyHistogram) -> String {
    let q = |q: f64| -> f64 {
        match h.quantile(q) {
            Some(d) if d != Duration::MAX => d.as_secs_f64() * 1e3,
            _ => f64::NAN, // rendered as null by Obj::float
        }
    };
    Obj::new()
        .num("count", h.count())
        .float("p50_ms", q(0.5))
        .float("p90_ms", q(0.9))
        .float("p99_ms", q(0.99))
        .build()
}

fn class_json(c: &ClassMetrics) -> String {
    Obj::new()
        .num("submitted", c.submitted)
        .num("completed", c.completed)
        .num("expired", c.expired)
        .num("cancelled", c.cancelled)
        .num("shed", c.shed)
        .num("rejected", c.rejected)
        .num("panicked", c.panicked)
        .raw("queue_wait", &histogram_json(&c.queue_wait))
        .raw("solve_time", &histogram_json(&c.run_time))
        .build()
}

/// The `--metrics` end-of-stream summary line.
fn metrics_json(m: &ServiceMetrics, totals: &Totals) -> String {
    let inner = Obj::new()
        .num("records", totals.records())
        .num("ok", totals.ok)
        .num("warm", totals.warm)
        .num("expired", totals.expired)
        .num("cancelled", totals.cancelled)
        .num("shed", totals.shed)
        .num("failed", totals.failed)
        .raw("interactive", &class_json(&m.interactive))
        .raw("bulk", &class_json(&m.bulk))
        .num("queue_depth_high_water", m.queue_depth_high_water)
        .float("worker_busy_ms", m.worker_busy.as_secs_f64() * 1e3)
        .float(
            "interactive_wait_p99_ms",
            m.interactive_wait_p99
                .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3),
        )
        .build();
    Obj::new().raw("metrics", &inner).build()
}
