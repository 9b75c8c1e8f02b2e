//! The service's scheduling metrics: lock-free recording on the serving
//! hot path ([`Recorder`]) and the plain-data snapshot
//! [`SolveService::metrics`](crate::SolveService::metrics) hands out
//! ([`ServiceMetrics`]).
//!
//! All recording goes through the `dcover_congest::sync` facade atomics,
//! so conc-check can interpose on every load/store; the memory orderings
//! below are audited in `CONCURRENCY.md` (every `Relaxed` use carries a
//! `// relaxed:` justification, enforced by `xtask lint`).

use std::time::Duration;

use dcover_congest::sync::atomic::{AtomicU64, Ordering};

use crate::service::RequestClass;

/// Number of buckets in a [`LatencyHistogram`].
const LATENCY_BUCKETS: usize = 32;

/// Bucket index for a duration: bucket 0 holds sub-microsecond values,
/// bucket `i ≥ 1` holds `[2^(i−1), 2^i)` microseconds, and the last
/// bucket absorbs everything beyond ~2^30 µs (≈ 18 minutes).
fn latency_bucket(d: Duration) -> usize {
    let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    ((u64::BITS - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// A fixed-bucket latency histogram snapshot (log₂-spaced microsecond
/// buckets). Recording happens lock-free inside the service; this is the
/// plain-data copy a snapshot hands out.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Observation count per bucket; see [`LatencyHistogram::bucket_upper_bound`]
    /// for the bucket boundaries.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Total number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exclusive upper bound of bucket `i` (`Duration::MAX` for the last,
    /// open-ended bucket). Bucket 0 is `< 1 µs`; bucket `i ≥ 1` covers
    /// `[2^(i−1), 2^i)` µs.
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> Duration {
        if i + 1 >= LATENCY_BUCKETS {
            Duration::MAX
        } else {
            Duration::from_micros(1u64 << i)
        }
    }

    /// Conservative (upper-bound) estimate of the `q`-quantile
    /// (`0 < q ≤ 1`): the upper edge of the bucket holding the
    /// `⌈q·count⌉`-th observation. `None` when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let count = self.count();
        if count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        #[expect(
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation,
            reason = "q is in [0, 1], so the rank is in [0, count]"
        )]
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(Self::bucket_upper_bound(i));
            }
        }
        None
    }
}

/// Lock-free histogram recorder backing [`Recorder`].
#[derive(Debug, Default)]
struct AtomicHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl AtomicHistogram {
    fn record(&self, d: Duration) {
        // relaxed: independent monotonic counter; snapshots tolerate
        // observing concurrent recordings in any order.
        self.buckets[latency_bucket(d)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (o, b) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            // relaxed: bucket counts are self-contained values; a snapshot
            // is an instantaneous statistical read, not a synchronization.
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// Atomic per-class counters.
#[derive(Debug, Default)]
struct ClassCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    expired: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    panicked: AtomicU64,
    queue_wait: AtomicHistogram,
    run_time: AtomicHistogram,
}

impl ClassCounters {
    fn snapshot(&self) -> ClassMetrics {
        ClassMetrics {
            // relaxed: statistical snapshot of independent counters; the
            // drained-service identity is guaranteed by the queue mutex
            // (all recordings happen-before the ticket resolution the
            // caller synchronized with), not by these loads.
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
            run_time: self.run_time.snapshot(),
        }
    }
}

/// Number of samples in the rolling interactive queue-wait window.
const WAIT_WINDOW: usize = 64;

/// Rolling window of the most recent interactive queue waits, backing
/// the SLO signal for admission control: a fixed ring of microsecond
/// samples (stored `+1` so zero means "empty slot"), overwritten
/// lock-free in dequeue order.
///
/// Ordering audit: sample *stores* publish with `Release` and the p99
/// reader *loads* with `Acquire`, so a dequeue's recorded wait
/// happens-before any admission decision that observes it — the shed gate
/// never decides on a window whose visible samples lag the dequeues that
/// produced them. The cursor stays relaxed: slot assignment only needs
/// the atomicity of `fetch_add`, and no other memory is published through
/// it.
struct WaitWindow {
    samples: [AtomicU64; WAIT_WINDOW],
    cursor: AtomicU64,
}

impl Default for WaitWindow {
    fn default() -> Self {
        WaitWindow {
            samples: std::array::from_fn(|_| AtomicU64::new(0)),
            cursor: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for WaitWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitWindow")
            // relaxed: debug output only; no ordering requirement.
            .field("cursor", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl WaitWindow {
    fn record(&self, waited: Duration) {
        let micros = u64::try_from(waited.as_micros()).unwrap_or(u64::MAX - 1);
        // relaxed: the fetch_add only claims a unique slot (atomicity
        // suffices); the sample itself is published below with Release.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below WAIT_WINDOW, a usize"
        )]
        let slot = (self.cursor.fetch_add(1, Ordering::Relaxed) % WAIT_WINDOW as u64) as usize;
        self.samples[slot].store(micros.saturating_add(1), Ordering::Release);
    }

    /// The p99 over the samples currently in the window (`None` while
    /// empty). The copy-and-sort is bounded by [`WAIT_WINDOW`]; callers
    /// are admission-control paths, not the worker hot path.
    fn p99(&self) -> Option<Duration> {
        let mut vals = [0u64; WAIT_WINDOW];
        let mut n = 0;
        for sample in &self.samples {
            let v = sample.load(Ordering::Acquire);
            if v != 0 {
                vals[n] = v;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        vals[..n].sort_unstable();
        let rank = (n * 99).div_ceil(100).max(1);
        Some(Duration::from_micros(vals[rank - 1] - 1))
    }
}

/// Plain-data snapshot of one request class's counters, part of a
/// [`ServiceMetrics`] snapshot.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassMetrics {
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Submissions a worker ran to the end of their solve — including a
    /// solve that stopped mid-run on a cancel or a deadline (the ticket's
    /// own result carries that outcome).
    pub completed: u64,
    /// Submissions discarded at dequeue because their deadline had passed.
    pub expired: u64,
    /// Submissions discarded at dequeue because
    /// [`Ticket::cancel`](crate::Ticket::cancel) landed while they were
    /// queued.
    pub cancelled: u64,
    /// Non-blocking submissions refused with
    /// [`SubmitError::Backpressure`](crate::SubmitError::Backpressure).
    pub rejected: u64,
    /// Bulk submissions refused by SLO admission control
    /// ([`SubmitError::Overloaded`](crate::SubmitError::Overloaded))
    /// before reaching the queue.
    pub shed: u64,
    /// Submissions whose solve panicked on a worker.
    pub panicked: u64,
    /// Queue-wait distribution, from entering the queue to leaving it;
    /// includes expired and cancelled submissions, whose wait ended at
    /// the discard.
    pub queue_wait: LatencyHistogram,
    /// Solve-time distribution (completed and panicked submissions).
    pub run_time: LatencyHistogram,
}

/// A point-in-time snapshot of the service's scheduling metrics, from
/// [`SolveService::metrics`](crate::SolveService::metrics).
///
/// Per-class [`ClassMetrics`] carry
/// submitted/completed/expired/cancelled/shed/rejected counters plus
/// queue-wait and solve-time latency histograms. Counters accumulate for
/// the service's lifetime and survive
/// [`shutdown`](crate::SolveService::shutdown).
///
/// # Counter identities
///
/// Per class, every accepted submission resolves exactly one way — the
/// ledger the conc-check scenarios assert across explored interleavings:
///
/// ```text
/// submitted == completed + expired + cancelled + panicked   (once drained)
/// ```
///
/// `rejected` and `shed` count submissions that never entered the queue,
/// so they sit outside the identity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Interactive-class counters and histograms.
    pub interactive: ClassMetrics,
    /// Bulk-class counters and histograms.
    pub bulk: ClassMetrics,
    /// Highest number of submissions ever waiting in the queue at once
    /// (both classes combined).
    pub queue_depth_high_water: u64,
    /// Total time workers spent running solves.
    pub worker_busy: Duration,
    /// Rolling p99 of recent interactive queue waits — the SLO signal
    /// admission control sheds on
    /// ([`SolveService::with_shed_target`](crate::SolveService::with_shed_target)).
    /// `None` until an interactive submission has been dequeued.
    pub interactive_wait_p99: Option<Duration>,
}

impl ServiceMetrics {
    /// The snapshot for one request class.
    #[must_use]
    pub fn class(&self, class: RequestClass) -> &ClassMetrics {
        match class {
            RequestClass::Interactive => &self.interactive,
            RequestClass::Bulk => &self.bulk,
        }
    }
}

/// The service's metrics sink: per-class counters and latency
/// histograms, the queue-depth high-water mark, total worker busy time
/// and the rolling interactive queue-wait window. Every recording is a
/// handful of atomic adds — no allocation, no locks — so it sits on the
/// serving hot path for free.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    classes: [ClassCounters; RequestClass::COUNT],
    depth_high_water: AtomicU64,
    busy_nanos: AtomicU64,
    interactive_waits: WaitWindow,
}

impl Recorder {
    fn class(&self, class: RequestClass) -> &ClassCounters {
        &self.classes[class.index()]
    }

    /// The plain-data snapshot of everything recorded so far.
    pub(crate) fn snapshot(&self) -> ServiceMetrics {
        ServiceMetrics {
            interactive: self.class(RequestClass::Interactive).snapshot(),
            bulk: self.class(RequestClass::Bulk).snapshot(),
            // relaxed: monotonic max and sum, read for reporting only.
            queue_depth_high_water: self.depth_high_water.load(Ordering::Relaxed),
            worker_busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
            interactive_wait_p99: self.interactive_wait_p99(),
        }
    }

    /// Rolling p99 of the most recent interactive queue waits (a fixed
    /// window of the last 64 interactive dequeues, expiries and
    /// cancellations included). `None` until the first interactive
    /// submission is dequeued. Unlike the cumulative
    /// [`ClassMetrics::queue_wait`] histogram, this *forgets* old
    /// traffic, so it tracks the current load level — the signal
    /// SLO-driven admission control keys off.
    pub(crate) fn interactive_wait_p99(&self) -> Option<Duration> {
        self.interactive_waits.p99()
    }

    /// Records a submission refused by admission control before it
    /// reached the queue; shed traffic stays distinct from queue-full
    /// `rejected` traffic.
    pub(crate) fn record_shed(&self, class: RequestClass) {
        // relaxed: independent monotonic counter (outside the ledger
        // identity; never a synchronization carrier).
        self.class(class).shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_submitted(&self, class: RequestClass, depth_now: usize) {
        // relaxed: counted under the queue mutex (push path), which
        // provides the cross-thread ordering; the atomic only makes the
        // increment tear-free for concurrent snapshot readers.
        self.class(class).submitted.fetch_add(1, Ordering::Relaxed);
        // relaxed: monotonic max; fetch_max atomicity suffices.
        self.depth_high_water
            .fetch_max(depth_now as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self, class: RequestClass) {
        // relaxed: independent monotonic counter, outside the ledger.
        self.class(class).rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_dequeued(&self, class: RequestClass, waited: Duration) {
        self.class(class).queue_wait.record(waited);
        if class == RequestClass::Interactive {
            self.interactive_waits.record(waited);
        }
    }

    pub(crate) fn record_expired(&self, class: RequestClass) {
        // relaxed: ledger counter; recorded on the dequeue path before the
        // ticket resolves, and every observer of the drained identity
        // synchronizes via the ticket slot / worker join, not this atomic.
        self.class(class).expired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cancelled(&self, class: RequestClass) {
        // relaxed: ledger counter; see record_expired.
        self.class(class).cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_ran(&self, class: RequestClass, run: Duration, panicked: bool) {
        let c = self.class(class);
        c.run_time.record(run);
        let outcome = if panicked { &c.panicked } else { &c.completed };
        // relaxed: ledger counter; see record_expired.
        outcome.fetch_add(1, Ordering::Relaxed);
        // relaxed: monotonic sum; only read for reporting.
        self.busy_nanos.fetch_add(
            u64::try_from(run.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        assert_eq!(latency_bucket(Duration::ZERO), 0);
        assert_eq!(latency_bucket(Duration::from_micros(1)), 1);
        assert_eq!(latency_bucket(Duration::from_micros(2)), 2);
        assert_eq!(latency_bucket(Duration::from_micros(3)), 2);
        assert_eq!(latency_bucket(Duration::from_micros(1024)), 11);
        assert_eq!(latency_bucket(Duration::from_secs(86_400)), 31);

        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.99), None);
        // 99 fast observations (bucket 1: [1, 2) µs), one slow (bucket 11).
        h.buckets[1] = 99;
        h.buckets[11] = 1;
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(2)));
        assert_eq!(h.quantile(0.99), Some(Duration::from_micros(2)));
        assert_eq!(h.quantile(1.0), Some(Duration::from_micros(2048)));
    }

    #[test]
    fn rolling_interactive_wait_p99_tracks_recent_traffic_only() {
        let m = Recorder::default();
        assert_eq!(m.interactive_wait_p99(), None);
        // Bulk dequeues never touch the interactive window.
        m.record_dequeued(RequestClass::Bulk, Duration::from_millis(500));
        assert_eq!(m.interactive_wait_p99(), None);
        // Fill the window with slow waits, then overwrite it with fast
        // ones: the rolling p99 must forget the old traffic (the
        // cumulative histogram would not).
        for _ in 0..WAIT_WINDOW {
            m.record_dequeued(RequestClass::Interactive, Duration::from_millis(200));
        }
        assert!(m.interactive_wait_p99().unwrap() >= Duration::from_millis(200));
        for _ in 0..WAIT_WINDOW {
            m.record_dequeued(RequestClass::Interactive, Duration::from_micros(50));
        }
        assert!(m.interactive_wait_p99().unwrap() < Duration::from_millis(1));
    }

    #[test]
    fn shed_counter_is_distinct_from_rejected() {
        let m = Recorder::default();
        m.record_shed(RequestClass::Bulk);
        m.record_shed(RequestClass::Bulk);
        m.record_rejected(RequestClass::Bulk);
        let snapshot = m.snapshot();
        assert_eq!(snapshot.bulk.shed, 2);
        assert_eq!(snapshot.bulk.rejected, 1);
        assert_eq!(snapshot.interactive.shed, 0);
    }
}
