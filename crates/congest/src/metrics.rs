//! Round-level and run-level measurement of communication, plus the
//! scheduler metrics ([`SchedMetrics`]) shared by [`SimPool`] and the
//! serving layers.
//!
//! All scheduler recording goes through the [`crate::sync`] facade
//! atomics, so conc-check can interpose on every load/store; the memory
//! orderings below are audited in `CONCURRENCY.md` (every `Relaxed` use
//! carries a `// relaxed:` justification, enforced by `xtask lint`).
//!
//! [`SimPool`]: crate::SimPool

use crate::pool::TaskClass;
use crate::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Communication statistics for a single round.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Round number (0-based).
    pub round: u64,
    /// Messages sent this round.
    pub messages: u64,
    /// Total bits sent this round.
    pub bits: u64,
    /// Largest number of bits sent across any single directed link this
    /// round — the quantity the CONGEST `O(log n)` constraint bounds.
    pub max_link_bits: u64,
    /// Nodes still running at the start of the round.
    pub active_nodes: usize,
}

/// Aggregate statistics for an entire simulation run.
///
/// Equality (`PartialEq`) covers the protocol-level quantities only — the
/// determinism contract. The chunk-placement split
/// ([`intra_chunk_messages`](Self::intra_chunk_messages) /
/// [`cross_chunk_messages`](Self::cross_chunk_messages)) is *scheduler
/// observability*: it depends on the thread count and partition policy by
/// design (a sequential run is one chunk, so everything is intra-chunk)
/// and is deliberately excluded from equality.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Number of rounds executed.
    pub rounds: u64,
    /// Total messages across all rounds.
    pub total_messages: u64,
    /// Total bits across all rounds.
    pub total_bits: u64,
    /// Maximum bits over any directed link in any round.
    pub max_link_bits: u64,
    /// Whether every node halted by the end of the run.
    pub all_halted: bool,
    /// Messages delivered within the sending chunk (the engine's
    /// intra-chunk fast path — no staging-bucket round trip). Excluded
    /// from equality; see the type docs.
    pub intra_chunk_messages: u64,
    /// Messages that crossed a chunk boundary through the staging
    /// buckets. The quantity the locality partition policy minimizes.
    /// Excluded from equality; see the type docs.
    pub cross_chunk_messages: u64,
    /// Per-round trace; populated only when tracing is enabled on the
    /// simulator (it costs memory on long runs).
    pub per_round: Option<Vec<RoundMetrics>>,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
            && self.total_messages == other.total_messages
            && self.total_bits == other.total_bits
            && self.max_link_bits == other.max_link_bits
            && self.all_halted == other.all_halted
            && self.per_round == other.per_round
    }
}

impl SimReport {
    /// Folds one round's metrics into the aggregate (and into the trace if
    /// enabled).
    pub(crate) fn absorb(&mut self, rm: RoundMetrics, trace: bool) {
        self.rounds += 1;
        self.total_messages += rm.messages;
        self.total_bits += rm.bits;
        self.max_link_bits = self.max_link_bits.max(rm.max_link_bits);
        if trace {
            self.per_round.get_or_insert_with(Vec::new).push(rm);
        }
    }

    /// Folds one round's chunk-placement split into the aggregate:
    /// `messages` sent in total, of which `cross` crossed a chunk
    /// boundary.
    pub(crate) fn record_cut(&mut self, messages: u64, cross: u64) {
        self.cross_chunk_messages += cross;
        self.intra_chunk_messages += messages - cross;
    }

    /// Fraction of messages that crossed a chunk boundary (0 for runs
    /// that sent nothing — including every sequential run, which is a
    /// single chunk).
    #[must_use]
    pub fn cross_fraction(&self) -> f64 {
        let total = self.intra_chunk_messages + self.cross_chunk_messages;
        if total == 0 {
            0.0
        } else {
            self.cross_chunk_messages as f64 / total as f64
        }
    }

    /// Average messages per round (0 for empty runs).
    #[must_use]
    pub fn avg_messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_messages as f64 / self.rounds as f64
        }
    }
}

/// A hard per-link per-round bit budget: the concrete stand-in for the
/// CONGEST `O(log n)` bound.
///
/// # Examples
///
/// ```
/// use dcover_congest::BitBudget;
/// // Allow c·⌈log₂(#nodes)⌉ bits with the conventional constant c = 32.
/// let b = BitBudget::congest(1000, 32);
/// assert_eq!(b.bits(), 320);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BitBudget {
    bits: u64,
}

impl BitBudget {
    /// A budget of exactly `bits` bits per link per round.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    #[must_use]
    pub fn new(bits: u64) -> Self {
        // invariant: documented precondition (see `# Panics`) on a
        // construction-time config value — never reached from queue or
        // round state; solve paths validate budgets before building one.
        assert!(bits > 0, "budget must be positive");
        Self { bits }
    }

    /// The conventional CONGEST budget `c · ⌈log₂ n⌉` for an `n`-node
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `c == 0`.
    #[must_use]
    pub fn congest(n: usize, c: u64) -> Self {
        // invariant: documented precondition (see `# Panics`) on a
        // construction-time config value, as in `new`.
        assert!(n > 0 && c > 0, "need nodes and a positive constant");
        let log = (usize::BITS - (n - 1).leading_zeros()).max(1) as u64;
        Self::new(c * log)
    }

    /// The budget in bits.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut r = SimReport::default();
        r.absorb(
            RoundMetrics {
                round: 0,
                messages: 10,
                bits: 100,
                max_link_bits: 12,
                active_nodes: 5,
            },
            true,
        );
        r.absorb(
            RoundMetrics {
                round: 1,
                messages: 4,
                bits: 30,
                max_link_bits: 20,
                active_nodes: 5,
            },
            true,
        );
        assert_eq!(r.rounds, 2);
        assert_eq!(r.total_messages, 14);
        assert_eq!(r.total_bits, 130);
        assert_eq!(r.max_link_bits, 20);
        assert_eq!(r.per_round.as_ref().unwrap().len(), 2);
        assert!((r.avg_messages_per_round() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn no_trace_when_disabled() {
        let mut r = SimReport::default();
        r.absorb(RoundMetrics::default(), false);
        assert!(r.per_round.is_none());
    }

    #[test]
    fn cut_split_accumulates_but_stays_outside_equality() {
        let mut a = SimReport::default();
        let mut b = a.clone();
        a.record_cut(10, 4);
        a.record_cut(6, 0);
        assert_eq!(a.intra_chunk_messages, 12);
        assert_eq!(a.cross_chunk_messages, 4);
        assert!((a.cross_fraction() - 0.25).abs() < 1e-12);
        // The determinism contract compares protocol-level quantities
        // only: a parallel report with a different placement split still
        // equals the sequential one.
        b.record_cut(16, 16);
        assert_eq!(a, b);
        assert_eq!(SimReport::default().cross_fraction(), 0.0);
    }

    #[test]
    fn congest_budget_scales_logarithmically() {
        assert_eq!(BitBudget::congest(2, 1).bits(), 1);
        assert_eq!(BitBudget::congest(1024, 1).bits(), 10);
        assert_eq!(BitBudget::congest(1025, 1).bits(), 11);
        assert_eq!(BitBudget::congest(1024, 8).bits(), 80);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_panics() {
        let _ = BitBudget::new(0);
    }
}

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
/// buckets). Recording happens lock-free inside [`SchedMetrics`]; this is
/// the plain-data copy a snapshot hands out.
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

    /// Merges another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Lock-free histogram recorder backing [`SchedMetrics`].
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

/// Atomic per-class scheduler counters.
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

/// Plain-data snapshot of one class's scheduler counters, from
/// [`SchedMetrics::class`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassMetrics {
    /// Tasks accepted into the queue.
    pub submitted: u64,
    /// Tasks whose closure ran to completion.
    pub completed: u64,
    /// Tasks discarded at dequeue because their deadline had passed.
    pub expired: u64,
    /// Tasks discarded at dequeue because their [`CancelToken`] was
    /// cancelled while they were queued. A solve that stops *mid-run*
    /// via an [`Interrupt`](crate::Interrupt) counts as `completed` here
    /// (its worker ran it); the cancellation shows up in the task's own
    /// result.
    ///
    /// [`CancelToken`]: crate::CancelToken
    pub cancelled: u64,
    /// Non-blocking submissions refused with [`TrySubmitError::Full`].
    ///
    /// [`TrySubmitError::Full`]: crate::TrySubmitError::Full
    pub rejected: u64,
    /// Submissions refused by SLO admission control before reaching the
    /// queue (recorded by a serving layer via
    /// [`SchedMetrics::record_shed`]; the pool itself never sheds).
    pub shed: u64,
    /// Tasks whose closure panicked on a worker.
    pub panicked: u64,
    /// Queue-wait (enqueue → dequeue) distribution; includes expired
    /// tasks, whose wait ended at the discard.
    pub queue_wait: LatencyHistogram,
    /// Closure run-time distribution (completed and panicked tasks).
    pub run_time: LatencyHistogram,
}

/// Shared scheduler metrics: per-class counters and latency histograms,
/// the queue-depth high-water mark, and total worker busy time over task
/// jobs. Every recording is a handful of relaxed atomic adds — no
/// allocation, no locks — so it sits on the serving hot path for free.
///
/// Every [`SimPool`] owns one instance for its whole life;
/// [`SimPool::metrics`] hands out the shared handle, which stays readable
/// after the pool shuts down.
///
/// # Counter identities
///
/// The recorders below maintain, per class, the exactly-once ledger
/// invariant that conc-check asserts across explored interleavings:
///
/// ```text
/// submitted == completed + expired + cancelled + panicked   (once drained)
/// ```
///
/// `rejected` and `shed` count submissions that never entered the queue,
/// so they sit outside the identity.
///
/// [`SimPool`]: crate::SimPool
/// [`SimPool::metrics`]: crate::SimPool::metrics
#[derive(Debug, Default)]
pub struct SchedMetrics {
    classes: [ClassCounters; TaskClass::COUNT],
    depth_high_water: AtomicU64,
    busy_nanos: AtomicU64,
    interactive_waits: WaitWindow,
}

impl SchedMetrics {
    /// A fresh, all-zero metrics sink.
    #[must_use]
    pub fn new() -> Self {
        SchedMetrics::default()
    }

    /// Snapshot of one class's counters and histograms.
    #[must_use]
    pub fn class(&self, class: TaskClass) -> ClassMetrics {
        let c = &self.classes[class.index()];
        ClassMetrics {
            // relaxed: statistical snapshot of independent counters; the
            // drained-pool identity is guaranteed by the queue mutex (all
            // recordings happen-before the ticket resolution the caller
            // synchronized with), not by these loads.
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            queue_wait: c.queue_wait.snapshot(),
            run_time: c.run_time.snapshot(),
        }
    }

    /// Highest number of tasks ever waiting in the queue at once (both
    /// classes combined).
    #[must_use]
    pub fn queue_depth_high_water(&self) -> u64 {
        // relaxed: monotonic max read for reporting only.
        self.depth_high_water.load(Ordering::Relaxed)
    }

    /// Total time workers spent running task closures.
    #[must_use]
    pub fn busy(&self) -> Duration {
        // relaxed: monotonic sum read for reporting only.
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }

    /// Rolling p99 of the most recent interactive queue waits (a fixed
    /// window of the last 64 interactive dequeues, expiries and
    /// cancellations included). `None` until the first interactive task
    /// is dequeued. Unlike the cumulative [`ClassMetrics::queue_wait`]
    /// histogram, this *forgets* old traffic, so it tracks the current
    /// load level — the signal SLO-driven admission control keys off.
    #[must_use]
    pub fn interactive_wait_p99(&self) -> Option<Duration> {
        self.interactive_waits.p99()
    }

    /// Records a submission refused by SLO admission control **before**
    /// it reached the queue. The pool never calls this itself — a
    /// serving layer that sheds load on top of the pool does, so shed
    /// traffic stays distinct from queue-full `rejected` traffic in the
    /// same [`ClassMetrics`].
    pub fn record_shed(&self, class: TaskClass) {
        // relaxed: independent monotonic counter (outside the ledger
        // identity; never a synchronization carrier).
        self.classes[class.index()]
            .shed
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_submitted(&self, class: TaskClass, depth_now: usize) {
        // relaxed: counted under the queue mutex (pool push path), which
        // provides the cross-thread ordering; the atomic only makes the
        // increment tear-free for concurrent snapshot readers.
        self.classes[class.index()]
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        // relaxed: monotonic max; fetch_max atomicity suffices.
        self.depth_high_water
            .fetch_max(depth_now as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self, class: TaskClass) {
        // relaxed: independent monotonic counter, outside the ledger.
        self.classes[class.index()]
            .rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_dequeued(&self, class: TaskClass, waited: Duration) {
        self.classes[class.index()].queue_wait.record(waited);
        if class == TaskClass::Interactive {
            self.interactive_waits.record(waited);
        }
    }

    pub(crate) fn record_expired(&self, class: TaskClass) {
        // relaxed: ledger counter; recorded on the dequeue path before the
        // ticket resolves, and every observer of the drained identity
        // synchronizes via the ticket slot / pool join, not this atomic.
        self.classes[class.index()]
            .expired
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cancelled(&self, class: TaskClass) {
        // relaxed: ledger counter; see record_expired.
        self.classes[class.index()]
            .cancelled
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_ran(&self, class: TaskClass, run: Duration, panicked: bool) {
        let c = &self.classes[class.index()];
        c.run_time.record(run);
        if panicked {
            // relaxed: ledger counter; see record_expired.
            c.panicked.fetch_add(1, Ordering::Relaxed);
        } else {
            // relaxed: ledger counter; see record_expired.
            c.completed.fetch_add(1, Ordering::Relaxed);
        }
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
        let mut other = LatencyHistogram::default();
        other.buckets[1] = 1;
        h.merge(&other);
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn rolling_interactive_wait_p99_tracks_recent_traffic_only() {
        let m = SchedMetrics::new();
        assert_eq!(m.interactive_wait_p99(), None);
        // Bulk dequeues never touch the interactive window.
        m.record_dequeued(TaskClass::Bulk, Duration::from_millis(500));
        assert_eq!(m.interactive_wait_p99(), None);
        // Fill the window with slow waits, then overwrite it with fast
        // ones: the rolling p99 must forget the old traffic (the
        // cumulative histogram would not).
        for _ in 0..WAIT_WINDOW {
            m.record_dequeued(TaskClass::Interactive, Duration::from_millis(200));
        }
        assert!(m.interactive_wait_p99().unwrap() >= Duration::from_millis(200));
        for _ in 0..WAIT_WINDOW {
            m.record_dequeued(TaskClass::Interactive, Duration::from_micros(50));
        }
        assert!(m.interactive_wait_p99().unwrap() < Duration::from_millis(1));
    }

    #[test]
    fn shed_counter_is_distinct_from_rejected() {
        let m = SchedMetrics::new();
        m.record_shed(TaskClass::Bulk);
        m.record_shed(TaskClass::Bulk);
        m.record_rejected(TaskClass::Bulk);
        let bulk = m.class(TaskClass::Bulk);
        assert_eq!(bulk.shed, 2);
        assert_eq!(bulk.rejected, 1);
        assert_eq!(m.class(TaskClass::Interactive).shed, 0);
    }
}
