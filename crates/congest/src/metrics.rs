//! Round-level and run-level measurement of communication.

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
/// observability*: it depends on the thread count by design (a sequential
/// run is one chunk, so everything is intra-chunk) and is deliberately
/// excluded from equality.
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
    /// buckets. Excluded from equality; see the type docs.
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
