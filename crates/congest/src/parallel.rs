//! Thread-pool execution of the same synchronous semantics.
//!
//! [`ParallelSimulator`] produces bit-for-bit the same node states, metrics,
//! and round counts as [`Simulator`](crate::Simulator) — see the
//! [`engine`](crate::engine) module docs for the determinism contract.
//!
//! # Persistent worker pool
//!
//! Workers are spawned **once** and block on the pool's shared job queue
//! between rounds — there is no per-round thread spawn (the old engine
//! paid a `crossbeam::thread::scope` per round). The pool is a
//! private [`SimPool`], spawned by [`ParallelSimulator::with_partition`]
//! and shut down with the simulator. Round jobs carry their chunk *by
//! value*: the scheduler moves the boxed [`ChunkState`] to whichever
//! worker pulls the job and receives it back tagged with its chunk index,
//! so all mutation is single-owner and the steady-state round loop
//! allocates nothing (the queue and reply channel reuse their buffers;
//! chunk moves are pointer-sized).
//!
//! Per round the scheduler routes the buckets staged in the previous
//! round to their destination chunks (swapping each fresh bucket for last
//! round's drained one, so bucket capacity is never re-grown), then makes
//! **one fused dispatch per chunk**: deliver the previous round's mail,
//! step the current round, reply. One barrier per round, two channel
//! messages per worker. Only *cross-chunk* mail rides the buckets:
//! messages whose destination lies in the sender's own chunk are written
//! straight into the chunk's next-round mailbox during the step (the
//! intra-chunk fast path), so a [`PartitionPolicy::Locality`] chunking —
//! which clusters connected nodes — shrinks the per-round cross-thread
//! traffic to the true boundary cut. [`SimReport`] records the split.

use crate::cancel::Interrupt;
use crate::engine::{finish_round, ChunkState, EngineArena};
use crate::error::SimError;
use crate::metrics::{BitBudget, RoundMetrics, SimReport};
use crate::partition::{Partition, PartitionPolicy};
use crate::pool::{Buckets, Reply, SimPool};
use crate::process::{Process, SendTally};
use crate::topology::{NodeId, Topology};

/// Parallel round scheduler with sequential-identical semantics.
///
/// # Examples
///
/// ```
/// use dcover_congest::{Ctx, ParallelSimulator, Process, Status, Topology};
///
/// struct Echo(bool);
/// impl Process for Echo {
///     type Msg = u64;
///     fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
///         if ctx.round() == 0 {
///             ctx.broadcast(7);
///             Status::Running
///         } else {
///             self.0 = !ctx.inbox().is_empty();
///             Status::Halted
///         }
///     }
/// }
///
/// let topo = Topology::from_links(2, &[(0, 1)]);
/// let mut sim = ParallelSimulator::new(topo, vec![Echo(false), Echo(false)], 2);
/// let report = sim.run(10)?;
/// assert!(report.all_halted);
/// # Ok::<(), dcover_congest::SimError>(())
/// ```
#[derive(Debug)]
pub struct ParallelSimulator<P: Process + 'static> {
    topo: Topology,
    /// The node arrangement and chunk cuts this instance runs under.
    part: Partition,
    /// Chunk states, one per pool worker; `None` while a chunk is out at
    /// a worker.
    chunks: Vec<Option<Box<ChunkState<P>>>>,
    /// Reusable per-destination inbound containers (capacity `chunks`).
    inbound_pool: Vec<Option<Buckets<P::Msg>>>,
    pool: SimPool<P>,
    active: usize,
    round: u64,
    report: SimReport,
    trace: bool,
    budget: Option<BitBudget>,
    interrupt: Option<Interrupt>,
}

/// Unwraps a chunk (or inbound-container) slot. Every slot access in
/// this module funnels through here so the home/out argument lives in
/// exactly one place.
//
// invariant: slots are `None` only while their chunk (or container) is
// out on the worker pool *inside* `step` — every dispatch is matched by
// a receive in the same call, and on the two early exits (a re-raised
// node panic, `SchedulerLost`) the simulator is poisoned and never
// stepped again. Everywhere else, everything is home.
fn home<T>(slot: Option<T>) -> T {
    slot.expect("chunk or inbound container is home")
}

impl<P: Process + 'static> ParallelSimulator<P> {
    /// Creates a parallel simulator with a freshly spawned pool of up to
    /// `threads` persistent worker threads (capped at the node count).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topo.len()` or `threads == 0`.
    #[must_use]
    pub fn new(topo: Topology, nodes: Vec<P>, threads: usize) -> Self {
        Self::with_partition(topo, nodes, threads, PartitionPolicy::Contiguous)
    }

    /// Like [`new`](Self::new), but chunking the instance under an
    /// explicit [`PartitionPolicy`]. Placement never changes results —
    /// only which worker steps a node and how much mail crosses chunks
    /// (see [`SimReport::cross_fraction`]).
    ///
    /// The instance is split into `min(threads, nodes.len())` chunks, one
    /// per pool worker.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topo.len()` or `threads == 0`.
    #[must_use]
    pub fn with_partition(
        topo: Topology,
        nodes: Vec<P>,
        threads: usize,
        policy: PartitionPolicy,
    ) -> Self {
        // invariant: documented construction-time precondition (see
        // `# Panics`) on a caller-supplied thread count — never reached
        // from round or solve state.
        assert!(threads > 0, "need at least one worker thread");
        // invariant: documented construction-time precondition (see
        // `# Panics`) tying the caller's program vector to its topology —
        // checked before any chunk state exists.
        assert_eq!(nodes.len(), topo.len(), "need exactly one program per node");
        let n = nodes.len();
        let workers = threads.min(n).max(1);
        let pool = SimPool::new(workers);
        let part = Partition::new(&topo, workers, policy);
        let mut chunks = Vec::with_capacity(workers);
        if part.is_identity() {
            // Identity arrangement: chunk ranges are id ranges, so the
            // node vector splits off in place, no per-node moves.
            let mut nodes = nodes;
            for index in (0..workers).rev() {
                let mut arena = pool.take_arena();
                arena.chunk.rebuild(&topo, &part, index);
                arena.chunk.nodes = nodes.split_off(part.bounds()[index]);
                chunks.push(Some(arena.chunk));
            }
            chunks.reverse();
        } else {
            // Permuted arrangement: gather each chunk's programs by
            // position. `global_ids` remembers the inverse for
            // [`into_parts`](Self::into_parts)'s scatter.
            let mut slots: Vec<Option<P>> = nodes.into_iter().map(Some).collect();
            for index in 0..workers {
                let mut arena = pool.take_arena();
                arena.chunk.rebuild(&topo, &part, index);
                let (start, end) = (part.bounds()[index], part.bounds()[index + 1]);
                // invariant: `Partition::new` produces a permutation of
                // `0..n` — `node_at` visits every id exactly once, so no
                // slot is taken twice.
                arena.chunk.nodes.extend(
                    (start..end).map(|pos| slots[part.node_at(pos)].take().expect("placed once")),
                );
                chunks.push(Some(arena.chunk));
            }
        }
        let inbound_pool = (0..workers)
            .map(|_| Some(Vec::with_capacity(workers)))
            .collect();
        Self {
            topo,
            part,
            chunks,
            inbound_pool,
            pool,
            active: n,
            round: 0,
            report: SimReport::default(),
            trace: false,
            budget: None,
            interrupt: None,
        }
    }

    /// Enables per-round metric tracing.
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enforces a per-link per-round bit budget.
    #[must_use]
    pub fn with_budget(mut self, budget: BitBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a cooperative [`Interrupt`] (cancel token and/or absolute
    /// deadline): [`run`](Self::run) checks it **once per round**, between
    /// dispatches, and stops with [`SimError::Interrupted`] at the first
    /// round boundary where it has fired — identical semantics to
    /// [`Simulator::with_interrupt`](crate::Simulator::with_interrupt).
    /// Chunks stay home at that point, so
    /// [`into_parts`](Self::into_parts) still recovers every node program.
    #[must_use]
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// Number of chunks this instance is split into (= workers in use).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.chunks.len()
    }

    /// Number of nodes still running.
    #[must_use]
    pub fn active_nodes(&self) -> usize {
        self.active
    }

    /// Whether every node has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.active == 0
    }

    /// The accumulated report so far.
    #[must_use]
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Read access to a node program.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &P {
        let pos = self.part.position(id);
        let bounds = self.part.bounds();
        let c = bounds[1..].partition_point(|&b| b <= pos);
        let chunk = home(self.chunks[c].as_ref());
        &chunk.nodes[pos - bounds[c]]
    }

    /// Consumes the simulator, returning node programs (ascending id order)
    /// and the report. The worker pool shuts down with it.
    #[must_use]
    pub fn into_parts(mut self) -> (Vec<P>, SimReport) {
        let n = self.part.len();
        let nodes = if self.part.is_identity() {
            let mut nodes = Vec::with_capacity(n);
            for slot in &mut self.chunks {
                let mut chunk = home(slot.take());
                nodes.append(&mut chunk.nodes);
                self.pool.put_arena(EngineArena { chunk });
            }
            nodes
        } else {
            // Scatter each chunk's programs back to original id order via
            // the per-chunk `global_ids` table.
            let mut out: Vec<Option<P>> = Vec::with_capacity(n);
            out.resize_with(n, || None);
            for slot in &mut self.chunks {
                let mut chunk = home(slot.take());
                let ChunkState {
                    nodes: chunk_nodes,
                    global_ids,
                    ..
                } = &mut *chunk;
                for (node, &gid) in chunk_nodes.drain(..).zip(global_ids.iter()) {
                    out[gid as usize] = Some(node);
                }
                self.pool.put_arena(EngineArena { chunk });
            }
            // invariant: the per-chunk `global_ids` tables are the
            // inverse of the placement permutation above — the scatter
            // fills every slot exactly once.
            out.into_iter()
                .map(|slot| slot.expect("every node returned"))
                .collect()
        };
        let mut report = std::mem::take(&mut self.report);
        report.all_halted = self.active == 0;
        (nodes, report)
    }

    /// Executes one synchronous round on the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] on a CONGEST bandwidth
    /// violation, or [`SimError::DuplicateSend`] if the *previous* round
    /// sent two messages over one directed link (delivery happens at the
    /// start of the next dispatch, so the violation surfaces one `step`
    /// later than in the sequential scheduler; `run` reports it either
    /// way). Returns [`SimError::SchedulerLost`] if every worker thread
    /// died with this round's chunks still dispatched; the simulator is
    /// poisoned afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a node program panics on a worker thread.
    pub fn step(&mut self) -> Result<RoundMetrics, SimError> {
        let workers = self.chunks.len();
        let active_at_start = self.active;

        // Route the buckets staged in the previous round to their
        // destinations: `stage[d]` of source chunk `s` becomes `inbound[s]`
        // of destination chunk `d`. Buckets are double-buffered like the
        // slot arena: the chunk gets last round's drained bucket (capacity
        // intact) to stage into while its fresh bucket is out for delivery.
        for d in 0..workers {
            let mut inbound = home(self.inbound_pool[d].take());
            if inbound.is_empty() {
                // First round: nothing staged yet, hand out empty buckets.
                for s in 0..workers {
                    let src = home(self.chunks[s].as_mut());
                    inbound.push(std::mem::take(&mut src.stage[d]));
                }
            } else {
                for (s, slot) in inbound.iter_mut().enumerate() {
                    let src = home(self.chunks[s].as_mut());
                    std::mem::swap(&mut src.stage[d], slot);
                }
            }
            self.inbound_pool[d] = Some(inbound);
        }

        // One fused dispatch per chunk: deliver the previous round, step
        // this one. Round jobs enter the shared queue with priority, so
        // they are never starved behind queued task submissions; any
        // worker may run any chunk (the chunk index rides along).
        for w in 0..workers {
            let chunk = home(self.chunks[w].take());
            let inbound = home(self.inbound_pool[w].take());
            self.pool
                .send_round(w, chunk, inbound, self.round, self.budget);
        }
        for _ in 0..workers {
            // A closed reply channel means every worker thread died with
            // this round's chunks still out — a typed error (the serving
            // layer fails the solve and rebuilds its pool) rather than a
            // scheduler panic. The simulator is poisoned afterwards.
            let reply = self
                .pool
                .recv_reply()
                .map_err(|_| SimError::SchedulerLost { round: self.round })?;
            match reply {
                Reply::Done {
                    index,
                    chunk,
                    inbound,
                } => {
                    self.chunks[index] = Some(chunk);
                    self.inbound_pool[index] = Some(inbound);
                }
                // Re-raise a node-program panic on the caller's thread. The
                // simulator is poisoned afterwards (the chunk is gone).
                Reply::Panicked(payload) => std::panic::resume_unwind(payload),
            }
        }

        // Surface delivery-time CONGEST violations (duplicate same-port
        // sends from the previous round) before this round's accounting.
        // Chunks are scanned in ascending node order; when several
        // violations coexist in one round the reported one may differ
        // from the sequential scheduler's pick (which detects in send
        // order, same-step) — both always report *a* violation.
        for slot in &self.chunks {
            let chunk = home(slot.as_ref());
            if let Some(err) = chunk.delivery_error.clone() {
                return Err(err);
            }
        }

        // The drained buckets stay parked in `inbound_pool` until the next
        // round's routing swap. Merge tallies in ascending chunk order
        // (= node id order).
        let mut merged = SendTally::default();
        for slot in &mut self.chunks {
            let chunk = home(slot.as_mut());
            merged.merge(&chunk.tally);
            self.active -= chunk.newly_halted as usize;
        }

        let rm = finish_round(
            &self.topo,
            &merged,
            self.round,
            active_at_start,
            self.budget,
        )?;
        self.round += 1;
        self.report.absorb(rm, self.trace);
        self.report
            .record_cut(merged.messages, merged.cross_messages);
        Ok(rm)
    }

    /// Checks the staged-but-undelivered mail of the last executed round
    /// for a duplicate same-port send. When the round limit trips, the
    /// fused deliver-next-round dispatch never runs, so without this check
    /// a final-round violation that the sequential scheduler reports
    /// (delivery is same-step there) would be masked as `RoundLimit`.
    /// (The all-halted exit needs no such check: every receiver is halted
    /// then, and both schedulers drop mail to halted receivers before the
    /// duplicate check.)
    fn undelivered_duplicate(&self) -> Option<SimError> {
        let sent_round = self.round.checked_sub(1)?;
        let workers = self.chunks.len();
        for d in 0..workers {
            let dest = home(self.chunks[d].as_ref());
            let staged = (0..workers).flat_map(|s| {
                let src = home(self.chunks[s].as_ref());
                src.stage[d].iter().map(|&(lslot, _)| lslot)
            });
            if let Some(err) = dest.scan_undelivered_duplicate(staged, sent_round) {
                return Some(err);
            }
        }
        None
    }

    /// Runs until every node halts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimit`] if not all nodes halted within
    /// `max_rounds`, or [`SimError::BudgetExceeded`] /
    /// [`SimError::DuplicateSend`] on a CONGEST violation. A duplicate
    /// send in the round right before the limit is reported too, even
    /// though its delivery dispatch never runs. Both schedulers error on
    /// the same protocols; when several violations coexist in one round,
    /// *which* one is reported may differ (delivery is deferred by one
    /// dispatch here, so e.g. a same-round budget overflow can win over a
    /// duplicate send that the sequential scheduler reports first).
    pub fn run(&mut self, max_rounds: u64) -> Result<SimReport, SimError> {
        while self.active > 0 {
            if let Some(reason) = self.interrupt.as_ref().and_then(Interrupt::fired) {
                return Err(SimError::Interrupted {
                    reason,
                    round: self.round,
                    active: self.active,
                });
            }
            if self.round >= max_rounds {
                if let Some(err) = self.undelivered_duplicate() {
                    return Err(err);
                }
                return Err(SimError::RoundLimit {
                    limit: max_rounds,
                    active: self.active,
                });
            }
            self.step()?;
        }
        let mut report = self.report.clone();
        report.all_halted = true;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Ctx, Status};
    use crate::sim::Simulator;

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

    fn ring(n: usize) -> Topology {
        let links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::from_links(n, &links)
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
            let mut par = ParallelSimulator::new(ring(n), make_nodes(), threads).with_trace(true);
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
        let mut sim = ParallelSimulator::new(ring(4), vec![Big, Big, Big, Big], 2)
            .with_budget(BitBudget::new(16));
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
        let mut sim = ParallelSimulator::new(ring(3), vec![Spin, Spin, Spin], 2);
        assert!(matches!(
            sim.run(4),
            Err(SimError::RoundLimit { limit: 4, .. })
        ));
    }

    #[test]
    fn cancel_interrupts_parallel_run_and_pool_survives() {
        use crate::cancel::{CancelToken, Interrupt, InterruptReason};
        struct Spin;
        impl Process for Spin {
            type Msg = ();
            fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Status {
                Status::Running
            }
        }
        let token = CancelToken::new();
        token.cancel();
        let mut sim = ParallelSimulator::new(ring(3), vec![Spin, Spin, Spin], 2)
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
        // The interrupt lands between dispatches, so the chunks are home
        // and every node program is still recoverable.
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
        let mut sim = ParallelSimulator::new(ring(n), nodes, 16);
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
        let mut sim =
            ParallelSimulator::with_partition(ring(n), nodes, 8, PartitionPolicy::Contiguous);
        assert_eq!(sim.workers(), 3);
        let report = sim.run(10).unwrap();
        assert!(report.all_halted);
    }

    #[test]
    fn pool_threads_persist_across_rounds() {
        // Many rounds on a tiny instance: if threads were spawned per round
        // this would be very slow; mostly this pins the pool lifecycle
        // (drop after run, node access between steps).
        let n = 8;
        let nodes: Vec<Gossip> = (0..n)
            .map(|i| Gossip {
                value: i as u64,
                acc: 0,
                hops: 200,
            })
            .collect();
        let mut sim = ParallelSimulator::new(ring(n), nodes, 4);
        for _ in 0..100 {
            sim.step().unwrap();
        }
        assert_eq!(sim.active_nodes(), n);
        assert!(sim.node(3).acc > 0);
        let report = sim.run(300).unwrap();
        assert!(report.all_halted);
        assert_eq!(report.rounds, 201);
    }

    /// A node-program panic on a worker must surface as a panic on the
    /// scheduler thread — not a deadlock (the other workers stay parked
    /// holding live reply senders, so a bare `recv()` would hang forever).
    #[test]
    fn worker_panic_propagates_to_scheduler() {
        struct Bomb;
        impl Process for Bomb {
            type Msg = u64;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
                assert!(ctx.node() != 5, "boom at node 5");
                Status::Running
            }
        }
        let nodes = (0..9).map(|_| Bomb).collect();
        let mut sim = ParallelSimulator::new(ring(9), nodes, 4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()))
            .expect_err("step must panic, not hang");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("boom at node 5"), "got: {msg}");
    }

    /// The duplicate same-port-send violation is detected at delivery on a
    /// worker; it must reach the caller as a typed error, like in the
    /// sequential scheduler (one `step` later here, since delivery fuses
    /// into the next round's dispatch).
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
        let mut sim = ParallelSimulator::new(ring(6), nodes, 3);
        let err = sim.run(10).unwrap_err();
        assert!(
            matches!(err, SimError::DuplicateSend { round: 0, .. }),
            "got {err:?}"
        );
    }

    /// A duplicate send in the last round *before the limit* must surface
    /// as DuplicateSend, not be masked by RoundLimit: its delivery
    /// dispatch never runs, so `run` checks the undelivered stage.
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
        let mut sim = ParallelSimulator::new(ring(6), nodes, 3);
        let err = sim.run(1).unwrap_err();
        assert!(
            matches!(err, SimError::DuplicateSend { round: 0, .. }),
            "got {err:?}"
        );
    }

    /// Both schedulers agree that duplicates addressed to *halted*
    /// receivers are dropped without an error (the halted check precedes
    /// the duplicate check at delivery), so a run where everyone
    /// double-sends and immediately halts is clean in both.
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
        let mut par = ParallelSimulator::new(ring(5), vec![DoubleAndQuit; 5], 2);
        let par_report = par.run(10).unwrap();
        assert_eq!(par_report, seq_report);
        assert!(par_report.all_halted);
    }

    /// On the paper's bipartite incidence, the locality arrangement must
    /// (a) stay bit-identical to the sequential scheduler, (b) hand nodes
    /// back in original id order, and (c) actually shrink the cross-chunk
    /// message volume relative to the contiguous split.
    #[test]
    fn locality_policy_is_bit_identical_and_cuts_cross_chunk_traffic() {
        let g = dcover_hypergraph::generators::path(24);
        let topo = || Topology::bipartite_incidence(&g);
        let n = topo().len();
        let make_nodes = || -> Vec<Gossip> {
            (0..n)
                .map(|i| Gossip {
                    value: (i * 13) as u64 % 101,
                    acc: 0,
                    hops: 5,
                })
                .collect()
        };
        let mut seq = Simulator::new(topo(), make_nodes()).with_trace(true);
        let seq_report = seq.run(100).unwrap();
        assert_eq!(seq_report.cross_chunk_messages, 0, "one chunk, all intra");
        for threads in [2usize, 4] {
            let mut cont = ParallelSimulator::with_partition(
                topo(),
                make_nodes(),
                threads,
                PartitionPolicy::Contiguous,
            )
            .with_trace(true);
            let cont_report = cont.run(100).unwrap();
            let mut loc = ParallelSimulator::with_partition(
                topo(),
                make_nodes(),
                threads,
                PartitionPolicy::Locality,
            )
            .with_trace(true);
            let loc_report = loc.run(100).unwrap();
            assert_eq!(cont_report, seq_report, "contiguous, threads = {threads}");
            assert_eq!(loc_report, seq_report, "locality, threads = {threads}");
            for id in 0..n {
                assert_eq!(loc.node(id).acc, seq.node(id).acc, "node {id}");
            }
            assert_eq!(
                loc_report.intra_chunk_messages + loc_report.cross_chunk_messages,
                loc_report.total_messages
            );
            assert!(
                loc_report.cross_chunk_messages < cont_report.cross_chunk_messages,
                "threads = {threads}: locality cut {} not below contiguous {}",
                loc_report.cross_chunk_messages,
                cont_report.cross_chunk_messages
            );
            let (nodes, _) = loc.into_parts();
            for (i, node) in nodes.iter().enumerate() {
                assert_eq!(node.value, (i * 13) as u64 % 101, "id order after scatter");
            }
        }
    }

    #[test]
    fn into_parts_concatenates_in_id_order() {
        let n = 11;
        let nodes: Vec<Gossip> = (0..n)
            .map(|i| Gossip {
                value: i as u64 * 10,
                acc: 0,
                hops: 1,
            })
            .collect();
        let mut sim = ParallelSimulator::new(ring(n), nodes, 3);
        sim.run(10).unwrap();
        let (nodes, report) = sim.into_parts();
        assert!(report.all_halted);
        assert_eq!(nodes.len(), n);
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.value, i as u64 * 10, "into_parts order");
        }
    }
}
