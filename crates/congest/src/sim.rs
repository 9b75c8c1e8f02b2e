//! The deterministic round scheduler, for any number of chunks.
//!
//! A [`Simulator`] drives the shared [`engine`](crate::engine) over `k`
//! chunks of its nodes: one by default, or `k` cut by a
//! [`PartitionPolicy`] ([`Simulator::with_partition`]). Chunk 0 runs on
//! the caller's thread; chunks `1..k` run on `k − 1` worker threads that
//! the simulator spawns once, one chunk pinned to each, and joins when it
//! is dropped.
//!
//! Construction derives each chunk's routing tables from the topology and
//! the partition's arrangement, which on a two-sided network is a
//! permutation of the id order. Chunks `1..k` derive theirs on `k − 1`
//! scoped threads while the caller derives chunk 0's and moves the node
//! programs into arrangement order; the scope joins them all before the
//! constructor returns, so set-up leaves no thread behind but the
//! workers. A round is two phases, each ending in a barrier:
//!
//! 1. [`phase_step`](crate::engine::phase_step) on every chunk: active
//!    nodes step; sends to the chunk's own nodes land straight in its
//!    mailbox (the intra-chunk fast path), and the rest are staged per
//!    destination chunk;
//! 2. the caller routes the staged buckets to their destination chunks,
//!    then [`phase_deliver`](crate::engine::phase_deliver) on every chunk
//!    scatters them into its mailbox and swaps its buffers.
//!
//! Delivery errors, the tally merge and the budget check then run on the
//! caller's thread in ascending chunk order, so every chunk count and
//! placement yields the same report, and the same error from the same
//! [`step`](Simulator::step). A chunk travels to its worker by value (a
//! pointer-sized move) and comes back over one shared reply channel: all
//! mutation is single-owner, with no locks and no `unsafe`, and a
//! steady-state round allocates nothing. See the engine module docs for
//! the arena layout and the determinism contract.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::cancel::Interrupt;
use crate::engine::{finish_round, phase_deliver, phase_step, ChunkState, EngineArena};
use crate::error::SimError;
use crate::metrics::{BitBudget, RoundMetrics, SimReport};
use crate::partition::{Partition, PartitionPolicy};
use crate::process::{Process, SendTally};
use crate::topology::{NodeId, Topology};

/// Deterministic synchronous simulator: steps every running node once per
/// round, delivers messages at the round boundary, and records
/// communication metrics — on one chunk, or split across worker threads
/// with bit-identical results.
///
/// # Examples
///
/// A two-node protocol where each node sends one greeting and halts after
/// hearing back:
///
/// ```
/// use dcover_congest::{Ctx, Process, Simulator, Status, Topology};
///
/// struct Greeter;
/// impl Process for Greeter {
///     type Msg = u64;
///     fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
///         if ctx.round() == 0 {
///             ctx.broadcast(ctx.node() as u64);
///             Status::Running
///         } else {
///             assert_eq!(ctx.inbox().len(), 1);
///             Status::Halted
///         }
///     }
/// }
///
/// let topo = Topology::from_links(2, &[(0, 1)]);
/// let mut sim = Simulator::new(topo, vec![Greeter, Greeter]);
/// let report = sim.run(10)?;
/// assert_eq!(report.rounds, 2);
/// assert_eq!(report.total_messages, 2);
/// assert!(report.all_halted);
/// # Ok::<(), dcover_congest::SimError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<P: Process + 'static> {
    topo: Topology,
    /// The node arrangement and chunk cuts this instance runs under.
    part: Partition,
    /// One per chunk; `None` only while the chunk is out at its worker.
    chunks: Vec<Option<Box<ChunkState<P>>>>,
    /// Per destination chunk, the buckets routed to it, one per source
    /// chunk; travels with its chunk.
    inbound: Vec<Buckets<P::Msg>>,
    /// The threads running chunks `1..k`; `None` for a single chunk.
    workers: Option<Workers<P>>,
    active: usize,
    round: u64,
    report: SimReport,
    trace: bool,
    budget: Option<BitBudget>,
    interrupt: Option<Interrupt>,
}

/// The name the benchmark harness (`perfbench/`) uses for a multi-chunk
/// [`Simulator`].
pub type ParallelSimulator<P> = Simulator<P>;

/// Staging buckets, one per source chunk: `(destination-local slot,
/// payload)` pairs.
type Buckets<M> = Vec<Vec<(u32, M)>>;

/// Unwraps a chunk slot.
//
// invariant: a slot is `None` only while its chunk is out at its worker
// inside `run_phase`, which collects every reply before it returns; on
// its early exits (a re-raised node panic, `SchedulerLost`) the
// simulator is poisoned, as the `step` docs say.
fn home<T>(slot: Option<T>) -> T {
    slot.expect("chunk is home")
}

impl<P: Process + 'static> Simulator<P> {
    /// Creates a single-chunk simulator over `topo` with one program per
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topo.len()`.
    #[must_use]
    pub fn new(topo: Topology, nodes: Vec<P>) -> Self {
        Self::with_arena(topo, nodes, EngineArena::new())
    }

    /// Creates a single-chunk simulator that recycles `arena`'s buffers —
    /// mailbox slots, dirty lists, worklist, staging buckets and routing
    /// tables all keep the capacity they grew in previous solves. Results
    /// are bit-identical to [`Simulator::new`]; recover the arena
    /// afterwards with [`into_arena`](Self::into_arena).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topo.len()`.
    #[must_use]
    pub fn with_arena(topo: Topology, nodes: Vec<P>, arena: EngineArena<P>) -> Self {
        let part = Partition::new(&topo, 1, PartitionPolicy::Contiguous);
        Self::build(topo, nodes, part, arena)
    }

    /// Creates a simulator split into `min(threads, nodes.len())` chunks
    /// cut under `policy`, with one worker thread per chunk after the
    /// first. Placement never changes results — only which thread steps a
    /// node and how much mail crosses chunks (see
    /// [`SimReport::cross_fraction`]).
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
        // `# Panics`) on a caller-supplied thread count.
        assert!(threads > 0, "need at least one worker thread");
        let part = Partition::new(&topo, threads.min(nodes.len()).max(1), policy);
        Self::build(topo, nodes, part, EngineArena::new())
    }

    /// Places `nodes` in `part`'s chunks, chunk 0 on `arena`'s buffers,
    /// and spawns a worker for every further chunk. Chunks `1..k` derive
    /// their tables on scoped threads while this thread derives chunk 0's.
    fn build(topo: Topology, mut nodes: Vec<P>, part: Partition, arena: EngineArena<P>) -> Self {
        // invariant: documented construction-time precondition (see
        // `# Panics`) tying the caller's program vector to its topology —
        // checked before any engine state exists.
        assert_eq!(nodes.len(), topo.len(), "need exactly one program per node");
        let n = nodes.len();
        let k = part.num_chunks();
        let mut chunks = Vec::with_capacity(k);
        chunks.push(arena.chunk);
        chunks.extend((1..k).map(|_| Box::new(ChunkState::empty())));
        let (topo_ref, part_ref) = (&topo, &part);
        std::thread::scope(|scope| {
            let mut rest = chunks.iter_mut().enumerate();
            let first = rest.next();
            for (index, chunk) in rest {
                scope.spawn(move || chunk.rebuild(topo_ref, part_ref, index));
            }
            if let Some((_, chunk)) = first {
                chunk.rebuild(topo_ref, part_ref, 0);
            }
            part_ref.to_positions(&mut nodes);
        });
        // Chunk ranges are position ranges: chunk 0 keeps the caller's
        // vector and the others split off its tail, so chunk 0's programs
        // never move again (`into_arena` appends the others back to it).
        for (index, chunk) in chunks.iter_mut().enumerate().rev() {
            chunk.nodes = if index == 0 {
                std::mem::take(&mut nodes)
            } else {
                nodes.split_off(part.bounds()[index])
            };
        }
        Self {
            topo,
            part,
            chunks: chunks.into_iter().map(Some).collect(),
            inbound: (0..k)
                .map(|_| (0..k).map(|_| Vec::new()).collect())
                .collect(),
            workers: (k > 1).then(|| Workers::spawn(k - 1)),
            active: n,
            round: 0,
            report: SimReport::default(),
            trace: false,
            budget: None,
            interrupt: None,
        }
    }

    /// Enables per-round metric tracing (costs memory on long runs).
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enforces a per-link per-round bit budget; a violation aborts the run
    /// with [`SimError::BudgetExceeded`].
    #[must_use]
    pub fn with_budget(mut self, budget: BitBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a cooperative [`Interrupt`] (cancel token and/or absolute
    /// deadline): [`run`](Self::run) checks it **once per round**, between
    /// rounds, and stops with [`SimError::Interrupted`] at the first round
    /// boundary where it has fired. Every completed round stays
    /// bit-identical to an uninterrupted run, and every chunk is home, so
    /// [`into_parts`](Self::into_parts) still recovers every program;
    /// [`step`](Self::step) does not check (callers driving rounds by hand
    /// poll the interrupt themselves).
    #[must_use]
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// The next round to be executed (also the number of rounds done).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
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

    /// Number of chunks the instance is split into (the threads in use,
    /// the caller's included).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.chunks.len()
    }

    /// Read access to a node program (for assertions and result extraction).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &P {
        let pos = self.part.position(id);
        let bounds = self.part.bounds();
        let c = bounds[1..].partition_point(|&b| b <= pos);
        &home(self.chunks[c].as_ref()).nodes[pos - bounds[c]]
    }

    /// Read access to all node programs, in id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &P> + '_ {
        (0..self.part.len()).map(move |id| self.node(id))
    }

    /// The accumulated report so far.
    #[must_use]
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Consumes the simulator, returning the node programs (in id order,
    /// with their final local state) and the report.
    #[must_use]
    pub fn into_parts(self) -> (Vec<P>, SimReport) {
        let (nodes, report, _arena) = self.into_arena();
        (nodes, report)
    }

    /// Consumes the simulator, returning the node programs, the report,
    /// and chunk 0's engine buffers (every capacity intact) for reuse by a
    /// later [`Simulator::with_arena`]. The workers are joined.
    #[must_use]
    pub fn into_arena(self) -> (Vec<P>, SimReport, EngineArena<P>) {
        let mut chunks = self.chunks.into_iter().map(home);
        // invariant: a partition has at least one chunk.
        let mut first = chunks.next().expect("chunk 0");
        let mut nodes = std::mem::take(&mut first.nodes);
        for mut chunk in chunks {
            nodes.append(&mut chunk.nodes);
        }
        self.part.to_ids(&mut nodes);
        let mut report = self.report;
        report.all_halted = self.active == 0;
        (nodes, report, EngineArena { chunk: first })
    }

    /// Executes one synchronous round: every chunk steps, the staged mail
    /// is routed and delivered, and the chunks' tallies are merged in
    /// ascending chunk order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateSend`] if a node sent two messages
    /// over one directed link this round (checked first), then
    /// [`SimError::BudgetExceeded`] if a link overflows the configured
    /// budget. Returns [`SimError::SchedulerLost`] if a worker thread is
    /// gone; the simulator is poisoned afterwards.
    ///
    /// # Panics
    ///
    /// Re-raises a node program's panic on the caller's thread, whichever
    /// chunk it ran on; the simulator is poisoned afterwards.
    pub fn step(&mut self) -> Result<RoundMetrics, SimError> {
        let active_at_start = self.active;
        self.run_phase(Phase::Step)?;
        self.route();
        self.run_phase(Phase::Deliver)?;
        let chunks = self.chunks.iter().map(|slot| home(slot.as_ref()));
        if let Some(err) = chunks.clone().find_map(|c| c.delivery_error.clone()) {
            return Err(err);
        }
        let mut merged = SendTally::default();
        for chunk in chunks {
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

    /// Runs `phase` on every chunk — chunks `1..k` at their workers while
    /// chunk 0 runs here — and returns once every chunk is home.
    fn run_phase(&mut self, phase: Phase) -> Result<(), SimError> {
        let (round, budget) = (self.round, self.budget);
        if let Some(workers) = &self.workers {
            for (c, jobs) in (1..).zip(&workers.jobs) {
                let chunk = home(self.chunks[c].take());
                let inbound = std::mem::take(&mut self.inbound[c]);
                jobs.send(Job {
                    phase,
                    chunk,
                    inbound,
                    round,
                    budget,
                })
                .map_err(|_| SimError::SchedulerLost { round })?;
            }
        }
        let first = home(self.chunks[0].as_mut());
        phase.run(first, &mut self.inbound[0], round, budget);
        if let Some(workers) = &self.workers {
            for _ in &workers.jobs {
                let (chunk, inbound) = workers
                    .replies
                    .recv()
                    .map_err(|_| SimError::SchedulerLost { round })?
                    .unwrap_or_else(|payload| resume_unwind(payload));
                let c = chunk.chunk_index;
                self.inbound[c] = inbound;
                self.chunks[c] = Some(chunk);
            }
        }
        Ok(())
    }

    /// Hands every staged bucket to its destination: `stage[d]` of chunk
    /// `s` trades places with bucket `s` of chunk `d`'s inbound set, so
    /// the chunk stages the next round into the bucket drained in this
    /// one, its capacity intact.
    fn route(&mut self) {
        for (d, inbound) in self.inbound.iter_mut().enumerate() {
            for (slot, bucket) in self.chunks.iter_mut().zip(inbound) {
                std::mem::swap(&mut home(slot.as_mut()).stage[d], bucket);
            }
        }
    }

    /// Runs until every node halts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimit`] if not all nodes halted within
    /// `max_rounds`, any error of [`step`](Self::step), or
    /// [`SimError::Interrupted`] when a configured
    /// [`with_interrupt`](Self::with_interrupt) condition fires between
    /// rounds.
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

/// Which half of a round a chunk runs.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Step,
    Deliver,
}

impl Phase {
    fn run<P: Process>(
        self,
        chunk: &mut ChunkState<P>,
        inbound: &mut Buckets<P::Msg>,
        round: u64,
        budget: Option<BitBudget>,
    ) {
        match self {
            Phase::Step => phase_step(chunk, round, budget),
            Phase::Deliver => phase_deliver(chunk, inbound, round),
        }
    }
}

/// A chunk's trip to its worker.
struct Job<P: Process> {
    phase: Phase,
    chunk: Box<ChunkState<P>>,
    inbound: Buckets<P::Msg>,
    round: u64,
    budget: Option<BitBudget>,
}

/// A worker's answer: the chunk and its inbound buckets, or the payload of
/// a node-program panic.
type Reply<P> = Result<(Box<ChunkState<P>>, Buckets<<P as Process>::Msg>), Box<dyn Any + Send>>;

/// The threads that run chunks `1..k`, one chunk pinned to each.
#[derive(Debug)]
struct Workers<P: Process + 'static> {
    /// `jobs[i]` feeds the worker of chunk `i + 1`.
    jobs: Vec<SyncSender<Job<P>>>,
    /// Shared by every worker; it holds a reply from each, so a worker
    /// never blocks on it, even when the caller stops reading.
    replies: Receiver<Reply<P>>,
    handles: Vec<JoinHandle<()>>,
}

impl<P: Process + 'static> Workers<P> {
    fn spawn(count: usize) -> Self {
        let (reply_tx, replies) = sync_channel(count);
        let mut jobs = Vec::with_capacity(count);
        let mut handles = Vec::with_capacity(count);
        for c in 1..=count {
            let (job_tx, job_rx) = sync_channel(1);
            let reply_tx = reply_tx.clone();
            // invariant: OS thread spawn fails only on process-level
            // resource exhaustion, at construction — never mid-solve, and
            // with nothing to roll back.
            handles.push(
                std::thread::Builder::new()
                    .name(format!("congest-chunk-{c}"))
                    .spawn(move || chunk_worker(&job_rx, &reply_tx))
                    .expect("spawn chunk worker"),
            );
            jobs.push(job_tx);
        }
        Self {
            jobs,
            replies,
            handles,
        }
    }
}

impl<P: Process + 'static> Drop for Workers<P> {
    fn drop(&mut self) {
        // Closing the job channels lets every worker finish its job, if it
        // has one, and exit.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            // Workers catch node-program panics, so a join error has
            // nothing left to report.
            let _ = handle.join();
        }
    }
}

/// A worker's body: run each job's phase on its chunk and send the chunk
/// back, until the simulator closes the job channel.
fn chunk_worker<P: Process>(jobs: &Receiver<Job<P>>, replies: &SyncSender<Reply<P>>) {
    while let Ok(Job {
        phase,
        mut chunk,
        mut inbound,
        round,
        budget,
    }) = jobs.recv()
    {
        // A panicking chunk is dropped with the payload and the
        // simulator is poisoned, so no broken state is observed again.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            phase.run(&mut chunk, &mut inbound, round, budget);
        }));
        if replies.send(ran.map(|()| (chunk, inbound))).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Ctx, Status};
    use crate::topology::Port;

    /// Floods the maximum node id seen so far; halts when no new info
    /// arrives. Classic leader election by flooding.
    struct MaxFlood {
        known: u64,
        changed: bool,
        quiet_rounds: u32,
        diameter_bound: u32,
    }

    impl MaxFlood {
        fn new(id: usize, diameter_bound: u32) -> Self {
            Self {
                known: id as u64,
                changed: true,
                quiet_rounds: 0,
                diameter_bound,
            }
        }
    }

    impl Process for MaxFlood {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            for item in ctx.inbox() {
                if item.msg > self.known {
                    self.known = item.msg;
                    self.changed = true;
                }
            }
            if self.changed {
                ctx.broadcast(self.known);
                self.changed = false;
                self.quiet_rounds = 0;
            } else {
                self.quiet_rounds += 1;
            }
            if self.quiet_rounds > self.diameter_bound {
                Status::Halted
            } else {
                Status::Running
            }
        }
    }

    fn path_topology(n: usize) -> Topology {
        let links: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Topology::from_links(n, &links)
    }

    #[test]
    fn max_flood_on_path() {
        let n = 8;
        let topo = path_topology(n);
        let nodes: Vec<MaxFlood> = (0..n).map(|i| MaxFlood::new(i, n as u32)).collect();
        let mut sim = Simulator::new(topo, nodes).with_trace(true);
        let report = sim.run(100).unwrap();
        assert!(report.all_halted);
        for node in sim.nodes() {
            assert_eq!(node.known, (n - 1) as u64);
        }
        // Information needs at least diameter rounds to traverse the path.
        assert!(report.rounds >= (n - 1) as u64);
        assert!(report.per_round.is_some());
    }

    /// A node that sends `payload` to port 0 in round 0 and halts.
    struct OneShot {
        payload: u64,
        got: Option<u64>,
    }

    impl Process for OneShot {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                ctx.send(0, self.payload);
                Status::Running
            } else {
                self.got = ctx.inbox().first().map(|i| i.msg);
                Status::Halted
            }
        }
    }

    #[test]
    fn messages_delivered_next_round() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let nodes = vec![
            OneShot {
                payload: 5,
                got: None,
            },
            OneShot {
                payload: 9,
                got: None,
            },
        ];
        let mut sim = Simulator::new(topo, nodes);
        let report = sim.run(10).unwrap();
        assert_eq!(sim.node(0).got, Some(9));
        assert_eq!(sim.node(1).got, Some(5));
        assert_eq!(report.rounds, 2);
        assert_eq!(report.total_messages, 2);
        // payload 5 -> 3 bits, payload 9 -> 4 bits
        assert_eq!(report.total_bits, 7);
        assert_eq!(report.max_link_bits, 4);
    }

    #[test]
    fn budget_violation_detected() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let nodes = vec![
            OneShot {
                payload: u64::MAX, // 64 bits
                got: None,
            },
            OneShot {
                payload: 1,
                got: None,
            },
        ];
        let mut sim = Simulator::new(topo, nodes).with_budget(BitBudget::new(8));
        let err = sim.run(10).unwrap_err();
        match err {
            SimError::BudgetExceeded { bits, budget, .. } => {
                assert_eq!(bits, 64);
                assert_eq!(budget, 8);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Never halts; used to exercise the round limit.
    struct Spinner;
    impl Process for Spinner {
        type Msg = ();
        fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Status {
            Status::Running
        }
    }

    #[test]
    fn round_limit_is_an_error() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(topo, vec![Spinner, Spinner]);
        let err = sim.run(5).unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimit {
                limit: 5,
                active: 2
            }
        );
        assert_eq!(sim.round(), 5);
    }

    #[test]
    fn a_cancelled_token_interrupts_before_the_first_round() {
        use crate::cancel::{CancelToken, Interrupt, InterruptReason};
        // A pre-cancelled token on a never-halting protocol: the run must
        // stop immediately at round boundary 0 — not spin to the round
        // limit — with the typed Interrupted error.
        let token = CancelToken::new();
        token.cancel();
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(topo, vec![Spinner, Spinner])
            .with_interrupt(Interrupt::new().with_token(token));
        let err = sim.run(1_000_000).unwrap_err();
        assert_eq!(
            err,
            SimError::Interrupted {
                reason: InterruptReason::Cancelled,
                round: 0,
                active: 2
            }
        );
        assert_eq!(sim.round(), 0, "no round ran after the cancel");
    }

    #[test]
    fn a_past_deadline_interrupts_a_never_halting_run() {
        use crate::cancel::{Interrupt, InterruptReason};
        use std::time::{Duration, Instant};
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(topo, vec![Spinner, Spinner]).with_interrupt(
            Interrupt::new().with_deadline(Instant::now() - Duration::from_secs(1)),
        );
        let err = sim.run(1_000_000).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Interrupted {
                    reason: InterruptReason::DeadlinePassed,
                    round: 0,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn an_unfired_interrupt_changes_nothing() {
        use crate::cancel::{CancelToken, Interrupt};
        use std::time::{Duration, Instant};
        let n = 8;
        let topo = path_topology(n);
        let nodes: Vec<MaxFlood> = (0..n).map(|i| MaxFlood::new(i, n as u32)).collect();
        let mut plain = Simulator::new(path_topology(n), nodes).with_trace(true);
        let plain_report = plain.run(100).unwrap();

        let nodes: Vec<MaxFlood> = (0..n).map(|i| MaxFlood::new(i, n as u32)).collect();
        let mut interruptible = Simulator::new(topo, nodes).with_trace(true).with_interrupt(
            Interrupt::new()
                .with_token(CancelToken::new())
                .with_deadline(Instant::now() + Duration::from_secs(3600)),
        );
        let report = interruptible.run(100).unwrap();
        assert_eq!(report, plain_report, "interrupt checks must not perturb");
    }

    /// Halts immediately; neighbor keeps sending to it.
    struct Mute;
    impl Process for Mute {
        type Msg = u64;
        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>) -> Status {
            Status::Halted
        }
    }

    struct Chatter {
        rounds_left: u32,
    }
    impl Process for Chatter {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            ctx.send(0, 1);
            self.rounds_left -= 1;
            if self.rounds_left == 0 {
                Status::Halted
            } else {
                Status::Running
            }
        }
    }

    enum Pair {
        Mute(Mute),
        Chatter(Chatter),
    }
    impl Process for Pair {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            match self {
                Pair::Mute(p) => p.on_round(ctx),
                Pair::Chatter(p) => p.on_round(ctx),
            }
        }
    }

    #[test]
    fn messages_to_halted_nodes_are_dropped_but_counted() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let nodes = vec![Pair::Mute(Mute), Pair::Chatter(Chatter { rounds_left: 3 })];
        let mut sim = Simulator::new(topo, nodes);
        let report = sim.run(10).unwrap();
        assert!(report.all_halted);
        assert_eq!(report.total_messages, 3);
        assert_eq!(report.rounds, 3);
    }

    /// Echo server: checks inbox port labels are the receiver's ports.
    struct PortChecker {
        expect_from_port: Port,
        seen: bool,
    }
    impl Process for PortChecker {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                // Star center (node 0) sends distinct values per port.
                if ctx.node() == 0 {
                    for p in 0..ctx.degree() {
                        ctx.send(p, p as u64 + 100);
                    }
                }
                Status::Running
            } else {
                if ctx.node() != 0 {
                    let item = ctx.inbox().first().expect("one message");
                    assert_eq!(item.port, self.expect_from_port);
                    assert_eq!(item.msg, 100 + (ctx.node() as u64 - 1));
                    self.seen = true;
                }
                Status::Halted
            }
        }
    }

    #[test]
    fn ports_are_receiver_local() {
        // Star: 0 - 1, 0 - 2, 0 - 3. Leaves have a single port 0.
        let topo = Topology::from_links(4, &[(0, 1), (0, 2), (0, 3)]);
        let nodes = (0..4)
            .map(|_| PortChecker {
                expect_from_port: 0,
                seen: false,
            })
            .collect();
        let mut sim = Simulator::new(topo, nodes);
        sim.run(10).unwrap();
        for leaf in 1..4 {
            assert!(sim.node(leaf).seen);
        }
    }

    #[test]
    fn into_parts_returns_state_and_report() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(
            topo,
            vec![
                OneShot {
                    payload: 3,
                    got: None,
                },
                OneShot {
                    payload: 4,
                    got: None,
                },
            ],
        );
        sim.run(10).unwrap();
        let (nodes, report) = sim.into_parts();
        assert_eq!(nodes[0].got, Some(4));
        assert!(report.all_halted);
    }

    /// Sends twice on the same port in one round — a CONGEST violation the
    /// engine turns into a typed error at delivery (a serving layer must
    /// not be crashable by one bad node program).
    struct DoubleSender;
    impl Process for DoubleSender {
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

    #[test]
    fn duplicate_same_port_send_is_typed_error() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(topo, vec![DoubleSender, DoubleSender]);
        let err = sim.step().unwrap_err();
        assert_eq!(
            err,
            SimError::DuplicateSend {
                round: 0,
                receiver: 1,
                port: 0
            }
        );
        // The simulator is poisoned: further steps keep reporting it.
        assert!(matches!(
            sim.step().unwrap_err(),
            SimError::DuplicateSend { .. }
        ));
    }

    /// Arena-recycled solves must be bit-identical to fresh ones.
    #[test]
    fn arena_reuse_is_bit_identical() {
        use crate::engine::EngineArena;
        let make = |n: usize| {
            let links: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let topo = Topology::from_links(n, &links);
            let nodes: Vec<MaxFlood> = (0..n).map(|i| MaxFlood::new(i, n as u32)).collect();
            (topo, nodes)
        };
        let mut arena = EngineArena::new();
        for n in [8usize, 5, 12, 8] {
            let (topo, nodes) = make(n);
            let mut fresh = Simulator::new(topo, nodes).with_trace(true);
            let fresh_report = fresh.run(200).unwrap();

            let (topo, nodes) = make(n);
            let mut recycled = Simulator::with_arena(topo, nodes, arena).with_trace(true);
            let recycled_report = recycled.run(200).unwrap();
            assert_eq!(recycled_report, fresh_report, "n = {n}");
            for id in 0..n {
                assert_eq!(recycled.node(id).known, fresh.node(id).known);
            }
            let (_, _, back) = recycled.into_arena();
            arena = back;
        }
    }

    /// Parallel links between the same pair are distinct ports and carry
    /// distinct messages.
    struct ParallelLinks {
        got: Vec<u64>,
    }
    impl Process for ParallelLinks {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                ctx.send(0, 10);
                ctx.send(1, 20);
                Status::Running
            } else {
                self.got = ctx.inbox().iter().map(|i| i.msg).collect();
                Status::Halted
            }
        }
    }

    #[test]
    fn parallel_links_deliver_independently() {
        let topo = Topology::from_links(2, &[(0, 1), (0, 1)]);
        let nodes = vec![ParallelLinks { got: vec![] }, ParallelLinks { got: vec![] }];
        let mut sim = Simulator::new(topo, nodes);
        let report = sim.run(10).unwrap();
        assert_eq!(sim.node(0).got, vec![10, 20]);
        assert_eq!(sim.node(1).got, vec![10, 20]);
        assert_eq!(report.total_messages, 4);
    }
}
