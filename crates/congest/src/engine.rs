//! The zero-allocation round engine behind [`Simulator`](crate::Simulator).
//!
//! # Mailbox arena
//!
//! Mail lives in a **flat port-indexed slot arena**: one `Option<M>` slot
//! per directed link endpoint `(node, port)`, laid out in the topology's CSR
//! order ([`Topology::slot_of`]). Because CONGEST permits exactly one
//! message per directed link per round, a slot holds at most one message;
//! delivery is a single indexed write, a node's inbox is the contiguous
//! slot range of its ports, and the per-inbox `sort_by_key` of the old
//! engine disappears entirely — port order is structural.
//!
//! The arena is **double-buffered** (`cur` is read this round, `nxt` is
//! written for the next) and buffers swap at the end of each round. Slots
//! written in a round are remembered in a *dirty list* so clearing costs
//! `O(messages)`, not `O(total ports)`; an **active worklist** per chunk
//! makes halted nodes cost literally zero.
//!
//! # Chunks and the two phases
//!
//! Nodes are partitioned into chunks (one per thread; a single chunk by
//! default) by a [`Partition`](crate::partition::Partition). On a
//! two-sided network chunk `c` is id range `c` of the vertex side followed
//! by id range `c` of the hyperedge side. The chunk remembers the id of
//! every node it hosts (`global_ids`), so node programs observe their true
//! ids regardless of placement. Each round runs two phases:
//!
//! 1. [`phase_step`] — every chunk steps its active nodes in placement
//!    order. Sends whose destination slot lies in the sender's own chunk
//!    take the **intra-chunk fast path**: a direct write into
//!    the chunk's `nxt` mailbox buffer, no staging. Cross-chunk sends are
//!    *staged* into per-destination-chunk buckets as `(destination slot,
//!    payload)` pairs. Both are accounted on the send side
//!    ([`SendTally`](crate::process::SendTally), which also tracks the
//!    intra/cross split); inboxes are consumed and their dirty slots
//!    cleared.
//! 2. [`phase_deliver`] — every chunk drains the buckets addressed to it
//!    (in ascending source-chunk order) into its `nxt` buffer, dropping
//!    mail addressed to halted nodes (already charged at send time — mail
//!    to halted nodes is counted exactly once, by the sender), then swaps
//!    its buffers.
//!
//! A fast-path write to a receiver that halts (or already halted) is
//! equivalent to the dropped bucket delivery: the slot belongs to a node
//! that is never stepped again, so the message is never read, and the
//! unconditional dirty-slot sweep clears it. A fast-path write to an
//! *occupied* slot is a duplicate same-port send; the duplicate falls
//! back to the sender chunk's own staging bucket so [`phase_deliver`]
//! applies the canonical halted-before-duplicate check and reports the
//! identical typed error in the identical round.
//!
//! Writes are chunk-local in both phases, so running chunks on worker
//! threads needs no locks and no `unsafe`: chunk state simply moves to a
//! worker and back.
//!
//! # Determinism contract
//!
//! All per-round metrics are sums and maxima over sends, merged in
//! ascending chunk order. Node programs observe identical inboxes under
//! any chunking because slot layout is structural, and every round
//! delivers its own mail before the scheduler checks delivery errors and
//! then the budget. Therefore a `Simulator` produces **bit-identical**
//! node states, [`RoundMetrics`], [`SimReport`](crate::SimReport)s and
//! errors for any chunk count — verified by property tests.
//!
//! # Steady-state allocation
//!
//! After warm-up (bucket/dirty-list capacity growth in early rounds), a
//! round performs **zero heap allocations**: staging reuses bucket
//! capacity, dirty lists reuse theirs, and chunk state is moved, never
//! reallocated. `tests/zero_alloc.rs` enforces this with a counting global
//! allocator.

use crate::error::SimError;
use crate::metrics::{BitBudget, RoundMetrics};
use crate::partition::Partition;
use crate::process::{Ctx, Process, SendTally, StagedSends, Status, LOCAL_CHUNK};
use crate::topology::Topology;

/// Everything one worker needs to run its share of a round: the node
/// programs of one chunk of the partition, their mailbox slots (both
/// buffers), the active worklist, staging buckets, and the precomputed
/// routing tables. Moves wholesale between the scheduler and a worker
/// thread.
#[derive(Debug)]
pub(crate) struct ChunkState<P: Process> {
    /// This chunk's index — the staging bucket fast-path duplicates fall
    /// back to.
    pub chunk_index: usize,
    /// Global node id per local node: the chunk's vertex range, then its
    /// hyperedge range. Node programs and error reports use it.
    pub global_ids: Vec<u32>,
    /// Node programs, indexed by local id.
    pub nodes: Vec<P>,
    /// Halted flag per local node.
    pub halted: Vec<bool>,
    /// Local ids of nodes still running, ascending.
    pub worklist: Vec<u32>,
    /// Mailbox slots read this round (one per local port).
    pub cur: Vec<Option<P::Msg>>,
    /// Mailbox slots being written for next round.
    pub nxt: Vec<Option<P::Msg>>,
    /// Occupied slots of `cur` (cleared after consumption).
    dirty_cur: Vec<u32>,
    /// Occupied slots of `nxt`.
    dirty_nxt: Vec<u32>,
    /// Outgoing staging: one bucket per destination chunk, entries are
    /// `(destination-local slot, payload)`.
    pub stage: Vec<Vec<(u32, P::Msg)>>,
    /// Send-side accounting for the current round.
    pub tally: SendTally,
    /// Nodes of this chunk that halted in the current round.
    pub newly_halted: u32,
    /// First CONGEST violation observed at delivery (a duplicate same-port
    /// send). Recorded instead of panicking so the scheduler can surface a
    /// typed [`SimError`]; once set, the chunk stops stepping.
    pub delivery_error: Option<SimError>,
    /// Per local node: first local slot (CSR offsets rebased to the chunk;
    /// length `nodes.len() + 1`).
    local_offsets: Vec<u32>,
    /// Per local slot: owning local node (for the halted-receiver check).
    slot_node: Vec<u32>,
    /// Per local slot, viewed as a *sender* port: destination chunk, or
    /// [`LOCAL_CHUNK`] when the destination lies in this chunk (fast path).
    dest_chunk: Vec<u32>,
    /// Per local slot, viewed as a *sender* port: destination-local slot.
    dest_local: Vec<u32>,
}

impl<P: Process> ChunkState<P> {
    /// A chunk with no nodes, no slots, and no routing tables — the state an
    /// [`EngineArena`] holds between solves. Every buffer is empty but, for
    /// a recycled chunk, retains its capacity.
    pub(crate) fn empty() -> Self {
        Self {
            chunk_index: 0,
            global_ids: Vec::new(),
            nodes: Vec::new(),
            halted: Vec::new(),
            worklist: Vec::new(),
            cur: Vec::new(),
            nxt: Vec::new(),
            dirty_cur: Vec::new(),
            dirty_nxt: Vec::new(),
            stage: Vec::new(),
            tally: SendTally::default(),
            newly_halted: 0,
            delivery_error: None,
            local_offsets: Vec::new(),
            slot_node: Vec::new(),
            dest_chunk: Vec::new(),
            dest_local: Vec::new(),
        }
    }

    /// Builds the chunk at `index` of `part`. (Production paths go through
    /// [`ChunkState::rebuild`] on a recycled chunk; building from scratch
    /// remains as the test oracle.)
    #[cfg(test)]
    pub(crate) fn build(topo: &Topology, part: &Partition, index: usize) -> Self {
        let mut chunk = Self::empty();
        chunk.rebuild(topo, part, index);
        chunk
    }

    /// Re-derives every per-topology table for a (possibly different)
    /// topology and partition **in place**, reusing the capacity of every
    /// buffer — mailbox slots, dirty lists, worklist, staging buckets and
    /// routing tables all keep their allocations across solves. `nodes` is
    /// cleared; the caller refills it *in placement order*. The result is
    /// logically identical to [`ChunkState::build`] for the same arguments.
    pub(crate) fn rebuild(&mut self, topo: &Topology, part: &Partition, index: usize) {
        let num_chunks = part.num_chunks();
        let ranges = part.ranges(index);
        let num_nodes = ranges.iter().map(ExactSizeIterator::len).sum();
        let num_slots = ranges.iter().map(|r| topo.slot_span(r.clone()).len()).sum();

        self.chunk_index = index;
        self.global_ids.clear();
        self.global_ids
            .extend(ranges.iter().cloned().flatten().map(|u| u as u32));
        self.nodes.clear();
        self.halted.clear();
        self.halted.resize(num_nodes, false);
        self.worklist.clear();
        self.worklist.extend(0..num_nodes as u32);
        self.cur.clear();
        self.cur.resize_with(num_slots, || None);
        self.nxt.clear();
        self.nxt.resize_with(num_slots, || None);
        self.dirty_cur.clear();
        self.dirty_nxt.clear();
        // Keep existing bucket capacity; only adjust the bucket count.
        for bucket in &mut self.stage {
            bucket.clear();
        }
        self.stage.truncate(num_chunks);
        while self.stage.len() < num_chunks {
            self.stage.push(Vec::new());
        }
        self.tally.clear();
        self.newly_halted = 0;
        self.delivery_error = None;

        self.local_offsets.clear();
        self.slot_node.clear();
        self.dest_chunk.clear();
        self.dest_local.clear();
        self.local_offsets.push(0);
        for (lu, u) in ranges.into_iter().flatten().enumerate() {
            for p in 0..topo.degree(u) {
                self.slot_node.push(lu as u32);
                // The peer's receiving slot: its chunk decides staging vs
                // the fast path.
                let (v, q) = topo.peer(u, p);
                let (c, first) = part.first_slot_of(topo, v);
                self.dest_chunk
                    .push(if c == index { LOCAL_CHUNK } else { c as u32 });
                self.dest_local.push((first + q) as u32);
            }
            self.local_offsets.push(self.slot_node.len() as u32);
        }
    }
}

/// A reusable bundle of round-engine buffers: the mailbox slot arena (both
/// buffers), dirty lists, active worklist, staging buckets, and routing
/// tables of one engine chunk.
///
/// Build one with [`EngineArena::new`], hand it to
/// [`Simulator::with_arena`](crate::Simulator::with_arena), and recover it
/// with [`Simulator::into_arena`](crate::Simulator::into_arena): every
/// buffer keeps its capacity across solves, so a stream of solves on
/// same-sized instances performs no steady-state arena allocations. A
/// serving worker owns one arena and lends it to every solve it runs.
#[derive(Debug)]
pub struct EngineArena<P: Process> {
    pub(crate) chunk: Box<ChunkState<P>>,
}

impl<P: Process> EngineArena<P> {
    /// An empty arena (no capacity yet; it grows on first use).
    #[must_use]
    pub fn new() -> Self {
        Self {
            chunk: Box::new(ChunkState::empty()),
        }
    }
}

impl<P: Process> Default for EngineArena<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Phase 1 of a round: step every active node of `chunk`, writing
/// intra-chunk sends straight into the local `nxt` mailbox (fast path),
/// staging cross-chunk sends, and consuming inboxes. Mutates only
/// chunk-local state.
pub(crate) fn phase_step<P: Process>(
    chunk: &mut ChunkState<P>,
    round: u64,
    budget: Option<BitBudget>,
) {
    let ChunkState {
        chunk_index,
        global_ids,
        nodes,
        halted,
        worklist,
        cur,
        nxt,
        dirty_cur,
        dirty_nxt,
        stage,
        tally,
        newly_halted,
        delivery_error,
        local_offsets,
        dest_chunk,
        dest_local,
        ..
    } = chunk;
    tally.clear();
    *newly_halted = 0;
    if delivery_error.is_some() {
        // The previous delivery observed a protocol violation; the run is
        // aborting, so don't step node programs against the corrupt inbox.
        return;
    }
    for &lu_raw in worklist.iter() {
        let lu = lu_raw as usize;
        let lo = local_offsets[lu] as usize;
        let hi = local_offsets[lu + 1] as usize;
        let mut ctx = Ctx::staged(
            round,
            global_ids[lu] as usize,
            &cur[lo..hi],
            StagedSends {
                buckets: stage.as_mut_slice(),
                dest_chunk: &dest_chunk[lo..hi],
                dest_local: &dest_local[lo..hi],
                nxt: nxt.as_mut_slice(),
                dirty_nxt: &mut *dirty_nxt,
                self_bucket: *chunk_index,
                tally: &mut *tally,
                budget,
            },
        );
        if nodes[lu].on_round(&mut ctx) == Status::Halted {
            halted[lu] = true;
            *newly_halted += 1;
        }
    }
    if *newly_halted > 0 {
        worklist.retain(|&lu| !halted[lu as usize]);
    }
    // Inboxes are consumed; clear exactly the occupied slots.
    for &s in dirty_cur.iter() {
        cur[s as usize] = None;
    }
    dirty_cur.clear();
}

/// Phase 2 of a round: deliver the buckets addressed to `chunk` (one per
/// source chunk, ascending) into its `nxt` buffer, dropping mail to halted
/// receivers, then swap the buffers. Buckets are drained but keep their
/// capacity; the caller returns them to their owners.
///
/// Two messages landing on the same slot in one round violate CONGEST (one
/// message per directed link per round). The first message wins, the
/// duplicate is dropped, and the violation is recorded in
/// `chunk.delivery_error` as [`SimError::DuplicateSend`] for the scheduler
/// to surface — a bad node program must yield a typed error, not a crash.
/// `sent_round` is the round in which the offending messages were sent.
pub(crate) fn phase_deliver<P: Process>(
    chunk: &mut ChunkState<P>,
    inbound: &mut [Vec<(u32, P::Msg)>],
    sent_round: u64,
) {
    for bucket in inbound.iter_mut() {
        for (lslot, msg) in bucket.drain(..) {
            let ls = lslot as usize;
            let receiver = chunk.slot_node[ls] as usize;
            if chunk.halted[receiver] {
                // Already charged by the sender; the program is gone.
                continue;
            }
            if chunk.nxt[ls].is_some() {
                if chunk.delivery_error.is_none() {
                    chunk.delivery_error = Some(SimError::DuplicateSend {
                        round: sent_round,
                        receiver: chunk.global_ids[receiver] as usize,
                        port: ls - chunk.local_offsets[receiver] as usize,
                    });
                }
                continue;
            }
            chunk.nxt[ls] = Some(msg);
            chunk.dirty_nxt.push(lslot);
        }
    }
    std::mem::swap(&mut chunk.cur, &mut chunk.nxt);
    std::mem::swap(&mut chunk.dirty_cur, &mut chunk.dirty_nxt);
}

/// Turns the round's merged tally (folded in ascending chunk order) into
/// its metrics, or a budget error.
pub(crate) fn finish_round(
    topo: &Topology,
    merged: &SendTally,
    round: u64,
    active_at_start: usize,
    budget: Option<BitBudget>,
) -> Result<RoundMetrics, SimError> {
    if let (Some((sender, port, bits)), Some(b)) = (merged.violation, budget) {
        let (receiver, rport) = topo.peer(sender, port);
        return Err(SimError::BudgetExceeded {
            round,
            receiver,
            port: rport,
            bits,
            budget: b.bits(),
        });
    }
    Ok(RoundMetrics {
        round,
        messages: merged.messages,
        bits: merged.bits,
        max_link_bits: merged.max_link_bits,
        active_nodes: active_at_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_hypergraph::from_edge_lists;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One-sided networks, and two-sided incidences whose chunks hold a
    /// range of each side: a uniform instance and one with fewer vertices
    /// than chunks.
    fn topologies() -> Vec<Topology> {
        let uniform = random_uniform(
            &RandomUniform {
                n: 60,
                m: 90,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 9 },
            },
            &mut StdRng::seed_from_u64(30),
        );
        let fewer_vertices_than_chunks =
            from_edge_lists(2, &[&[0], &[0, 1], &[1], &[0], &[1], &[0, 1]]).unwrap();
        vec![
            crate::builders::grid(5, 7),
            crate::builders::complete(6),
            Topology::bipartite_incidence(&uniform),
            Topology::bipartite_incidence(&fewer_vertices_than_chunks),
        ]
    }

    fn build_all(topo: &Topology, k: usize) -> Vec<ChunkState<DummyProc>> {
        let part = Partition::new(topo, k);
        (0..k).map(|i| ChunkState::build(topo, &part, i)).collect()
    }

    #[test]
    fn chunks_partition_slots() {
        for topo in topologies() {
            for k in [2, 3, 4] {
                let mut hosted = vec![false; topo.len()];
                let mut total_slots = 0;
                for c in build_all(&topo, k) {
                    total_slots += c.cur.len();
                    assert_eq!(c.cur.len(), c.slot_node.len());
                    assert_eq!(*c.local_offsets.last().unwrap() as usize, c.cur.len());
                    for (lu, &u) in c.global_ids.iter().enumerate() {
                        let u = u as usize;
                        assert!(!hosted[u], "node {u} hosted twice");
                        hosted[u] = true;
                        let slots = c.local_offsets[lu]..c.local_offsets[lu + 1];
                        assert_eq!(slots.len(), topo.degree(u), "node {u}");
                    }
                }
                assert!(hosted.into_iter().all(|h| h), "{k} chunks miss a node");
                assert_eq!(total_slots, topo.total_ports());
            }
        }
    }

    #[test]
    fn routing_tables_invert_reciprocal_slots() {
        for topo in topologies() {
            for k in [2, 3, 4] {
                let chunks = build_all(&topo, k);
                // Where each node is hosted: its chunk and its first slot.
                let mut home = vec![(0, 0); topo.len()];
                for (ci, chunk) in chunks.iter().enumerate() {
                    for (lu, &u) in chunk.global_ids.iter().enumerate() {
                        home[u as usize] = (ci, chunk.local_offsets[lu] as usize);
                    }
                }
                let route = |ci: usize, ls: usize| {
                    let raw = chunks[ci].dest_chunk[ls];
                    let dc = if raw == LOCAL_CHUNK { ci } else { raw as usize };
                    assert_ne!(raw, ci as u32, "a chunk's own slots take the fast path");
                    (dc, chunks[ci].dest_local[ls] as usize)
                };
                for u in 0..topo.len() {
                    for p in 0..topo.degree(u) {
                        let (ci, first) = home[u];
                        // The entry of (u, p) addresses (v, q)'s slot, and
                        // the entry of (v, q) addresses (u, p)'s.
                        let (v, q) = topo.peer(u, p);
                        let (dc, dl) = route(ci, first + p);
                        assert_eq!((dc, dl), (home[v].0, home[v].1 + q), "slot ({u}, {p})");
                        assert_eq!(route(dc, dl), (ci, first + p), "slot ({v}, {q})");
                    }
                }
            }
        }
    }

    #[test]
    fn single_chunk_routes_everything_through_the_fast_path() {
        for topo in topologies() {
            let [c] = &build_all(&topo, 1)[..] else {
                unreachable!("one chunk")
            };
            assert!(c.dest_chunk.iter().all(|&d| d == LOCAL_CHUNK));
            assert_eq!(c.global_ids, (0..topo.len() as u32).collect::<Vec<_>>());
        }
    }

    /// Minimal process for table tests (never stepped).
    struct DummyProc;
    impl Process for DummyProc {
        type Msg = u64;
        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>) -> Status {
            Status::Halted
        }
    }
}
