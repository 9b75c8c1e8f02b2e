//! Enforces the round engine's steady-state **zero-allocation** guarantee.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (early rounds grow staging-bucket and dirty-list capacity), the
//! steady-state round loop must perform exactly zero heap allocations, on
//! one chunk and on several. The counter is process-global, while libtest runs
//! separate tests (and its own bookkeeping) on concurrent threads, so only
//! allocations on *counting* threads are tallied — the running test's own
//! thread and every engine worker that steps one of its nodes — and the
//! tests take turns (see [`Counting::start`]). For the multi-chunk test
//! the simulator's chunk workers, and the channel handoffs between them
//! and the test thread, are part of the measured region.

#![expect(unsafe_code, reason = "test-only counting global allocator")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dcover_congest::{Ctx, PartitionPolicy, Process, Simulator, Status, Topology};

/// System allocator wrapper that counts allocations (and reallocations)
/// made on counting threads.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are tallied. Const-initialised
    /// and drop-free, so reading it from the allocator never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        // relaxed: allocation tally; one test counts at a time and reads
        // only its own window, no ordering needed (see `allocs`).
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around the calls
// neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // which is `System`, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `ptr` came from `System` with
        // `layout`, and that `new_size` is non-zero and does not overflow
        // when rounded up to `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the tests: each tallies all of its counting threads, so two
/// running at once would count each other's allocations.
static TURN: Mutex<()> = Mutex::new(());

/// A test's turn at the counter; the calling thread counts until drop.
struct Counting {
    _turn: MutexGuard<'static, ()>,
}

impl Counting {
    /// Waits for the turn, then makes the calling thread count. Declare
    /// it first in a test, so the engine (and its workers) is dropped
    /// before the turn passes on.
    fn start() -> Self {
        let turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
        COUNTED.set(true);
        Self { _turn: turn }
    }
}

impl Drop for Counting {
    fn drop(&mut self) {
        // Stop counting before the turn passes on: libtest's own
        // bookkeeping on this thread after the test must not be tallied.
        COUNTED.set(false);
    }
}

fn allocs() -> u64 {
    // relaxed: the measured region runs on the reading thread (or joins
    // the workers first), so program order already sequences the reads.
    ALLOCS.load(Ordering::Relaxed)
}

/// Message-heavy gossip: every node broadcasts every round — the workload
/// class the engine is optimized for (MWHVC sends on every link).
struct Flood {
    acc: u64,
    rounds: u64,
}

impl Process for Flood {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        // The thread stepping this node — the test's own, or the chunk
        // worker of a multi-chunk simulator — is part of the measured
        // region.
        COUNTED.set(true);
        for item in ctx.inbox() {
            self.acc = self.acc.wrapping_add(item.msg);
        }
        if ctx.round() >= self.rounds {
            return Status::Halted;
        }
        ctx.broadcast(self.acc % 1023 + 1);
        Status::Running
    }
}

fn grid_topology(rows: usize, cols: usize) -> Topology {
    let id = |r: usize, c: usize| r * cols + c;
    let mut links = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                links.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                links.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Topology::from_links(rows * cols, &links)
}

fn flood_nodes(n: usize, rounds: u64) -> Vec<Flood> {
    (0..n)
        .map(|i| Flood {
            acc: i as u64,
            rounds,
        })
        .collect()
}

#[test]
fn warmup_allocations_are_bounded() {
    // Sanity check on the harness itself: construction does allocate.
    let _counting = Counting::start();
    let before = allocs();
    let topo = grid_topology(10, 10);
    let n = topo.len();
    let mut sim = Simulator::new(topo, flood_nodes(n, 50));
    sim.run(100).unwrap();
    assert!(allocs() > before, "allocation counter must be live");
}

#[test]
fn sequential_steady_state_allocates_nothing() {
    let _counting = Counting::start();
    let topo = grid_topology(20, 20);
    let n = topo.len();
    let mut sim = Simulator::new(topo, flood_nodes(n, 200));
    // Warm-up: let staging buckets and dirty lists reach capacity.
    for _ in 0..20 {
        sim.step().unwrap();
    }
    let before = allocs();
    for _ in 0..100 {
        sim.step().unwrap();
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "sequential round loop allocated {during} times in 100 steady-state rounds"
    );
}

#[test]
fn parallel_steady_state_allocates_nothing() {
    let _counting = Counting::start();
    // Four chunks of about five grid rows each: the links between chunks
    // (about 8% of 760) take the staging buckets, the rest the
    // intra-chunk fast path (direct mailbox writes + dirty-list pushes),
    // so the measured loop exercises both routes. Once the dirty lists
    // and buckets reach capacity, a broadcast round allocates nothing.
    let topo = grid_topology(20, 20);
    let n = topo.len();
    let mut sim =
        Simulator::with_partition(topo, flood_nodes(n, 400), 4, PartitionPolicy::Contiguous);
    for _ in 0..20 {
        sim.step().unwrap();
    }
    let (intra, cross) = (
        sim.report().intra_chunk_messages,
        sim.report().cross_chunk_messages,
    );
    let before = allocs();
    for _ in 0..100 {
        sim.step().unwrap();
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "parallel round loop allocated {during} times in 100 steady-state rounds"
    );
    let intra = sim.report().intra_chunk_messages - intra;
    let cross = sim.report().cross_chunk_messages - cross;
    assert!(
        cross > 0 && intra > cross,
        "measured rounds sent {intra} intra-chunk and {cross} cross-chunk messages"
    );
}
