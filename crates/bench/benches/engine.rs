//! **Engine throughput benchmark** — the round-engine perf trajectory.
//!
//! Pits the zero-allocation arena engine (one chunk, and 8 chunks on
//! persistent worker threads) against a faithful replica of the previous
//! engine design (per-round `thread::scope` spawn, per-node `Vec<Incoming>`
//! inboxes, per-inbox `sort_by_key`) on a pathological round-heavy
//! workload: a 100×100 grid (10,000 nodes) where a long-lived core of
//! nodes exchanges tiny constant-size messages on every link for hundreds
//! of rounds while 90% of the network halts after a few rounds — the
//! regime where per-round engine overhead (thread spawns, inbox
//! allocation and sorting, halted-node scans) dominates wall-clock.
//!
//! Prints criterion-style timings, plus `rounds/sec` and `messages/sec`
//! figures. Set `BENCH_ENGINE_JSON=/path/BENCH_engine.json` to write the
//! machine-readable record (see `scripts/bench_engine.sh`).

use std::io::Write as _;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dcover_congest::{Ctx, Incoming, PartitionPolicy, Process, Simulator, Status, Topology};

const ROUNDS: u64 = 400;
const THREADS: usize = 8;

/// Round-heavy gossip in the MWHVC communication shape: tiny constant-size
/// messages broadcast on every incident link. One node in ten is
/// long-lived and keeps the protocol running for `ROUNDS` rounds; the
/// other 90% halt after round 3, so an engine that cannot make halted
/// nodes free keeps paying for the whole network on every round.
struct Flood {
    acc: u64,
    rounds: u64,
}

impl Process for Flood {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        for item in ctx.inbox() {
            self.acc = self.acc.wrapping_add(item.msg);
        }
        let deadline = if ctx.node() % 10 == 0 { self.rounds } else { 3 };
        if ctx.round() >= deadline {
            return Status::Halted;
        }
        ctx.broadcast(self.acc % 63 + 1);
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

fn nodes(n: usize) -> Vec<Flood> {
    (0..n)
        .map(|i| Flood {
            acc: i as u64,
            rounds: ROUNDS,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Replica of the previous engine: per-round scoped thread spawn, per-node
// `Vec<Incoming>` inboxes, stable `sort_by_key` per inbox in finalize.
// Kept here (not in the library) purely as the benchmark baseline.
// ---------------------------------------------------------------------------

struct ScopedPerRoundSim<P: Process> {
    topo: Topology,
    nodes: Vec<P>,
    halted: Vec<bool>,
    active: usize,
    inboxes: Vec<Vec<Incoming<P::Msg>>>,
    next: Vec<Vec<Incoming<P::Msg>>>,
    round: u64,
    threads: usize,
    total_messages: u64,
}

impl<P: Process> ScopedPerRoundSim<P> {
    fn new(topo: Topology, nodes: Vec<P>, threads: usize) -> Self {
        let n = nodes.len();
        Self {
            topo,
            nodes,
            halted: vec![false; n],
            active: n,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            next: (0..n).map(|_| Vec::new()).collect(),
            round: 0,
            threads,
            total_messages: 0,
        }
    }

    fn step(&mut self) {
        let n = self.nodes.len();
        let chunk = n.div_ceil(self.threads).max(1);
        let topo = &self.topo;
        let round = self.round;

        // Per-round thread spawn, exactly like the old engine.
        type ChunkResult<M> = (Vec<(usize, usize, M)>, usize);
        let results: Vec<ChunkResult<P::Msg>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut base = 0usize;
            let mut nodes_rest: &mut [P] = &mut self.nodes;
            let mut halted_rest: &mut [bool] = &mut self.halted;
            let mut inbox_rest: &[Vec<Incoming<P::Msg>>] = &self.inboxes;
            while !nodes_rest.is_empty() {
                let take = chunk.min(nodes_rest.len());
                let (nodes_chunk, nr) = nodes_rest.split_at_mut(take);
                let (halted_chunk, hr) = halted_rest.split_at_mut(take);
                let (inbox_chunk, ir) = inbox_rest.split_at(take);
                nodes_rest = nr;
                halted_rest = hr;
                inbox_rest = ir;
                let first = base;
                base += take;
                handles.push(scope.spawn(move || {
                    let mut envelopes = Vec::new();
                    let mut scratch: Vec<(usize, P::Msg)> = Vec::new();
                    let mut newly_halted = 0usize;
                    for (offset, node) in nodes_chunk.iter_mut().enumerate() {
                        let id = first + offset;
                        if halted_chunk[offset] {
                            continue;
                        }
                        let mut ctx = Ctx::new(
                            round,
                            id,
                            topo.degree(id),
                            &inbox_chunk[offset],
                            &mut scratch,
                        );
                        let status = node.on_round(&mut ctx);
                        for (port, msg) in scratch.drain(..) {
                            let (peer, peer_port) = topo.peer(id, port);
                            envelopes.push((peer, peer_port, msg));
                        }
                        if status == Status::Halted {
                            halted_chunk[offset] = true;
                            newly_halted += 1;
                        }
                    }
                    (envelopes, newly_halted)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        for (envelopes, newly_halted) in results {
            self.active -= newly_halted;
            for (dst, port, msg) in envelopes {
                self.next[dst].push(Incoming { port, msg });
            }
        }
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        // The old finalize: per-inbox stable sort by port + halted clear.
        for (receiver, inbox) in self.next.iter_mut().enumerate() {
            if inbox.is_empty() {
                continue;
            }
            inbox.sort_by_key(|i| i.port);
            self.total_messages += inbox.len() as u64;
            if self.halted[receiver] {
                inbox.clear();
            }
        }
        std::mem::swap(&mut self.inboxes, &mut self.next);
        self.round += 1;
    }

    fn run_to_completion(&mut self) -> u64 {
        while self.active > 0 {
            self.step();
        }
        self.total_messages
    }
}

// ---------------------------------------------------------------------------

struct EngineStat {
    name: &'static str,
    rounds_per_sec: f64,
    messages_per_sec: f64,
    speedup_vs_scoped: f64,
}

fn measure<F: FnMut() -> (u64, u64)>(mut run: F) -> (f64, f64) {
    // One warm-up run, then the best of three timed runs.
    black_box(run());
    let mut best_rps = 0f64;
    let mut best_mps = 0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let (rounds, messages) = black_box(run());
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        best_rps = best_rps.max(rounds as f64 / secs);
        best_mps = best_mps.max(messages as f64 / secs);
    }
    (best_rps, best_mps)
}

fn engine_stats(topo: &Topology) -> Vec<EngineStat> {
    let n = topo.len();

    let (scoped_rps, scoped_mps) = measure(|| {
        let mut sim = ScopedPerRoundSim::new(topo.clone(), nodes(n), THREADS);
        let messages = sim.run_to_completion();
        (sim.round, messages)
    });
    let (seq_rps, seq_mps) = measure(|| {
        let mut sim = Simulator::new(topo.clone(), nodes(n));
        let report = sim.run(ROUNDS + 2).expect("terminates");
        (report.rounds, report.total_messages)
    });
    let (par_rps, par_mps) = measure(|| {
        let mut sim =
            Simulator::with_partition(topo.clone(), nodes(n), THREADS, PartitionPolicy::Contiguous);
        let report = sim.run(ROUNDS + 2).expect("terminates");
        (report.rounds, report.total_messages)
    });

    vec![
        EngineStat {
            name: "scoped_per_round_8t",
            rounds_per_sec: scoped_rps,
            messages_per_sec: scoped_mps,
            speedup_vs_scoped: 1.0,
        },
        EngineStat {
            name: "arena_sequential",
            rounds_per_sec: seq_rps,
            messages_per_sec: seq_mps,
            speedup_vs_scoped: seq_rps / scoped_rps,
        },
        EngineStat {
            name: "arena_pool_8t",
            rounds_per_sec: par_rps,
            messages_per_sec: par_mps,
            speedup_vs_scoped: par_rps / scoped_rps,
        },
    ]
}

fn bench_round_engines(c: &mut Criterion) {
    let topo = grid_topology(100, 100); // 10,000 nodes, 19,800 links
    let n = topo.len();

    let mut group = c.benchmark_group("round_engine_10k");
    group.sample_size(10);
    group.bench_function("scoped_per_round_8t", |b| {
        b.iter(|| {
            let mut sim = ScopedPerRoundSim::new(topo.clone(), nodes(n), THREADS);
            sim.run_to_completion()
        });
    });
    group.bench_function("arena_sequential", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(topo.clone(), nodes(n));
            sim.run(ROUNDS + 2).expect("terminates").total_messages
        });
    });
    group.bench_function("arena_pool_8t", |b| {
        b.iter(|| {
            let mut sim = Simulator::with_partition(
                topo.clone(),
                nodes(n),
                THREADS,
                PartitionPolicy::Contiguous,
            );
            sim.run(ROUNDS + 2).expect("terminates").total_messages
        });
    });
    group.finish();

    let stats = engine_stats(&topo);
    println!("\n== engine throughput ({n} nodes, {ROUNDS} rounds, {THREADS} threads) ==");
    for s in &stats {
        println!(
            "{:<22} {:>12.1} rounds/sec {:>16.0} messages/sec  ({:.2}x vs scoped)",
            s.name, s.rounds_per_sec, s.messages_per_sec, s.speedup_vs_scoped
        );
    }

    if let Ok(path) = std::env::var("BENCH_ENGINE_JSON") {
        let mut json = String::from("{\n  \"benchmark\": \"round_engine\",\n");
        json.push_str(&format!(
            "  \"nodes\": {n},\n  \"rounds\": {ROUNDS},\n  \"threads\": {THREADS},\n  \"engines\": [\n"
        ));
        for (i, s) in stats.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"rounds_per_sec\": {:.1}, \"messages_per_sec\": {:.0}, \"speedup_vs_scoped\": {:.3}}}{}\n",
                s.name,
                s.rounds_per_sec,
                s.messages_per_sec,
                s.speedup_vs_scoped,
                if i + 1 < stats.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write BENCH_ENGINE_JSON");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_round_engines);
criterion_main!(benches);
