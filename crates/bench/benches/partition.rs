//! **Partition policy benchmark** — locality-aware chunking vs contiguous
//! chunking on the parallel round engine.
//!
//! The parallel scheduler splits the bipartite incidence network into one
//! contiguous slot-range chunk per worker. `PartitionPolicy::Contiguous`
//! cuts the input order; `PartitionPolicy::Locality` first computes a
//! BFS-clustered arrangement so connected nodes land in the same chunk,
//! then cuts the arrangement. Messages staying inside a chunk take the
//! intra-chunk fast path (a direct mailbox write); messages crossing the
//! cut go through per-destination staging buckets and a delivery phase.
//! This benchmark measures, for each instance family and thread count,
//! the **cross-chunk message fraction** and the round throughput of both
//! policies on the full MWHVC protocol.
//!
//! Results are **bit-identical by construction** — the benchmark asserts
//! cover/levels/duals/report equality against the sequential solver for
//! every (family, threads, policy) combination before timing anything.
//!
//! Families: `geometric` (coverage instances with genuine spatial
//! locality — the motivating case), `planted` (random rank-3 with a
//! planted cover — little exploitable locality), and `f_partite`
//! (complete 3-partite — dense, worst case for any placement).
//!
//! Set `BENCH_PARTITION_JSON=/path/BENCH_partition.json` for the
//! machine-readable record (see `scripts/bench_partition.sh`) and
//! `BENCH_PARTITION_SMOKE=1` for a seconds-long smoke run (CI uses it to
//! catch bench bitrot; the record asserts the locality policy strictly
//! lowers the geometric cut at every measured thread count before
//! writing anything).

use std::io::Write as _;
use std::time::Instant;

use dcover_congest::{PartitionPolicy, SimReport, Simulator};
use dcover_core::{build_network, MwhvcConfig, MwhvcSolver};
use dcover_hypergraph::generators::{
    complete_f_partite, coverage_instance, planted_cover, WeightDist,
};
use dcover_hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPSILON: f64 = 0.5;
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];
const POLICIES: [PartitionPolicy; 2] = [PartitionPolicy::Contiguous, PartitionPolicy::Locality];

fn smoke() -> bool {
    std::env::var("BENCH_PARTITION_SMOKE").is_ok_and(|v| v != "0")
}

fn families() -> Vec<(&'static str, Hypergraph)> {
    let mut rng = StdRng::seed_from_u64(0xC0FE);
    let weights = WeightDist::Uniform { min: 1, max: 50 };
    let geometric = if smoke() {
        coverage_instance(200, 110, 0.12, 3, &weights, &mut rng)
    } else {
        coverage_instance(2000, 1000, 0.05, 4, &weights, &mut rng)
    }
    .system
    .to_hypergraph()
    .expect("coverage instances are valid");
    let planted = if smoke() {
        planted_cover(140, 300, 3, 20, 40, &mut rng).0
    } else {
        planted_cover(1200, 2600, 3, 150, 40, &mut rng).0
    };
    let f_partite = if smoke() {
        complete_f_partite(3, 7)
    } else {
        complete_f_partite(3, 13)
    };
    vec![
        ("geometric", geometric),
        ("planted", planted),
        ("f_partite", f_partite),
    ]
}

struct Point {
    threads: usize,
    policy: PartitionPolicy,
    rounds_per_sec: f64,
    cross_fraction: f64,
    intra_chunk_messages: u64,
    cross_chunk_messages: u64,
}

/// One timed engine run: network build excluded, round loop timed.
fn timed_run(
    g: &Hypergraph,
    config: &MwhvcConfig,
    threads: usize,
    policy: PartitionPolicy,
    limit: u64,
) -> (f64, SimReport) {
    let (topo, nodes) = build_network(g, config);
    let mut sim = Simulator::with_partition(topo, nodes, threads, policy);
    let t = Instant::now();
    let report = sim.run(limit).expect("protocol terminates");
    let secs = t.elapsed().as_secs_f64().max(1e-9);
    (report.rounds as f64 / secs, report)
}

/// One warm-up run, then the best rounds/sec of three timed runs (the
/// report is identical across runs — the engine is deterministic).
fn measure(
    g: &Hypergraph,
    config: &MwhvcConfig,
    threads: usize,
    policy: PartitionPolicy,
    limit: u64,
) -> (f64, SimReport) {
    let (_, report) = timed_run(g, config, threads, policy, limit);
    let mut best = 0f64;
    for _ in 0..3 {
        let (rps, _) = timed_run(g, config, threads, policy, limit);
        best = best.max(rps);
    }
    (best, report)
}

/// Asserts every parallel configuration reproduces the sequential solve
/// bit-for-bit (cover, levels, duals, report) — the determinism gate in
/// front of the stopwatch.
fn assert_bit_identity(family: &str, g: &Hypergraph) -> u64 {
    let seq = MwhvcSolver::new(MwhvcConfig::new(EPSILON).unwrap())
        .solve(g)
        .expect(family);
    for threads in THREAD_COUNTS {
        for policy in POLICIES {
            let config = MwhvcConfig::new(EPSILON).unwrap().with_partition(policy);
            let par = MwhvcSolver::new(config)
                .solve_parallel(g, threads)
                .expect(family);
            assert_eq!(
                seq.cover, par.cover,
                "{family}: cover diverged at {threads} threads ({policy})"
            );
            assert_eq!(
                seq.levels, par.levels,
                "{family}: levels diverged at {threads} threads ({policy})"
            );
            assert_eq!(
                seq.duals, par.duals,
                "{family}: duals diverged at {threads} threads ({policy})"
            );
            assert_eq!(
                seq.report, par.report,
                "{family}: report diverged at {threads} threads ({policy})"
            );
        }
    }
    seq.rounds()
}

fn main() {
    let config = MwhvcConfig::new(EPSILON).unwrap();
    let mut results: Vec<(&'static str, usize, usize, Vec<Point>)> = Vec::new();

    for (family, g) in families() {
        let rounds = assert_bit_identity(family, &g);
        let mut points = Vec::new();
        println!(
            "\n== partition policies: {family} (n={} m={}, {rounds} rounds) ==",
            g.n(),
            g.m()
        );
        for threads in THREAD_COUNTS {
            for policy in POLICIES {
                let (rps, report) = measure(&g, &config, threads, policy, rounds + 2);
                println!(
                    "  {threads}t {policy:<10} {rps:>12.1} rounds/sec  cross {:>7.4} ({}/{} messages)",
                    report.cross_fraction(),
                    report.cross_chunk_messages,
                    report.total_messages,
                );
                points.push(Point {
                    threads,
                    policy,
                    rounds_per_sec: rps,
                    cross_fraction: report.cross_fraction(),
                    intra_chunk_messages: report.intra_chunk_messages,
                    cross_chunk_messages: report.cross_chunk_messages,
                });
            }
        }
        results.push((family, g.n(), g.m(), points));
    }

    // The headline claim: on the spatially-clustered family the locality
    // arrangement must strictly lower the cut at every measured thread
    // count. Asserted before the record is written, so a checked-in
    // BENCH_partition.json is always a witness.
    let geometric = &results
        .iter()
        .find(|(f, ..)| *f == "geometric")
        .expect("geometric family")
        .3;
    for threads in THREAD_COUNTS {
        let cross = |policy: PartitionPolicy| {
            geometric
                .iter()
                .find(|p| p.threads == threads && p.policy == policy)
                .expect("measured point")
                .cross_fraction
        };
        let (contiguous, locality) = (
            cross(PartitionPolicy::Contiguous),
            cross(PartitionPolicy::Locality),
        );
        assert!(
            locality < contiguous,
            "locality policy must strictly lower the geometric cut at {threads} threads \
             (locality {locality:.4} vs contiguous {contiguous:.4})"
        );
    }

    if let Ok(path) = std::env::var("BENCH_PARTITION_JSON") {
        let point_json = |p: &Point| {
            format!(
                "      {{\"threads\": {}, \"policy\": \"{}\", \"rounds_per_sec\": {:.1}, \"cross_fraction\": {:.6}, \"intra_chunk_messages\": {}, \"cross_chunk_messages\": {}}}",
                p.threads,
                p.policy,
                p.rounds_per_sec,
                p.cross_fraction,
                p.intra_chunk_messages,
                p.cross_chunk_messages,
            )
        };
        let family_json = |(family, n, m, points): &(&str, usize, usize, Vec<Point>)| {
            format!(
                "    {{\"family\": \"{family}\", \"n\": {n}, \"m\": {m}, \"points\": [\n{}\n    ]}}",
                points.iter().map(point_json).collect::<Vec<_>>().join(",\n"),
            )
        };
        let json = format!(
            "{{\n  \"benchmark\": \"partition\",\n  \"epsilon\": {EPSILON},\n  \"smoke\": {},\n  \"thread_counts\": [2, 4, 8],\n  \"families\": [\n{}\n  ]\n}}\n",
            smoke(),
            results.iter().map(family_json).collect::<Vec<_>>().join(",\n"),
        );
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write BENCH_PARTITION_JSON");
        println!("wrote {path}");
    }
}
