//! **Warm-start throughput benchmark** — the incremental-serving perf
//! record.
//!
//! Builds a mutation-stream workload: one base instance plus a chain of
//! revisions (each an [`InstanceDelta`] touching a few percent of the
//! edges and weights), then serves the stream two ways:
//!
//! * `cold_resolve` — every revision solved from scratch
//!   (`MwhvcSolver::solve_with_arena`, arena recycled — the strongest
//!   non-incremental baseline);
//! * `warm_chain` — every revision warm-started from its predecessor's
//!   result (`MwhvcSolver::solve_warm_with_arena`), exactly what
//!   `SolveService::submit_delta_with` runs per revision.
//!
//! Before any timing, the correctness gates run: an **empty-delta** warm
//! solve must be bit-identical to the cold solve of the unchanged
//! instance, and every warm revision must pass `Certificate::verify`
//! and the `(f+ε)` bound. Set `BENCH_WARM_JSON=/path/BENCH_warm.json`
//! for the machine-readable record and `BENCH_WARM_SMOKE=1` for a
//! seconds-long smoke run (CI uses it to catch bench bitrot).

use std::io::Write as _;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dcover_congest::EngineArena;
use dcover_core::{approximation_holds, Certificate, MwhvcSolver, WarmState, DEFAULT_TOLERANCE};
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use dcover_hypergraph::{DeltaOutcome, EdgeId, Hypergraph, InstanceDelta, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPSILON: f64 = 0.5;

fn smoke() -> bool {
    std::env::var("BENCH_WARM_SMOKE").is_ok_and(|v| v != "0")
}

/// Workload scale: (n, m, revisions) — small in smoke mode.
fn scale() -> (usize, usize, usize) {
    if smoke() {
        (60, 150, 6)
    } else {
        (400, 1100, 32)
    }
}

/// A revision touching ~2% of the edges plus a couple of weights.
fn random_delta(g: &Hypergraph, rng: &mut StdRng) -> InstanceDelta {
    let n = g.n();
    let remove_edges: Vec<EdgeId> = g
        .edges()
        .filter(|_| rng.gen_range(0u32..1000) < 20)
        .collect();
    let add_edges: Vec<Vec<VertexId>> = (0..remove_edges.len().max(2))
        .map(|_| (0..3).map(|_| VertexId::new(rng.gen_range(0..n))).collect())
        .collect();
    let mut touched = vec![false; n];
    let mut set_weights = Vec::new();
    for _ in 0..3 {
        let v = rng.gen_range(0..n);
        if !touched[v] {
            touched[v] = true;
            set_weights.push((VertexId::new(v), rng.gen_range(1u64..50)));
        }
    }
    InstanceDelta {
        remove_edges,
        add_edges,
        set_weights,
    }
}

/// The mutation stream: the base instance plus one applied delta outcome
/// per revision (graph + surviving-edge mapping, as the service sees it).
struct Workload {
    base: Hypergraph,
    steps: Vec<DeltaOutcome>,
}

fn workload() -> Workload {
    let (n, m, steps) = scale();
    let mut rng = StdRng::seed_from_u64(0x3A97);
    let base = random_uniform(
        &RandomUniform {
            n,
            m,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 100 },
        },
        &mut rng,
    );
    let mut g = base.clone();
    let mut outcomes = Vec::with_capacity(steps);
    for _ in 0..steps {
        let out = random_delta(&g, &mut rng)
            .apply(&g)
            .expect("generated deltas are valid");
        g = out.graph.clone();
        outcomes.push(out);
    }
    Workload {
        base,
        steps: outcomes,
    }
}

/// Cold baseline: re-solve every revision from scratch. Returns total
/// CONGEST rounds (the hardware-independent cost metric).
fn serve_cold(solver: &MwhvcSolver, w: &Workload) -> u64 {
    let mut arena = EngineArena::new();
    let mut rounds = solver
        .solve_with_arena(&w.base, &mut arena)
        .expect("base solves")
        .rounds();
    for step in &w.steps {
        rounds += solver
            .solve_with_arena(&step.graph, &mut arena)
            .expect("solves")
            .rounds();
    }
    rounds
}

/// Warm chain: revision k seeded from revision k-1's result.
fn serve_warm(solver: &MwhvcSolver, w: &Workload) -> u64 {
    let mut arena = EngineArena::new();
    let mut prev = solver
        .solve_with_arena(&w.base, &mut arena)
        .expect("base solves");
    let mut rounds = prev.rounds();
    for step in &w.steps {
        let warm = solver
            .solve_warm_with_arena(&step.graph, &WarmState::for_delta(&prev, step), &mut arena)
            .expect("warm solves");
        rounds += warm.rounds();
        prev = warm;
    }
    rounds
}

/// One warm-up run, then best-of-N timed runs, as revisions/sec.
fn measure<F: FnMut() -> u64>(reps: usize, count: usize, mut run: F) -> f64 {
    black_box(run());
    let mut best = 0f64;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(run());
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        best = best.max(count as f64 / secs);
    }
    best
}

/// Correctness gates: bit-identity on the empty delta, certification on
/// every warm revision of the stream.
fn assert_correct(solver: &MwhvcSolver, w: &Workload) {
    let cold = solver.solve(&w.base).expect("base solves");
    let out = InstanceDelta::empty().apply(&w.base).expect("empty delta");
    let warm = solver
        .solve_warm(&out.graph, &WarmState::for_delta(&cold, &out))
        .expect("warm solves");
    assert_eq!(warm.cover, cold.cover, "empty-delta cover");
    assert_eq!(warm.duals, cold.duals, "empty-delta duals");
    assert_eq!(warm.levels, cold.levels, "empty-delta levels");
    assert_eq!(warm.dual_total, cold.dual_total, "empty-delta dual total");

    let mut prev = cold;
    for (k, step) in w.steps.iter().enumerate() {
        let warm = solver
            .solve_warm(&step.graph, &WarmState::for_delta(&prev, step))
            .expect("warm solves");
        let bound = Certificate::from_result(&warm, EPSILON)
            .verify(&step.graph)
            .unwrap_or_else(|e| panic!("revision {k}: certificate failed: {e}"));
        let guarantee = step.graph.rank().max(1) as f64 + EPSILON;
        assert!(
            bound <= guarantee * (1.0 + DEFAULT_TOLERANCE),
            "revision {k}: bound {bound} > {guarantee}"
        );
        assert!(
            approximation_holds(
                &step.graph,
                warm.weight,
                warm.dual_total,
                EPSILON,
                DEFAULT_TOLERANCE
            ),
            "revision {k}: approximation bound violated"
        );
        prev = warm;
    }
}

fn bench_warm(c: &mut Criterion) {
    let w = workload();
    let solver = MwhvcSolver::with_epsilon(EPSILON).expect("valid epsilon");
    let (n, m, steps) = scale();
    let revisions = steps + 1;

    // Bit-identity and certification are asserted before any timing.
    assert_correct(&solver, &w);

    let reps = if smoke() { 1 } else { 5 };
    let mut group = c.benchmark_group("warm_stream");
    group.sample_size(10);
    group.bench_function("cold_resolve", |b| {
        b.iter(|| serve_cold(&solver, &w));
    });
    group.bench_function("warm_chain", |b| {
        b.iter(|| serve_warm(&solver, &w));
    });
    group.finish();

    let cold_rounds = serve_cold(&solver, &w);
    let warm_rounds = serve_warm(&solver, &w);
    let cold_per_sec = measure(reps, revisions, || serve_cold(&solver, &w));
    let warm_per_sec = measure(reps, revisions, || serve_warm(&solver, &w));
    let speedup = warm_per_sec / cold_per_sec;
    let round_ratio = cold_rounds as f64 / warm_rounds.max(1) as f64;

    println!("\n== warm-start mutation stream (n={n}, m~{m}, {steps} deltas) ==");
    println!("cold_resolve : {cold_per_sec:>9.1} revisions/sec, {cold_rounds} total rounds");
    println!("warm_chain   : {warm_per_sec:>9.1} revisions/sec, {warm_rounds} total rounds");
    println!("speedup      : {speedup:.2}x wall-clock, {round_ratio:.2}x rounds");

    if let Ok(path) = std::env::var("BENCH_WARM_JSON") {
        let json = format!(
            "{{\n  \"benchmark\": \"warm\",\n  \"n\": {n},\n  \"m\": {m},\n  \"deltas\": {steps},\n  \"epsilon\": {EPSILON},\n  \"smoke\": {},\n  \"bit_identical_on_empty_delta\": true,\n  \"all_revisions_certified\": true,\n  \"cold_revisions_per_sec\": {cold_per_sec:.1},\n  \"warm_revisions_per_sec\": {warm_per_sec:.1},\n  \"warm_vs_cold_speedup\": {speedup:.3},\n  \"cold_total_rounds\": {cold_rounds},\n  \"warm_total_rounds\": {warm_rounds},\n  \"rounds_ratio\": {round_ratio:.3}\n}}\n",
            smoke(),
        );
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write BENCH_WARM_JSON");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_warm);
criterion_main!(benches);
