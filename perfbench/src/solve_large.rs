//! `solve_large`: one large uniform instance, held as text, parsed and
//! solved again and again — on one thread (`MwhvcSolver::solve_with_arena`)
//! and on two workers (`solve_parallel`, what `dcover solve --threads 2`
//! runs). No service layer runs. The working set is larger than the
//! last-level cache, so the round engine and its mailbox bytes dominate.
//!
//! End-to-end mapping: `latency_p50_ms` is the median parse + 1-thread
//! solve (`solve_s`), and `throughput_per_s` is instances per second
//! through the 2-worker path (1 / `solve_par_s`). A run holds only a few
//! solves, so its p90 (`bench.latency_p90_ms`) is per-layer.
//!
//! The traced run re-runs the solve piece by piece through the layers'
//! public functions — `build_network`, `Simulator::with_arena`, `step()` —
//! and floods the same topology with a 1-word message for the solve's
//! round count, the engine floor `congest.engine.gap_ratio` compares
//! against.

use std::time::Instant;

use dcover_congest::{
    BitBudget, Ctx, EngineArena, ParallelSimulator, Process, SimReport, Simulator, Status, Topology,
};
use dcover_core::{build_network, CoverResult, MwhvcMsg, MwhvcNode, MwhvcSolver, SolveError};
use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use dcover_hypergraph::{format, Hypergraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gates;
use crate::report::{median, quantile, Outcome};
use crate::trace::{durations_s, Recorder, Span};
use crate::{time_setups, RunConfig, SETUPS};

pub const EPSILON: f64 = 0.5;
/// Workers of the parallel path.
const THREADS: usize = 2;
/// Timed solves of each kind per run, at least; more while time is left.
const MIN_SOLVES: usize = 2;

#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub n: usize,
    pub m: usize,
}

/// The ROADMAP reference instance.
pub const FULL: Size = Size {
    n: 200_000,
    m: 600_000,
};

/// The instance `dcover gen uniform --n N --m M --seed S` writes.
pub fn generate(size: Size, seed: u64) -> Hypergraph {
    random_uniform(
        &RandomUniform {
            n: size.n,
            m: size.m,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 100 },
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Bytes of one mailbox slot, and of the double-buffered mailbox of a
/// topology with `ports` ports.
pub fn mailbox_bytes(ports: usize) -> (usize, usize) {
    let slot = std::mem::size_of::<Option<MwhvcMsg>>();
    (slot, slot * 2 * ports)
}

pub fn run(size: Size, cfg: &RunConfig, out: &mut Outcome) {
    let set_up = || format::serialize(&generate(size, cfg.seed));
    let (mut setups, text) = time_setups(SETUPS.div_ceil(2), set_up);
    measure(&text, cfg, out);
    drop(text);
    setups.extend(time_setups(SETUPS / 2, set_up).0);
    out.put("setup_s", median(&setups), 1);
}

fn measure(text: &str, cfg: &RunConfig, out: &mut Outcome) {
    let solver = MwhvcSolver::with_epsilon(EPSILON).expect("valid epsilon");
    let mut arena = EngineArena::new();
    let mut rec = Recorder::new(false, cfg.epoch, 0);
    let timed = solve_loop(&solver, text, &mut arena, cfg, &mut rec, out);
    let Some((g, reference)) = timed.reference.as_ref() else {
        return;
    };

    let solve_s = median(&timed.seq);
    let solve_par_s = median(&timed.par);
    out.put_with_unit("solve_s", solve_s, "s", 1);
    out.put_with_unit("solve_par_s", solve_par_s, "s", THREADS);
    out.put("latency_p50_ms", solve_s * 1e3, 1);
    out.put("bench.latency_p90_ms", quantile(&timed.seq, 0.9) * 1e3, 1);
    out.put("throughput_per_s", 1.0 / solve_par_s, THREADS);
    out.put("congest.sim.rounds", reference.report.rounds as f64, 1);
    out.put(
        "congest.sim.messages",
        reference.report.total_messages as f64,
        1,
    );
    out.put(
        "congest.parallel.cross_fraction",
        timed.cross_fraction,
        THREADS,
    );
    let ports = Topology::bipartite_incidence(g).total_ports();
    let (slot, mailbox) = mailbox_bytes(ports);
    out.put("congest.engine.slot_bytes", slot as f64, 1);
    out.put("congest.engine.mailbox_bytes", mailbox as f64, 1);
    if let Err(e) = gates::certify(g, reference, EPSILON) {
        out.gate_failures.push(format!("solve_large: {e}"));
    }

    if cfg.trace {
        traced(&solver, text, &mut arena, cfg, &timed, out);
    }
}

/// What the timed loop saw.
#[derive(Default)]
struct Timed {
    /// Parse + 1-thread solve, seconds.
    seq: Vec<f64>,
    /// Parse + 2-worker solve, seconds.
    par: Vec<f64>,
    /// The first result, which every later one must equal bit for bit.
    reference: Option<(Hypergraph, CoverResult)>,
    cross_fraction: f64,
}

/// Times 2-worker solves for the first half of `--seconds`, then 1-thread
/// solves with one recycled arena for the second half, each at least
/// [`MIN_SOLVES`] times. The 2-worker phase runs first so that the arena,
/// kept for the traced run, is never alive beside a 2-worker solve and
/// `peak_rss_mb` is the larger of the two paths' peaks, not their sum.
fn solve_loop(
    solver: &MwhvcSolver,
    text: &str,
    arena: &mut EngineArena<MwhvcNode>,
    cfg: &RunConfig,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Timed {
    let mut timed = Timed::default();
    let half = cfg.seconds / 2;
    for parallel in [true, false] {
        let start = Instant::now();
        let mut solves = 0;
        while solves < MIN_SOLVES || start.elapsed() < half {
            solves += 1;
            let solved = if parallel {
                parse_and_solve(text, rec, "core.solver.solve_parallel", out, |g| {
                    solver.solve_parallel(g, THREADS)
                })
            } else {
                parse_and_solve(text, rec, "core.solver.solve_with_arena", out, |g| {
                    solver.solve_with_arena(g, arena)
                })
            };
            let Some((g, r, elapsed)) = solved else {
                return timed;
            };
            if parallel {
                timed.par.push(elapsed);
                timed.cross_fraction = r.report.cross_fraction();
            } else {
                timed.seq.push(elapsed);
            }
            match &timed.reference {
                None => timed.reference = Some((g, r)),
                Some((_, reference)) => {
                    if let Err(e) = gates::identical(reference, &r) {
                        let what = if parallel { "2-worker" } else { "sequential" };
                        out.gate_failures
                            .push(format!("solve_large: {what} result differs: {e}"));
                    }
                }
            }
        }
    }
    timed
}

/// Parses the instance and solves it, timing both together.
fn parse_and_solve(
    text: &str,
    rec: &mut Recorder,
    solve_span: &'static str,
    out: &mut Outcome,
    solve: impl FnOnce(&Hypergraph) -> Result<CoverResult, SolveError>,
) -> Option<(Hypergraph, CoverResult, f64)> {
    out.attempted += 1;
    let start = Instant::now();
    let whole = rec.begin("bench.solve", 0);
    let span = rec.begin("hypergraph.format.parse", 0);
    let parsed = format::parse(text);
    rec.end(span);
    let result = parsed.map_err(|e| e.to_string()).and_then(|g| {
        let span = rec.begin(solve_span, 0);
        let r = solve(&g);
        rec.end(span);
        r.map(|r| (g, r)).map_err(|e| e.to_string())
    });
    rec.end(whole);
    let elapsed = start.elapsed().as_secs_f64();
    match result {
        Ok((g, r)) => Some((g, r, elapsed)),
        Err(e) => {
            out.failed += 1;
            out.gate_failures.push(format!("solve_large: {e}"));
            None
        }
    }
}

/// The traced run: the headline solve again with spans on, the solve
/// piece by piece on both schedulers, the engine floor, and the
/// certificate check.
fn traced(
    solver: &MwhvcSolver,
    text: &str,
    arena: &mut EngineArena<MwhvcNode>,
    cfg: &RunConfig,
    untraced: &Timed,
    out: &mut Outcome,
) {
    let Some((g, reference)) = untraced.reference.as_ref() else {
        return;
    };
    let mut rec = Recorder::new(true, cfg.epoch, 0);
    let mut headline = Vec::new();
    for k in 0..MIN_SOLVES {
        let solved = parse_and_solve(text, &mut rec, "core.solver.solve_with_arena", out, |g| {
            solver.solve_with_arena(g, arena)
        });
        let Some((_, r, elapsed)) = solved else {
            return;
        };
        headline.push(elapsed);
        let report = piecewise_sequential(g, solver, arena, &mut rec, k as u64);
        out.gate(report == r.report && report == reference.report, || {
            format!("solve_large: piecewise report {report:?} differs from the solver's")
        });
    }
    let report = piecewise_parallel(g, solver, &mut rec);
    out.gate(
        report == reference.report && report.cross_fraction() == untraced.cross_fraction,
        || format!("solve_large: piecewise 2-worker report {report:?} differs from the solver's"),
    );
    let flood_messages = flood(g, solver, reference.report.rounds, &mut rec);
    let span = rec.begin("core.certificate.verify", 0);
    let certified = gates::certify(g, reference, EPSILON);
    rec.end(span);
    if let Err(e) = certified {
        out.gate_failures.push(format!("solve_large: {e}"));
    }
    let spans = rec.finish();
    layer_metrics(&spans, reference, flood_messages, &headline, untraced, out);
    cfg.write_spans(&spans);
}

fn budget(g: &Hypergraph) -> BitBudget {
    BitBudget::congest(g.n() + g.m(), 32)
}

/// `solve_with_arena` without validation and assembly, one span per layer
/// call; `request` tells the repetitions apart.
fn piecewise_sequential(
    g: &Hypergraph,
    solver: &MwhvcSolver,
    arena: &mut EngineArena<MwhvcNode>,
    rec: &mut Recorder,
    request: u64,
) -> SimReport {
    let span = rec.begin("core.protocol.build_network", request);
    let (topo, nodes) = build_network(g, solver.config());
    rec.end(span);
    let span = rec.begin("congest.sim.setup", request);
    let mut sim = Simulator::with_arena(topo, nodes, std::mem::take(arena)).with_budget(budget(g));
    rec.end(span);
    let limit = solver.round_limit(g);
    while !sim.all_halted() && sim.round() < limit {
        let span = rec.begin("congest.sim.step", request);
        let stepped = sim.step();
        rec.end(span);
        if stepped.is_err() {
            break;
        }
    }
    let (_, report, recovered) = sim.into_arena();
    *arena = recovered;
    report
}

/// `solve_parallel` without validation and assembly.
fn piecewise_parallel(g: &Hypergraph, solver: &MwhvcSolver, rec: &mut Recorder) -> SimReport {
    let span = rec.begin("core.protocol.build_network", 0);
    let (topo, nodes) = build_network(g, solver.config());
    rec.end(span);
    let span = rec.begin("congest.parallel.setup", 0);
    let mut sim =
        ParallelSimulator::with_partition(topo, nodes, THREADS, solver.config().partition())
            .with_budget(budget(g));
    rec.end(span);
    let limit = solver.round_limit(g);
    while !sim.all_halted() && sim.report().rounds < limit {
        let span = rec.begin("congest.parallel.step", 0);
        let stepped = sim.step();
        rec.end(span);
        if stepped.is_err() {
            break;
        }
    }
    sim.into_parts().1
}

/// Every node sends one word on every port each round, for `rounds`
/// rounds: the engine's throughput on this topology with no protocol work.
struct Flood {
    rounds: u64,
    acc: u64,
}

impl Process for Flood {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        for item in ctx.inbox() {
            self.acc = self.acc.wrapping_add(item.msg);
        }
        ctx.broadcast(self.acc | 1);
        if ctx.round() + 1 >= self.rounds {
            Status::Halted
        } else {
            Status::Running
        }
    }
}

/// The flood on the `build_network` topology, sequentially and on the
/// 2-worker scheduler; returns the messages each run moved.
fn flood(g: &Hypergraph, solver: &MwhvcSolver, rounds: u64, rec: &mut Recorder) -> (u64, u64) {
    let programs = |topo: &Topology| {
        (0..topo.len())
            .map(|_| Flood { rounds, acc: 0 })
            .collect::<Vec<_>>()
    };
    let topo = build_network(g, solver.config()).0;
    let nodes = programs(&topo);
    let mut sim = Simulator::new(topo, nodes).with_budget(budget(g));
    let span = rec.begin("congest.engine.flood", 0);
    let report = sim.run(rounds + 1);
    rec.end(span);
    let sequential = report.map_or(0, |r| r.total_messages);
    drop(sim);

    let topo = build_network(g, solver.config()).0;
    let nodes = programs(&topo);
    let mut sim =
        ParallelSimulator::with_partition(topo, nodes, THREADS, solver.config().partition())
            .with_budget(budget(g));
    let span = rec.begin("congest.parallel.flood", 0);
    let report = sim.run(rounds + 1);
    rec.end(span);
    (sequential, report.map_or(0, |r| r.total_messages))
}

/// Sums the durations of `name` spans per request.
fn sum_per_request(spans: &[Span], name: &str) -> Vec<f64> {
    let mut sums: Vec<(u64, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let secs = s.duration_ns() as f64 * 1e-9;
        match sums.iter_mut().find(|(r, _)| *r == s.request) {
            Some((_, total)) => *total += secs,
            None => sums.push((s.request, secs)),
        }
    }
    sums.into_iter().map(|(_, t)| t).collect()
}

fn layer_metrics(
    spans: &[Span],
    reference: &CoverResult,
    flood_messages: (u64, u64),
    headline: &[f64],
    untraced: &Timed,
    out: &mut Outcome,
) {
    let med = |name: &str| median(&durations_s(spans, name));
    let parse = med("hypergraph.format.parse");
    let build = med("core.protocol.build_network");
    let setup = med("congest.sim.setup");
    let rounds_per_run = sum_per_request(spans, "congest.sim.step");
    let rounds = median(&rounds_per_run);
    let steps_us: Vec<f64> = durations_s(spans, "congest.sim.step")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let msgs_per_s = reference.report.total_messages as f64 / rounds;
    let flood = flood_messages.0 as f64 / med("congest.engine.flood");
    let par_flood = flood_messages.1 as f64 / med("congest.parallel.flood");
    let par_steps_us: Vec<f64> = durations_s(spans, "congest.parallel.step")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let traced_solve = median(headline);

    out.put("hypergraph.format.parse_s", parse, 1);
    out.put("core.protocol.build_network_s", build, 1);
    out.put("congest.sim.setup_s", setup, 1);
    out.put("congest.sim.rounds_s", rounds, 1);
    out.put("congest.sim.round_us_p50", quantile(&steps_us, 0.5), 1);
    out.put("congest.sim.round_us_max", quantile(&steps_us, 1.0), 1);
    out.put("congest.sim.msgs_per_s", msgs_per_s, 1);
    out.put("congest.engine.flood_msgs_per_s", flood, 1);
    out.put("congest.engine.gap_ratio", flood / msgs_per_s, 1);
    // Each traced solve k is paired with the piecewise run k right after
    // it, so a slow spell of the host hits both sides of a difference.
    let solves = durations_s(spans, "core.solver.solve_with_arena");
    let builds = durations_s(spans, "core.protocol.build_network");
    let setups = durations_s(spans, "congest.sim.setup");
    let remainders: Vec<f64> = solves
        .iter()
        .zip(&builds)
        .zip(&setups)
        .zip(&rounds_per_run)
        .map(|(((solve, build), setup), rounds)| solve - (build + setup + rounds))
        .collect();
    out.put("core.solver.remainder_s", median(&remainders), 1);
    out.put(
        "congest.parallel.setup_s",
        med("congest.parallel.setup"),
        THREADS,
    );
    out.put(
        "congest.parallel.rounds_s",
        durations_s(spans, "congest.parallel.step").iter().sum(),
        THREADS,
    );
    out.put(
        "congest.parallel.round_us_p50",
        quantile(&par_steps_us, 0.5),
        THREADS,
    );
    out.put("congest.parallel.flood_msgs_per_s", par_flood, THREADS);
    out.put(
        "core.certificate.verify_s",
        med("core.certificate.verify"),
        1,
    );
    out.put("bench.solve_s", traced_solve, 1);
    out.put(
        "bench.trace_overhead",
        traced_solve / median(&untraced.seq),
        1,
    );
}
