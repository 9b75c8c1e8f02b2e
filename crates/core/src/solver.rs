//! The user-facing solver: runs the distributed protocol on the CONGEST
//! simulator and assembles the result.

use dcover_congest::{
    BitBudget, EngineArena, Interrupt, RoundMetrics, SimError, SimReport, Simulator, Topology,
};
use dcover_hypergraph::{Cover, Hypergraph, VertexId};

use crate::analysis;
use crate::error::SolveError;
use crate::params::{z_levels, AlphaPolicy, MwhvcConfig};
use crate::protocol::node::WarmNetwork;
use crate::protocol::{build_network, iterations_of_rounds, MwhvcNode};
use crate::warm::{clamped_seed, WarmState};

/// Largest weight for which `f64` represents integers exactly.
const MAX_EXACT_WEIGHT: u64 = 1 << 53;

/// Safety factor applied to the Theorem 8 round bound for the default round
/// limit (tests use the exact bound; the default limit only guards against
/// infinite loops from bugs).
const ROUND_LIMIT_SAFETY: u64 = 4;

/// The outcome of a solve: the cover, the dual certificate, and the
/// communication metrics.
#[derive(Clone, Debug)]
pub struct CoverResult {
    /// The computed vertex cover `C` (always a valid cover).
    pub cover: Cover,
    /// Final dual variable `δ(e)` per hyperedge — a feasible edge packing.
    pub duals: Vec<f64>,
    /// Final level `ℓ(v)` per vertex.
    pub levels: Vec<u32>,
    /// `w(C)`.
    pub weight: u64,
    /// `Σ_e δ(e)` — by LP weak duality a lower bound on the *fractional*
    /// optimum, hence `weight / dual_total` upper-bounds the true
    /// approximation ratio.
    pub dual_total: f64,
    /// Number of algorithm iterations executed (each is 4 CONGEST rounds).
    pub iterations: u64,
    /// Simulator communication report (rounds, messages, bits, maxima).
    pub report: SimReport,
}

impl CoverResult {
    /// Certified upper bound on the approximation ratio,
    /// `w(C) / Σ_e δ(e)` (1.0 for empty instances). The paper guarantees
    /// this is at most `f + ε` (Corollary 3).
    #[must_use]
    pub fn ratio_upper_bound(&self) -> f64 {
        if self.weight == 0 {
            1.0
        } else {
            self.weight as f64 / self.dual_total
        }
    }

    /// Total CONGEST rounds used.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.report.rounds
    }

    /// The result of solving the empty instance.
    pub(crate) fn empty() -> Self {
        CoverResult {
            cover: Cover::empty(0),
            duals: Vec::new(),
            levels: Vec::new(),
            weight: 0,
            dual_total: 0.0,
            iterations: 0,
            report: SimReport::default(),
        }
    }
}

/// Distributed `(f + ε)`-approximation solver for minimum weight hypergraph
/// vertex cover (Algorithm MWHVC of Ben-Basat et al., DISC 2019).
///
/// # Examples
///
/// ```
/// use dcover_core::MwhvcSolver;
/// use dcover_hypergraph::from_weighted_edge_lists;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A path a - b - c: picking b (weight 1) covers both edges.
/// let g = from_weighted_edge_lists(&[10, 1, 10], &[&[0, 1], &[1, 2]])?;
/// let result = MwhvcSolver::with_epsilon(0.5)?.solve(&g)?;
/// assert!(result.cover.is_cover_of(&g));
/// assert_eq!(result.weight, 1);
/// assert!(result.ratio_upper_bound() <= 2.5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MwhvcSolver {
    config: MwhvcConfig,
    /// Cooperative interrupt checked by the simulators once per round;
    /// `None` for an uninterruptible solve.
    interrupt: Option<Interrupt>,
}

impl MwhvcSolver {
    /// Creates a solver with an explicit configuration.
    #[must_use]
    pub fn new(config: MwhvcConfig) -> Self {
        Self {
            config,
            interrupt: None,
        }
    }

    /// Creates a solver with the given ε and default settings.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidEpsilon`] unless `0 < epsilon ≤ 1`.
    pub fn with_epsilon(epsilon: f64) -> Result<Self, SolveError> {
        Ok(Self::new(MwhvcConfig::new(epsilon)?))
    }

    /// The solver's configuration.
    #[must_use]
    pub fn config(&self) -> &MwhvcConfig {
        &self.config
    }

    /// Attaches a cooperative [`Interrupt`] (cancel token and/or absolute
    /// deadline) to every solve made through this solver: the simulator
    /// checks it once per CONGEST round, and a fired interrupt stops the
    /// run at the next round boundary with the typed
    /// [`SolveError::Sim`]`(`[`SimError::Interrupted`](dcover_congest::SimError::Interrupted)`)`.
    /// Completed rounds stay bit-identical to an uninterrupted run.
    #[must_use]
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// Runs the protocol on a single chunk, on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::WeightTooLarge`] if a weight exceeds 2⁵³, or
    /// [`SolveError::Sim`] if the simulation violates the CONGEST bit budget
    /// or the round limit (a bug, or a deliberately tight budget).
    pub fn solve(&self, g: &Hypergraph) -> Result<CoverResult, SolveError> {
        let mut arena = EngineArena::new();
        self.solve_with_arena(g, &mut arena)
    }

    /// Like [`solve`](Self::solve), but recycles the buffers of `arena`
    /// across calls (mailbox slots, dirty lists, worklists and staging
    /// buckets keep their capacity), which is what a serving loop wants.
    /// Results are bit-identical to [`solve`](Self::solve).
    /// [`SolveService`](crate::SolveService) drives this from its worker
    /// pool with one arena per worker.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve). On error the arena is still
    /// recovered and reusable.
    pub fn solve_with_arena(
        &self,
        g: &Hypergraph,
        arena: &mut EngineArena<MwhvcNode>,
    ) -> Result<CoverResult, SolveError> {
        self.validate(g)?;
        if g.n() == 0 {
            return Ok(CoverResult::empty());
        }
        let (topo, nodes) = build_network(g, &self.config);
        let sim = Simulator::with_arena(topo, nodes, std::mem::take(arena));
        self.run(g, sim, arena)
    }

    /// Warm-started solve: runs the protocol **seeded** with a previous
    /// solve's dual packing and levels instead of from zero — the
    /// incremental path for instance revisions (see
    /// [`WarmState::for_delta`]).
    ///
    /// The initialization rounds differ from a cold solve only in what
    /// they ship: vertices announce their seeded level alongside weight
    /// and degree, and edges return the initial bid pre-halved by the
    /// members' seeded levels (`bid₀·2^{−Σℓ}` — the value the cold
    /// protocol would have reached after the same level raises, so
    /// Claim 1's `Σ bid ≤ 2^{−(ℓ+1)}w` holds from the first iteration).
    /// Seeded duals are **not** re-absorbed; surviving edges keep their
    /// packing, inserted edges start at 0, and the usual level-raising
    /// rounds run from that state. Consequences:
    ///
    /// * every result still passes
    ///   [`Certificate::verify`](crate::Certificate::verify) — cover
    ///   members only join β-tight, and the seeded packing is clamped to
    ///   feasibility first (see [`WarmState`]);
    /// * a warm solve of an **unchanged** instance reproduces the cold
    ///   result bit-for-bit (cover, duals, levels, weight, dual total) in
    ///   one round with no messages: every previous cover member is still
    ///   tight, so every node settles before the run (see
    ///   [`build_network_warm`](crate::build_network_warm));
    /// * a revision steps only what its delta disturbs: a settle pass
    ///   decides every node the first warm iteration would halt, and only
    ///   the rest — the uncovered edges and their members — are built, set
    ///   up and stepped, with the same results and rounds as running every
    ///   node. The result is the clamped seed, overwritten by the running
    ///   nodes' final state. What scales with the running set is the
    ///   sub-network build, the simulator set-up, the rounds and reading
    ///   the nodes back. Three passes still walk the whole instance: the
    ///   clamp's seeded-sum pass, the settle pass's fold over every edge,
    ///   and the final cover check over every edge; the shape checks, the
    ///   seed's copy, the settle pass's loops over the vertices and the
    ///   result's dual total are whole-instance too, without walking the
    ///   incidences;
    /// * the report counts the running sub-network: a traced run's
    ///   `per_round[0].active_nodes` is the number of running nodes, not
    ///   `n + m`, and a [`SimError`] names instance nodes (vertex `v` is
    ///   node `v`, edge `e` node `n + e`) and their instance ports;
    /// * freshly inserted edges can legitimately end with `δ(e) = 0`
    ///   (covered by an already-tight member before ever bidding), so
    ///   unlike cold results, warm duals are only guaranteed
    ///   non-negative.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), plus
    /// [`SolveError::WarmMismatch`] if `warm` does not fit `g` (wrong
    /// vector lengths, negative or non-finite dual).
    pub fn solve_warm(&self, g: &Hypergraph, warm: &WarmState) -> Result<CoverResult, SolveError> {
        let mut arena = EngineArena::new();
        self.solve_warm_with_arena(g, warm, &mut arena)
    }

    /// Like [`solve_warm`](Self::solve_warm), but recycles `arena` across
    /// calls — the serving-loop shape (one warm solve per revision on a
    /// pool worker).
    ///
    /// # Errors
    ///
    /// Same as [`solve_warm`](Self::solve_warm). On error the arena is
    /// still recovered and reusable.
    pub fn solve_warm_with_arena(
        &self,
        g: &Hypergraph,
        warm: &WarmState,
        arena: &mut EngineArena<MwhvcNode>,
    ) -> Result<CoverResult, SolveError> {
        self.validate(g)?;
        if warm.duals().len() != g.m() {
            return Err(SolveError::WarmMismatch {
                what: "dual count vs edge count",
            });
        }
        if warm.levels().len() != g.n() {
            return Err(SolveError::WarmMismatch {
                what: "level count vs vertex count",
            });
        }
        if warm.duals().iter().any(|d| !d.is_finite() || *d < 0.0) {
            return Err(SolveError::WarmMismatch {
                what: "duals must be finite and non-negative",
            });
        }
        if g.n() == 0 {
            return Ok(CoverResult::empty());
        }
        let z = z_levels(g.rank().max(1), self.config.epsilon());
        let (mut duals, levels, sums) = clamped_seed(g, warm, z);
        let mut net = WarmNetwork::settle(g, &self.config, &duals, levels, &sums);
        let (nodes, report) = if net.nodes.is_empty() {
            (Vec::new(), self.settled_report()?)
        } else {
            let topo = Topology::bipartite_incidence(&net.sub);
            let nodes = std::mem::take(&mut net.nodes);
            let sim = Simulator::with_arena(topo, nodes, std::mem::take(arena));
            self.simulate(g, sim, arena)
                .map_err(|e| net.instance_error(g, e))?
        };
        let (mut cover, mut levels) = (net.cover, net.levels);
        let sub_duals = read_nodes(&net.sub, &nodes, |v, in_cover, level| {
            let v = net.vertices[v.index()];
            if in_cover {
                cover.insert(v);
            }
            levels[v.index()] = level;
        });
        for (e, d) in net.edges.iter().zip(sub_duals) {
            duals[e.index()] = d;
        }
        Ok(finish(g, cover, duals, levels, report))
    }

    /// The report of a warm run in which every node settled: the one
    /// round in which the whole network would halt without sending.
    fn settled_report(&self) -> Result<SimReport, SimError> {
        if let Some(reason) = self.interrupt.as_ref().and_then(Interrupt::fired) {
            return Err(SimError::Interrupted {
                reason,
                round: 0,
                active: 0,
            });
        }
        Ok(SimReport {
            rounds: 1,
            all_halted: true,
            per_round: self.config.trace().then(|| vec![RoundMetrics::default()]),
            ..SimReport::default()
        })
    }

    /// Runs the protocol split into `threads` chunks, one per thread, with
    /// identical results. Each chunk holds a port-balanced id range of
    /// the vertices and one of the hyperedges.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn solve_parallel(
        &self,
        g: &Hypergraph,
        threads: usize,
    ) -> Result<CoverResult, SolveError> {
        assert!(threads > 0, "need at least one worker thread");
        self.validate(g)?;
        if g.n() == 0 {
            return Ok(CoverResult::empty());
        }
        let (topo, nodes) = build_network(g, &self.config);
        let sim = Simulator::with_partition(topo, nodes, threads, self.config.partition());
        self.run(g, sim, &mut EngineArena::new())
    }

    /// Runs `sim` under this solver's budget, trace, interrupt and round
    /// limit and assembles the result — the shared tail of every cold
    /// solve. Chunk 0's engine buffers go back into `arena`, even when the
    /// run fails.
    fn run(
        &self,
        g: &Hypergraph,
        sim: Simulator<MwhvcNode>,
        arena: &mut EngineArena<MwhvcNode>,
    ) -> Result<CoverResult, SolveError> {
        let (nodes, report) = self.simulate(g, sim, arena)?;
        let mut cover = Cover::empty(g.n());
        let mut levels = vec![0u32; g.n()];
        let duals = read_nodes(g, &nodes, |v, in_cover, level| {
            if in_cover {
                cover.insert(v);
            }
            levels[v.index()] = level;
        });
        Ok(finish(g, cover, duals, levels, report))
    }

    /// Runs `sim` to completion under the budget, trace, interrupt and
    /// round limit of the instance `g`, and returns the final node
    /// programs and the report. Chunk 0's engine buffers go back into
    /// `arena`, even when the run fails.
    fn simulate(
        &self,
        g: &Hypergraph,
        sim: Simulator<MwhvcNode>,
        arena: &mut EngineArena<MwhvcNode>,
    ) -> Result<(Vec<MwhvcNode>, SimReport), SimError> {
        let mut sim = sim
            .with_budget(self.budget_for(g))
            .with_trace(self.config.trace());
        if let Some(interrupt) = &self.interrupt {
            sim = sim.with_interrupt(interrupt.clone());
        }
        let run = sim.run(self.round_limit(g));
        let (nodes, report, recovered) = sim.into_arena();
        *arena = recovered;
        run?;
        Ok((nodes, report))
    }

    /// The round limit used for `g`: the Theorem 8 bound times a safety
    /// factor, plus 64, so never 0. Hitting it is reported as an error
    /// because it would falsify the paper's bound. Saturates at
    /// `u64::MAX` for extreme but legal configurations (huge fixed α,
    /// tiny ε) instead of overflowing.
    #[must_use]
    pub fn round_limit(&self, g: &Hypergraph) -> u64 {
        let f = g.rank().max(1);
        let delta = g.max_degree().max(1);
        let alpha_hi = self.max_alpha(g);
        // Conservative explicit bound: raises are counted at the slowest
        // growth (α = 2), stuck iterations at the largest multiplier.
        let raises_bound =
            analysis::iteration_bound(f, delta, self.config.epsilon(), 2, self.config.variant());
        let stuck_bound = analysis::iteration_bound(
            f,
            delta,
            self.config.epsilon(),
            alpha_hi,
            self.config.variant(),
        );
        let per_edge = raises_bound.max(stuck_bound);
        ROUND_LIMIT_SAFETY
            .saturating_mul(per_edge.saturating_mul(4).saturating_add(2))
            .saturating_add(64)
    }

    /// The largest α any edge resolves under the configured policy.
    fn max_alpha(&self, g: &Hypergraph) -> u32 {
        let f = g.rank().max(1);
        let eps = self.config.epsilon();
        let delta = g.max_degree().max(1);
        match self.config.alpha() {
            AlphaPolicy::Fixed(a) => a,
            AlphaPolicy::Theorem9 { .. } => self.config.alpha().resolve(f, eps, delta, delta),
            AlphaPolicy::LocalTheorem9 { .. } => g
                .edges()
                .map(|e| {
                    self.config
                        .alpha()
                        .resolve(f, eps, g.local_max_degree(e), delta)
                })
                .max()
                .unwrap_or(2),
        }
    }

    /// Rejects invalid configurations (bad fixed α or γ — ε is validated
    /// at construction, but the α policy setters are infallible) and
    /// weights beyond the exact-`f64` range before any solve, so no
    /// user-supplied parameter can panic a solve path.
    fn validate(&self, g: &Hypergraph) -> Result<(), SolveError> {
        self.config.validate()?;
        for v in g.vertices() {
            let w = g.weight(v);
            if w > MAX_EXACT_WEIGHT {
                return Err(SolveError::WeightTooLarge {
                    vertex: v.index(),
                    weight: w,
                });
            }
        }
        Ok(())
    }

    /// The bit budget used for `g` (configured override or the CONGEST
    /// convention for the bipartite communication network).
    fn budget_for(&self, g: &Hypergraph) -> BitBudget {
        self.config
            .budget()
            .unwrap_or_else(|| BitBudget::congest(g.n() + g.m(), 32))
    }
}

/// Reads the final node states of the network over `g`, numbered as
/// [`build_network`] numbers it: hands each vertex's cover flag and level
/// to `vertex`, and returns one dual per edge of `g`.
fn read_nodes(
    g: &Hypergraph,
    nodes: &[MwhvcNode],
    mut vertex: impl FnMut(VertexId, bool, u32),
) -> Vec<f64> {
    let mut duals = vec![f64::NAN; g.m()];
    for v in g.vertices() {
        let node = &nodes[v.index()];
        vertex(
            v,
            node.in_cover().expect("node 0..n is a vertex"),
            node.level().expect("node 0..n is a vertex"),
        );
        let port_duals = node.port_duals().expect("node 0..n is a vertex");
        for (&e, d) in g.incident_edges(v).iter().zip(port_duals) {
            let slot = &mut duals[e.index()];
            if slot.is_nan() {
                *slot = d;
            } else {
                // Replicas are maintained with identical float ops, so
                // members agree exactly.
                debug_assert_eq!(*slot, d, "dual replicas disagree on edge {e} (member {v})");
            }
        }
    }
    duals
}

/// Assembles a result over `g` from its cover, per-edge duals and levels.
fn finish(
    g: &Hypergraph,
    cover: Cover,
    duals: Vec<f64>,
    levels: Vec<u32>,
    report: SimReport,
) -> CoverResult {
    assert!(
        cover.is_cover_of(g),
        "internal error: protocol terminated without a vertex cover"
    );
    let weight = cover.weight(g);
    let dual_total: f64 = duals.iter().copied().filter(|d| !d.is_nan()).sum();
    CoverResult {
        cover,
        duals,
        levels,
        weight,
        dual_total,
        iterations: iterations_of_rounds(report.rounds),
        report,
    }
}

#[cfg(test)]
mod warm_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Variant;
    use crate::warm::WarmState;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use dcover_hypergraph::{from_edge_lists, from_weighted_edge_lists};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solver(eps: f64) -> MwhvcSolver {
        MwhvcSolver::with_epsilon(eps).unwrap()
    }

    #[test]
    fn single_edge_cheapest_vertex() {
        let g = from_weighted_edge_lists(&[5, 2, 9], &[&[0, 1, 2]]).unwrap();
        let r = solver(0.5).solve(&g).unwrap();
        assert!(r.cover.is_cover_of(&g));
        // (f+eps)·OPT with OPT = 2 allows weight ≤ 7; the algorithm actually
        // picks only β-tight vertices, so certify via the dual bound.
        assert!(r.ratio_upper_bound() <= 3.5 + 1e-9);
    }

    #[test]
    fn triangle_cover() {
        let g = from_edge_lists(3, &[&[0, 1], &[1, 2], &[2, 0]]).unwrap();
        let r = solver(1.0).solve(&g).unwrap();
        assert!(r.cover.is_cover_of(&g));
        assert!(r.cover.len() >= 2); // OPT of a triangle is 2
        assert!(r.ratio_upper_bound() <= 3.0 + 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = from_edge_lists(0, &[]).unwrap();
        let r = solver(0.5).solve(&g).unwrap();
        assert_eq!(r.weight, 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn edgeless_graph_selects_nothing() {
        let g = from_weighted_edge_lists(&[3, 4], &[]).unwrap();
        let r = solver(0.5).solve(&g).unwrap();
        assert!(r.cover.is_empty());
        assert_eq!(r.weight, 0);
        assert!(r.report.all_halted);
    }

    #[test]
    fn a_fired_interrupt_stops_every_solve_path_before_the_first_round() {
        use dcover_congest::{CancelToken, Interrupt, InterruptReason, SimError};
        let g = from_edge_lists(3, &[&[0, 1], &[1, 2], &[2, 0]]).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let s = solver(0.5).with_interrupt(Interrupt::new().with_token(token));
        for result in [s.solve(&g), s.solve_parallel(&g, 2)] {
            match result {
                Err(SolveError::Sim(SimError::Interrupted { reason, round, .. })) => {
                    assert_eq!(reason, InterruptReason::Cancelled);
                    assert_eq!(round, 0, "stopped at the first round boundary");
                }
                other => panic!("expected Interrupted, got {other:?}"),
            }
        }
        // An unfired interrupt changes nothing: bit-identical result.
        let idle = solver(0.5).with_interrupt(Interrupt::new().with_token(CancelToken::new()));
        let plain = solver(0.5).solve(&g).unwrap();
        let watched = idle.solve(&g).unwrap();
        assert_eq!(plain.cover, watched.cover);
        assert_eq!(plain.duals, watched.duals);
        assert_eq!(plain.report, watched.report);
    }

    #[test]
    fn approximation_bound_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(42);
        for (f, eps) in [(2u32, 1.0), (3, 0.5), (4, 0.25)] {
            let g = random_uniform(
                &RandomUniform {
                    n: 60,
                    m: 150,
                    rank: f as usize,
                    weights: WeightDist::Uniform { min: 1, max: 50 },
                },
                &mut rng,
            );
            let r = solver(eps).solve(&g).unwrap();
            assert!(r.cover.is_cover_of(&g));
            let bound = f as f64 + eps;
            assert!(
                r.ratio_upper_bound() <= bound + 1e-9,
                "ratio {} > {bound} for f={f}, eps={eps}",
                r.ratio_upper_bound()
            );
        }
    }

    #[test]
    fn parallel_solve_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_uniform(
            &RandomUniform {
                n: 40,
                m: 90,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 9 },
            },
            &mut rng,
        );
        let s = solver(0.5);
        let a = s.solve(&g).unwrap();
        let b = s.solve_parallel(&g, 3).unwrap();
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.duals, b.duals);
        assert_eq!(a.report.rounds, b.report.rounds);
        assert_eq!(a.report.total_messages, b.report.total_messages);
    }

    #[test]
    fn halfbid_variant_also_correct() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = random_uniform(
            &RandomUniform {
                n: 50,
                m: 120,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 20 },
            },
            &mut rng,
        );
        let cfg = MwhvcConfig::new(0.5)
            .unwrap()
            .with_variant(Variant::HalfBid);
        let r = MwhvcSolver::new(cfg).solve(&g).unwrap();
        assert!(r.cover.is_cover_of(&g));
        assert!(r.ratio_upper_bound() <= 3.5 + 1e-9);
    }

    #[test]
    fn arena_recycled_solves_match_fresh_solves() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut arena = EngineArena::new();
        let s = solver(0.5);
        for trial in 0..4 {
            let g = random_uniform(
                &RandomUniform {
                    n: 30 + 5 * trial,
                    m: 70 + 11 * trial,
                    rank: 2 + trial % 3,
                    weights: WeightDist::Uniform { min: 1, max: 12 },
                },
                &mut rng,
            );
            let fresh = s.solve(&g).unwrap();
            let recycled = s.solve_with_arena(&g, &mut arena).unwrap();
            assert_eq!(fresh.cover, recycled.cover, "trial {trial}");
            assert_eq!(fresh.duals, recycled.duals, "trial {trial}");
            assert_eq!(fresh.levels, recycled.levels, "trial {trial}");
            assert_eq!(fresh.report, recycled.report, "trial {trial}");
        }
    }

    #[test]
    fn round_limit_saturates_for_extreme_configs() {
        // A huge fixed α and a tiny ε must pin the automatic limit at
        // u64::MAX (or at least not overflow in debug builds).
        let cfg = MwhvcConfig::new(1e-12)
            .unwrap()
            .with_alpha(crate::params::AlphaPolicy::Fixed(u32::MAX))
            .with_variant(Variant::HalfBid);
        let s = MwhvcSolver::new(cfg);
        let g = from_edge_lists(3, &[&[0, 1, 2]]).unwrap();
        let limit = s.round_limit(&g);
        assert!(limit >= analysis::round_bound(3, 1, 1e-12, u32::MAX, Variant::HalfBid));
    }

    #[test]
    fn warm_resolve_of_unchanged_instance_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(31);
        for (f, eps) in [(2usize, 1.0), (3, 0.5), (4, 0.25)] {
            let g = random_uniform(
                &RandomUniform {
                    n: 50,
                    m: 130,
                    rank: f,
                    weights: WeightDist::Uniform { min: 1, max: 40 },
                },
                &mut rng,
            );
            let s = solver(eps);
            let cold = s.solve(&g).unwrap();
            let warm = s
                .solve_warm(&g, &crate::warm::WarmState::from_result(&cold))
                .unwrap();
            assert_eq!(warm.cover, cold.cover, "f={f} eps={eps}");
            assert_eq!(warm.duals, cold.duals, "f={f} eps={eps}");
            assert_eq!(warm.levels, cold.levels, "f={f} eps={eps}");
            assert_eq!(warm.weight, cold.weight, "f={f} eps={eps}");
            assert_eq!(warm.dual_total, cold.dual_total, "f={f} eps={eps}");
            // The whole point: the warm run converges in O(1) rounds.
            assert!(
                warm.rounds() < cold.rounds() || cold.rounds() <= 6,
                "warm {} vs cold {}",
                warm.rounds(),
                cold.rounds()
            );
        }
    }

    #[test]
    fn warm_solve_after_revision_is_certified() {
        use dcover_hypergraph::{EdgeId, InstanceDelta, VertexId};
        let mut rng = StdRng::seed_from_u64(32);
        let g = random_uniform(
            &RandomUniform {
                n: 40,
                m: 100,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 30 },
            },
            &mut rng,
        );
        let s = solver(0.5);
        let cold = s.solve(&g).unwrap();
        let delta = InstanceDelta {
            remove_edges: vec![EdgeId::new(3), EdgeId::new(77)],
            add_edges: vec![
                vec![VertexId::new(0), VertexId::new(5), VertexId::new(9)],
                vec![VertexId::new(11), VertexId::new(2)],
            ],
            set_weights: vec![(VertexId::new(7), 1), (VertexId::new(20), 200)],
        };
        let out = delta.apply(&g).unwrap();
        let warm = s
            .solve_warm(&out.graph, &crate::warm::WarmState::for_delta(&cold, &out))
            .unwrap();
        assert!(warm.cover.is_cover_of(&out.graph));
        let cert = crate::Certificate::from_result(&warm, 0.5);
        let bound = cert.verify(&out.graph).expect("warm result certifies");
        assert!(bound <= out.graph.rank() as f64 + 0.5 + 1e-9);
    }

    #[test]
    fn a_fully_settled_warm_solve_runs_one_silent_round() {
        use dcover_congest::{CancelToken, Interrupt};
        use dcover_hypergraph::InstanceDelta;
        let mut rng = StdRng::seed_from_u64(33);
        let g = random_uniform(
            &RandomUniform {
                n: 60,
                m: 150,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 30 },
            },
            &mut rng,
        );
        let s = MwhvcSolver::new(MwhvcConfig::new(0.5).unwrap().with_trace(true));
        let cold = s.solve(&g).unwrap();
        let same = InstanceDelta::empty().apply(&g).unwrap();
        let seed = WarmState::for_delta(&cold, &same);
        let warm = s.solve_warm(&same.graph, &seed).unwrap();
        assert_eq!(warm.rounds(), 1, "an unchanged instance settles completely");
        assert_eq!(warm.report.total_messages, 0);
        assert_eq!(warm.report.total_bits, 0);
        assert!(warm.report.all_halted);
        assert_eq!(
            warm.report.per_round.as_deref(),
            Some(&[RoundMetrics::default()][..]),
            "round 0 steps no node"
        );
        assert!(warm.cover.is_cover_of(&same.graph));

        let token = CancelToken::new();
        token.cancel();
        let cancelled = s.with_interrupt(Interrupt::new().with_token(token));
        match cancelled.solve_warm(&same.graph, &seed) {
            Err(SolveError::Sim(SimError::Interrupted { round: 0, .. })) => {}
            other => panic!("expected Interrupted at round 0, got {other:?}"),
        }
    }

    #[test]
    fn warm_run_errors_name_instance_nodes_and_ports() {
        use crate::protocol::MwhvcMsg;
        use dcover_congest::Message;
        // Vertex 0 is tight on its seed and covers edge 0, so only edge 1
        // and its one member, vertex 1, run. Vertex 1's one sub-network
        // port is its instance port 1.
        let g = from_weighted_edge_lists(&[1, 10], &[&[0, 1], &[1]]).unwrap();
        let seed = WarmState::from_parts(vec![1.0, 0.0], vec![0, 0]);
        let round0 = MwhvcMsg::WeightDegWarm {
            weight: 10,
            degree: 2,
            level: 0,
        }
        .bit_size();
        let with_budget = |bits| {
            let cfg = MwhvcConfig::new(0.5)
                .unwrap()
                .with_budget(BitBudget::new(bits));
            MwhvcSolver::new(cfg).solve_warm(&g, &seed)
        };
        // Vertex 1's round-0 message overflows the link into edge 1
        // (node n + 1 = 3), at the edge's port 0.
        match with_budget(round0 - 1) {
            Err(SolveError::Sim(SimError::BudgetExceeded {
                round: 0,
                receiver: 3,
                port: 0,
                ..
            })) => {}
            other => panic!("expected the link into edge 1 to overflow, got {other:?}"),
        }
        // Edge 1's round-1 reply is wider (it adds α), and overflows the
        // link into vertex 1 at its instance port 1.
        match with_budget(round0) {
            Err(SolveError::Sim(SimError::BudgetExceeded {
                round: 1,
                receiver: 1,
                port: 1,
                ..
            })) => {}
            other => panic!("expected the link into vertex 1 to overflow, got {other:?}"),
        }
    }

    #[test]
    fn warm_shape_mismatches_are_typed_errors() {
        let g = from_weighted_edge_lists(&[2, 3], &[&[0, 1]]).unwrap();
        let s = solver(0.5);
        let r = s.solve(&g).unwrap();
        let bad = crate::warm::WarmState::from_parts(vec![0.1, 0.2], r.levels.clone());
        assert!(matches!(
            s.solve_warm(&g, &bad),
            Err(SolveError::WarmMismatch { .. })
        ));
        let bad = crate::warm::WarmState::from_parts(r.duals.clone(), vec![0; 9]);
        assert!(matches!(
            s.solve_warm(&g, &bad),
            Err(SolveError::WarmMismatch { .. })
        ));
        let bad = crate::warm::WarmState::from_parts(vec![-0.5], r.levels.clone());
        assert!(matches!(
            s.solve_warm(&g, &bad),
            Err(SolveError::WarmMismatch { .. })
        ));
    }

    #[test]
    fn bad_alpha_and_gamma_error_instead_of_panicking() {
        let g = from_edge_lists(3, &[&[0, 1], &[1, 2]]).unwrap();
        let cfg = MwhvcConfig::new(0.5)
            .unwrap()
            .with_alpha(crate::params::AlphaPolicy::Fixed(1));
        assert!(matches!(
            MwhvcSolver::new(cfg).solve(&g),
            Err(SolveError::InvalidAlpha { alpha: 1 })
        ));
        let cfg = MwhvcConfig::new(0.5)
            .unwrap()
            .with_alpha(crate::params::AlphaPolicy::Theorem9 { gamma: -0.5 });
        assert!(matches!(
            MwhvcSolver::new(cfg.clone()).solve(&g),
            Err(SolveError::InvalidGamma { .. })
        ));
        assert!(matches!(
            MwhvcSolver::new(cfg).solve_parallel(&g, 2),
            Err(SolveError::InvalidGamma { .. })
        ));
    }

    #[test]
    fn oversized_weight_rejected() {
        let g = from_weighted_edge_lists(&[1 << 60, 1], &[&[0, 1]]).unwrap();
        let err = solver(0.5).solve(&g).unwrap_err();
        assert!(matches!(err, SolveError::WeightTooLarge { vertex: 0, .. }));
    }

    #[test]
    fn congest_budget_holds_by_default() {
        // The default budget is 32·log2(n+m); the run must not trip it.
        let mut rng = StdRng::seed_from_u64(9);
        let g = random_uniform(
            &RandomUniform {
                n: 100,
                m: 200,
                rank: 3,
                weights: WeightDist::Uniform {
                    min: 1,
                    max: 1_000_000,
                },
            },
            &mut rng,
        );
        let r = solver(0.25).solve(&g).unwrap();
        assert!(r.report.max_link_bits <= BitBudget::congest(300, 32).bits());
    }

    #[test]
    fn duals_are_consistent_and_feasible() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = random_uniform(
            &RandomUniform {
                n: 30,
                m: 80,
                rank: 4,
                weights: WeightDist::Uniform { min: 1, max: 10 },
            },
            &mut rng,
        );
        let r = solver(0.5).solve(&g).unwrap();
        for e in g.edges() {
            let d = r.duals[e.index()];
            assert!(d > 0.0, "dual of {e} must be positive");
        }
        for v in g.vertices() {
            let sum: f64 = g
                .incident_edges(v)
                .iter()
                .map(|&e| r.duals[e.index()])
                .sum();
            assert!(
                sum <= g.weight(v) as f64 * (1.0 + 1e-9),
                "packing constraint violated at {v}"
            );
        }
    }
}
