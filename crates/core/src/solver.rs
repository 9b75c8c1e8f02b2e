//! The user-facing solver: runs the distributed protocol on the CONGEST
//! simulator and assembles the result.

use dcover_congest::{BitBudget, EngineArena, Interrupt, SimReport, Simulator};
use dcover_hypergraph::{Cover, Hypergraph};

use crate::analysis;
use crate::error::SolveError;
use crate::params::{z_levels, AlphaPolicy, MwhvcConfig};
use crate::protocol::{build_network, build_network_warm, iterations_of_rounds, MwhvcNode};
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
    /// or the round limit (both indicate bugs or deliberately tight limits).
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
    ///   a handful of rounds: every previous cover member is still tight
    ///   and re-joins immediately, which covers every edge;
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
        let (duals, levels) = clamped_seed(g, warm, z);
        let (topo, nodes) = build_network_warm(g, &self.config, &duals, &levels);
        let sim = Simulator::with_arena(topo, nodes, std::mem::take(arena));
        self.run(g, sim, arena)
    }

    /// Runs the protocol split into `threads` chunks (cut under the
    /// configured [`PartitionPolicy`](dcover_congest::PartitionPolicy)),
    /// one per thread, with identical results.
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
    /// limit and assembles the result — the shared tail of every solve.
    /// Chunk 0's engine buffers go back into `arena`, even when the run
    /// fails.
    fn run(
        &self,
        g: &Hypergraph,
        sim: Simulator<MwhvcNode>,
        arena: &mut EngineArena<MwhvcNode>,
    ) -> Result<CoverResult, SolveError> {
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
        Ok(self.assemble(g, &nodes, report))
    }

    /// The round limit used for `g` (configured override or the Theorem 8
    /// bound times a safety factor). Saturates at `u64::MAX` for extreme
    /// but legal configurations (huge fixed α, tiny ε) instead of
    /// overflowing.
    #[must_use]
    pub fn round_limit(&self, g: &Hypergraph) -> u64 {
        if let Some(limit) = self.config.max_rounds() {
            return limit;
        }
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

    /// Extracts the cover, levels, and per-edge duals from the final node
    /// states.
    fn assemble(&self, g: &Hypergraph, nodes: &[MwhvcNode], report: SimReport) -> CoverResult {
        let n = g.n();
        let mut cover = Cover::empty(n);
        let mut levels = vec![0u32; n];
        let mut duals = vec![f64::NAN; g.m()];
        for v in g.vertices() {
            let node = &nodes[v.index()];
            if node.in_cover().expect("node 0..n is a vertex") {
                cover.insert(v);
            }
            levels[v.index()] = node.level().expect("node 0..n is a vertex");
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Variant;
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
