//! Centralized reference implementation of Algorithm MWHVC.
//!
//! This is a loop-for-loop port of §3.2 with the *same phase structure and
//! the same floating-point operations* as the distributed protocol, so a
//! distributed run and a reference run on the same instance produce
//! identical covers, levels, duals, and iteration counts — the
//! cross-validation tests assert exactly that. It is also much faster (no
//! message shuffling), so large parameter sweeps in the benchmark harness
//! use it once equivalence is established, and it feeds full-state
//! [`IterationSnapshot`](crate::IterationSnapshot)s to
//! [`Observer`](crate::Observer)s for invariant checking.

use dcover_hypergraph::{Cover, Hypergraph};

use crate::error::SolveError;
use crate::observer::{IterationSnapshot, Observer};
use crate::params::{beta, z_levels, MwhvcConfig, Variant};
use crate::protocol::{
    apply_halvings, apply_raise, initial_bid, norm_weight_less, pow2_neg, should_level_up,
};

/// Result of a reference (centralized) run. Field meanings match
/// [`CoverResult`](crate::CoverResult) minus the communication report.
#[derive(Clone, Debug)]
pub struct ReferenceResult {
    /// The computed vertex cover.
    pub cover: Cover,
    /// Final `δ(e)` per edge.
    pub duals: Vec<f64>,
    /// Final `ℓ(v)` per vertex.
    pub levels: Vec<u32>,
    /// `w(C)`.
    pub weight: u64,
    /// `Σ_e δ(e)`.
    pub dual_total: f64,
    /// Iterations executed (iteration 0 = initialization not counted).
    pub iterations: u64,
}

impl ReferenceResult {
    /// Certified upper bound on the approximation ratio (see
    /// [`CoverResult::ratio_upper_bound`](crate::CoverResult::ratio_upper_bound)).
    #[must_use]
    pub fn ratio_upper_bound(&self) -> f64 {
        if self.weight == 0 {
            1.0
        } else {
            self.weight as f64 / self.dual_total
        }
    }
}

/// Runs Algorithm MWHVC centrally, invoking `observer` after initialization
/// and after every iteration.
///
/// # Errors
///
/// Returns [`SolveError::WeightTooLarge`] if a weight exceeds 2⁵³ (same
/// precondition as the distributed solver). Unlike the distributed path
/// there is no simulation that can fail.
pub fn solve_reference(
    g: &Hypergraph,
    config: &MwhvcConfig,
    observer: &mut dyn Observer,
) -> Result<ReferenceResult, SolveError> {
    for v in g.vertices() {
        let w = g.weight(v);
        if w > (1 << 53) {
            return Err(SolveError::WeightTooLarge {
                vertex: v.index(),
                weight: w,
            });
        }
    }

    let n = g.n();
    let m = g.m();
    let f = g.rank().max(1);
    let eps = config.epsilon();
    let b = beta(f, eps);
    let z = z_levels(f, eps);
    let variant = config.variant();

    // ---- per-edge state ----
    let mut bid = vec![0.0f64; m];
    let mut dual = vec![0.0f64; m];
    let mut covered = vec![false; m];
    let mut alpha = vec![2u32; m];
    // ---- per-vertex state ----
    let mut level = vec![0u32; n];
    let mut dual_sum = vec![0.0f64; n];
    let mut in_cover = vec![false; n];
    let mut active: Vec<bool> = g.vertices().map(|v| g.degree(v) > 0).collect();
    let mut live_deg: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();

    // ---- iteration 0 (§3.2 step 2) ----
    for e in g.edges() {
        let members = g.edge(e);
        let mut best = (g.weight(members[0]), g.degree(members[0]) as u32);
        let mut local_delta = 0u32;
        for &v in members {
            let cand = (g.weight(v), g.degree(v) as u32);
            local_delta = local_delta.max(cand.1);
            if norm_weight_less(cand.0, u64::from(cand.1), best.0, u64::from(best.1)) {
                best = cand;
            }
        }
        bid[e.index()] = initial_bid(best.0, best.1);
        dual[e.index()] = bid[e.index()];
        alpha[e.index()] = config.alpha().resolve(f, eps, local_delta, g.max_degree());
    }
    // Vertices absorb δ0 in port (= ascending edge id) order, matching the
    // distributed round-2 accumulation order exactly.
    for v in g.vertices() {
        for &e in g.incident_edges(v) {
            dual_sum[v.index()] += dual[e.index()];
        }
    }
    let mut covered_count = 0usize;
    let mut iterations = 0u64;
    let mut prev_dual_sum = dual_sum.clone();

    emit(
        observer,
        g,
        0,
        &level,
        &dual,
        &bid,
        &covered,
        &in_cover,
        &active,
        &dual_sum,
        &prev_dual_sum,
    );

    // ---- iterations i = 1, 2, … ----
    while covered_count < m {
        iterations += 1;
        prev_dual_sum.copy_from_slice(&dual_sum);

        // V1 / step 3a: simultaneous β-tightness checks.
        let joining: Vec<usize> = (0..n)
            .filter(|&vi| {
                active[vi] && !in_cover[vi] && dual_sum[vi] >= (1.0 - b) * g.weights()[vi] as f64
            })
            .collect();
        for &vi in &joining {
            in_cover[vi] = true;
            active[vi] = false;
        }

        // E1 / step 3b: edges with a cover member terminate covered.
        if !joining.is_empty() {
            for e in g.edges() {
                if !covered[e.index()] && g.edge(e).iter().any(|&v| in_cover[v.index()]) {
                    covered[e.index()] = true;
                    covered_count += 1;
                    for &v in g.edge(e) {
                        live_deg[v.index()] -= 1;
                    }
                }
            }
        }

        // V1 / step 3d: level increments for every still-active vertex
        // (vertices whose last edge was just covered still level up — they
        // only learn of the coverage in phase V2, matching the protocol).
        let mut incs = vec![0u32; n];
        for vi in 0..n {
            if !active[vi] {
                continue;
            }
            let w = g.weights()[vi] as f64;
            while should_level_up(dual_sum[vi], w, level[vi]) {
                level[vi] += 1;
                incs[vi] += 1;
                debug_assert!(level[vi] <= z, "Claim 4 violated");
                if level[vi] > z {
                    break;
                }
            }
        }

        // E1 / step 3(d)ii: halve bids of uncovered edges.
        for e in g.edges() {
            if covered[e.index()] {
                continue;
            }
            let h: u32 = g.edge(e).iter().map(|&v| incs[v.index()]).sum();
            if h > 0 {
                bid[e.index()] = apply_halvings(bid[e.index()], h);
            }
        }

        // V2 / step 3c: vertices with no uncovered edges terminate.
        for vi in 0..n {
            if active[vi] && live_deg[vi] == 0 {
                active[vi] = false;
            }
        }
        if covered_count == m {
            emit(
                observer,
                g,
                iterations,
                &level,
                &dual,
                &bid,
                &covered,
                &in_cover,
                &active,
                &dual_sum,
                &prev_dual_sum,
            );
            break;
        }

        // V2 / step 3e: raise/stuck votes.
        let mut raise = vec![false; n];
        for v in g.vertices() {
            let vi = v.index();
            if !active[vi] {
                continue;
            }
            let mut alpha_max = 2u32;
            let mut bid_sum = 0.0f64;
            for &e in g.incident_edges(v) {
                if !covered[e.index()] {
                    alpha_max = alpha_max.max(alpha[e.index()]);
                    bid_sum += bid[e.index()];
                }
            }
            let w = g.weights()[vi] as f64;
            raise[vi] = bid_sum <= pow2_neg(level[vi] + 1) * w / f64::from(alpha_max);
        }

        // E2 / step 3f: unanimous raises multiply; everyone pays the bid.
        for e in g.edges() {
            let ei = e.index();
            if covered[ei] {
                continue;
            }
            if g.edge(e).iter().all(|&v| raise[v.index()]) {
                bid[ei] = apply_raise(bid[ei], alpha[ei]);
            }
            let add = match variant {
                Variant::Standard => bid[ei],
                Variant::HalfBid => bid[ei] / 2.0,
            };
            dual[ei] += add;
            for &v in g.edge(e) {
                dual_sum[v.index()] += add;
            }
        }

        emit(
            observer,
            g,
            iterations,
            &level,
            &dual,
            &bid,
            &covered,
            &in_cover,
            &active,
            &dual_sum,
            &prev_dual_sum,
        );
    }

    let cover = Cover::from_ids(n, g.vertices().filter(|v| in_cover[v.index()]));
    debug_assert!(m == 0 || cover.is_cover_of(g));
    let weight = cover.weight(g);
    let dual_total = dual.iter().sum();
    Ok(ReferenceResult {
        cover,
        duals: dual,
        levels: level,
        weight,
        dual_total,
        iterations,
    })
}

#[expect(
    clippy::too_many_arguments,
    reason = "forwards one iteration's full state to the observer"
)]
fn emit(
    observer: &mut dyn Observer,
    g: &Hypergraph,
    iteration: u64,
    levels: &[u32],
    duals: &[f64],
    bids: &[f64],
    edge_covered: &[bool],
    in_cover: &[bool],
    active: &[bool],
    dual_sums: &[f64],
    prev_dual_sums: &[f64],
) {
    observer.on_iteration(
        g,
        &IterationSnapshot {
            iteration,
            levels,
            duals,
            bids,
            edge_covered,
            in_cover,
            active,
            dual_sums,
            prev_dual_sums,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{HistoryObserver, NullObserver};
    use crate::solver::MwhvcSolver;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use dcover_hypergraph::{from_edge_lists, from_weighted_edge_lists};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_solves_triangle() {
        let g = from_edge_lists(3, &[&[0, 1], &[1, 2], &[2, 0]]).unwrap();
        let cfg = MwhvcConfig::new(1.0).unwrap();
        let r = solve_reference(&g, &cfg, &mut NullObserver).unwrap();
        assert!(r.cover.is_cover_of(&g));
        assert!(r.ratio_upper_bound() <= 3.0 + 1e-9);
    }

    #[test]
    fn reference_matches_distributed_exactly() {
        let mut rng = StdRng::seed_from_u64(31);
        for (f, eps, wmax) in [(2usize, 1.0, 1u64), (3, 0.5, 40), (5, 0.25, 1000)] {
            let g = random_uniform(
                &RandomUniform {
                    n: 45,
                    m: 110,
                    rank: f,
                    weights: WeightDist::Uniform { min: 1, max: wmax },
                },
                &mut rng,
            );
            let cfg = MwhvcConfig::new(eps).unwrap();
            let dist = MwhvcSolver::new(cfg.clone()).solve(&g).unwrap();
            let refr = solve_reference(&g, &cfg, &mut NullObserver).unwrap();
            assert_eq!(dist.cover, refr.cover, "cover f={f} eps={eps}");
            assert_eq!(dist.levels, refr.levels, "levels f={f} eps={eps}");
            assert_eq!(dist.duals, refr.duals, "duals f={f} eps={eps}");
            assert_eq!(dist.iterations, refr.iterations, "iters f={f} eps={eps}");
        }
    }

    #[test]
    fn observer_sees_monotone_progress() {
        let mut rng = StdRng::seed_from_u64(32);
        let g = random_uniform(
            &RandomUniform {
                n: 30,
                m: 70,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 8 },
            },
            &mut rng,
        );
        let cfg = MwhvcConfig::new(0.5).unwrap();
        let mut h = HistoryObserver::default();
        let r = solve_reference(&g, &cfg, &mut h).unwrap();
        assert_eq!(h.history.last().unwrap().iteration, r.iterations);
        // Duals, coverage, and levels never decrease between snapshots.
        for pair in h.history.windows(2) {
            assert!(pair[1].dual_total >= pair[0].dual_total - 1e-12);
            assert!(pair[1].covered_edges >= pair[0].covered_edges);
            assert!(pair[1].cover_size >= pair[0].cover_size);
            assert!(pair[1].max_level >= pair[0].max_level);
            assert!(pair[1].active_vertices <= pair[0].active_vertices);
        }
    }

    #[test]
    fn edgeless_instance() {
        let g = from_weighted_edge_lists(&[2, 3], &[]).unwrap();
        let cfg = MwhvcConfig::new(0.5).unwrap();
        let r = solve_reference(&g, &cfg, &mut NullObserver).unwrap();
        assert!(r.cover.is_empty());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn halfbid_levels_rise_at_most_one_per_iteration() {
        // Corollary 21: with the Appendix C update no vertex climbs more
        // than one level per iteration.
        #[derive(Default)]
        struct LevelWatcher {
            prev: Vec<u32>,
            max_jump: u32,
        }
        impl Observer for LevelWatcher {
            fn on_iteration(&mut self, _g: &Hypergraph, s: &IterationSnapshot<'_>) {
                if !self.prev.is_empty() {
                    for (a, b) in self.prev.iter().zip(s.levels) {
                        self.max_jump = self.max_jump.max(b - a);
                    }
                }
                self.prev = s.levels.to_vec();
            }
        }
        let mut rng = StdRng::seed_from_u64(33);
        let g = random_uniform(
            &RandomUniform {
                n: 40,
                m: 120,
                rank: 4,
                weights: WeightDist::Uniform { min: 1, max: 30 },
            },
            &mut rng,
        );
        let cfg = MwhvcConfig::new(0.3)
            .unwrap()
            .with_variant(Variant::HalfBid);
        let mut w = LevelWatcher::default();
        let r = solve_reference(&g, &cfg, &mut w).unwrap();
        assert!(r.cover.is_cover_of(&g));
        assert!(w.max_jump <= 1, "level jumped by {}", w.max_jump);
    }
}
