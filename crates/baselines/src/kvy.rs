//! KVY-style uniform-increase parallel primal-dual (reconstruction of
//! Khuller–Vishkin–Young \[15\]).
//!
//! Protocol (2 CONGEST rounds per iteration on the bipartite incidence
//! network):
//!
//! 1. **V-round** — every participating vertex absorbs the previous raises,
//!    joins the cover if `(1−β)`-tight (`β = ε/(f+ε)` as in the main
//!    algorithm), otherwise broadcasts its current slack
//!    `r(v) = w(v) − Σδ` and uncovered degree `d'(v)`.
//! 2. **E-round** — every uncovered hyperedge either learns it is covered
//!    (propagating `Covered`) or raises its dual by
//!    `t(e) = min_{v∈e} r(v)/d'(v)`, which is feasible by construction
//!    (`Σ_{e∈E'(v)} t(e) ≤ d'(v)·r(v)/d'(v) = r(v)`).
//!
//! The increment of an edge is throttled by its most-congested member, so
//! progress per iteration can shrink where members are congested — unlike
//! Algorithm MWHVC, whose multiplicative bids make progress
//! degree-independent. Its rounds are bounded by `O(f·log(f/ε)·log n)`,
//! which Tables 1–2 contrast against the `O(log Δ/log log Δ)` bound. The
//! `log n` term is a bound, not a measured trend: on F3's sweep
//! (`fig_rounds_vs_n`: f = 3, m = 2n, ε = 0.5, n = 2¹⁰…2¹⁴) this baseline
//! takes 13 rounds at every n, fewer than Algorithm MWHVC's 29–37. Slack
//! values ride in messages as 64-bit floats; under the paper's
//! `W = poly(n)` assumption that is `O(log n)` bits.

use dcover_congest::{
    bits_for_value, Ctx, Message, Process, SimError, Simulator, Status, Topology,
};
use dcover_hypergraph::{Cover, Hypergraph};

use crate::BaselineOutcome;

/// Messages of the KVY-style protocol.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum KvyMsg {
    /// V-round: the sender joined the cover.
    Join,
    /// V-round: current slack and uncovered degree.
    State {
        /// `w(v) − Σ_{e∋v} δ(e)`.
        slack: f64,
        /// Number of uncovered incident edges.
        live_degree: u64,
    },
    /// E-round: the edge is covered; it terminates.
    Covered,
    /// E-round: the edge raised its dual by this amount.
    Raise {
        /// `t(e) = min_{v∈e} slack(v)/live_degree(v)`.
        amount: f64,
    },
}

impl Message for KvyMsg {
    /// `State` with a full-width `live_degree`.
    const MAX_BITS: u64 = 2 + 64 + 64;

    fn bit_size(&self) -> u64 {
        2 + match *self {
            KvyMsg::Join | KvyMsg::Covered => 0,
            KvyMsg::State { live_degree, .. } => 64 + bits_for_value(live_degree),
            KvyMsg::Raise { .. } => 64,
        }
    }
}

#[derive(Clone, Debug)]
enum KvyNode {
    Vertex {
        weight: f64,
        beta: f64,
        duals: Vec<f64>,
        live: Vec<bool>,
        live_count: usize,
        dual_sum: f64,
        in_cover: bool,
    },
    Edge {
        size: usize,
    },
}

impl Process for KvyNode {
    type Msg = KvyMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, KvyMsg>) -> Status {
        match self {
            KvyNode::Vertex {
                weight,
                beta,
                duals,
                live,
                live_count,
                dual_sum,
                in_cover,
            } => {
                // V-round (even): absorb, decide, broadcast state.
                if ctx.round() % 2 == 1 {
                    return Status::Running; // edges are talking
                }
                for item in ctx.inbox() {
                    match item.msg {
                        KvyMsg::Covered => {
                            if live[item.port] {
                                live[item.port] = false;
                                *live_count -= 1;
                            }
                        }
                        KvyMsg::Raise { amount } => {
                            duals[item.port] += amount;
                            *dual_sum += amount;
                        }
                        other => unreachable!("vertex inbox: {other:?}"),
                    }
                }
                if *live_count == 0 {
                    return Status::Halted;
                }
                if *dual_sum >= (1.0 - *beta) * *weight {
                    *in_cover = true;
                    for (p, &alive) in live.iter().enumerate() {
                        if alive {
                            ctx.send(p, KvyMsg::Join);
                        }
                    }
                    return Status::Halted;
                }
                let state = KvyMsg::State {
                    slack: *weight - *dual_sum,
                    live_degree: *live_count as u64,
                };
                for (p, &alive) in live.iter().enumerate() {
                    if alive {
                        ctx.send(p, state);
                    }
                }
                Status::Running
            }
            KvyNode::Edge { size } => {
                // E-round (odd): cover or raise.
                if ctx.round() % 2 == 0 {
                    return Status::Running; // vertices are talking
                }
                debug_assert_eq!(ctx.inbox().len(), *size);
                let mut t = f64::INFINITY;
                let mut covered = false;
                for item in ctx.inbox() {
                    match item.msg {
                        KvyMsg::Join => covered = true,
                        KvyMsg::State { slack, live_degree } => {
                            t = t.min(slack / live_degree as f64)
                        }
                        other => unreachable!("edge inbox: {other:?}"),
                    }
                }
                if covered {
                    ctx.broadcast(KvyMsg::Covered);
                    return Status::Halted;
                }
                ctx.broadcast(KvyMsg::Raise { amount: t });
                Status::Running
            }
        }
    }
}

/// Runs the KVY-style baseline.
///
/// # Errors
///
/// Returns [`SimError`] if the run exceeds its (generous) round limit —
/// which would indicate a bug, since every iteration strictly increases some
/// dual.
///
/// # Panics
///
/// Panics if `epsilon` is outside `(0, 1]`.
pub fn solve_kvy(g: &Hypergraph, epsilon: f64) -> Result<BaselineOutcome, SimError> {
    assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
    let n = g.n();
    if n == 0 || g.m() == 0 {
        return Ok(BaselineOutcome {
            cover: Cover::empty(n),
            weight: 0,
            dual_total: 0.0,
            duals: Vec::new(),
            iterations: 0,
            report: dcover_congest::SimReport::default(),
        });
    }
    let f = g.rank().max(1) as f64;
    let beta = epsilon / (f + epsilon);

    let topo = Topology::bipartite_incidence(g);
    let mut nodes: Vec<KvyNode> = Vec::with_capacity(n + g.m());
    for v in g.vertices() {
        let d = g.degree(v);
        nodes.push(KvyNode::Vertex {
            weight: g.weight(v) as f64,
            beta,
            duals: vec![0.0; d],
            live: vec![true; d],
            live_count: d,
            dual_sum: 0.0,
            in_cover: false,
        });
    }
    for e in g.edges() {
        nodes.push(KvyNode::Edge {
            size: g.edge_size(e),
        });
    }

    // Safety net, not a tight bound: each iteration the argmin member of an
    // uncovered edge loses a (1/Δ)-fraction of its slack, so the product of
    // member slacks drops by (1 − 1/Δ) per iteration and
    // O(Δ·f·(log(1/β) + log W + log Δ)) iterations suffice. Empirically the
    // protocol converges in polylog rounds.
    let z = (1.0 / beta).log2().ceil() as u64 + 1;
    let log_w = (g.weight_ratio().log2().ceil() as u64).max(1);
    let log_d = u64::from(g.max_degree().max(2).ilog2()) + 1;
    let per_edge =
        2 * u64::from(g.max_degree()) * (g.rank().max(1) as u64) * (z + log_w + log_d + 8);
    let limit = 2 * (per_edge + 64) + 16;

    let mut sim = Simulator::new(topo, nodes);
    sim.run(limit)?;
    let (nodes, report) = sim.into_parts();

    let mut cover = Cover::empty(n);
    let mut edge_duals = vec![0.0f64; g.m()];
    for v in g.vertices() {
        let KvyNode::Vertex {
            in_cover, duals, ..
        } = &nodes[v.index()]
        else {
            unreachable!("nodes 0..n are vertices");
        };
        if *in_cover {
            cover.insert(v);
        }
        for (p, &e) in g.incident_edges(v).iter().enumerate() {
            edge_duals[e.index()] = edge_duals[e.index()].max(duals[p]);
        }
    }
    assert!(cover.is_cover_of(g), "kvy terminated without a cover");
    let weight = cover.weight(g);
    let dual_total = edge_duals.iter().sum();
    Ok(BaselineOutcome {
        cover,
        weight,
        dual_total,
        duals: edge_duals,
        iterations: report.rounds / 2,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use dcover_hypergraph::{from_edge_lists, from_weighted_edge_lists};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn max_bits_is_the_widest_variant_at_its_field_maxima() {
        let all = [
            KvyMsg::Join,
            KvyMsg::State {
                slack: f64::MAX,
                live_degree: u64::MAX,
            },
            KvyMsg::Covered,
            KvyMsg::Raise { amount: f64::MAX },
        ];
        // No wildcard arm: a new variant fails to compile until it is
        // listed above.
        let variant = |m: &KvyMsg| match m {
            KvyMsg::Join => 0,
            KvyMsg::State { .. } => 1,
            KvyMsg::Covered => 2,
            KvyMsg::Raise { .. } => 3,
        };
        assert!(all.iter().map(variant).eq(0..4), "every variant, once");
        let widest = all.iter().map(Message::bit_size).max();
        assert_eq!(widest, Some(KvyMsg::MAX_BITS));
    }

    #[test]
    fn covers_triangle() {
        let g = from_edge_lists(3, &[&[0, 1], &[1, 2], &[2, 0]]).unwrap();
        let r = solve_kvy(&g, 1.0).unwrap();
        assert!(r.cover.is_cover_of(&g));
        assert!(r.ratio_upper_bound() <= 3.0 + 1e-9);
    }

    #[test]
    fn respects_f_plus_eps_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(21);
        for (f, eps) in [(2usize, 0.5), (3, 0.25), (4, 1.0)] {
            let g = random_uniform(
                &RandomUniform {
                    n: 50,
                    m: 120,
                    rank: f,
                    weights: WeightDist::Uniform { min: 1, max: 30 },
                },
                &mut rng,
            );
            let r = solve_kvy(&g, eps).unwrap();
            assert!(r.cover.is_cover_of(&g));
            assert!(
                r.ratio_upper_bound() <= f as f64 + eps + 1e-9,
                "ratio {} for f={f}",
                r.ratio_upper_bound()
            );
        }
    }

    #[test]
    fn duals_stay_feasible() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = random_uniform(
            &RandomUniform {
                n: 30,
                m: 60,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 10 },
            },
            &mut rng,
        );
        let r = solve_kvy(&g, 0.5).unwrap();
        // dual_total must lower-bound total weight of any cover, trivially
        // ≤ total weight.
        assert!(r.dual_total > 0.0);
        assert!(r.dual_total <= g.total_weight() as f64 * (1.0 + 1e-9));
    }

    #[test]
    fn star_is_fast() {
        let g =
            from_weighted_edge_lists(&[1, 100, 100, 100], &[&[0, 1], &[0, 2], &[0, 3]]).unwrap();
        let r = solve_kvy(&g, 0.5).unwrap();
        assert!(r.cover.is_cover_of(&g));
        // The cheap center should be taken, not the expensive leaves.
        assert_eq!(r.weight, 1);
    }

    #[test]
    fn empty_instances() {
        let g = from_edge_lists(0, &[]).unwrap();
        assert_eq!(solve_kvy(&g, 0.5).unwrap().weight, 0);
        let g = from_weighted_edge_lists(&[1, 2], &[]).unwrap();
        assert_eq!(solve_kvy(&g, 0.5).unwrap().weight, 0);
    }

    #[test]
    fn message_sizes() {
        assert_eq!(KvyMsg::Join.bit_size(), 2);
        assert_eq!(
            KvyMsg::State {
                slack: 1.5,
                live_degree: 7
            }
            .bit_size(),
            2 + 64 + 3
        );
        assert_eq!(KvyMsg::Raise { amount: 0.5 }.bit_size(), 66);
    }
}
