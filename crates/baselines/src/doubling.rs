//! KMW-style dual doubling (reconstruction in the spirit of
//! Kuhn–Moscibroda–Wattenhofer \[18\]'s `O(log Δ + log W)` row).
//!
//! This is *Algorithm MWHVC minus its innovation*: bids grow
//! multiplicatively (factor 2) when every member vertex deems it safe, but
//! there are **no levels and no halvings**. A vertex whose slack gets tight
//! throttles further growth by scaling increments instead
//! (`θ(v) = min(1, slack/(2·Σbid))`), so duals always stay feasible and
//! every uncovered edge makes strictly positive progress per iteration.
//!
//! * Doubling phase: `bid(e)` climbs from the weight-oblivious start
//!   `1/(2Δ(e))` to `Θ(w)` of the binding vertex — `O(log Δ + log w_max)`
//!   iterations.
//! * Throttled phase: the binding vertex halves its slack per iteration, and
//!   slack must travel from `Θ(w)` down to `β·w` before the vertex joins —
//!   `O(log W + log(1/β))` iterations when weights are heterogeneous.
//!
//! The resulting `log W` term is exactly the weight dependence the paper's
//! level/halving machinery removes, making this the ablation baseline for
//! the `rounds vs W` experiment (F2) as well as the Table 1/2 KMW row.
//!
//! Round structure: 2 initialization rounds (identical to the main
//! protocol), then 2 rounds per iteration.

use dcover_congest::{
    bits_for_value, Ctx, Message, Process, SimError, Simulator, Status, Topology,
};
use dcover_hypergraph::{Cover, Hypergraph};

use crate::BaselineOutcome;

/// Messages of the doubling protocol.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum DoublingMsg {
    /// Round 0, vertex → edge: weight and degree.
    WeightDeg {
        /// `w(v)`.
        weight: u64,
        /// `|E(v)|`.
        degree: u64,
    },
    /// Round 1, edge → vertex: the local maximum degree, fixing the
    /// weight-oblivious initial bid `bid₀(e) = 1/(2·Δ(e))`.
    InitBid {
        /// `Δ(e) = max_{v∈e} |E(v)|`.
        local_delta: u64,
    },
    /// V-round: the sender joined the cover.
    Join,
    /// V-round: doubling vote and increment scale.
    Vote {
        /// True iff doubling all bids is safe for this vertex
        /// (`4·Σbid ≤ slack`).
        allow: bool,
        /// Scale `θ(v) = min(1, slack/(2·Σbid))` for this iteration's
        /// increment.
        theta: f64,
    },
    /// E-round: the edge is covered; it terminates.
    Covered,
    /// E-round: outcome of the iteration.
    Apply {
        /// Whether the bid was doubled (unanimous `allow`).
        doubled: bool,
        /// `min_{v∈e} θ(v)`; the dual increment is `θ·bid`.
        theta: f64,
    },
}

impl Message for DoublingMsg {
    /// `WeightDeg` with both fields at `u64::MAX`.
    const MAX_BITS: u64 = 3 + 64 + 64;

    fn bit_size(&self) -> u64 {
        3 + match *self {
            DoublingMsg::WeightDeg { weight, degree } => {
                bits_for_value(weight) + bits_for_value(degree)
            }
            DoublingMsg::InitBid { local_delta } => bits_for_value(local_delta),
            DoublingMsg::Join | DoublingMsg::Covered => 0,
            DoublingMsg::Vote { .. } => 1 + 64,
            DoublingMsg::Apply { .. } => 1 + 64,
        }
    }
}

#[derive(Clone, Debug)]
enum DoublingNode {
    Vertex {
        weight_int: u64,
        weight: f64,
        beta: f64,
        bids: Vec<f64>,
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

impl DoublingNode {
    fn vertex_round(&mut self, ctx: &mut Ctx<'_, DoublingMsg>) -> Status {
        let DoublingNode::Vertex {
            weight_int,
            weight,
            beta,
            bids,
            duals,
            live,
            live_count,
            dual_sum,
            in_cover,
        } = self
        else {
            unreachable!()
        };
        if ctx.round() == 0 {
            if *live_count == 0 {
                return Status::Halted; // isolated vertex
            }
            ctx.broadcast(DoublingMsg::WeightDeg {
                weight: *weight_int,
                degree: *live_count as u64,
            });
            return Status::Running;
        }
        // Absorb the E-round (or round-1 init) results.
        for item in ctx.inbox() {
            let p = item.port;
            match item.msg {
                DoublingMsg::InitBid { local_delta } => {
                    let bid = 1.0 / (2.0 * local_delta as f64);
                    bids[p] = bid;
                    duals[p] = bid;
                    *dual_sum += bid;
                }
                DoublingMsg::Covered => {
                    if live[p] {
                        live[p] = false;
                        *live_count -= 1;
                    }
                }
                DoublingMsg::Apply { doubled, theta } => {
                    if doubled {
                        bids[p] *= 2.0;
                    }
                    let add = theta * bids[p];
                    duals[p] += add;
                    *dual_sum += add;
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
                    ctx.send(p, DoublingMsg::Join);
                }
            }
            return Status::Halted;
        }
        let slack = *weight - *dual_sum;
        let bid_sum: f64 = (0..ctx.degree())
            .filter(|&p| live[p])
            .map(|p| bids[p])
            .sum();
        let vote = DoublingMsg::Vote {
            allow: 4.0 * bid_sum <= slack,
            theta: (slack / (2.0 * bid_sum)).min(1.0),
        };
        for (p, &alive) in live.iter().enumerate() {
            if alive {
                ctx.send(p, vote);
            }
        }
        Status::Running
    }

    fn edge_round(&mut self, ctx: &mut Ctx<'_, DoublingMsg>) -> Status {
        let DoublingNode::Edge { size } = self else {
            unreachable!()
        };
        if ctx.round() == 1 {
            // Weight-oblivious start: bid₀ = 1/(2·Δ(e)). Feasible because
            // Σ_{e∋v} 1/(2Δ(e)) ≤ |E(v)|/(2|E(v)|) ≤ w(v)/2, and it is this
            // weight-blindness (shared with KMW's LP start) that makes the
            // climb to a heavy vertex's threshold cost Θ(log w) doublings.
            let mut local_delta = 0u64;
            for item in ctx.inbox() {
                let DoublingMsg::WeightDeg { degree, .. } = item.msg else {
                    unreachable!("round 1 inbox: {:?}", item.msg);
                };
                local_delta = local_delta.max(degree);
            }
            ctx.broadcast(DoublingMsg::InitBid { local_delta });
            return Status::Running;
        }
        debug_assert_eq!(ctx.inbox().len(), *size);
        let mut covered = false;
        let mut all_allow = true;
        let mut theta = f64::INFINITY;
        for item in ctx.inbox() {
            match item.msg {
                DoublingMsg::Join => covered = true,
                DoublingMsg::Vote { allow, theta: t } => {
                    all_allow &= allow;
                    theta = theta.min(t);
                }
                other => unreachable!("edge inbox: {other:?}"),
            }
        }
        if covered {
            ctx.broadcast(DoublingMsg::Covered);
            return Status::Halted;
        }
        ctx.broadcast(DoublingMsg::Apply {
            doubled: all_allow,
            theta,
        });
        Status::Running
    }
}

impl Process for DoublingNode {
    type Msg = DoublingMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, DoublingMsg>) -> Status {
        match (ctx.round() % 2, &*self) {
            (0, DoublingNode::Vertex { .. }) => self.vertex_round(ctx),
            (1, DoublingNode::Edge { .. }) => self.edge_round(ctx),
            _ => Status::Running, // the other side's turn
        }
    }
}

/// Runs the doubling baseline with join threshold `β = ε/(f+ε)`.
///
/// # Errors
///
/// Returns [`SimError`] if the run exceeds its round limit.
///
/// # Panics
///
/// Panics if `epsilon` is outside `(0, 1]`.
pub fn solve_doubling(g: &Hypergraph, epsilon: f64) -> Result<BaselineOutcome, SimError> {
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
    let mut nodes: Vec<DoublingNode> = Vec::with_capacity(n + g.m());
    for v in g.vertices() {
        let d = g.degree(v);
        nodes.push(DoublingNode::Vertex {
            weight_int: g.weight(v),
            weight: g.weight(v) as f64,
            beta,
            bids: vec![0.0; d],
            duals: vec![0.0; d],
            live: vec![true; d],
            live_count: d,
            dual_sum: 0.0,
            in_cover: false,
        });
    }
    for e in g.edges() {
        nodes.push(DoublingNode::Edge {
            size: g.edge_size(e),
        });
    }

    // O(log Δ) doublings + O(f·(log W + log(1/β))) throttled iterations per
    // edge; ×4 headroom.
    let z = (1.0 / beta).log2().ceil() as u64 + 1;
    let log_w = u64::from(g.max_weight().unwrap_or(1).max(2).ilog2()) + 1;
    let log_d = u64::from(g.max_degree().max(2).ilog2()) + 1;
    let per_edge = log_d + log_w + (g.rank().max(1) as u64) * (z + log_w + 8);
    let limit = 2 + 2 * 4 * (per_edge + 32) + 16;

    let mut sim = Simulator::new(topo, nodes);
    sim.run(limit)?;
    let (nodes, report) = sim.into_parts();

    let mut cover = Cover::empty(n);
    let mut edge_duals = vec![0.0f64; g.m()];
    for v in g.vertices() {
        let DoublingNode::Vertex {
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
    assert!(cover.is_cover_of(g), "doubling terminated without a cover");
    let weight = cover.weight(g);
    let dual_total = edge_duals.iter().sum();
    Ok(BaselineOutcome {
        cover,
        weight,
        dual_total,
        duals: edge_duals,
        iterations: report.rounds.saturating_sub(2) / 2,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_hypergraph::from_edge_lists;
    use dcover_hypergraph::generators::{random_uniform, star, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn max_bits_is_the_widest_variant_at_its_field_maxima() {
        let all = [
            DoublingMsg::WeightDeg {
                weight: u64::MAX,
                degree: u64::MAX,
            },
            DoublingMsg::InitBid {
                local_delta: u64::MAX,
            },
            DoublingMsg::Join,
            DoublingMsg::Vote {
                allow: true,
                theta: f64::MAX,
            },
            DoublingMsg::Covered,
            DoublingMsg::Apply {
                doubled: true,
                theta: f64::MAX,
            },
        ];
        // No wildcard arm: a new variant fails to compile until it is
        // listed above.
        let variant = |m: &DoublingMsg| match m {
            DoublingMsg::WeightDeg { .. } => 0,
            DoublingMsg::InitBid { .. } => 1,
            DoublingMsg::Join => 2,
            DoublingMsg::Vote { .. } => 3,
            DoublingMsg::Covered => 4,
            DoublingMsg::Apply { .. } => 5,
        };
        assert!(all.iter().map(variant).eq(0..6), "every variant, once");
        let widest = all.iter().map(Message::bit_size).max();
        assert_eq!(widest, Some(DoublingMsg::MAX_BITS));
    }

    #[test]
    fn covers_triangle() {
        let g = from_edge_lists(3, &[&[0, 1], &[1, 2], &[2, 0]]).unwrap();
        let r = solve_doubling(&g, 1.0).unwrap();
        assert!(r.cover.is_cover_of(&g));
        assert!(r.ratio_upper_bound() <= 3.0 + 1e-9);
    }

    #[test]
    fn respects_f_plus_eps() {
        let mut rng = StdRng::seed_from_u64(23);
        for (f, eps) in [(2usize, 0.5), (3, 0.25), (5, 1.0)] {
            let g = random_uniform(
                &RandomUniform {
                    n: 50,
                    m: 130,
                    rank: f,
                    weights: WeightDist::Uniform { min: 1, max: 100 },
                },
                &mut rng,
            );
            let r = solve_doubling(&g, eps).unwrap();
            assert!(r.cover.is_cover_of(&g));
            assert!(
                r.ratio_upper_bound() <= f as f64 + eps + 1e-9,
                "ratio {} for f={f}",
                r.ratio_upper_bound()
            );
        }
    }

    #[test]
    fn duals_feasible() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = random_uniform(
            &RandomUniform {
                n: 40,
                m: 100,
                rank: 3,
                weights: WeightDist::PowersOfTwo { max: 1 << 16 },
            },
            &mut rng,
        );
        let r = solve_doubling(&g, 0.5).unwrap();
        for v in g.vertices() {
            let sum: f64 = g
                .incident_edges(v)
                .iter()
                .map(|&e| r.duals[e.index()])
                .sum();
            assert!(
                sum <= g.weight(v) as f64 * (1.0 + 1e-9),
                "infeasible at {v}"
            );
        }
    }

    #[test]
    fn rounds_grow_with_weight_ratio() {
        // Same topology, growing W: the doubling baseline must slow down.
        // (This is the paper's headline separation; asserted loosely here,
        // measured precisely in the F2 benchmark.)
        let cheap = star(64, 4, 8);
        let steep = star(64, 1 << 20, 1 << 21);
        let r_cheap = solve_doubling(&cheap, 0.5).unwrap();
        let r_steep = solve_doubling(&steep, 0.5).unwrap();
        assert!(
            r_steep.report.rounds > r_cheap.report.rounds,
            "{} vs {}",
            r_steep.report.rounds,
            r_cheap.report.rounds
        );
    }

    #[test]
    fn empty_instances() {
        let g = from_edge_lists(0, &[]).unwrap();
        assert_eq!(solve_doubling(&g, 0.5).unwrap().weight, 0);
    }
}
