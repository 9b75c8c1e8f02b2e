//! The vertex (server) state machine.
//!
//! A vertex owns the numeric state of the primal-dual computation: its level
//! `ℓ(v)`, the dual sum `Σ_{e∈E(v)} δ(e)`, and a local replica of `bid(e)`
//! and `δ(e)` for every incident edge. Replicas stay consistent across the
//! members of an edge because every update is a deterministic function of
//! broadcast values (see the module docs of [`super`]).

use dcover_congest::{Ctx, Status};

use super::msg::MwhvcMsg;
use super::{
    apply_halvings, apply_raise, initial_bid, pow2_neg, should_level_up, Phase, INIT_ROUNDS,
};
use crate::params::Variant;

/// Final outcome of a vertex.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum VertexOutcome {
    /// Still running.
    Undecided,
    /// Became β-tight and joined the cover C (step 3a).
    InCover,
    /// All incident edges were covered by others; terminated outside C.
    AllCovered,
}

/// A vertex's state for one port (one incident edge `e`): its replicas of
/// `bid(e)` and `δ(e)`, the multiplier `α(e)`, and whether `e` is still
/// uncovered. One struct per port (24 bytes) rather than one array per
/// field, because the V1 and V2 loops read all four fields of a port
/// together.
#[derive(Copy, Clone, Debug)]
struct PortState {
    bid: f64,
    dual: f64,
    alpha: u32,
    live: bool,
}

impl PortState {
    /// A fresh port: no bid yet, `δ(e)` seeded (0 for a cold run), `α` at
    /// its floor of 2 until round 2 ships the edge's value.
    fn new(dual: f64) -> Self {
        Self {
            bid: 0.0,
            dual,
            alpha: 2,
            live: true,
        }
    }
}

/// Per-vertex program state.
#[derive(Clone, Debug)]
pub(crate) struct VertexNode {
    // ---- immutable local input ----
    weight: u64,
    beta: f64,
    z: u32,
    variant: Variant,
    // ---- per-port state (index = port) ----
    /// One entry per edge of `E(v)`, so `ports.len()` is `|E(v)|`. A cold
    /// network keeps them in `E(v)` order; a warm one puts the live ports
    /// first, each group in `E(v)` order, so the running sub-network's
    /// port `k` is `ports[k]`.
    ports: Box<[PortState]>,
    live_count: u32,
    // ---- scalars ----
    dual_sum: f64,
    level: u32,
    outcome: VertexOutcome,
    /// Warm-started runs seed the port duals, `dual_sum` and `level` from a
    /// previous solve and exchange the warm init messages instead of the
    /// cold ones.
    warm: bool,
}

impl VertexNode {
    pub(crate) fn new(weight: u64, degree: usize, beta: f64, z: u32, variant: Variant) -> Self {
        Self::with_ports(
            weight,
            beta,
            z,
            variant,
            vec![PortState::new(0.0); degree].into_boxed_slice(),
        )
    }

    /// A vertex seeded from a previous solve: its seeded dual sum and
    /// level, and one `(dual, live)` pair for each of its `degree` ports,
    /// in port order. The caller (the warm network build) has already
    /// clamped the duals to a feasible packing and the level to `≤ z`,
    /// and summed the duals in `E(v)` order, as the cold protocol
    /// accumulates.
    #[expect(clippy::too_many_arguments, reason = "one per seeded field")]
    pub(crate) fn new_warm(
        weight: u64,
        beta: f64,
        z: u32,
        variant: Variant,
        level: u32,
        dual_sum: f64,
        degree: usize,
        ports: impl Iterator<Item = (f64, bool)>,
    ) -> Self {
        debug_assert!(level <= z);
        // Allocated once at the degree: the ports come from filters, whose
        // length a collect cannot know up front.
        let mut seeded = Vec::with_capacity(degree);
        seeded.extend(ports.map(|(dual, live)| PortState {
            live,
            ..PortState::new(dual)
        }));
        debug_assert_eq!(seeded.len(), degree, "one seeded port per incident edge");
        let ports = seeded.into_boxed_slice();
        Self {
            live_count: ports.iter().filter(|p| p.live).count() as u32,
            dual_sum,
            level,
            warm: true,
            ..Self::with_ports(weight, beta, z, variant, ports)
        }
    }

    fn with_ports(
        weight: u64,
        beta: f64,
        z: u32,
        variant: Variant,
        ports: Box<[PortState]>,
    ) -> Self {
        Self {
            weight,
            beta,
            z,
            variant,
            // A degree is bounded by the hypergraph's `u32` CSR offsets.
            live_count: ports.len() as u32,
            ports,
            dual_sum: 0.0,
            level: 0,
            outcome: VertexOutcome::Undecided,
            warm: false,
        }
    }

    /// Whether this vertex ended in the cover.
    pub(crate) fn in_cover(&self) -> bool {
        self.outcome == VertexOutcome::InCover
    }

    /// The final level `ℓ(v)`.
    pub(crate) fn level(&self) -> u32 {
        self.level
    }

    /// The final per-port duals, in port order.
    pub(crate) fn duals(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.ports.iter().map(|p| p.dual)
    }

    pub(crate) fn on_round(&mut self, ctx: &mut Ctx<'_, MwhvcMsg>) -> Status {
        let round = ctx.round();
        if round == 0 {
            if self.ports.is_empty() {
                // Isolated vertex: nothing to cover, never in C.
                self.outcome = VertexOutcome::AllCovered;
                return Status::Halted;
            }
            let degree = self.ports.len() as u32;
            if self.warm {
                // Ports of edges settled covered before the run are dead.
                self.send_live(
                    ctx,
                    MwhvcMsg::WeightDegWarm {
                        weight: self.weight,
                        degree,
                        level: self.level,
                    },
                );
            } else {
                ctx.broadcast(MwhvcMsg::WeightDeg {
                    weight: self.weight,
                    degree,
                });
            }
            return Status::Running;
        }
        if round == 1 {
            // Edges are computing initial bids; nothing to do.
            return Status::Running;
        }
        match Phase::of_round(round) {
            Phase::V1 => self.phase_v1(ctx),
            Phase::V2 => self.phase_v2(ctx),
            Phase::E1 | Phase::E2 => Status::Running, // edge phases; inbox empty
        }
    }

    /// V1: absorb dual increments (or the initial bids at round 2), then the
    /// β-tightness check (3a), then level increments (3d).
    fn phase_v1(&mut self, ctx: &mut Ctx<'_, MwhvcMsg>) -> Status {
        if ctx.round() == INIT_ROUNDS && self.warm {
            // Warm iteration 0: the duals are already seeded; only the bid
            // replicas need reconstructing, pre-halved by the seeded
            // levels of *all* members (shipped by the edge as `halvings`)
            // so bid growth resumes at the pace the seeded packing
            // implies. Nothing is added to δ here: for surviving edges the
            // seeded value IS the dual, and freshly inserted edges start
            // at δ = 0 and earn their first increment through the regular
            // raise cycle — keeping every replica in exact agreement.
            debug_assert_eq!(ctx.inbox().len(), self.live_count as usize);
            for item in ctx.inbox() {
                let MwhvcMsg::MinNormWarm {
                    weight,
                    degree,
                    alpha,
                    halvings,
                } = item.msg
                else {
                    unreachable!("warm round 2 inbox must be MinNormWarm, got {:?}", item.msg);
                };
                let port = &mut self.ports[item.port];
                port.bid = apply_halvings(initial_bid(weight, degree), halvings);
                port.alpha = alpha;
            }
        } else if ctx.round() == INIT_ROUNDS {
            // Iteration 0 results: every edge reported its minimum
            // normalized weight; reconstruct bid0 and δ0 locally.
            debug_assert_eq!(ctx.inbox().len(), self.ports.len());
            for item in ctx.inbox() {
                let MwhvcMsg::MinNorm {
                    weight,
                    degree,
                    alpha,
                } = item.msg
                else {
                    unreachable!("round 2 inbox must be MinNorm, got {:?}", item.msg);
                };
                let bid = initial_bid(weight, degree);
                let port = &mut self.ports[item.port];
                port.bid = bid;
                port.dual = bid;
                port.alpha = alpha;
                self.dual_sum += bid;
            }
        } else {
            // Step 3f of the previous iteration: learn whether each live
            // edge raised, then add the (possibly raised) bid to δ(e).
            for item in ctx.inbox() {
                let MwhvcMsg::RaiseApplied { raised } = item.msg else {
                    unreachable!("V1 inbox must be RaiseApplied, got {:?}", item.msg);
                };
                let port = &mut self.ports[item.port];
                debug_assert!(port.live);
                if raised {
                    port.bid = apply_raise(port.bid, port.alpha);
                }
                let add = match self.variant {
                    Variant::Standard => port.bid,
                    Variant::HalfBid => port.bid / 2.0,
                };
                port.dual += add;
                self.dual_sum += add;
            }
        }

        if is_tight(self.dual_sum, self.weight, self.beta) {
            self.outcome = VertexOutcome::InCover;
            self.send_live(ctx, MwhvcMsg::Join);
            return Status::Halted;
        }
        let level = climb_levels(self.dual_sum, self.weight, self.level, self.z);
        let increments = level - self.level;
        self.level = level;
        self.send_live(ctx, MwhvcMsg::LevelInc { count: increments });
        Status::Running
    }

    /// V2: prune covered edges (3b/3c), apply halvings, raise/stuck (3e).
    fn phase_v2(&mut self, ctx: &mut Ctx<'_, MwhvcMsg>) -> Status {
        for item in ctx.inbox() {
            let port = &mut self.ports[item.port];
            match item.msg {
                MwhvcMsg::Covered => {
                    debug_assert!(port.live);
                    port.live = false;
                    self.live_count -= 1;
                    // δ(e) stays frozen at its last value (paper: δ_i(e) =
                    // δ_{j-1}(e) for covered edges) and keeps contributing
                    // to dual_sum.
                }
                MwhvcMsg::Halved { count } => {
                    debug_assert!(port.live);
                    if count > 0 {
                        port.bid = apply_halvings(port.bid, count);
                    }
                }
                other => unreachable!("V2 inbox must be Covered/Halved, got {other:?}"),
            }
        }
        if self.live_count == 0 {
            self.outcome = VertexOutcome::AllCovered;
            return Status::Halted;
        }

        // Step 3e with the local α: a raise is safe iff even the largest
        // multiplier among live edges keeps Claim 1 intact.
        let mut alpha_max = 2u32;
        let mut bid_sum = 0.0;
        for port in self.ports.iter().filter(|p| p.live) {
            alpha_max = alpha_max.max(port.alpha);
            bid_sum += port.bid;
        }
        let threshold = pow2_neg(self.level + 1) * self.weight as f64 / f64::from(alpha_max);
        let msg = if bid_sum <= threshold {
            MwhvcMsg::Raise
        } else {
            MwhvcMsg::Stuck
        };
        self.send_live(ctx, msg);
        Status::Running
    }

    fn send_live(&self, ctx: &mut Ctx<'_, MwhvcMsg>, msg: MwhvcMsg) {
        for (p, port) in self.ports.iter().enumerate() {
            if port.live {
                ctx.send(p, msg);
            }
        }
    }
}

/// Step 3a: whether a vertex of weight `weight` is β-tight on its dual
/// sum. The vertex program and the warm settle pass both decide with it.
pub(crate) fn is_tight(dual_sum: f64, weight: u64, beta: f64) -> bool {
    dual_sum >= (1.0 - beta) * weight as f64
}

/// Step 3d: the level a vertex of weight `weight` climbs to from `level`
/// on its dual sum, climbing while the slack has more than halved. The
/// vertex program and the warm settle pass both climb with it.
pub(crate) fn climb_levels(dual_sum: f64, weight: u64, mut level: u32, z: u32) -> u32 {
    let weight = weight as f64;
    while should_level_up(dual_sum, weight, level) {
        level += 1;
        debug_assert!(
            level <= z,
            "level {level} exceeded z = {z} (Claim 4 violated)"
        );
        if level > z {
            break; // float-slop safety valve; unreachable in practice
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_congest::Incoming;

    /// Steps `v` (of degree `degree`) through `round` with `inbox` laid
    /// out one slot per port; returns its status and its sends.
    fn run_round(
        v: &mut VertexNode,
        round: u64,
        degree: usize,
        inbox: Vec<Incoming<MwhvcMsg>>,
    ) -> (Status, Vec<(usize, MwhvcMsg)>) {
        let mut slots = vec![None; degree];
        for item in inbox {
            slots[item.port] = Some(item.msg);
        }
        let mut out = Vec::new();
        let status = v.on_round(&mut Ctx::new(round, 0, &slots, &mut out));
        (status, out)
    }

    #[test]
    fn isolated_vertex_halts_immediately() {
        let mut v = VertexNode::new(5, 0, 0.25, 2, Variant::Standard);
        let (status, out) = run_round(&mut v, 0, 0, vec![]);
        assert_eq!(status, Status::Halted);
        assert!(out.is_empty());
        assert!(!v.in_cover());
    }

    #[test]
    fn round0_broadcasts_weight_and_degree() {
        let mut v = VertexNode::new(7, 3, 0.25, 2, Variant::Standard);
        let (status, out) = run_round(&mut v, 0, 3, vec![]);
        assert_eq!(status, Status::Running);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, m)| matches!(
            m,
            MwhvcMsg::WeightDeg {
                weight: 7,
                degree: 3
            }
        )));
    }

    #[test]
    fn round2_reconstructs_bids_and_checks_tightness() {
        // Degree 1, weight 1; edge reports v* = (1, 1) -> bid0 = 0.5.
        // beta = 1/3: (1-beta)w = 2/3 > 0.5 -> not tight, level stays 0
        // because 0.5 <= w(1 - 0.25) = 0.75? Level loop: while 0.5 >
        // 1·(1−0.5) = 0.5 -> false. So no increments.
        let mut v = VertexNode::new(1, 1, 1.0 / 3.0, 2, Variant::Standard);
        let inbox = vec![Incoming {
            port: 0,
            msg: MwhvcMsg::MinNorm {
                weight: 1,
                degree: 1,
                alpha: 2,
            },
        }];
        let (status, out) = run_round(&mut v, 2, 1, inbox);
        assert_eq!(status, Status::Running);
        assert_eq!(out, vec![(0, MwhvcMsg::LevelInc { count: 0 })]);
        assert_eq!(v.dual_sum, 0.5);
        assert_eq!(v.level(), 0);
    }

    #[test]
    fn tight_vertex_joins_and_halts() {
        // beta = 0.5; degree 1 with bid0 = 0.5·w: dual_sum = 0.5 ≥ (1−β)w =
        // 0.5 -> joins immediately at round 2.
        let mut v = VertexNode::new(1, 1, 0.5, 1, Variant::Standard);
        let inbox = vec![Incoming {
            port: 0,
            msg: MwhvcMsg::MinNorm {
                weight: 1,
                degree: 1,
                alpha: 2,
            },
        }];
        let (status, out) = run_round(&mut v, 2, 1, inbox);
        assert_eq!(status, Status::Halted);
        assert!(v.in_cover());
        assert_eq!(out, vec![(0, MwhvcMsg::Join)]);
    }

    #[test]
    fn v2_covered_edges_freeze_duals() {
        let mut v = VertexNode::new(10, 2, 0.25, 3, Variant::Standard);
        // Seed round-2 state manually.
        let inbox = vec![
            Incoming {
                port: 0,
                msg: MwhvcMsg::MinNorm {
                    weight: 10,
                    degree: 2,
                    alpha: 2,
                },
            },
            Incoming {
                port: 1,
                msg: MwhvcMsg::MinNorm {
                    weight: 10,
                    degree: 2,
                    alpha: 4,
                },
            },
        ];
        run_round(&mut v, 2, 2, inbox);
        let dual_before = v.dual_sum;

        // V2: edge on port 0 covered, port 1 halved twice.
        let inbox = vec![
            Incoming {
                port: 0,
                msg: MwhvcMsg::Covered,
            },
            Incoming {
                port: 1,
                msg: MwhvcMsg::Halved { count: 2 },
            },
        ];
        let (status, out) = run_round(&mut v, 4, 2, inbox);
        assert_eq!(status, Status::Running);
        assert_eq!(v.dual_sum, dual_before, "duals frozen, not removed");
        assert_eq!(v.ports[1].bid, 2.5 * 0.25, "bid halved twice");
        // Only the live port gets the raise/stuck message.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1);
        // alpha_max over live ports = 4; threshold = 0.5^{1}·10/4 = 1.25;
        // bid_sum = 0.625 ≤ 1.25 -> Raise.
        assert_eq!(out[0].1, MwhvcMsg::Raise);
    }

    #[test]
    fn v2_all_covered_halts_outside_cover() {
        let mut v = VertexNode::new(10, 1, 0.25, 3, Variant::Standard);
        let inbox = vec![Incoming {
            port: 0,
            msg: MwhvcMsg::MinNorm {
                weight: 10,
                degree: 1,
                alpha: 2,
            },
        }];
        run_round(&mut v, 2, 1, inbox);
        let inbox = vec![Incoming {
            port: 0,
            msg: MwhvcMsg::Covered,
        }];
        let (status, out) = run_round(&mut v, 4, 1, inbox);
        assert_eq!(status, Status::Halted);
        assert!(!v.in_cover());
        assert!(out.is_empty());
    }

    #[test]
    fn halfbid_adds_half() {
        let mut v = VertexNode::new(100, 1, 0.01, 9, Variant::HalfBid);
        let inbox = vec![Incoming {
            port: 0,
            msg: MwhvcMsg::MinNorm {
                weight: 100,
                degree: 1,
                alpha: 2,
            },
        }];
        run_round(&mut v, 2, 1, inbox);
        assert_eq!(v.dual_sum, 50.0); // δ0 = bid0 (full, per iteration 0)
        let inbox = vec![Incoming {
            port: 0,
            msg: MwhvcMsg::RaiseApplied { raised: false },
        }];
        run_round(&mut v, 6, 1, inbox);
        // HalfBid: δ += bid/2 = 25.
        assert_eq!(v.dual_sum, 75.0);
    }
}
