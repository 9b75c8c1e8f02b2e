//! The hyperedge (client) state machine.
//!
//! Edges do no numeric work: they pick the minimum-normalized-weight member
//! in iteration 0, aggregate halving counts, detect unanimous raise votes,
//! and propagate coverage — pure `O(f)`-fan-in coordination, as in the
//! paper.

use dcover_congest::{Ctx, Status};

use super::msg::MwhvcMsg;
use super::{norm_weight_less, Phase};
use crate::params::{theorem9_alpha, AlphaPolicy};

/// How an edge fixes `α(e)` in round 1. `Fixed` and `Theorem9` read only
/// the whole instance's f, ε and Δ, so the network resolves them once and
/// every edge carries the value; `LocalTheorem9` needs the edge's own
/// `Δ(e)`, which round 1 collects.
#[derive(Copy, Clone, Debug)]
pub(crate) enum EdgeAlpha {
    /// One α for every edge of the network.
    Global(u32),
    /// Theorem 9 on the edge's local maximum degree.
    Local { gamma: f64, f: u32, eps: f64 },
}

impl EdgeAlpha {
    /// Resolves `policy` once for a network of rank `f` and maximum
    /// degree `global_delta`.
    pub(crate) fn for_network(policy: AlphaPolicy, f: u32, eps: f64, global_delta: u32) -> Self {
        match policy {
            AlphaPolicy::LocalTheorem9 { gamma } => EdgeAlpha::Local { gamma, f, eps },
            global => EdgeAlpha::Global(global.resolve(f, eps, global_delta, global_delta)),
        }
    }

    /// `α(e)`; `local_delta` yields the edge's `Δ(e)`, read only by
    /// `Local`.
    fn resolve(self, local_delta: impl FnOnce() -> u32) -> u32 {
        match self {
            EdgeAlpha::Global(alpha) => alpha,
            EdgeAlpha::Local { gamma, f, eps } => theorem9_alpha(f, eps, local_delta(), gamma),
        }
    }
}

/// Per-edge program state.
#[derive(Clone, Debug)]
pub(crate) struct EdgeNode {
    size: usize,
    rule: EdgeAlpha,
    /// Warm-started runs receive seeded levels in round 0 and ship the
    /// matching pre-halving count with the initial bid.
    warm: bool,
}

impl EdgeNode {
    pub(crate) fn new(size: usize, rule: EdgeAlpha) -> Self {
        debug_assert!(size > 0, "hyperedges are never empty");
        Self {
            size,
            rule,
            warm: false,
        }
    }

    /// An edge of a warm-started network (identical coordination role; the
    /// only difference is the init-round message vocabulary).
    pub(crate) fn new_warm(size: usize, rule: EdgeAlpha) -> Self {
        Self {
            warm: true,
            ..Self::new(size, rule)
        }
    }

    pub(crate) fn on_round(&mut self, ctx: &mut Ctx<'_, MwhvcMsg>) -> Status {
        let round = ctx.round();
        if round == 0 {
            return Status::Running; // vertices are broadcasting
        }
        if round == 1 {
            return self.round1(ctx);
        }
        match Phase::of_round(round) {
            Phase::E1 => self.phase_e1(ctx),
            Phase::E2 => self.phase_e2(ctx),
            Phase::V1 | Phase::V2 => Status::Running, // vertex phases
        }
    }

    /// Iteration 0: find `v* = argmin w(v)/|E(v)|` (exact integer
    /// comparison, ties to the lowest port) and announce it with α(e).
    /// Warm runs additionally aggregate the members' seeded levels into
    /// the pre-halving count `Σ_{u∈e} ℓ(u)` that every member applies to
    /// the initial bid.
    fn round1(&mut self, ctx: &mut Ctx<'_, MwhvcMsg>) -> Status {
        debug_assert_eq!(ctx.inbox().len(), self.size);
        let mut best: Option<(u64, u32)> = None;
        let mut local_delta = 0u32;
        let mut halvings = 0u32;
        // Inbox is port-sorted, so "first strictly smaller wins" is the
        // lowest-port tie-break.
        for item in ctx.inbox() {
            let (weight, degree) = match (self.warm, item.msg) {
                (false, MwhvcMsg::WeightDeg { weight, degree }) => (weight, degree),
                (
                    true,
                    MwhvcMsg::WeightDegWarm {
                        weight,
                        degree,
                        level,
                    },
                ) => {
                    halvings = halvings.saturating_add(level);
                    (weight, degree)
                }
                (warm, other) => {
                    unreachable!("round 1 inbox wrong for warm={warm}: {other:?}")
                }
            };
            local_delta = local_delta.max(degree);
            match best {
                None => best = Some((weight, degree)),
                Some((bw, bd)) => {
                    if norm_weight_less(weight, u64::from(degree), bw, u64::from(bd)) {
                        best = Some((weight, degree));
                    }
                }
            }
        }
        let (weight, degree) = best.expect("edges have at least one member");
        let alpha = self.rule.resolve(|| local_delta);
        if self.warm {
            ctx.broadcast(MwhvcMsg::MinNormWarm {
                weight,
                degree,
                alpha,
                halvings,
            });
        } else {
            ctx.broadcast(MwhvcMsg::MinNorm {
                weight,
                degree,
                alpha,
            });
        }
        Status::Running
    }

    /// E1: coverage propagation (3b) or halving aggregation (3(d)ii).
    fn phase_e1(&mut self, ctx: &mut Ctx<'_, MwhvcMsg>) -> Status {
        debug_assert_eq!(
            ctx.inbox().len(),
            self.size,
            "all members of an uncovered edge are alive"
        );
        let mut halvings = 0u32;
        let mut covered = false;
        for item in ctx.inbox() {
            match item.msg {
                MwhvcMsg::Join => covered = true,
                MwhvcMsg::LevelInc { count } => halvings += count,
                other => unreachable!("E1 inbox must be Join/LevelInc, got {other:?}"),
            }
        }
        if covered {
            ctx.broadcast(MwhvcMsg::Covered);
            return Status::Halted;
        }
        ctx.broadcast(MwhvcMsg::Halved { count: halvings });
        Status::Running
    }

    /// E2: unanimous-raise detection (3f). The actual dual increment happens
    /// on the vertex side when `RaiseApplied` arrives.
    fn phase_e2(&mut self, ctx: &mut Ctx<'_, MwhvcMsg>) -> Status {
        debug_assert_eq!(ctx.inbox().len(), self.size);
        let all_raise = ctx.inbox().iter().all(|item| match item.msg {
            MwhvcMsg::Raise => true,
            MwhvcMsg::Stuck => false,
            other => unreachable!("E2 inbox must be Raise/Stuck, got {other:?}"),
        });
        ctx.broadcast(MwhvcMsg::RaiseApplied { raised: all_raise });
        Status::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_congest::Incoming;

    fn run_round(
        edge: &mut EdgeNode,
        round: u64,
        inbox: Vec<Incoming<MwhvcMsg>>,
    ) -> (Status, Vec<(usize, MwhvcMsg)>) {
        let mut slots = vec![None; edge.size];
        for item in inbox {
            slots[item.port] = Some(item.msg);
        }
        let mut out = Vec::new();
        let status = edge.on_round(&mut Ctx::new(round, 9, &slots, &mut out));
        (status, out)
    }

    fn weight_deg(port: usize, weight: u64, degree: u32) -> Incoming<MwhvcMsg> {
        Incoming {
            port,
            msg: MwhvcMsg::WeightDeg { weight, degree },
        }
    }

    #[test]
    fn round1_picks_min_normalized_weight() {
        let mut e = EdgeNode::new(3, EdgeAlpha::Global(2));
        // Normalized: 6/2 = 3, 5/5 = 1, 9/3 = 3 -> v* = port 1.
        let inbox = vec![
            weight_deg(0, 6, 2),
            weight_deg(1, 5, 5),
            weight_deg(2, 9, 3),
        ];
        let (status, out) = run_round(&mut e, 1, inbox);
        assert_eq!(status, Status::Running);
        assert_eq!(out.len(), 3);
        for (_, msg) in &out {
            assert_eq!(
                *msg,
                MwhvcMsg::MinNorm {
                    weight: 5,
                    degree: 5,
                    alpha: 2
                }
            );
        }
    }

    #[test]
    fn round1_tie_breaks_to_lowest_port() {
        let mut e = EdgeNode::new(2, EdgeAlpha::Global(2));
        // 2/4 == 1/2 exactly; port 0 must win.
        let inbox = vec![weight_deg(0, 2, 4), weight_deg(1, 1, 2)];
        let (_, out) = run_round(&mut e, 1, inbox);
        assert!(matches!(
            out[0].1,
            MwhvcMsg::MinNorm {
                weight: 2,
                degree: 4,
                ..
            }
        ));
    }

    #[test]
    fn round1_local_alpha_uses_local_max_degree() {
        let rule = EdgeAlpha::for_network(AlphaPolicy::LocalTheorem9 { gamma: 0.001 }, 1, 1.0, 3);
        let mut e = EdgeNode::new(2, rule);
        let inbox = vec![weight_deg(0, 1, 1 << 20), weight_deg(1, 1, 2)];
        let (_, out) = run_round(&mut e, 1, inbox);
        let MwhvcMsg::MinNorm { alpha, .. } = out[0].1 else {
            panic!("expected MinNorm");
        };
        assert!(alpha > 2, "local delta 2^20 should give a large alpha");
    }

    #[test]
    fn e1_join_covers_and_halts() {
        let mut e = EdgeNode::new(2, EdgeAlpha::Global(2));
        let inbox = vec![
            Incoming {
                port: 0,
                msg: MwhvcMsg::Join,
            },
            Incoming {
                port: 1,
                msg: MwhvcMsg::LevelInc { count: 1 },
            },
        ];
        let (status, out) = run_round(&mut e, 3, inbox);
        assert_eq!(status, Status::Halted);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, m)| *m == MwhvcMsg::Covered));
    }

    #[test]
    fn e1_sums_halvings() {
        let mut e = EdgeNode::new(3, EdgeAlpha::Global(2));
        let inbox = vec![
            Incoming {
                port: 0,
                msg: MwhvcMsg::LevelInc { count: 1 },
            },
            Incoming {
                port: 1,
                msg: MwhvcMsg::LevelInc { count: 0 },
            },
            Incoming {
                port: 2,
                msg: MwhvcMsg::LevelInc { count: 2 },
            },
        ];
        let (status, out) = run_round(&mut e, 3, inbox);
        assert_eq!(status, Status::Running);
        assert!(out.iter().all(|(_, m)| *m == MwhvcMsg::Halved { count: 3 }));
    }

    #[test]
    fn e2_requires_unanimity() {
        let mut e = EdgeNode::new(2, EdgeAlpha::Global(2));
        let inbox = vec![
            Incoming {
                port: 0,
                msg: MwhvcMsg::Raise,
            },
            Incoming {
                port: 1,
                msg: MwhvcMsg::Stuck,
            },
        ];
        let (_, out) = run_round(&mut e, 5, inbox);
        assert!(out
            .iter()
            .all(|(_, m)| *m == MwhvcMsg::RaiseApplied { raised: false }));

        let inbox = vec![
            Incoming {
                port: 0,
                msg: MwhvcMsg::Raise,
            },
            Incoming {
                port: 1,
                msg: MwhvcMsg::Raise,
            },
        ];
        let (_, out) = run_round(&mut e, 5, inbox);
        assert!(out
            .iter()
            .all(|(_, m)| *m == MwhvcMsg::RaiseApplied { raised: true }));
    }
}
