//! Randomized maximal-matching 2-approximation for unweighted vertex cover
//! (`f = 2`), the stand-in for the randomized `O(log n)` rows of Table 1
//! (\[12\] Grandoni–Könemann–Panconesi, \[16\] Koufogiannakis–Young).
//!
//! Protocol (Israeli–Itai-style proposal matching, on the graph `G` itself
//! rather than the bipartite incidence network): each 4-round cycle,
//! unmatched vertices flip a coin; *proposers* propose to one random
//! unmatched neighbor, *acceptors* accept one proposal, proposers confirm
//! one acceptance, and freshly matched pairs announce themselves and halt.
//! Both endpoints of every matching edge enter the cover; maximality makes
//! it a vertex cover, and `|C| = 2|M| ≤ 2·OPT` for unweighted graphs.

use std::error::Error;
use std::fmt;

use dcover_congest::{Ctx, Message, Process, SimError, Simulator, Status, Topology};
use dcover_hypergraph::{Cover, Hypergraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::BaselineOutcome;

/// Error from the matching baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatchingError {
    /// The instance is not a graph: some hyperedge does not have exactly two
    /// vertices.
    NotRankTwo {
        /// Index of the offending edge.
        edge: usize,
    },
    /// The simulation failed (round limit — astronomically unlikely with a
    /// sane limit, since each cycle has constant success probability per
    /// uncovered edge).
    Sim(SimError),
}

impl fmt::Display for MatchingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchingError::NotRankTwo { edge } => {
                write!(f, "edge {edge} does not have exactly two endpoints")
            }
            MatchingError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for MatchingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MatchingError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for MatchingError {
    fn from(e: SimError) -> Self {
        MatchingError::Sim(e)
    }
}

/// Messages of the proposal-matching protocol (all O(1) bits).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MatchMsg {
    /// Cycle round 0: proposer → chosen neighbor.
    Propose,
    /// Cycle round 1: acceptor → one proposer.
    Accept,
    /// Cycle round 2: proposer → the acceptor it picked.
    Confirm,
    /// Cycle round 3: newly matched vertex → all unmatched neighbors.
    Matched,
}

impl Message for MatchMsg {
    const MAX_BITS: u64 = 2;

    fn bit_size(&self) -> u64 {
        2
    }
}

#[derive(Clone, Debug)]
struct MatchNode {
    rng: StdRng,
    live: Vec<bool>,
    live_count: usize,
    matched: bool,
    proposer: bool,
    accepted_from: Option<usize>,
}

impl MatchNode {
    fn live_ports(&self) -> Vec<usize> {
        (0..self.live.len()).filter(|&p| self.live[p]).collect()
    }
}

impl Process for MatchNode {
    type Msg = MatchMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, MatchMsg>) -> Status {
        match ctx.round() % 4 {
            0 => {
                // Absorb announcements, prune, maybe propose.
                for item in ctx.inbox() {
                    debug_assert_eq!(item.msg, MatchMsg::Matched);
                    if self.live[item.port] {
                        self.live[item.port] = false;
                        self.live_count -= 1;
                    }
                }
                if self.live_count == 0 {
                    return Status::Halted; // all incident edges covered
                }
                self.proposer = self.rng.gen::<bool>();
                self.accepted_from = None;
                if self.proposer {
                    let ports = self.live_ports();
                    let target = ports[self.rng.gen_range(0..ports.len())];
                    ctx.send(target, MatchMsg::Propose);
                }
                Status::Running
            }
            1 => {
                // Acceptors accept one proposal.
                if !self.proposer {
                    let proposals: Vec<usize> = ctx.inbox().iter().map(|i| i.port).collect();
                    if !proposals.is_empty() {
                        let chosen = proposals[self.rng.gen_range(0..proposals.len())];
                        self.accepted_from = Some(chosen);
                        ctx.send(chosen, MatchMsg::Accept);
                    }
                }
                Status::Running
            }
            2 => {
                // Proposers confirm one acceptance.
                if self.proposer {
                    let accepts: Vec<usize> = ctx.inbox().iter().map(|i| i.port).collect();
                    if !accepts.is_empty() {
                        let chosen = accepts[self.rng.gen_range(0..accepts.len())];
                        self.matched = true;
                        ctx.send(chosen, MatchMsg::Confirm);
                    }
                }
                Status::Running
            }
            _ => {
                // Acceptors learn their fate; matched vertices announce and
                // halt.
                if let Some(from) = self.accepted_from {
                    if ctx.inbox().iter().any(|i| i.port == from) {
                        self.matched = true;
                    }
                }
                if self.matched {
                    for p in 0..ctx.degree() {
                        if self.live[p] {
                            ctx.send(p, MatchMsg::Matched);
                        }
                    }
                    return Status::Halted;
                }
                Status::Running
            }
        }
    }
}

/// Runs the randomized maximal-matching vertex cover on a rank-2 instance.
///
/// Treats the graph as **unweighted**: the guarantee is `|C| ≤ 2·OPT` in
/// cardinality. `seed` makes the run reproducible. `iterations` in the
/// result counts 4-round matching cycles; `dual_total` is the matching size
/// (each matching edge is a dual witness of 1 in the unweighted LP, so
/// `|C| / |M| ≤ 2` certifies the ratio).
///
/// # Errors
///
/// Returns [`MatchingError::NotRankTwo`] for non-graph instances, or a
/// wrapped [`SimError`] if the round limit is exceeded.
pub fn vc_via_matching(g: &Hypergraph, seed: u64) -> Result<BaselineOutcome, MatchingError> {
    for e in g.edges() {
        if g.edge_size(e) != 2 {
            return Err(MatchingError::NotRankTwo { edge: e.index() });
        }
    }
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
    let links: Vec<(usize, usize)> = g
        .edges()
        .map(|e| {
            let m = g.edge(e);
            (m[0].index(), m[1].index())
        })
        .collect();
    let topo = Topology::from_links(n, &links);
    let nodes: Vec<MatchNode> = (0..n)
        .map(|i| MatchNode {
            rng: StdRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
            ),
            live: vec![true; topo.degree(i)],
            live_count: topo.degree(i),
            matched: false,
            proposer: false,
            accepted_from: None,
        })
        .collect();

    // Each cycle, an uncovered edge matches one of its endpoints with
    // probability bounded below by a constant over its degree; 64·log(n+m)
    // cycles leave failure probability negligible, and the limit only
    // guards against bugs anyway.
    let limit = 4 * 64 * (64 - (n as u64 + 1).leading_zeros() as u64 + 1) + 64;

    let mut sim = Simulator::new(topo, nodes);
    sim.run(limit)?;
    let (nodes, report) = sim.into_parts();

    let mut cover = Cover::empty(n);
    for (i, node) in nodes.iter().enumerate() {
        if node.matched {
            cover.insert(dcover_hypergraph::VertexId::new(i));
        }
    }
    assert!(cover.is_cover_of(g), "matching terminated without a cover");
    let weight = cover.weight(g);
    let matching_size = cover.len() as f64 / 2.0;
    Ok(BaselineOutcome {
        cover,
        weight,
        dual_total: matching_size, // |M| matching edges witness the ratio
        duals: Vec::new(),
        iterations: report.rounds / 4,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_hypergraph::from_edge_lists;
    use dcover_hypergraph::generators::{clique, cycle, random_uniform, RandomUniform, WeightDist};

    #[test]
    fn max_bits_is_the_widest_variant_at_its_field_maxima() {
        let all = [
            MatchMsg::Propose,
            MatchMsg::Accept,
            MatchMsg::Confirm,
            MatchMsg::Matched,
        ];
        // No wildcard arm: a new variant fails to compile until it is
        // listed above.
        let variant = |m: &MatchMsg| match m {
            MatchMsg::Propose => 0,
            MatchMsg::Accept => 1,
            MatchMsg::Confirm => 2,
            MatchMsg::Matched => 3,
        };
        assert!(all.iter().map(variant).eq(0..4), "every variant, once");
        let widest = all.iter().map(Message::bit_size).max();
        assert_eq!(widest, Some(MatchMsg::MAX_BITS));
    }

    #[test]
    fn covers_cycle() {
        let g = cycle(10);
        let r = vc_via_matching(&g, 1).unwrap();
        assert!(r.cover.is_cover_of(&g));
        assert_eq!(r.cover.len() % 2, 0, "cover = matched pairs");
    }

    #[test]
    fn two_approx_on_clique() {
        // OPT(K_n) = n−1; the matching cover has ≤ 2·⌊n/2⌋ vertices.
        let g = clique(9);
        let r = vc_via_matching(&g, 2).unwrap();
        assert!(r.cover.is_cover_of(&g));
        assert!(r.cover.len() <= 8 + 8); // trivially ≤ 2·OPT = 16
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let g = cycle(20);
        let a = vc_via_matching(&g, 7).unwrap();
        let b = vc_via_matching(&g, 7).unwrap();
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.report.rounds, b.report.rounds);
    }

    #[test]
    fn random_graphs_covered() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for seed in 0..5u64 {
            let g = random_uniform(
                &RandomUniform {
                    n: 60,
                    m: 140,
                    rank: 2,
                    weights: WeightDist::unit(),
                },
                &mut rng,
            );
            let r = vc_via_matching(&g, seed).unwrap();
            assert!(r.cover.is_cover_of(&g));
            // Ratio certificate: |C| = 2|M| and any cover needs ≥ |M|.
            assert!((r.cover.len() as f64 / r.dual_total) <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn rejects_hypergraphs() {
        let g = from_edge_lists(3, &[&[0, 1, 2]]).unwrap();
        assert_eq!(
            vc_via_matching(&g, 0).unwrap_err(),
            MatchingError::NotRankTwo { edge: 0 }
        );
    }

    #[test]
    fn empty_graph_ok() {
        let g = from_edge_lists(4, &[]).unwrap();
        let r = vc_via_matching(&g, 0).unwrap();
        assert!(r.cover.is_empty());
    }
}
