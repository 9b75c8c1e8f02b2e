//! The combined node program and network construction.
//!
//! The communication network is bipartite: hypergraph vertices are *server*
//! nodes `0..n`, hyperedges are *client* nodes `n..n+m`
//! ([`Topology::bipartite_incidence`]). [`MwhvcNode`] wraps the two state
//! machines behind one [`Process`] implementation so a single simulator runs
//! both sides.

use dcover_congest::{Ctx, Process, Status, Topology};
use dcover_hypergraph::Hypergraph;

use super::edge::EdgeNode;
use super::msg::MwhvcMsg;
use super::vertex::VertexNode;
use crate::params::{beta, z_levels, MwhvcConfig};

/// Which side of the bipartite communication network a node is on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// A hypergraph vertex (server).
    Vertex,
    /// A hyperedge (client).
    Edge,
}

/// One node of the MWHVC protocol (either a vertex or a hyperedge program).
///
/// Most users should call [`MwhvcSolver`](crate::MwhvcSolver) instead; this
/// type is public so examples and experiments can drive the simulator
/// round-by-round (e.g. to inspect per-round bandwidth).
#[derive(Clone, Debug)]
pub struct MwhvcNode(Inner);

#[derive(Clone, Debug)]
enum Inner {
    Vertex(VertexNode),
    Edge(EdgeNode),
}

impl MwhvcNode {
    /// The node's role.
    #[must_use]
    pub fn role(&self) -> NodeRole {
        match self.0 {
            Inner::Vertex(_) => NodeRole::Vertex,
            Inner::Edge(_) => NodeRole::Edge,
        }
    }

    /// For vertex nodes: whether the vertex ended in the cover.
    #[must_use]
    pub fn in_cover(&self) -> Option<bool> {
        match &self.0 {
            Inner::Vertex(v) => Some(v.in_cover()),
            Inner::Edge(_) => None,
        }
    }

    /// For vertex nodes: the final level `ℓ(v)`.
    #[must_use]
    pub fn level(&self) -> Option<u32> {
        match &self.0 {
            Inner::Vertex(v) => Some(v.level()),
            Inner::Edge(_) => None,
        }
    }

    /// For vertex nodes: the final dual sum `Σ_{e∈E(v)} δ(e)`.
    #[must_use]
    pub fn dual_sum(&self) -> Option<f64> {
        match &self.0 {
            Inner::Vertex(v) => Some(v.dual_sum()),
            Inner::Edge(_) => None,
        }
    }

    /// For vertex nodes: the per-port duals, in
    /// [`Hypergraph::incident_edges`] order.
    #[must_use]
    pub fn port_duals(&self) -> Option<impl ExactSizeIterator<Item = f64> + '_> {
        match &self.0 {
            Inner::Vertex(v) => Some(v.duals()),
            Inner::Edge(_) => None,
        }
    }

    /// For edge nodes: the resolved α(e) (0 before round 1).
    #[must_use]
    pub fn edge_alpha(&self) -> Option<u32> {
        match &self.0 {
            Inner::Vertex(_) => None,
            Inner::Edge(e) => Some(e.alpha()),
        }
    }

    /// For edge nodes: whether the edge terminated covered.
    #[must_use]
    pub fn edge_covered(&self) -> Option<bool> {
        match &self.0 {
            Inner::Vertex(_) => None,
            Inner::Edge(e) => Some(e.is_covered()),
        }
    }
}

impl Process for MwhvcNode {
    type Msg = MwhvcMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, MwhvcMsg>) -> Status {
        match &mut self.0 {
            Inner::Vertex(v) => v.on_round(ctx),
            Inner::Edge(e) => e.on_round(ctx),
        }
    }
}

/// Builds the communication network and the node programs for an instance.
///
/// Returns the bipartite topology (vertices `0..n`, edges `n..n+m`) and one
/// [`MwhvcNode`] per network node, ready to hand to a
/// [`Simulator`](dcover_congest::Simulator).
///
/// # Panics
///
/// Panics if the hypergraph has edges but rank 0 (impossible by
/// construction).
#[must_use]
pub fn build_network(g: &Hypergraph, config: &MwhvcConfig) -> (Topology, Vec<MwhvcNode>) {
    let topo = Topology::bipartite_incidence(g);
    let f = g.rank().max(1);
    let eps = config.epsilon();
    let b = beta(f, eps);
    let z = z_levels(f, eps);
    let mut nodes = Vec::with_capacity(g.n() + g.m());
    for v in g.vertices() {
        nodes.push(MwhvcNode(Inner::Vertex(VertexNode::new(
            g.weight(v),
            g.degree(v),
            b,
            z,
            config.variant(),
        ))));
    }
    for e in g.edges() {
        nodes.push(MwhvcNode(Inner::Edge(EdgeNode::new(
            g.edge_size(e),
            config.alpha(),
            f,
            eps,
            g.max_degree(),
        ))));
    }
    (topo, nodes)
}

/// Like [`build_network`], but seeds every vertex with a previous solve's
/// dual packing and level (see
/// [`MwhvcSolver::solve_warm`](crate::MwhvcSolver::solve_warm)).
///
/// `duals` holds one seeded dual per hyperedge of `g` (0 for edges with no
/// predecessor) and `levels` one level per vertex; the caller must already
/// have clamped the duals to a feasible packing and the levels to `≤ z` —
/// this function only distributes the per-edge values to the members'
/// port-aligned replicas.
///
/// # Panics
///
/// Panics if `duals`/`levels` do not match the instance's edge/vertex
/// counts (the solver validates shapes before calling).
#[must_use]
pub fn build_network_warm(
    g: &Hypergraph,
    config: &MwhvcConfig,
    duals: &[f64],
    levels: &[u32],
) -> (Topology, Vec<MwhvcNode>) {
    assert_eq!(duals.len(), g.m(), "one seeded dual per hyperedge");
    assert_eq!(levels.len(), g.n(), "one seeded level per vertex");
    let topo = Topology::bipartite_incidence(g);
    let f = g.rank().max(1);
    let eps = config.epsilon();
    let b = beta(f, eps);
    let z = z_levels(f, eps);
    let mut nodes = Vec::with_capacity(g.n() + g.m());
    for v in g.vertices() {
        nodes.push(MwhvcNode(Inner::Vertex(VertexNode::new_warm(
            g.weight(v),
            b,
            z,
            config.variant(),
            levels[v.index()],
            g.incident_edges(v).iter().map(|&e| duals[e.index()]),
        ))));
    }
    for e in g.edges() {
        nodes.push(MwhvcNode(Inner::Edge(EdgeNode::new_warm(
            g.edge_size(e),
            config.alpha(),
            f,
            eps,
            g.max_degree(),
        ))));
    }
    (topo, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_hypergraph::from_edge_lists;

    #[test]
    fn build_network_shapes() {
        let g = from_edge_lists(4, &[&[0, 1], &[1, 2, 3]]).unwrap();
        let cfg = MwhvcConfig::new(0.5).unwrap();
        let (topo, nodes) = build_network(&g, &cfg);
        assert_eq!(topo.len(), 6);
        assert_eq!(nodes.len(), 6);
        assert_eq!(nodes[0].role(), NodeRole::Vertex);
        assert_eq!(nodes[4].role(), NodeRole::Edge);
        assert_eq!(nodes[0].in_cover(), Some(false));
        assert_eq!(nodes[4].in_cover(), None);
        assert_eq!(nodes[4].edge_covered(), Some(false));
        assert_eq!(nodes[0].level(), Some(0));
    }
}
