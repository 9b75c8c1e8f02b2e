//! The combined node program and network construction.
//!
//! The communication network is bipartite: hypergraph vertices are *server*
//! nodes `0..n`, hyperedges are *client* nodes `n..n+m`
//! ([`Topology::bipartite_incidence`]). [`MwhvcNode`] wraps the two state
//! machines behind one [`Process`] implementation so a single simulator runs
//! both sides.

use dcover_congest::{Ctx, Process, SimError, Status, Topology};
use dcover_hypergraph::{Cover, EdgeId, Hypergraph, HypergraphBuilder, VertexId};

use super::edge::{EdgeAlpha, EdgeNode};
use super::msg::MwhvcMsg;
use super::vertex::{climb_levels, is_tight, VertexNode};
use crate::params::{beta, z_levels, MwhvcConfig};
use crate::warm::seeded_sum;

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

    /// For vertex nodes: the per-port duals, one per edge of `E(v)`, in
    /// port order. A cold network's ports follow
    /// [`Hypergraph::incident_edges`]; a warm network
    /// ([`build_network_warm`]) puts the vertex's uncovered edges first
    /// and its settled ones after, each group in `E(v)` order, so the
    /// first ports are the vertex's sub-network ports.
    #[must_use]
    pub fn port_duals(&self) -> Option<impl ExactSizeIterator<Item = f64> + '_> {
        match &self.0 {
            Inner::Vertex(v) => Some(v.duals()),
            Inner::Edge(_) => None,
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

/// The whole instance's protocol constants: β, `z` and the α rule. A
/// warm sub-network carries these, not its own.
fn network_params(g: &Hypergraph, config: &MwhvcConfig) -> (f64, u32, EdgeAlpha) {
    let f = g.rank().max(1);
    let eps = config.epsilon();
    let alpha = EdgeAlpha::for_network(config.alpha(), f, eps, g.max_degree());
    (beta(f, eps), z_levels(f, eps), alpha)
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
    let (b, z, alpha) = network_params(g, config);
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
        nodes.push(MwhvcNode(Inner::Edge(EdgeNode::new(g.edge_size(e), alpha))));
    }
    (topo, nodes)
}

/// Builds the warm network of a seeded solve (see
/// [`MwhvcSolver::solve_warm`](crate::MwhvcSolver::solve_warm)): only the
/// nodes that warm iteration 0 leaves running, seeded with a previous
/// solve's dual packing and levels.
///
/// `duals` holds one seeded dual per hyperedge of `g` (0 for edges with no
/// predecessor) and `levels` one level per vertex; the caller must already
/// have clamped the duals to a feasible packing and the levels to `≤ z`.
///
/// Warm iteration 0 depends on nothing a node receives: a vertex's step
/// 3a reads only its seeded sum. So a settle pass decides it first, from
/// each vertex's seeded sum (taken in `E(v)` order), weight, level, β and
/// `z`, with the vertex program's own step 3a and 3d functions:
///
/// * a vertex with ports that is β-tight on its seeded duals is settled
///   in the cover, with its seeded duals and level;
/// * an edge with such a member is settled covered;
/// * a vertex that is not tight but whose edges are all settled covered
///   is settled outside the cover, at the level its step 3d climb
///   reaches; an isolated vertex is settled outside the cover at its
///   seeded level.
///
/// Settled nodes get no program. The rest run: the uncovered edges and
/// their members. No member of an uncovered edge is tight or out of live
/// ports, so the running set is closed, and running nodes never wait on
/// settled ones. The returned network is the running sub-network:
/// the running vertices are nodes `0..n'` and the running edges nodes
/// `n'..n'+m'`, each side in ascending instance id, with the topology of
/// [`Topology::bipartite_incidence`] over that order-preserving
/// sub-hypergraph. A running vertex stores its live ports first, so its
/// sub-network port `k` is its `k`-th uncovered edge in `E(v)` order, and
/// it still ships its full degree `|E(v)|`. β, `z`, α, the bit budget and
/// the round limit stay the whole instance's. Cover, duals, levels and
/// rounds are those of running every node (an instance that settles
/// completely takes one round), while only the running nodes are built,
/// set up and stepped.
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
    let sums: Vec<f64> = g.vertices().map(|v| seeded_sum(g, duals, v)).collect();
    let net = WarmNetwork::settle(g, config, duals, levels.to_vec(), &sums);
    (Topology::bipartite_incidence(&net.sub), net.nodes)
}

/// The outcome of the warm settle pass: the settled part of the result
/// and the running sub-network (see [`build_network_warm`]).
pub(crate) struct WarmNetwork {
    /// The running sub-hypergraph, in ascending instance-id order on both
    /// sides.
    pub(crate) sub: Hypergraph,
    /// The instance vertex of each running vertex.
    pub(crate) vertices: Vec<VertexId>,
    /// The instance edge of each running edge.
    pub(crate) edges: Vec<EdgeId>,
    /// One program per node of `sub`'s bipartite network.
    pub(crate) nodes: Vec<MwhvcNode>,
    /// The vertices settled in the cover.
    pub(crate) cover: Cover,
    /// One level per instance vertex: the seeded level, or the climbed
    /// one for vertices settled outside the cover.
    pub(crate) levels: Vec<u32>,
}

impl WarmNetwork {
    /// Runs the settle pass over `g` and builds the running sub-network
    /// (see [`build_network_warm`]); `levels` is the seeded level vector
    /// and `sums` each vertex's [`seeded_sum`] over `duals`.
    pub(crate) fn settle(
        g: &Hypergraph,
        config: &MwhvcConfig,
        duals: &[f64],
        mut levels: Vec<u32>,
        sums: &[f64],
    ) -> Self {
        assert_eq!(duals.len(), g.m(), "one seeded dual per hyperedge");
        assert_eq!(levels.len(), g.n(), "one seeded level per vertex");
        assert_eq!(sums.len(), g.n(), "one seeded sum per vertex");
        let (b, z, alpha) = network_params(g, config);
        let mut cover = Cover::empty(g.n());
        // The cover as flags, for the edge pass to read.
        let mut tight = Vec::with_capacity(g.n());
        for (v, &sum) in g.vertices().zip(sums) {
            let joins = is_tight(sum, g.weight(v), b) && g.degree(v) > 0;
            if joins {
                cover.insert(v);
            }
            tight.push(joins);
        }
        // The members of the uncovered edges are the running vertices.
        let mut edges = Vec::new();
        let mut covered = Vec::with_capacity(g.m());
        let mut runs = vec![false; g.n()];
        for e in g.edges() {
            // A fold, not `any`: which member joined first is unpredictable,
            // and an early exit would mispredict on most edges.
            let is_covered = g.edge(e).iter().fold(false, |c, v| c | tight[v.index()]);
            if !is_covered {
                edges.push(e);
                for v in g.edge(e) {
                    runs[v.index()] = true;
                }
            }
            covered.push(is_covered);
        }
        // `NOT_RUNNING` marks settled vertices in the instance-to-sub map.
        const NOT_RUNNING: u32 = u32::MAX;
        let mut sub_id = vec![NOT_RUNNING; g.n()];
        let mut vertices = Vec::new();
        let mut nodes = Vec::new();
        for v in g.vertices() {
            let level = levels[v.index()];
            if !runs[v.index()] {
                if !tight[v.index()] && g.degree(v) > 0 {
                    // Every edge is covered by another member.
                    levels[v.index()] = climb_levels(sums[v.index()], g.weight(v), level, z);
                }
                continue;
            }
            sub_id[v.index()] = vertices.len() as u32;
            vertices.push(v);
            let incident = g.incident_edges(v).iter();
            let live = incident.clone().filter(|e| !covered[e.index()]);
            let dead = incident.filter(|e| covered[e.index()]);
            let ports = live
                .map(|e| (duals[e.index()], true))
                .chain(dead.map(|e| (duals[e.index()], false)));
            nodes.push(MwhvcNode(Inner::Vertex(VertexNode::new_warm(
                g.weight(v),
                b,
                z,
                config.variant(),
                level,
                sums[v.index()],
                g.degree(v),
                ports,
            ))));
        }
        let mut builder = HypergraphBuilder::with_capacity(vertices.len(), edges.len());
        for &v in &vertices {
            builder.add_vertex(g.weight(v));
        }
        for &e in &edges {
            // invariant: every member of an uncovered edge runs (the
            // running set is closed), so each maps to a sub-vertex.
            let members = g
                .edge(e)
                .iter()
                .map(|v| VertexId::from_raw(sub_id[v.index()]));
            builder
                .add_edge(members)
                .expect("members of a running edge are running vertices");
            nodes.push(MwhvcNode(Inner::Edge(EdgeNode::new_warm(
                g.edge_size(e),
                alpha,
            ))));
        }
        // invariant: sub-vertices keep their positive instance weights.
        let sub = builder
            .build()
            .expect("sub-vertices keep their instance weights");
        Self {
            sub,
            vertices,
            edges,
            nodes,
            cover,
            levels,
        }
    }

    /// Renames the links a simulator error names from the running
    /// sub-network's ids to the instance network's: vertex `v` is node
    /// `v`, edge `e` node `n + e`, and a vertex port is its place in
    /// `E(v)`.
    pub(crate) fn instance_error(&self, g: &Hypergraph, err: SimError) -> SimError {
        match err {
            SimError::DuplicateSend {
                round,
                receiver,
                port,
            } => {
                let (receiver, port) = self.instance_link(g, receiver, port);
                SimError::DuplicateSend {
                    round,
                    receiver,
                    port,
                }
            }
            SimError::BudgetExceeded {
                round,
                receiver,
                port,
                bits,
                budget,
            } => {
                let (receiver, port) = self.instance_link(g, receiver, port);
                SimError::BudgetExceeded {
                    round,
                    receiver,
                    port,
                    bits,
                    budget,
                }
            }
            other => other,
        }
    }

    /// The instance network's node and port for port `port` of
    /// sub-network node `node`. An edge's ports are its members in both
    /// networks.
    fn instance_link(&self, g: &Hypergraph, node: usize, port: usize) -> (usize, usize) {
        let Some(&v) = self.vertices.get(node) else {
            let e = self.edges[node - self.vertices.len()];
            return (g.n() + e.index(), port);
        };
        let e = self.edges[self.sub.incident_edges(VertexId::new(node))[port].index()];
        let port = g.incident_edges(v).iter().position(|&x| x == e);
        // invariant: a running vertex's edges in the sub-network are
        // among its edges in the instance.
        (
            v.index(),
            port.expect("a sub-network edge is an instance edge"),
        )
    }
}

/// The warm network with every node running and every port live, in
/// `E(v)` order: [`build_network_warm`] without its settle pass.
#[cfg(test)]
pub(crate) fn build_network_warm_unsettled(
    g: &Hypergraph,
    config: &MwhvcConfig,
    duals: &[f64],
    levels: &[u32],
) -> (Topology, Vec<MwhvcNode>) {
    assert_eq!(duals.len(), g.m(), "one seeded dual per hyperedge");
    assert_eq!(levels.len(), g.n(), "one seeded level per vertex");
    let topo = Topology::bipartite_incidence(g);
    let (b, z, alpha) = network_params(g, config);
    let mut nodes = Vec::with_capacity(g.n() + g.m());
    for v in g.vertices() {
        let seeded = g.incident_edges(v).iter().map(|e| (duals[e.index()], true));
        nodes.push(MwhvcNode(Inner::Vertex(VertexNode::new_warm(
            g.weight(v),
            b,
            z,
            config.variant(),
            levels[v.index()],
            seeded_sum(g, duals, v),
            g.degree(v),
            seeded,
        ))));
    }
    for e in g.edges() {
        nodes.push(MwhvcNode(Inner::Edge(EdgeNode::new_warm(
            g.edge_size(e),
            alpha,
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
        assert_eq!(nodes[0].in_cover(), Some(false));
        assert_eq!(nodes[4].in_cover(), None);
        assert_eq!(nodes[0].level(), Some(0));
    }
}
