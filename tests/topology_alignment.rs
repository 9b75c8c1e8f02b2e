//! Port alignment of the bipartite communication network.
//!
//! `Topology::bipartite_incidence` promises that vertex `v`'s port `i` is
//! its `i`-th incident edge and edge `e`'s port `j` is its `j`-th member,
//! with every link's two endpoints pointing at each other. The MWHVC
//! vertex program indexes its per-port state by that port, so a slip here
//! would silently pair a replica with the wrong edge. These checks run the
//! promise over every generator family, over isolated vertices, and over a
//! revised instance whose inserted edges list their members out of vertex
//! order.

use distributed_covering::congest::Topology;
use distributed_covering::hypergraph::{from_edge_lists, Hypergraph, InstanceDelta, VertexId};

mod common;
use common::instances;

fn assert_aligned(g: &Hypergraph, label: &str) {
    let t = Topology::bipartite_incidence(g);
    let n = g.n();
    assert_eq!(t.len(), n + g.m(), "{label}: node count");
    assert_eq!(t.num_links(), g.incidence_size(), "{label}: link count");
    for e in g.edges() {
        let node = n + e.index();
        assert_eq!(t.degree(node), g.edge_size(e), "{label}: degree of {e}");
        for (j, &v) in g.edge(e).iter().enumerate() {
            assert_eq!(t.peer(node, j).0, v.index(), "{label}: edge {e} port {j}");
        }
    }
    for v in g.vertices() {
        assert_eq!(t.degree(v.index()), g.degree(v), "{label}: degree of {v}");
        for (i, &e) in g.incident_edges(v).iter().enumerate() {
            assert_eq!(
                t.peer(v.index(), i).0,
                n + e.index(),
                "{label}: vertex {v} port {i}"
            );
        }
    }
    for u in 0..t.len() {
        for p in 0..t.degree(u) {
            let (peer, peer_port) = t.peer(u, p);
            assert_eq!(
                t.peer(peer, peer_port),
                (u, p),
                "{label}: reciprocity at ({u}, {p})"
            );
        }
    }
}

#[test]
fn ports_align_on_every_generator_family() {
    for (label, g) in instances() {
        assert_aligned(&g, &label);
    }
}

#[test]
fn ports_align_around_isolated_vertices() {
    // Vertices 0, 2, 4 and 6 (the first and the last among them) have no
    // edge; members are listed out of vertex order.
    let g = from_edge_lists(7, &[&[3, 1], &[5, 3, 1], &[5]]).unwrap();
    assert_aligned(&g, "isolated");
    let t = Topology::bipartite_incidence(&g);
    for v in [0, 2, 4, 6] {
        assert_eq!(t.degree(v), 0, "vertex {v} is isolated");
    }
}

#[test]
fn ports_align_after_a_revision() {
    let (label, base) = instances()
        .into_iter()
        .find(|(label, _)| label == "random_mixed_rank")
        .expect("the instance list has a mixed-rank family");
    let n = base.n();
    let delta = InstanceDelta {
        remove_edges: base.edges().filter(|e| e.index() % 5 == 2).collect(),
        add_edges: vec![
            vec![VertexId::new(n - 1), VertexId::new(7), VertexId::new(0)],
            vec![VertexId::new(12), VertexId::new(3)],
            vec![VertexId::new(20)],
        ],
        set_weights: vec![(VertexId::new(3), 77), (VertexId::new(n - 1), 1)],
    };
    let out = delta.apply(&base).unwrap();
    assert!(out.predecessor.iter().any(Option::is_none), "inserts edges");
    assert!(out.survivor.iter().any(Option::is_none), "removes edges");
    assert_aligned(&out.graph, &format!("{label} revised"));
}
