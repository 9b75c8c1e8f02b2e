//! Golden results: the exact output of the solver on fixed seeded inputs,
//! pinned as FNV-1a digests.
//!
//! Each digest covers everything a result promises bit for bit: the cover,
//! every dual as its `f64` bit pattern, the levels, and the communication
//! report (`rounds`, `total_messages`, `total_bits`, `max_link_bits`). The
//! inputs are the shared `common::instances` (one small instance per
//! generator family, random uniform at three ranks) solved cold at two
//! values of ε, plus a chain of three warm-started revisions.
//!
//! A change to memory layout, network construction or scheduling must leave
//! every digest alone. Only a deliberate change to the protocol's arithmetic
//! or message vocabulary may move them; such a change refreshes the tables
//! below (the failure message prints the new ones) in a reviewed diff.

use distributed_covering::core::{CoverResult, MwhvcSolver, WarmState};
use distributed_covering::hypergraph::{Hypergraph, InstanceDelta, VertexId};

mod common;
use common::instances;

/// `(label, digest at ε = 0.5, digest at ε = 0.1)` per instance, in the
/// order of `common::instances`.
const COLD: [(&str, u64, u64); 15] = [
    ("random_uniform_f2", 0xdb920aa470a42535, 0x8ef458a2135e3772),
    ("random_uniform_f3", 0x6413030ad26b4e08, 0x0e61fcc25becc9fb),
    ("random_uniform_f5", 0x2de906d9294f9006, 0x2d54559321361eaf),
    ("random_mixed_rank", 0xe897bb3c88c4fc2b, 0x0901cc5da5c893a6),
    ("planted_cover", 0x9acfd0ee90a10e0c, 0x9acfd0ee90a10e0c),
    (
        "preferential_attachment",
        0x15e9a05bb5c52667,
        0xce692c7672f9b36c,
    ),
    ("calibrated_degree", 0xad921d0c9d166c91, 0x6bea0bbcaae6c288),
    ("geometric_coverage", 0x87dd74f564c4c6f8, 0xb4b4e6edb6f43fdf),
    ("structured_star", 0x42a792b002458f26, 0x42a792b002458f26),
    ("structured_clique", 0x8747627ccc03d2cc, 0x8747627ccc03d2cc),
    ("structured_path", 0x4c662d350404cdc9, 0x4c662d350404cdc9),
    ("structured_cycle", 0x59d486fb4a6e8ee8, 0x59d486fb4a6e8ee8),
    (
        "structured_sunflower",
        0xfc8fa9aef7f4e300,
        0xfc8fa9aef7f4e300,
    ),
    (
        "structured_f_partite",
        0x25916d4f163b587e,
        0x25916d4f163b587e,
    ),
    (
        "structured_hyper_star",
        0xc02056483c27472c,
        0xc02056483c27472c,
    ),
];

/// The instance the warm chain starts from.
const WARM_BASE: &str = "planted_cover";
/// Digests of its three warm-started revisions at ε = 0.5.
const WARM: [u64; 3] = [0x6a6c90bd143ac63d, 0x3a5d71e6939d1ca0, 0xde155d8461976975];

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(r: &CoverResult) -> u64 {
    let mut h = Fnv1a::new();
    h.word(r.cover.len() as u64);
    for v in r.cover.iter() {
        h.word(v.index() as u64);
    }
    h.word(r.duals.len() as u64);
    for d in &r.duals {
        h.word(d.to_bits());
    }
    h.word(r.levels.len() as u64);
    for &l in &r.levels {
        h.word(u64::from(l));
    }
    h.word(r.report.rounds);
    h.word(r.report.total_messages);
    h.word(r.report.total_bits);
    h.word(r.report.max_link_bits);
    h.0
}

fn solve(g: &Hypergraph, eps: f64, label: &str) -> CoverResult {
    MwhvcSolver::with_epsilon(eps)
        .unwrap()
        .solve(g)
        .unwrap_or_else(|e| panic!("{label} at eps {eps}: {e}"))
}

/// Revision `k` of `g`: removes every ninth edge (offset `k`), inserts two
/// edges and re-weights two vertices, all at positions derived from `k`.
fn revision(g: &Hypergraph, k: usize) -> InstanceDelta {
    let n = g.n();
    let v = |i: usize| VertexId::new(i % n);
    InstanceDelta {
        remove_edges: g.edges().filter(|e| e.index() % 9 == k).collect(),
        add_edges: vec![
            vec![v(7 * k), v(7 * k + 3), v(7 * k + 11)],
            vec![v(5 * k + 1), v(5 * k + 2)],
        ],
        set_weights: vec![
            (v(13 * k), 1 + 17 * k as u64),
            (v(13 * k + 5), 40 + k as u64),
        ],
    }
}

#[test]
fn cold_solves_match_golden_digests() {
    let mut actual = Vec::new();
    for (label, g) in instances() {
        let half = digest(&solve(&g, 0.5, &label));
        let tenth = digest(&solve(&g, 0.1, &label));
        actual.push((label, half, tenth));
    }
    let pinned: Vec<(String, u64, u64)> = COLD
        .iter()
        .map(|&(l, a, b)| (l.to_string(), a, b))
        .collect();
    if actual != pinned {
        let table: String = actual
            .iter()
            .map(|(l, a, b)| format!("    (\"{l}\", {a:#018x}, {b:#018x}),\n"))
            .collect();
        panic!("cold results moved; only a deliberate protocol change may refresh COLD:\n{table}");
    }
}

#[test]
fn warm_chain_matches_golden_digests() {
    let (_, mut g) = instances()
        .into_iter()
        .find(|(label, _)| label == WARM_BASE)
        .expect("the warm base is one of the instances");
    let solver = MwhvcSolver::with_epsilon(0.5).unwrap();
    let mut prev = solver.solve(&g).unwrap();
    let mut actual = [0u64; 3];
    for (k, slot) in actual.iter_mut().enumerate() {
        let out = revision(&g, k + 1).apply(&g).unwrap();
        assert!(out.predecessor.iter().any(Option::is_none), "inserts edges");
        assert!(out.survivor.iter().any(Option::is_none), "removes edges");
        let warm = WarmState::for_delta(&prev, &out);
        prev = solver.solve_warm(&out.graph, &warm).unwrap();
        assert!(prev.cover.is_cover_of(&out.graph));
        *slot = digest(&prev);
        g = out.graph;
    }
    assert_eq!(
        actual,
        WARM,
        "warm results moved; only a deliberate protocol change may refresh WARM: {}",
        actual.map(|d| format!("{d:#018x}")).join(", ")
    );
}
