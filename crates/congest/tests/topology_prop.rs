//! Property tests for the simulator substrate: arbitrary topologies keep
//! port reciprocity and slot-arena consistency, and a multi-chunk
//! simulator is bit-identical to a single-chunk one under arbitrary
//! protocols-with-state. Runs seeded random cases (the offline equivalent
//! of the previous proptest strategies).

use dcover_congest::{Ctx, PartitionPolicy, Process, Simulator, Status, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random link list over n ∈ [2, 30] nodes (self-loops filtered;
/// parallel links allowed).
fn random_links(rng: &mut StdRng) -> (usize, Vec<(usize, usize)>) {
    let n = rng.gen_range(2usize..=30);
    let tries = rng.gen_range(0usize..60);
    let links: Vec<(usize, usize)> = (0..tries)
        .map(|_| (rng.gen_range(0usize..n), rng.gen_range(0usize..n)))
        .filter(|(a, b)| a != b)
        .collect();
    (n, links)
}

/// A stateful gossip protocol whose behaviour depends on inbox contents,
/// node id, and round parity — enough entropy to catch scheduler bugs.
#[derive(Clone)]
struct Mixer {
    acc: u64,
    ttl: u32,
}

impl Process for Mixer {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        for item in ctx.inbox() {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(item.msg ^ (item.port as u64) << 7);
        }
        if self.ttl == 0 {
            return Status::Halted;
        }
        self.ttl -= 1;
        if ctx.round() % 2 == ctx.node() as u64 % 2 {
            // Send a state-dependent value on a state-dependent port.
            if ctx.degree() > 0 {
                let port = (self.acc as usize) % ctx.degree();
                ctx.send(port, self.acc % 1_000_003);
            }
        } else {
            ctx.broadcast(ctx.node() as u64 + ctx.round());
        }
        Status::Running
    }
}

#[test]
fn reciprocity_holds() {
    let mut rng = StdRng::seed_from_u64(0x0707);
    for case in 0..64 {
        let (n, links) = random_links(&mut rng);
        let t = Topology::from_links(n, &links);
        assert_eq!(t.num_links(), links.len(), "case {case}");
        assert_eq!(t.total_ports(), 2 * links.len(), "case {case}");
        for u in 0..t.len() {
            for p in 0..t.degree(u) {
                let (v, q) = t.peer(u, p);
                assert_eq!(t.peer(v, q), (u, p), "case {case} at ({u},{p})");
            }
        }
    }
}

#[test]
fn slot_arena_is_consistent() {
    let mut rng = StdRng::seed_from_u64(0x51_07);
    for case in 0..64 {
        let (n, links) = random_links(&mut rng);
        let t = Topology::from_links(n, &links);
        let mut seen = vec![false; t.total_ports()];
        for u in 0..t.len() {
            let range = t.slot_range(u);
            assert_eq!(range.len(), t.degree(u), "case {case}");
            for p in 0..t.degree(u) {
                let slot = t.slot_of(u, p);
                assert!(range.contains(&slot), "case {case}");
                assert!(!seen[slot], "case {case}: slot reused");
                seen[slot] = true;
                assert_eq!(t.slot_owner(slot), (u, p), "case {case}");
                // The reciprocal of the reciprocal is the slot itself.
                let (v, q) = t.peer(u, p);
                assert_eq!(t.reciprocal_slot(u, p), t.slot_of(v, q), "case {case}");
                assert_eq!(t.reciprocal_slot(v, q), slot, "case {case}");
            }
        }
        assert!(seen.iter().all(|&s| s), "case {case}: arena has holes");
    }
}

#[test]
fn parallel_equals_sequential() {
    let mut rng = StdRng::seed_from_u64(0xe9_u64 ^ 0xbeef);
    for case in 0..64 {
        let (n, links) = random_links(&mut rng);
        let ttl = rng.gen_range(1u32..8);
        let threads = rng.gen_range(1usize..6);
        let make = || {
            (0..n)
                .map(|i| Mixer { acc: i as u64, ttl })
                .collect::<Vec<_>>()
        };
        let mut seq = Simulator::new(Topology::from_links(n, &links), make()).with_trace(true);
        let seq_report = seq.run(10 + u64::from(ttl)).unwrap();
        let mut par = Simulator::with_partition(
            Topology::from_links(n, &links),
            make(),
            threads,
            PartitionPolicy::Contiguous,
        )
        .with_trace(true);
        let par_report = par.run(10 + u64::from(ttl)).unwrap();
        assert_eq!(seq_report, par_report, "case {case} threads {threads}");
        for i in 0..n {
            assert_eq!(
                seq.node(i).acc,
                par.node(i).acc,
                "case {case} node {i} state"
            );
        }
    }
}
