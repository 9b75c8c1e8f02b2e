//! Scheduler equivalence property tests: a single-chunk `Simulator` and a
//! chunked one (at 1, 2, and 8 threads, under both chunk partition
//! policies) must produce bit-identical `SimReport`s, node states, covers,
//! levels, and duals — on every generator family and on the full MWHVC
//! protocol stack. This is the determinism contract of the zero-allocation
//! round engine: node placement may change which worker steps a node and
//! which messages take the intra-chunk fast path, but never any result.

use distributed_covering::congest::{
    Ctx, PartitionPolicy, Process, SimReport, Simulator, Status, Topology,
};
use distributed_covering::core::{MwhvcConfig, MwhvcSolver};

mod common;
use common::instances;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const POLICIES: [PartitionPolicy; 2] = [PartitionPolicy::Contiguous, PartitionPolicy::Locality];

/// A deterministic stateful protocol with data-dependent fan-out, used to
/// compare raw scheduler behaviour on the bipartite incidence network.
#[derive(Clone)]
struct Churn {
    state: u64,
    ttl: u32,
}

impl Process for Churn {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        for item in ctx.inbox() {
            self.state = self
                .state
                .rotate_left(7)
                .wrapping_add(item.msg)
                .wrapping_mul(0x9E37_79B9)
                ^ item.port as u64;
        }
        if self.ttl == 0 {
            return Status::Halted;
        }
        self.ttl -= 1;
        let d = ctx.degree();
        if d > 0 {
            if self.state.is_multiple_of(3) {
                ctx.broadcast(self.state % 8191);
            } else {
                ctx.send((self.state as usize) % d, self.state % 127);
            }
        }
        Status::Running
    }
}

fn run_seq(topo: &Topology, nodes: Vec<Churn>) -> (SimReport, Vec<u64>) {
    let mut sim = Simulator::new(topo.clone(), nodes).with_trace(true);
    let report = sim.run(64).expect("terminates");
    let states = sim.nodes().map(|n| n.state).collect();
    (report, states)
}

fn run_par(
    topo: &Topology,
    nodes: Vec<Churn>,
    threads: usize,
    policy: PartitionPolicy,
) -> (SimReport, Vec<u64>) {
    let mut sim = Simulator::with_partition(topo.clone(), nodes, threads, policy).with_trace(true);
    let report = sim.run(64).expect("terminates");
    let (nodes, _) = sim.into_parts();
    let states = nodes.iter().map(|n| n.state).collect();
    (report, states)
}

fn assert_equivalent_on(topo: &Topology, label: &str) {
    let make = || -> Vec<Churn> {
        (0..topo.len())
            .map(|i| Churn {
                state: 0x51ED_u64.wrapping_mul(i as u64 + 1),
                ttl: 9,
            })
            .collect()
    };
    let (seq_report, seq_states) = run_seq(topo, make());
    for threads in THREAD_COUNTS {
        for policy in POLICIES {
            let (par_report, par_states) = run_par(topo, make(), threads, policy);
            assert_eq!(
                seq_report, par_report,
                "{label}: report at {threads} threads ({policy})"
            );
            assert_eq!(
                seq_states, par_states,
                "{label}: states at {threads} threads ({policy})"
            );
        }
    }
}

#[test]
fn raw_schedulers_agree_on_incidence_networks() {
    for (label, g) in instances() {
        let topo = Topology::bipartite_incidence(&g);
        assert_equivalent_on(&topo, &label);
    }
}

#[test]
fn mwhvc_protocol_identical_across_schedulers() {
    for (label, g) in instances() {
        let seq = MwhvcSolver::new(MwhvcConfig::new(0.5).unwrap())
            .solve(&g)
            .expect(&label);
        for policy in POLICIES {
            let solver = MwhvcSolver::new(MwhvcConfig::new(0.5).unwrap().with_partition(policy));
            for threads in THREAD_COUNTS {
                let par = solver.solve_parallel(&g, threads).expect(&label);
                assert_eq!(
                    seq.cover, par.cover,
                    "{label}: cover at {threads} threads ({policy})"
                );
                assert_eq!(
                    seq.levels, par.levels,
                    "{label}: levels at {threads} threads ({policy})"
                );
                assert_eq!(
                    seq.duals, par.duals,
                    "{label}: duals at {threads} threads ({policy})"
                );
                assert_eq!(
                    seq.report, par.report,
                    "{label}: SimReport at {threads} threads ({policy})"
                );
                assert_eq!(
                    seq.iterations, par.iterations,
                    "{label}: iterations at {threads} threads ({policy})"
                );
            }
        }
    }
}

#[test]
fn edge_case_topologies_agree() {
    // Degenerate shapes that stress chunking: a single link, a star whose
    // center dominates one chunk, and a dense clique.
    let shapes: Vec<(&str, Topology)> = vec![
        ("single_link", Topology::from_links(2, &[(0, 1)])),
        (
            "star",
            Topology::from_links(17, &(1..17).map(|i| (0usize, i)).collect::<Vec<_>>()),
        ),
        (
            "clique",
            Topology::from_links(
                12,
                &(0..12)
                    .flat_map(|i| ((i + 1)..12).map(move |j| (i, j)))
                    .collect::<Vec<_>>(),
            ),
        ),
    ];
    for (label, topo) in shapes {
        assert_equivalent_on(&topo, label);
    }
}
