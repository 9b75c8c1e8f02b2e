//! Drive the CONGEST simulator round by round and watch the protocol talk:
//! per-round message counts, bandwidth, and the per-link bit maximum that
//! the CONGEST model bounds by O(log n).
//!
//! ```sh
//! cargo run --example congest_trace
//! ```

use distributed_covering::congest::{BitBudget, Simulator};
use distributed_covering::core::{build_network, MwhvcConfig};
use distributed_covering::hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = random_uniform(
        &RandomUniform {
            n: 120,
            m: 260,
            rank: 3,
            weights: WeightDist::Uniform { min: 1, max: 500 },
        },
        &mut StdRng::seed_from_u64(99),
    );
    let cfg = MwhvcConfig::new(0.5)?;
    let (topo, nodes) = build_network(&g, &cfg);
    let network_nodes = topo.len();
    let budget = BitBudget::congest(network_nodes, 32);
    println!(
        "communication network: {} nodes ({} vertices + {} edges), {} links, budget {} bits/link/round",
        network_nodes,
        g.n(),
        g.m(),
        topo.num_links(),
        budget.bits()
    );

    let mut sim = Simulator::new(topo, nodes).with_budget(budget);
    println!("\nround | phase      | active | msgs  | bits    | max link bits");
    println!("------+------------+--------+-------+---------+--------------");
    while !sim.all_halted() {
        let rm = sim.step()?;
        let phase = match rm.round {
            0 => "init v→e",
            1 => "init e→v",
            r => match (r - 2) % 4 {
                0 => "V1 level",
                1 => "E1 halve",
                2 => "V2 vote",
                _ => "E2 apply",
            },
        };
        println!(
            "{:5} | {:10} | {:6} | {:5} | {:7} | {:4}",
            rm.round, phase, rm.active_nodes, rm.messages, rm.bits, rm.max_link_bits
        );
        if rm.round > 200 {
            println!("(truncated)");
            break;
        }
    }
    let report = sim.report();
    println!(
        "\ntotal: {} rounds, {} messages, {} bits; peak link usage {} bits ≤ budget {}",
        report.rounds,
        report.total_messages,
        report.total_bits,
        report.max_link_bits,
        budget.bits()
    );

    // Extract the result from the node states, as the solver facade does.
    let in_cover = sim
        .nodes()
        .take(g.n())
        .filter(|node| node.in_cover() == Some(true))
        .count();
    println!("cover size: {in_cover} of {} vertices", g.n());
    Ok(())
}
