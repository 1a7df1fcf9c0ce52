//! # bgpscale-bench
//!
//! Criterion benchmarks for the `bgpscale` workspace. The library part is
//! a small toolbox shared by the bench targets; the measurements live in
//! `benches/`:
//!
//! * `substrates` — microbenches of the building blocks: event queue,
//!   PRNG, decision process, topology generation, graph metrics.
//! * `ablations` — the design-choice ablations called out in DESIGN.md:
//!   MRAI value sweep, sender-side vs receiver-side loop detection,
//!   uniform vs constant service times, WRATE vs NO-WRATE.

#![forbid(unsafe_code)]

pub mod harness;

use bgpscale_bgp::{BgpConfig, Prefix};
use bgpscale_core::cevent::run_c_event;
use bgpscale_core::Simulator;
use bgpscale_topology::{generate, AsGraph, AsId, GrowthScenario, NodeType};

/// A reusable benchmark fixture: topology plus a C-type originator.
pub struct Fixture {
    /// The generated topology.
    pub graph: AsGraph,
    /// A customer-stub event originator.
    pub origin: AsId,
}

/// Builds a Baseline fixture of size `n`.
pub fn fixture(n: usize, seed: u64) -> Fixture {
    let graph = generate(GrowthScenario::Baseline, n, seed);
    let origin = graph
        .node_ids()
        .find(|&id| graph.node_type(id) == NodeType::C)
        .expect("baseline topologies contain C nodes");
    Fixture { graph, origin }
}

/// Runs one complete C-event on a fresh simulator and returns the total
/// churn (the value ablation benches care about).
pub fn one_c_event(fix: &Fixture, cfg: BgpConfig, seed: u64) -> u64 {
    let mut sim = Simulator::new(fix.graph.clone(), cfg, seed);
    run_c_event(&mut sim, fix.origin, Prefix(0))
        .expect("C-event converges")
        .total_updates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_and_event_helper_work() {
        let fix = fixture(150, 1);
        assert_eq!(fix.graph.len(), 150);
        let updates = one_c_event(&fix, BgpConfig::default(), 2);
        assert!(updates > 0);
    }
}
