//! Communication-cost evaluation of an assignment.
//!
//! The paper counts communication at *CNN-link* granularity: every edge
//! of the unit graph whose endpoints live on different nodes costs one
//! message per pass (that is why the heuristic "maximize\[s\] the
//! correspondence of CNN links and WSN links" — a CNN link mapped onto a
//! WSN link, or better onto a single node, is cheap). With this counting
//! the centralized baseline is brutally expensive: the sink receives one
//! copy of each input value *per consuming unit*, which is exactly the
//! "peak traffic concentrated onto a single node" the paper's MicroDeep
//! reduces to ~13 %.
//!
//! [`CostModel::forward_cost_cached`] additionally implements node-level
//! value caching (each value crosses to a given consumer node once, no
//! matter how many of its units read it) — a natural systems optimization
//! ablated in the benches.

use crate::assignment::{producer_consumers, Assignment};
use std::collections::BTreeSet;
use zeiot_net::routing::RoutingTable;
use zeiot_net::topology::Topology;
use zeiot_net::traffic::TrafficLedger;
use zeiot_nn::topology::UnitGraph;

/// Evaluates per-node communication costs of assignments over a fixed
/// topology. See the crate-level example.
#[derive(Debug)]
pub struct CostModel {
    routes: RoutingTable,
    node_count: usize,
}

impl CostModel {
    /// Builds the cost model (computes all-pairs routes once).
    pub fn new(topo: &Topology) -> Self {
        Self {
            routes: RoutingTable::shortest_paths(topo),
            node_count: topo.len(),
        }
    }

    /// Traffic of one forward pass at CNN-link granularity (the paper's
    /// counting): each dependency edge whose producer and consumer live
    /// on different nodes costs one message over the mesh route.
    pub fn forward_cost(&self, graph: &UnitGraph, assignment: &Assignment) -> TrafficLedger {
        self.forward_traffic(graph, assignment, false)
    }

    /// Forward-pass traffic with node-level value caching: a producing
    /// node sends each value at most once per consumer *node* (ablation:
    /// how much a value cache would save each strategy).
    pub fn forward_cost_cached(&self, graph: &UnitGraph, assignment: &Assignment) -> TrafficLedger {
        self.forward_traffic(graph, assignment, true)
    }

    /// The single forward-pass edge traversal behind [`Self::forward_cost`]
    /// and [`Self::forward_cost_cached`]: walk every value-producing unit
    /// and its consumers exactly once, counting either one message per
    /// cross-node dependency edge (`cache_per_node == false`, the paper's
    /// counting) or one message per distinct consumer node
    /// (`cache_per_node == true`, the value-cache ablation). Sharing the
    /// traversal keeps the two costings from ever drifting apart in which
    /// edges they see — `forward_implementations_agree` locks in the
    /// equality against an independent consumer-side reference.
    fn forward_traffic(
        &self,
        graph: &UnitGraph,
        assignment: &Assignment,
        cache_per_node: bool,
    ) -> TrafficLedger {
        let consumers = producer_consumers(graph);
        let mut ledger = TrafficLedger::new(self.node_count);
        for (l, layer) in consumers.iter().enumerate() {
            for (p, unit_consumers) in layer.iter().enumerate() {
                let src = assignment.host_of(l, p);
                if cache_per_node {
                    let dest_nodes: BTreeSet<_> = unit_consumers
                        .iter()
                        .map(|&u| assignment.host_of(l + 1, u))
                        .filter(|&dst| dst != src)
                        .collect();
                    for dst in dest_nodes {
                        ledger.send(&self.routes, src, dst, 1);
                    }
                } else {
                    for &u in unit_consumers {
                        let dst = assignment.host_of(l + 1, u);
                        if dst != src {
                            ledger.send(&self.routes, src, dst, 1);
                        }
                    }
                }
            }
        }
        ledger
    }

    /// Traffic of one backward pass: one error term per cross-node
    /// dependency edge, flowing consumer → producer.
    pub fn backward_cost(&self, graph: &UnitGraph, assignment: &Assignment) -> TrafficLedger {
        let mut ledger = TrafficLedger::new(self.node_count);
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                let src = assignment.host_of(l, u);
                for &d in graph.dependencies(l, u) {
                    let dst = assignment.host_of(l - 1, d);
                    if dst != src {
                        ledger.send(&self.routes, src, dst, 1);
                    }
                }
            }
        }
        ledger
    }

    /// Ratio of an assignment's maximal per-node cost to a baseline's —
    /// the paper reports MicroDeep at "just 13 %" of the standard
    /// version's peak traffic in the temperature experiment.
    ///
    /// Returns `None` when the baseline generates no traffic at all (a
    /// single-node topology hosts every unit locally), since the ratio is
    /// undefined there — the old behaviour of reporting `0.0` silently
    /// claimed a free assignment against a free baseline.
    pub fn peak_cost_ratio(
        &self,
        graph: &UnitGraph,
        assignment: &Assignment,
        baseline: &Assignment,
    ) -> Option<f64> {
        let a = self.forward_cost(graph, assignment).max_cost();
        let b = self.forward_cost(graph, baseline).max_cost();
        if b == 0 {
            None
        } else {
            Some(a as f64 / b as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CnnConfig;
    use zeiot_core::id::NodeId;

    fn setup() -> (UnitGraph, Topology) {
        let config = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).unwrap();
        (
            config.unit_graph().unwrap(),
            Topology::grid(4, 4, 2.0, 3.0).unwrap(),
        )
    }

    #[test]
    fn centralized_concentrates_cost_on_sink() {
        let (graph, topo) = setup();
        let a = Assignment::centralized(&graph, &topo);
        let cost = CostModel::new(&topo).forward_cost(&graph, &a);
        let sink_cost = cost.cost(NodeId::new(0));
        assert_eq!(cost.max_cost(), sink_cost);
        assert!(sink_cost > 0);
    }

    #[test]
    fn balanced_reduces_peak_cost() {
        let (graph, topo) = setup();
        let model = CostModel::new(&topo);
        let central = Assignment::centralized(&graph, &topo);
        let balanced = Assignment::balanced_correspondence(&graph, &topo);
        let c_central = model.forward_cost(&graph, &central);
        let c_balanced = model.forward_cost(&graph, &balanced);
        assert!(
            c_balanced.max_cost() < c_central.max_cost(),
            "balanced {} vs central {}",
            c_balanced.max_cost(),
            c_central.max_cost()
        );
    }

    #[test]
    fn peak_cost_ratio_is_fractional() {
        let (graph, topo) = setup();
        let model = CostModel::new(&topo);
        let central = Assignment::centralized(&graph, &topo);
        let balanced = Assignment::balanced_correspondence(&graph, &topo);
        let ratio = model
            .peak_cost_ratio(&graph, &balanced, &central)
            .expect("centralized baseline has traffic");
        assert!(ratio > 0.0 && ratio < 1.0, "ratio={ratio}");
    }

    #[test]
    fn peak_cost_ratio_on_single_node_topology_is_none() {
        // Regression: one node hosts everything, so neither assignment
        // sends a single message and the ratio used to come back as a
        // misleading 0.0. It is undefined, and now says so.
        let config = CnnConfig::new(1, 6, 6, 2, 3, 2, 8, 2).unwrap();
        let graph = config.unit_graph().unwrap();
        let topo = Topology::grid(1, 1, 2.0, 3.0).unwrap();
        let model = CostModel::new(&topo);
        let central = Assignment::centralized(&graph, &topo);
        let balanced = Assignment::balanced_correspondence(&graph, &topo);
        assert_eq!(model.forward_cost(&graph, &central).max_cost(), 0);
        assert_eq!(model.peak_cost_ratio(&graph, &balanced, &central), None);
    }

    #[test]
    fn per_edge_counting_charges_every_cross_node_edge() {
        // Centralized sink: every conv unit reads its inputs from the
        // sensors, one message per edge (no caching).
        let (graph, topo) = setup();
        let a = Assignment::centralized(&graph, &topo);
        let cost = CostModel::new(&topo).forward_cost(&graph, &a);
        let expected: u64 = (0..graph.units_in_layer(1))
            .map(|u| {
                graph
                    .dependencies(1, u)
                    .iter()
                    .filter(|&&d| a.host_of(0, d) != NodeId::new(0))
                    .count() as u64
            })
            .sum();
        assert_eq!(cost.rx(NodeId::new(0)), expected);
        assert!(expected > 500, "expected large sink load, got {expected}");
    }

    /// Dependency-side reference costing: one message per cross-node
    /// dependency edge, walked consumer-first — the pre-refactor
    /// `forward_cost` traversal, kept as an independent oracle.
    fn forward_cost_reference(
        model: &CostModel,
        graph: &UnitGraph,
        assignment: &Assignment,
    ) -> TrafficLedger {
        let mut ledger = TrafficLedger::new(model.node_count);
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                let dst = assignment.host_of(l, u);
                for &d in graph.dependencies(l, u) {
                    let src = assignment.host_of(l - 1, d);
                    if src != dst {
                        ledger.send(&model.routes, src, dst, 1);
                    }
                }
            }
        }
        ledger
    }

    #[test]
    fn forward_implementations_agree() {
        // The unified producer-side traversal must charge exactly the
        // edges the consumer-side reference charges — on structured
        // strategies and on fully randomized assignments.
        let (graph, topo) = setup();
        let model = CostModel::new(&topo);
        let mut rng = zeiot_core::rng::SeedRng::new(4242);
        let mut assignments = vec![
            Assignment::centralized(&graph, &topo),
            Assignment::grid_projection(&graph, &topo),
            Assignment::balanced_correspondence(&graph, &topo),
        ];
        for _ in 0..10 {
            let mut random = Assignment::centralized(&graph, &topo);
            for l in 1..graph.layer_count() {
                for u in 0..graph.units_in_layer(l) {
                    random.set_host(l, u, NodeId::new(rng.below(topo.len()) as u32));
                }
            }
            assignments.push(random);
        }
        for a in &assignments {
            assert_eq!(
                model.forward_cost(&graph, a),
                forward_cost_reference(&model, &graph, a),
            );
            // The cached path walks the same edges; deduplication can
            // only remove sends, never add or reroute them.
            let cached = model.forward_cost_cached(&graph, a);
            let plain = model.forward_cost(&graph, a);
            assert!(cached.total_cost() <= plain.total_cost());
        }
    }

    #[test]
    fn caching_never_costs_more() {
        let (graph, topo) = setup();
        let model = CostModel::new(&topo);
        for a in [
            Assignment::centralized(&graph, &topo),
            Assignment::grid_projection(&graph, &topo),
            Assignment::balanced_correspondence(&graph, &topo),
        ] {
            let plain = model.forward_cost(&graph, &a);
            let cached = model.forward_cost_cached(&graph, &a);
            assert!(cached.total_cost() <= plain.total_cost());
            assert!(cached.max_cost() <= plain.max_cost());
        }
    }

    #[test]
    fn caching_helps_centralized_most() {
        let (graph, topo) = setup();
        let model = CostModel::new(&topo);
        let central = Assignment::centralized(&graph, &topo);
        let plain = model.forward_cost(&graph, &central).max_cost() as f64;
        let cached = model.forward_cost_cached(&graph, &central).max_cost() as f64;
        // Each input feeds up to 9 conv units: caching saves ~9x.
        assert!(cached < plain / 4.0, "plain={plain} cached={cached}");
    }

    #[test]
    fn colocated_units_communicate_free() {
        let (graph, topo) = setup();
        let a = Assignment::centralized_at(&graph, &topo, NodeId::new(5));
        let cost = CostModel::new(&topo).forward_cost(&graph, &a);
        // Node 5 transmits nothing: everything it produces is consumed
        // locally.
        assert_eq!(cost.tx(NodeId::new(5)), 0);
        assert!(cost.rx(NodeId::new(5)) > 0);
    }

    #[test]
    fn backward_cost_mirrors_forward() {
        let (graph, topo) = setup();
        let model = CostModel::new(&topo);
        let a = Assignment::balanced_correspondence(&graph, &topo);
        let fwd = model.forward_cost(&graph, &a);
        let bwd = model.backward_cost(&graph, &a);
        // Per-edge counting is symmetric in total: hop distances are
        // symmetric even though BFS relay choices may differ per
        // direction.
        assert_eq!(fwd.total_cost(), bwd.total_cost());
    }
}
