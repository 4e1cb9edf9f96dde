//! Unit-to-node assignment.
//!
//! The paper compares (a) the best-accuracy standard CNN executed
//! centrally against (b) "heuristic assignment to maximize the
//! correspondence of CNN links and WSN links equalizing the number of
//! units assigned to each sensor node". Three strategies are provided:
//!
//! * [`Assignment::centralized`] — every computational unit on one sink
//!   node; sensors forward raw readings there. The communication-cost
//!   baseline (all traffic converges on the sink).
//! * [`Assignment::grid_projection`] — spatial units placed on the sensor
//!   nearest their receptive-field centroid (Fig. 8), dense units
//!   round-robin. Good locality, no load guarantee.
//! * [`Assignment::balanced_correspondence`] — the paper's heuristic:
//!   grid projection under a per-node unit cap of
//!   ⌈units/nodes⌉, followed by local-search sweeps that move units to
//!   cheaper nodes whenever it reduces their communication distance.
//!
//! Input units (sensor readings) are not assignable: each lives on the
//! sensor that produced it.

use serde::{Deserialize, Serialize};
use zeiot_core::geometry::Point2;
use zeiot_core::id::NodeId;
use zeiot_net::routing::RoutingTable;
use zeiot_net::topology::Topology;
use zeiot_nn::topology::UnitGraph;

/// A complete placement: hosts for the input layer (pinned to sensors)
/// and every computational unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Host of each input unit.
    input_host: Vec<NodeId>,
    /// `unit_host[l][u]` = host of unit `u` in computational layer `l+1`.
    unit_host: Vec<Vec<NodeId>>,
    node_count: usize,
}

impl Assignment {
    /// Pins input units to sensors: spatial inputs to the nearest node of
    /// their grid position (scaled into the topology's bounding box),
    /// non-spatial inputs round-robin.
    fn input_hosts(graph: &UnitGraph, topo: &Topology) -> Vec<NodeId> {
        let bbox = bounding_box(topo);
        (0..graph.units_in_layer(0))
            .map(|i| match graph.input_position(i) {
                Some(p) => topo.nearest_node(scale_into(p, bbox)),
                None => NodeId::new((i % topo.len()) as u32),
            })
            .collect()
    }

    /// All computational units on `sink`; inputs stay on their sensors.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is not a node of `topo`.
    pub fn centralized_at(graph: &UnitGraph, topo: &Topology, sink: NodeId) -> Self {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert!(sink.index() < topo.len(), "sink out of range");
        let unit_host = (1..graph.layer_count())
            .map(|l| vec![sink; graph.units_in_layer(l)])
            .collect();
        Self {
            input_host: Self::input_hosts(graph, topo),
            unit_host,
            node_count: topo.len(),
        }
    }

    /// [`Assignment::centralized_at`] with node 0 as the sink.
    pub fn centralized(graph: &UnitGraph, topo: &Topology) -> Self {
        Self::centralized_at(graph, topo, NodeId::new(0))
    }

    /// Spatial units to the nearest sensor, dense units round-robin — no
    /// load cap.
    pub fn grid_projection(graph: &UnitGraph, topo: &Topology) -> Self {
        let bbox = bounding_box(topo);
        let mut unit_host = Vec::with_capacity(graph.layer_count() - 1);
        let mut rr = 0usize;
        for l in 1..graph.layer_count() {
            let mut layer = Vec::with_capacity(graph.units_in_layer(l));
            for u in 0..graph.units_in_layer(l) {
                let host = match graph.position(l, u) {
                    Some(p) => topo.nearest_node(scale_into(p, bbox)),
                    None => {
                        let id = NodeId::new((rr % topo.len()) as u32);
                        rr += 1;
                        id
                    }
                };
                layer.push(host);
            }
            unit_host.push(layer);
        }
        Self {
            input_host: Self::input_hosts(graph, topo),
            unit_host,
            node_count: topo.len(),
        }
    }

    /// The paper's heuristic: locality-first placement under a per-node
    /// cap of ⌈total units / nodes⌉, then local-search sweeps that move
    /// each unit to the candidate node minimizing its total hop distance
    /// to its producers and consumers.
    pub fn balanced_correspondence(graph: &UnitGraph, topo: &Topology) -> Self {
        Self::balanced_correspondence_threaded(graph, topo, 1)
    }

    /// [`Assignment::balanced_correspondence`] with the local search's
    /// candidate scoring fanned out over `threads` workers (`0` meaning
    /// available parallelism).
    ///
    /// Only the *scoring* of move candidates runs concurrently — every
    /// candidate is evaluated against the same immutable assignment,
    /// routing table, and load vector, and the winning move is applied
    /// serially. Because serial and parallel paths score the same
    /// candidate set and select by the same total order (cost, then node
    /// id), the accepted-move sequence — and therefore the returned
    /// assignment — is identical for every thread count.
    pub fn balanced_correspondence_threaded(
        graph: &UnitGraph,
        topo: &Topology,
        threads: usize,
    ) -> Self {
        let routes = RoutingTable::shortest_paths(topo);
        let cap = graph.total_units().div_ceil(topo.len());
        let bbox = bounding_box(topo);
        let input_host = Self::input_hosts(graph, topo);
        let mut load = vec![0usize; topo.len()];
        let mut unit_host: Vec<Vec<NodeId>> = Vec::with_capacity(graph.layer_count() - 1);

        // Pass 1: locality-greedy placement under the cap. Spatial units
        // go to the sensor nearest their receptive field. Dense units
        // read the *entire* previous layer, so their message count is the
        // same wherever they live — what matters for the maximal per-node
        // cost is spreading them, hence round-robin.
        let mut rr = 0usize;
        for l in 1..graph.layer_count() {
            let mut layer = Vec::with_capacity(graph.units_in_layer(l));
            for u in 0..graph.units_in_layer(l) {
                let preferred = match graph.position(l, u) {
                    Some(p) => topo.nearest_node(scale_into(p, bbox)),
                    None => {
                        // Round-robin over nodes, skipping full ones.
                        let n = topo.len();
                        let mut chosen = NodeId::new((rr % n) as u32);
                        for probe in 0..n {
                            let candidate = NodeId::new(((rr + probe) % n) as u32);
                            // zeiot-audit: allow(p1) -- `load` has one slot per node of `topo`, every NodeId indexed here comes from `topo`, and `unit_host`/`consumers` are sized from the same `graph` whose layers and dependencies drive the loops
                            if load[candidate.index()] < cap {
                                chosen = candidate;
                                rr += probe + 1;
                                break;
                            }
                        }
                        chosen
                    }
                };
                let host = if load[preferred.index()] < cap {
                    preferred
                } else {
                    // Nearest (by hops) node with spare capacity.
                    topo.node_ids()
                        .filter(|n| load[n.index()] < cap)
                        .min_by_key(|n| {
                            (
                                routes.hop_distance(preferred, *n).unwrap_or(usize::MAX),
                                n.raw(),
                            )
                        })
                        .unwrap_or(preferred)
                };
                load[host.index()] += 1;
                layer.push(host);
            }
            unit_host.push(layer);
        }

        let mut assignment = Self {
            input_host,
            unit_host,
            node_count: topo.len(),
        };

        // Pass 2: local-search sweeps under the cap. Only spatial units
        // move — a dense unit's traffic is placement-invariant, and
        // letting it chase its producers would re-concentrate load.
        //
        // Candidate *scoring* is side-effect free (it reads the frozen
        // assignment and routing table), so it fans out across threads;
        // the *move* — the only mutation — is applied serially. Selection
        // uses a total order (cost, then node id) so the accepted-move
        // sequence does not depend on scoring order or thread count.
        let threads = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        };
        let consumers = reverse_dependencies(graph);
        for _sweep in 0..3 {
            let mut improved = false;
            for l in 1..graph.layer_count() {
                // `u` addresses four structures of different shapes;
                // iterating any one of them would obscure that.
                #[allow(clippy::needless_range_loop)]
                for u in 0..graph.units_in_layer(l) {
                    if graph.position(l, u).is_none() {
                        continue;
                    }
                    let current = assignment.unit_host[l - 1][u];
                    let cost_at = |candidate: NodeId, asg: &Assignment| -> usize {
                        let mut c = 0;
                        for &d in graph.dependencies(l, u) {
                            let src = asg.host_of(l - 1, d);
                            c += routes.hop_distance(src, candidate).unwrap_or(1_000);
                        }
                        if l + 1 < graph.layer_count() {
                            for &k in &consumers[l - 1][u] {
                                let dst = asg.unit_host[l][k];
                                c += routes.hop_distance(candidate, dst).unwrap_or(1_000);
                            }
                        }
                        c
                    };
                    let current_cost = cost_at(current, &assignment);
                    // Candidates: current node's neighbourhood plus the
                    // hosts of this unit's producers, minus full nodes.
                    let mut candidates: Vec<NodeId> = topo.neighbors(current).to_vec();
                    for &d in graph.dependencies(l, u) {
                        candidates.push(assignment.host_of(l - 1, d));
                    }
                    candidates.sort_unstable();
                    candidates.dedup();
                    candidates.retain(|&c| c != current && load[c.index()] < cap);

                    let mut costs = vec![0usize; candidates.len()];
                    if threads > 1 && candidates.len() > 1 {
                        let frozen = &assignment;
                        rayon::scope(|s| {
                            for (slot, &cand) in costs.iter_mut().zip(&candidates) {
                                let cost_at = &cost_at;
                                s.spawn(move |_| *slot = cost_at(cand, frozen));
                            }
                        });
                    } else {
                        for (slot, &cand) in costs.iter_mut().zip(&candidates) {
                            *slot = cost_at(cand, &assignment);
                        }
                    }
                    let best = candidates
                        .iter()
                        .zip(&costs)
                        .filter(|&(_, &cost)| cost < current_cost)
                        .min_by_key(|&(cand, &cost)| (cost, cand.raw()));
                    if let Some((&cand, _)) = best {
                        load[current.index()] -= 1;
                        load[cand.index()] += 1;
                        assignment.unit_host[l - 1][u] = cand;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        assignment
    }

    /// Number of nodes in the hosting topology.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Host of a unit; `layer` 0 addresses input units.
    ///
    /// # Panics
    ///
    /// Panics if the layer or unit index is out of range.
    pub fn host_of(&self, layer: usize, unit: usize) -> NodeId {
        // Runs once per message and per unit in every pass, so it keeps
        // the plain index.
        if layer == 0 {
            // zeiot-audit: allow(p1) -- documented `# Panics` precondition; the executor and cost model only ask for (layer, unit) pairs of the unit graph the placement was built for, which `validate_placement` re-checks on every model load
            self.input_host[unit]
        } else {
            self.unit_host[layer - 1][unit]
        }
    }

    /// Overrides the host of a computational unit (used by the
    /// re-placement engine).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 (input units are pinned) or out of range.
    pub fn set_host(&mut self, layer: usize, unit: usize, host: NodeId) {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert!(layer >= 1, "input units are pinned to their sensors");
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        self.unit_host[layer - 1][unit] = host;
    }

    /// Number of computational layers (excluding input).
    pub fn layer_count(&self) -> usize {
        self.unit_host.len() + 1
    }

    /// Units per computational layer: `layer_sizes()[l]` is the number of
    /// units in layer `l + 1` (what a deserialized placement is checked
    /// against the config's unit graph with).
    pub fn layer_sizes(&self) -> Vec<usize> {
        self.unit_host.iter().map(Vec::len).collect()
    }

    /// Number of input units.
    pub fn input_count(&self) -> usize {
        self.input_host.len()
    }

    /// Units hosted per node (computational units only).
    pub fn units_per_node(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.node_count];
        // Every constructor places units on nodes of its `node_count`-node
        // topology; a host outside it (only a hand-edited placement can
        // hold one) is not counted.
        for host in self.unit_host.iter().flatten() {
            if let Some(count) = counts.get_mut(host.index()) {
                *count += 1;
            }
        }
        counts
    }

    /// The largest per-node unit load.
    pub fn max_units_per_node(&self) -> usize {
        self.units_per_node().into_iter().max().unwrap_or(0)
    }

    /// Total computational units assigned.
    pub fn total_units(&self) -> usize {
        self.unit_host.iter().map(Vec::len).sum()
    }

    /// Whether the load respects `cap` everywhere.
    pub fn is_balanced(&self, cap: usize) -> bool {
        self.units_per_node().into_iter().all(|c| c <= cap)
    }

    /// Nodes hosting at least one computational unit.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.units_per_node()
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }
}

/// `consumers[l][p]` = units of layer `l+1` reading unit `p` of layer
/// `l`, for **every** value-producing layer including the input layer —
/// the edge relation [`crate::cost::CostModel`] traverses. Dependency
/// lists may contain duplicates; each occurrence is one edge here.
pub(crate) fn producer_consumers(graph: &UnitGraph) -> Vec<Vec<Vec<usize>>> {
    let mut consumers: Vec<Vec<Vec<usize>>> = (0..graph.layer_count() - 1)
        .map(|l| vec![Vec::new(); graph.units_in_layer(l)])
        .collect();
    for (l, producers) in (1..graph.layer_count()).zip(&mut consumers) {
        add_consumers(graph, l, producers);
    }
    consumers
}

/// `consumers[l][u]` = units of layer `l+2` reading unit `u` of layer
/// `l+1` (reverse of the dependency relation, computational layers only).
pub(crate) fn reverse_dependencies(graph: &UnitGraph) -> Vec<Vec<Vec<usize>>> {
    let mut consumers: Vec<Vec<Vec<usize>>> = (1..graph.layer_count())
        .map(|l| vec![Vec::new(); graph.units_in_layer(l)])
        .collect();
    for (l, producers) in (2..graph.layer_count()).zip(&mut consumers) {
        add_consumers(graph, l, producers);
    }
    consumers
}

/// Appends each unit `u` of layer `l` to `producers[d]` for every
/// dependency `d` it reads. The unit graph validates every dependency
/// against the previous layer's size, so each `d` has a slot.
fn add_consumers(graph: &UnitGraph, l: usize, producers: &mut [Vec<usize>]) {
    for u in 0..graph.units_in_layer(l) {
        for &d in graph.dependencies(l, u) {
            if let Some(readers) = producers.get_mut(d) {
                readers.push(u);
            }
        }
    }
}

fn bounding_box(topo: &Topology) -> (Point2, Point2) {
    let mut min = Point2::new(f64::INFINITY, f64::INFINITY);
    let mut max = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in topo.positions() {
        min.x = min.x.min(p.x);
        min.y = min.y.min(p.y);
        max.x = max.x.max(p.x);
        max.y = max.y.max(p.y);
    }
    (min, max)
}

fn scale_into(normalized: (f64, f64), bbox: (Point2, Point2)) -> Point2 {
    let (min, max) = bbox;
    Point2::new(
        min.x + normalized.0 * (max.x - min.x),
        min.y + normalized.1 * (max.y - min.y),
    )
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::CnnConfig;
    use proptest::prelude::*;
    use zeiot_core::rng::SeedRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn balanced_assignment_invariants_on_random_topologies(
            seed in 0u64..500,
            n in 6usize..30,
        ) {
            let config = CnnConfig::new(1, 6, 6, 2, 3, 2, 8, 2).unwrap();
            let graph = config.unit_graph().unwrap();
            let mut rng = SeedRng::new(seed);
            let topo = zeiot_net::Topology::random(n, 10.0, 10.0, 5.0, &mut rng).unwrap();
            let a = Assignment::balanced_correspondence(&graph, &topo);
            // Every unit hosted on a valid node.
            for l in 1..graph.layer_count() {
                for u in 0..graph.units_in_layer(l) {
                    prop_assert!(a.host_of(l, u).index() < topo.len());
                }
            }
            // Load cap respected.
            let cap = graph.total_units().div_ceil(topo.len());
            prop_assert!(a.is_balanced(cap), "loads {:?}", a.units_per_node());
            // Totals conserved.
            prop_assert_eq!(a.total_units(), graph.total_units());
            prop_assert_eq!(
                a.units_per_node().iter().sum::<usize>(),
                graph.total_units()
            );
        }

        #[test]
        fn input_units_are_pinned_to_their_nearest_sensor(
            seed in 0u64..500,
            n in 6usize..30,
        ) {
            let config = CnnConfig::new(1, 6, 6, 2, 3, 2, 8, 2).unwrap();
            let graph = config.unit_graph().unwrap();
            let mut rng = SeedRng::new(seed);
            let topo = zeiot_net::Topology::random(n, 10.0, 10.0, 5.0, &mut rng).unwrap();
            let bbox = bounding_box(&topo);
            // Every strategy pins inputs the same way; check one of each.
            let balanced = Assignment::balanced_correspondence(&graph, &topo);
            let central = Assignment::centralized(&graph, &topo);
            for i in 0..graph.units_in_layer(0) {
                let Some(p) = graph.input_position(i) else { continue };
                let scaled = scale_into(p, bbox);
                let host = balanced.host_of(0, i);
                prop_assert_eq!(host, central.host_of(0, i));
                let d_host = topo.position(host).distance(scaled);
                for other in topo.node_ids() {
                    prop_assert!(
                        d_host <= topo.position(other).distance(scaled) + 1e-9,
                        "input {} hosted on {:?}, but {:?} is closer",
                        i, host, other
                    );
                }
            }
        }

        #[test]
        fn balanced_max_load_never_exceeds_grid_projection_load(
            seed in 0u64..500,
            n in 6usize..30,
        ) {
            // Pigeonhole: grid projection places units with no cap, so
            // its largest per-node load is at least ⌈units/nodes⌉ — the
            // very cap the balanced heuristic enforces.
            let config = CnnConfig::new(1, 6, 6, 2, 3, 2, 8, 2).unwrap();
            let graph = config.unit_graph().unwrap();
            let mut rng = SeedRng::new(seed);
            let topo = zeiot_net::Topology::random(n, 10.0, 10.0, 5.0, &mut rng).unwrap();
            let balanced = Assignment::balanced_correspondence(&graph, &topo);
            let grid = Assignment::grid_projection(&graph, &topo);
            prop_assert!(
                balanced.max_units_per_node() <= grid.max_units_per_node(),
                "balanced load {} > grid-projection load {}",
                balanced.max_units_per_node(), grid.max_units_per_node()
            );
        }

        #[test]
        fn balanced_peak_traffic_beats_centralized_on_grid_deployments(
            rows in 3usize..8,
            cols in 3usize..7,
            half_field in 3usize..7,
        ) {
            // The paper's headline on its grid deployments: spreading
            // units strictly reduces the maximal per-node traffic below
            // the all-on-one-sink baseline. (On arbitrary random meshes
            // relay hubs can break this; the claim is about the
            // deployment class the paper evaluates.)
            let field = 2 * half_field; // 3×3 conv output is field−2: even
            let config = CnnConfig::new(1, field, field, 2, 3, 2, 8, 2).unwrap();
            let graph = config.unit_graph().unwrap();
            let topo = zeiot_net::Topology::grid(rows, cols, 2.0, 3.0).unwrap();
            let cost = crate::cost::CostModel::new(&topo);
            let central = cost
                .forward_cost(&graph, &Assignment::centralized(&graph, &topo))
                .max_cost();
            let balanced = cost
                .forward_cost(&graph, &Assignment::balanced_correspondence(&graph, &topo))
                .max_cost();
            prop_assert!(
                balanced < central,
                "balanced peak {} >= centralized peak {}",
                balanced, central
            );
        }

        #[test]
        fn grid_projection_places_spatial_units_near_their_field(
            side in 3usize..7,
        ) {
            let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
            let graph = config.unit_graph().unwrap();
            let topo = zeiot_net::Topology::grid(side, side, 2.0, 3.0).unwrap();
            let a = Assignment::grid_projection(&graph, &topo);
            // Every conv unit's host is the nearest node to its scaled
            // position by construction — verify the distance is minimal.
            for u in 0..graph.units_in_layer(1) {
                let (px, py) = graph.position(1, u).unwrap();
                let extent = (side - 1) as f64 * 2.0;
                let p = zeiot_core::geometry::Point2::new(px * extent, py * extent);
                let host = a.host_of(1, u);
                let d_host = topo.position(host).distance(p);
                for other in topo.node_ids() {
                    prop_assert!(
                        d_host <= topo.position(other).distance(p) + 1e-9
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CnnConfig;

    fn setup() -> (UnitGraph, Topology) {
        let config = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).unwrap();
        let graph = config.unit_graph().unwrap();
        let topo = Topology::grid(4, 4, 2.0, 3.0).unwrap();
        (graph, topo)
    }

    #[test]
    fn centralized_puts_all_units_on_sink() {
        let (graph, topo) = setup();
        let a = Assignment::centralized(&graph, &topo);
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                assert_eq!(a.host_of(l, u), NodeId::new(0));
            }
        }
        assert_eq!(a.max_units_per_node(), graph.total_units());
    }

    #[test]
    fn input_units_are_spread_over_sensors() {
        let (graph, topo) = setup();
        let a = Assignment::centralized(&graph, &topo);
        let mut hosts: Vec<NodeId> = (0..graph.units_in_layer(0))
            .map(|i| a.host_of(0, i))
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        // An 8×8 sensing grid over 16 nodes: every node hosts inputs.
        assert_eq!(hosts.len(), topo.len());
    }

    #[test]
    fn grid_projection_respects_locality() {
        let (graph, topo) = setup();
        let a = Assignment::grid_projection(&graph, &topo);
        // A conv unit at the top-left reads inputs hosted at the top-left
        // corner node; it should be placed at (or adjacent to) it.
        let unit_host = a.host_of(1, 0);
        let input_host = a.host_of(0, 0);
        let d = topo.distance(unit_host, input_host);
        assert!(d <= topo.range_m() + 1e-9, "unit far from its inputs: {d}");
    }

    #[test]
    fn balanced_assignment_respects_cap() {
        let (graph, topo) = setup();
        let a = Assignment::balanced_correspondence(&graph, &topo);
        let cap = graph.total_units().div_ceil(topo.len());
        assert!(a.is_balanced(cap), "loads: {:?}", a.units_per_node());
        assert_eq!(a.total_units(), graph.total_units());
    }

    #[test]
    fn balanced_is_flatter_than_centralized() {
        let (graph, topo) = setup();
        let central = Assignment::centralized(&graph, &topo);
        let balanced = Assignment::balanced_correspondence(&graph, &topo);
        assert!(balanced.max_units_per_node() < central.max_units_per_node() / 4);
    }

    #[test]
    fn every_unit_assigned_exactly_once() {
        let (graph, topo) = setup();
        for a in [
            Assignment::centralized(&graph, &topo),
            Assignment::grid_projection(&graph, &topo),
            Assignment::balanced_correspondence(&graph, &topo),
        ] {
            assert_eq!(a.total_units(), graph.total_units());
            assert_eq!(a.layer_count(), graph.layer_count());
            for l in 1..graph.layer_count() {
                for u in 0..graph.units_in_layer(l) {
                    assert!(a.host_of(l, u).index() < topo.len());
                }
            }
        }
    }

    #[test]
    fn reverse_dependencies_are_consistent() {
        let (graph, _) = setup();
        let consumers = reverse_dependencies(&graph);
        for l in 2..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                for &d in graph.dependencies(l, u) {
                    assert!(consumers[l - 2][d].contains(&u));
                }
            }
        }
    }

    #[test]
    fn set_host_moves_unit() {
        let (graph, topo) = setup();
        let mut a = Assignment::centralized(&graph, &topo);
        a.set_host(1, 0, NodeId::new(5));
        assert_eq!(a.host_of(1, 0), NodeId::new(5));
    }

    #[test]
    #[should_panic]
    fn set_host_rejects_input_layer() {
        let (graph, topo) = setup();
        let mut a = Assignment::centralized(&graph, &topo);
        a.set_host(0, 0, NodeId::new(5));
    }

    #[test]
    fn active_nodes_of_balanced_covers_network() {
        let (graph, topo) = setup();
        let a = Assignment::balanced_correspondence(&graph, &topo);
        // 238 units over 16 nodes: everyone works.
        assert_eq!(a.active_nodes().len(), topo.len());
    }

    #[test]
    fn deterministic_assignments() {
        let (graph, topo) = setup();
        let a = Assignment::balanced_correspondence(&graph, &topo);
        let b = Assignment::balanced_correspondence(&graph, &topo);
        assert_eq!(a, b);
    }
}
