//! Two-phase top-down topology construction (§3 of the paper).
//!
//! Phase 1 — nodes and transit links:
//!
//! 1. Create the tier-1 clique (T nodes, present in all regions, fully
//!    meshed with peering links).
//! 2. Add M nodes one at a time. Each draws a provider count uniform in
//!    `[1, 2·dM − 1]` (mean `dM`), fills each slot from the T pool with
//!    probability `tM` and from the already-added M pool otherwise, and
//!    selects within the pool by **preferential attachment** on transit
//!    degree. Only same-region candidates are eligible. Because an M node
//!    can only buy transit from *earlier* M nodes, the provider relation is
//!    acyclic by construction (the paper's "hierarchical structure").
//! 3. Add CP and C stubs the same way, with their own `d`/`t` knobs.
//!
//! Phase 2 — peering links:
//!
//! 4. Each M node draws `U[0, 2·pM]` peering links to other M nodes,
//!    selected by preferential attachment **on peering degree**.
//! 5. Each CP node draws `U[0, 2·pCP−M]` links to M nodes and
//!    `U[0, 2·pCP−CP]` links to other CP nodes, selected uniformly.
//!
//! Throughout phase 2 the generator enforces the paper's economic
//! invariant: a node never peers with a node in its own customer tree
//! (such a link would cannibalize its own transit revenue).
//!
//! ## Weighted pools
//!
//! Every draw picks from a `Pool`: the T, M or CP nodes added so far.
//! Nodes are created type by type, so a pool is a contiguous id range and
//! a member's position is its id minus the pool's first id. A pool keeps
//! one Fenwick tree of **integer** weights over its positions per distinct
//! region set of the nodes that draw from it, built the first time that
//! region set draws. A candidate outside the drawing node's regions
//! weighs 0; an eligible one weighs its transit degree + 1 (provider
//! picks), its peering degree + 1 (M–M peering) or 1 (CP peering). When a
//! link raises a degree, the member's position is updated in each of its
//! pool's trees, and a new M node is appended to the M pool's trees.
//!
//! A draw subtracts its exclusions — the drawing node, its current
//! neighbours (which include the providers it already chose), and the
//! candidates the redraw loop rejected — descends the tree, and adds them
//! back. It costs O((degree + rejections) · log n) rather than a pass over
//! the whole pool.
//!
//! ## Exact-index argument
//!
//! The reference draw, `Rng::choose_weighted` over the same weights as
//! `f64`, takes `target = next_f64() · total` and subtracts the weights in
//! order until `target` turns negative. All weights are integers far below
//! 2⁵³, so `total` is exact and every subtraction that leaves `target`
//! non-negative is exact too: the scan returns the first index whose
//! prefix sum exceeds `target`. `Fenwick::find` returns that same index
//! by comparing exact integer prefix sums, `(acc + t[i]) as f64 <= target`,
//! against the same `target`. The descent consumes one `next_f64` per
//! draw, exactly like the scan, so the RNG stream and every generated
//! graph are bit-identical to the scan's (`tests/golden_topology.rs` pins
//! 128 of them).
//!
//! ## Id order
//!
//! T nodes come first, then M nodes (each buying only from T and earlier
//! M nodes), then the stubs; providers are wired as each node is created.
//! So every provider has a smaller id than its customers. The customer-tree
//! test in phase 2 relies on it: it walks up the provider lists from the
//! candidate (`crate::ancestry::Ancestry`) and never explores a node whose id is below
//! the root's.

use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};

use crate::ancestry::Ancestry;
use crate::graph::AsGraph;
use crate::params::TopologyParams;
use crate::scenario::GrowthScenario;
use crate::types::{AsId, NodeType, RegionSet};

/// Generates a topology for `scenario` at size `n` with the given seed.
///
/// Equal inputs produce bit-identical topologies.
pub fn generate(scenario: GrowthScenario, n: usize, seed: u64) -> AsGraph {
    generate_with_params(&scenario.params(n), seed)
}

/// Generates a topology from explicit parameters (the escape hatch for
/// custom what-if studies beyond the paper's scenarios).
///
/// # Panics
/// Panics if `params.check()` fails.
pub fn generate_with_params(params: &TopologyParams, seed: u64) -> AsGraph {
    params
        .check()
        .unwrap_or_else(|e| panic!("invalid topology parameters: {e}"));
    let mut b = Builder::new(params, seed);
    b.add_tier1_clique();
    b.add_m_nodes();
    b.add_stubs(NodeType::Cp);
    b.add_stubs(NodeType::C);
    // Transit links are final: index the provider lists once.
    let mut ancestry = Ancestry::new(&b.graph);
    b.add_m_peering(&mut ancestry);
    b.add_cp_peering(&mut ancestry);
    b.graph
}

/// A Fenwick (binary indexed) tree of integer weights over pool positions.
struct Fenwick {
    /// 1-based: `tree[i]` holds the sum of the `i & -i` weights at
    /// positions `i - (i & -i) .. i`.
    tree: Vec<u64>,
    total: u64,
}

impl Fenwick {
    /// A tree over `weights` (positions `0..`), zero-padded to `capacity`
    /// positions. O(capacity).
    fn new(weights: impl Iterator<Item = u64>, capacity: usize) -> Fenwick {
        let mut tree = vec![0u64; capacity + 1];
        let mut total = 0;
        for (pos, w) in weights.enumerate() {
            tree[pos + 1] = w;
            total += w;
        }
        for i in 1..=capacity {
            let parent = i + (i & i.wrapping_neg());
            if parent <= capacity {
                tree[parent] += tree[i];
            }
        }
        Fenwick { tree, total }
    }

    fn add(&mut self, pos: usize, w: u64) {
        self.total += w;
        let mut i = pos + 1;
        while let Some(t) = self.tree.get_mut(i) {
            *t += w;
            i += i & i.wrapping_neg();
        }
    }

    fn sub(&mut self, pos: usize, w: u64) {
        self.total -= w;
        let mut i = pos + 1;
        while let Some(t) = self.tree.get_mut(i) {
            *t -= w;
            i += i & i.wrapping_neg();
        }
    }

    /// The first position whose inclusive prefix sum exceeds `target`,
    /// for `0 ≤ target < total`: the index `Rng::choose_weighted` returns
    /// for the same weights and the same draw (see the module docs).
    fn find(&self, target: f64) -> usize {
        let len = self.tree.len() - 1;
        let mut pos = 0;
        let mut acc = 0u64;
        let mut step = if len == 0 { 0 } else { 1 << len.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= len && (acc + self.tree[next]) as f64 <= target {
                pos = next;
                acc += self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

/// How a pool weights a candidate that shares a region with the drawing
/// node (a candidate that shares none weighs 0).
#[derive(Clone, Copy)]
enum Weighting {
    /// Transit degree + 1: preferential attachment for provider picks
    /// (+1 so degree-zero candidates stay reachable).
    TransitDegree,
    /// Peering degree + 1: preferential attachment for M–M peering.
    PeeringDegree,
    /// 1: uniform choice for CP peering.
    Uniform,
}

impl Weighting {
    fn weight(self, g: &AsGraph, cand: AsId, regions: RegionSet) -> u64 {
        if !g.regions(cand).intersects(regions) {
            return 0;
        }
        match self {
            Weighting::TransitDegree => g.transit_degree(cand) as u64 + 1,
            Weighting::PeeringDegree => g.peering_degree(cand) as u64 + 1,
            Weighting::Uniform => 1,
        }
    }
}

/// The members of a pool: `len` nodes with consecutive ids from `first`,
/// position `i` holding id `first + i`.
#[derive(Clone, Copy)]
struct IdRange {
    first: u32,
    len: usize,
}

impl IdRange {
    fn member(self, pos: usize) -> AsId {
        AsId(self.first + pos as u32)
    }

    fn position(self, id: AsId) -> Option<usize> {
        let pos = id.0.checked_sub(self.first)? as usize;
        (pos < self.len).then_some(pos)
    }
}

/// The candidates of one kind of draw, weighted by `weighting`, with one
/// [`Fenwick`] tree per region set of the drawing nodes.
struct Pool {
    weighting: Weighting,
    ids: IdRange,
    capacity: usize,
    trees: Vec<(RegionSet, Fenwick)>,
    /// `(position, weight)` pairs zeroed for the current draw.
    excluded: Vec<(usize, u64)>,
}

impl Pool {
    /// A pool over the `len` nodes from id `first`, with room to grow to
    /// `capacity` members.
    fn new(weighting: Weighting, first: usize, len: usize, capacity: usize) -> Pool {
        Pool {
            weighting,
            ids: IdRange {
                first: u32::try_from(first).expect("more than u32::MAX nodes"),
                len,
            },
            capacity,
            trees: Vec::new(),
            excluded: Vec::new(),
        }
    }

    /// Appends the node with the next id to the pool.
    fn grow(&mut self, g: &AsGraph) {
        assert!(self.ids.len < self.capacity, "pool over capacity");
        let pos = self.ids.len;
        self.ids.len += 1;
        let id = self.ids.member(pos);
        for (regions, tree) in &mut self.trees {
            let w = self.weighting.weight(g, id, *regions);
            if w > 0 {
                tree.add(pos, w);
            }
        }
    }

    /// Raises the weight of member `id` by one after the degree its
    /// weighting counts grew by one.
    fn bump(&mut self, g: &AsGraph, id: AsId) {
        let Some(pos) = self.ids.position(id) else { return };
        let cand_regions = g.regions(id);
        for (regions, tree) in &mut self.trees {
            if cand_regions.intersects(*regions) {
                tree.add(pos, 1);
            }
        }
    }

    /// Draws a member for `me` with probability proportional to its
    /// weight, skipping `me`, its current neighbours, and every drawn
    /// candidate `accept` rejects (each rejection costs one more draw).
    /// `None` once no eligible weight remains.
    fn draw(
        &mut self,
        g: &AsGraph,
        rng: &mut Xoshiro256StarStar,
        me: AsId,
        mut accept: impl FnMut(AsId) -> bool,
    ) -> Option<AsId> {
        let regions = g.regions(me);
        let t = match self.trees.iter().position(|(r, _)| *r == regions) {
            Some(t) => t,
            None => {
                let tree = Fenwick::new(
                    (0..self.ids.len).map(|pos| self.weighting.weight(g, self.ids.member(pos), regions)),
                    self.capacity,
                );
                self.trees.push((regions, tree));
                self.trees.len() - 1
            }
        };
        let (ids, weighting) = (self.ids, self.weighting);
        let tree = &mut self.trees[t].1;
        let excluded = &mut self.excluded;
        let mut exclude = |tree: &mut Fenwick, id: AsId| {
            let Some(pos) = ids.position(id) else { return };
            let w = weighting.weight(g, id, regions);
            if w > 0 {
                tree.sub(pos, w);
                excluded.push((pos, w));
            }
        };
        exclude(tree, me);
        for nb in g.neighbors(me) {
            exclude(tree, nb.id);
        }
        let found = loop {
            if tree.total == 0 {
                break None;
            }
            let cand = ids.member(tree.find(rng.next_f64() * tree.total as f64));
            if accept(cand) {
                break Some(cand);
            }
            exclude(tree, cand);
        };
        for (pos, w) in excluded.drain(..) {
            tree.add(pos, w);
        }
        found
    }
}

struct Builder<'a> {
    p: &'a TopologyParams,
    rng: Xoshiro256StarStar,
    graph: AsGraph,
    /// Provider pools of phase 1: all T nodes, and the M nodes added so
    /// far.
    t_providers: Pool,
    m_providers: Pool,
}

impl<'a> Builder<'a> {
    fn new(p: &'a TopologyParams, seed: u64) -> Self {
        Builder {
            p,
            rng: Xoshiro256StarStar::new(seed),
            graph: AsGraph::with_capacity(p.n),
            t_providers: Pool::new(Weighting::TransitDegree, 0, 0, p.n_t),
            m_providers: Pool::new(Weighting::TransitDegree, p.n_t, 0, p.n_m),
        }
    }

    /// Draws a region set: `two_region_frac` of nodes span two distinct
    /// regions, the rest one.
    fn draw_regions(&mut self, two_region_frac: f64) -> RegionSet {
        let r1 = self.rng.next_below(self.p.regions as u64) as usize;
        let mut set = RegionSet::single(r1);
        if self.p.regions > 1 && self.rng.chance(two_region_frac) {
            loop {
                let r2 = self.rng.next_below(self.p.regions as u64) as usize;
                if r2 != r1 {
                    set.insert(r2);
                    break;
                }
            }
        }
        set
    }

    /// Provider count: uniform in `[1, 2·mean − 1]`, stochastically
    /// rounded, so the expectation is exactly `mean` and the minimum is 1
    /// (every non-T node needs a provider).
    fn draw_provider_count(&mut self, mean: f64) -> usize {
        if mean <= 1.0 {
            return 1;
        }
        let x = self.rng.next_f64_range(1.0, 2.0 * mean - 1.0);
        (self.rng.round_stochastic(x) as usize).max(1)
    }

    /// Peering count: uniform in `[0, 2·mean]`, stochastically rounded
    /// (expectation exactly `mean`; zero is allowed).
    fn draw_peer_count(&mut self, mean: f64) -> usize {
        if mean <= 0.0 {
            return 0;
        }
        let x = self.rng.next_f64_range(0.0, 2.0 * mean);
        self.rng.round_stochastic(x) as usize
    }

    fn add_tier1_clique(&mut self) {
        let all_regions = RegionSet::all(self.p.regions);
        for _ in 0..self.p.n_t {
            self.graph.add_node(NodeType::T, all_regions);
            self.t_providers.grow(&self.graph);
        }
        for i in 0..self.p.n_t {
            for j in (i + 1)..self.p.n_t {
                self.graph.add_peer_link(AsId(i as u32), AsId(j as u32));
            }
        }
    }

    /// Provider pick for `me` from the T or the M pool by preferential
    /// attachment on transit degree, among region-compatible candidates
    /// `me` does not already buy from. `None` if the pool has no eligible
    /// candidate.
    fn pick_provider(&mut self, me: AsId, from_t: bool) -> Option<AsId> {
        let pool = if from_t {
            &mut self.t_providers
        } else {
            &mut self.m_providers
        };
        pool.draw(&self.graph, &mut self.rng, me, |_| true)
    }

    /// Selects and wires the providers for one freshly added node.
    ///
    /// `t_prob` is the probability that a slot draws from the T pool; the
    /// M pool holds the M nodes added before `me`. The PREFER-* caps of
    /// §5.4 are applied here: when a pool's cap is reached (or the pool has
    /// no eligible candidate), the slot falls back to the other pool; if
    /// neither pool can serve, the slot is dropped.
    fn wire_providers(&mut self, me: AsId, count: usize, t_prob: f64, is_m_node: bool) {
        let t_cap = if is_m_node {
            self.p.max_t_providers_for_m.unwrap_or(usize::MAX)
        } else {
            usize::MAX
        };
        let m_cap = self.p.max_m_providers.unwrap_or(usize::MAX);
        let mut t_used = 0usize;
        let mut m_used = 0usize;
        for _ in 0..count {
            let mut want_t = self.rng.chance(t_prob);
            if want_t && t_used >= t_cap {
                want_t = false;
            }
            if !want_t && m_used >= m_cap {
                want_t = true;
            }
            if want_t && t_used >= t_cap {
                break; // both pools capped
            }
            let provider = if want_t {
                self.pick_provider(me, true).or_else(|| {
                    if m_used < m_cap {
                        self.pick_provider(me, false)
                    } else {
                        None
                    }
                })
            } else {
                self.pick_provider(me, false).or_else(|| {
                    if t_used < t_cap {
                        self.pick_provider(me, true)
                    } else {
                        None
                    }
                })
            };
            let Some(provider) = provider else { break };
            self.graph.add_transit_link(me, provider);
            if self.graph.node_type(provider) == NodeType::T {
                t_used += 1;
                self.t_providers.bump(&self.graph, provider);
            } else {
                m_used += 1;
                self.m_providers.bump(&self.graph, provider);
            }
        }
        debug_assert!(
            self.graph.multihoming_degree(me) > 0,
            "node {me} ended up with no provider (pool exhaustion should be impossible: T pool is global)"
        );
    }

    fn add_m_nodes(&mut self) {
        for _ in 0..self.p.n_m {
            let regions = self.draw_regions(self.p.m_two_region_frac);
            let id = self.graph.add_node(NodeType::M, regions);
            let count = self.draw_provider_count(self.p.d_m);
            // The M pool holds only the M nodes added before `id`: keeps
            // the provider relation acyclic.
            self.wire_providers(id, count, self.p.t_m, true);
            self.m_providers.grow(&self.graph);
        }
    }

    fn add_stubs(&mut self, ty: NodeType) {
        let (count, two_region_frac, d, t_prob) = match ty {
            NodeType::Cp => (self.p.n_cp, self.p.cp_two_region_frac, self.p.d_cp, self.p.t_cp),
            NodeType::C => (self.p.n_c, 0.0, self.p.d_c, self.p.t_c),
            _ => unreachable!("add_stubs only handles stub types"),
        };
        for _ in 0..count {
            let regions = self.draw_regions(two_region_frac);
            let id = self.graph.add_node(ty, regions);
            let slots = self.draw_provider_count(d);
            self.wire_providers(id, slots, t_prob, false);
        }
    }

    fn add_m_peering(&mut self, ancestry: &mut Ancestry) {
        // Preferential attachment "considering only the peering degree of
        // each potential peer" (§3).
        let mut pool = Pool::new(Weighting::PeeringDegree, self.p.n_t, self.p.n_m, self.p.n_m);
        for pos in 0..self.p.n_m {
            let me = pool.ids.member(pos);
            ancestry.mark_ancestors(me);
            let count = self.draw_peer_count(self.p.p_m);
            for _ in 0..count {
                let Some(peer) = pool.draw(&self.graph, &mut self.rng, me, |cand| {
                    peering_ok(ancestry, me, cand)
                }) else {
                    break;
                };
                self.graph.add_peer_link(me, peer);
                pool.bump(&self.graph, me);
                pool.bump(&self.graph, peer);
            }
        }
    }

    fn add_cp_peering(&mut self, ancestry: &mut Ancestry) {
        // CP nodes select peers uniformly within their region (§3).
        let (n_t, n_m, n_cp) = (self.p.n_t, self.p.n_m, self.p.n_cp);
        let mut to_m = Pool::new(Weighting::Uniform, n_t, n_m, n_m);
        let mut to_cp = Pool::new(Weighting::Uniform, n_t + n_m, n_cp, n_cp);
        for pos in 0..n_cp {
            let me = to_cp.ids.member(pos);
            ancestry.mark_ancestors(me);
            for (mean, pool) in [(self.p.p_cp_m, &mut to_m), (self.p.p_cp_cp, &mut to_cp)] {
                let count = self.draw_peer_count(mean);
                for _ in 0..count {
                    let Some(peer) = pool.draw(&self.graph, &mut self.rng, me, |cand| {
                        peering_ok(ancestry, me, cand)
                    }) else {
                        break;
                    };
                    self.graph.add_peer_link(me, peer);
                }
            }
        }
    }
}

/// True if neither end of a prospective `me`–`cand` peering link lies in
/// the other's customer tree, given `me`'s ancestors marked. Self-links and
/// existing links never get here: a draw excludes the drawing node and its
/// neighbours.
fn peering_ok(ancestry: &mut Ancestry, me: AsId, cand: AsId) -> bool {
    !ancestry.is_marked(cand) && !ancestry.in_customer_tree(me, cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Relationship;

    fn baseline(n: usize, seed: u64) -> AsGraph {
        generate(GrowthScenario::Baseline, n, seed)
    }

    #[test]
    fn generates_requested_population() {
        let g = baseline(1_000, 1);
        let p = GrowthScenario::Baseline.params(1_000);
        assert_eq!(g.len(), 1_000);
        assert_eq!(g.count_of_type(NodeType::T), p.n_t);
        assert_eq!(g.count_of_type(NodeType::M), p.n_m);
        assert_eq!(g.count_of_type(NodeType::Cp), p.n_cp);
        assert_eq!(g.count_of_type(NodeType::C), p.n_c);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = baseline(500, 7);
        let b = baseline(500, 7);
        assert_eq!(a.link_count(), b.link_count());
        for id in a.node_ids() {
            assert_eq!(a.neighbors(id), b.neighbors(id), "adjacency differs at {id}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = baseline(500, 1);
        let b = baseline(500, 2);
        let differs = a
            .node_ids()
            .any(|id| a.neighbors(id) != b.neighbors(id));
        assert!(differs);
    }

    #[test]
    fn tier1_forms_full_clique() {
        let g = baseline(800, 3);
        let ts = g.nodes_of_type(NodeType::T);
        for (i, &a) in ts.iter().enumerate() {
            for &b in &ts[i + 1..] {
                assert_eq!(g.relationship(a, b), Some(Relationship::Peer), "{a}–{b}");
            }
        }
    }

    #[test]
    fn t_nodes_have_no_providers() {
        let g = baseline(800, 4);
        for t in g.nodes_of_type(NodeType::T) {
            assert_eq!(g.multihoming_degree(t), 0);
        }
    }

    #[test]
    fn every_non_t_node_has_a_provider() {
        let g = baseline(1_000, 5);
        for id in g.node_ids() {
            if g.node_type(id) != NodeType::T {
                assert!(g.multihoming_degree(id) >= 1, "{id} has no provider");
            }
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let g = baseline(1_000, 6);
        for id in g.node_ids() {
            if g.node_type(id).is_stub() {
                assert_eq!(g.degree_with_rel(id, Relationship::Customer), 0, "{id}");
            }
        }
    }

    #[test]
    fn c_nodes_never_peer() {
        let g = baseline(1_000, 7);
        for id in g.node_ids() {
            if g.node_type(id) == NodeType::C {
                assert_eq!(g.peering_degree(id), 0, "{id} has peer links");
            }
        }
    }

    #[test]
    fn mean_multihoming_degree_tracks_parameter() {
        let g = baseline(2_000, 8);
        let p = GrowthScenario::Baseline.params(2_000);
        let ms = g.nodes_of_type(NodeType::M);
        let mean_m: f64 =
            ms.iter().map(|&m| g.multihoming_degree(m) as f64).sum::<f64>() / ms.len() as f64;
        assert!(
            (mean_m - p.d_m).abs() < 0.35,
            "mean M multihoming {mean_m} vs target {}",
            p.d_m
        );
        let cs = g.nodes_of_type(NodeType::C);
        let mean_c: f64 =
            cs.iter().map(|&c| g.multihoming_degree(c) as f64).sum::<f64>() / cs.len() as f64;
        assert!(
            (mean_c - p.d_c).abs() < 0.1,
            "mean C multihoming {mean_c} vs target {}",
            p.d_c
        );
    }

    #[test]
    fn no_peering_scenario_has_only_clique_peering() {
        let g = generate(GrowthScenario::NoPeering, 1_000, 9);
        let p = GrowthScenario::NoPeering.params(1_000);
        let clique_links = p.n_t * (p.n_t - 1) / 2;
        assert_eq!(g.peer_link_count(), clique_links);
    }

    #[test]
    fn tree_scenario_gives_single_provider_everywhere() {
        let g = generate(GrowthScenario::Tree, 1_000, 10);
        for id in g.node_ids() {
            if g.node_type(id) != NodeType::T {
                assert_eq!(g.multihoming_degree(id), 1, "{id}");
            }
        }
    }

    #[test]
    fn prefer_middle_caps_t_providers_of_m() {
        let g = generate(GrowthScenario::PreferMiddle, 1_000, 11);
        for m in g.nodes_of_type(NodeType::M) {
            let t_providers = g
                .providers(m)
                .filter(|&p| g.node_type(p) == NodeType::T)
                .count();
            assert!(t_providers <= 1, "{m} has {t_providers} T providers");
        }
        // Stubs should buy from M nodes (t probabilities are zero); the T
        // fallback only triggers when a region has no M candidate.
        let stub_t_links: usize = g
            .node_ids()
            .filter(|&id| g.node_type(id).is_stub())
            .map(|id| g.providers(id).filter(|&p| g.node_type(p) == NodeType::T).count())
            .sum();
        let stub_links: usize = g
            .node_ids()
            .filter(|&id| g.node_type(id).is_stub())
            .map(|id| g.multihoming_degree(id))
            .sum();
        assert!(
            (stub_t_links as f64) < 0.05 * stub_links as f64,
            "{stub_t_links}/{stub_links} stub transit links go to T under PREFER-MIDDLE"
        );
    }

    #[test]
    fn prefer_top_caps_m_providers() {
        let g = generate(GrowthScenario::PreferTop, 1_000, 12);
        for id in g.node_ids() {
            if g.node_type(id) == NodeType::T {
                continue;
            }
            let m_providers = g
                .providers(id)
                .filter(|&p| g.node_type(p) == NodeType::M)
                .count();
            assert!(m_providers <= 1, "{id} has {m_providers} M providers");
        }
    }

    #[test]
    fn no_peer_link_inside_customer_tree() {
        let g = baseline(1_000, 13);
        for id in g.node_ids() {
            for peer in g.peers(id) {
                assert!(
                    !g.in_customer_tree(id, peer),
                    "{id} peers with its own customer {peer}"
                );
            }
        }
    }

    #[test]
    fn all_links_respect_regions() {
        let g = baseline(1_000, 14);
        for id in g.node_ids() {
            for n in g.neighbors(id) {
                assert!(g.regions(id).intersects(g.regions(n.id)));
            }
        }
    }

    #[test]
    fn transit_clique_has_no_m_nodes_and_many_t() {
        let g = generate(GrowthScenario::TransitClique, 600, 15);
        assert_eq!(g.count_of_type(NodeType::M), 0);
        assert_eq!(g.count_of_type(NodeType::T), 90);
    }

    #[test]
    fn peering_degree_preferential_attachment_concentrates() {
        // Under Baseline, M–M peering by preferential attachment should
        // produce a max peering degree well above the mean.
        let g = baseline(3_000, 16);
        let ms = g.nodes_of_type(NodeType::M);
        let degs: Vec<usize> = ms.iter().map(|&m| g.peering_degree(m)).collect();
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        let max = *degs.iter().max().unwrap();
        assert!(
            max as f64 > 3.0 * mean,
            "max peering degree {max} not heavy-tailed vs mean {mean}"
        );
    }

    /// One draw through `Rng::choose_weighted` over the weights as `f64`
    /// and one through the Fenwick descent, from equal RNG states: both
    /// must pick the same index. `None` when no weight is left.
    fn draw_both(
        weights: &[u64],
        tree: &Fenwick,
        scan_rng: &mut Xoshiro256StarStar,
        tree_rng: &mut Xoshiro256StarStar,
    ) -> Option<usize> {
        let total: u64 = weights.iter().sum();
        assert_eq!(tree.total, total);
        if total == 0 {
            return None;
        }
        let as_f64: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let want = scan_rng.choose_weighted(&as_f64);
        let got = tree.find(tree_rng.next_f64() * total as f64);
        assert_eq!(got, want, "weights {weights:?}");
        assert!(weights[got] > 0, "drew a zero weight");
        Some(got)
    }

    #[test]
    fn fenwick_descent_matches_choose_weighted() {
        let mut gen = Xoshiro256StarStar::new(0xF3);
        for case in 0..400u64 {
            let len = 1 + gen.next_below(300) as usize;
            let max_w = [1, 3, 50, 1 << 20][case as usize % 4];
            let mut weights: Vec<u64> = (0..len)
                .map(|_| if gen.chance(0.3) { 0 } else { gen.next_below(max_w + 1) })
                .collect();
            // Zero-weight padding past the members, as in a growing pool.
            let capacity = len + gen.next_below(4) as usize;
            let mut tree = Fenwick::new(weights.iter().copied(), capacity);
            let mut scan_rng = Xoshiro256StarStar::new(case);
            let mut tree_rng = scan_rng.clone();
            // Point updates, a draw after each.
            for _ in 0..30 {
                let pos = gen.next_below(len as u64) as usize;
                if gen.chance(0.5) {
                    let w = gen.next_below(max_w + 1);
                    weights[pos] += w;
                    tree.add(pos, w);
                } else {
                    let w = gen.next_below(weights[pos] + 1);
                    weights[pos] -= w;
                    tree.sub(pos, w);
                }
                draw_both(&weights, &tree, &mut scan_rng, &mut tree_rng);
            }
            // Zero what was drawn and redraw until nothing is left, as the
            // peering redraw loop does.
            while let Some(i) = draw_both(&weights, &tree, &mut scan_rng, &mut tree_rng) {
                tree.sub(i, weights[i]);
                weights[i] = 0;
            }
        }
    }

    #[test]
    fn fenwick_find_returns_the_first_prefix_above_the_target() {
        let weights = [0u64, 2, 0, 0, 3, 1, 0];
        let tree = Fenwick::new(weights.iter().copied(), 9);
        assert_eq!(tree.total, 6);
        for (target, want) in [
            (0.0, 1),
            (1.999, 1),
            (2.0, 4),
            (4.5, 4),
            (5.0, 5),
            (5.999_999, 5),
        ] {
            assert_eq!(tree.find(target), want, "target {target}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid topology parameters")]
    fn bad_params_rejected() {
        let mut p = GrowthScenario::Baseline.params(1_000);
        p.n_c += 5;
        let _ = generate_with_params(&p, 1);
    }
}
