//! Customer-tree membership by walking *up* the provider hierarchy.
//!
//! [`AsGraph::in_customer_tree`] answers "is `candidate` below `root`?" by
//! a breadth-first search down from `root`, allocating an `n`-sized
//! visited vector per query; from a tier-1 root that search covers most of
//! the graph. The same question has a cheap reverse form: `candidate` lies
//! in `root`'s customer tree exactly when `root` is reachable from
//! `candidate` by following provider links upward. A node's ancestors are
//! few (its providers, their providers, … up to the T clique), so an
//! upward walk touches a handful of nodes.
//!
//! [`Ancestry`] holds the provider lists as one flat CSR array, visited
//! buffers stamped with a per-query epoch (so they are never cleared), and
//! a reusable stack: a query allocates nothing. It offers two queries:
//!
//! * [`Ancestry::in_customer_tree`] walks up from the candidate until it
//!   meets the root;
//! * [`Ancestry::mark_ancestors`] marks every ancestor of one node, after
//!   which [`Ancestry::is_marked`] answers "does that node lie in `x`'s
//!   customer tree?" for any `x` in O(1).

use crate::graph::AsGraph;
use crate::types::{AsId, Relationship};

/// Provider lists of every node plus the scratch state of the upward walks.
pub(crate) struct Ancestry {
    /// `providers[start[i]..start[i + 1]]` are node `i`'s providers.
    start: Vec<u32>,
    providers: Vec<AsId>,
    /// Whether each node has at least one customer (a root without
    /// customers has an empty tree).
    has_customers: Vec<bool>,
    /// True when every provider has a smaller id than its customers, as in
    /// generated topologies; [`Ancestry::in_customer_tree`] then prunes by
    /// id.
    ids_ordered: bool,
    /// `seen[i] == seen_epoch`: node `i` visited by the current walk.
    seen: Vec<u32>,
    seen_epoch: u32,
    /// `marks[i] == mark_epoch`: node `i` is an ancestor of the node last
    /// passed to [`Ancestry::mark_ancestors`].
    marks: Vec<u32>,
    mark_epoch: u32,
    stack: Vec<AsId>,
}

/// Advances an epoch stamp, clearing its buffer on the (rare) wrap so a
/// stale stamp can never match.
fn next_epoch(epoch: &mut u32, buf: &mut [u32]) {
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        buf.fill(0);
        *epoch = 1;
    }
}

impl Ancestry {
    /// Indexes the provider relation of `g`. The lists are built by
    /// inverting the **customer** lists (`p` is a provider of `c` when `p`
    /// lists `c` as a customer), so every answer matches the downward
    /// search of [`AsGraph::in_customer_tree`], even on a graph whose
    /// adjacencies do not mirror each other.
    pub(crate) fn new(g: &AsGraph) -> Ancestry {
        let n = g.len();
        let mut start = vec![0u32; n + 1];
        let mut ids_ordered = true;
        for p in g.node_ids() {
            for c in g.customers(p) {
                start[c.index() + 1] += 1;
                ids_ordered &= p < c;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill: Vec<u32> = start[..n].to_vec();
        let mut providers = vec![AsId(0); start[n] as usize];
        for p in g.node_ids() {
            for c in g.customers(p) {
                providers[fill[c.index()] as usize] = p;
                fill[c.index()] += 1;
            }
        }
        Ancestry {
            start,
            providers,
            has_customers: g
                .node_ids()
                .map(|id| g.degree_with_rel(id, Relationship::Customer) > 0)
                .collect(),
            ids_ordered,
            seen: vec![0; n],
            seen_epoch: 0,
            marks: vec![0; n],
            mark_epoch: 0,
            stack: Vec::new(),
        }
    }

    fn providers_of(&self, id: AsId) -> std::ops::Range<usize> {
        self.start[id.index()] as usize..self.start[id.index() + 1] as usize
    }

    /// True if `candidate` lies in the customer tree of `root` (strictly
    /// below it); same answer as [`AsGraph::in_customer_tree`].
    pub(crate) fn in_customer_tree(&mut self, root: AsId, candidate: AsId) -> bool {
        if root == candidate || !self.has_customers[root.index()] {
            return false;
        }
        if self.ids_ordered && root > candidate {
            return false;
        }
        next_epoch(&mut self.seen_epoch, &mut self.seen);
        self.stack.clear();
        self.stack.push(candidate);
        self.seen[candidate.index()] = self.seen_epoch;
        while let Some(node) = self.stack.pop() {
            for i in self.providers_of(node) {
                let p = self.providers[i];
                if p == root {
                    return true;
                }
                // Under id order, an ancestor of `p` has a smaller id than
                // `p`, so nothing below `root` can lead up to it.
                if self.ids_ordered && p < root {
                    continue;
                }
                if self.seen[p.index()] != self.seen_epoch {
                    self.seen[p.index()] = self.seen_epoch;
                    self.stack.push(p);
                }
            }
        }
        false
    }

    /// Marks every ancestor of `node`: every AS whose customer tree holds
    /// `node`. The marks stand until the next call.
    pub(crate) fn mark_ancestors(&mut self, node: AsId) {
        next_epoch(&mut self.mark_epoch, &mut self.marks);
        self.stack.clear();
        self.stack.push(node);
        while let Some(x) = self.stack.pop() {
            for i in self.providers_of(x) {
                let p = self.providers[i];
                if self.marks[p.index()] != self.mark_epoch {
                    self.marks[p.index()] = self.mark_epoch;
                    self.stack.push(p);
                }
            }
        }
    }

    /// True if `x` was marked by the last [`Ancestry::mark_ancestors`]
    /// call, i.e. that call's node lies in `x`'s customer tree.
    pub(crate) fn is_marked(&self, x: AsId) -> bool {
        self.marks[x.index()] == self.mark_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::scenario::GrowthScenario;
    use crate::types::{NodeType, RegionSet};
    use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};

    /// Both queries against the downward-search oracle for one pair.
    fn assert_agrees(a: &mut Ancestry, g: &AsGraph, root: AsId, cand: AsId) -> bool {
        let want = g.in_customer_tree(root, cand);
        assert_eq!(
            a.in_customer_tree(root, cand),
            want,
            "walk: root {root} candidate {cand}"
        );
        a.mark_ancestors(cand);
        assert_eq!(
            a.is_marked(root) && root != cand,
            want,
            "marks: root {root} candidate {cand}"
        );
        want
    }

    #[test]
    fn matches_the_downward_search_on_a_hand_built_graph() {
        // T0 ← M1 ← M2 ← C4, M1 ← C3, peer link M2–C3.
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t = g.add_node(NodeType::T, r);
        let m1 = g.add_node(NodeType::M, r);
        let m2 = g.add_node(NodeType::M, r);
        let c3 = g.add_node(NodeType::C, r);
        let c4 = g.add_node(NodeType::C, r);
        g.add_transit_link(m1, t);
        g.add_transit_link(m2, m1);
        g.add_transit_link(c3, m1);
        g.add_transit_link(c4, m2);
        g.add_peer_link(m2, c3);
        let mut a = Ancestry::new(&g);
        assert!(a.ids_ordered);
        for root in g.node_ids() {
            for cand in g.node_ids() {
                assert_agrees(&mut a, &g, root, cand);
            }
        }
    }

    #[test]
    fn walks_terminate_on_a_provider_cycle() {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let a = g.add_node(NodeType::M, r);
        let b = g.add_node(NodeType::M, r);
        let c = g.add_node(NodeType::M, r);
        let d = g.add_node(NodeType::M, r);
        g.add_transit_link(a, b);
        g.add_transit_link(b, c);
        g.add_transit_link(c, a);
        g.add_transit_link(d, c);
        let mut anc = Ancestry::new(&g);
        assert!(!anc.ids_ordered);
        for root in g.node_ids() {
            for cand in g.node_ids() {
                assert_agrees(&mut anc, &g, root, cand);
            }
        }
        assert!(anc.in_customer_tree(a, d));
        assert!(!anc.in_customer_tree(d, a));
    }

    /// The generator's form of the query (id-ordered, pruned walk) against
    /// the downward search, on random node pairs of generated graphs.
    #[test]
    fn ancestor_walk_matches_downward_search_on_generated_graphs() {
        let mut rng = Xoshiro256StarStar::new(0xA5CE);
        for scenario in [
            GrowthScenario::Baseline,
            GrowthScenario::TransitClique,
            GrowthScenario::PreferTop,
            GrowthScenario::PreferMiddle,
        ] {
            let g = generate(scenario, 1_500, 7);
            let mut a = Ancestry::new(&g);
            assert!(a.ids_ordered, "{scenario}: generated graphs are id-ordered");
            let transit: Vec<AsId> = g
                .node_ids()
                .filter(|&id| g.node_type(id).is_transit())
                .collect();
            let (mut below, mut not_below) = (0, 0);
            for i in 0..3_000 {
                let cand = AsId(rng.next_below(g.len() as u64) as u32);
                // A third of the roots are transit nodes and a third are
                // reached from the candidate by a random climb, so both
                // answers occur often.
                let root = match i % 3 {
                    0 => transit[rng.next_below(transit.len() as u64) as usize],
                    1 => AsId(rng.next_below(g.len() as u64) as u32),
                    _ => {
                        let mut x = cand;
                        for _ in 0..=rng.next_below(3) {
                            let up: Vec<AsId> = g.providers(x).collect();
                            if up.is_empty() {
                                break;
                            }
                            x = up[rng.next_below(up.len() as u64) as usize];
                        }
                        x
                    }
                };
                if assert_agrees(&mut a, &g, root, cand) {
                    below += 1;
                } else {
                    not_below += 1;
                }
            }
            assert!(
                below > 100 && not_below > 100,
                "{scenario}: {below} below, {not_below} not"
            );
        }
    }
}
