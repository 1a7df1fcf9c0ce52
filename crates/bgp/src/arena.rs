//! Dense, `u32`-indexed arena storage for per-node BGP state.
//!
//! The first-generation [`crate::node::BgpNode`] kept three pointer-heavy
//! maps per node — `slot_of: BTreeMap<AsId, u32>`, `prefixes:
//! BTreeMap<Prefix, PrefixState>` and `damp: BTreeMap<(u32, Prefix),
//! DampState>` — which at Internet scale (50k–70k ASes) means millions of
//! scattered tree nodes, cache-hostile walks on every update, and a large
//! constant allocation overhead per simulated C-event. This module
//! replaces them with three flat structures sharing one id-space
//! discipline:
//!
//! * **AS id** (`AsId`) — the global, topology-wide node index. Only ever
//!   translated at the edge of a node (who sent me this update?).
//! * **slot** (`u32`) — a node-local session index, `0..degree`. All hot
//!   per-neighbor state (Adj-RIB-in columns, output queues, liveness) is
//!   slot-indexed.
//! * **prefix row** (`usize`) — a node-local index into the sorted prefix
//!   column of the [`PrefixTable`]; all per-prefix state lives in
//!   structure-of-arrays columns addressed by row.
//!
//! [`SessionSlab`] is the AS-id ↔ slot translation table, built **once**
//! from the topology and shared by every node (and the simulator's timer
//! epochs) through an `Arc`: per-node session state costs zero
//! allocations at instantiation time.
//!
//! [`PrefixTable`] stores per-prefix state as parallel columns keyed by a
//! sorted prefix row index, with the Adj-RIB-in laid out **prefix-major**
//! (`row * slots + slot`) so the decision process scans one contiguous
//! stripe. Iterating rows yields prefixes in sorted order — the same
//! deterministic order the `BTreeMap` gave, which whole-table operations
//! (session resets, session-up replays) rely on for bit-identical
//! artifacts.
//!
//! Damping state ([`DampTable`]) stays sparse — entries exist only for
//! routes with flap history, and the paper's configuration disables RFD
//! entirely — so it is a flat sorted `Vec` with binary-search access
//! rather than a dense row×slot matrix, and it allocates nothing until
//! the first flap is charged.

use std::sync::Arc;

use bgpscale_topology::AsId;

use crate::message::{AsPath, Prefix};
use crate::node::Session;
use crate::rfd::DampState;

/// Sentinel slot index meaning "the route is self-originated".
pub const SELF_SLOT: u32 = u32::MAX;

/// Sentinel slot index meaning "no best route" in the best-slot column.
pub(crate) const NO_BEST: u32 = u32::MAX - 1;

/// Documented per-element byte costs for the deterministic arena-size
/// estimate (see [`PrefixTable::arena_bytes`]). These are *fixed model
/// constants*, deliberately not `size_of` (which could drift between
/// toolchains and break bit-identical op counts): a slot cell models an
/// `Option<AsPath>` as pointer + length + discriminant word plus its
/// cached 16-byte preference key and 4-byte order/limbo entry, a row
/// models the prefix/originated/best-slot/best-path columns plus the
/// sorted-order and limbo vector headers and the validity flag.
const BYTES_PER_RIB_CELL: u64 = 44;
const BYTES_PER_ROW: u64 = 88;
const BYTES_PER_SESSION: u64 = 16;
const BYTES_PER_DAMP_ENTRY: u64 = 40;

/// The topology-wide session arena: every node's sessions and its
/// AS-id → slot lookup live in two shared concatenated columns, built
/// once and shared by all nodes via `Arc`.
#[derive(Clone, Debug)]
pub struct SessionSlab {
    /// All sessions, concatenated per node in slot order.
    sessions: Vec<Session>,
    /// Per node, the `(peer, slot)` pairs sorted by peer AS id — the
    /// dense replacement for the per-node `BTreeMap<AsId, u32>`.
    lookup: Vec<(AsId, u32)>,
    /// Per node: offset into both columns (length = next offset). The
    /// extra trailing entry makes `range(i)` branch-free.
    offsets: Vec<u32>,
}

impl SessionSlab {
    /// Builds the slab from per-node session lists (indexed by node).
    ///
    /// # Panics
    /// Panics if any node has a session with itself or a duplicate peer
    /// (`ids[i]` is node `i`'s AS id — normally `AsId(i)`).
    pub fn build<F>(node_count: usize, id_of: F, sessions_of: &[Vec<Session>]) -> Arc<SessionSlab>
    where
        F: Fn(usize) -> AsId,
    {
        assert_eq!(node_count, sessions_of.len());
        let total: usize = sessions_of.iter().map(|s| s.len()).sum();
        let mut slab = SessionSlab {
            sessions: Vec::with_capacity(total),
            lookup: Vec::with_capacity(total),
            offsets: Vec::with_capacity(node_count + 1),
        };
        slab.offsets.push(0);
        for (i, sess) in sessions_of.iter().enumerate() {
            let id = id_of(i);
            let base = slab.sessions.len();
            for (slot, s) in sess.iter().enumerate() {
                assert_ne!(s.peer, id, "session with self at {id}");
                slab.sessions.push(*s);
                slab.lookup.push((s.peer, slot as u32));
            }
            let node_lookup = &mut slab.lookup[base..];
            node_lookup.sort_unstable_by_key(|&(peer, _)| peer);
            for pair in node_lookup.windows(2) {
                assert_ne!(pair[0].0, pair[1].0, "duplicate session {id}–{}", pair[0].0);
            }
            slab.offsets
                .push(u32::try_from(slab.sessions.len()).expect("session count fits u32"));
        }
        Arc::new(slab)
    }

    /// Builds a one-node slab (unit tests and standalone nodes).
    pub fn for_single(id: AsId, sessions: Vec<Session>) -> Arc<SessionSlab> {
        Self::build(1, |_| id, std::slice::from_ref(&sessions))
    }

    /// Number of nodes in the slab.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the slab holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // detflow::allow(panic-surface, reason = "node < len() is the caller contract; offsets has len()+1 entries by construction so node and node+1 are in bounds")
    fn range(&self, node: u32) -> std::ops::Range<usize> {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        lo..hi
    }

    /// Node `node`'s sessions, in slot order.
    // detflow::allow(panic-surface, reason = "range() returns offsets bounded by sessions.len() (the final offsets entry) by construction")
    pub fn sessions(&self, node: u32) -> &[Session] {
        &self.sessions[self.range(node)]
    }

    /// Node `node`'s degree (session count).
    pub fn degree(&self, node: u32) -> u32 {
        let r = self.range(node);
        (r.end - r.start) as u32
    }

    /// The slot of `peer` on node `node`, if it is a neighbor — a binary
    /// search over the node's sorted lookup stripe.
    // detflow::allow(panic-surface, reason = "range() is in bounds for lookup, which parallels sessions; binary_search returns an index inside the searched slice")
    pub fn slot_of(&self, node: u32, peer: AsId) -> Option<u32> {
        let stripe = &self.lookup[self.range(node)];
        stripe
            .binary_search_by_key(&peer, |&(p, _)| p)
            .ok()
            .map(|i| stripe[i].1)
    }

    /// Index of node `node`'s slot 0 in the global session id space —
    /// the base for flat per-session side tables (the simulator's MRAI
    /// epoch array indexes `first_session(node) + slot`).
    // detflow::allow(panic-surface, reason = "node <= len() is the caller contract and offsets has len()+1 entries by construction")
    pub fn first_session(&self, node: u32) -> u32 {
        self.offsets[node as usize]
    }

    /// Total sessions across all nodes.
    pub fn total_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Deterministic estimate of the slab's resident bytes (model
    /// constants, not `size_of`; see module docs).
    pub fn arena_bytes(&self) -> u64 {
        self.sessions.len() as u64 * BYTES_PER_SESSION * 2 // sessions + lookup
            + self.offsets.len() as u64 * 4
    }
}

/// Structure-of-arrays per-prefix state for one node: parallel columns
/// addressed by a sorted prefix row index, plus a prefix-major
/// Adj-RIB-in matrix.
#[derive(Clone, Debug)]
pub struct PrefixTable {
    slots: u32,
    /// Sorted prefix column: the row index.
    prefixes: Vec<Prefix>,
    /// True while this node originates the row's prefix.
    originated: Vec<bool>,
    /// Loc-RIB best: a slot, [`SELF_SLOT`], or [`NO_BEST`].
    best_slot: Vec<u32>,
    /// The best AS path as received (empty for self-originated routes
    /// and for [`NO_BEST`] rows).
    best_path: Vec<AsPath>,
    /// Cached packed preference key per Adj-RIB-in cell (same indexing
    /// as `rib_in`; meaningful only while the cell holds a route). Lets
    /// the decision process compare candidates by one integer compare
    /// instead of re-deriving the full preference tuple from the path.
    rib_key: Vec<u128>,
    /// Per-row candidate slots sorted ascending by `rib_key` — the last
    /// entry is the best route. Maintained incrementally with damping
    /// off: a withdrawal is a positional remove (zero preference
    /// comparisons) and an announcement one comparison against the top,
    /// so no decision run ever rescans the row.
    order: Vec<Vec<u32>>,
    /// Per-row unranked candidates, in arrival order: routes that lost
    /// their one comparison against the then-best and whose rank among
    /// the rest is not yet needed. Invariant: every limbo entry's key is
    /// below the current top of `order` (it lost to the top reigning at
    /// its arrival, and the top only ever rises until it is removed —
    /// which drains limbo into `order`). Defers the sort work to
    /// withdrawal storms, where it amortizes to one binary insertion per
    /// candidate instead of a full rescan per withdrawal.
    limbo: Vec<Vec<u32>>,
    /// Whether `order` is exact for the row. Cleared wholesale when
    /// route-eligibility rules change (damping reconfiguration); an
    /// invalid row is rebuilt — with counted comparisons — on its next
    /// undamped decision run.
    order_valid: Vec<bool>,
    /// Adj-RIB-in, prefix-major: `rib_in[row * slots + slot]`.
    rib_in: Vec<Option<AsPath>>,
}

impl PrefixTable {
    /// Creates an empty table for a node with `slots` sessions.
    pub fn new(slots: u32) -> Self {
        PrefixTable {
            slots,
            prefixes: Vec::new(),
            originated: Vec::new(),
            best_slot: Vec::new(),
            best_path: Vec::new(),
            rib_key: Vec::new(),
            order: Vec::new(),
            limbo: Vec::new(),
            order_valid: Vec::new(),
            rib_in: Vec::new(),
        }
    }

    /// Number of prefix rows.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// True if no prefix has any state.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// The row of `prefix`, if present.
    pub fn row(&self, prefix: Prefix) -> Option<usize> {
        self.prefixes.binary_search(&prefix).ok()
    }

    /// The row of `prefix`, inserting an empty row if absent.
    pub fn row_or_insert(&mut self, prefix: Prefix) -> usize {
        match self.prefixes.binary_search(&prefix) {
            Ok(row) => row,
            Err(row) => {
                let slots = self.slots as usize;
                self.prefixes.insert(row, prefix);
                self.originated.insert(row, false);
                self.best_slot.insert(row, NO_BEST);
                self.best_path.insert(row, AsPath::new());
                self.order.insert(row, Vec::new());
                self.limbo.insert(row, Vec::new());
                // A fresh row is vacuously in order: no candidates yet.
                self.order_valid.insert(row, true);
                self.rib_in.splice(
                    row * slots..row * slots,
                    std::iter::repeat_with(|| None).take(slots),
                );
                self.rib_key
                    .splice(row * slots..row * slots, std::iter::repeat_n(0, slots));
                row
            }
        }
    }

    /// The prefix at `row`.
    pub fn prefix_at(&self, row: usize) -> Prefix {
        self.prefixes[row]
    }

    /// The Adj-RIB-in stripe of `row`: one cell per slot.
    // detflow::allow(panic-surface, reason = "row is a live row index, and rib_in holds exactly len()*slots cells by construction")
    pub fn rib_in(&self, row: usize) -> &[Option<AsPath>] {
        let slots = self.slots as usize;
        &self.rib_in[row * slots..(row + 1) * slots]
    }

    /// One Adj-RIB-in cell.
    // detflow::allow(panic-surface, reason = "row is a live row index and slot < slots is the session-slot contract; the cell index is inside the row's stripe")
    pub fn rib_in_cell(&self, row: usize, slot: u32) -> &Option<AsPath> {
        &self.rib_in[row * self.slots as usize + slot as usize]
    }

    /// Overwrites one Adj-RIB-in cell.
    // detflow::allow(panic-surface, reason = "row is a live row index and slot < slots is the session-slot contract; the cell index is inside the row's stripe")
    pub fn set_rib_in(&mut self, row: usize, slot: u32, path: Option<AsPath>) {
        self.rib_in[row * self.slots as usize + slot as usize] = path;
    }

    /// True while the node originates the row's prefix.
    // detflow::allow(panic-surface, reason = "row is a live row index; the originated column parallels the prefix column")
    pub fn originated(&self, row: usize) -> bool {
        self.originated[row]
    }

    /// Marks/unmarks the row's prefix as self-originated.
    // detflow::allow(panic-surface, reason = "row is a live row index; the originated column parallels the prefix column")
    pub fn set_originated(&mut self, row: usize, on: bool) {
        self.originated[row] = on;
    }

    /// The Loc-RIB best for `row`: `None` if unreachable, else
    /// `(slot-or-SELF_SLOT, path as received)`.
    // detflow::allow(panic-surface, reason = "row is a live row index; best columns parallel the prefix column")
    pub fn best(&self, row: usize) -> Option<(u32, &AsPath)> {
        match self.best_slot[row] {
            NO_BEST => None,
            slot => Some((slot, &self.best_path[row])),
        }
    }

    /// Replaces the Loc-RIB best for `row`.
    // detflow::allow(panic-surface, reason = "row is a live row index; best columns parallel the prefix column")
    pub fn set_best(&mut self, row: usize, best: Option<(u32, AsPath)>) {
        match best {
            None => {
                self.best_slot[row] = NO_BEST;
                self.best_path[row] = AsPath::new();
            }
            Some((slot, path)) => {
                debug_assert_ne!(slot, NO_BEST);
                self.best_slot[row] = slot;
                self.best_path[row] = path;
            }
        }
    }

    /// Whether the sorted candidate order for `row` is exact.
    // detflow::allow(panic-surface, reason = "row is a live row index; the order columns parallel the prefix column")
    pub(crate) fn order_valid(&self, row: usize) -> bool {
        self.order_valid[row]
    }

    /// Marks the sorted candidate order for `row` exact or stale.
    // detflow::allow(panic-surface, reason = "row is a live row index; the order columns parallel the prefix column")
    pub(crate) fn set_order_valid(&mut self, row: usize, valid: bool) {
        self.order_valid[row] = valid;
    }

    /// Applies one Adj-RIB-in cell change to the row's candidate
    /// bookkeeping, returning the number of key comparisons performed.
    /// `key` is the packed preference key of the slot's new route, or
    /// `None` for a withdrawal.
    ///
    /// Cost shape (the point of the limbo design):
    /// * withdrawal of a non-top candidate — **0** comparisons;
    /// * announcement into an occupied row — **1** comparison against the
    ///   top (winners append, losers park unranked in limbo);
    /// * removal of the top — limbo drains into the sorted order, one
    ///   counted binary insertion per parked candidate. Each candidate
    ///   pays its `log k` ranking cost at most once per reign of a top,
    ///   so a withdrawal storm costs `k·log k` amortized instead of the
    ///   `k` comparisons per withdrawal a rescan would pay.
    // detflow::allow(panic-surface, reason = "row is a live row index; positional scans yield indices inside the scanned vectors and cell indices stay within the row's key stripe")
    pub(crate) fn order_update(&mut self, row: usize, slot: u32, key: Option<u128>) -> u64 {
        let base = row * self.slots as usize;
        let mut comparisons = 0u64;
        // An improving (or identical) re-announcement at the reigning top
        // keeps its crown without consulting anyone else: the old key
        // already beat every other candidate.
        if let Some(key) = key {
            if self.order[row].last() == Some(&slot) {
                comparisons += 1;
                if key >= self.rib_key[base + slot as usize] {
                    self.rib_key[base + slot as usize] = key;
                    return comparisons;
                }
            }
        }
        // Remove any existing entry for the slot — positional scans, zero
        // preference comparisons. Removing the top invalidates the limbo
        // invariant (parked routes only ever lost to a *current or past*
        // top), so limbo drains into the sorted order first.
        let ord = &mut self.order[row];
        let was_top = match ord.iter().position(|&x| x == slot) {
            Some(pos) => {
                let top = pos + 1 == ord.len();
                ord.remove(pos);
                top
            }
            None => {
                let lim = &mut self.limbo[row];
                if let Some(pos) = lim.iter().position(|&x| x == slot) {
                    lim.remove(pos);
                }
                false
            }
        };
        if was_top {
            comparisons += self.drain_limbo(row);
        }
        if let Some(key) = key {
            self.rib_key[base + slot as usize] = key;
            match self.order[row].last().copied() {
                // Limbo is empty whenever the order is (draining on every
                // top removal guarantees it), so a lone candidate rules.
                None => self.order[row].push(slot),
                Some(top) => {
                    comparisons += 1;
                    if key > self.rib_key[base + top as usize] {
                        self.order[row].push(slot);
                    } else {
                        self.limbo[row].push(slot);
                    }
                }
            }
        }
        comparisons
    }

    /// Ranks every parked candidate into the sorted order (in arrival
    /// order, which is deterministic), returning the comparisons counted
    /// by the binary insertions.
    // detflow::allow(panic-surface, reason = "row is a live row index; the limbo column parallels the prefix column")
    fn drain_limbo(&mut self, row: usize) -> u64 {
        let mut comparisons = 0u64;
        let parked = std::mem::take(&mut self.limbo[row]);
        for slot in &parked {
            comparisons += self.binary_insert(row, *slot);
        }
        // Hand the emptied buffer back so the row keeps its allocation.
        self.limbo[row] = parked;
        self.limbo[row].clear();
        comparisons
    }

    /// Inserts `slot` (whose Adj-RIB-in cell must hold a route) into the
    /// row's sorted candidate order under cached key `key`, returning the
    /// number of key comparisons the binary search performed. Used by
    /// full rebuilds; incremental maintenance goes through
    /// [`PrefixTable::order_update`].
    // detflow::allow(panic-surface, reason = "row is a live row index and slot < slots is the caller contract, so the key-stripe cell is in bounds")
    pub(crate) fn order_insert(&mut self, row: usize, slot: u32, key: u128) -> u64 {
        self.rib_key[row * self.slots as usize + slot as usize] = key;
        self.binary_insert(row, slot)
    }

    /// Binary-inserts `slot` into the row's sorted order by its cached
    /// key, counting one comparison per probe. Keys are distinct across
    /// slots (the packed key ends in the neighbor id), so the insertion
    /// point is unambiguous.
    // detflow::allow(panic-surface, reason = "row is a live row index; lo/hi stay within the order vector and cell indices within the row's key stripe")
    fn binary_insert(&mut self, row: usize, slot: u32) -> u64 {
        let base = row * self.slots as usize;
        let key = self.rib_key[base + slot as usize];
        let ord = &mut self.order[row];
        let mut comparisons = 0u64;
        let (mut lo, mut hi) = (0usize, ord.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            comparisons += 1;
            if self.rib_key[base + ord[mid] as usize] < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        ord.insert(lo, slot);
        comparisons
    }

    /// Clears the row's candidate bookkeeping (prelude to a rebuild).
    // detflow::allow(panic-surface, reason = "row is a live row index; the order columns parallel the prefix column")
    pub(crate) fn order_clear_row(&mut self, row: usize) {
        self.order[row].clear();
        self.limbo[row].clear();
    }

    /// The best candidate slot for `row` per the sorted order (the
    /// largest cached key), or `None` for an empty row. Only meaningful
    /// while [`PrefixTable::order_valid`] holds.
    // detflow::allow(panic-surface, reason = "row is a live row index; the order columns parallel the prefix column")
    pub(crate) fn order_best(&self, row: usize) -> Option<u32> {
        self.order[row].last().copied()
    }

    /// Marks every row's sorted order stale (used when route-eligibility
    /// rules change, e.g. a damping reconfiguration).
    pub(crate) fn invalidate_orders(&mut self) {
        self.order_valid.fill(false);
    }

    /// Iterates `(row, prefix)` in sorted prefix order — the same
    /// deterministic order the former `BTreeMap` iteration gave.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, Prefix)> + '_ {
        self.prefixes.iter().copied().enumerate()
    }

    /// Drops all rows (columns keep their allocations).
    pub fn clear(&mut self) {
        self.prefixes.clear();
        self.originated.clear();
        self.best_slot.clear();
        self.best_path.clear();
        self.rib_key.clear();
        self.order.clear();
        self.limbo.clear();
        self.order_valid.clear();
        self.rib_in.clear();
    }

    /// Deterministic estimate of the table's resident bytes (model
    /// constants, not `size_of`; see module docs).
    pub fn arena_bytes(&self) -> u64 {
        self.prefixes.len() as u64 * (BYTES_PER_ROW + self.slots as u64 * BYTES_PER_RIB_CELL)
    }
}

/// Sparse per-(slot, prefix) damping state: a flat sorted vector with
/// binary-search access. Iteration and retention run in (slot, prefix)
/// order, matching the former `BTreeMap<(u32, Prefix), DampState>`.
/// Allocates nothing until the first flap is charged.
#[derive(Clone, Debug, Default)]
pub struct DampTable {
    entries: Vec<((u32, Prefix), DampState)>,
}

impl DampTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        DampTable::default()
    }

    /// True if no route has flap history.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of (slot, prefix) pairs with flap history.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The damping state for `(slot, prefix)`, if any.
    // detflow::allow(panic-surface, reason = "binary_search's Ok index is inside entries by contract")
    pub fn get(&self, slot: u32, prefix: Prefix) -> Option<&DampState> {
        self.entries
            .binary_search_by_key(&(slot, prefix), |&(k, _)| k)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Mutable damping state for `(slot, prefix)`, if any.
    // detflow::allow(panic-surface, reason = "binary_search's Ok index is inside entries by contract")
    pub fn get_mut(&mut self, slot: u32, prefix: Prefix) -> Option<&mut DampState> {
        self.entries
            .binary_search_by_key(&(slot, prefix), |&(k, _)| k)
            .ok()
            .map(|i| &mut self.entries[i].1)
    }

    /// The damping state for `(slot, prefix)`, default-inserting.
    // detflow::allow(panic-surface, reason = "on Ok the index is a hit inside entries; on Err it is the sorted insertion point just inserted at")
    pub fn get_or_insert(&mut self, slot: u32, prefix: Prefix) -> &mut DampState {
        let key = (slot, prefix);
        let i = match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, DampState::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Drops every entry for `slot` (session reset).
    pub fn clear_slot(&mut self, slot: u32) {
        self.entries.retain(|&((s, _), _)| s != slot);
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Deterministic estimate of resident bytes (model constants).
    pub fn arena_bytes(&self) -> u64 {
        self.entries.len() as u64 * BYTES_PER_DAMP_ENTRY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_topology::Relationship;

    fn session(peer: u32, rel: Relationship) -> Session {
        Session {
            peer: AsId(peer),
            rel,
        }
    }

    #[test]
    fn slab_translates_ids_to_slots_per_node() {
        let slab = SessionSlab::build(
            3,
            |i| AsId(i as u32),
            &[
                vec![session(1, Relationship::Peer), session(2, Relationship::Customer)],
                vec![session(0, Relationship::Peer)],
                vec![session(0, Relationship::Provider)],
            ],
        );
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.total_sessions(), 4);
        assert_eq!(slab.degree(0), 2);
        assert_eq!(slab.slot_of(0, AsId(1)), Some(0));
        assert_eq!(slab.slot_of(0, AsId(2)), Some(1));
        assert_eq!(slab.slot_of(0, AsId(3)), None);
        assert_eq!(slab.slot_of(1, AsId(0)), Some(0));
        assert_eq!(slab.sessions(2)[0].peer, AsId(0));
        assert!(slab.arena_bytes() > 0);
    }

    #[test]
    fn slab_lookup_is_sorted_independently_of_slot_order() {
        // Slots keep declaration order; the lookup stripe sorts by peer.
        let slab = SessionSlab::for_single(
            AsId(0),
            vec![
                session(9, Relationship::Peer),
                session(3, Relationship::Customer),
                session(7, Relationship::Provider),
            ],
        );
        assert_eq!(slab.slot_of(0, AsId(9)), Some(0));
        assert_eq!(slab.slot_of(0, AsId(3)), Some(1));
        assert_eq!(slab.slot_of(0, AsId(7)), Some(2));
        assert_eq!(slab.sessions(0)[1].peer, AsId(3));
    }

    #[test]
    #[should_panic(expected = "duplicate session")]
    fn slab_rejects_duplicate_peers() {
        SessionSlab::for_single(
            AsId(0),
            vec![session(1, Relationship::Peer), session(1, Relationship::Customer)],
        );
    }

    #[test]
    #[should_panic(expected = "session with self")]
    fn slab_rejects_self_sessions() {
        SessionSlab::for_single(AsId(5), vec![session(5, Relationship::Peer)]);
    }

    #[test]
    fn prefix_table_rows_stay_sorted_and_isolated() {
        let mut t = PrefixTable::new(2);
        let r9 = t.row_or_insert(Prefix(9));
        let r3 = t.row_or_insert(Prefix(3));
        assert_eq!((r9, r3), (0, 0), "later smaller prefix shifts the row");
        let rows: Vec<Prefix> = t.iter_rows().map(|(_, p)| p).collect();
        assert_eq!(rows, vec![Prefix(3), Prefix(9)]);

        let r3 = t.row(Prefix(3)).unwrap();
        let r9 = t.row(Prefix(9)).unwrap();
        t.set_rib_in(r3, 1, Some(AsPath::from(vec![AsId(7)])));
        t.set_originated(r9, true);
        t.set_best(r9, Some((SELF_SLOT, AsPath::new())));

        assert!(t.rib_in(r3)[0].is_none());
        assert!(t.rib_in(r3)[1].is_some());
        assert!(t.rib_in(r9).iter().all(Option::is_none), "rows are isolated");
        assert!(t.originated(r9) && !t.originated(r3));
        assert_eq!(t.best(r3), None);
        assert_eq!(t.best(r9), Some((SELF_SLOT, &AsPath::new())));

        // Inserting a middle row shifts the stripes coherently.
        let r5 = t.row_or_insert(Prefix(5));
        assert_eq!(r5, 1);
        assert!(t.rib_in(r5).iter().all(Option::is_none));
        let r3 = t.row(Prefix(3)).unwrap();
        assert!(t.rib_in(r3)[1].is_some(), "row 3's stripe survived the shift");
        let r9 = t.row(Prefix(9)).unwrap();
        assert_eq!(t.best(r9), Some((SELF_SLOT, &AsPath::new())));

        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.row(Prefix(3)), None);
    }

    #[test]
    fn prefix_table_arena_bytes_scale_with_rows_and_slots() {
        let mut t = PrefixTable::new(8);
        assert_eq!(t.arena_bytes(), 0);
        t.row_or_insert(Prefix(1));
        let one = t.arena_bytes();
        t.row_or_insert(Prefix(2));
        assert_eq!(t.arena_bytes(), 2 * one, "bytes are a pure row count model");
    }

    #[test]
    fn damp_table_orders_like_the_old_btreemap() {
        let mut d = DampTable::new();
        assert!(d.is_empty());
        d.get_or_insert(1, Prefix(5)).suppressed = true;
        d.get_or_insert(0, Prefix(9)).suppressed = false;
        d.get_or_insert(1, Prefix(2)).suppressed = true;
        assert_eq!(d.len(), 3);
        assert!(d.get(1, Prefix(5)).unwrap().suppressed);
        assert!(d.get(2, Prefix(5)).is_none());
        d.get_mut(0, Prefix(9)).unwrap().suppressed = true;
        assert!(d.get(0, Prefix(9)).unwrap().suppressed);
        d.clear_slot(1);
        assert_eq!(d.len(), 1);
        assert!(d.get(1, Prefix(2)).is_none());
        assert!(d.get(0, Prefix(9)).is_some());
        d.clear();
        assert!(d.is_empty());
    }
}
