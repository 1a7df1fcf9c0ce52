//! A deterministic discrete-event queue with exact operation counting.
//!
//! [`EventQueue`] is a hierarchical timing wheel: `O(1)` amortized
//! scheduling for the MRAI/timer-dominated load. An event scheduled `d`
//! ticks ahead is filed under the highest radix digit in which `d`
//! differs from the current cursor, and is re-filed ("cascaded") into
//! finer levels only when the cursor enters its window — a classic
//! hashed/hierarchical timing wheel (Varghese & Lauck), specialized here
//! for a simulator that needs **bit-identical artifacts**. It gives the
//! three guarantees the simulator depends on:
//!
//! 1. **Monotonic delivery** — events pop in non-decreasing time order, and
//!    scheduling an event in the past (before the last popped time) is a
//!    panic: it would mean the model violated causality.
//! 2. **Deterministic tie-breaking** — events scheduled for the same instant
//!    pop in the order they were scheduled (FIFO), via a monotonically
//!    increasing sequence number. The pop sequence is the total order over
//!    `(time, seq)`.
//! 3. **Exact operation counts** — every push, pop, due-list comparison
//!    and cascade is tallied in [`QueueOpCounts`]. Because delivery order
//!    is a total order over `(time, seq)`, these counts are a pure
//!    function of the schedule/pop trace: bit-identical across worker
//!    counts and machines, and therefore usable as CI perf-regression
//!    gates (see `obs::costmodel`).
//!
//! ## Exact `(time, seq)` order
//!
//! The wheel preserves the order *exactly* — not approximately, as
//! tick-rounding wheels do — because:
//!
//! 1. The tick is 1 µs, the full resolution of [`SimTime`], so no two
//!    distinct timestamps ever share a level-0 bucket.
//! 2. Levels partition the tick's bits: level `k` covers bit range
//!    `[k·B, (k+1)·B)` for `B = slot_bits`. An entry lives at the level
//!    of the *highest* bit in which its tick differs from the cursor,
//!    so every entry at level `k` agrees with the cursor on all bits
//!    `≥ (k+1)·B`. With equal upper bits, a bigger slot digit means a
//!    strictly later tick — so scanning slots upward from the cursor's
//!    digit visits pending ticks in increasing order, and every level-k
//!    entry precedes every level-(k+1) entry.
//! 3. Within a level-0 bucket all entries share one exact tick (all 64
//!    bits pinned), and buckets accumulate entries in increasing `seq`
//!    order, which the drain keeps; a counted insertion sort into the
//!    due list enforces the FIFO tie-break even so.
//!
//! The cursor only ever jumps to the window start of the first occupied
//! slot it finds (bottom level first), so no occupied slot is ever
//! skipped and `cursor == now` holds between operations. The property
//! tests in `tests/wheel_vs_heap.rs` pin the pop sequence to a binary-heap
//! oracle that sorts by `(time, seq)` directly.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Default number of bits per wheel level (256 slots/level, 8 levels).
pub const DEFAULT_SLOT_BITS: u32 = 8;

/// One scheduled entry: ordered by `(time, seq)`.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// Exact counts of the queue's operations. All fields are monotone
/// `u64` tallies over the queue's lifetime (they survive [`EventQueue::reset`],
/// like the sequence counter, so phase-boundary snapshots can be diffed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueOpCounts {
    /// Events scheduled (insertions).
    pub pushes: u64,
    /// Events popped (removals).
    pub pops: u64,
    /// Due-list insertion shifts. Structurally zero: buckets fill in
    /// increasing `seq` order, so the insertion sort never moves an entry.
    pub decreases: u64,
    /// `seq` comparisons of the due-list insertion sort.
    pub comparisons: u64,
    /// Entries re-filed into finer wheel levels during cursor jumps.
    pub cascades: u64,
}

impl QueueOpCounts {
    /// All tallies at zero. Preferred over `Default::default()` on the
    /// construction path so it stays free of trait dispatch the
    /// determinism analyzers would have to resolve by name.
    pub const ZERO: QueueOpCounts = QueueOpCounts {
        pushes: 0,
        pops: 0,
        decreases: 0,
        comparisons: 0,
        cascades: 0,
    };
}

/// One wheel level: `1 << slot_bits` buckets plus an occupancy bitmap
/// (one bit per bucket) so the next occupied slot is found by word
/// scans rather than walking empty buckets.
#[derive(Debug)]
struct Level<E> {
    buckets: Vec<Vec<Entry<E>>>,
    occ: Vec<u64>,
}

impl<E> Level<E> {
    fn new(slots: usize) -> Self {
        let mut buckets = Vec::with_capacity(slots);
        for _ in 0..slots {
            buckets.push(Vec::new());
        }
        Level {
            buckets,
            occ: vec![0u64; slots.div_ceil(64)],
        }
    }

    // detflow::allow(panic-surface, reason = "slot < buckets.len() = 1 << slot_bits by digit masking, and occ holds ceil(buckets/64) words, so slot >> 6 is in bounds")
    fn mark_occupied(&mut self, slot: usize) {
        self.occ[slot >> 6] |= 1u64 << (slot & 63);
    }

    // detflow::allow(panic-surface, reason = "slot < buckets.len() = 1 << slot_bits by digit masking, and occ holds ceil(buckets/64) words, so slot >> 6 is in bounds")
    fn mark_empty(&mut self, slot: usize) {
        self.occ[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Index of the first occupied slot at or after `from`, scanning the
    /// occupancy bitmap one 64-bit word at a time.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let first_word = from >> 6;
        let mut words = self.occ.iter().enumerate().skip(first_word);
        if let Some((w, &bits)) = words.next() {
            let masked = bits & (!0u64 << (from & 63));
            if masked != 0 {
                return Some((w << 6) + masked.trailing_zeros() as usize);
            }
        }
        for (w, &bits) in words {
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// A future-event list keyed by simulated time: a hierarchical timing
/// wheel over the full 64-bit tick space.
///
/// `ceil(64 / slot_bits)` levels of `1 << slot_bits` slots each cover
/// every representable [`SimTime`], so there is no horizon/overflow
/// list. Pending same-tick entries ready for delivery sit in `due`,
/// sorted by sequence number. `E` is the caller's event payload; the
/// queue is agnostic to it.
#[derive(Debug)]
pub struct EventQueue<E> {
    slot_bits: u32,
    /// `(1 << slot_bits) - 1`: mask extracting one level's digit.
    mask: u64,
    levels: Vec<Level<E>>,
    /// Entries at tick `due_tick`, in increasing `seq` order; the pop
    /// side drains this before consulting the wheel again.
    due: VecDeque<Entry<E>>,
    due_tick: u64,
    /// Lower bound on every pending tick; equals `now.as_micros()`
    /// between operations (it only runs ahead transiently inside
    /// `fill_due`).
    cursor: u64,
    len: usize,
    next_seq: u64,
    /// Time of the most recently popped event; new events may not be
    /// scheduled before it.
    now: SimTime,
    popped: u64,
    ops: QueueOpCounts,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with [`DEFAULT_SLOT_BITS`] and the clock at
    /// [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_slot_bits(DEFAULT_SLOT_BITS, 0)
    }

    /// Creates an empty queue with `slot_bits` bits per wheel level (the
    /// tick-granularity knob) and room for `due_capacity` same-tick
    /// entries. Pop order does not depend on `slot_bits`; the op-count
    /// mix (cascades vs comparisons) does.
    ///
    /// # Panics
    /// Panics unless `1 <= slot_bits <= 16` (beyond 16 the per-level
    /// bucket array is pointlessly large).
    pub fn with_slot_bits(slot_bits: u32, due_capacity: usize) -> Self {
        assert!(
            (1..=16).contains(&slot_bits),
            "slot_bits must be in 1..=16, got {slot_bits}"
        );
        let slots = 1usize << slot_bits;
        let n_levels = 64usize.div_ceil(slot_bits as usize);
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            levels.push(Level::new(slots));
        }
        EventQueue {
            slot_bits,
            mask: (slots - 1) as u64,
            levels,
            due: VecDeque::with_capacity(due_capacity),
            due_tick: 0,
            cursor: 0,
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            ops: QueueOpCounts::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far (a cheap progress metric and
    /// runaway-simulation guard).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Exact operation tallies since the queue was created. Monotone:
    /// [`EventQueue::reset`] does *not* clear them, so snapshots taken at
    /// phase boundaries can be subtracted to attribute work per phase.
    pub fn op_counts(&self) -> QueueOpCounts {
        self.ops
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock — the model would
    /// be violating causality.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        debug_assert_eq!(
            self.cursor,
            self.now.as_micros(),
            "cursor must equal now between operations"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ops.pushes += 1;
        self.len += 1;
        self.insert_entry(Entry { time, seq, event });
    }

    /// Pops the earliest event (by `(time, seq)`), advancing the clock to
    /// its timestamp. Returns `None` when the simulation has quiesced.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() && !self.fill_due() {
            return None;
        }
        let entry = self.due.pop_front()?;
        debug_assert_eq!(entry.time.as_micros(), self.due_tick);
        self.now = entry.time;
        self.len -= 1;
        self.popped += 1;
        self.ops.pops += 1;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(front) = self.due.front() {
            return Some(front.time);
        }
        if self.len == 0 {
            return None;
        }
        // Level 0: the found slot pins the full tick.
        let c0 = (self.cursor & self.mask) as usize;
        if let Some(s) = self.levels[0].first_occupied_from(c0) {
            return Some(SimTime::from_micros((self.cursor & !self.mask) | s as u64));
        }
        // Higher levels: the first occupied slot at the lowest non-empty
        // level holds the globally earliest entries (levels are strictly
        // time-ordered); its minimum timestamp is the answer.
        for (k, level) in self.levels.iter().enumerate().skip(1) {
            let from = ((self.cursor >> (k as u32 * self.slot_bits)) & self.mask) as usize;
            if let Some(s) = level.first_occupied_from(from) {
                return level.buckets[s].iter().map(|e| e.time).min();
            }
        }
        unreachable!("timing wheel has {} pending events but no occupied slot", self.len)
    }

    /// Iterates over the pending events in **unspecified order** (bucket
    /// order, not delivery order). Intended for diagnostics — counting
    /// pending events per kind for an error snapshot — where only
    /// order-insensitive aggregation is sound.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.due
            .iter()
            .chain(
                self.levels
                    .iter()
                    .flat_map(|l| l.buckets.iter().flat_map(|b| b.iter())),
            )
            .map(|e| (e.time, &e.event))
    }

    /// Removes all pending events and resets the clock and the `popped`
    /// counter. (Sequence numbering and [`QueueOpCounts`] are *not* reset
    /// mid-run; a fresh queue should be used for a fresh run — this is for
    /// reusing allocations.)
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            for bucket in &mut level.buckets {
                bucket.clear();
            }
            for word in &mut level.occ {
                *word = 0;
            }
        }
        self.due.clear();
        self.due_tick = 0;
        self.cursor = 0;
        self.len = 0;
        self.now = SimTime::ZERO;
        self.popped = 0;
    }

    /// Level of the highest radix digit in which `tick` differs from
    /// the cursor (0 when equal).
    fn level_of(&self, tick: u64) -> usize {
        let diff = tick ^ self.cursor;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / self.slot_bits) as usize
        }
    }

    /// Files an entry under its level/slot for the current cursor.
    // detflow::allow(panic-surface, reason = "level < levels.len() because level_of divides a bit index < 64 by slot_bits, and slot <= mask < buckets.len() by construction")
    fn insert_entry(&mut self, entry: Entry<E>) {
        let tick = entry.time.as_micros();
        debug_assert!(tick >= self.cursor, "entry behind the cursor");
        let level = self.level_of(tick);
        let slot = ((tick >> (level as u32 * self.slot_bits)) & self.mask) as usize;
        let l = &mut self.levels[level];
        l.buckets[slot].push(entry);
        l.mark_occupied(slot);
    }

    /// Advances the cursor to the earliest pending tick and moves that
    /// tick's entries into `due` (sorted by `seq`). Returns false iff
    /// nothing is pending.
    ///
    /// Scans bottom-up: a level-0 hit pins an exact tick; a hit at a
    /// higher level only narrows the window — the cursor jumps to the
    /// window start and the bucket cascades into finer levels.
    // detflow::allow(panic-surface, reason = "slot indices come from first_occupied_from over the occupancy bitmap (always in bounds); due[pos-1] is guarded by pos > 0; the final assert documents that len > 0 implies an occupied slot exists")
    fn fill_due(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            let c0 = (self.cursor & self.mask) as usize;
            if let Some(s) = self.levels[0].first_occupied_from(c0) {
                self.cursor = (self.cursor & !self.mask) | s as u64;
                self.due_tick = self.cursor;
                let mut bucket = std::mem::take(&mut self.levels[0].buckets[s]);
                self.levels[0].mark_empty(s);
                for entry in bucket.drain(..) {
                    debug_assert_eq!(entry.time.as_micros(), self.due_tick);
                    // Counted insertion sort by seq. Buckets accumulate
                    // in increasing seq order, so this is one comparison
                    // and zero moves per entry in practice, but the sort
                    // is what the FIFO tie-break contract rests on.
                    let mut pos = self.due.len();
                    while pos > 0 {
                        self.ops.comparisons += 1;
                        if self.due[pos - 1].seq <= entry.seq {
                            break;
                        }
                        pos -= 1;
                    }
                    self.ops.decreases += (self.due.len() - pos) as u64;
                    self.due.insert(pos, entry);
                }
                // Hand the emptied allocation back to the bucket.
                self.levels[0].buckets[s] = bucket;
                return true;
            }
            let mut advanced = false;
            for k in 1..self.levels.len() {
                let shift = k as u32 * self.slot_bits;
                let from = ((self.cursor >> shift) & self.mask) as usize;
                if let Some(s) = self.levels[k].first_occupied_from(from) {
                    debug_assert!(s > from, "cursor's own higher-level slot must be empty");
                    let mut bucket = std::mem::take(&mut self.levels[k].buckets[s]);
                    self.levels[k].mark_empty(s);
                    // Jump to the window start: digits above level k keep
                    // the cursor's value, level k takes the slot digit,
                    // everything below is zeroed.
                    let upper_shift = shift + self.slot_bits;
                    let upper = if upper_shift >= 64 {
                        0
                    } else {
                        (self.cursor >> upper_shift) << upper_shift
                    };
                    self.cursor = upper | ((s as u64) << shift);
                    for entry in bucket.drain(..) {
                        self.ops.cascades += 1;
                        self.insert_entry(entry);
                    }
                    self.levels[k].buckets[s] = bucket;
                    advanced = true;
                    break;
                }
            }
            assert!(
                advanced,
                "timing wheel invariant broken: {} pending events but no occupied slot",
                self.len
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut q = EventQueue::with_slot_bits(2, 0); // tiny slots force multi-level filing
        q.schedule(SimTime::from_micros(1_000_000), "far");
        q.schedule(SimTime::from_micros(3), "near");
        q.schedule(SimTime::from_micros(700), "mid");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
        assert!(q.op_counts().cascades > 0, "multi-level pops must cascade");
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i, "FIFO order broken at {i}");
        }
    }

    #[test]
    fn same_tick_pops_fifo_even_when_scheduled_mid_drain() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, 0u32);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        // Same-instant schedule while the due list is mid-drain: must
        // land after the already-queued seq 1.
        q.schedule(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(4), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 1);
        q.pop();
        q.schedule(SimTime::from_secs(5), 2); // same instant: fine
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_matches_pop_at_every_step() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        let mut g = Xoshiro256StarStar::new(7);
        let mut q = EventQueue::with_slot_bits(4, 0);
        for i in 0..500u64 {
            q.schedule(SimTime::from_micros(g.next_below(100_000)), i);
        }
        while let Some(peeked) = q.peek_time() {
            let (t, _) = q.pop().expect("peek promised an event");
            assert_eq!(t, peeked);
        }
        assert_eq!(q.popped(), 500);
    }

    #[test]
    fn full_tick_range_is_representable() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(u64::MAX), "heat death");
        q.schedule(SimTime::from_micros(0), "big bang");
        assert_eq!(q.pop().unwrap().1, "big bang");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "heat death");
        assert_eq!(t.as_micros(), u64::MAX);
    }

    #[test]
    fn reset_clears_state_but_keeps_tallies() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.pop();
        q.schedule(SimTime::from_secs(2), ());
        let before = q.op_counts();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.popped(), 0);
        assert_eq!(q.op_counts(), before, "op tallies are monotone");
        q.schedule(SimTime::from_micros(1), ()); // past-check reset too
        assert_eq!(q.pop().unwrap().0, SimTime::from_micros(1));
    }

    #[test]
    fn iter_pending_sees_every_event_once() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_micros(i), i);
        }
        q.pop();
        let mut pending: Vec<u64> = q.iter_pending().map(|(_, &e)| e).collect();
        pending.sort_unstable();
        assert_eq!(pending, vec![1, 2, 3, 4]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Model a chain: each popped event schedules the next one later.
        let mut q = EventQueue::with_slot_bits(3, 0);
        q.schedule(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        while let Some((t, hop)) = q.pop() {
            seen.push(hop);
            if hop < 5 {
                q.schedule(t + SimDuration::from_millis(10), hop + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_millis(50));
    }

    #[test]
    fn large_volume_stays_sorted() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        let mut g = Xoshiro256StarStar::new(1);
        let mut q = EventQueue::new();
        for _ in 0..10_000 {
            q.schedule(SimTime::from_micros(g.next_below(1_000_000)), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.popped(), 10_000);
    }

    #[test]
    fn op_counts_track_pushes_and_pops_exactly() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_micros(100 - i), i);
        }
        for _ in 0..20 {
            q.pop();
        }
        let ops = q.op_counts();
        assert_eq!(ops.pushes, 50);
        assert_eq!(ops.pops, 20);
        assert_eq!(ops.pushes, ops.pops + q.len() as u64, "conservation");
    }

    #[test]
    fn cascades_are_counted_and_decreases_stay_zero() {
        let mut q = EventQueue::with_slot_bits(1, 0); // 64 levels: maximum cascading
        for i in 0..64u64 {
            q.schedule(SimTime::from_micros(1 << i), i);
            q.schedule(SimTime::from_micros(1 << i), i);
        }
        while q.pop().is_some() {}
        let ops = q.op_counts();
        assert_eq!(ops.pushes, 128);
        assert_eq!(ops.pops, 128);
        assert!(ops.cascades > 0);
        assert!(ops.comparisons > 0, "same-tick pairs are compared");
        assert_eq!(ops.decreases, 0, "buckets fill in seq order");
    }

    #[test]
    fn op_counts_are_a_pure_function_of_the_trace() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        let run = || {
            let mut g = Xoshiro256StarStar::new(42);
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule(q.now() + SimDuration::from_micros(g.next_below(10_000)), i);
                if i % 3 == 0 {
                    q.pop();
                }
            }
            while q.pop().is_some() {}
            q.op_counts()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "slot_bits must be in 1..=16")]
    fn zero_slot_bits_is_rejected() {
        let _ = EventQueue::<()>::with_slot_bits(0, 0);
    }
}
