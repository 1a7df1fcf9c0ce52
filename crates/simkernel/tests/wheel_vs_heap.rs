//! Property tests pinning the timing wheel to a binary-heap oracle.
//!
//! The artifact byte-identity contract rests on [`EventQueue`] delivering
//! the `(time, seq)` pop sequence for any trace. A binary heap keyed by
//! `(time, seq)` is easy to trust (it sorts by the key directly); these
//! properties drive the wheel and the heap with identical workloads —
//! including deliberate same-time bursts and interleaved mid-drain
//! schedules — and require exact agreement, plus conservation of the
//! wheel's own op counters (`cascades` included).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};
use bgpscale_simkernel::{EventQueue, QueueOpCounts, SimDuration, SimTime};
use proptest::prelude::*;

/// The parity oracle: a min-heap over `(time, seq, event)`. `seq` is
/// unique, so the event payload never takes part in the ordering.
#[derive(Default)]
struct HeapOracle {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
    now: SimTime,
}

impl HeapOracle {
    fn schedule(&mut self, time: SimTime, event: u64) {
        assert!(time >= self.now, "oracle: event scheduled in the past");
        self.heap.push(Reverse((time, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((time, _, event)) = self.heap.pop()?;
        self.now = time;
        Some((time, event))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn now(&self) -> SimTime {
        self.now
    }
}

/// Drives a wheel (with the given slot width) and a heap through the
/// same seeded workload, asserting pointwise pop equality throughout.
fn drive_pair(
    slot_bits: u32,
    seed: u64,
    script: &[bool],
    horizon: u64,
) -> (QueueOpCounts, u64) {
    let mut g = Xoshiro256StarStar::new(seed);
    let mut wheel: EventQueue<u64> = EventQueue::with_slot_bits(slot_bits, 0);
    let mut heap = HeapOracle::default();
    let mut scheduled = 0u64;
    for &do_pop in script {
        if do_pop {
            assert_eq!(wheel.pop(), heap.pop(), "mid-trace pop disagreement");
        } else {
            // Burst same-time events every few steps so FIFO tie-breaks
            // are exercised, not just distinct timestamps.
            let burst = 1 + g.next_below(3);
            let dt = SimDuration::from_micros(g.next_below(horizon));
            for _ in 0..burst {
                wheel.schedule(wheel.now() + dt, scheduled);
                heap.schedule(heap.now() + dt, scheduled);
                scheduled += 1;
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.now(), heap.now());
    }
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "drain pop disagreement");
        if a.is_none() {
            break;
        }
    }
    (wheel.op_counts(), scheduled)
}

proptest! {
    /// Exact pop-order parity on random interleaved traces, across
    /// several slot widths (1 bit stresses cascading hardest; 8 is the
    /// production default).
    #[test]
    fn wheel_matches_heap_on_random_traces(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..250),
        slot_bits in prop::sample::select(vec![1u32, 3, 8]),
    ) {
        drive_pair(slot_bits, seed, &script, 1_000_000);
    }

    /// Dense same-time collisions: a tiny horizon forces most events to
    /// share ticks, so parity here is parity of the FIFO tie-break.
    #[test]
    fn wheel_matches_heap_under_same_time_collisions(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        drive_pair(8, seed, &script, 4);
    }

    /// Wheel-op counter conservation: every scheduled event is pushed
    /// exactly once and popped exactly once; insertion-sort moves never
    /// exceed their comparisons; and cascades are bounded by the number
    /// of levels an entry can descend through (levels × pushes).
    #[test]
    fn wheel_op_counters_are_conserved(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..250),
        slot_bits in prop::sample::select(vec![1u32, 4, 8]),
    ) {
        let (ops, scheduled) = drive_pair(slot_bits, seed, &script, 1_000_000);
        prop_assert_eq!(ops.pushes, scheduled);
        prop_assert_eq!(ops.pops, scheduled, "the drain empties the queue");
        prop_assert!(ops.decreases <= ops.comparisons, "every due-list shift was paid for by a comparison");
        let levels = 64u64.div_ceil(slot_bits as u64);
        prop_assert!(
            ops.cascades <= levels * ops.pushes,
            "cascades {} exceed levels({levels}) × pushes({})",
            ops.cascades,
            ops.pushes
        );
    }

    /// The wheel's counters are a pure function of the trace: replays
    /// agree field-for-field, including `cascades`.
    #[test]
    fn wheel_op_counters_replay_identically(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let (a, _) = drive_pair(8, seed, &script, 250_000);
        let (b, _) = drive_pair(8, seed, &script, 250_000);
        prop_assert_eq!(a, b);
    }
}

/// Far-future timers (MRAI-like, ~30 s ahead of a µs-scale cursor) land
/// many levels up; parity must survive the deep cascades down.
#[test]
fn wheel_matches_heap_on_mrai_like_load() {
    let mut g = Xoshiro256StarStar::new(0x2008_0612);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap = HeapOracle::default();
    for i in 0..3_000u64 {
        // A mix of near deliveries (µs–ms) and far MRAI expiries (~30 s
        // with jitter), like the simulator's steady state.
        let dt = if g.next_below(4) == 0 {
            SimDuration::from_secs(30) + SimDuration::from_micros(g.next_below(7_500_000))
        } else {
            SimDuration::from_micros(1 + g.next_below(100_000))
        };
        wheel.schedule(wheel.now() + dt, i);
        heap.schedule(heap.now() + dt, i);
        if i % 2 == 0 {
            assert_eq!(wheel.pop(), heap.pop());
        }
    }
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    assert!(wheel.op_counts().cascades > 0, "far timers must cascade");
}
