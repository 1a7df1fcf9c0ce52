//! [`Recorder`]: the standard metrics-and-trace observer.
//!
//! One `Recorder` observes one simulator instance (one C-event in the
//! experiment harness). It keeps its hot-path state in plain fields —
//! counters and fixed-bucket [`Histogram`]s, no map lookups per event —
//! and materializes a [`MetricsRegistry`] only when the run is over, so
//! the metrics-on overhead stays small (measured by `repro bench`).
//!
//! Everything a `Recorder` captures is a pure function of the simulated
//! trajectory: counters, integer histograms, and (optionally) sampled
//! trace records stamped with the C-event index plus a simulated-time
//! series. Merging per-event registries in event-index order therefore
//! reproduces identical bytes for any `--jobs` level.

use bgpscale_simkernel::SimTime;
use bgpscale_topology::{AsId, Relationship};

use crate::metrics::{Histogram, MetricsRegistry};
use crate::observer::{EventKind, SimObserver, UpdateClass};
use crate::provenance::{Provenance, RootCauseKind};
use crate::timeseries::{TimeSeries, TimeSeriesRecorder, TimeSeriesSpec, DEPTH_BOUNDS};
use crate::trace::{TraceBuffer, TraceRecord};

/// Bucket bounds for AS-path lengths (hops).
pub const PATH_LEN_BOUNDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// Bucket bounds for per-flush MRAI batch sizes (updates sent).
pub const FLUSH_BOUNDS: [u64; 5] = [1, 2, 4, 8, 16];

/// What a [`Recorder`] should capture beyond its always-on counters.
#[derive(Clone, Debug, Default)]
pub struct RecorderOptions {
    /// Keep 1-in-`n` trace records when `Some(n)` (`Some(1)` keeps all).
    pub trace_sample: Option<u64>,
    /// Record a simulated-time series when `Some`.
    pub timeseries: Option<TimeSeriesSpec>,
}

/// The metrics/trace observer. Create one per simulator instance.
#[derive(Clone, Debug)]
pub struct Recorder {
    events_by_kind: [u64; 4],
    msgs_by_rel: [u64; 3],
    announces: u64,
    withdraws: u64,
    mrai_flushes: u64,
    mrai_flushed_updates: u64,
    decision_runs: u64,
    quiescences: u64,
    last_quiescence_us: u64,
    final_events_processed: u64,
    /// Announced AS-path lengths over [`PATH_LEN_BOUNDS`].
    path_len: Histogram,
    /// Updates sent per MRAI flush over [`FLUSH_BOUNDS`].
    flush_batch: Histogram,
    // Provenance accounting (all deliveries, stamped or not).
    prov_stamped: u64,
    prov_unstamped: u64,
    prov_coalesced: u64,
    /// Causal depth of stamped deliveries over [`DEPTH_BOUNDS`].
    prov_depth: Histogram,
    /// Stamped deliveries by the *sending* edge's relation
    /// (to_customer / to_peer / to_provider).
    prov_to_rel: [u64; 3],
    roots_by_kind: [u64; 5],
    inbox_peak: u64,
    armed_peak: u64,
    trace: Option<TraceBuffer>,
    timeseries: Option<TimeSeriesRecorder>,
}

fn rel_index(rel: Relationship) -> usize {
    match rel {
        Relationship::Customer => 0,
        Relationship::Peer => 1,
        Relationship::Provider => 2,
    }
}

impl Recorder {
    /// A metrics-only recorder for C-event `event`.
    pub fn new(event: u32) -> Recorder {
        Recorder::with_options(event, RecorderOptions::default())
    }

    /// A recorder that additionally keeps 1-in-`sample_every` trace
    /// records (`Some(1)` keeps everything).
    pub fn with_trace(event: u32, trace_sample: Option<u64>) -> Recorder {
        Recorder::with_options(
            event,
            RecorderOptions {
                trace_sample,
                timeseries: None,
            },
        )
    }

    /// A recorder with the full option set.
    pub fn with_options(event: u32, opts: RecorderOptions) -> Recorder {
        Recorder {
            events_by_kind: [0; 4],
            msgs_by_rel: [0; 3],
            announces: 0,
            withdraws: 0,
            mrai_flushes: 0,
            mrai_flushed_updates: 0,
            decision_runs: 0,
            quiescences: 0,
            last_quiescence_us: 0,
            final_events_processed: 0,
            path_len: Histogram::new(PATH_LEN_BOUNDS.to_vec()),
            flush_batch: Histogram::new(FLUSH_BOUNDS.to_vec()),
            prov_stamped: 0,
            prov_unstamped: 0,
            prov_coalesced: 0,
            prov_depth: Histogram::new(DEPTH_BOUNDS.to_vec()),
            prov_to_rel: [0; 3],
            roots_by_kind: [0; 5],
            inbox_peak: 0,
            armed_peak: 0,
            trace: opts.trace_sample.map(|n| TraceBuffer::new(event, n)),
            timeseries: opts
                .timeseries
                .as_ref()
                .map(|spec| TimeSeriesRecorder::new(event, spec)),
        }
    }

    /// Total events observed across all kinds.
    pub fn events_total(&self) -> u64 {
        self.events_by_kind.iter().sum()
    }

    /// Consumes the recorder, returning its trace records (empty when
    /// tracing was off).
    pub fn into_trace(self) -> Vec<TraceRecord> {
        self.into_parts().0
    }

    /// Consumes the recorder, returning trace records and the one-event
    /// time series (when enabled).
    pub fn into_parts(self) -> (Vec<TraceRecord>, Option<TimeSeries>) {
        (
            self.trace.map(TraceBuffer::into_records).unwrap_or_default(),
            self.timeseries.map(TimeSeriesRecorder::finish),
        )
    }

    /// Materializes the deterministic metrics registry.
    pub fn registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for kind in EventKind::ALL {
            r.inc(
                &format!("events.{}", kind.name()),
                self.events_by_kind[kind.index()],
            );
        }
        r.inc("events.total", self.events_total());
        r.inc("messages.from_customer", self.msgs_by_rel[0]);
        r.inc("messages.from_peer", self.msgs_by_rel[1]);
        r.inc("messages.from_provider", self.msgs_by_rel[2]);
        r.inc("messages.announce", self.announces);
        r.inc("messages.withdraw", self.withdraws);
        r.inc("mrai.flushes", self.mrai_flushes);
        r.inc("mrai.flushed_updates", self.mrai_flushed_updates);
        r.inc("decision.runs", self.decision_runs);
        r.inc("sim.quiescences", self.quiescences);
        r.set_gauge("sim.last_quiescence_us", self.last_quiescence_us);
        r.set_gauge("sim.events_processed", self.final_events_processed);
        r.set_gauge("messages.path_len_max", self.path_len.max());
        r.inc("messages.path_len_sum", self.path_len.sum());
        r.inc("provenance.stamped", self.prov_stamped);
        r.inc("provenance.unstamped", self.prov_unstamped);
        r.inc("provenance.coalesced", self.prov_coalesced);
        r.inc("provenance.depth_sum", self.prov_depth.sum());
        r.set_gauge("provenance.depth_max", self.prov_depth.max());
        r.inc("provenance.to_customer", self.prov_to_rel[0]);
        r.inc("provenance.to_peer", self.prov_to_rel[1]);
        r.inc("provenance.to_provider", self.prov_to_rel[2]);
        for kind in RootCauseKind::ALL {
            r.inc(
                &format!("provenance.roots.{}", kind.name()),
                self.roots_by_kind[kind.index()],
            );
        }
        r.inc("provenance.roots", self.roots_by_kind.iter().sum());
        r.set_gauge("sim.inbox_depth_peak", self.inbox_peak);
        r.set_gauge("mrai.armed_peak", self.armed_peak);
        // Bounds are compile-time constants, so every recorder produces
        // mergeable shapes, each carrying its true count, sum and max.
        r.add_histogram("messages.path_len", &self.path_len);
        r.add_histogram("mrai.flush_batch", &self.flush_batch);
        r.add_histogram("provenance.depth", &self.prov_depth);
        r
    }
}

impl SimObserver for Recorder {
    #[inline]
    // detflow::allow(panic-surface, reason = "events_by_kind is a fixed array indexed by EventKind::index, which enumerates the variants")
    fn on_event(&mut self, kind: EventKind, _now: SimTime) {
        self.events_by_kind[kind.index()] += 1;
    }

    #[inline]
    // detflow::allow(panic-surface, reason = "msgs_by_rel and prov_to_rel are fixed arrays indexed by rel_index, which enumerates the variants")
    fn on_message(
        &mut self,
        _from: AsId,
        to: AsId,
        rel: Relationship,
        class: UpdateClass,
        prefix: u32,
        path_len: Option<u32>,
        provenance: &Provenance,
        inbox_depth: u32,
        now: SimTime,
    ) {
        self.msgs_by_rel[rel_index(rel)] += 1;
        match class {
            UpdateClass::Announce => {
                self.announces += 1;
                self.path_len.observe(u64::from(path_len.unwrap_or(0)));
            }
            UpdateClass::Withdraw => self.withdraws += 1,
        }
        self.inbox_peak = self.inbox_peak.max(u64::from(inbox_depth));
        if provenance.is_stamped() {
            self.prov_stamped += 1;
            self.prov_depth.observe(u64::from(provenance.depth()));
            if provenance.roots().len() > 1 {
                self.prov_coalesced += 1;
            }
            if let Some(stamp_rel) = provenance.rel() {
                self.prov_to_rel[rel_index(stamp_rel)] += 1;
            }
        } else {
            self.prov_unstamped += 1;
        }
        if let Some(ts) = &mut self.timeseries {
            ts.record_message(to, rel, class, provenance, inbox_depth, now.as_micros());
        }
        if let Some(t) = &mut self.trace {
            let root = provenance.primary_root();
            let depth = provenance.is_stamped().then(|| provenance.depth());
            t.offer(|event| TraceRecord {
                event,
                t_us: now.as_micros(),
                node: to.0,
                kind: EventKind::Deliver,
                prefix: Some(prefix),
                path_len,
                root,
                depth,
            });
        }
    }

    #[inline]
    // detflow::allow(panic-surface, reason = "roots_by_kind is a fixed array indexed by RootCauseKind::index, which enumerates the variants")
    fn on_root_cause(&mut self, id: u32, kind: RootCauseKind, node: AsId, now: SimTime) {
        self.roots_by_kind[kind.index()] += 1;
        if let Some(ts) = &mut self.timeseries {
            ts.record_root(id, kind, node, now.as_micros());
        }
    }

    #[inline]
    fn on_timer_occupancy(&mut self, armed: u64, now: SimTime) {
        self.armed_peak = self.armed_peak.max(armed);
        if let Some(ts) = &mut self.timeseries {
            ts.record_timer_occupancy(armed, now.as_micros());
        }
    }

    #[inline]
    fn on_mrai_flush(&mut self, node: AsId, sent: u32, now: SimTime) {
        self.mrai_flushes += 1;
        self.mrai_flushed_updates += u64::from(sent);
        self.flush_batch.observe(u64::from(sent));
        if let Some(t) = &mut self.trace {
            t.offer(|event| TraceRecord {
                event,
                t_us: now.as_micros(),
                node: node.0,
                kind: EventKind::MraiExpire,
                prefix: None,
                path_len: None,
                root: None,
                depth: None,
            });
        }
    }

    #[inline]
    fn on_decision_run(&mut self, node: AsId, now: SimTime) {
        self.decision_runs += 1;
        if let Some(t) = &mut self.trace {
            t.offer(|event| TraceRecord {
                event,
                t_us: now.as_micros(),
                node: node.0,
                kind: EventKind::ProcDone,
                prefix: None,
                path_len: None,
                root: None,
                depth: None,
            });
        }
    }

    #[inline]
    fn on_quiescence(&mut self, now: SimTime, events_processed: u64) {
        self.quiescences += 1;
        self.last_quiescence_us = now.as_micros();
        self.final_events_processed = events_processed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TimeSeriesSpec;
    use bgpscale_topology::NodeType;
    use std::sync::Arc;

    #[test]
    fn recorder_counts_hooks_into_registry() {
        let mut rec = Recorder::new(0);
        rec.on_event(EventKind::Deliver, SimTime::ZERO);
        rec.on_event(EventKind::ProcDone, SimTime::ZERO);
        rec.on_event(EventKind::Deliver, SimTime::ZERO);
        rec.on_message(
            AsId(1),
            AsId(2),
            Relationship::Customer,
            UpdateClass::Announce,
            0,
            Some(4),
            &Provenance::root(0).with_rel(Relationship::Provider),
            2,
            SimTime::from_millis(5),
        );
        rec.on_message(
            AsId(2),
            AsId(1),
            Relationship::Provider,
            UpdateClass::Withdraw,
            0,
            None,
            &Provenance::none(),
            1,
            SimTime::from_millis(6),
        );
        rec.on_root_cause(0, RootCauseKind::Originate, AsId(1), SimTime::ZERO);
        rec.on_timer_occupancy(5, SimTime::from_millis(6));
        rec.on_mrai_flush(AsId(1), 3, SimTime::from_millis(7));
        rec.on_decision_run(AsId(2), SimTime::from_millis(8));
        rec.on_quiescence(SimTime::from_secs(30), 123);

        let r = rec.registry();
        assert_eq!(r.counter("events.deliver"), 2);
        assert_eq!(r.counter("events.proc_done"), 1);
        assert_eq!(r.counter("events.total"), 3);
        assert_eq!(r.counter("messages.from_customer"), 1);
        assert_eq!(r.counter("messages.from_provider"), 1);
        assert_eq!(r.counter("messages.announce"), 1);
        assert_eq!(r.counter("messages.withdraw"), 1);
        assert_eq!(r.counter("mrai.flushes"), 1);
        assert_eq!(r.counter("mrai.flushed_updates"), 3);
        assert_eq!(r.counter("decision.runs"), 1);
        assert_eq!(r.gauge("sim.events_processed").unwrap().value, 123);
        assert_eq!(r.gauge("sim.last_quiescence_us").unwrap().value, 30_000_000);
        let h = r.histogram("messages.path_len").unwrap();
        assert_eq!(h.count(), 1);
        // Provenance accounting.
        assert_eq!(r.counter("provenance.stamped"), 1);
        assert_eq!(r.counter("provenance.unstamped"), 1);
        assert_eq!(r.counter("provenance.coalesced"), 0);
        assert_eq!(r.counter("provenance.to_provider"), 1);
        assert_eq!(r.counter("provenance.roots.originate"), 1);
        assert_eq!(r.counter("provenance.roots"), 1);
        assert_eq!(r.gauge("sim.inbox_depth_peak").unwrap().value, 2);
        assert_eq!(r.gauge("mrai.armed_peak").unwrap().value, 5);
        assert_eq!(r.histogram("provenance.depth").unwrap().count(), 1);
    }

    /// The registry histograms carry the true count, sum and max: they
    /// agree with the matching counters and gauges.
    fn assert_histograms_agree(r: &MetricsRegistry) {
        let path_len = r.histogram("messages.path_len").unwrap();
        assert_eq!(path_len.count(), r.counter("messages.announce"));
        assert_eq!(path_len.sum(), r.counter("messages.path_len_sum"));
        assert_eq!(path_len.max(), r.gauge("messages.path_len_max").unwrap().value);
        let depth = r.histogram("provenance.depth").unwrap();
        assert_eq!(depth.count(), r.counter("provenance.stamped"));
        assert_eq!(depth.sum(), r.counter("provenance.depth_sum"));
        assert_eq!(depth.max(), r.gauge("provenance.depth_max").unwrap().value);
        let flush = r.histogram("mrai.flush_batch").unwrap();
        assert_eq!(flush.count(), r.counter("mrai.flushes"));
        assert_eq!(flush.sum(), r.counter("mrai.flushed_updates"));
    }

    #[test]
    fn histograms_agree_with_counters_and_gauges_through_merges() {
        let mut merged = MetricsRegistry::new();
        for event in 0..3u32 {
            let mut rec = Recorder::new(event);
            let mut prov = Provenance::root(event);
            // Depths and path lengths run past the top bucket bounds, and
            // flush sizes include zero, so a bucket-edge reconstruction
            // would get sum and max wrong.
            for hop in 0..(20 + 10 * event) {
                rec.on_message(
                    AsId(1),
                    AsId(2),
                    Relationship::Customer,
                    UpdateClass::Announce,
                    0,
                    Some(hop % 17),
                    &prov,
                    1,
                    SimTime::from_micros(u64::from(hop)),
                );
                rec.on_mrai_flush(AsId(1), hop % 3, SimTime::from_micros(u64::from(hop)));
                prov = prov.child();
            }
            let r = rec.registry();
            assert_histograms_agree(&r);
            merged.merge(&r);
        }
        assert_histograms_agree(&merged);
        assert_eq!(merged.gauge("provenance.depth_max").unwrap().value, 39);
        assert_eq!(merged.gauge("messages.path_len_max").unwrap().value, 16);
    }

    #[test]
    fn trace_records_carry_event_index_kinds_and_provenance() {
        let mut rec = Recorder::with_trace(9, Some(1));
        rec.on_message(
            AsId(1),
            AsId(2),
            Relationship::Peer,
            UpdateClass::Announce,
            7,
            Some(2),
            &Provenance::root(4).child(),
            1,
            SimTime::from_micros(10),
        );
        rec.on_decision_run(AsId(2), SimTime::from_micros(20));
        rec.on_mrai_flush(AsId(3), 1, SimTime::from_micros(30));
        let t = rec.into_trace();
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|r| r.event == 9));
        assert_eq!(t[0].kind, EventKind::Deliver);
        assert_eq!(t[0].prefix, Some(7));
        assert_eq!(t[0].root, Some(4));
        assert_eq!(t[0].depth, Some(1));
        assert_eq!(t[1].kind, EventKind::ProcDone);
        assert_eq!(t[1].root, None);
        assert_eq!(t[2].kind, EventKind::MraiExpire);
    }

    #[test]
    fn metrics_only_recorder_has_no_trace() {
        let mut rec = Recorder::new(0);
        rec.on_decision_run(AsId(0), SimTime::ZERO);
        let (trace, series) = rec.into_parts();
        assert!(trace.is_empty());
        assert!(series.is_none());
    }

    #[test]
    fn timeseries_option_yields_a_one_event_series() {
        let spec = TimeSeriesSpec {
            bin_us: 1_000,
            node_types: Arc::from(vec![NodeType::T, NodeType::C]),
        };
        let mut rec = Recorder::with_options(
            3,
            RecorderOptions {
                trace_sample: None,
                timeseries: Some(spec),
            },
        );
        rec.on_root_cause(0, RootCauseKind::Originate, AsId(0), SimTime::ZERO);
        rec.on_message(
            AsId(0),
            AsId(1),
            Relationship::Provider,
            UpdateClass::Announce,
            0,
            Some(1),
            &Provenance::root(0),
            1,
            SimTime::from_micros(500),
        );
        let (_, series) = rec.into_parts();
        let series = series.expect("time series enabled");
        assert_eq!(series.events, 1);
        assert_eq!(series.total_updates(), 1);
        assert_eq!(series.roots.len(), 1);
        assert_eq!(series.roots[0].event, 3);
    }
}
