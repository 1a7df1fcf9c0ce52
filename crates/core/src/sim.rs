//! The event-driven network simulator.
//!
//! One [`bgpscale_bgp::BgpNode`] per AS, connected according to an
//! [`AsGraph`], driven by the deterministic event queue of
//! `bgpscale-simkernel`. Three event kinds exist (the paper's Fig. 2):
//!
//! * **Deliver** — a message arrives at a node and joins its FIFO input
//!   queue; if the node's processor is idle, service begins.
//! * **ProcDone** — the processor finishes one message (service time drawn
//!   uniformly from `[0, proc_delay_max]`), the protocol machine runs, and
//!   resulting transmissions are scheduled after the link delay.
//! * **MraiExpire** — a neighbor session's MRAI timer fires; queued
//!   updates flush and the timer re-arms (jittered) iff something was
//!   sent.
//!
//! The simulation **quiesces** when the event queue empties: every RIB is
//! stable and every MRAI timer idle. All randomness (service times,
//! jitter) comes from one seeded stream, so runs are exactly repeatable.

use std::sync::Arc;

use bgpscale_bgp::node::Actions;
use bgpscale_bgp::{BgpConfig, BgpNode, Prefix, SessionSlab, Update};
use bgpscale_obs::{
    EventKind, NoopObserver, OpCounts, Provenance, RootCauseKind, SimObserver, UpdateClass,
};
use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};
use bgpscale_simkernel::{EventQueue, SimDuration, SimTime, DEFAULT_SLOT_BITS};
use bgpscale_topology::{AsGraph, AsId};

use crate::churn::ChurnCollector;

/// Hard ceiling on events processed in one [`Simulator::run_to_quiescence`]
/// call; BGP with Gao–Rexford policies always converges, so hitting this
/// indicates a model bug rather than a slow run.
const DEFAULT_EVENT_LIMIT: u64 = 2_000_000_000;

/// Simulator events.
#[derive(Clone, Debug)]
enum SimEvent {
    /// `update` sent by `from` reaches `to`'s input queue.
    Deliver { to: AsId, from: AsId, update: Update },
    /// `node`'s processor finishes the message at the head of its queue.
    ProcDone { node: AsId },
    /// An MRAI timer for `node`'s neighbor session `slot` expires:
    /// the session timer when `prefix` is `None` (per-interface scope),
    /// a per-prefix timer otherwise. `epoch` invalidates expiries that
    /// were scheduled before a session reset disarmed the queue.
    MraiExpire {
        node: AsId,
        slot: u32,
        epoch: u32,
        prefix: Option<Prefix>,
    },
    /// A Route-Flap-Damping reuse wake-up for `(node, slot, prefix)`.
    RfdReuse { node: AsId, slot: u32, prefix: Prefix },
}

impl SimEvent {
    fn kind(&self) -> EventKind {
        match self {
            SimEvent::Deliver { .. } => EventKind::Deliver,
            SimEvent::ProcDone { .. } => EventKind::ProcDone,
            SimEvent::MraiExpire { .. } => EventKind::MraiExpire,
            SimEvent::RfdReuse { .. } => EventKind::RfdReuse,
        }
    }
}

/// A diagnostic snapshot of simulator state at the moment a run exceeded
/// its event budget. Built only on the failure path (never in the event
/// loop), so the happy path pays nothing for it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BudgetSnapshot {
    /// Simulated time when the budget ran out, in microseconds.
    pub sim_time_us: u64,
    /// Events still pending in the queue.
    pub queue_depth: u64,
    /// Pending events per kind, indexed by [`EventKind::index`]
    /// (deliver, proc_done, mrai_expire, rfd_reuse).
    pub pending_by_kind: [u64; 4],
    /// The node with the deepest input queue and that depth, if any
    /// inbox is non-empty (ties break toward the lowest node id).
    pub busiest_inbox: Option<(AsId, usize)>,
}

/// Error returned when a run exceeds its event budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventBudgetExceeded {
    /// Number of events processed before giving up.
    pub processed: u64,
    /// Where the simulation stood when it gave up.
    pub snapshot: BudgetSnapshot,
}

impl std::fmt::Display for EventBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.snapshot;
        write!(
            f,
            "simulation did not quiesce within {} events (model bug?): \
             t={}us, {} pending (deliver {}, proc_done {}, mrai_expire {}, rfd_reuse {})",
            self.processed,
            s.sim_time_us,
            s.queue_depth,
            s.pending_by_kind[0],
            s.pending_by_kind[1],
            s.pending_by_kind[2],
            s.pending_by_kind[3],
        )?;
        if let Some((node, depth)) = s.busiest_inbox {
            write!(f, ", busiest inbox {node} with {depth} queued")?;
        }
        Ok(())
    }
}

impl std::error::Error for EventBudgetExceeded {}

/// The network simulator: topology + BGP speakers + event loop.
///
/// Generic over a [`SimObserver`] that receives telemetry hooks from the
/// event loop. The default is [`NoopObserver`], whose empty `#[inline]`
/// hook bodies are erased by the optimizer — plain `Simulator` compiles to
/// the same code as before observers existed, so existing callers neither
/// change nor pay. Pass a real observer (e.g. `bgpscale_obs::Recorder`)
/// via [`SimTemplate::instantiate_observed`] to collect metrics/traces.
pub struct Simulator<O: SimObserver = NoopObserver> {
    obs: O,
    graph: Arc<AsGraph>,
    cfg: BgpConfig,
    /// The session slab shared by every node (and by the template that
    /// stamped this simulator out). Owns the global session id space that
    /// flat per-session side tables like `mrai_epoch` index into.
    slab: Arc<SessionSlab>,
    nodes: Vec<BgpNode>,
    /// Per-node FIFO input queue: (sender, message).
    inbox: Vec<std::collections::VecDeque<(AsId, Update)>>,
    /// Per-node processor-busy flag.
    busy: Vec<bool>,
    queue: EventQueue<SimEvent>,
    rng: Xoshiro256StarStar,
    churn: ChurnCollector,
    /// Time of the most recent Deliver or ProcDone (i.e. of actual routing
    /// activity, excluding trailing no-op timer expiries).
    last_activity: SimTime,
    event_limit: u64,
    /// Per-(node, slot) MRAI epoch; bumped by session resets so stale
    /// expiry events can be recognized and dropped. One flat `u32` per
    /// session in the slab's global session id space, indexed by
    /// [`Simulator::session_ix`] — a single allocation instead of one
    /// `Vec` per node.
    mrai_epoch: Vec<u32>,
    /// Links currently failed, stored as `(min, max)` endpoint pairs.
    down_links: std::collections::BTreeSet<(AsId, AsId)>,
    /// Messages lost because their link failed while they were in flight.
    messages_dropped: u64,
    /// Next root-cause id for provenance stamps. Ids are allocated
    /// sequentially per simulator, so they double as indices into the
    /// observer's root table.
    next_root: u32,
    /// MRAI timers currently armed across all nodes (occupancy telemetry).
    /// Each armed timer corresponds to one outstanding valid expiry event.
    armed_timers: u64,
    /// Cost-model tally: messages actually delivered (after in-flight loss
    /// filtering). Monotone.
    deliveries: u64,
    /// Cost-model tally: MRAI timers armed over the run. Monotone.
    mrai_armed_total: u64,
    /// Cost-model tally: MRAI expiries that fired while still valid
    /// (stale-epoch expiries excluded). Monotone.
    mrai_fired: u64,
}

fn link_key(a: AsId, b: AsId) -> (AsId, AsId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A pristine simulator blueprint: topology, protocol configuration, and
/// clean per-node state, all built once.
///
/// The experiment harness runs up to 100 independent C-events over the
/// *same* topology, each on a fresh simulator with its own derived seed.
/// Rebuilding the node array from the graph for each event repeats the
/// session/adjacency construction work; a template does it once and
/// [`SimTemplate::instantiate`] stamps out simulators by cloning the clean
/// nodes (cheap: pristine RIBs are empty, and the session slab — one
/// contiguous [`SessionSlab`] covering every node's adjacency — is shared
/// behind a single `Arc` by the template and every node of every
/// instantiation). Templates are `Send + Sync`, so one template can feed
/// every worker of a parallel fan-out.
#[derive(Clone)]
pub struct SimTemplate {
    graph: Arc<AsGraph>,
    cfg: BgpConfig,
    slab: Arc<SessionSlab>,
    nodes: Vec<BgpNode>,
    /// Timing-wheel slot-granularity override for stamped-out simulators;
    /// `None` keeps the simkernel default. Exists for the perf mutation
    /// gate (`repro perf --wheel-bits`), which perturbs the granularity
    /// and asserts the op-count gate catches the drift.
    wheel_slot_bits: Option<u32>,
}

impl SimTemplate {
    /// Builds the blueprint. Neighbor sessions take the adjacency order of
    /// the graph, which keeps everything deterministic: the whole
    /// topology's sessions land in one arena (`SessionSlab::build`), and
    /// each node holds a slab handle plus its index instead of a private
    /// session table.
    ///
    /// # Panics
    /// Panics if `cfg` fails validation.
    pub fn new(graph: Arc<AsGraph>, cfg: BgpConfig) -> SimTemplate {
        cfg.check()
            .unwrap_or_else(|e| panic!("invalid BGP config: {e}"));
        let ids: Vec<AsId> = graph.node_ids().collect();
        let sessions_of: Vec<Vec<bgpscale_bgp::node::Session>> = ids
            .iter()
            .map(|&id| {
                graph
                    .neighbors(id)
                    .iter()
                    .map(|nb| bgpscale_bgp::node::Session {
                        peer: nb.id,
                        rel: nb.rel,
                    })
                    .collect()
            })
            .collect();
        let slab = SessionSlab::build(ids.len(), |i| ids[i], &sessions_of);
        let nodes: Vec<BgpNode> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let mut node = BgpNode::from_slab(id, Arc::clone(&slab), i as u32, cfg.mrai_mode);
                node.set_mrai_scope(cfg.mrai_scope);
                node.set_sender_side_loop_detection(cfg.sender_side_loop_detection);
                node.set_rfd(cfg.rfd.clone());
                node
            })
            .collect();
        SimTemplate {
            graph,
            cfg,
            slab,
            nodes,
            wheel_slot_bits: None,
        }
    }

    /// The topology this template simulates.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The shared session slab (global session id space).
    pub fn slab(&self) -> &Arc<SessionSlab> {
        &self.slab
    }

    /// Overrides the timing-wheel slot granularity of stamped-out
    /// simulators (`None` restores the default). Bits outside the wheel's
    /// accepted range will panic at instantiation, matching
    /// `EventQueue::with_slot_bits`.
    pub fn set_wheel_slot_bits(&mut self, bits: Option<u32>) {
        self.wheel_slot_bits = bits;
    }

    /// Stamps out a fresh simulator with its own RNG stream.
    pub fn instantiate(&self, seed: u64) -> Simulator {
        self.instantiate_observed(seed, NoopObserver)
    }

    /// Like [`SimTemplate::instantiate`], but attaches `obs` to receive
    /// telemetry hooks from the event loop.
    pub fn instantiate_observed<O: SimObserver>(&self, seed: u64, obs: O) -> Simulator<O> {
        let n = self.graph.len();
        let churn = ChurnCollector::new(&self.graph);
        let mrai_epoch = vec![0u32; self.slab.total_sessions()];
        let slot_bits = self.wheel_slot_bits.unwrap_or(DEFAULT_SLOT_BITS);
        let queue = EventQueue::with_slot_bits(slot_bits, 1024);
        Simulator {
            obs,
            graph: Arc::clone(&self.graph),
            cfg: self.cfg.clone(),
            slab: Arc::clone(&self.slab),
            nodes: self.nodes.clone(),
            inbox: vec![std::collections::VecDeque::new(); n],
            busy: vec![false; n],
            queue,
            rng: Xoshiro256StarStar::new(seed),
            churn,
            last_activity: SimTime::ZERO,
            event_limit: DEFAULT_EVENT_LIMIT,
            mrai_epoch,
            down_links: Default::default(),
            messages_dropped: 0,
            next_root: 0,
            armed_timers: 0,
            deliveries: 0,
            mrai_armed_total: 0,
            mrai_fired: 0,
        }
    }
}

impl Simulator {
    /// Builds a simulator over `graph`. Neighbor sessions take the
    /// adjacency order of the graph, which keeps everything deterministic.
    ///
    /// # Panics
    /// Panics if `cfg` fails validation.
    pub fn new(graph: AsGraph, cfg: BgpConfig, seed: u64) -> Simulator {
        Simulator::new_shared(Arc::new(graph), cfg, seed)
    }

    /// Like [`Simulator::new`], but shares an existing `Arc`-held topology
    /// instead of taking ownership — the form parallel workers use.
    pub fn new_shared(graph: Arc<AsGraph>, cfg: BgpConfig, seed: u64) -> Simulator {
        SimTemplate::new(graph, cfg).instantiate(seed)
    }
}

impl<O: SimObserver> Simulator<O> {
    /// Read access to the attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Mutable access to the attached observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consumes the simulator, returning the observer with everything it
    /// collected. The idiomatic end of an observed run.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The topology being simulated.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The protocol configuration.
    pub fn config(&self) -> &BgpConfig {
        &self.cfg
    }

    /// Read access to a node's protocol state.
    pub fn node(&self, id: AsId) -> &BgpNode {
        &self.nodes[id.index()]
    }

    /// The churn collector (counter read access).
    pub fn churn(&self) -> &ChurnCollector {
        &self.churn
    }

    /// Mutable churn collector access (enable/disable/reset).
    pub fn churn_mut(&mut self) -> &mut ChurnCollector {
        &mut self.churn
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Time of the last routing activity (message delivery or processing
    /// completion) — the convergence instant of the previous phase,
    /// excluding trailing idle MRAI expiries.
    pub fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.popped()
    }

    /// Overrides the per-run event budget (tests use small budgets to
    /// exercise the error path).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Messages lost to links that failed while they were in flight.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Flat index of `(node, slot)` in the slab's global session id
    /// space — the row of `mrai_epoch` for that session. Node index and
    /// slab index coincide by construction ([`SimTemplate::new`] builds
    /// the slab from `graph.node_ids()` in order).
    fn session_ix(&self, node: AsId, slot: u32) -> usize {
        (self.slab.first_session(node.index() as u32) + slot) as usize
    }

    /// True if the `a`–`b` link is currently failed.
    pub fn link_down(&self, a: AsId, b: AsId) -> bool {
        self.down_links.contains(&link_key(a, b))
    }

    /// Allocates a fresh root-cause id for a workload action at `node`,
    /// notifies the observer, and returns the depth-0 provenance stamp
    /// every update caused by the action will carry (or derive from via
    /// [`Provenance::child`]).
    fn new_root(&mut self, kind: RootCauseKind, node: AsId) -> Provenance {
        let id = self.next_root;
        self.next_root += 1;
        self.obs.on_root_cause(id, kind, node, self.queue.now());
        Provenance::root(id)
    }

    /// Fails the `a`–`b` link (an "L-event"): both BGP sessions drop,
    /// each side invalidates everything learned from the other and
    /// notifies its remaining neighbors, and any in-flight messages on
    /// the link are lost.
    ///
    /// # Panics
    /// Panics if `a`–`b` is not a topology link or is already down.
    pub fn fail_link(&mut self, a: AsId, b: AsId) {
        assert!(
            self.graph.has_link(a, b),
            "fail_link on non-adjacent {a}–{b}"
        );
        assert!(
            self.down_links.insert(link_key(a, b)),
            "link {a}–{b} already down"
        );
        // One root cause covers both directions of the failure: churn on
        // either side is attributed to the same L-event.
        let cause = self.new_root(RootCauseKind::SessionDown, a);
        for (x, y) in [(a, b), (b, a)] {
            let slot = self.nodes[x.index()].slot_of(y).expect("adjacent");
            let epoch_ix = self.session_ix(x, slot);
            self.mrai_epoch[epoch_ix] += 1;
            // `session_down` force-resets the output queue, silently
            // disarming its timers; account for them before they vanish so
            // the occupancy gauge stays exact.
            let disarmed = u64::from(self.nodes[x.index()].armed_timer_count(slot));
            if disarmed > 0 {
                self.armed_timers -= disarmed;
                self.obs.on_timer_occupancy(self.armed_timers, self.queue.now());
            }
            let actions = self.nodes[x.index()].session_down_caused(slot, &cause);
            self.apply_actions(x, actions);
        }
    }

    /// Restores a previously failed link: both sessions re-establish and
    /// exchange their current tables.
    ///
    /// # Panics
    /// Panics if the link is not currently down.
    pub fn restore_link(&mut self, a: AsId, b: AsId) {
        assert!(
            self.down_links.remove(&link_key(a, b)),
            "link {a}–{b} is not down"
        );
        let cause = self.new_root(RootCauseKind::SessionUp, a);
        for (x, y) in [(a, b), (b, a)] {
            let slot = self.nodes[x.index()].slot_of(y).expect("adjacent");
            let actions = self.nodes[x.index()].session_up_caused(slot, &cause);
            self.apply_actions(x, actions);
        }
    }

    /// Node `origin` starts originating `prefix` (the "UP" action).
    // detflow::allow(panic-surface, reason = "origin is a graph node id and nodes is sized one entry per graph node at construction")
    pub fn originate(&mut self, origin: AsId, prefix: Prefix) {
        let cause = self.new_root(RootCauseKind::Originate, origin);
        let actions = self.nodes[origin.index()].originate_caused(prefix, &cause);
        self.apply_actions(origin, actions);
    }

    /// Node `origin` stops originating `prefix` (the "DOWN" action).
    // detflow::allow(panic-surface, reason = "origin is a graph node id and nodes is sized one entry per graph node at construction")
    pub fn withdraw(&mut self, origin: AsId, prefix: Prefix) {
        let cause = self.new_root(RootCauseKind::WithdrawOrigin, origin);
        let actions = self.nodes[origin.index()].withdraw_origin_caused(prefix, &cause);
        self.apply_actions(origin, actions);
    }

    /// Processes events up to and including `deadline`, then stops (the
    /// queue may still hold later events). Used by timed workloads (flap
    /// storms) that inject actions mid-convergence.
    ///
    /// # Errors
    /// [`EventBudgetExceeded`] if the event budget is exhausted first.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), EventBudgetExceeded> {
        let start = self.queue.popped();
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (time, event) = self.queue.pop().expect("peeked");
            self.dispatch(time, event);
            if self.queue.popped() - start > self.event_limit {
                return Err(self.budget_exceeded(start));
            }
        }
        Ok(())
    }

    /// Builds the budget-exhaustion error with a state snapshot — called
    /// only on the failure path, so the scans here cost nothing normally.
    // detflow::allow(panic-surface, reason = "pending_by_kind is a fixed [_; 4] indexed by the four EventKind variants")
    fn budget_exceeded(&self, start: u64) -> EventBudgetExceeded {
        let mut pending_by_kind = [0u64; 4];
        for (_, event) in self.queue.iter_pending() {
            pending_by_kind[event.kind().index()] += 1;
        }
        let busiest_inbox = self
            .inbox
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .max_by_key(|(i, q)| (q.len(), std::cmp::Reverse(*i)))
            .map(|(i, q)| (AsId(i as u32), q.len()));
        EventBudgetExceeded {
            processed: self.queue.popped() - start,
            snapshot: BudgetSnapshot {
                sim_time_us: self.queue.now().as_micros(),
                queue_depth: self.queue.len() as u64,
                pending_by_kind,
                busiest_inbox,
            },
        }
    }

    /// Runs until the event queue is empty: all RIBs stable, all timers
    /// idle. Returns the time of the last routing activity.
    ///
    /// # Errors
    /// [`EventBudgetExceeded`] if the configured event budget is exhausted
    /// first.
    pub fn run_to_quiescence(&mut self) -> Result<SimTime, EventBudgetExceeded> {
        let start = self.queue.popped();
        while let Some((time, event)) = self.queue.pop() {
            self.dispatch(time, event);
            if self.queue.popped() - start > self.event_limit {
                return Err(self.budget_exceeded(start));
            }
        }
        self.obs
            .on_quiescence(self.last_activity, self.queue.popped());
        Ok(self.last_activity)
    }

    /// Clears all routing state (RIBs, Adj-RIB-outs, pending updates) on
    /// every node, keeping topology, clock and counters. Used between
    /// C-events so per-event state cannot accumulate.
    ///
    /// # Panics
    /// Panics if events are still pending — reset is only meaningful at
    /// quiescence.
    pub fn reset_routing(&mut self) {
        assert!(
            self.queue.is_empty(),
            "reset_routing while {} events are pending",
            self.queue.len()
        );
        for (i, node) in self.nodes.iter_mut().enumerate() {
            debug_assert!(self.inbox[i].is_empty() && !self.busy[i]);
            node.reset_routing();
        }
    }

    // detflow::allow(panic-surface, reason = "node ids index per-node vecs sized at construction; a Deliver from a non-neighbor and a ProcDone with an empty inbox are scheduling-invariant breaches that must abort the run, not be masked")
    fn dispatch(&mut self, now: SimTime, event: SimEvent) {
        self.obs.on_event(event.kind(), now);
        match event {
            SimEvent::Deliver { to, from, update } => {
                if self.down_links.contains(&link_key(from, to)) {
                    // The link failed while the message was in flight.
                    self.messages_dropped += 1;
                    return;
                }
                self.last_activity = now;
                self.deliveries += 1;
                let slot = self.nodes[to.index()]
                    .slot_of(from)
                    .expect("delivery from non-neighbor");
                self.churn.record(to, slot, update.kind.is_withdraw(), now);
                // Depth the arriving message will reach once enqueued —
                // the receiver-side backlog signal.
                let inbox_depth = self.inbox[to.index()].len() as u32 + 1;
                self.obs.on_message(
                    from,
                    to,
                    self.nodes[to.index()].sessions()[slot as usize].rel,
                    if update.kind.is_withdraw() {
                        UpdateClass::Withdraw
                    } else {
                        UpdateClass::Announce
                    },
                    update.prefix.0,
                    update.kind.path().map(|p| p.len() as u32),
                    &update.provenance,
                    inbox_depth,
                    now,
                );
                self.inbox[to.index()].push_back((from, update));
                if !self.busy[to.index()] {
                    self.busy[to.index()] = true;
                    let service = self.draw_service_time();
                    self.queue
                        .schedule(now + service, SimEvent::ProcDone { node: to });
                }
            }
            SimEvent::ProcDone { node } => {
                self.last_activity = now;
                let (from, update) = self.inbox[node.index()]
                    .pop_front()
                    .expect("ProcDone with empty input queue");
                let actions = self.nodes[node.index()].handle_update_at(from, update, now);
                self.obs.on_decision_run(node, now);
                self.apply_actions(node, actions);
                if self.inbox[node.index()].is_empty() {
                    self.busy[node.index()] = false;
                } else {
                    let service = self.draw_service_time();
                    self.queue
                        .schedule(now + service, SimEvent::ProcDone { node });
                }
            }
            SimEvent::MraiExpire {
                node,
                slot,
                epoch,
                prefix,
            } => {
                if epoch != self.mrai_epoch[self.session_ix(node, slot)] {
                    return; // stale expiry from before a session reset
                }
                // A valid expiry consumes one armed timer; a rearm in the
                // resulting actions re-adds it in `apply_actions`.
                self.armed_timers -= 1;
                self.mrai_fired += 1;
                self.obs.on_timer_occupancy(self.armed_timers, now);
                let actions = match prefix {
                    None => self.nodes[node.index()].mrai_expired(slot),
                    Some(p) => self.nodes[node.index()].mrai_prefix_expired(slot, p),
                };
                self.obs
                    .on_mrai_flush(node, actions.sends.len() as u32, now);
                self.apply_actions(node, actions);
            }
            SimEvent::RfdReuse { node, slot, prefix } => {
                let cause = self.new_root(RootCauseKind::RfdReuse, node);
                let actions = self.nodes[node.index()].rfd_reuse_caused(slot, prefix, now, &cause);
                self.apply_actions(node, actions);
            }
        }
    }

    /// Schedules the transmissions and timer arms a protocol step produced.
    // detflow::allow(panic-surface, reason = "node ids and session slots index vecs sized at construction (nodes, mrai_epoch, per-session rows)")
    fn apply_actions(&mut self, node: AsId, actions: Actions) {
        let now = self.queue.now();
        let armed_delta = (actions.arm_timers.len() + actions.arm_prefix_timers.len()) as u64;
        for (slot, update) in actions.sends {
            let to = self.nodes[node.index()].sessions()[slot as usize].peer;
            self.queue.schedule(
                now + self.cfg.link_delay,
                SimEvent::Deliver {
                    to,
                    from: node,
                    update,
                },
            );
        }
        for slot in actions.arm_timers {
            let delay = self.draw_mrai_interval();
            let epoch = self.mrai_epoch[self.session_ix(node, slot)];
            self.queue.schedule(
                now + delay,
                SimEvent::MraiExpire {
                    node,
                    slot,
                    epoch,
                    prefix: None,
                },
            );
        }
        for (slot, prefix) in actions.arm_prefix_timers {
            let delay = self.draw_mrai_interval();
            let epoch = self.mrai_epoch[self.session_ix(node, slot)];
            self.queue.schedule(
                now + delay,
                SimEvent::MraiExpire {
                    node,
                    slot,
                    epoch,
                    prefix: Some(prefix),
                },
            );
        }
        for (slot, prefix, at) in actions.rfd_wakeups {
            debug_assert!(at >= now, "reuse time in the past");
            self.queue
                .schedule(at.max(now), SimEvent::RfdReuse { node, slot, prefix });
        }
        if armed_delta > 0 {
            self.armed_timers += armed_delta;
            self.mrai_armed_total += armed_delta;
            self.obs.on_timer_occupancy(self.armed_timers, now);
        }
    }

    /// The current cost-model snapshot: event-queue op tallies plus every
    /// node's decision/path/RIB counters plus the simulator's own
    /// delivery and MRAI counters, folded into one [`OpCounts`]. All
    /// constituents are monotone within a C-event — `arena_bytes_reserved`
    /// is a footprint gauge, but arenas only grow until the inter-event
    /// [`Simulator::reset_routing`] — so two snapshots can be subtracted
    /// to attribute work to the interval between them (see
    /// [`bgpscale_obs::costmodel`]).
    pub fn cost_counts(&self) -> OpCounts {
        let q = self.queue.op_counts();
        let mut c = OpCounts {
            queue_pushes: q.pushes,
            queue_pops: q.pops,
            queue_decreases: q.decreases,
            queue_comparisons: q.comparisons,
            queue_cascades: q.cascades,
            deliveries: self.deliveries,
            mrai_armed: self.mrai_armed_total,
            mrai_fired: self.mrai_fired,
            // The slab is immutable and shared; count it once, not per
            // node. Per-node tables are added below.
            arena_bytes_reserved: self.slab.arena_bytes(),
            ..OpCounts::default()
        };
        for node in &self.nodes {
            let n = node.cost_counters();
            c.decision_runs += n.decision_runs;
            c.route_comparisons += n.route_comparisons;
            c.rib_out_writes += n.rib_out_writes;
            c.path_intern_hits += n.path_intern_hits;
            c.path_intern_misses += n.path_intern_misses;
            c.mrai_coalesced += n.mrai_coalesced;
            c.arena_bytes_reserved += node.arena_bytes();
        }
        c
    }

    fn draw_service_time(&mut self) -> SimDuration {
        let us = self.cfg.proc_delay_max.as_micros();
        match self.cfg.service_model {
            // Uniform over (0, proc_delay_max]; never exactly zero so
            // that processing strictly follows arrival.
            bgpscale_bgp::config::ServiceTimeModel::Uniform => {
                SimDuration::from_micros(1 + self.rng.next_below(us.max(1)))
            }
            // Same mean as Uniform, no randomness.
            bgpscale_bgp::config::ServiceTimeModel::Constant => {
                SimDuration::from_micros((us / 2).max(1))
            }
        }
    }

    fn draw_mrai_interval(&mut self) -> SimDuration {
        let (lo, hi) = self.cfg.mrai_jitter;
        let factor = if lo >= hi { lo } else { self.rng.next_f64_range(lo, hi) };
        self.cfg.mrai.mul_f64(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_topology::{generate, GrowthScenario, NodeType, RegionSet, Relationship};

    const P: Prefix = Prefix(0);

    /// T0==T1 peering; M2→T0, M3→T1; C4→M2, C5→M3.
    fn chain_graph() -> (AsGraph, [AsId; 6]) {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t0 = g.add_node(NodeType::T, r);
        let t1 = g.add_node(NodeType::T, r);
        let m2 = g.add_node(NodeType::M, r);
        let m3 = g.add_node(NodeType::M, r);
        let c4 = g.add_node(NodeType::C, r);
        let c5 = g.add_node(NodeType::C, r);
        g.add_peer_link(t0, t1);
        g.add_transit_link(m2, t0);
        g.add_transit_link(m3, t1);
        g.add_transit_link(c4, m2);
        g.add_transit_link(c5, m3);
        (g, [t0, t1, m2, m3, c4, c5])
    }

    #[test]
    fn announcement_reaches_every_node() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 1);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        for &id in &ids {
            assert!(
                sim.node(id).best_route(P).is_some(),
                "{id} has no route after convergence"
            );
        }
    }

    #[test]
    fn converged_paths_are_valley_free_shortest() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 2);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        // C5's route: up M3, up T1, peer T0, down M2, down C4 = 5 hops.
        let (next, path) = sim.node(ids[5]).best_route(P).unwrap();
        assert_eq!(next, Some(ids[3]));
        assert_eq!(path.len(), 5);
        assert_eq!(*path.last().unwrap(), ids[4], "path ends at the origin");
    }

    #[test]
    fn withdraw_removes_all_routes() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 3);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        for &id in &ids {
            if id != ids[4] {
                assert!(
                    sim.node(id).best_route(P).is_none(),
                    "{id} still routes a withdrawn prefix"
                );
            }
        }
    }

    #[test]
    fn reannouncement_restores_identical_routes() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 4);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        let before: Vec<_> = ids
            .iter()
            .map(|&id| sim.node(id).best_route(P).map(|(n, p)| (n, p.clone())))
            .collect();
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        let after: Vec<_> = ids
            .iter()
            .map(|&id| sim.node(id).best_route(P).map(|(n, p)| (n, p.clone())))
            .collect();
        assert_eq!(before, after, "routing must return to the same fixpoint");
    }

    #[test]
    fn same_seed_same_message_count() {
        let (g, ids) = chain_graph();
        let mut a = Simulator::new(g.clone(), BgpConfig::default(), 5);
        let mut b = Simulator::new(g, BgpConfig::default(), 5);
        for sim in [&mut a, &mut b] {
            sim.churn_mut().set_enabled(true);
            sim.originate(ids[4], P);
            sim.run_to_quiescence().unwrap();
        }
        assert_eq!(a.churn().total(), b.churn().total());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn churn_counting_respects_enable_flag() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 6);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.churn().total(), 0, "collector starts disabled");
        sim.churn_mut().set_enabled(true);
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        assert!(sim.churn().total() > 0);
    }

    #[test]
    fn single_homed_chain_counts_minimal_updates() {
        // In a pure chain, each node hears exactly one withdrawal and one
        // announcement per C-event (the TREE result of §5.2).
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 7);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.churn_mut().set_enabled(true);
        sim.withdraw(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        for &id in &ids {
            if id == ids[4] {
                continue;
            }
            let got = sim.churn().node_total(id);
            assert_eq!(got, 2, "{id} expected exactly DOWN+UP, got {got}");
        }
    }

    #[test]
    fn wrate_generates_at_least_as_much_churn() {
        let g = generate(GrowthScenario::Baseline, 200, 42);
        let origin = g
            .node_ids()
            .find(|&id| g.node_type(id) == NodeType::C)
            .unwrap();
        let mut total = [0u64; 2];
        for (i, cfg) in [BgpConfig::no_wrate(), BgpConfig::wrate()].into_iter().enumerate() {
            let mut sim = Simulator::new(g.clone(), cfg, 8);
            sim.originate(origin, P);
            sim.run_to_quiescence().unwrap();
            sim.churn_mut().set_enabled(true);
            sim.withdraw(origin, P);
            sim.run_to_quiescence().unwrap();
            sim.originate(origin, P);
            sim.run_to_quiescence().unwrap();
            total[i] = sim.churn().total();
        }
        assert!(
            total[1] >= total[0],
            "WRATE ({}) produced less churn than NO-WRATE ({})",
            total[1],
            total[0]
        );
    }

    #[test]
    fn cost_counts_are_exactly_repeatable_and_monotone() {
        let (g, ids) = chain_graph();
        let run = || {
            let mut sim = Simulator::new(g.clone(), BgpConfig::default(), 21);
            sim.originate(ids[4], P);
            sim.run_to_quiescence().unwrap();
            let mid = sim.cost_counts();
            sim.withdraw(ids[4], P);
            sim.run_to_quiescence().unwrap();
            (mid, sim.cost_counts())
        };
        let (mid_a, end_a) = run();
        let (mid_b, end_b) = run();
        assert_eq!(mid_a, mid_b, "same seed, same op counts");
        assert_eq!(end_a, end_b);
        // Monotone: the DOWN phase only adds work.
        let delta = end_a.since(&mid_a);
        assert!(delta.deliveries > 0, "withdrawals were delivered");
        assert_eq!(end_a.since(&delta), mid_a);
        // Conservation at quiescence: every push was popped.
        assert_eq!(end_a.queue_pushes, end_a.queue_pops);
        assert!(end_a.decision_runs > 0);
        assert!(end_a.mrai_armed >= end_a.mrai_fired);
    }

    #[test]
    fn template_shares_one_session_slab_across_nodes_and_instances() {
        let (g, ids) = chain_graph();
        let template = SimTemplate::new(Arc::new(g), BgpConfig::default());
        let slab = Arc::clone(template.slab());
        assert_eq!(slab.len(), 6);
        assert_eq!(slab.total_sessions(), 10, "5 links, 2 sessions each");
        let mut a = template.instantiate(1);
        let b = template.instantiate(2);
        for sim in [&a, &b] {
            for &id in &ids {
                assert!(
                    Arc::ptr_eq(sim.node(id).slab(), &slab),
                    "{id} must borrow the template slab, not own a copy"
                );
            }
        }
        // The flat epoch table spans the global session id space and the
        // stamped-out simulator still converges.
        a.originate(ids[4], P);
        a.run_to_quiescence().unwrap();
        assert!(a.node(ids[0]).best_route(P).is_some());
    }

    #[test]
    fn wheel_slot_bits_override_changes_the_op_mix_not_the_results() {
        let (g, ids) = chain_graph();
        let g = Arc::new(g);
        let mut template = SimTemplate::new(Arc::clone(&g), BgpConfig::default());
        let run = |t: &SimTemplate| {
            let mut sim = t.instantiate(5);
            sim.churn_mut().set_enabled(true);
            sim.originate(ids[4], P);
            sim.run_to_quiescence().unwrap();
            (sim.cost_counts(), sim.churn().total(), sim.now())
        };
        let (ops_default, churn_default, now_default) = run(&template);
        template.set_wheel_slot_bits(Some(4));
        let (ops_coarse, churn_coarse, now_coarse) = run(&template);
        // Pop order is granularity-invariant, so the simulation results
        // are too — only the op-count mix (cascades vs comparisons) moves.
        assert_eq!(churn_default, churn_coarse);
        assert_eq!(now_default, now_coarse);
        assert_eq!(ops_default.queue_pops, ops_coarse.queue_pops);
        assert_ne!(ops_default.queue_cascades, ops_coarse.queue_cascades);
    }

    #[test]
    fn cost_counts_report_arena_footprint_and_cascades() {
        let (g, ids) = chain_graph();
        let template = SimTemplate::new(Arc::new(g), BgpConfig::default());
        let mut sim = template.instantiate(17);
        let empty = sim.cost_counts().arena_bytes_reserved;
        assert!(empty > 0, "the session slab alone reserves bytes");
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        let routed = sim.cost_counts();
        assert!(
            routed.arena_bytes_reserved > empty,
            "prefix rows grew the arenas: {} !> {empty}",
            routed.arena_bytes_reserved
        );
        // The wheel cascades on long waits (MRAI expiries sit several
        // levels up); the counter must flow through to OpCounts.
        assert!(routed.queue_cascades > 0, "expected wheel cascades");
    }

    #[test]
    fn event_budget_error_path() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 9);
        sim.set_event_limit(3);
        sim.originate(ids[4], P);
        let err = sim.run_to_quiescence().unwrap_err();
        assert!(err.processed > 3);
        assert!(err.to_string().contains("did not quiesce"));
    }

    #[test]
    fn reset_routing_allows_fresh_event() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 10);
        sim.originate(ids[4], P);
        sim.run_to_quiescence().unwrap();
        sim.reset_routing();
        assert!(sim.node(ids[0]).best_route(P).is_none());
        // A second event from a different origin works on the clean state.
        sim.originate(ids[5], Prefix(1));
        sim.run_to_quiescence().unwrap();
        assert!(sim.node(ids[0]).best_route(Prefix(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "reset_routing while")]
    fn reset_rejects_pending_events() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 11);
        sim.originate(ids[4], P);
        sim.reset_routing();
    }

    #[test]
    fn last_activity_precedes_final_timer_drain() {
        let (g, ids) = chain_graph();
        let mut sim = Simulator::new(g, BgpConfig::default(), 12);
        sim.originate(ids[4], P);
        let converged = sim.run_to_quiescence().unwrap();
        // Routing activity finishes within a couple of seconds of simulated
        // time; the queue then drains idle 22.5–30 s MRAI expiries.
        assert!(converged < SimTime::from_secs(5), "activity until {converged}");
        assert!(sim.now() >= SimTime::from_secs(20), "clock at {}", sim.now());
    }

    #[test]
    fn relationships_notwithstanding_no_valley_leaks() {
        // After convergence on a generated graph, check a policy safety
        // property: a node's best route learned from a peer or provider is
        // never exported to another peer/provider — verified indirectly:
        // peers/providers of a node N hold no path through N unless the
        // route is in N's customer branch.
        let g = generate(GrowthScenario::Baseline, 150, 13);
        let origin = g
            .node_ids()
            .find(|&id| g.node_type(id) == NodeType::C)
            .unwrap();
        let mut sim = Simulator::new(g, BgpConfig::default(), 14);
        sim.originate(origin, P);
        sim.run_to_quiescence().unwrap();
        let g = sim.graph();
        for id in g.node_ids() {
            if let Some((_, path)) = sim.node(id).best_route(P) {
                // Walk the path and verify it is valley-free: shapes are
                // up* (peer)? down*.
                let mut full = vec![id];
                full.extend_from_slice(path);
                let mut state = 0; // 0 = climbing, 1 = peered, 2 = descending
                for w in full.windows(2) {
                    // Path direction is from `id` toward origin; traffic
                    // flows that way, so classify each hop.
                    let rel = g.relationship(w[0], w[1]).expect("path uses real links");
                    state = match (state, rel) {
                        (0, Relationship::Provider) => 0,
                        (0, Relationship::Peer) => 1,
                        (0 | 1, Relationship::Customer) => 2,
                        (2, Relationship::Customer) => 2,
                        (s, r) => panic!("valley in path {full:?}: state {s}, hop {r:?}"),
                    };
                }
            }
        }
    }
}
