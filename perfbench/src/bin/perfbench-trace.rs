//! Traced per-layer run of one workload.
//!
//! Replays the workload's cells in turn, each the way
//! `bgpscale_core::harness` runs it, call by call from each layer's
//! public functions, with a span around every call: topology
//! generation, template build, then per C-event instantiate, warm-up,
//! DOWN, UP, factor fold and drop. Spans are kept in memory and written
//! to `--spans-out` when the run ends. Op counts
//! are diffed from `Simulator::cost_counts()` at the phase boundaries and
//! allocations from the counting allocator this binary installs.
//!
//! The traced per-event per-phase op counts must equal the untraced
//! harness's `CostModel::per_event()` exactly, which proves the traced
//! run measured the same work; a mismatch is a failed check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bgpscale_bgp::Prefix;
use bgpscale_core::factors::{node_factors, FactorAccumulator};
use bgpscale_core::harness::{run_experiment_with_cost, ExperimentConfig};
use bgpscale_core::sim::SimTemplate;
use bgpscale_obs::costmodel::{OpCounts, PhaseCosts};
use bgpscale_simkernel::alloc::{self, CountingAlloc};
use bgpscale_simkernel::rng::hash64_pair;
use bgpscale_simkernel::Stopwatch;
use bgpscale_topology::{generate, AsId, NodeType};
use perfbench::{
    finish, median, min, originators, panic_message, quantile, Args, CellSeeds, Corrupt, Tally,
    Value, PER_LAYER,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    alloc::snapshot().map_or(0, |s| s.allocs)
}

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: usize,
    /// The C-event index every span of one C-event shares.
    event: Option<usize>,
    allocs: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    cell: usize,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed_ns() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, event: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            cell: self.cell,
            event,
            allocs: 0,
        });
        let id = self.spans.len() - 1;
        self.spans[id].allocs = allocs();
        self.spans[id].start_ns = self.now_ns();
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = allocs() - span.allocs;
    }

    /// Runs `f` inside a span and returns its result.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        event: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), event);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.ns() - covered
            })
            .collect()
    }

    fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cell\": {}, \"event\": {}, \"self_ns\": {self_ns}, \"allocs\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.cell,
                s.event.map_or("null".to_string(), |e| e.to_string()),
                s.allocs,
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What one traced C-event measured beyond its spans.
struct TracedEvent {
    /// `None` when a phase exceeded the event budget.
    phases: Option<PhaseCosts>,
    churn: u64,
}

/// One traced cell: the spans it recorded live in the tracer.
struct TracedCell {
    /// Which of the workload's distinct cells this repeats.
    which: usize,
    root: usize,
    events: Vec<TracedEvent>,
}

/// Runs the phases of one C-event, the way `core::cevent::run_c_event`
/// does, with a span around each phase. Returns `None` when a phase
/// exceeds the event budget.
fn traced_phases(
    tr: &mut Tracer,
    sim: &mut bgpscale_core::Simulator,
    origin: AsId,
    prefix: Prefix,
    parent: usize,
    k: usize,
) -> Option<PhaseCosts> {
    let base = sim.cost_counts();
    sim.churn_mut().set_enabled(false);
    let warm = tr.time("warmup", parent, Some(k), || {
        sim.originate(origin, prefix);
        sim.run_to_quiescence()
    });
    warm.ok()?;
    let after_warm = sim.cost_counts();
    sim.churn_mut().reset();
    sim.churn_mut().set_enabled(true);
    let down = tr.time("down", parent, Some(k), || {
        sim.withdraw(origin, prefix);
        sim.run_to_quiescence()
    });
    down.ok()?;
    let after_down = sim.cost_counts();
    let up = tr.time("up", parent, Some(k), || {
        sim.originate(origin, prefix);
        sim.run_to_quiescence()
    });
    up.ok()?;
    let after_up = sim.cost_counts();
    sim.churn_mut().set_enabled(false);
    Some([
        after_warm.since(&base),
        after_down.since(&after_warm),
        after_up.since(&after_down),
    ])
}

fn traced_cell(
    tr: &mut Tracer,
    which: usize,
    cfg: &ExperimentConfig,
    rss_after_setup: &mut Option<f64>,
) -> TracedCell {
    let seeds = CellSeeds::of(cfg);
    let root = tr.open("cell", None, None);
    let graph = tr.time("topology.generate", root, None, || {
        Arc::new(generate(cfg.scenario, cfg.n, seeds.topo))
    });
    let node_types: Vec<NodeType> = graph.node_ids().map(|id| graph.node_type(id)).collect();
    let origins = originators(&graph, cfg);
    let template = tr.time("sim.template_build", root, None, || {
        let mut t = SimTemplate::new(Arc::clone(&graph), cfg.bgp.clone());
        t.set_wheel_slot_bits(cfg.wheel_slot_bits);
        t
    });
    if rss_after_setup.is_none() {
        *rss_after_setup = bgpscale_simkernel::rss::peak_rss_bytes().map(|b| b as f64 / 1e6);
    }

    let mut events = Vec::with_capacity(origins.len());
    for (k, &origin) in origins.iter().enumerate() {
        let ev = tr.open("cevent", Some(root), Some(k));
        let mut sim = tr.time("sim.instantiate", ev, Some(k), || {
            template.instantiate(hash64_pair(seeds.sim, k as u64))
        });
        if let Some(limit) = cfg.event_limit {
            sim.set_event_limit(limit);
        }
        let phases = traced_phases(tr, &mut sim, origin, Prefix(k as u32), ev, k);
        let churn = sim.churn().total();
        if phases.is_some() {
            tr.time("factors.fold", ev, Some(k), || {
                let mut acc = FactorAccumulator::new();
                for (id, &ty) in node_types.iter().enumerate() {
                    let node = AsId(id as u32);
                    if node != origin {
                        acc.add(ty, &node_factors(&sim, node));
                    }
                }
                std::hint::black_box(acc)
            });
        }
        tr.time("sim.drop", ev, Some(k), || drop(sim));
        tr.close(ev);
        events.push(TracedEvent { phases, churn });
    }
    tr.close(root);
    TracedCell {
        which,
        root,
        events,
    }
}

/// Durations in ms of every span named `name`.
fn ms_of(tr: &Tracer, name: &str) -> Vec<f64> {
    tr.spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

fn allocs_of(tr: &Tracer, name: &str) -> Vec<f64> {
    tr.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.allocs as f64)
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

fn main() {
    let args = Args::from_env();
    let Some(untraced_wall) = args.untraced_cell_wall_s else {
        eprintln!("--untraced-cell-wall-s is required\n{}", perfbench::USAGE);
        std::process::exit(2);
    };
    let cfgs = args.configs();
    let mut tally = Tally::default();
    let mut tr = Tracer {
        origin: Stopwatch::start(),
        spans: Vec::with_capacity(1 << 14),
        cell: 0,
    };

    // Rounds over the distinct cells, as the untraced run makes them.
    let mut cells: Vec<TracedCell> = Vec::new();
    let mut rss_after_setup = None;
    'window: loop {
        for (c, cfg) in cfgs.iter().enumerate() {
            tr.cell = cells.len();
            let cell = traced_cell(&mut tr, c, cfg, &mut rss_after_setup);
            tally.attempt(cell.events.len());
            let wall = tr.spans[cell.root].ns() as f64 / 1e9;
            cells.push(cell);
            let round_done = cells.len() >= cfgs.len();
            if round_done && tr.now_ns() as f64 / 1e9 + wall > args.seconds {
                break 'window;
            }
        }
    }
    if args.corrupt == Some(Corrupt::OpCount) {
        if let Some(p) = cells[0].events[0].phases.as_mut() {
            p[1].deliveries += 1;
        }
    }

    // Off the clock: the untraced harness must have done the same work.
    for (c, cfg) in cfgs.iter().enumerate() {
        let untraced = catch_unwind(AssertUnwindSafe(|| run_experiment_with_cost(cfg, 1)));
        let events = cfg.events;
        tally.attempt(events);
        let (mut report, cost) = match untraced {
            Ok(out) => out,
            Err(p) => {
                tally.fail(
                    events,
                    format!(
                        "cell {c}: untraced run panicked: {}",
                        panic_message(p.as_ref())
                    ),
                );
                continue;
            }
        };
        if args.corrupt == Some(Corrupt::Report) && c == 0 {
            report.mean_total_updates += 1.0;
        }
        for (r, cell) in cells.iter().enumerate().filter(|(_, t)| t.which == c) {
            let churn: u64 = cell.events.iter().map(|e| e.churn).sum();
            if report.mean_total_updates != churn as f64 / cell.events.len() as f64 {
                tally.fail(
                    events,
                    format!("traced cell {r}: churn differs from cell {c}'s report"),
                );
            }
            if cost.per_event().len() != cell.events.len() {
                tally.fail(
                    events,
                    format!(
                        "traced cell {r}: {} events, cell {c} untraced {}",
                        cell.events.len(),
                        cost.events()
                    ),
                );
                continue;
            }
            for (k, (ev, want)) in cell.events.iter().zip(cost.per_event()).enumerate() {
                match ev.phases {
                    None => tally.fail(
                        1,
                        format!("traced cell {r} event {k}: event budget exceeded"),
                    ),
                    Some(got) if got != *want => tally.fail(
                        1,
                        format!(
                            "traced cell {r} event {k}: op counts differ from cell {c}'s cost model"
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }
    }

    if let Some(path) = &args.spans_out {
        if let Err(e) = tr.write_jsonl(path) {
            tally.fail_check(format!("writing spans to {path}: {e}"));
        }
    }

    // Sums over every traced event that completed.
    let mut total = OpCounts::default();
    let mut done = 0u64;
    let mut budget_exceeded = 0u64;
    for ev in cells.iter().flat_map(|c| &c.events) {
        match &ev.phases {
            Some(phases) => {
                done += 1;
                for p in phases {
                    total.add(p);
                }
            }
            None => budget_exceeded += 1,
        }
    }
    let phase_names = ["warmup", "down", "up"];
    let (mut phase_ns, mut phase_allocs) = (0u64, 0u64);
    for s in tr.spans.iter().filter(|s| phase_names.contains(&s.name)) {
        phase_ns += s.ns();
        phase_allocs += s.allocs;
    }
    let totals_ms = ms_of(&tr, "cevent");
    // The mean over the distinct cells of each one's fastest traced
    // repeat, like the untraced `cell_wall_s`.
    let fastest: Vec<f64> = (0..cfgs.len())
        .map(|c| {
            let walls: Vec<f64> = cells
                .iter()
                .filter(|t| t.which == c)
                .map(|t| tr.spans[t.root].ns() as f64 / 1e9)
                .collect();
            min(&walls)
        })
        .collect();
    let traced_wall = fastest.iter().sum::<f64>() / fastest.len() as f64;
    let per_event = |x: u64| x as f64 / done as f64;

    let values = [
        median(&ms_of(&tr, "topology.generate")) / 1e3,
        median(&allocs_of(&tr, "topology.generate")),
        median(&ms_of(&tr, "sim.template_build")) / 1e3,
        median(&ms_of(&tr, "sim.instantiate")),
        median(&allocs_of(&tr, "sim.instantiate")),
        median(&ms_of(&tr, "sim.drop")),
        median(&ms_of(&tr, "warmup")),
        median(&ms_of(&tr, "down")),
        median(&ms_of(&tr, "up")),
        median(&totals_ms),
        quantile(&totals_ms, 0.9),
        ratio(phase_ns, total.deliveries),
        ratio(phase_ns, total.queue_pops),
        ratio(phase_allocs, total.deliveries),
        budget_exceeded as f64,
        median(&ms_of(&tr, "factors.fold")),
        per_event(total.queue_pops),
        ratio(total.queue_comparisons, total.queue_pops),
        ratio(total.queue_cascades, total.queue_pops),
        per_event(total.decision_runs),
        ratio(total.route_comparisons, total.decision_runs),
        per_event(total.mrai_armed),
        ratio(total.mrai_coalesced, total.mrai_armed),
        per_event(total.rib_out_writes),
        ratio(
            total.path_intern_hits,
            total.path_intern_hits + total.path_intern_misses,
        ),
        per_event(total.arena_bytes_reserved),
        rss_after_setup.unwrap_or(f64::NAN),
        per_event(total.deliveries),
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    ];

    // Self time per span name, the attribution a reader checks first.
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, ns) in tr.spans.iter().zip(tr.self_ns()) {
        *self_ms.entry(s.name).or_default() += ns as f64 / 1e6;
    }
    println!(
        "# workload {} seed {:#x}: n={} cells={} events per cell={} traced cells={} spans={} traced cell wall {} s vs untraced {} s",
        args.workload.name,
        args.seed,
        cfgs[0].n,
        cfgs.len(),
        cfgs[0].events,
        cells.len(),
        tr.spans.len(),
        traced_wall,
        untraced_wall
    );
    for (name, ms) in &self_ms {
        println!("# self time {name}: {ms:.3} ms");
    }
    let values: Vec<Value> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&spec, value)| Value { spec, value })
        .collect();
    std::process::exit(finish(&tally, &values));
}
