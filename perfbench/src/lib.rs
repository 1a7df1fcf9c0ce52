//! Shared pieces of the C-event benchmark: the workload table, the
//! harness-equivalent cell derivation, command-line parsing, the metric
//! tables and the result line.
//!
//! Two binaries use this library. `perfbench` measures the end-to-end
//! metrics with tracing off by calling
//! [`bgpscale_core::run_experiment_with_cost`], the per-cell entry every
//! `repro` figure goes through. `perfbench-trace` repeats the same cell
//! call by call from the layers' public functions, with spans and the
//! counting allocator, to attribute time, counts and allocations to
//! layers. `run.py` builds both; `--trace 1` runs the untraced binary first
//! for the `cell_wall_s` the tracing overhead is measured against.

use bgpscale_bgp::BgpConfig;
use bgpscale_core::harness::ExperimentConfig;
use bgpscale_simkernel::rng::{hash64_pair, Rng, Xoshiro256StarStar};
use bgpscale_topology::{generate, AsGraph, AsId, GrowthScenario, NodeType, Relationship};

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x2008_0612;

/// One named benchmark workload: `cells` distinct BASELINE cells of `n`
/// ASes and `events` C-events each, under one MRAI mode.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    /// Distinct cells a run repeats in turn. Each cell is short, so the
    /// fastest of its repeats can fall inside a quiet stretch of a shared
    /// machine; more than one keeps a run's work from resting on one
    /// topology and one handful of originators.
    pub cells: usize,
    pub events: usize,
    pub wrate: bool,
    /// `(n, events)` of the tiny shape the self-tests run.
    pub tiny: (usize, usize),
    /// Listed in `BENCHMARK.json`, so its metrics gate regressions. A
    /// workload whose end-to-end figures spread wider across seeds than
    /// the bounds allow stays runnable by name but is not listed.
    pub gated: bool,
}

/// The workloads; the gated ones in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "nowrate-5k",
        n: 5000,
        cells: 2,
        events: 8,
        wrate: false,
        tiny: (300, 6),
        gated: true,
    },
    Workload {
        name: "wrate-5k",
        n: 5000,
        cells: 2,
        events: 8,
        wrate: true,
        tiny: (300, 6),
        gated: true,
    },
    Workload {
        name: "setup-20k",
        n: 20000,
        cells: 1,
        events: 2,
        wrate: false,
        tiny: (800, 2),
        // A whole cell takes 5-7 s, too long for its fastest repeat to
        // escape minutes-long slow stretches of a shared host: two of three
        // ten-seed sets spread wider than the 0.24 bound.
        gated: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The cells this workload runs for `seed`: the first is the cell
    /// `repro` runs for that seed, the others have seeds hashed from it.
    pub fn configs(&self, seed: u64, tiny: bool) -> Vec<ExperimentConfig> {
        (0..self.cells)
            .map(|c| {
                let cell_seed = if c == 0 {
                    seed
                } else {
                    hash64_pair(seed, c as u64)
                };
                self.config(cell_seed, tiny)
            })
            .collect()
    }

    /// The experiment cell this workload runs for one cell seed.
    fn config(&self, seed: u64, tiny: bool) -> ExperimentConfig {
        let (n, events) = if tiny {
            self.tiny
        } else {
            (self.n, self.events)
        };
        ExperimentConfig {
            scenario: GrowthScenario::Baseline,
            n,
            events,
            seed,
            bgp: if self.wrate {
                BgpConfig::wrate()
            } else {
                BgpConfig::no_wrate()
            },
            event_limit: None,
            wheel_slot_bits: None,
        }
    }
}

/// The seeds and originators of one cell, derived exactly as
/// `bgpscale_core::harness` derives them, so the traced run replays the
/// untraced run's work.
#[derive(Clone, Copy, Debug)]
pub struct CellSeeds {
    pub topo: u64,
    pub sim: u64,
    pub pick: u64,
}

impl CellSeeds {
    pub fn of(cfg: &ExperimentConfig) -> CellSeeds {
        CellSeeds {
            topo: hash64_pair(cfg.seed, 0x7090),
            sim: hash64_pair(cfg.seed, 0x51B),
            pick: hash64_pair(cfg.seed, 0x0121),
        }
    }
}

/// The distinct C-type originators of a cell, in event order.
pub fn originators(graph: &AsGraph, cfg: &ExperimentConfig) -> Vec<AsId> {
    let mut c_nodes = graph.nodes_of_type(NodeType::C);
    let mut rng = Xoshiro256StarStar::new(CellSeeds::of(cfg).pick);
    rng.shuffle(&mut c_nodes);
    c_nodes.truncate(cfg.events.max(1));
    c_nodes
}

/// A fingerprint of the graph: node types and every adjacency with its
/// relationship, in id order.
pub fn topology_hash(graph: &AsGraph) -> u64 {
    let mut h = graph.len() as u64;
    for id in graph.node_ids() {
        h = hash64_pair(h, type_code(graph.node_type(id)));
        for nb in graph.neighbors(id) {
            let rel = match nb.rel {
                Relationship::Customer => 0,
                Relationship::Peer => 1,
                Relationship::Provider => 2,
            };
            h = hash64_pair(h, (u64::from(nb.id.0) << 2) | rel);
        }
    }
    h
}

fn type_code(ty: NodeType) -> u64 {
    match ty {
        NodeType::T => 0,
        NodeType::M => 1,
        NodeType::Cp => 2,
        NodeType::C => 3,
    }
}

/// What the untraced run checks a cell's outputs against: the topology's
/// fingerprint and per-type node counts, and the originators. Derived off
/// the clock.
#[derive(Debug, PartialEq, Eq)]
pub struct CellInputs {
    pub originators: Vec<AsId>,
    pub hash: u64,
    /// Node count per type, in `T, M, Cp, C` order.
    pub type_counts: [usize; 4],
}

impl CellInputs {
    pub fn derive(cfg: &ExperimentConfig) -> CellInputs {
        let graph = generate(cfg.scenario, cfg.n, CellSeeds::of(cfg).topo);
        CellInputs {
            originators: originators(&graph, cfg),
            hash: topology_hash(&graph),
            type_counts: NODE_TYPES.map(|ty| graph.count_of_type(ty)),
        }
    }

    /// One line naming the inputs, compared across invocations by the
    /// self-tests.
    pub fn describe(&self) -> String {
        let ids: Vec<String> = self.originators.iter().map(|a| a.0.to_string()).collect();
        format!(
            "# inputs: topology_hash={:016x} originators={}",
            self.hash,
            ids.join(",")
        )
    }
}

/// The node types in the order `ChurnReport::types` lists them.
pub const NODE_TYPES: [NodeType; 4] = [NodeType::T, NodeType::M, NodeType::Cp, NodeType::C];

/// A deliberate fault the self-tests inject to prove the gates trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    Report,
    OpCount,
}

/// Parsed command line, shared by both binaries.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub corrupt: Option<Corrupt>,
    /// Untraced `cell_wall_s` the traced run compares against.
    pub untraced_cell_wall_s: Option<f64>,
    /// Where the traced run writes its spans.
    pub spans_out: Option<String>,
}

pub const USAGE: &str = "usage: --workload <nowrate-5k|wrate-5k|setup-20k> [--seed N] \
[--seconds S] [--tiny] [--corrupt report|opcount] \
[--untraced-cell-wall-s X] [--spans-out PATH]";

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut tiny = false;
        let mut corrupt = None;
        let mut untraced_cell_wall_s = None;
        let mut spans_out = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                tiny = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = parse_u64(value)?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?
                }
                "--corrupt" => {
                    corrupt = Some(match value {
                        "report" => Corrupt::Report,
                        "opcount" => Corrupt::OpCount,
                        _ => return Err(format!("bad --corrupt {value:?}")),
                    })
                }
                "--untraced-cell-wall-s" => {
                    untraced_cell_wall_s = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("bad --untraced-cell-wall-s {value:?}"))?,
                    )
                }
                "--spans-out" => spans_out = Some(value.to_string()),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            tiny,
            corrupt,
            untraced_cell_wall_s,
            spans_out,
        })
    }

    /// Parses the process arguments, or prints usage and exits 2.
    pub fn from_env() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&argv).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    pub fn configs(&self) -> Vec<ExperimentConfig> {
        self.workload.configs(self.seed, self.tiny)
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad --seed {s:?}"))
}

/// How a metric relates to the work the program does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall time.
    Time,
    /// Memory footprint.
    Memory,
    /// Operations the implementation chose to do: a faster program may
    /// do fewer.
    Work,
    /// Protocol outcomes fixed by the seed: they must match exactly
    /// between two commits, and a drift is a behaviour change.
    Outcome,
    /// Failures counted against attempts.
    Failure,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Time => "time",
            Kind::Memory => "memory",
            Kind::Work => "work",
            Kind::Outcome => "outcome",
            Kind::Failure => "failure",
        }
    }
}

/// A metric's name, unit and direction, and what it should move.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
    /// The end-to-end metric and workload this metric should move.
    pub target: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    kind: Kind,
    target: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
        kind,
        target,
    }
}

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [MetricSpec; 4] = [
    spec(
        "setup_s",
        "s",
        false,
        Kind::Time,
        "seed to ready SimTemplate",
    ),
    spec(
        "cell_wall_s",
        "s",
        false,
        Kind::Time,
        "seed to ChurnReport + CostModel",
    ),
    spec(
        "updates_per_s",
        "1/s",
        true,
        Kind::Time,
        "UPDATE deliveries per simulated second of wall time",
    ),
    spec(
        "peak_rss_mb",
        "MB",
        false,
        Kind::Memory,
        "process high-water RSS",
    ),
];

const ALL_3: &str = "updates_per_s on all workloads";
const NW: &str = "updates_per_s on nowrate-5k";
const WR: &str = "updates_per_s on wrate-5k";

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [MetricSpec; 29] = [
    spec(
        "topology.generate_s",
        "s",
        false,
        Kind::Time,
        "setup_s, cell_wall_s on setup-20k (run by name, not gated); flat on 5k",
    ),
    spec(
        "topology.generate_allocs",
        "count",
        false,
        Kind::Work,
        "setup_s, cell_wall_s on setup-20k (run by name, not gated); flat on 5k",
    ),
    spec(
        "sim.template_build_s",
        "s",
        false,
        Kind::Time,
        "setup_s on all workloads",
    ),
    spec("sim.instantiate_ms", "ms", false, Kind::Time, NW),
    spec("sim.instantiate_allocs", "count", false, Kind::Work, NW),
    spec("sim.drop_ms", "ms", false, Kind::Time, NW),
    spec("cevent.warmup_ms.p50", "ms", false, Kind::Time, ALL_3),
    spec("cevent.down_ms.p50", "ms", false, Kind::Time, ALL_3),
    spec("cevent.up_ms.p50", "ms", false, Kind::Time, ALL_3),
    spec("cevent.total_ms.p50", "ms", false, Kind::Time, ALL_3),
    spec("cevent.total_ms.p90", "ms", false, Kind::Time, ALL_3),
    spec(
        "cevent.ns_per_delivery",
        "ns",
        false,
        Kind::Time,
        "updates_per_s; nowrate-5k vs setup-20k shows the working-set effect",
    ),
    spec(
        "cevent.ns_per_pop",
        "ns",
        false,
        Kind::Time,
        "updates_per_s; nowrate-5k vs setup-20k shows the working-set effect",
    ),
    spec(
        "cevent.allocs_per_delivery",
        "count",
        false,
        Kind::Work,
        ALL_3,
    ),
    spec(
        "cevent.budget_exceeded",
        "count",
        false,
        Kind::Failure,
        "failed C-events on all workloads",
    ),
    spec(
        "factors.fold_ms",
        "ms",
        false,
        Kind::Time,
        "cell_wall_s; flat everywhere",
    ),
    spec(
        "queue.pops_per_cevent",
        "count",
        false,
        Kind::Work,
        "updates_per_s on nowrate-5k; most on wrate-5k",
    ),
    spec(
        "queue.comparisons_per_pop",
        "count",
        false,
        Kind::Work,
        "updates_per_s on nowrate-5k; most on wrate-5k",
    ),
    spec(
        "queue.cascades_per_pop",
        "count",
        false,
        Kind::Work,
        "updates_per_s on nowrate-5k; most on wrate-5k",
    ),
    spec(
        "decision.runs_per_cevent",
        "count",
        false,
        Kind::Work,
        "updates_per_s on nowrate-5k, DOWN phase",
    ),
    spec(
        "decision.comparisons_per_run",
        "count",
        false,
        Kind::Work,
        "updates_per_s on nowrate-5k, DOWN phase",
    ),
    spec("mrai.armed_per_cevent", "count", false, Kind::Outcome, WR),
    spec(
        "mrai.coalesced_per_armed",
        "ratio",
        false,
        Kind::Outcome,
        WR,
    ),
    spec("ribout.writes_per_cevent", "count", false, Kind::Work, WR),
    spec(
        "path.intern_hit_ratio",
        "ratio",
        true,
        Kind::Work,
        "cevent.allocs_per_delivery on all workloads",
    ),
    spec(
        "arena.bytes_per_cevent",
        "bytes",
        false,
        Kind::Memory,
        "peak_rss_mb on setup-20k (run by name, not gated)",
    ),
    spec(
        "sim.rss_after_setup_mb",
        "MB",
        false,
        Kind::Memory,
        "peak_rss_mb on setup-20k (run by name, not gated)",
    ),
    spec(
        "sim.deliveries_per_cevent",
        "count",
        false,
        Kind::Outcome,
        "the unit of updates_per_s; must not drift",
    ),
    spec(
        "trace.overhead_pct",
        "%",
        false,
        Kind::Time,
        "traced against untraced cell_wall_s",
    ),
];

/// A measured metric value.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub spec: MetricSpec,
    pub value: f64,
}

/// Tally of attempted and failed C-events, with the reasons for failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, events: usize) {
        self.attempted += events as u64;
    }

    /// Records a failed check that spoils `events` C-events.
    pub fn fail(&mut self, events: usize, why: String) {
        self.failed += events as u64;
        eprintln!("perfbench: check failed: {why}");
        self.problems.push(why);
    }

    /// Records a failed check that no attempted event accounts for.
    pub fn fail_check(&mut self, why: String) {
        self.attempted += 1;
        self.fail(1, why);
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Prints every metric as a readable line, then the result object as the
/// last line of stdout. Returns the exit code: 0 only when every check
/// passed.
pub fn finish(tally: &Tally, values: &[Value]) -> i32 {
    println!(
        "# failed_frac = {} fraction ({} of {} C-events)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    let mut metrics = Vec::new();
    let mut correct = tally.ok();
    for v in values {
        println!(
            "# {} = {} {}  [{} -> {}]",
            v.spec.name,
            v.value,
            v.spec.unit,
            v.spec.kind.label(),
            v.spec.target
        );
        if !v.value.is_finite() {
            eprintln!("perfbench: {} is not finite", v.spec.name);
            correct = false;
        }
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            v.spec.name,
            json_number(value),
            v.spec.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; integral values keep a `.0` so readers see a float.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Smallest of `xs`; NaN when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The string of a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv: Vec<String> = ["--workload", "wrate-5k", "--seed", "0x10", "--seconds", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse(&argv).unwrap();
        assert_eq!(a.workload.name, "wrate-5k");
        assert_eq!(a.seed, 16);
        assert_eq!(a.seconds, 3.0);
        for bad in [
            vec!["--workload", "nope"],
            vec!["--seed", "1"],
            vec!["--workload", "wrate-5k", "--seconds", "0"],
            vec!["--workload", "wrate-5k", "--trace", "1"],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(Args::parse(&argv).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn five_k_workloads_differ_only_in_mrai_mode() {
        let nowrate = Workload::by_name("nowrate-5k").unwrap();
        let wrate = Workload::by_name("wrate-5k").unwrap();
        for tiny in [false, true] {
            let a = nowrate.configs(DEFAULT_SEED, tiny);
            let b = wrate.configs(DEFAULT_SEED, tiny);
            assert_eq!(a.len(), b.len());
            for (a, b) in a.iter().zip(&b) {
                let a_with_b_mode = ExperimentConfig {
                    bgp: b.bgp.clone(),
                    ..a.clone()
                };
                assert_eq!(format!("{a_with_b_mode:?}"), format!("{b:?}"));
                assert_ne!(format!("{a:?}"), format!("{b:?}"));
            }
        }
        // So they share topology and originators.
        let a = CellInputs::derive(&nowrate.configs(DEFAULT_SEED, true)[1]);
        let b = CellInputs::derive(&wrate.configs(DEFAULT_SEED, true)[1]);
        assert_eq!(a, b);
    }

    #[test]
    fn json_numbers_keep_a_fraction() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
