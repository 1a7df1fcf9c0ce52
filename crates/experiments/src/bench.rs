//! `repro bench`: wall-clock scaling of the harness plus the exact
//! cost-model columns of every timed cell.
//!
//! This module is **wall-side**: wall times, RSS, and allocator tallies
//! are measurement noise by definition and never enter a deterministic
//! artifact. The op counts embedded per cell, however, come from the
//! integer-only [`CostModel`] and are bit-identical across `--jobs`.
//!
//! ## Timing discipline
//!
//! Observer-overhead micro-benchmarks run **one warmup + five timed
//! samples and report the median**. An earlier revision reported the
//! best-of-3 minimum, which on a shared machine routinely produced
//! *negative* overhead (the instrumented run won the lottery against the
//! uninstrumented one — the recorded artifact said
//! `metrics_overhead_pct: -4.51`). The median of five is robust to a
//! single scheduling outlier in either direction; all raw samples are
//! recorded so the spread is auditable. Reported overhead percentages are
//! clamped at 0 and flagged `noise_floor` when the raw value was
//! negative.
//!
//! ## Scaling exponents
//!
//! With at least two distinct sweep sizes the bench fits, per op class,
//! `ln(ops per event) = a + b·ln(n)` by least squares and reports `b` as
//! the class's scaling exponent (`cost_exponents`). The paper's
//! headline — churn grows linearly in n (§5) — predicts exponents near 1
//! for delivery-coupled classes and mildly superlinear for heap work.

use std::sync::Arc;

use bgpscale_bgp::MraiMode;
use bgpscale_core::{run_experiment_jobs, run_experiment_observed, ExperimentConfig};
use bgpscale_obs::costmodel::OpCounts;
use bgpscale_obs::{log, span, CostModel, SCHEMA_VERSION};
use bgpscale_simkernel::{alloc, peak_rss_bytes, Stopwatch};
use bgpscale_stats::regression::fit_linear;
use bgpscale_topology::{GrowthScenario, NodeType};

use crate::sweep::{RunConfig, Sweeper};

/// How many timed samples each micro-benchmark takes (after one warmup).
pub const BENCH_SAMPLES: usize = 5;

/// The default `repro bench` size sweep. Wider than [`RunConfig::quick`]
/// (which feeds the figure targets): the scaling-law fits need leverage
/// past the knee, and the 10k/20k tail is where the memory-layout and
/// event-queue work shows up or doesn't.
pub const DEFAULT_BENCH_SIZES: &[usize] = &[1_000, 2_000, 3_000, 4_000, 5_000, 10_000, 20_000];

/// Default AS count for the frontier cell (Internet scale, §6 of the
/// paper's projection range).
pub const FRONTIER_N: usize = 70_000;

/// Default C-event count for the frontier cell — reduced, because the
/// point is "does an Internet-scale topology fit and finish", not
/// statistics.
pub const FRONTIER_EVENTS: usize = 3;

/// One timed micro-benchmark: the median and the raw samples behind it.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Median of the timed samples, seconds.
    pub median_s: f64,
    /// All timed samples in execution order, seconds.
    pub samples_s: Vec<f64>,
}

/// Runs `f` once untimed (warmup), then [`BENCH_SAMPLES`] times timed,
/// and reports the median. The warmup run absorbs cold caches, lazy page
/// faults, and first-touch allocator growth.
pub fn median_of_samples(mut f: impl FnMut()) -> Timing {
    f(); // warmup, never recorded
    let samples_s: Vec<f64> = (0..BENCH_SAMPLES)
        .map(|_| {
            let t = Stopwatch::start();
            f();
            t.elapsed_secs_f64()
        })
        .collect();
    let mut sorted = samples_s.clone();
    sorted.sort_by(f64::total_cmp);
    Timing {
        median_s: sorted[BENCH_SAMPLES / 2],
        samples_s,
    }
}

/// An overhead ratio with the noise floor applied: negative raw values
/// (instrumented run beat the uninstrumented one — pure scheduling noise)
/// are reported as 0 with the `noise_floor` flag set.
#[derive(Clone, Copy, Debug)]
pub struct Overhead {
    /// `(instrumented / baseline − 1) · 100`, unclamped.
    pub raw_pct: f64,
    /// `max(raw_pct, 0)` — the value headline consumers should read.
    pub pct: f64,
    /// True when the raw value was negative.
    pub noise_floor: bool,
}

impl Overhead {
    fn from_ratio(instrumented_s: f64, baseline_s: f64) -> Overhead {
        let raw_pct = (instrumented_s / baseline_s - 1.0) * 100.0;
        Overhead {
            raw_pct,
            pct: raw_pct.max(0.0),
            noise_floor: raw_pct < 0.0,
        }
    }
}

/// The observer-overhead micro-benchmark: the first-size Baseline cell at
/// jobs=1 with the observer off, metrics-only, and full-trace.
#[derive(Clone, Debug)]
pub struct ObserverOverhead {
    pub off: Timing,
    pub metrics: Timing,
    pub trace: Timing,
    pub metrics_overhead: Overhead,
    pub trace_overhead: Overhead,
}

/// One timed sweep cell, annotated with its exact op counts and the
/// wall-side allocator delta observed while it computed.
#[derive(Clone, Debug)]
pub struct BenchCell {
    pub n: usize,
    pub wall_s: f64,
    /// Part of `wall_s` spent building the cell: topology generation plus
    /// the simulator template.
    pub setup_s: f64,
    /// Part of `wall_s` spent running the C-events.
    pub run_events_s: f64,
    pub events_per_s: f64,
    /// Total exact op counts of the cell (integer-only, deterministic).
    pub ops: OpCounts,
    /// Heap allocations made while the cell computed, when the counting
    /// allocator is installed (`alloc-count` feature); `None` otherwise.
    pub alloc_allocs: Option<u64>,
    /// Bytes allocated while the cell computed, same gating.
    pub alloc_bytes: Option<u64>,
}

/// One single-size Internet-scale cell run on one core after the sweep:
/// proof that a 70k-AS topology builds, runs a reduced-event Baseline
/// cell to completion, and what it costs in wall time and peak RSS.
#[derive(Clone, Debug)]
pub struct FrontierCell {
    pub n: usize,
    pub events: usize,
    pub wall_s: f64,
    /// Topology generation plus template build, seconds (part of `wall_s`).
    pub setup_s: f64,
    /// C-event simulation, seconds (part of `wall_s`).
    pub run_events_s: f64,
    /// Injected C-events per wall second.
    pub events_per_s: f64,
    /// Simulator events (queue pops) per wall second — the throughput
    /// figure the scaling acceptance compares across sweep sizes.
    pub sim_events_per_s: f64,
    /// Exact op counts of the cell (integer-only, deterministic).
    pub ops: OpCounts,
    /// Process peak RSS (`VmHWM`) observed after the cell finished —
    /// at 70k ASes the frontier cell dominates the process high-water
    /// mark, so this is effectively the cell's footprint.
    pub peak_rss_bytes: Option<u64>,
}

/// Wall seconds of the setup spans (`generate_topology` +
/// `build_template`) and of the `run_events` span closed so far on this
/// thread. A cell runs its setup and its event fan-out on the calling
/// thread, so the difference across one cell is that cell's split.
fn phase_secs() -> (f64, f64) {
    (
        span::thread_total_secs("generate_topology") + span::thread_total_secs("build_template"),
        span::thread_total_secs("run_events"),
    )
}

/// Runs the frontier cell: Baseline NO-WRATE at `n` with `events`
/// C-events on one worker.
pub fn run_frontier(n: usize, events: usize, seed: u64) -> FrontierCell {
    log!(Info, "bench: frontier cell Baseline n={n} events={events} jobs=1 …");
    let cfg = RunConfig {
        sizes: vec![n],
        events,
        seed,
    };
    let mut sw = Sweeper::new(cfg);
    sw.set_jobs(1);
    let (setup_before, run_before) = phase_secs();
    let started = Stopwatch::start();
    sw.report(GrowthScenario::Baseline, n, MraiMode::NoWrate);
    let wall_s = started.elapsed_secs_f64();
    let (setup_after, run_after) = phase_secs();
    let ops = sw
        .cost_model(GrowthScenario::Baseline, n, MraiMode::NoWrate)
        .expect("uncached frontier cell always collects a cost model")
        .total();
    let (setup_s, run_events_s) = (setup_after - setup_before, run_after - run_before);
    log!(
        Info,
        "bench: frontier cell finished in {wall_s:.2}s (setup {setup_s:.2}s, run_events {run_events_s:.2}s)"
    );
    FrontierCell {
        n,
        events,
        wall_s,
        setup_s,
        run_events_s,
        events_per_s: events as f64 / wall_s,
        sim_events_per_s: ops.queue_pops as f64 / wall_s,
        ops,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// One full sweep at a fixed worker count.
#[derive(Clone, Debug)]
pub struct BenchRun {
    pub requested_jobs: usize,
    pub effective_jobs: usize,
    pub total_wall_s: f64,
    pub cells: Vec<BenchCell>,
}

/// A fitted per-op-class scaling law `ops_per_event ∝ n^exponent`.
#[derive(Clone, Debug)]
pub struct CostExponent {
    pub class: &'static str,
    pub exponent: f64,
    pub r_squared: f64,
}

/// Everything `repro bench` measured, pre-rendering.
#[derive(Clone, Debug)]
pub struct BenchOutput {
    pub runs: Vec<BenchRun>,
    pub overhead: ObserverOverhead,
    /// Per-op-class scaling exponents; empty when the sweep has fewer
    /// than two distinct sizes or a class saw zero ops at some size.
    pub exponents: Vec<CostExponent>,
    /// Peak resident set size of this process (Linux `VmHWM`), bytes.
    pub peak_rss_bytes: Option<u64>,
    /// The Internet-scale frontier cell, when one was run (the default;
    /// tests and `--no-frontier` skip it). Filled in by the caller after
    /// [`run_bench`] — the sweep and the frontier are timed separately.
    pub frontier: Option<FrontierCell>,
    /// The first run's per-cell cost models, `(n, model)` in sweep order —
    /// deterministic, identical across runs (the cross-run assert holds
    /// reports equal), kept so the run ledger can content-hash each
    /// cell's `costmodel.json` without recomputing.
    pub first_run_costs: Vec<(usize, Arc<CostModel>)>,
}

fn first_cell_config(cfg: &RunConfig) -> ExperimentConfig {
    ExperimentConfig {
        scenario: GrowthScenario::Baseline,
        n: cfg.sizes.first().copied().unwrap_or(300),
        events: cfg.events,
        seed: cfg.seed,
        bgp: Default::default(),
        event_limit: None,
        wheel_slot_bits: None,
    }
}

fn bench_observer_overhead(cfg: &RunConfig) -> ObserverOverhead {
    let cell = first_cell_config(cfg);
    log!(Info, "bench: observer overhead on Baseline n={} …", cell.n);
    let off = median_of_samples(|| {
        std::hint::black_box(run_experiment_jobs(&cell, 1));
    });
    let metrics = median_of_samples(|| {
        std::hint::black_box(run_experiment_observed(&cell, 1, None));
    });
    let trace = median_of_samples(|| {
        std::hint::black_box(run_experiment_observed(&cell, 1, Some(1)));
    });
    let metrics_overhead = Overhead::from_ratio(metrics.median_s, off.median_s);
    let trace_overhead = Overhead::from_ratio(trace.median_s, off.median_s);
    ObserverOverhead {
        off,
        metrics,
        trace,
        metrics_overhead,
        trace_overhead,
    }
}

/// Fits per-op-class scaling exponents from the cost models of one run.
/// Requires ≥ 2 distinct sizes and a nonzero count at every size (the
/// log-log fit is undefined otherwise); classes failing that are skipped.
pub fn fit_cost_exponents(cells: &[(usize, Arc<CostModel>)], events: usize) -> Vec<CostExponent> {
    let mut distinct: Vec<usize> = cells.iter().map(|(n, _)| *n).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() < 2 || events == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, &(class, _)) in OpCounts::default().fields().iter().enumerate() {
        let mut xs = Vec::with_capacity(cells.len());
        let mut ys = Vec::with_capacity(cells.len());
        let mut ok = true;
        for (n, cost) in cells {
            let count = cost.total().fields()[idx].1;
            if count == 0 {
                ok = false;
                break;
            }
            xs.push((*n as f64).ln());
            ys.push((count as f64 / events as f64).ln());
        }
        if !ok {
            continue;
        }
        let fit = fit_linear(&xs, &ys);
        out.push(CostExponent {
            class,
            exponent: fit.slope,
            r_squared: fit.r_squared,
        });
    }
    out
}

/// Times the Baseline NO-WRATE sweep once per requested worker count
/// (each with a fresh cache), collecting per-cell op counts and allocator
/// deltas, and cross-checks that every run's reports are bit-identical to
/// the first run's.
///
/// # Panics
/// Panics if a parallel run's report diverges from the first run's — that
/// is a determinism bug, not a measurement artifact.
pub fn run_bench(cfg: &RunConfig, jobs_list: &[usize]) -> BenchOutput {
    let mut runs = Vec::new();
    let mut baseline_reports: Option<Vec<_>> = None;
    let mut exponents = Vec::new();
    let mut first_run_costs = Vec::new();
    for &requested in jobs_list {
        let mut sw = Sweeper::new(cfg.clone());
        sw.set_jobs(requested);
        let effective = sw.jobs();
        log!(Info, "bench: sweeping Baseline with jobs={requested} (effective {effective}) …");
        let mut cells = Vec::new();
        let total_started = Stopwatch::start();
        for &n in &cfg.sizes.clone() {
            let alloc_before = alloc::snapshot();
            let (setup_before, run_before) = phase_secs();
            let cell_started = Stopwatch::start();
            let report = sw.report(GrowthScenario::Baseline, n, MraiMode::NoWrate);
            let wall_s = cell_started.elapsed_secs_f64();
            let (setup_after, run_after) = phase_secs();
            let alloc_delta = alloc::snapshot()
                .zip(alloc_before)
                .map(|(now, before)| now.delta_since(&before));
            let cost = sw
                .cost_model(GrowthScenario::Baseline, n, MraiMode::NoWrate)
                .expect("uncached bench cell always collects a cost model");
            cells.push((
                BenchCell {
                    n,
                    wall_s,
                    setup_s: setup_after - setup_before,
                    run_events_s: run_after - run_before,
                    events_per_s: cfg.events as f64 / wall_s,
                    ops: cost.total(),
                    alloc_allocs: alloc_delta.as_ref().map(|d| d.allocs),
                    alloc_bytes: alloc_delta.as_ref().map(|d| d.bytes_allocated),
                },
                report,
                cost,
            ));
        }
        let total_s = total_started.elapsed_secs_f64();
        log!(Info, "bench: jobs={requested} finished in {total_s:.2}s");
        match &baseline_reports {
            None => {
                baseline_reports = Some(cells.iter().map(|(_, r, _)| r.clone()).collect());
                first_run_costs = cells
                    .iter()
                    .map(|(c, _, cost)| (c.n, Arc::clone(cost)))
                    .collect::<Vec<_>>();
                exponents = fit_cost_exponents(&first_run_costs, cfg.events);
            }
            Some(first) => {
                for ((_, r, _), f) in cells.iter().zip(first) {
                    for ty in [NodeType::T, NodeType::M, NodeType::Cp, NodeType::C] {
                        assert_eq!(
                            r.by_type(ty),
                            f.by_type(ty),
                            "jobs={requested} diverged from jobs={} at n={}",
                            jobs_list[0],
                            r.n
                        );
                    }
                }
            }
        }
        runs.push(BenchRun {
            requested_jobs: requested,
            effective_jobs: effective,
            total_wall_s: total_s,
            cells: cells.into_iter().map(|(c, _, _)| c).collect(),
        });
    }

    let overhead = bench_observer_overhead(cfg);
    BenchOutput {
        runs,
        overhead,
        exponents,
        peak_rss_bytes: peak_rss_bytes(),
        frontier: None,
        first_run_costs,
    }
}

fn push_samples(json: &mut String, key: &str, t: &Timing, indent: &str) {
    json.push_str(&format!("{indent}\"{key}_s\": {:.6},\n", t.median_s));
    let samples = t
        .samples_s
        .iter()
        .map(|s| format!("{s:.6}"))
        .collect::<Vec<_>>()
        .join(", ");
    json.push_str(&format!("{indent}\"{key}_samples_s\": [{samples}],\n"));
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Renders the BENCH_harness.json document. Wall-side — floats are fine
/// here; only the embedded op counts are deterministic.
pub fn render_json(cfg: &RunConfig, out: &BenchOutput, git_rev: &str) -> String {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let base_total = out.runs.first().map(|r| r.total_wall_s).unwrap_or(f64::NAN);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    json.push_str(&format!("  \"git_rev\": \"{git_rev}\",\n"));
    json.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    json.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    json.push_str(&format!("  \"events_per_cell\": {},\n", cfg.events));
    json.push_str(&format!(
        "  \"sizes\": [{}],\n",
        cfg.sizes.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ")
    ));
    json.push_str("  \"scenario\": \"BASELINE\",\n");
    json.push_str("  \"mode\": \"NO-WRATE\",\n");
    json.push_str(&format!(
        "  \"peak_rss_bytes\": {},\n",
        opt_u64(out.peak_rss_bytes)
    ));
    match &out.frontier {
        None => json.push_str("  \"frontier_cell\": null,\n"),
        Some(f) => {
            json.push_str("  \"frontier_cell\": {\n");
            json.push_str(
                "    \"comment\": \"Internet-scale single cell, jobs=1: does a 70k-AS topology build and finish, and at what footprint\",\n",
            );
            json.push_str(&format!("    \"n\": {},\n", f.n));
            json.push_str(&format!("    \"events\": {},\n", f.events));
            json.push_str(&format!("    \"wall_s\": {:.6},\n", f.wall_s));
            json.push_str(&format!("    \"setup_s\": {:.6},\n", f.setup_s));
            json.push_str(&format!("    \"run_events_s\": {:.6},\n", f.run_events_s));
            json.push_str(&format!("    \"events_per_s\": {:.3},\n", f.events_per_s));
            json.push_str(&format!("    \"sim_events_per_s\": {:.1},\n", f.sim_events_per_s));
            json.push_str(&format!("    \"queue_pops\": {},\n", f.ops.queue_pops));
            json.push_str(&format!("    \"deliveries\": {},\n", f.ops.deliveries));
            json.push_str(&format!("    \"total_ops\": {},\n", f.ops.grand_total()));
            json.push_str(&format!(
                "    \"peak_rss_bytes\": {}\n",
                opt_u64(f.peak_rss_bytes)
            ));
            json.push_str("  },\n");
        }
    }
    json.push_str("  \"observer_overhead\": {\n");
    json.push_str(&format!(
        "    \"comment\": \"first-size cell, jobs=1, median of {BENCH_SAMPLES} after 1 warmup; off = NoopObserver (static dispatch); negative raw overhead is scheduling noise, reported clamped at 0 with noise_floor set\",\n"
    ));
    let o = &out.overhead;
    push_samples(&mut json, "off", &o.off, "    ");
    push_samples(&mut json, "metrics", &o.metrics, "    ");
    push_samples(&mut json, "trace", &o.trace, "    ");
    json.push_str(&format!(
        "    \"metrics_overhead_pct\": {:.2},\n",
        o.metrics_overhead.pct
    ));
    json.push_str(&format!(
        "    \"metrics_overhead_raw_pct\": {:.2},\n",
        o.metrics_overhead.raw_pct
    ));
    json.push_str(&format!(
        "    \"trace_overhead_pct\": {:.2},\n",
        o.trace_overhead.pct
    ));
    json.push_str(&format!(
        "    \"trace_overhead_raw_pct\": {:.2},\n",
        o.trace_overhead.raw_pct
    ));
    json.push_str(&format!(
        "    \"noise_floor\": {}\n",
        o.metrics_overhead.noise_floor || o.trace_overhead.noise_floor
    ));
    json.push_str("  },\n");
    if out.exponents.is_empty() {
        json.push_str("  \"cost_exponents\": null,\n");
    } else {
        json.push_str("  \"cost_exponents\": {\n");
        json.push_str(
            "    \"comment\": \"log-log least-squares fit of ops-per-event vs n over the sweep sizes\",\n",
        );
        for (i, e) in out.exponents.iter().enumerate() {
            json.push_str(&format!(
                "    \"{}\": {{ \"exponent\": {:.4}, \"r_squared\": {:.4} }}{}\n",
                e.class,
                e.exponent,
                e.r_squared,
                if i + 1 < out.exponents.len() { "," } else { "" }
            ));
        }
        json.push_str("  },\n");
    }
    json.push_str("  \"runs\": [\n");
    for (i, run) in out.runs.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"requested_jobs\": {},\n", run.requested_jobs));
        json.push_str(&format!("      \"effective_jobs\": {},\n", run.effective_jobs));
        json.push_str(&format!("      \"total_wall_s\": {:.6},\n", run.total_wall_s));
        json.push_str(&format!(
            "      \"speedup_vs_first_run\": {:.4},\n",
            base_total / run.total_wall_s
        ));
        json.push_str("      \"cells\": [\n");
        for (j, c) in run.cells.iter().enumerate() {
            json.push_str(&format!(
                "        {{ \"n\": {}, \"wall_s\": {:.6}, \"setup_s\": {:.6}, \"run_events_s\": {:.6}, \
                 \"events_per_s\": {:.3}, \
                 \"sim_events_per_s\": {:.1}, \
                 \"queue_pushes\": {}, \"queue_pops\": {}, \"queue_comparisons\": {}, \
                 \"deliveries\": {}, \"decision_runs\": {}, \"total_ops\": {}, \
                 \"alloc_allocs\": {}, \"alloc_bytes\": {} }}{}\n",
                c.n,
                c.wall_s,
                c.setup_s,
                c.run_events_s,
                c.events_per_s,
                c.ops.queue_pops as f64 / c.wall_s,
                c.ops.queue_pushes,
                c.ops.queue_pops,
                c.ops.queue_comparisons,
                c.ops.deliveries,
                c.ops.decision_runs,
                c.ops.grand_total(),
                opt_u64(c.alloc_allocs),
                opt_u64(c.alloc_bytes),
                if j + 1 < run.cells.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < out.runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RunConfig {
        RunConfig {
            sizes: vec![150, 250],
            events: 2,
            seed: 42,
        }
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut calls = 0u32;
        let t = median_of_samples(|| {
            calls += 1;
            if calls == 2 {
                // One slow sample (the first *timed* one) must not move
                // the median the way it would move a mean.
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        assert_eq!(calls as usize, 1 + BENCH_SAMPLES, "warmup + samples");
        assert_eq!(t.samples_s.len(), BENCH_SAMPLES);
        assert!(t.median_s < 0.02, "median {} absorbed the outlier", t.median_s);
    }

    #[test]
    fn overhead_clamps_negative_to_noise_floor() {
        let o = Overhead::from_ratio(0.95, 1.0);
        assert!(o.raw_pct < 0.0);
        assert_eq!(o.pct, 0.0);
        assert!(o.noise_floor);
        let p = Overhead::from_ratio(1.10, 1.0);
        assert!((p.pct - 10.0).abs() < 1e-9);
        assert!(!p.noise_floor);
    }

    #[test]
    fn bench_json_carries_schema_cost_columns_and_exponents() {
        let cfg = tiny_cfg();
        let out = run_bench(&cfg, &[1]);
        let json = render_json(&cfg, &out, "testrev");
        assert!(json.starts_with("{\n  \"schema_version\": "));
        assert!(json.contains("\"peak_rss_bytes\": "));
        assert!(json.contains("\"frontier_cell\": null"), "no frontier unless requested");
        assert!(json.contains("\"sim_events_per_s\": "));
        assert!(json.contains("\"queue_pushes\": "));
        assert!(json.contains("\"alloc_allocs\": "));
        assert!(json.contains("\"metrics_overhead_raw_pct\": "));
        assert!(json.contains("\"noise_floor\": "));
        // Two distinct sizes → the exponent table exists and is sane.
        assert!(!out.exponents.is_empty(), "two sizes must yield exponents");
        for e in &out.exponents {
            assert!(e.exponent.is_finite(), "{}: {}", e.class, e.exponent);
        }
        assert!(json.contains("\"cost_exponents\": {"));
        // The clamped headline value is never negative.
        assert!(out.overhead.metrics_overhead.pct >= 0.0);
        assert!(out.overhead.trace_overhead.pct >= 0.0);
    }

    #[test]
    fn cells_split_wall_time_into_setup_and_run_events() {
        let cfg = tiny_cfg();
        let out = run_bench(&cfg, &[1]);
        let mut cells: Vec<(f64, f64, f64)> = out.runs[0]
            .cells
            .iter()
            .map(|c| (c.setup_s, c.run_events_s, c.wall_s))
            .collect();
        let f = run_frontier(200, 2, cfg.seed);
        cells.push((f.setup_s, f.run_events_s, f.wall_s));
        for (setup_s, run_events_s, wall_s) in cells {
            assert!(setup_s > 0.0 && run_events_s > 0.0, "setup {setup_s}, run_events {run_events_s}");
            assert!(
                setup_s + run_events_s <= wall_s,
                "setup {setup_s} + run_events {run_events_s} > wall {wall_s}"
            );
        }
        let mut with_frontier = out;
        with_frontier.frontier = Some(f);
        let json = render_json(&cfg, &with_frontier, "testrev");
        // Two sweep cells plus the frontier block.
        assert_eq!(json.matches("\"setup_s\": ").count(), 3, "{json}");
        assert_eq!(json.matches("\"run_events_s\": ").count(), 3, "{json}");
    }

    #[test]
    fn frontier_cell_runs_and_renders() {
        let cfg = tiny_cfg();
        let mut out = run_bench(&cfg, &[1]);
        // A miniature frontier: same machinery, test-scale n.
        out.frontier = Some(run_frontier(200, 2, cfg.seed));
        let f = out.frontier.as_ref().unwrap();
        assert_eq!(f.n, 200);
        assert!(f.wall_s > 0.0);
        assert!(f.ops.queue_pops > 0, "frontier cell must simulate something");
        assert!(f.sim_events_per_s > 0.0);
        let json = render_json(&cfg, &out, "testrev");
        assert!(json.contains("\"frontier_cell\": {"));
        assert!(json.contains("\"n\": 200,"));
        assert!(!json.contains("\"frontier_cell\": null"));
    }

    #[test]
    fn exponents_need_two_distinct_sizes() {
        let cfg = RunConfig {
            sizes: vec![150],
            events: 2,
            seed: 42,
        };
        let mut sw = Sweeper::new(cfg.clone());
        sw.report(GrowthScenario::Baseline, 150, MraiMode::NoWrate);
        let cost = sw
            .cost_model(GrowthScenario::Baseline, 150, MraiMode::NoWrate)
            .unwrap();
        assert!(fit_cost_exponents(&[(150, cost)], cfg.events).is_empty());
    }
}
