//! `repro` — regenerate the paper's tables and figures from scratch.
//!
//! ```text
//! repro <target> [options]
//!
//! targets:
//!   table1 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!   ext_levent     extension: link fail + recovery churn
//!   ext_burstiness extension: per-second update-rate peaks
//!   ext_rfd        extension: Route Flap Damping vs a flap storm
//!   ext_convergence extension: convergence times per MRAI mode
//!   ext_concurrency extension: per-interface vs per-prefix MRAI
//!   ext_tablesize  extension: per-event churn vs resident table size
//!   all            every target above, sharing one experiment cache
//!   bench          time the Baseline sweep at several worker counts and
//!                  write BENCH_harness.json (see --bench-jobs / --out);
//!                  also records observer off/metrics/trace overhead
//!                  (median of 5 after a warmup), peak RSS, per-cell
//!                  exact op-count and allocator columns, and fitted
//!                  per-op-class scaling exponents (cost_exponents)
//!   perf           run cells and compare their exact op counts and
//!                  cost-model hash against the blessed ledger records
//!                  (results/ledger/blessed.jsonl):
//!                    --check          gate: exit 1 on any drift, 2 on a
//!                                     corrupt or mismatched record
//!                    --bless          append fresh blessed records instead
//!                    --perturb <seed> deterministically corrupt one
//!                                     counter first (CI mutation gate)
//!                    --blessed <file> override the blessed ledger
//!                    --costmodel-out <file> also write costmodel.json
//!   profile        run one observed cell and print a phase profile
//!                  (see --scenario, --cell-n, --check)
//!   report         run one cell under NO-WRATE *and* WRATE with the
//!                  simulated-time series recorder and write a
//!                  self-contained HTML churn-provenance report plus a
//!                  timeseries.json artifact (see --bin-us, --report-out,
//!                  --timeseries-out, --check)
//!   trend          fold the run ledger (every bench/perf/profile run
//!                  appends one record to results/ledger/runs.jsonl)
//!                  into per-config op-count series, scaling-exponent
//!                  refits, and a self-contained trend.html dashboard:
//!                    --check          gate: exit 1 on any op-count or
//!                                     exponent regression vs history
//!                    --window <k>     median over the last k entries
//!                                     per fingerprint (default 5)
//!                    --band <pct>     allowed op-count deviation from
//!                                     that median (default 10)
//!                    --exp-band <x>   allowed exponent drift between
//!                                     consecutive revisions (default 0.25)
//!                    --perturb <seed> corrupt the newest entries in
//!                                     memory first (CI mutation gate)
//!                    --trend-out <file>  HTML path (default trend.html)
//!
//! options:
//!   --tiny         seconds-scale smoke run (n ≤ 900, 5 events). NOTE:
//!                  a handful of claims are scale-dependent (they need
//!                  n ≥ 1000 to rise above sampling noise or, for
//!                  STATIC-MIDDLE, to differ from BASELINE at all) and
//!                  may legitimately FAIL at this size; --quick and
//!                  --full are the validation modes.
//!   --quick        default: n ≤ 5000, 25 events per cell (minutes)
//!   --full         paper scale: n ≤ 10000, 100 events (hours)
//!   --seed <u64>   master seed (default 0x20080612)
//!   --events <k>   override events per cell
//!   --sizes a,b,c  override the size sweep
//!   --csv <dir>    additionally write every table as CSV into <dir>
//!   --jobs <n>     worker threads for C-event / cell fan-out. 0 (the
//!                  default) uses every hardware thread; 1 runs the plain
//!                  sequential path. Results are bit-identical either way.
//!   --bench-jobs a,b,c  (bench only) worker counts to compare
//!                       (default: 1,8)
//!   --out <file>   (bench only) output path (default BENCH_harness.json)
//!
//!   bench uses its own default sweep (1000..20000, see
//!   `bench::DEFAULT_BENCH_SIZES`) unless --tiny/--quick/--full/--sizes
//!   is given. The default sweep finishes with an Internet-scale
//!   frontier cell (~minutes); scale-overridden runs skip it unless a
//!   --frontier-* flag asks for one explicitly:
//!   --frontier-n <n>      frontier cell AS count (default 70000)
//!   --frontier-events <k> frontier cell C-events (default 3)
//!   --no-frontier         skip the frontier cell
//!   --metrics-out <file>  write the deterministic metrics registry of
//!                  every computed cell as JSON (byte-identical for any
//!                  --jobs value)
//!   --trace-out <file>    write sampled per-event JSONL trace records
//!   --trace-sample <n>    keep 1 in n trace records (default 1 = all;
//!                  only meaningful with --trace-out)
//!   --scenario <s> (profile/report) growth scenario (default BASELINE)
//!   --cell-n <n>   (profile/report) network size (default: first sweep size)
//!   --event-limit <n>  (profile only) per-phase simulator event budget;
//!                  a blown budget prints the harness's budget snapshot
//!                  (queue depth, pending events by kind, busiest inbox)
//!                  and exits non-zero instead of crashing
//!   --bin-us <n>   (report only) time-series bin width in simulated
//!                  microseconds (default 100000 = 100 ms)
//!   --report-out <file>     (report only) HTML path (default report.html)
//!   --timeseries-out <file> (report only) JSON path (default timeseries.json)
//!   --check        (profile) exit non-zero if any expected phase span
//!                  recorded nothing or no events were processed;
//!                  (report) exit non-zero if any report panel is empty;
//!                  (trend) exit 1 on any regression finding
//!   --ledger <file>  the append-only run ledger every bench/perf/profile
//!                  run records into and `trend` reads (default
//!                  results/ledger/runs.jsonl)
//!   --no-ledger    don't append this run to the ledger
//!   --ledger-rev <rev>  record this revision string instead of
//!                  `git rev-parse HEAD` (tests, CI matrices)
//!
//! Set BGPSCALE_LOG=quiet|info|debug to control progress chatter on
//! stderr (default info).
//!
//! exit codes (shared with `detlint --check`):
//!   0  success — targets ran and all requested checks passed
//!   1  a run or a `--check` validation failed
//!   2  usage / configuration error (unknown target or malformed option)
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;

use bgpscale_experiments::{bench, figures, htmlreport, perf, profile, trend};
use bgpscale_experiments::{Figure, RunConfig, Sweeper};
use bgpscale_experiments::{EXIT_FAIL, EXIT_OK, EXIT_USAGE};
use bgpscale_obs::ledger::{append_records, read_ledger, LedgerError, LedgerRecord};
use bgpscale_obs::{log, TraceRecord, TraceWriter};
use bgpscale_simkernel::Stopwatch;
use bgpscale_topology::GrowthScenario;

/// With the `alloc-count` feature, tally every heap allocation so
/// `repro bench` can report per-cell allocator columns. Wall-side only.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: bgpscale_simkernel::alloc::CountingAlloc =
    bgpscale_simkernel::alloc::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|fig1|fig3|fig4|...|fig12|all|bench|perf|profile|report|trend> \
         [--tiny|--quick|--full] [--seed N] [--events K] [--sizes a,b,c] [--csv DIR] \
         [--jobs N] [--bench-jobs a,b,c] [--out FILE] \
         [--metrics-out FILE] [--trace-out FILE] [--trace-sample N] \
         [--scenario S] [--cell-n N] [--event-limit N] [--bin-us N] \
         [--report-out FILE] [--timeseries-out FILE] [--check] \
         [--bless] [--perturb SEED] [--wheel-bits N] [--blessed FILE] [--costmodel-out FILE] \
         [--ledger FILE] [--no-ledger] [--ledger-rev REV] [--trend-out FILE] \
         [--window K] [--band PCT] [--exp-band X]\n\
         exit codes: 0 = ok, 1 = failed run or --check, 2 = usage error \
         (same convention as detlint --check)"
    );
    std::process::exit(EXIT_USAGE);
}

struct Options {
    target: String,
    cfg: RunConfig,
    csv_dir: Option<std::path::PathBuf>,
    /// Worker threads; 0 = every hardware thread.
    jobs: usize,
    /// `bench`: the worker counts to compare.
    bench_jobs: Vec<usize>,
    /// `bench`: where to write the JSON report.
    bench_out: std::path::PathBuf,
    /// `bench`: the frontier cell's `(n, events)`; `None` skips it.
    frontier: Option<(usize, usize)>,
    /// Write the merged deterministic metrics registry here.
    metrics_out: Option<std::path::PathBuf>,
    /// Write sampled JSONL trace records here.
    trace_out: Option<std::path::PathBuf>,
    /// Keep 1 in N trace records (1 = all).
    trace_sample: u64,
    /// `profile`/`report`: the cell's growth scenario.
    profile_scenario: GrowthScenario,
    /// `profile`/`report`: the cell's network size (default: first sweep size).
    cell_n: Option<usize>,
    /// `profile`: per-phase simulator event budget override.
    event_limit: Option<u64>,
    /// `report`: time-series bin width in simulated microseconds.
    bin_us: u64,
    /// `report`: where to write the HTML page.
    report_out: std::path::PathBuf,
    /// `report`: where to write the raw time series.
    timeseries_out: std::path::PathBuf,
    /// `profile`/`report`/`perf`: fail the process if the check fails.
    check: bool,
    /// `perf`: append blessed records instead of checking.
    bless: bool,
    /// `perf`: deterministically corrupt one counter before comparison.
    perturb: Option<u64>,
    /// `perf`: run on a timing wheel with this slot granularity (the
    /// tick-granularity mutation axis; see `PerfConfig::wheel_slot_bits`).
    wheel_bits: Option<u32>,
    /// `perf`: the blessed-record ledger.
    blessed: std::path::PathBuf,
    /// `perf`: also write the measured cost model here.
    costmodel_out: Option<std::path::PathBuf>,
    /// The append-only run ledger; `None` disables recording.
    ledger: Option<std::path::PathBuf>,
    /// Revision string to record instead of `git rev-parse HEAD`.
    ledger_rev: Option<String>,
    /// `trend`: where to write the HTML dashboard.
    trend_out: std::path::PathBuf,
    /// `trend`: analysis knobs (`--window`, `--band`, `--exp-band`).
    trend_opts: trend::TrendOptions,
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let target = args.next().unwrap_or_else(|| usage());
    let mut cfg = RunConfig::quick();
    let mut csv_dir = None;
    let mut jobs = 0;
    let mut bench_jobs = vec![1, 8];
    let mut bench_out = std::path::PathBuf::from("BENCH_harness.json");
    let mut cfg_overridden = false;
    let mut frontier_n = bench::FRONTIER_N;
    let mut frontier_events = bench::FRONTIER_EVENTS;
    let mut frontier_requested = false;
    let mut no_frontier = false;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut trace_sample = 1u64;
    let mut profile_scenario = GrowthScenario::Baseline;
    let mut cell_n = None;
    let mut event_limit = None;
    let mut bin_us = 100_000u64;
    let mut report_out = std::path::PathBuf::from("report.html");
    let mut timeseries_out = std::path::PathBuf::from("timeseries.json");
    let mut check = false;
    let mut bless = false;
    let mut perturb = None;
    let mut wheel_bits = None;
    let mut blessed = std::path::PathBuf::from("results/ledger/blessed.jsonl");
    let mut costmodel_out = None;
    let mut ledger = Some(std::path::PathBuf::from("results/ledger/runs.jsonl"));
    let mut ledger_rev = None;
    let mut trend_out = std::path::PathBuf::from("trend.html");
    let mut trend_opts = trend::TrendOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tiny" => {
                cfg = RunConfig::tiny().with_seed(cfg.seed);
                cfg_overridden = true;
            }
            "--quick" => {
                cfg = RunConfig::quick().with_seed(cfg.seed);
                cfg_overridden = true;
            }
            "--full" => {
                cfg = RunConfig::full().with_seed(cfg.seed);
                cfg_overridden = true;
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--events" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.events = v.parse().unwrap_or_else(|_| usage());
            }
            "--sizes" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.sizes = v
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if cfg.sizes.is_empty() {
                    usage();
                }
                cfg_overridden = true;
            }
            "--csv" => {
                let v = args.next().unwrap_or_else(|| usage());
                csv_dir = Some(std::path::PathBuf::from(v));
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                jobs = v.parse().unwrap_or_else(|_| usage());
            }
            "--bench-jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                bench_jobs = v
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if bench_jobs.is_empty() {
                    usage();
                }
            }
            "--frontier-n" => {
                let v = args.next().unwrap_or_else(|| usage());
                frontier_n = v.parse().unwrap_or_else(|_| usage());
                frontier_requested = true;
            }
            "--frontier-events" => {
                let v = args.next().unwrap_or_else(|| usage());
                frontier_events = v.parse().unwrap_or_else(|_| usage());
                frontier_requested = true;
            }
            "--no-frontier" => no_frontier = true,
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage());
                bench_out = std::path::PathBuf::from(v);
            }
            "--metrics-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                metrics_out = Some(std::path::PathBuf::from(v));
            }
            "--trace-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                trace_out = Some(std::path::PathBuf::from(v));
            }
            "--trace-sample" => {
                let v = args.next().unwrap_or_else(|| usage());
                trace_sample = v.parse().unwrap_or_else(|_| usage());
                if trace_sample == 0 {
                    usage();
                }
            }
            "--scenario" => {
                let v = args.next().unwrap_or_else(|| usage());
                profile_scenario = GrowthScenario::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown scenario: {v}");
                    usage()
                });
            }
            "--cell-n" => {
                let v = args.next().unwrap_or_else(|| usage());
                cell_n = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--event-limit" => {
                let v = args.next().unwrap_or_else(|| usage());
                event_limit = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--bin-us" => {
                let v = args.next().unwrap_or_else(|| usage());
                bin_us = v.parse().unwrap_or_else(|_| usage());
                if bin_us == 0 {
                    usage();
                }
            }
            "--report-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                report_out = std::path::PathBuf::from(v);
            }
            "--timeseries-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                timeseries_out = std::path::PathBuf::from(v);
            }
            "--check" => check = true,
            "--bless" => bless = true,
            "--wheel-bits" => {
                let v = args.next().unwrap_or_else(|| usage());
                wheel_bits = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--perturb" => {
                let v = args.next().unwrap_or_else(|| usage());
                perturb = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--blessed" => {
                let v = args.next().unwrap_or_else(|| usage());
                blessed = std::path::PathBuf::from(v);
            }
            "--costmodel-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                costmodel_out = Some(std::path::PathBuf::from(v));
            }
            "--ledger" => {
                let v = args.next().unwrap_or_else(|| usage());
                ledger = Some(std::path::PathBuf::from(v));
            }
            "--no-ledger" => ledger = None,
            "--ledger-rev" => {
                let v = args.next().unwrap_or_else(|| usage());
                if v.is_empty() {
                    usage();
                }
                ledger_rev = Some(v);
            }
            "--trend-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                trend_out = std::path::PathBuf::from(v);
            }
            "--window" => {
                let v = args.next().unwrap_or_else(|| usage());
                trend_opts.window = v.parse().unwrap_or_else(|_| usage());
                if trend_opts.window == 0 {
                    usage();
                }
            }
            "--band" => {
                let v = args.next().unwrap_or_else(|| usage());
                trend_opts.band_pct = v.parse().unwrap_or_else(|_| usage());
                if !trend_opts.band_pct.is_finite() || trend_opts.band_pct < 0.0 {
                    usage();
                }
            }
            "--exp-band" => {
                let v = args.next().unwrap_or_else(|| usage());
                trend_opts.exp_band = v.parse().unwrap_or_else(|_| usage());
                if !trend_opts.exp_band.is_finite() || trend_opts.exp_band < 0.0 {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    if target == "bench" && !cfg_overridden {
        cfg.sizes = bench::DEFAULT_BENCH_SIZES.to_vec();
    }
    // The frontier cell takes minutes: it rides along with the default
    // full sweep, but a scale-overridden run (--tiny/--quick/--sizes,
    // the CI and smoke-test shapes) only gets one on explicit request.
    let want_frontier = !no_frontier && (!cfg_overridden || frontier_requested);
    Options {
        target,
        cfg,
        csv_dir,
        jobs,
        bench_jobs,
        bench_out,
        frontier: want_frontier.then_some((frontier_n, frontier_events)),
        metrics_out,
        trace_out,
        trace_sample,
        profile_scenario,
        cell_n,
        event_limit,
        bin_us,
        report_out,
        timeseries_out,
        check,
        bless,
        perturb,
        wheel_bits,
        blessed,
        costmodel_out,
        ledger,
        ledger_rev,
        trend_out,
        trend_opts,
    }
}

fn run_target(target: &str, sw: &mut Sweeper) -> Option<Figure> {
    let seed = sw.config().seed;
    let cfg = sw.config().clone();
    Some(match target {
        "table1" => figures::table1::run(&cfg),
        "fig1" => figures::fig1::run(seed),
        "fig3" => figures::fig3::run(seed),
        "fig4" => figures::fig4::run(sw),
        "fig5" => figures::fig5::run(sw),
        "fig6" => figures::fig6::run(sw),
        "fig7" => figures::fig7::run(sw),
        "fig8" => figures::fig8::run(sw),
        "fig9" => figures::fig9::run(sw),
        "fig10" => figures::fig10::run(sw),
        "fig11" => figures::fig11::run(sw),
        "fig12" => figures::fig12::run(sw),
        "ext_levent" => figures::ext_levent::run(sw),
        "ext_burstiness" => figures::ext_burstiness::run(sw),
        "ext_rfd" => figures::ext_rfd::run(sw),
        "ext_convergence" => figures::ext_convergence::run(sw),
        "ext_concurrency" => figures::ext_concurrency::run(sw),
        "ext_tablesize" => figures::ext_tablesize::run(sw),
        _ => return None,
    })
}

const ALL_TARGETS: [&str; 18] = [
    "table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "ext_levent", "ext_burstiness", "ext_rfd", "ext_convergence", "ext_concurrency",
    "ext_tablesize",
];

/// Writes the merged metrics registry as deterministic JSON.
fn write_metrics(
    path: &std::path::Path,
    metrics: &bgpscale_obs::MetricsRegistry,
) -> std::io::Result<()> {
    std::fs::write(path, metrics.to_json())?;
    log!(Info, "wrote metrics to {}", path.display());
    Ok(())
}

/// Streams trace records as JSONL through a buffered [`TraceWriter`],
/// stamped with a schema-version header line.
fn write_trace(path: &std::path::Path, records: &[TraceRecord]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file));
    writer.write_header()?;
    writer.write_all(records)?;
    writer.finish()?;
    log!(Info, "wrote {} trace records to {}", records.len(), path.display());
    Ok(())
}

/// `repro profile`: run one observed cell, print the phase profile, and
/// optionally gate on [`profile::check`].
fn run_profile_target(opts: &Options) -> std::io::Result<bool> {
    let cfg = profile::ProfileConfig {
        scenario: opts.profile_scenario,
        n: opts.cell_n.unwrap_or_else(|| opts.cfg.sizes.first().copied().unwrap_or(300)),
        events: opts.cfg.events,
        seed: opts.cfg.seed,
        jobs: opts.jobs,
        trace_sample: opts.trace_out.as_ref().map(|_| opts.trace_sample),
        event_limit: opts.event_limit,
        wheel_slot_bits: opts.wheel_bits,
    };
    let out = match profile::run_profile(&cfg) {
        Ok(out) => out,
        Err(diagnosis) => {
            // Satellite fix: a blown event budget renders the harness's
            // budget snapshot instead of crashing the process.
            eprintln!("profile FAILED: {diagnosis}");
            return Ok(false);
        }
    };
    print!("{}", profile::render(&cfg, &out));
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, &out.observed.metrics)?;
    }
    if let Some(path) = &opts.trace_out {
        write_trace(path, &out.observed.trace)?;
    }
    append_ledger(opts, &[trend::record_from_profile(&cfg, &out, &ledger_rev(opts))]);
    if opts.check {
        if let Err(reason) = profile::check(&out) {
            eprintln!("profile check FAILED: {reason}");
            return Ok(false);
        }
        log!(Info, "profile check passed");
    }
    Ok(true)
}

/// `repro report`: run one cell under both MRAI modes with the time-series
/// recorder, write the self-contained HTML page and the raw
/// `timeseries.json`, and optionally gate on [`htmlreport::check`].
fn run_report_target(opts: &Options) -> std::io::Result<bool> {
    let cfg = htmlreport::ReportConfig {
        scenario: opts.profile_scenario,
        n: opts.cell_n.unwrap_or_else(|| opts.cfg.sizes.first().copied().unwrap_or(300)),
        events: opts.cfg.events,
        seed: opts.cfg.seed,
        jobs: opts.jobs,
        bin_us: opts.bin_us,
    };
    log!(
        Info,
        "report: {} n={} events={} bin={}us …",
        cfg.scenario,
        cfg.n,
        cfg.events,
        cfg.bin_us
    );
    let out = htmlreport::run_report(&cfg);
    std::fs::write(&opts.report_out, &out.html)?;
    log!(Info, "wrote HTML report to {}", opts.report_out.display());
    std::fs::write(&opts.timeseries_out, &out.timeseries_json)?;
    log!(Info, "wrote time series to {}", opts.timeseries_out.display());
    if opts.check {
        if let Err(reason) = htmlreport::check(&out) {
            eprintln!("report check FAILED: {reason}");
            return Ok(false);
        }
        log!(Info, "report check passed");
    }
    Ok(true)
}

/// The current git revision, or `"unknown"` outside a work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The revision recorded in ledger entries: `--ledger-rev` wins.
fn ledger_rev(opts: &Options) -> String {
    opts.ledger_rev.clone().unwrap_or_else(git_rev)
}

/// Appends this run's records to the ledger (a no-op under
/// `--no-ledger`). A corrupt or schema-foreign ledger is a configuration
/// problem (exit 2); a filesystem failure is a run failure (exit 1).
fn append_ledger(opts: &Options, records: &[LedgerRecord]) {
    let Some(path) = &opts.ledger else { return };
    match append_records(path, records) {
        Ok(outcome) => log!(
            Info,
            "ledger: {} record(s) appended to {} ({} deduped)",
            outcome.appended,
            path.display(),
            outcome.deduped
        ),
        Err(e @ LedgerError::Io(_)) => {
            eprintln!("ledger: {e}");
            std::process::exit(EXIT_FAIL);
        }
        Err(e) => {
            eprintln!("ledger: {e} (inspect or move {} aside)", path.display());
            std::process::exit(EXIT_USAGE);
        }
    }
}

/// `repro trend`: fold the ledger into trends, write the dashboard, and
/// optionally gate on regressions. Returns the process exit code.
fn run_trend_target(opts: &Options) -> i32 {
    let Some(path) = &opts.ledger else {
        eprintln!("trend: --no-ledger leaves nothing to analyze");
        return 2;
    };
    let mut records = match read_ledger(path) {
        Ok(records) => records,
        Err(e @ LedgerError::Io(_)) => {
            eprintln!("trend: {e}");
            return 1;
        }
        Err(e) => {
            eprintln!("trend: {e} (inspect or move {} aside)", path.display());
            return 2;
        }
    };
    if records.is_empty() {
        eprintln!(
            "trend: ledger {} is empty — run `repro bench|perf|profile` first",
            path.display()
        );
        return 2;
    }
    if let Some(seed) = opts.perturb {
        trend::perturb_latest(&mut records, seed);
    }
    let report = trend::analyze(&records, &opts.trend_opts);
    print!("{}", trend::render_text(&report));
    let html = trend::render_html(&records, &report, &opts.trend_opts);
    if let Err(e) = std::fs::write(&opts.trend_out, html) {
        eprintln!("trend: writing {} failed: {e}", opts.trend_out.display());
        return 1;
    }
    log!(Info, "trend: wrote {}", opts.trend_out.display());
    if opts.check {
        if !report.regressions.is_empty() {
            eprintln!("trend check FAILED: {} regression(s)", report.regressions.len());
            return 1;
        }
        log!(Info, "trend check passed");
    }
    0
}

/// `repro bench`: time the Baseline NO-WRATE sweep once per requested
/// worker count, run the Internet-scale frontier cell (unless
/// `--no-frontier`), and write `BENCH_harness.json` (measurement and
/// JSON rendering live in [`bench`]).
fn run_bench(
    cfg: &RunConfig,
    jobs_list: &[usize],
    frontier: Option<(usize, usize)>,
    out: &std::path::Path,
) -> std::io::Result<bench::BenchOutput> {
    let mut measured = bench::run_bench(cfg, jobs_list);
    if let Some((n, events)) = frontier {
        measured.frontier = Some(bench::run_frontier(n, events, cfg.seed));
    }
    std::fs::write(out, bench::render_json(cfg, &measured, &git_rev()))?;
    log!(Info, "bench: wrote {}", out.display());
    Ok(measured)
}

/// `repro perf`: check (or `--bless`) the exact op counts of every sweep
/// size against the blessed ledger records. Returns the process exit code.
fn run_perf_target(opts: &Options) -> i32 {
    let jobs = bgpscale_simkernel::pool::effective_jobs(opts.jobs).max(1);
    let mut exit = 0i32;
    let rev = ledger_rev(opts);
    let mut records = Vec::new();
    for &n in &opts.cfg.sizes {
        let cfg = perf::PerfConfig {
            scenario: opts.profile_scenario,
            n,
            events: opts.cfg.events,
            seed: opts.cfg.seed,
            jobs,
            blessed: opts.blessed.clone(),
            perturb: opts.perturb,
            wheel_slot_bits: opts.wheel_bits,
        };
        log!(
            Info,
            "perf: {} n={n} events={} seed={} ({}) …",
            cfg.scenario,
            cfg.events,
            cfg.seed,
            if opts.bless { "bless" } else { "check" }
        );
        let measurement = if opts.bless {
            match perf::bless_cell(&cfg, &rev) {
                Ok(m) => m,
                Err(e @ LedgerError::Io(_)) => {
                    eprintln!("perf: blessing n={n} failed: {e}");
                    return EXIT_FAIL;
                }
                Err(e) => {
                    eprintln!(
                        "perf: blessing n={n} failed: {e} (inspect or move {} aside)",
                        cfg.blessed.display()
                    );
                    return EXIT_USAGE;
                }
            }
        } else {
            let (verdict, m) = perf::check_cell(&cfg);
            match verdict {
                perf::PerfVerdict::Pass => {
                    log!(Info, "perf: n={n} OK ({} total ops)", m.ops.grand_total());
                }
                perf::PerfVerdict::Fail(msgs) => {
                    for msg in &msgs {
                        eprintln!("perf: n={n} FAILED: {msg}");
                    }
                    exit = exit.max(1);
                }
                perf::PerfVerdict::ConfigError(msg) => {
                    eprintln!("perf: n={n} config error: {msg}");
                    exit = 2;
                }
            }
            m
        };
        // A `--perturb` run carries a deliberately corrupted counter and
        // a `--wheel-bits` run a non-default queue granularity (same
        // results, different op mix) — never let either into history.
        if opts.perturb.is_none() && opts.wheel_bits.is_none() {
            records.push(trend::record_from_perf(&cfg, &measurement, &rev));
        }
        if let Some(path) = &opts.costmodel_out {
            // One size writes the exact path; more sizes get a per-size
            // suffix so nothing is silently overwritten.
            let path = if opts.cfg.sizes.len() == 1 {
                path.clone()
            } else {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("costmodel");
                let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
                path.with_file_name(format!("{stem}_n{n}.{ext}"))
            };
            if let Err(e) = std::fs::write(&path, measurement.cost.to_json()) {
                eprintln!("perf: writing {} failed: {e}", path.display());
                return 1;
            }
            log!(Info, "perf: wrote {}", path.display());
        }
    }
    if exit != 2 {
        append_ledger(opts, &records);
    }
    exit
}

fn write_csv(dir: &std::path::Path, fig: &Figure) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (i, table) in fig.tables.iter().enumerate() {
        let path = dir.join(format!("{}_{}.csv", fig.id, i));
        let mut f = std::fs::File::create(path)?;
        // Stamp the export like every other artifact; `#` keeps the file
        // readable by gnuplot/pandas comment-skipping loaders.
        f.write_all(
            format!("# schema_version={}\n", bgpscale_obs::SCHEMA_VERSION).as_bytes(),
        )?;
        f.write_all(table.to_csv().as_bytes())?;
    }
    Ok(())
}

fn main() {
    let opts = parse_args();
    if opts.target == "bench" {
        match run_bench(&opts.cfg, &opts.bench_jobs, opts.frontier, &opts.bench_out) {
            Ok(measured) => {
                let records = trend::records_from_bench(&opts.cfg, &measured, &ledger_rev(&opts));
                append_ledger(&opts, &records);
            }
            Err(e) => {
                eprintln!("bench failed: {e}");
                std::process::exit(EXIT_FAIL);
            }
        }
        return;
    }
    if opts.target == "perf" {
        std::process::exit(run_perf_target(&opts));
    }
    if opts.target == "trend" {
        std::process::exit(run_trend_target(&opts));
    }
    if opts.target == "profile" || opts.target == "report" {
        let result = if opts.target == "profile" {
            run_profile_target(&opts)
        } else {
            run_report_target(&opts)
        };
        match result {
            Ok(true) => return,
            Ok(false) => std::process::exit(EXIT_FAIL),
            Err(e) => {
                eprintln!("{} failed: {e}", opts.target);
                std::process::exit(EXIT_FAIL);
            }
        }
    }
    let started = Stopwatch::start();
    let mut sw = Sweeper::new(opts.cfg.clone());
    sw.set_jobs(opts.jobs);
    sw.enable_heartbeat();
    if opts.metrics_out.is_some() || opts.trace_out.is_some() {
        let sample = opts.trace_out.as_ref().map(|_| opts.trace_sample);
        sw.enable_telemetry(sample);
    }
    sw.on_progress(move |scenario, n, mode| {
        log!(
            Info,
            "[{:7.1}s] running {scenario} n={n} {} …",
            started.elapsed_secs_f64(),
            mode.label()
        );
    });

    let targets: Vec<&str> = if opts.target == "all" {
        ALL_TARGETS.to_vec()
    } else {
        vec![opts.target.as_str()]
    };

    let mut failed_claims = 0usize;
    for t in &targets {
        let Some(fig) = run_target(t, &mut sw) else {
            eprintln!("unknown target: {t}");
            usage();
        };
        println!("{}", fig.render());
        failed_claims += fig.claims.iter().filter(|c| !c.holds).count();
        if let Some(dir) = &opts.csv_dir {
            if let Err(e) = write_csv(dir, &fig) {
                log!(Info, "warning: CSV export failed: {e}");
            }
        }
    }
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = write_metrics(path, sw.metrics()) {
            eprintln!("writing {} failed: {e}", path.display());
            std::process::exit(EXIT_FAIL);
        }
    }
    if let Some(path) = &opts.trace_out {
        let trace = sw.take_trace();
        if let Err(e) = write_trace(path, &trace) {
            eprintln!("writing {} failed: {e}", path.display());
            std::process::exit(EXIT_FAIL);
        }
    }
    log!(
        Info,
        "done in {:.1}s ({} experiment cells, {} failed claims)",
        started.elapsed().as_secs_f64(),
        sw.cached_cells(),
        failed_claims
    );
    std::process::exit(if failed_claims > 0 { EXIT_FAIL } else { EXIT_OK });
}
