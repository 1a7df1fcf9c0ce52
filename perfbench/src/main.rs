//! Untraced end-to-end run of one workload.
//!
//! Repeats the workload's distinct cells in turn, each through
//! `run_experiment_with_cost(cfg, 1)`, for `--seconds`, then reports the
//! median set-up time, the mean over the cells of each cell's fastest
//! wall time, the UPDATE rate of those fastest runs, and the process's
//! peak RSS.
//!
//! The fastest repeat of a cell, not the median, stands for its cost
//! because the work is deterministic and CPU-bound: another tenant on the
//! machine can only slow a cell down, and its slow phases last seconds,
//! so a median moves with how much of the window they covered while the
//! minimum does not. Short cells make the minimum steadier still: a cell
//! of a fraction of a second often fits inside a quiet stretch that a
//! longer one would overrun. After the timed window, every repeat's
//! report and cost-model bytes must equal the first repeat's of the same
//! cell, and, once per cell and off the clock, a `jobs = 2` run must equal
//! them too. Any failed check counts its C-events as failed and makes the
//! exit code non-zero.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bgpscale_core::harness::{run_experiment_with_cost, ChurnReport, ExperimentConfig};
use bgpscale_obs::costmodel::CostModel;
use bgpscale_obs::span;
use bgpscale_simkernel::Stopwatch;
use perfbench::{
    finish, median, min, panic_message, Args, CellInputs, Corrupt, Tally, Value, END_TO_END,
    NODE_TYPES,
};

/// One completed harness call.
struct Cell {
    wall_s: f64,
    setup_s: f64,
    report: ChurnReport,
    cost: CostModel,
}

impl Cell {
    /// The bytes every run of the same cell must reproduce.
    fn bytes(&self) -> String {
        format!("{:?}\n{}", self.report, self.cost.to_json())
    }

    /// UPDATE deliveries over all three phases of every C-event.
    fn deliveries(&self) -> u64 {
        self.cost
            .per_event()
            .iter()
            .flat_map(|phases| phases.iter())
            .map(|c| c.deliveries)
            .sum()
    }
}

/// Runs the cell once through the harness, timing it and reading the
/// harness's own set-up spans. A panic (event budget exceeded) is caught.
fn run_cell(cfg: &ExperimentConfig, jobs: usize) -> Result<Cell, String> {
    span::reset();
    let start = Stopwatch::start();
    let out = catch_unwind(AssertUnwindSafe(|| run_experiment_with_cost(cfg, jobs)));
    let wall_s = start.elapsed_secs_f64();
    let (report, cost) = out.map_err(|p| panic_message(p.as_ref()))?;
    let setup_s = ["generate_topology", "build_template"]
        .iter()
        .map(|name| span::get(name).map_or(0.0, |s| s.total_secs()))
        .sum();
    Ok(Cell {
        wall_s,
        setup_s,
        report,
        cost,
    })
}

/// Checks that a cell's report agrees with its cost model and with the
/// inputs derived off the clock.
fn consistency(cell: &Cell, inputs: &CellInputs) -> Result<(), String> {
    let events = inputs.originators.len();
    if cell.report.events != events || cell.cost.events() != events {
        return Err(format!(
            "events: report {} cost model {} expected {events}",
            cell.report.events,
            cell.cost.events()
        ));
    }
    for (t, (ty, &want)) in NODE_TYPES.iter().zip(&inputs.type_counts).enumerate() {
        if cell.report.types[t].node_count != want {
            return Err(format!(
                "{ty:?} count {} != topology's {want}",
                cell.report.types[t].node_count
            ));
        }
    }
    // DOWN + UP deliveries are the churn the report averages; the harness
    // sums exact integers in f64 and divides once, so equality is exact.
    let measured: u64 = cell
        .cost
        .per_event()
        .iter()
        .map(|p| p[1].deliveries + p[2].deliveries)
        .sum();
    let mean = measured as f64 / events as f64;
    if cell.report.mean_total_updates != mean {
        return Err(format!(
            "report mean_total_updates {} != cost model's {mean}",
            cell.report.mean_total_updates
        ));
    }
    Ok(())
}

/// Applies the self-test fault to a cell.
fn corrupt(cell: &mut Cell, how: Corrupt) {
    match how {
        Corrupt::Report => cell.report.mean_total_updates += 1.0,
        Corrupt::OpCount => {
            let mut phases: Vec<_> = cell.cost.per_event().to_vec();
            phases[0][1].deliveries += 1;
            let mut cost = CostModel::new();
            for p in phases {
                cost.push_event(p);
            }
            cell.cost = cost;
        }
    }
}

/// Checks one cell against the reference bytes and its inputs, recording
/// the outcome. Returns the cell when it passed.
fn check(
    tally: &mut Tally,
    what: &str,
    cell: Result<Cell, String>,
    reference: &mut Option<String>,
    inputs: &CellInputs,
) -> Option<Cell> {
    let events = inputs.originators.len();
    tally.attempt(events);
    let cell = match cell {
        Ok(c) => c,
        Err(msg) => {
            tally.fail(events, format!("{what}: panicked: {msg}"));
            return None;
        }
    };
    if let Err(msg) = consistency(&cell, inputs) {
        tally.fail(events, format!("{what}: {msg}"));
        return None;
    }
    let bytes = cell.bytes();
    match reference {
        None => *reference = Some(bytes),
        Some(r) if *r != bytes => {
            tally.fail(
                events,
                format!("{what}: report/cost bytes differ from the first run"),
            );
            return None;
        }
        Some(_) => {}
    }
    Some(cell)
}

/// The checked repeats of one distinct cell.
#[derive(Default)]
struct Repeats {
    walls: Vec<f64>,
    setups: Vec<f64>,
    deliveries: u64,
}

fn main() {
    let args = Args::from_env();
    let cfgs = args.configs();

    // Timed window: rounds over the distinct cells, single-threaded, until
    // every cell ran at least once and the next cell would end past the
    // deadline, or one panics.
    let mut runs: Vec<Vec<Result<Cell, String>>> = cfgs.iter().map(|_| Vec::new()).collect();
    let window = Stopwatch::start();
    'window: loop {
        for (c, cfg) in cfgs.iter().enumerate() {
            let cell = run_cell(cfg, 1);
            let wall_s = cell.as_ref().map_or(f64::INFINITY, |c| c.wall_s);
            runs[c].push(cell);
            let round_done = runs.iter().all(|r| !r.is_empty());
            if round_done && window.elapsed_secs_f64() + wall_s > args.seconds {
                break 'window;
            }
        }
    }
    // Read before the benchmark allocates anything of its own, so the
    // high-water mark is the harness's alone.
    let peak_rss = bgpscale_simkernel::rss::peak_rss_bytes().unwrap_or(0) as f64 / 1e6;

    // Off the clock: check every repeat against the first of its cell and
    // against the cell's inputs, then the parallel path against the same
    // bytes.
    let mut tally = Tally::default();
    let mut all_setups = Vec::new();
    let mut per_cell = Vec::new();
    for (c, (cfg, cell_runs)) in cfgs.iter().zip(runs).enumerate() {
        let inputs = CellInputs::derive(cfg);
        println!("{}", inputs.describe());
        let mut reference = None;
        let mut reps = Repeats::default();
        for (i, cell) in cell_runs.into_iter().enumerate() {
            let what = format!("cell {c} repeat {i}");
            let Some(cell) = check(&mut tally, &what, cell, &mut reference, &inputs) else {
                continue;
            };
            if reps.walls.is_empty() {
                let pops: u64 = cell
                    .cost
                    .per_event()
                    .iter()
                    .flatten()
                    .map(|c| c.queue_pops)
                    .sum();
                reps.deliveries = cell.deliveries();
                println!(
                    "# work of cell {c} (seed {:#x}): deliveries={} queue_pops={pops}",
                    cfg.seed, reps.deliveries
                );
            }
            reps.walls.push(cell.wall_s);
            reps.setups.push(cell.setup_s);
        }

        let mut parallel = run_cell(cfg, 2);
        if let (Some(how), 0, Ok(cell)) = (args.corrupt, c, parallel.as_mut()) {
            corrupt(cell, how);
        }
        let what = format!("cell {c} jobs=2");
        check(&mut tally, &what, parallel, &mut reference, &inputs);

        println!("# cell {c} walls (s): {:?}", reps.walls);
        all_setups.extend_from_slice(&reps.setups);
        per_cell.push(reps);
    }

    println!(
        "# workload {} seed {:#x}: n={} cells={} events per cell={} repeats per cell={:?}",
        args.workload.name,
        args.seed,
        cfgs[0].n,
        cfgs.len(),
        cfgs[0].events,
        per_cell.iter().map(|r| r.walls.len()).collect::<Vec<_>>()
    );
    println!("# set-ups (s): {all_setups:?}");
    // Each cell at its fastest: the mean of the cells' fastest walls, and
    // the UPDATE rate over the cells' fastest simulated parts (wall minus
    // set-up of one repeat). A cell without a passing repeat makes both
    // NaN, which fails the run.
    let (mut wall_sum, mut sim_sum) = (0.0, 0.0);
    for reps in &per_cell {
        let sims: Vec<f64> = reps
            .walls
            .iter()
            .zip(&reps.setups)
            .map(|(w, s)| w - s)
            .collect();
        wall_sum += min(&reps.walls);
        sim_sum += min(&sims);
    }
    let deliveries: u64 = per_cell.iter().map(|r| r.deliveries).sum();
    let values = [
        median(&all_setups),
        wall_sum / cfgs.len() as f64,
        deliveries as f64 / sim_sum,
        peak_rss,
    ];
    let values: Vec<Value> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&spec, value)| Value { spec, value })
        .collect();
    std::process::exit(finish(&tally, &values));
}
