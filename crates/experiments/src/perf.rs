//! `repro perf`: the CI perf-regression gate over the exact cost model.
//!
//! A **blessed record** is an ordinary run-ledger line (`obs::ledger`)
//! of kind `perf`, kept in its own append-only file
//! (`results/ledger/blessed.jsonl` by default). `--bless` appends the
//! measured cell with `ledger::append_records`; `--check` reads the file
//! with `ledger::read_ledger` and compares the cell against the newest
//! `perf` record of the same scenario and size. Because the counts are
//! exact integers and a pure function of `(scenario, n, mode, seed,
//! events)`, the comparison policy is two-tiered:
//!
//! * **deterministic fields — exact equality.** Every op count and the
//!   `costmodel.json` content hash (which pins the per-event, per-phase
//!   breakdown). Any drift is a real behavior change (more decision runs,
//!   more queue work, …) and must be either fixed or consciously
//!   re-blessed with `repro perf --bless`.
//! * **wall-clock time — a wide multiplicative band** (×/÷
//!   [`WALL_BAND`]). Wall time is recorded for context only; the band
//!   exists to catch pathological blowups (an accidental O(n²) that the
//!   op counts would also catch) without flaking on slow CI machines.
//!
//! Exit codes follow the repo-wide convention (`detlint --check`,
//! `repro --check`): 0 = pass, 1 = check failed, 2 = usage/config error
//! (a corrupt blessed file, or a record blessed for other cell
//! coordinates or another schema).
//!
//! `--perturb <seed>` deterministically inflates one op-class count
//! before comparison — CI uses it as a mutation gate proving the check
//! actually fails (exit exactly 1) when counts drift.

use std::path::PathBuf;

use bgpscale_core::{run_experiment_with_cost, ExperimentConfig};
use bgpscale_obs::costmodel::OpCounts;
use bgpscale_obs::ledger::{append_records, read_ledger, LedgerError, LedgerRecord, RunKind};
use bgpscale_obs::{log, CostModel};
use bgpscale_simkernel::rng::hash64_pair;
use bgpscale_simkernel::Stopwatch;
use bgpscale_topology::GrowthScenario;

use crate::trend::record_from_perf;

/// Wall-time sanity band: measured wall time must lie within
/// `[blessed / WALL_BAND, blessed · WALL_BAND]`. Deliberately huge —
/// the exact op counts are the real gate; this only catches order-of-
/// magnitude blowups.
pub const WALL_BAND: u64 = 25;

/// One perf cell to check or bless.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    pub scenario: GrowthScenario,
    pub n: usize,
    pub events: usize,
    pub seed: u64,
    pub jobs: usize,
    /// The blessed-record ledger (`--blessed`).
    pub blessed: PathBuf,
    /// When `Some(seed)`, deterministically perturb one measured op count
    /// before comparison (the CI mutation gate).
    pub perturb: Option<u64>,
    /// When `Some(bits)`, run the cell on a timing wheel with that slot
    /// granularity instead of the default. A second mutation-gate axis:
    /// pop order (and thus every simulation result) is granularity-
    /// invariant, but the queue op-count mix is not, so a perturbed run
    /// against a default-granularity record must exit exactly 1.
    pub wheel_slot_bits: Option<u32>,
}

/// The measured side of one cell.
#[derive(Clone, Debug)]
pub struct PerfMeasurement {
    pub ops: OpCounts,
    pub wall_s: f64,
    /// The full model, for `--costmodel-out` and the record's hash.
    pub cost: CostModel,
}

/// How a check ended; maps onto the process exit code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PerfVerdict {
    /// Exit 0.
    Pass,
    /// Exit 1 — counts or the cost-model hash drifted, wall time blew the
    /// band, or no record is blessed (the message carries the `--bless`
    /// hint).
    Fail(Vec<String>),
    /// Exit 2 — the blessed file is corrupt, or its record was blessed
    /// for different cell coordinates or another schema; comparing would
    /// be meaningless.
    ConfigError(String),
}

fn cell_config(cfg: &PerfConfig) -> ExperimentConfig {
    ExperimentConfig {
        scenario: cfg.scenario,
        n: cfg.n,
        events: cfg.events,
        seed: cfg.seed,
        bgp: Default::default(),
        event_limit: None,
        wheel_slot_bits: cfg.wheel_slot_bits,
    }
}

/// Runs the cell and returns its measured cost model and wall time.
pub fn measure(cfg: &PerfConfig) -> PerfMeasurement {
    let started = Stopwatch::start();
    let (_report, cost) = run_experiment_with_cost(&cell_config(cfg), cfg.jobs.max(1));
    let wall_s = started.elapsed_secs_f64();
    let mut ops = cost.total();
    if let Some(seed) = cfg.perturb {
        perturb_ops(&mut ops, seed);
    }
    PerfMeasurement { ops, wall_s, cost }
}

/// Deterministically inflates one op-class count: class index and bump
/// size both derive from `seed` via the repo's standard seed-fanout hash.
fn perturb_ops(ops: &mut OpCounts, seed: u64) {
    let idx = (hash64_pair(seed, 0xBAD) % OpCounts::FIELD_COUNT as u64) as usize;
    let bump = 1 + hash64_pair(seed, 0xB00) % 1_000;
    let class = OpCounts::field_names()[idx];
    let mut fields = ops.fields();
    fields[idx].1 += bump;
    *ops = OpCounts::from_fields(&fields);
    log!(Info, "perf: perturbing {class} by +{bump} (seed {seed})");
}

fn hex(hash: Option<u64>) -> String {
    hash.map_or_else(|| "none".to_string(), |h| format!("{h:016x}"))
}

/// Compares a measured record against the blessed records: the newest
/// `perf` record with the same scenario and size is the baseline.
pub fn compare(measured: &LedgerRecord, blessed: &[LedgerRecord]) -> PerfVerdict {
    let Some(base) = blessed
        .iter()
        .rev()
        .find(|r| r.kind == RunKind::Perf && r.scenario == measured.scenario && r.n == measured.n)
    else {
        return PerfVerdict::Fail(vec![format!(
            "no blessed perf record for {} n={}; record one with `repro perf --bless`",
            measured.scenario, measured.n
        )]);
    };
    // Coordinate checks first: a mismatch means the comparison itself is
    // ill-posed (exit 2), not that performance regressed.
    if base.schema != measured.schema {
        return PerfVerdict::ConfigError(format!(
            "blessed record has schema_version {}, this build writes {} — re-bless",
            base.schema, measured.schema
        ));
    }
    if base.fingerprint() != measured.fingerprint() {
        return PerfVerdict::ConfigError(format!(
            "blessed record is for mode={} seed={} events={}, this run uses \
             mode={} seed={} events={} — re-bless or fix the invocation",
            base.mode, base.seed, base.events, measured.mode, measured.seed, measured.events
        ));
    }

    let mut failures = Vec::new();
    // Tier 1: exact equality of every deterministic field.
    for ((name, value), (_, expected)) in measured.ops.fields().iter().zip(base.ops.fields()) {
        if *value != expected {
            failures.push(format!(
                "op count drift: {name} = {value}, blessed {expected} ({:+})",
                i128::from(*value) - i128::from(expected)
            ));
        }
    }
    if measured.artifacts.costmodel != base.artifacts.costmodel {
        failures.push(format!(
            "costmodel hash {} != blessed {}",
            hex(measured.artifacts.costmodel),
            hex(base.artifacts.costmodel)
        ));
    }
    // Tier 2: wall-time sanity band (wall-side, intentionally loose).
    let (wall, base_wall) = (measured.wall.wall_us, base.wall.wall_us);
    if base_wall > 0
        && (wall > base_wall.saturating_mul(WALL_BAND)
            || wall.saturating_mul(WALL_BAND) < base_wall)
    {
        failures.push(format!(
            "wall time {wall}µs outside ×/÷{WALL_BAND} band of blessed {base_wall}µs"
        ));
    }
    if failures.is_empty() {
        PerfVerdict::Pass
    } else {
        PerfVerdict::Fail(failures)
    }
}

/// Runs the full check for one cell: measure, read the blessed records,
/// compare.
pub fn check_cell(cfg: &PerfConfig) -> (PerfVerdict, PerfMeasurement) {
    let m = measure(cfg);
    let verdict = match read_ledger(&cfg.blessed) {
        // The revision plays no part in the comparison.
        Ok(blessed) => compare(&record_from_perf(cfg, &m, ""), &blessed),
        Err(e @ LedgerError::Io(_)) => PerfVerdict::Fail(vec![e.to_string()]),
        Err(e) => PerfVerdict::ConfigError(format!(
            "{e} (inspect or move {} aside)",
            cfg.blessed.display()
        )),
    };
    (verdict, m)
}

/// Measures the cell and appends its record to the blessed ledger (the
/// `--bless` flow).
///
/// # Errors
/// Any [`LedgerError`] from `append_records` — including a corrupt
/// blessed file, which it refuses to append to.
pub fn bless_cell(cfg: &PerfConfig, git_rev: &str) -> Result<PerfMeasurement, LedgerError> {
    let m = measure(cfg);
    let outcome = append_records(&cfg.blessed, &[record_from_perf(cfg, &m, git_rev)])?;
    log!(
        Info,
        "perf: blessed {} n={} in {} ({} deduped)",
        cfg.scenario,
        cfg.n,
        cfg.blessed.display(),
        outcome.deduped
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(blessed: PathBuf) -> PerfConfig {
        PerfConfig {
            scenario: GrowthScenario::Baseline,
            n: 150,
            events: 2,
            seed: 7,
            jobs: 2,
            blessed,
            perturb: None,
            wheel_slot_bits: None,
        }
    }

    fn tmpfile(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("bgpscale_perf_{tag}_{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    /// A measured record of the tiny cell, with no file involved.
    fn tiny_record() -> LedgerRecord {
        let cfg = tiny(PathBuf::new());
        record_from_perf(&cfg, &measure(&cfg), "r")
    }

    fn assert_config_error(verdict: PerfVerdict, needle: &str) {
        match verdict {
            PerfVerdict::ConfigError(msg) => assert!(msg.contains(needle), "{msg}"),
            v => panic!("expected a config error mentioning {needle:?}, got {v:?}"),
        }
    }

    fn assert_fails_with(verdict: PerfVerdict, needle: &str) {
        match verdict {
            PerfVerdict::Fail(msgs) => {
                assert!(msgs.iter().any(|m| m.contains(needle)), "{msgs:?}")
            }
            v => panic!("expected a failure mentioning {needle:?}, got {v:?}"),
        }
    }

    #[test]
    fn bless_then_check_passes() {
        let path = tmpfile("roundtrip");
        let cfg = tiny(path.clone());
        bless_cell(&cfg, "r1").unwrap();
        let blessed = read_ledger(&path).unwrap();
        assert_eq!(blessed.len(), 1);
        assert_eq!(blessed[0].kind, RunKind::Perf);
        assert!(blessed[0].artifacts.costmodel.is_some());
        let (verdict, m) = check_cell(&cfg);
        assert_eq!(verdict, PerfVerdict::Pass, "fresh record must pass");
        assert!(m.ops.grand_total() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn perturbation_fails_the_check() {
        let path = tmpfile("perturb");
        bless_cell(&tiny(path.clone()), "r1").unwrap();
        let perturbed = PerfConfig {
            perturb: Some(1),
            ..tiny(path.clone())
        };
        assert_fails_with(check_cell(&perturbed).0, "op count drift");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_record_fails_with_bless_hint() {
        let path = tmpfile("missing");
        let cfg = PerfConfig {
            n: 175,
            ..tiny(path)
        };
        assert_fails_with(check_cell(&cfg).0, "--bless");
    }

    #[test]
    fn coordinate_or_schema_mismatch_is_a_config_error() {
        let measured = tiny_record();
        let mut other_events = measured.clone();
        other_events.events += 1;
        assert_config_error(compare(&measured, &[other_events]), "events");
        let mut other_seed = measured.clone();
        other_seed.seed += 1;
        assert_config_error(compare(&measured, &[other_seed]), "seed");
        let mut other_mode = measured.clone();
        other_mode.mode = "WRATE".to_string();
        assert_config_error(compare(&measured, &[other_mode]), "mode");
        let mut other_schema = measured.clone();
        other_schema.schema = 1;
        assert_config_error(compare(&measured, &[other_schema]), "schema_version");
    }

    #[test]
    fn corrupted_blessed_line_is_a_config_error() {
        let path = tmpfile("corrupt");
        let cfg = tiny(path.clone());
        bless_cell(&cfg, "r1").unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"schema_version\":2,\"det\":garbage\n");
        std::fs::write(&path, text).unwrap();
        assert_config_error(check_cell(&cfg).0, "corrupt");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn same_ops_with_another_costmodel_hash_fails() {
        let measured = tiny_record();
        let mut base = measured.clone();
        base.artifacts.costmodel = base.artifacts.costmodel.map(|h| h ^ 1);
        assert_eq!(base.ops, measured.ops);
        assert_fails_with(compare(&measured, &[base]), "costmodel hash");
    }

    #[test]
    fn newest_record_is_the_baseline_and_wall_band_applies() {
        let measured = tiny_record();
        let mut stale = measured.clone();
        stale.ops.deliveries += 1;
        let mut slow = measured.clone();
        slow.wall.wall_us = measured.wall.wall_us.max(1) * (WALL_BAND + 1);
        assert_eq!(
            compare(&measured, &[stale, measured.clone()]),
            PerfVerdict::Pass
        );
        assert_fails_with(compare(&measured, &[slow]), "wall time");
    }

    #[test]
    fn perturb_is_deterministic() {
        let mut a = OpCounts::default();
        let mut b = OpCounts::default();
        perturb_ops(&mut a, 3);
        perturb_ops(&mut b, 3);
        assert_eq!(a, b);
        assert!(a.grand_total() > 0, "perturbation must change something");
        let mut c = OpCounts::default();
        perturb_ops(&mut c, 4);
        assert_ne!(a, c, "different seeds should differ (almost surely)");
    }
}
