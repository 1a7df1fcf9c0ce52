//! Cross-crate contract tests for the run ledger (`obs::ledger` +
//! `experiments::trend`): the deterministic half of every record is
//! byte-identical for any worker count, history dedupes on content, and
//! a damaged ledger is rejected loudly instead of silently analyzed.

use bgpscale_experiments::perf::{measure, PerfConfig};
use bgpscale_experiments::trend::{self, TrendOptions};
use bgpscale_obs::ledger::{append_records, read_ledger, LedgerError};
use bgpscale_topology::GrowthScenario;

fn cell_cfg(jobs: usize) -> PerfConfig {
    PerfConfig {
        scenario: GrowthScenario::Baseline,
        n: 150,
        events: 2,
        seed: 7,
        jobs,
        blessed: std::path::PathBuf::from("/nonexistent"),
        perturb: None,
        wheel_slot_bits: None,
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpscale_ledger_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("runs.jsonl")
}

/// The ISSUE acceptance bar: ledger `det` fields are byte-identical
/// across `--jobs 1/4/8`. Only the wall side may differ.
#[test]
fn det_fields_are_byte_identical_across_jobs_1_4_8() {
    let records: Vec<_> = [1usize, 4, 8]
        .iter()
        .map(|&jobs| {
            let cfg = cell_cfg(jobs);
            trend::record_from_perf(&cfg, &measure(&cfg), "testrev")
        })
        .collect();
    let baseline = records[0].det_json();
    for (r, jobs) in records.iter().zip([1u64, 4, 8]) {
        assert_eq!(r.det_json(), baseline, "det bytes drifted at jobs={jobs}");
        assert_eq!(r.det_hash(), records[0].det_hash());
        assert_eq!(r.wall.jobs, jobs, "jobs is recorded wall-side");
    }
}

/// Re-recording the same config at the same revision is recognized by
/// content hash and skipped; a different revision appends.
#[test]
fn same_config_and_rev_dedupes_by_content_hash() {
    let path = temp_path("dedupe");
    let _ = std::fs::remove_file(&path);
    let cfg = cell_cfg(1);
    let m = measure(&cfg);
    let first = trend::record_from_perf(&cfg, &m, "revA");
    let out = append_records(&path, std::slice::from_ref(&first)).unwrap();
    assert_eq!((out.appended, out.deduped), (1, 0));

    // Same cell, same rev, fresh measurement: different wall time, same
    // det content → deduped.
    let rerun = trend::record_from_perf(&cfg, &measure(&cfg), "revA");
    let out = append_records(&path, &[rerun]).unwrap();
    assert_eq!((out.appended, out.deduped), (0, 1));

    // Same cell at a new revision is new history.
    let next_rev = trend::record_from_perf(&cfg, &m, "revB");
    let out = append_records(&path, &[next_rev]).unwrap();
    assert_eq!((out.appended, out.deduped), (1, 0));

    let history = read_ledger(&path).unwrap();
    assert_eq!(history.len(), 2);
    assert_eq!(history[0].git_rev, "revA");
    assert_eq!(history[1].git_rev, "revB");
    assert_eq!(
        history[0].fingerprint(),
        history[1].fingerprint(),
        "same cell, one series"
    );
    std::fs::remove_file(&path).unwrap();
}

/// A truncated trailing line (interrupted write) fails the canonical
/// round-trip and surfaces as `Corrupt` with its line number — the CLI
/// maps this to exit 2 rather than analyzing a damaged history.
#[test]
fn truncated_trailing_line_is_rejected_as_corrupt() {
    let path = temp_path("truncate");
    let _ = std::fs::remove_file(&path);
    let cfg = cell_cfg(1);
    let m = measure(&cfg);
    append_records(&path, &[trend::record_from_perf(&cfg, &m, "revA")]).unwrap();
    append_records(&path, &[trend::record_from_perf(&cfg, &m, "revB")]).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.trim_end().len() - 25;
    std::fs::write(&path, &text[..cut]).unwrap();

    match read_ledger(&path) {
        Err(LedgerError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Corrupt at line 2, got {other:?}"),
    }
    // Appending to a damaged ledger must refuse too, not paper over it.
    assert!(matches!(
        append_records(&path, &[trend::record_from_perf(&cfg, &m, "revC")]),
        Err(LedgerError::Corrupt { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

/// Disk round trip feeds the trend gate: two revisions of real
/// measurements pass fresh, and a seeded perturbation is caught.
#[test]
fn trend_gate_passes_fresh_history_and_catches_perturbation() {
    let path = temp_path("trend");
    let _ = std::fs::remove_file(&path);
    let cfg = cell_cfg(1);
    let m = measure(&cfg);
    append_records(&path, &[trend::record_from_perf(&cfg, &m, "revA")]).unwrap();
    append_records(&path, &[trend::record_from_perf(&cfg, &m, "revB")]).unwrap();

    let mut records = read_ledger(&path).unwrap();
    let opts = TrendOptions::default();
    let report = trend::analyze(&records, &opts);
    assert_eq!(report.revs, vec!["revA", "revB"]);
    assert!(report.regressions.is_empty(), "{:?}", report.regressions);

    trend::perturb_latest(&mut records, 1);
    let perturbed = trend::analyze(&records, &opts);
    assert!(
        !perturbed.regressions.is_empty(),
        "seeded perturbation must trip the gate"
    );
    std::fs::remove_file(&path).unwrap();
}
