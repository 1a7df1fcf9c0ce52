//! Integration tests for `bgpscale-detflow`: exact fixture anchors, the
//! real-workspace gate, JSON byte-determinism, end-to-end CLI exit
//! codes, and — the acceptance test of the whole tool — proof that the
//! seeded cross-function wall-clock reach is invisible to detlint's
//! line rules while detflow flags it with a witness path.

use std::path::{Path, PathBuf};
use std::process::Command;

use bgpscale_detflow::{analyze, fixtures, report, Analysis, FlowConfig, Rule};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn analyze_case(name: &str) -> Analysis {
    let dir = fixtures_root().join(name);
    let cfg = FlowConfig::load(&dir.join("detflow.toml")).expect("fixture config");
    analyze(&dir, &cfg).expect("fixture analysis")
}

/// `(file, line, rule)` triples, already in reporting order.
fn findings(a: &Analysis) -> Vec<(String, usize, Rule)> {
    a.diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect()
}

#[test]
fn fixture_self_test_passes() {
    let report = fixtures::run(&fixtures_root()).expect("fixtures run");
    assert!(
        report.ok(),
        "fixture self-test failed:\n{}",
        fixtures::render(&report)
    );
    assert!(
        report.checked >= 10,
        "expected every seeded marker to be checked, got {}",
        report.checked
    );
}

#[test]
fn graph_case_fires_with_exact_anchors() {
    // Full set equality, not spot checks: the graph case must produce
    // exactly these findings — one per pass plus the allow-hygiene pair
    // — each at its precise (file, line) anchor.
    let got = findings(&analyze_case("graph"));
    let expected: Vec<(String, usize, Rule)> = [
        ("det/allows.rs", 4, Rule::StaleAllow),
        ("det/allows.rs", 9, Rule::BadAllow),
        ("det/hot.rs", 8, Rule::PanicSurface),
        ("io/main.rs", 4, Rule::ArtifactContract),
        ("io/write.rs", 3, Rule::ArtifactContract),
        ("util/helper.rs", 7, Rule::DetClosure),
        ("util/helper.rs", 12, Rule::DetClosure),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r))
    .collect();
    assert_eq!(got, expected);
}

#[test]
fn drift_case_flags_every_config_at_line_one() {
    let got = findings(&analyze_case("drift"));
    let expected: Vec<(String, usize, Rule)> = ["clippy.toml", "detflow.toml", "detlint.toml"]
        .into_iter()
        .map(|f| (f.to_string(), 1, Rule::ConfigCoherence))
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn clean_case_has_zero_findings_and_counted_allows() {
    let a = analyze_case("clean");
    assert!(
        a.diagnostics.is_empty(),
        "false positives in the clean case: {:?}",
        findings(&a)
    );
    // Both audited allows are used, hence counted — an unused one would
    // have been a stale-allow diagnostic above.
    let allows: Vec<(String, usize, Rule)> = a
        .allows
        .iter()
        .map(|al| (al.file.clone(), al.line, al.rule))
        .collect();
    assert_eq!(
        allows,
        [
            ("det/hot.rs".to_string(), 7, Rule::PanicSurface),
            ("util/helper.rs".to_string(), 5, Rule::DetClosure),
        ]
    );
}

#[test]
fn every_rule_fires_somewhere_in_the_fixtures() {
    let mut seen: Vec<Rule> = Vec::new();
    for case in ["graph", "drift"] {
        for (_, _, rule) in findings(&analyze_case(case)) {
            if !seen.contains(&rule) {
                seen.push(rule);
            }
        }
    }
    for rule in Rule::ALL {
        assert!(seen.contains(&rule), "rule {rule} fired nowhere in the fixtures");
    }
}

#[test]
fn det_closure_witness_names_the_entry_point() {
    let a = analyze_case("graph");
    let witness_of = |line: usize| -> Vec<String> {
        a.diagnostics
            .iter()
            .find(|d| d.rule == Rule::DetClosure && d.file == "util/helper.rs" && d.line == line)
            .expect("det-closure finding")
            .witness
            .clone()
    };
    // The witness walks from the deterministic entry point to the
    // function holding the crossing call — the cross-function evidence
    // a line rule cannot produce.
    assert_eq!(witness_of(7), ["det::entry::simulate", "util::helper::ticks"]);
    assert_eq!(witness_of(12), ["det::entry::checkpoint", "util::helper::stamp"]);
}

#[test]
fn cross_function_wall_clock_is_invisible_to_detlint() {
    // THE acceptance fixture: the same tree, the same tier map, scanned
    // by detlint's line rules — zero diagnostics, because no line in the
    // deterministic tier holds a banned token. The wall-clock reads sit
    // two calls away in util/helper.rs, outside detlint's deterministic
    // paths. detflow's closure pass (asserted exact in
    // `graph_case_fires_with_exact_anchors`) is what closes this gap.
    let dir = fixtures_root().join("graph");
    let cfg = bgpscale_detlint::config::Config::load(&dir.join("detlint.toml"))
        .expect("graph detlint.toml");
    let a = bgpscale_detlint::scan::scan_workspace(&dir, &cfg).expect("detlint scan");
    assert!(
        a.diagnostics.is_empty(),
        "detlint unexpectedly flagged the graph fixture (the blind-spot \
         premise broke): {:?}",
        a.diagnostics.iter().map(|d| d.render()).collect::<Vec<_>>()
    );
    assert!(
        a.files.iter().any(|f| f == "util/helper.rs"),
        "detlint never scanned the file holding the crossing — the \
         comparison would be vacuous"
    );
}

#[test]
fn workspace_is_clean_under_detflow() {
    // The gate that matters: the real workspace, under the checked-in
    // detflow.toml, analyzes clean. This is what makes
    // `cargo test -p bgpscale-detflow` a determinism gate and not just a
    // unit-test suite.
    let root = workspace_root();
    let cfg = FlowConfig::load(&root.join("detflow.toml")).expect("workspace detflow.toml");
    let a = analyze(&root, &cfg).expect("workspace analysis");
    assert!(
        a.files.len() > 50 && a.functions > 400 && a.entry_points > 150,
        "scan looks hollow: {} files, {} functions, {} entry points — \
         check detflow.toml paths",
        a.files.len(),
        a.functions,
        a.entry_points
    );
    assert_eq!(a.hot_roots, 4, "a [hot-paths] root no longer matches any function");
    assert!(a.writers >= 5, "writer detection looks broken: {}", a.writers);
    let rendered: Vec<String> = a.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        a.diagnostics.is_empty(),
        "the workspace must analyze clean (restructure the hazard or add \
         an audited detflow::allow):\n{}",
        rendered.join("\n")
    );
    // Audited allows are a curated list: keep a visible floor & ceiling.
    assert!(
        !a.allows.is_empty() && a.allows.len() < 64,
        "unexpected audited-allow count: {}",
        a.allows.len()
    );
}

#[test]
fn workspace_json_is_byte_deterministic() {
    let root = workspace_root();
    let cfg = FlowConfig::load(&root.join("detflow.toml")).expect("workspace detflow.toml");
    let a = analyze(&root, &cfg).expect("analysis 1");
    let b = analyze(&root, &cfg).expect("analysis 2");
    assert_eq!(report::render_json(&a), report::render_json(&b));
}

/// Builds a miniature workspace in the temp dir with a seeded
/// cross-function wall-clock reach: `entry.rs` (deterministic) calls
/// `hatch.rs` (not), which calls `Instant::now`.
fn seeded_tree() -> PathBuf {
    let root = std::env::temp_dir().join(format!("detflow-seeded-{}", std::process::id()));
    let src: &Path = &root.join("src");
    std::fs::create_dir_all(src).expect("create temp tree");
    std::fs::write(
        root.join("detflow.toml"),
        "[scan]\ninclude = [\"src\"]\n\
         [deterministic]\npaths = [\"src/entry.rs\"]\n\
         [artifact]\nstamp = \"SCHEMA_VERSION\"\n\
         [coherence]\ndetlint-config = \"detlint.toml\"\nclippy-config = \"\"\n",
    )
    .expect("write detflow.toml");
    std::fs::write(
        root.join("detlint.toml"),
        "[scan]\ninclude = [\"src\"]\n[deterministic]\npaths = [\"src/entry.rs\"]\n",
    )
    .expect("write detlint.toml");
    std::fs::write(
        src.join("entry.rs"),
        "pub fn run(x: u64) -> u64 {\n    crate::hatch::leak(x)\n}\n",
    )
    .expect("write entry.rs");
    std::fs::write(
        src.join("hatch.rs"),
        "pub fn leak(x: u64) -> u64 {\n    \
         std::time::Instant::now().elapsed().as_secs() ^ x\n}\n",
    )
    .expect("write hatch.rs");
    root
}

#[test]
fn seeded_violation_exits_one_end_to_end() {
    // The same check CI's mutation gate performs, via the real binary:
    // a seeded cross-function reach must exit with code 1 exactly, and
    // the --json report must be byte-identical across runs.
    let root = seeded_tree();
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_detflow"))
            .arg("--check")
            .arg("--root")
            .arg(&root)
            .args(extra)
            .output()
            .expect("run detflow")
    };
    let human = run(&[]);
    let j1 = run(&["--json"]);
    let j2 = run(&["--json"]);
    std::fs::remove_dir_all(&root).expect("remove temp tree");

    assert_eq!(human.status.code(), Some(1), "violations must exit 1 exactly");
    let text = String::from_utf8(human.stdout).expect("utf8 report");
    assert!(
        text.contains("src/hatch.rs:2: [det-closure]"),
        "missing the seeded crossing:\n{text}"
    );
    assert!(
        text.contains("via bgpscale::entry::run -> bgpscale::hatch::leak"),
        "missing the witness path:\n{text}"
    );
    assert_eq!(j1.status.code(), Some(1));
    assert_eq!(j1.stdout, j2.stdout, "--json must be byte-deterministic");
}

#[test]
fn cli_exit_codes_cover_the_whole_convention() {
    let ws = Command::new(env!("CARGO_BIN_EXE_detflow"))
        .arg("--check")
        .arg("--quiet")
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run detflow on the workspace");
    assert_eq!(
        ws.status.code(),
        Some(0),
        "the workspace must be clean:\n{}",
        String::from_utf8_lossy(&ws.stdout)
    );
    let fixtures = Command::new(env!("CARGO_BIN_EXE_detflow"))
        .arg("--fixtures")
        .arg("--root")
        .arg(fixtures_root())
        .output()
        .expect("run detflow --fixtures");
    assert_eq!(
        fixtures.status.code(),
        Some(0),
        "fixture self-test failed:\n{}",
        String::from_utf8_lossy(&fixtures.stdout)
    );
    let usage = Command::new(env!("CARGO_BIN_EXE_detflow"))
        .arg("--no-such-flag")
        .output()
        .expect("run detflow with a bad flag");
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");
}
