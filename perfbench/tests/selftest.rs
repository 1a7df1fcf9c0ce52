//! Self-tests of the benchmark: tiny versions of every workload run end to
//! end through both binaries, the correctness gates trip on corrupted
//! reports and op counts, the seed reaches the topology of every cell, and
//! `BENCHMARK.json` lists exactly the gated workloads and the metrics the
//! binaries print.

use std::process::Command;

use perfbench::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

const UNTRACED: &str = env!("CARGO_BIN_EXE_perfbench");
const TRACED: &str = env!("CARGO_BIN_EXE_perfbench-trace");

struct Run {
    code: i32,
    lines: Vec<String>,
}

impl Run {
    fn result(&self) -> &str {
        self.lines.last().map_or("", String::as_str)
    }

    fn count(&self, key: &str) -> u64 {
        let pat = format!("\"{key}\": ");
        let rest = &self.result()[self.result().find(&pat).expect(key) + pat.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect("a whole number")
    }

    /// Metric names in the result object, in order.
    fn metric_names(&self) -> Vec<String> {
        self.result()
            .split("\": {\"value\"")
            .filter_map(|chunk| chunk.rsplit('"').next())
            .map(String::from)
            .filter(|s| !s.is_empty() && !s.contains('}'))
            .collect()
    }

    fn inputs(&self) -> (String, Vec<String>) {
        let line = self
            .lines
            .iter()
            .find(|l| l.starts_with("# inputs: "))
            .expect("an inputs line");
        let hash = line
            .split("topology_hash=")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap();
        let origins = line.split("originators=").nth(1).unwrap();
        (
            hash.to_string(),
            origins.split(',').map(String::from).collect(),
        )
    }
}

fn run(bin: &str, workload: &str, extra: &[&str]) -> Run {
    let mut args = vec!["--workload", workload, "--tiny", "--seconds", "0.3"];
    args.extend_from_slice(extra);
    if bin == TRACED {
        args.extend_from_slice(&["--untraced-cell-wall-s", "0.01"]);
    }
    let out = Command::new(bin)
        .args(&args)
        .output()
        .expect("benchmark binary runs");
    Run {
        code: out.status.code().unwrap_or(-1),
        lines: String::from_utf8(out.stdout)
            .expect("utf-8 output")
            .lines()
            .map(String::from)
            .collect(),
    }
}

fn names(specs: &[MetricSpec]) -> Vec<String> {
    specs.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_runs_tiny_untraced_and_traced() {
    for w in WORKLOADS {
        let r = run(UNTRACED, w.name, &[]);
        assert_eq!(r.code, 0, "{}: {:?}", w.name, r.lines);
        assert!(
            r.result().starts_with("{\"correct\": true"),
            "{}",
            r.result()
        );
        assert_eq!(r.count("failed"), 0);
        assert!(r.count("attempted") >= 1);
        assert_eq!(r.metric_names(), names(&END_TO_END), "{}", w.name);

        let t = run(TRACED, w.name, &[]);
        assert_eq!(t.code, 0, "{} traced: {:?}", w.name, t.lines);
        assert_eq!(t.count("failed"), 0);
        assert_eq!(t.metric_names(), names(&PER_LAYER), "{} traced", w.name);
    }
}

#[test]
fn seed_changes_the_topology_hash() {
    let (a, _) = run(UNTRACED, "setup-20k", &["--seed", "1"]).inputs();
    let (b, _) = run(UNTRACED, "setup-20k", &["--seed", "2"]).inputs();
    let (c, _) = run(UNTRACED, "setup-20k", &["--seed", "1"]).inputs();
    assert_ne!(a, b);
    assert_eq!(a, c);
}

#[test]
fn each_cell_of_a_workload_has_its_own_topology() {
    let w = WORKLOADS.iter().find(|w| w.name == "nowrate-5k").unwrap();
    let r = run(UNTRACED, w.name, &[]);
    let mut hashes: Vec<&str> = r
        .lines
        .iter()
        .filter_map(|l| l.strip_prefix("# inputs: topology_hash="))
        .map(|rest| rest.split(' ').next().unwrap())
        .collect();
    assert_eq!(hashes.len(), w.cells, "{:?}", r.lines);
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), w.cells);
}

#[test]
fn corrupted_reports_and_op_counts_fail_the_run() {
    for bin in [UNTRACED, TRACED] {
        for fault in ["report", "opcount"] {
            let r = run(bin, "nowrate-5k", &["--corrupt", fault]);
            assert_ne!(r.code, 0, "{bin} --corrupt {fault} must fail");
            assert!(
                r.result().starts_with("{\"correct\": false"),
                "{}",
                r.result()
            );
            assert!(
                r.count("failed") > 0,
                "{bin} --corrupt {fault} must raise failed"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_gated_workloads_and_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let gated = WORKLOADS.iter().filter(|w| w.gated).count();
    for w in WORKLOADS {
        let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name);
        assert_eq!(json.contains(&entry), w.gated, "{}", w.name);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            m.name, m.unit
        );
        assert!(json.contains(&entry), "{entry}");
    }
    let entries = json.matches("\"name\": ").count();
    assert_eq!(entries, gated + END_TO_END.len() + PER_LAYER.len());
}
