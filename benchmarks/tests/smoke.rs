//! Harness smoke test: every workload at scale 1/1024 with one timed rep,
//! untraced and traced. Run by `cargo test` inside `benchmarks/`; tier-1
//! never sees it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use obs::Json;

const SCALE: &str = "0.0009765625";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn contract(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

struct Run {
    stdout: String,
    out_dir: PathBuf,
}

fn ledger(workload: &str, traced: bool) -> Run {
    // One directory per run: the tests of this file run in parallel.
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke_{workload}_{}",
        if traced { "traced" } else { "plain" }
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--workload", workload, "--scale", SCALE])
        .args(["--reps", "1", "--seed", "1999"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--root")
        .arg(repo_root())
        .arg("--out")
        .arg(&out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} traced={traced}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Run { stdout, out_dir }
}

/// Every metric of the contract is printed exactly once as
/// `name value unit`, finite, with its unit, and again in the result
/// line; no operation failed.
fn check_report(run: &Run, metrics: &[(String, String)]) {
    let mut printed: BTreeMap<&str, Vec<(&str, &str)>> = BTreeMap::new();
    for line in run.stdout.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        if let [name, value, unit] = f[..] {
            printed.entry(name).or_default().push((value, unit));
        }
    }
    for (name, unit) in metrics {
        let lines = printed.get(name.as_str()).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(lines.len(), 1, "{name} printed {} times", lines.len());
        let (value, got_unit) = lines[0];
        assert_eq!(got_unit, unit, "{name} carries the wrong unit");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{name}: {value:?}"));
        assert!(value.is_finite(), "{name} is not finite");
    }
    assert_eq!(printed["ops_failed"], [("0", "count")]);

    let result = Json::parse(run.stdout.lines().last().unwrap()).unwrap();
    let Json::Obj(fields) = &result else {
        panic!("the result line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
    let Some(Json::Obj(reported)) = result.get("metrics") else {
        panic!("the result line has no metrics object");
    };
    let reported: Vec<&str> = reported.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        reported, wanted,
        "result-line metrics differ from the contract"
    );
    for (name, unit) in metrics {
        let m = result.get("metrics").and_then(|m| m.get(name)).unwrap();
        assert!(m.get("value").and_then(Json::as_num).is_some());
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
    }

    let summary = run
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix("summary "))
        .expect("a summary line");
    assert!(summary.ends_with("\"claim\": null}"), "{summary}");
}

/// Span parents resolve, and the top-level spans of each cycle cover at
/// least 95 % of its wall time, so that self-time accounting closes.
fn check_trace(run: &Run, workload: &str) {
    let path = run.out_dir.join(format!("trace_{workload}.json"));
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_num).unwrap();
    let mut cycles = 0;
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(num(s, "id") as usize, i);
        assert!(num(s, "end_ns") >= num(s, "start_ns"));
        match s.get("parent") {
            Some(Json::Null) => {}
            Some(Json::Num(p)) => {
                let parent = &spans[*p as usize];
                assert!((*p as usize) < i, "span {i} precedes its parent");
                assert!(num(parent, "start_ns") <= num(s, "start_ns"));
                assert!(num(parent, "end_ns") >= num(s, "end_ns"));
            }
            other => panic!("span {i}: bad parent {other:?}"),
        }
        if s.get("name").and_then(Json::as_str) == Some("cycle") {
            cycles += 1;
            let wall = num(s, "end_ns") - num(s, "start_ns");
            let covered: f64 = spans
                .iter()
                .filter(|c| c.get("parent").and_then(Json::as_num) == Some(i as f64))
                .map(|c| num(c, "end_ns") - num(c, "start_ns"))
                .sum();
            assert!(
                covered >= 0.95 * wall,
                "{workload}: top-level spans cover {:.1} % of a cycle",
                covered / wall * 100.0
            );
        }
    }
    assert!(cycles >= 1, "{workload}: no cycle span recorded");
}

fn smoke(workload: &str) {
    check_report(&ledger(workload, false), &contract("end_to_end"));
    let traced = ledger(workload, true);
    check_report(&traced, &contract("per_layer"));
    check_trace(&traced, workload);
}

#[test]
fn image_full() {
    smoke("image_full");
}

#[test]
fn logical_full() {
    smoke("logical_full");
}

#[test]
fn incr_chain() {
    smoke("incr_chain");
}

#[test]
fn tables() {
    smoke("tables");
}

/// The harness's own tables name exactly the workloads of the contract.
#[test]
fn contract_names_the_four_workloads() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        ["image_full", "logical_full", "incr_chain", "tables"]
    );
}

/// In a directory without the repository the run exits non-zero and
/// prints no result.
#[test]
fn refuses_to_run_without_the_contract() {
    let empty = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke_empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--workload", "image_full", "--root"])
        .arg(&empty)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
