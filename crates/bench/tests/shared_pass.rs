//! `tables` and `net` of one `bench all` share one measured pass; a job
//! served from it must write exactly what it writes when it measures the
//! volume itself.
//!
//! Three ways to the same bytes, at 1/1024, seed 1999: the two jobs off
//! one `all_jobs` call (one cell, one pass), each experiment alone with a
//! cell of its own, and Tables 2–5 and the scaling figure one view at a
//! time. Every run goes through the pool, so each starts on a fresh
//! thread like a process of its own.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::path::PathBuf;

use bench::pool::run_jobs;
use bench::pool::Job;
use bench::runners::Experiment;
use bench::runners::RunCfg;

const SCALE: f64 = 1.0 / 1024.0;
const SEED: u64 = 1999;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-pass-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every file in `dir` by name, then `dir` is removed.
fn take_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read scratch dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 file name");
        files.insert(name, fs::read(entry.path()).expect("read artifact"));
    }
    let _ = fs::remove_dir_all(dir);
    files
}

/// `name` alone, with a configuration (and so a cell) of its own.
fn standalone(name: &'static str, dir: &Path) -> Job {
    let exp = Experiment::find(name).expect("registered experiment");
    let cfg = RunCfg::new(SCALE, SEED, dir);
    Job {
        label: name.to_string(),
        run: Box::new(move || (exp.run)(&cfg)),
    }
}

/// Asserts that every file in `part` is, byte for byte, the file of the
/// same name in `whole`.
fn assert_files_within(part: &BTreeMap<String, Vec<u8>>, whole: &BTreeMap<String, Vec<u8>>) {
    for (name, bytes) in part {
        assert!(
            whole.get(name) == Some(bytes),
            "{name} differs from (or is missing in) the shared-pass run"
        );
    }
}

#[test]
fn a_shared_pass_writes_what_private_passes_write() {
    // The product path: both jobs from one `all_jobs` call, serially — so
    // `net` is served the pass `tables` measured.
    let shared_dir = scratch_dir("shared");
    let jobs: Vec<Job> = bench::cli::all_jobs(Some(SCALE), Some(SEED), &shared_dir)
        .into_iter()
        .filter(|j| j.label == "tables" || j.label == "net")
        .collect();
    let shared = run_jobs(jobs, 1);
    let [tables, net] = shared.as_slice() else {
        panic!("all_jobs must offer `tables` and `net`");
    };
    assert_eq!(
        (tables.label.as_str(), net.label.as_str()),
        ("tables", "net")
    );
    let shared_files = take_files(&shared_dir);

    // Each experiment alone.
    let (tables_dir, net_dir) = (scratch_dir("tables"), scratch_dir("net"));
    let alone = run_jobs(
        vec![
            standalone("tables", &tables_dir),
            standalone("net", &net_dir),
        ],
        2,
    );
    assert_eq!(alone[0].output, tables.output, "`tables` stdout");
    assert_eq!(alone[1].output, net.output, "`net` stdout");
    let mut alone_files = take_files(&tables_dir);
    let net_files = take_files(&net_dir);
    assert!(net_files.contains_key("obs_table_net.json"));
    assert!(
        net_files.keys().all(|name| !alone_files.contains_key(name)),
        "the two jobs write disjoint files"
    );
    alone_files.extend(net_files);
    assert_eq!(
        alone_files.keys().collect::<Vec<_>>(),
        shared_files.keys().collect::<Vec<_>>(),
        "artifact sets"
    );
    assert_files_within(&alone_files, &shared_files);

    // One view at a time: `tables`' stdout is theirs end to end, and
    // whatever each writes `tables` wrote too.
    let views = ["table2", "table3", "table4", "table5", "scaling"];
    let dirs: Vec<PathBuf> = views.iter().map(|v| scratch_dir(v)).collect();
    let jobs = views.iter().zip(&dirs).map(|(v, d)| standalone(v, d));
    let single = run_jobs(jobs.collect(), 2);
    let text: String = single.iter().map(|r| r.output.as_str()).collect();
    assert_eq!(text, tables.output, "the views' stdout, concatenated");
    for (view, dir) in views.iter().zip(&dirs) {
        let files = take_files(dir);
        assert_eq!(
            files.is_empty(),
            *view == "scaling",
            "{view}: only the scaling figure is text alone"
        );
        assert_files_within(&files, &shared_files);
    }
}
