//! The parallel runner's core guarantee: `bench all --jobs N` produces
//! byte-identical stdout and artifacts to `--jobs 1`.
//!
//! Each job runs on a fresh thread, so thread-local obs state (event ring
//! and metrics registry) is virgin per experiment regardless of how many
//! jobs share the wall clock; outputs are collected as strings and joined
//! in submission order. This test runs the full `bench all` matrix
//! in-process — serial, then two at a time, then wide — into separate
//! scratch directories and compares the rendered stdout and every emitted
//! file byte-for-byte. Two at a time is the leg where `tables` and `net`,
//! the first two jobs, start together and race for the measured pass they
//! share: whichever wins measures, the other waits and renders from it.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::path::PathBuf;

/// Small enough that the whole matrix runs in seconds even in debug mode;
/// the same scale the chaos and experiment unit tests use.
const SCALE: f64 = 1.0 / 1024.0;
const SEED: u64 = 1999;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-det-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every regular file in `dir`, keyed by name, as raw bytes.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read scratch dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 file name");
        let bytes = fs::read(entry.path()).expect("read artifact");
        files.insert(name, bytes);
    }
    files
}

fn run_matrix(tag: &str, njobs: usize) -> (String, BTreeMap<String, Vec<u8>>) {
    let dir = scratch_dir(tag);
    let jobs = bench::cli::all_jobs(Some(SCALE), Some(SEED), &dir);
    let results = bench::pool::run_jobs(jobs, njobs);
    let rendered = bench::cli::render_results(&results);
    let files = dir_files(&dir);
    let _ = fs::remove_dir_all(&dir);
    (rendered, files)
}

#[test]
fn all_matrix_is_byte_identical_serial_vs_parallel() {
    let (serial_out, serial_files) = run_matrix("serial", 1);

    assert!(
        !serial_out.is_empty() && serial_out.contains("===== bench tables ====="),
        "serial run produced no banner output"
    );
    let serial_names: Vec<&String> = serial_files.keys().collect();
    assert!(
        serial_files.contains_key("obs_table2.json"),
        "expected table artifacts in {serial_names:?}"
    );
    // The tables job emits trace and attribution artifacts uniformly for
    // every table (plus the drive-count sweep); their byte-identity
    // across --jobs is asserted by the loop below like any other file.
    for name in [
        "trace_table2.json",
        "trace_table3.json",
        "trace_table4.json",
        "trace_table5.json",
        "ATTRIB_table2.json",
        "ATTRIB_table3.json",
        "ATTRIB_table4.json",
        "ATTRIB_table5.json",
        "ATTRIB_sweep.json",
        "obs_table_net.json",
        "ATTRIB_table_net.json",
        "ATTRIB_net_sweep.json",
    ] {
        assert!(
            serial_files.contains_key(name),
            "missing {name} in {serial_names:?}"
        );
    }
    for (tag, njobs) in [("pair", 2), ("wide", 8)] {
        let (out, files) = run_matrix(tag, njobs);
        assert_eq!(serial_out, out, "stdout must not depend on --jobs {njobs}");
        let names: Vec<&String> = files.keys().collect();
        assert_eq!(serial_names, names, "artifact sets must match");
        for (name, bytes) in &serial_files {
            assert_eq!(
                Some(bytes),
                files.get(name),
                "artifact {name} differs between --jobs 1 and --jobs {njobs}"
            );
        }
    }
}
