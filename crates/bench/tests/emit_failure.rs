//! A run that cannot write an artifact fails: after PR 13 emission is all
//! the `net` job of a `bench all` does, so a swallowed write error would
//! be a job that did nothing and reported success.

use std::fs;
use std::process::Command;

#[test]
fn an_unwritable_out_dir_fails_the_run() {
    // A path *through a regular file* cannot be created by anyone, root
    // included (the tests may well run as root, whom permissions do not
    // stop).
    let blocker = std::env::temp_dir().join(format!("bench-emit-{}", std::process::id()));
    fs::write(&blocker, "in the way").expect("create the blocking file");
    let out_dir = blocker.join("results");

    for args in [&["net"][..], &["explain", "table2"][..]] {
        let run = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .args(["--scale", "0.0009765625", "--out-dir"])
            .arg(&out_dir)
            .output()
            .expect("spawn bench");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "bench {args:?} succeeded: {stderr}");
        assert!(
            stderr.contains("could not write") && stderr.contains(&*out_dir.to_string_lossy()),
            "bench {args:?} did not name the failed write: {stderr}"
        );
    }
    let _ = fs::remove_file(&blocker);
}
