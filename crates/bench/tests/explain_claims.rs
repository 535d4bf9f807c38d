//! End-to-end test of `bench explain`: the attribution reports it
//! computes must tell the paper's story (single-drive ops tape-bound,
//! logical falling off the tapes as drives are added), the per-stream
//! segments must tile each operation's `[0, makespan]`, and the
//! checked-in `claims.toml` must pass against a real run — the same
//! gate CI enforces, at test scale.

use bench::claims;
use bench::explain;
use bench::runners::pipeline;
use bench::runners::RunCfg;

const SCALE: f64 = 1.0 / 1024.0;
const SEED: u64 = 1999;

#[test]
fn explain_matches_the_paper_and_the_claims_gate() {
    let cfg = RunCfg::new(SCALE, SEED, &std::env::temp_dir());
    let views = explain::views_for("all").expect("target");
    let reports = pipeline(&cfg, &views, false).reports;

    // The headline attribution: the single-drive physical dump binds on
    // the tape, nearly wall to wall.
    let t2 = reports.tables.get("table2").expect("table2 computed");
    let pd = t2.op("Physical Dump").expect("physical dump attributed");
    assert_eq!(pd.dominant(), "tape", "shares: {:?}", pd.class_shares);
    assert!(
        pd.share_of("tape*") > 0.9,
        "tape share {:.4}",
        pd.share_of("tape*")
    );

    // Segments tile [0, makespan]: per stream they are contiguous from
    // t=0, and across streams the last segment ends at the makespan.
    for r in reports.tables.values() {
        for a in &r.ops {
            assert!(!a.streams.is_empty(), "{}: no streams", a.op);
            let mut end: f64 = 0.0;
            for st in &a.streams {
                let segs = &st.segments;
                assert!(!segs.is_empty(), "{}: empty timeline", st.stream);
                assert_eq!(segs[0].t0, 0.0, "{}: starts late", st.stream);
                for pair in segs.windows(2) {
                    assert_eq!(pair[0].t1, pair[1].t0, "{}: gap in timeline", st.stream);
                }
                end = end.max(segs[segs.len() - 1].t1);
            }
            assert!(
                (end - a.makespan).abs() < 1e-9,
                "{} ({}): segments end at {end}, makespan {}",
                a.op,
                r.experiment,
                a.makespan
            );
        }
    }

    // The sweep sees logical backup leave the tapes by 4 drives.
    let sweep = reports.sweeps.get("sweep").expect("sweep computed");
    let xs = sweep.crossovers("Logical Backup");
    assert!(
        xs.iter().any(|x| x.from == "tape" && x.param_hi <= 4.0),
        "no tape crossover by 4 drives: {xs:?}"
    );

    // The network table: replication to a 100 Mbit link waits on the
    // wire (slower than a DLT drive), and the link sweep sees physical
    // backup stay net-bound past 1 Gbit.
    let tn = reports.tables.get("table_net").expect("table_net computed");
    let pb = tn
        .op("Physical Backup @ 100mbit")
        .expect("net cell attributed");
    assert_eq!(pb.dominant(), "net", "shares: {:?}", pb.class_shares);
    let net_sweep = reports.sweeps.get("net_sweep").expect("net sweep computed");
    let xs = net_sweep.crossovers("Physical Backup");
    assert!(
        xs.iter()
            .any(|x| x.from == "net" && x.param_lo >= 1000.0 - 1e-9),
        "physical backup should leave the wire only past 1 Gbit: {xs:?}"
    );

    // The checked-in claims file parses and passes against this run —
    // the same gate CI runs via `bench explain all --check claims.toml`.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../claims.toml");
    let text = std::fs::read_to_string(path).expect("read claims.toml");
    let cs = claims::parse(&text).expect("claims.toml parses");
    assert!(cs.len() >= 15, "only {} claims", cs.len());
    let results = claims::evaluate(&cs, &reports.tables, &reports.sweeps);
    let (rendered, failed) = claims::render(&results);
    assert_eq!(failed, 0, "claims failed at test scale:\n{rendered}");
}
