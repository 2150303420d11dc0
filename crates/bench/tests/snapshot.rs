//! The `BENCH_<n>.json` snapshot is a purely simulated record: two runs
//! of the same shape must render the same bytes, and no host-speed,
//! repetition or worker-count field may appear in it.

use slpmt_bench::snapshot;

/// Every object key of a JSON document written by `JsonWriter`
/// (string values are never followed by a colon).
fn keys(json: &str) -> Vec<&str> {
    json.split('"')
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| w[1].starts_with(':'))
        .map(|w| w[0])
        .collect()
}

#[test]
fn snapshot_is_deterministic_and_carries_no_host_field() {
    let a = snapshot::run(40, 64).expect("snapshot");
    let b = snapshot::run(40, 64).expect("snapshot");
    assert_eq!(a.json, b.json, "snapshot JSON differs between two runs");
    assert_eq!(a.text, b.text, "snapshot report differs between two runs");
    let keys = keys(&a.json);
    for section in ["matrix", "mc", "shards", "ycsb", "serve", "chaos", "ptm"] {
        assert!(keys.contains(&section), "{section} section missing");
    }
    for key in keys {
        for banned in ["wall_s", "_per_s", "reps", "workers", "host_"] {
            assert!(!key.contains(banned), "host-side key {key:?} in snapshot");
        }
    }
}
