//! Front-end gates for the `slpmt` binary: malformed input is rejected
//! with `error: …` and exit 1 — never a panic (exit 101) and never a
//! vacuous pass — and every command in the command table rejects an
//! unknown flag the same way.

use std::process::{Command, Output};

fn slpmt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slpmt"))
        .args(args)
        .env("SLPMT_THREADS", "1")
        .output()
        .expect("spawn slpmt")
}

/// Asserts `cmd` (split on whitespace) fails cleanly: exit 1, `error:`
/// first on stderr, and no panic. Returns stderr.
fn rejects(cmd: &str) -> String {
    let args: Vec<&str> = cmd.split_whitespace().collect();
    let out = slpmt(&args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.starts_with("error:"), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    err
}

fn accepts(cmd: &str) {
    let args: Vec<&str> = cmd.split_whitespace().collect();
    let out = slpmt(&args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
}

/// Every command's name, read from the usage text the command table
/// generates.
fn commands() -> Vec<String> {
    let out = slpmt(&[]);
    assert_eq!(out.status.code(), Some(1));
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("    "))
        .map(|l| l.split_whitespace().next().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn usage_lists_every_command() {
    let names = commands();
    assert_eq!(names.len(), 11, "{names:?}");
    for want in ["matrix", "faults", "mc", "chaos", "ptm"] {
        assert!(names.iter().any(|n| n == want), "{want} missing: {names:?}");
    }
}

#[test]
fn every_command_rejects_an_unknown_flag() {
    for name in commands() {
        let err = rejects(&format!("{name} --no-such-flag"));
        assert!(err.contains("unknown option --no-such-flag"), "{err}");
    }
}

#[test]
fn every_argument_is_a_flag() {
    for cmd in ["shards hashtable", "matrix heap"] {
        let err = rejects(cmd);
        assert!(err.contains("unknown option "), "{err}");
    }
}

/// `workload/scheme` of every cell of a `matrix --json` object.
fn matrix_cells(cmd: &str) -> Vec<String> {
    let args: Vec<&str> = cmd.split_whitespace().collect();
    let out = slpmt(&args);
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    text.split("{\"workload\":\"")
        .skip(1)
        .map(|cell| {
            let (workload, rest) = cell.split_once('"').unwrap();
            let scheme = rest.split("\"scheme\":\"").nth(1).unwrap();
            format!("{workload}/{}", &scheme[..scheme.find('"').unwrap()])
        })
        .collect()
}

#[test]
fn matrix_honours_scheme_and_workload() {
    assert_eq!(
        matrix_cells("matrix --workload heap --scheme atom --ops 20 --json"),
        ["heap/FG", "heap/ATOM"]
    );
    let atom = matrix_cells("matrix --scheme atom --ops 20 --json");
    assert_eq!(atom.len(), 2 * 8, "{atom:?}");
    assert_ne!(atom, matrix_cells("matrix --ops 20 --json"));
    let all = matrix_cells("matrix --workload avl --scheme all --ops 20 --json");
    assert_eq!(all.len(), 10, "{all:?}");
    assert_eq!(all[0], "avl/FG");
    let err = rejects("matrix --scheme undolog");
    assert!(err.contains("unknown scheme undolog"), "{err}");
}

#[test]
fn faults_sweeps_every_point_with_all() {
    accepts("faults --plan s0 --points all --scheme slpmt --workload heap --ops 3");
    let err = rejects("faults --points x");
    assert!(err.contains("--points"), "{err}");
}

#[test]
fn value_must_be_whole_words() {
    for cmd in [
        "matrix --workload hashtable --scheme slpmt",
        "matrix --workload hashtable",
        "matrix",
        "trace",
        "shards --workload hashtable",
        "ptm",
        "ycsb",
        "serve",
    ] {
        let err = rejects(&format!("{cmd} --value 12"));
        assert!(err.contains("--value must be a multiple of 8"), "{err}");
    }
}

#[test]
fn update_mixes_need_two_word_values() {
    let err = rejects("ycsb --mix a --value 8");
    assert!(err.contains("--value must be at least 16"), "{err}");
    rejects("ycsb --mix f --value 8");
    rejects("serve --value 8");
    rejects("serve --mix c,b --value 8");
    // Read-only mixes write no update payloads: any whole word works.
    accepts("ycsb --mix c --value 8 --load 20 --ops 40");
    accepts("serve --mix c --value 8 --load 20 --requests 40");
}

#[test]
fn mc_cores_and_skew_stay_in_range() {
    for cores in ["0", "5"] {
        let err = rejects(&format!("mc --cores {cores}"));
        assert!(err.contains("--cores must be in 1..=4"), "{err}");
    }
    accepts("mc --cores 1 --txns 2 --stores 2");
    let err = rejects("mc --skew 1000");
    assert!(err.contains("--skew must be in 0..=999"), "{err}");
    accepts("mc --skew 999 --txns 2 --stores 2");
}

#[test]
fn zero_points_is_not_a_clean_sweep() {
    for cmd in [
        "faults --points 0",
        "ycsb --sweep --points 0",
        "ycsb --faults --points 0",
        "chaos --points 0",
    ] {
        let err = rejects(cmd);
        assert!(err.contains("--points must be at least 1"), "{err}");
    }
}

#[test]
fn zero_ops_is_not_a_clean_sweep_or_an_empty_run() {
    for cmd in [
        "faults --ops 0",
        "faults --ops 0 --json",
        "faults --plan s0 --points all --ops 0",
        "matrix --workload heap --ops 0",
        "matrix --workload hashtable --scheme slpmt --ops 0",
        "matrix --ops 0 --json",
        "shards --workload hashtable --ops 0 --json",
        "trace --ops 0",
        "ptm --ops 0",
        "ycsb --ops 0",
    ] {
        let err = rejects(cmd);
        assert!(err.contains("--ops must be at least 1"), "{err}");
    }
}

#[test]
fn zero_transactions_is_not_a_passing_oracle() {
    let err = rejects("mc --txns 0 --json");
    assert!(err.contains("--txns must be at least 1"), "{err}");
}

#[test]
fn zero_stores_is_not_a_passing_oracle() {
    let err = rejects("mc --stores 0");
    assert!(err.contains("--stores must be at least 1"), "{err}");
}

#[test]
fn zero_requests_is_not_an_empty_serve_cell() {
    let err = rejects("serve --requests 0");
    assert!(err.contains("--requests must be at least 1"), "{err}");
}

#[test]
fn zero_requests_is_not_a_clean_chaos_sweep() {
    let err = rejects("chaos --requests 0 --json");
    assert!(err.contains("--requests must be at least 1"), "{err}");
}

#[test]
fn single_point_replays_reject_json() {
    for cmd in [
        "mc --crash-at 5 --json",
        "faults --scheme slpmt --workload hashtable --plan s1:t1:p0:f0:j0 --at 3 --json",
    ] {
        let err = rejects(cmd);
        assert!(err.contains("--json does not apply"), "{err}");
    }
}

#[test]
fn serve_needs_a_session() {
    let err = rejects("serve --sessions 0");
    assert!(err.contains("--sessions must be at least 1"), "{err}");
    accepts("serve --mix c --sessions 1 --load 20 --requests 40");
}

#[test]
fn chaos_faults_stay_within_the_default_plans() {
    let err = rejects("chaos --faults 9");
    assert!(err.contains("--faults must be in 0..=5"), "{err}");
}

#[test]
fn first_error_in_argument_order_wins() {
    let err = rejects("matrix --bogus --ops x");
    assert!(err.starts_with("error: unknown option --bogus"), "{err}");
    let err = rejects("matrix --ops x --bogus");
    assert!(err.starts_with("error: --ops: invalid digit"), "{err}");
    let err = rejects("ycsb --points");
    assert!(err.starts_with("error: --points needs a value"), "{err}");
}

/// A reader that closes stdout early (`slpmt … | head -n 1`) ends the
/// run quietly: no panic text and no panic status. The command prints
/// its header, then about 200 KB — more than a pipe holds — so writes
/// after the close must fail.
#[test]
fn closed_stdout_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_slpmt"))
        .args("ycsb --mix all --scheme all --workload all --load 10 --ops 10".split(' '))
        .env("SLPMT_THREADS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn slpmt");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("ycsb matrix:"), "{first}");
    // The reader is dropped here: stdout's read end is closed.
    let out = child.wait_with_output().expect("wait for slpmt");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
}
