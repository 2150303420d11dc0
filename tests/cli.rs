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

/// `(name, needs <index>)` for every command, read from the usage
/// text the command table generates.
fn commands() -> Vec<(String, bool)> {
    let out = slpmt(&[]);
    assert_eq!(out.status.code(), Some(1));
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    let names: Vec<String> = usage
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("    "))
        .map(|l| l.split_whitespace().next().unwrap_or_default().to_string())
        .collect();
    names
        .into_iter()
        .map(|name| {
            let positional = usage.contains(&format!("    {name} <index>"));
            (name, positional)
        })
        .collect()
}

#[test]
fn usage_lists_every_command() {
    let names: Vec<String> = commands().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names.len(), 14, "{names:?}");
    for want in ["run", "mc", "chaos", "ptm"] {
        assert!(names.iter().any(|n| n == want), "{want} missing: {names:?}");
    }
}

#[test]
fn every_command_rejects_an_unknown_flag() {
    for (name, positional) in commands() {
        let index = if positional { "hashtable" } else { "" };
        let err = rejects(&format!("{name} {index} --no-such-flag"));
        assert!(err.contains("unknown option --no-such-flag"), "{err}");
    }
}

#[test]
fn value_must_be_whole_words() {
    for cmd in [
        "run hashtable",
        "compare hashtable",
        "matrix",
        "trace",
        "shards hashtable",
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
        "crashsweep --ops 0",
        "compare heap --ops 0",
        "run hashtable --ops 0",
        "matrix --ops 0 --json",
        "shards hashtable --ops 0 --json",
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
