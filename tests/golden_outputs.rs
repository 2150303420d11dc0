//! Golden record of the CLI's simulated output.
//!
//! Every command below prints only simulated figures (cycles, counts,
//! digests; no wall-clock, worker-count or host field). Each runs once
//! at `SLPMT_THREADS=1` and once at `4`, and both outputs must equal
//! `tests/golden/<name>.json` byte for byte. A change that claims not
//! to move the simulation (a host-speed optimisation or a refactor)
//! therefore passes without touching the goldens.
//!
//! A golden file holds one JSON array element per line (`},{` is split
//! after the comma), so a moved cell shows up as one changed line in a
//! diff. When a change is meant to move simulated output, regenerate
//! with `SLPMT_BLESS=1 cargo test --test golden_outputs` and review the
//! diff: it names every moved cell. Blessing refuses to write when a
//! command's two thread counts disagree.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// `(name, arguments)` of every pinned command. The first eight are
/// small shapes of each simulated-output command; the next seven are
/// the paper-size runs of the matrix, multi-core, sharded, YCSB, serve,
/// chaos and software-PTM drivers; the last runs every YCSB mix on
/// every index, so each index's update, read-modify-write, read and
/// scan paths are pinned.
const COMMANDS: &[(&str, &str)] = &[
    ("faults", "faults --ops 12 --points 2 --json"),
    (
        "ycsb",
        "ycsb --mix all --load 40 --ops 120 --sweep --points 6 --json",
    ),
    ("serve", "serve --load 100 --requests 300 --json"),
    ("chaos", "chaos --requests 30 --points 2 --json"),
    ("ptm", "ptm --workload all --ops 200 --json"),
    ("mc", "mc --cores 3 --seed 5 --sched weighted:9 --json"),
    ("shards", "shards hashtable --ops 300 --shards 4 --json"),
    ("matrix", "matrix --ops 60 --json"),
    ("matrix-1000", "matrix --ops 1000 --value 256 --json"),
    (
        "mc-4core",
        "mc --cores 4 --seed 42 --sched rr:42 --txns 64 --stores 8 --json",
    ),
    (
        "shards-16",
        "shards hashtable --ops 1000 --value 256 --shards 16 --json",
    ),
    (
        "ycsb-mixes",
        "ycsb --mix all --load 500 --ops 1000 --value 32 --json",
    ),
    (
        "serve-b",
        "serve --mix b --workload kv-btree --shards 4 --load 500 --requests 1000 --value 32 --json",
    ),
    (
        "chaos-ab",
        "chaos --mix a,b --requests 40 --points 4 --json",
    ),
    (
        "ptm-hashtable",
        "ptm --workload hashtable --ops 500 --value 32 --json",
    ),
    (
        "ycsb-indexes",
        "ycsb --mix all --workload all --load 100 --ops 300 --json",
    ),
];

/// Host worker counts every command runs at.
const THREADS: [&str; 2] = ["1", "4"];

fn spawn(args: &str, threads: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_slpmt"))
        .args(args.split_whitespace())
        .env("SLPMT_THREADS", threads)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn slpmt")
}

/// The command's stdout, one JSON array element per line.
fn output(name: &str, child: Child, threads: &str) -> String {
    let out = child.wait_with_output().expect("wait for slpmt");
    assert!(
        out.status.success(),
        "{name} (SLPMT_THREADS={threads}) exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("UTF-8 output")
        .replace("},{", "},\n{")
}

/// `None` if `got` equals `want`, else where they first differ.
fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (mut w, mut g) = (want.split('\n'), got.split('\n'));
    for line in 1.. {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => {
                return Some(format!(
                    "line {line}:\n  - {}\n  + {}",
                    a.unwrap_or("<end of file>"),
                    b.unwrap_or("<end of file>")
                ))
            }
        }
    }
    unreachable!()
}

#[test]
fn cli_output_matches_goldens_at_every_thread_count() {
    let bless = std::env::var("SLPMT_BLESS").is_ok();
    let mut failures = Vec::new();
    let mut blessed = Vec::new();
    for &(name, args) in COMMANDS {
        let children: Vec<Child> = THREADS.iter().map(|t| spawn(args, t)).collect();
        let outs: Vec<String> = children
            .into_iter()
            .zip(THREADS)
            .map(|(child, t)| output(name, child, t))
            .collect();
        let file = format!("tests/golden/{name}.json");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(&file);
        if bless {
            match first_difference(&outs[0], &outs[1]) {
                None => blessed.push((path, outs[0].clone())),
                Some(at) => failures.push(format!(
                    "{name} (`slpmt {args}`): SLPMT_THREADS=1 and 4 differ at {at}"
                )),
            }
            continue;
        }
        let Ok(want) = std::fs::read_to_string(&path) else {
            failures.push(format!(
                "{file}: missing; bless with SLPMT_BLESS=1 cargo test --test golden_outputs"
            ));
            continue;
        };
        // Both thread counts agree: one report covers them.
        let labels: &[&str] = if outs[0] == outs[1] {
            &["1 and 4"]
        } else {
            &THREADS
        };
        for (got, t) in outs.iter().zip(labels) {
            if let Some(at) = first_difference(&want, got) {
                failures.push(format!(
                    "{file} (`slpmt {args}`, SLPMT_THREADS={t}) differs at {at}"
                ));
            }
        }
    }
    if bless && failures.is_empty() {
        for (path, text) in blessed {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, text).unwrap();
        }
        return;
    }
    assert!(
        failures.is_empty(),
        "{} golden mismatch(es){}:\n{}",
        failures.len(),
        if bless {
            "; nothing written"
        } else {
            "; if the change is meant to move simulated output, re-bless with \
             SLPMT_BLESS=1 cargo test --test golden_outputs and review the diff"
        },
        failures.join("\n")
    );
}
