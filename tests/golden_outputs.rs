//! Golden record of the CLI's output.
//!
//! Every `--json` command below prints only simulated figures (cycles,
//! counts, digests; no wall-clock, worker-count or host field). Each
//! command runs once at `SLPMT_THREADS=1` and once at `4`, in a fresh
//! temporary working directory (so trace files never land in the
//! repository), and both outputs must equal `tests/golden/<name>.json`
//! (`--json` commands) or `tests/golden/<name>.txt` (text output) byte
//! for byte. A change that claims not to move the simulation (a
//! host-speed optimisation or a refactor) therefore passes without
//! touching the goldens.
//!
//! Text output carries three host fields, which [`mask`] replaces
//! before comparing: the worker count and the elapsed seconds in
//! `matrix`'s header, and the trailing `(N.NNs)` line of a `faults`
//! sweep. Nothing else is masked.
//!
//! Two text commands also write a Chrome trace under `target/traces/`
//! in their working directory ([`TRACES`]); each trace must equal
//! `tests/golden/trace-<name>.json` at both thread counts, which pins
//! the Perfetto export byte for byte.
//!
//! A JSON golden holds one array element per line (`},{` is split
//! after the comma), so a moved cell shows up as one changed line in a
//! diff. When a change is meant to move simulated output, regenerate
//! with `SLPMT_BLESS=1 cargo test --test golden_outputs` and review the
//! diff: it names every moved cell. Blessing refuses to write when a
//! command's two thread counts disagree.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// `(name, arguments)` of every pinned command. The first eight are
/// small shapes of each simulated-output command, `matrix` among them
/// with every scheme and with four shards; the next seven are the
/// paper-size runs of the matrix, multi-core, 16-shard matrix, YCSB,
/// serve, chaos and every-scheme matrix; the sixteenth runs every YCSB
/// mix on every index, so each index's update, read-modify-write, read
/// and scan paths are pinned; the seventeenth adds `ycsb`'s sharded
/// pass and media-fault battery; the eighteenth is one `matrix` cell,
/// with its stats, next to its FG row. The rest pin one small shape of
/// each command's text output, plus an index's slice of `matrix`,
/// `matrix` with every scheme and with four shards, the clean
/// exhaustive `faults` sweep and a clean `faults --at K` replay.
const COMMANDS: &[(&str, &str)] = &[
    ("faults", "faults --ops 12 --points 2 --json"),
    (
        "ycsb",
        "ycsb --mix all --load 40 --ops 120 --sweep --points 6 --json",
    ),
    ("serve", "serve --load 100 --requests 300 --json"),
    ("chaos", "chaos --requests 30 --points 2 --json"),
    (
        "matrix-ptm",
        "matrix --scheme all --workload all --ops 200 --value 64 --json",
    ),
    ("mc", "mc --cores 3 --seed 5 --sched weighted:9 --json"),
    (
        "matrix-shards",
        "matrix --workload hashtable --scheme slpmt --ops 300 --shards 4 --json",
    ),
    ("matrix", "matrix --ops 60 --json"),
    ("matrix-1000", "matrix --ops 1000 --value 256 --json"),
    (
        "mc-4core",
        "mc --cores 4 --seed 42 --sched rr:42 --txns 64 --stores 8 --json",
    ),
    (
        "matrix-shards-16",
        "matrix --workload hashtable --scheme slpmt --ops 1000 --shards 16 --json",
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
        "matrix-ptm-hashtable",
        "matrix --scheme all --workload hashtable --ops 500 --value 32 --json",
    ),
    (
        "ycsb-indexes",
        "ycsb --mix all --workload all --load 100 --ops 300 --json",
    ),
    (
        "ycsb-shards",
        "ycsb --mix b --load 40 --ops 120 --sweep --faults --points 2 --shards 2 --json",
    ),
    (
        "matrix-run",
        "matrix --workload hashtable --scheme slpmt --ops 50 --json",
    ),
    ("schemes", "schemes"),
    ("matrix-heap", "matrix --workload heap --ops 50"),
    ("matrix", "matrix --ops 20"),
    ("trace", "trace --ops 20 --out trace-out.json"),
    ("faults-clean", "faults --plan s0 --points all --ops 4"),
    ("faults", "faults --ops 12 --points 2"),
    (
        "faults-replay",
        "faults --scheme slpmt --workload rbtree --ops 12 --at 7",
    ),
    ("mc", "mc --cores 3 --seed 5 --sched weighted:9"),
    ("mc-crash-at", "mc --cores 2 --seed 5 --crash-at 40"),
    (
        "matrix-shards",
        "matrix --workload hashtable --scheme slpmt --ops 300 --shards 4",
    ),
    (
        "ycsb-shards",
        "ycsb --mix b --load 40 --ops 120 --sweep --faults --points 2 --shards 2",
    ),
    ("serve", "serve --load 100 --requests 300"),
    ("chaos", "chaos --requests 30 --points 2"),
    (
        "matrix-ptm",
        "matrix --scheme all --workload hashtable --ops 100 --value 64",
    ),
];

/// `(name, trace file)`: the command of [`COMMANDS`] named `name`
/// writes `target/traces/<trace file>` in its working directory, and the
/// file is compared with `tests/golden/trace-<name>.json`.
const TRACES: &[(&str, &str)] = &[
    (
        "faults-replay",
        "faultsweep-slpmt-rbtree-s42-ps0-t0-p0-f0-j0-k7.json",
    ),
    ("mc-crash-at", "mc-slpmt-c2-s5-rr-42-k40.json"),
];

/// Host worker counts every command runs at.
const THREADS: [&str; 2] = ["1", "4"];

/// The golden file `name`'s output is compared with: `.json` for a
/// `--json` command, `.txt` for text output.
fn golden_file(name: &str, args: &str) -> String {
    let ext = if args.contains("--json") {
        "json"
    } else {
        "txt"
    };
    format!("tests/golden/{name}.{ext}")
}

/// The working directory of the command whose golden is `file`, at
/// `threads` workers.
fn work_dir(file: &str, threads: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}-t{threads}", file.replace('/', "-")))
}

/// Runs `slpmt args` in a fresh, empty working directory named after
/// the golden `file` and the thread count.
fn spawn(file: &str, args: &str, threads: &str) -> Child {
    let dir = work_dir(file, threads);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    Command::new(env!("CARGO_BIN_EXE_slpmt"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .env("SLPMT_THREADS", threads)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn slpmt")
}

/// Masks the three host fields of text output: `matrix`'s header ends
/// `, <workers> worker(s), <secs>s`, and a `faults` sweep ends on a
/// `(<secs>s)` line.
fn mask(text: &str) -> String {
    text.split_inclusive('\n')
        .map(|line| {
            let body = line.trim_end_matches('\n');
            let end = &line[body.len()..];
            if body.starts_with("scheme × index matrix:") {
                let cut = body.rsplitn(3, ", ").last().unwrap_or(body);
                format!("{cut}, * worker(s), *s{end}")
            } else if body.starts_with('(')
                && body.ends_with("s)")
                && body[1..body.len() - 2].parse::<f64>().is_ok()
            {
                format!("(*s){end}")
            } else {
                line.to_string()
            }
        })
        .collect()
}

/// The command's stdout: for JSON one array element per line, for text
/// with its host fields masked.
fn output(file: &str, child: Child, threads: &str) -> String {
    let out = child.wait_with_output().expect("wait for slpmt");
    assert!(
        out.status.success(),
        "{file} (SLPMT_THREADS={threads}) exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("UTF-8 output");
    if file.ends_with(".json") {
        one_element_per_line(&text)
    } else {
        mask(&text)
    }
}

/// JSON text with one array element per line.
fn one_element_per_line(json: &str) -> String {
    json.replace("},{", "},\n{")
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
fn masking_replaces_only_the_host_fields() {
    let text = "scheme × index matrix: 48 cells, 20 × 256 B inserts, 4 worker(s), 0.06s\n\
                cell cycles\n(0.11s)\n(seed 42)\n  (3 more failure(s) not auto-captured)\n";
    assert_eq!(
        mask(text),
        "scheme × index matrix: 48 cells, 20 × 256 B inserts, * worker(s), *s\n\
         cell cycles\n(*s)\n(seed 42)\n  (3 more failure(s) not auto-captured)\n"
    );
}

#[test]
fn cli_output_matches_goldens_at_every_thread_count() {
    let bless = std::env::var("SLPMT_BLESS").is_ok();
    let mut failures = Vec::new();
    let mut blessed = Vec::new();
    // `(golden file, command, output at each thread count)`.
    let mut runs: Vec<(String, String, Vec<String>)> = Vec::new();
    for &(name, args) in COMMANDS {
        let file = golden_file(name, args);
        let children: Vec<Child> = THREADS.iter().map(|t| spawn(&file, args, t)).collect();
        let outs: Vec<String> = children
            .into_iter()
            .zip(THREADS)
            .map(|(child, t)| output(&file, child, t))
            .collect();
        if let Some((_, trace)) = TRACES.iter().find(|(n, _)| *n == name) {
            let traces = THREADS
                .iter()
                .map(|t| {
                    let path = work_dir(&file, t).join("target/traces").join(trace);
                    let text = std::fs::read_to_string(&path)
                        .unwrap_or_else(|e| panic!("`slpmt {args}` wrote no {trace}: {e}"));
                    one_element_per_line(&text)
                })
                .collect();
            runs.push((
                format!("tests/golden/trace-{name}.json"),
                args.to_string(),
                traces,
            ));
        }
        runs.push((file, args.to_string(), outs));
    }
    for (file, args, outs) in runs {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(&file);
        if bless {
            match first_difference(&outs[0], &outs[1]) {
                None => blessed.push((path, outs[0].clone())),
                Some(at) => failures.push(format!(
                    "{file} (`slpmt {args}`): SLPMT_THREADS=1 and 4 differ at {at}"
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
