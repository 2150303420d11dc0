//! Deterministic multi-core SLPMT execution (§V-C across cores).
//!
//! The paper evaluates a single core; its conflict story for *other*
//! threads (LogTM-SE-style read/write-set checks, requester wins) is
//! specified for switched-out transactions. This module scales that to
//! N simulated cores sharing one persistence domain:
//!
//! * **Private per core** — L1 cache, tiered log buffer, the open
//!   transaction's read/write sets, and the redo spill area.
//! * **Shared** — L2, L3, the write-pending queue, the persistent
//!   image and log region, the circular transaction-ID register
//!   (§III-C2) and the working-set signatures (§III-C3). A conflicting
//!   access from another core therefore hits the *same* signature path
//!   as any other persist: dependent lazily-persistent lines are
//!   forced durable before the access's update can reach the
//!   persistence domain, wherever they are cached.
//!
//! The cores are one [`Machine`] built by [`Machine::with_cores`]: the
//! active core's private state is the machine's own context and the
//! rest sit parked by core ID; [`Machine::switch_core`] swaps contexts
//! (pure bookkeeping — the cores run concurrently in reality, the
//! driver serialises them onto one deterministic timeline). Because
//! every instruction, conflict and persist is driven by a seeded
//! [`Schedule`], any run — including its persist-event trace and final
//! image — is replayable from `(program seed, schedule)`.
//!
//! [`run_programs`] executes per-core [`TraceOp`] programs under a
//! schedule and returns an [`McOutcome`] with the commit order, every
//! executed store, the conflict events, and a digest of the final
//! image, which [`check_serialized_oracle`] compares against a
//! serialized `BTreeMap` reference. The `mc_*` functions and
//! [`McTarget`] extend the persist-event crash sweep to multi-core
//! traces.

use crate::instr::StoreKind;
use crate::machine::{Machine, MachineConfig};
use crate::scheme::Scheme;
use crate::stats::MachineStats;
use crate::sweep::{guarded, CrashTarget};
use slpmt_pmem::{FaultPlan, PmAddr};
use slpmt_prng::{splitmix64, SimRng, Zipf};
use slpmt_trace::TraceRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One step of a per-core trace program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Open a durable transaction.
    Begin,
    /// Load the word at `addr`.
    Load {
        /// Word-aligned address.
        addr: u64,
    },
    /// Store `value` to the word at `addr` with the given flavour.
    Store {
        /// Word-aligned address.
        addr: u64,
        /// Value written (the generators make every value unique, so
        /// oracles can identify a word's writer from its contents).
        value: u64,
        /// `store` / `storeT` operand combination (Table I).
        kind: StoreKind,
    },
    /// Commit the open transaction.
    Commit,
}

/// How the scheduler picks the next core to step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Cores step one trace operation each, in cyclic order.
    RoundRobin,
    /// Each core draws a weight in `1..=4` from the schedule seed; each
    /// step picks a runnable core with probability proportional to its
    /// weight, skewing the interleaving so one core can race far ahead.
    Weighted,
}

/// A seeded, deterministic interleaving: `(policy, seed)` fully
/// determines the execution, so failures reproduce from this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Core-selection policy.
    pub policy: SchedPolicy,
    /// Seed for the scheduler's [`SimRng`] stream.
    pub seed: u64,
}

impl Schedule {
    /// A round-robin schedule (the seed is still consumed so weighted
    /// and round-robin schedules with equal seeds stay distinct runs).
    pub fn round_robin(seed: u64) -> Self {
        Schedule {
            policy: SchedPolicy::RoundRobin,
            seed,
        }
    }

    /// A weighted-random schedule.
    pub fn weighted(seed: u64) -> Self {
        Schedule {
            policy: SchedPolicy::Weighted,
            seed,
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = match self.policy {
            SchedPolicy::RoundRobin => "rr",
            SchedPolicy::Weighted => "weighted",
        };
        write!(f, "{p}:{}", self.seed)
    }
}

/// A cross-core event observed during a run, in occurrence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McEvent {
    /// A core committed a transaction.
    Committed {
        /// Committing core.
        core: usize,
        /// Global transaction sequence number.
        seq: u64,
    },
    /// A core's open transaction was aborted by a conflicting access
    /// from another core (requester wins, §V-C).
    ConflictAborted {
        /// Victim core.
        core: usize,
        /// The aborted transaction's sequence number.
        seq: u64,
        /// The core whose access won.
        by_core: usize,
        /// Line address of the conflicting access.
        line: u64,
        /// Whether the winning access was a write.
        is_write: bool,
    },
}

// ---------------------------------------------------------------------
// Program generation

/// Shape of a generated multi-core workload: each core runs
/// `txns_per_core` transactions of `stores_per_txn` stores (plus
/// interleaved loads) against a shared line pool (cross-core
/// conflicts, logged kinds only — keeps the serialized oracle exact)
/// and a per-core private pool (the full Table I kind mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Number of cores (1–4).
    pub cores: usize,
    /// Transactions per core.
    pub txns_per_core: usize,
    /// Stores per transaction.
    pub stores_per_txn: usize,
    /// Lines in the shared, conflict-inducing pool.
    pub shared_lines: usize,
    /// Lines in each core's private pool.
    pub private_lines: usize,
    /// Restrict all stores to logged kinds (`store` / `storeT
    /// lazy=1,log-free=0`). The crash sweep uses this: log-free
    /// updates of aborted transactions are indeterminate by design
    /// (they model freshly-allocated memory), which a word-exact crash
    /// oracle cannot admit.
    pub logged_only: bool,
    /// Zipfian skew of shared-pool word picks, θ in thousandths
    /// (`990` = the YCSB default θ = 0.99); `0` keeps the historical
    /// uniform draw. Skew concentrates cross-core conflicts on a few
    /// hot words — the adversarial shape for ownership hand-off and
    /// abort/rollback paths.
    pub shared_skew_milli: u16,
    /// Program-generation seed (independent of the schedule seed).
    pub seed: u64,
}

impl ProgramSpec {
    /// A small spec suitable for PR-gate tests.
    pub fn small(cores: usize, seed: u64) -> Self {
        ProgramSpec {
            cores,
            txns_per_core: 6,
            stores_per_txn: 4,
            shared_lines: 8,
            private_lines: 6,
            logged_only: false,
            shared_skew_milli: 0,
            seed,
        }
    }
}

/// Base address of the shared line pool.
pub const SHARED_BASE: u64 = 0x1_0000;
/// Base address of the private pools (core `c`'s pool follows core
/// `c - 1`'s contiguously).
pub const PRIVATE_BASE: u64 = 0x8_0000;
/// Base address of the fresh-allocation region: log-free stores write
/// lines no other transaction ever touched, modelling the paper's
/// freshly-allocated-memory use case (§II-B). Each core bump-allocates
/// from its own disjoint slice.
pub const FRESH_BASE: u64 = 0x40_0000;
/// Bytes of fresh-allocation address space per core.
pub const FRESH_STRIDE: u64 = 0x4_0000;

/// Generates the per-core trace programs for `spec`. Every store
/// carries a globally unique non-zero value; every access sits inside
/// a transaction.
pub fn gen_programs(spec: &ProgramSpec) -> Vec<Vec<TraceOp>> {
    assert!(spec.cores >= 1 && spec.shared_lines >= 1 && spec.private_lines >= 1);
    let mut rng = SimRng::seed_from_u64(spec.seed ^ 0x6d63_7072_6f67);
    let mut value = 0u64;
    // Skewed shared-word picks: a zipfian over word ranks, rank 0 the
    // hottest. `Zipf` needs n ≥ 2 ranks; a 1-line pool has 8 words, so
    // the invariant holds whenever shared_lines ≥ 1. Exactly one RNG
    // draw per pick in both arms keeps the rest of the program stream
    // aligned between skewed and uniform specs.
    let zipf = (spec.shared_skew_milli > 0)
        .then(|| Zipf::new(spec.shared_lines as u64 * 8, spec.shared_skew_milli as u32));
    let mut programs = Vec::with_capacity(spec.cores);
    for core in 0..spec.cores {
        let priv_base = PRIVATE_BASE + (core * spec.private_lines * 64) as u64;
        let fresh_base = FRESH_BASE + core as u64 * FRESH_STRIDE;
        // Words handed out so far from this core's fresh region.
        let mut fresh_words = 0u64;
        let shared_word = |rng: &mut SimRng| {
            let word = match &zipf {
                Some(z) => z.sample(rng),
                None => rng.gen_range(0..spec.shared_lines as u64 * 8),
            };
            SHARED_BASE + word * 8
        };
        let private_word =
            |rng: &mut SimRng| priv_base + rng.gen_range(0..spec.private_lines as u64 * 8) * 8;
        let mut prog = Vec::new();
        for _ in 0..spec.txns_per_core {
            prog.push(TraceOp::Begin);
            // A transaction never writes log-free into another
            // transaction's allocation: round up to a line boundary.
            fresh_words = fresh_words.div_ceil(8) * 8;
            for _ in 0..spec.stores_per_txn {
                if rng.gen_bool(0.4) {
                    let addr = if rng.gen_bool(0.7) {
                        shared_word(&mut rng)
                    } else {
                        private_word(&mut rng)
                    };
                    prog.push(TraceOp::Load { addr });
                }
                let shared = rng.gen_bool(0.5);
                let (addr, kind) = if shared {
                    // Shared pool: logged kinds only, so aborted
                    // cross-core writers always roll back exactly.
                    let kind = if rng.gen_bool(0.5) {
                        StoreKind::Store
                    } else {
                        StoreKind::lazy_logged()
                    };
                    (shared_word(&mut rng), kind)
                } else if spec.logged_only {
                    let kind = if rng.gen_bool(0.5) {
                        StoreKind::Store
                    } else {
                        StoreKind::lazy_logged()
                    };
                    (private_word(&mut rng), kind)
                } else {
                    // Log-free kinds write fresh lines only (that is
                    // what makes skipping the log sound): each store
                    // takes the next word of the core's private
                    // bump-allocated region.
                    match rng.gen_range(0..4) {
                        0 => (private_word(&mut rng), StoreKind::Store),
                        1 | 2 => {
                            let addr = fresh_base + fresh_words * 8;
                            fresh_words += 1;
                            let kind = if rng.gen_bool(0.5) {
                                StoreKind::log_free()
                            } else {
                                StoreKind::lazy_log_free()
                            };
                            (addr, kind)
                        }
                        _ => (private_word(&mut rng), StoreKind::lazy_logged()),
                    }
                };
                value += 1;
                prog.push(TraceOp::Store { addr, value, kind });
            }
            prog.push(TraceOp::Commit);
        }
        programs.push(prog);
    }
    programs
}

/// Every line address a program set touches (digest / oracle domain).
pub fn program_lines(programs: &[Vec<TraceOp>]) -> BTreeSet<u64> {
    let mut lines = BTreeSet::new();
    for prog in programs {
        for op in prog {
            match *op {
                TraceOp::Load { addr } | TraceOp::Store { addr, .. } => {
                    lines.insert(PmAddr::new(addr).line().raw());
                }
                _ => {}
            }
        }
    }
    lines
}

// ---------------------------------------------------------------------
// The driver

/// One committed transaction, in commit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Committing core.
    pub core: usize,
    /// Global sequence number.
    pub seq: u64,
    /// The transaction's stores, in program order.
    pub stores: Vec<ExecStore>,
}

/// One executed store instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStore {
    /// Word address.
    pub addr: u64,
    /// Stored value.
    pub value: u64,
    /// Instruction flavour.
    pub kind: StoreKind,
    /// Issuing core.
    pub core: usize,
    /// Owning transaction's sequence number.
    pub seq: u64,
}

/// Everything a deterministic multi-core run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McOutcome {
    /// Committed transactions, in commit order.
    pub committed: Vec<CommittedTxn>,
    /// Every executed store, in execution order (committed or not).
    pub exec_stores: Vec<ExecStore>,
    /// Cross-core events, in occurrence order.
    pub events: Vec<McEvent>,
    /// Final machine counters.
    pub stats: MachineStats,
    /// `splitmix64` fold over the final persistent image restricted to
    /// the program's line universe — byte-identical runs fold equal.
    pub image_digest: u64,
    /// Final simulated cycle.
    pub now: u64,
    /// Whether an armed persist-event crash tripped mid-run.
    pub crashed: bool,
}

/// Runs per-core `programs` under `sched` on a fresh
/// `programs.len()`-core machine. When `crash_at` is armed, execution
/// stops at the first scheduling step after the trip (lazy data is
/// *not* drained; the crash sweep takes over). `trace_capacity` turns
/// event tracing on from the first instruction.
fn run_programs_opts(
    cfg: MachineConfig,
    programs: &[Vec<TraceOp>],
    sched: Schedule,
    crash_at: Option<u64>,
    trace_capacity: Option<usize>,
) -> (Machine, McOutcome) {
    let n = programs.len();
    let mut m = Machine::with_cores(cfg, n);
    if let Some(cap) = trace_capacity {
        m.enable_tracing(cap);
    }
    if let Some(k) = crash_at {
        m.arm_crash_at_event(k);
    }
    let mut rng = SimRng::seed_from_u64(sched.seed ^ 0x006d_6373_6368_6564);
    let weights: Vec<u64> = match sched.policy {
        SchedPolicy::RoundRobin => vec![1; n],
        SchedPolicy::Weighted => (0..n).map(|_| 1 + rng.gen_range(0..4)).collect(),
    };
    let mut pc = vec![0usize; n];
    // Set when another core's access aborted this core's open
    // transaction; the core observes it when next scheduled.
    let mut aborted = vec![false; n];
    let mut cur_seq = vec![0u64; n];
    let mut cur_stores: Vec<Vec<ExecStore>> = vec![Vec::new(); n];
    let mut committed = Vec::new();
    let mut exec_stores = Vec::new();
    let mut events = Vec::new();
    let mut rr = 0usize;
    let mut crashed = false;
    loop {
        if m.crash_tripped() {
            crashed = true;
            break;
        }
        let live: Vec<usize> = (0..n).filter(|&c| pc[c] < programs[c].len()).collect();
        if live.is_empty() {
            break;
        }
        let core = match sched.policy {
            SchedPolicy::RoundRobin => {
                let c = *live.iter().find(|&&c| c >= rr).unwrap_or(&live[0]);
                rr = c + 1;
                c
            }
            SchedPolicy::Weighted => {
                let total: u64 = live.iter().map(|&c| weights[c]).sum();
                let mut pick = rng.gen_range(0..total);
                let mut chosen = live[0];
                for &c in &live {
                    if pick < weights[c] {
                        chosen = c;
                        break;
                    }
                    pick -= weights[c];
                }
                chosen
            }
        };
        // The thread observes the abort and gives up on the
        // transaction: skip to just past the program's matching Commit.
        if aborted[core] {
            while pc[core] < programs[core].len() {
                let was_commit = matches!(programs[core][pc[core]], TraceOp::Commit);
                pc[core] += 1;
                if was_commit {
                    break;
                }
            }
            aborted[core] = false;
            cur_stores[core].clear();
            continue;
        }
        let op = programs[core][pc[core]];
        pc[core] += 1;
        m.switch_core(core);
        let (addr, is_write) = match op {
            TraceOp::Begin => {
                m.tx_begin();
                cur_seq[core] = m.cur_seq().expect("transaction just opened");
                continue;
            }
            TraceOp::Commit => {
                m.tx_commit();
                let seq = cur_seq[core];
                events.push(McEvent::Committed { core, seq });
                committed.push(CommittedTxn {
                    core,
                    seq,
                    stores: std::mem::take(&mut cur_stores[core]),
                });
                continue;
            }
            TraceOp::Load { addr } => {
                m.load_u64(PmAddr::new(addr));
                (addr, false)
            }
            TraceOp::Store { addr, value, kind } => {
                m.store_u64(PmAddr::new(addr), value, kind);
                let s = ExecStore {
                    addr,
                    value,
                    kind,
                    core,
                    seq: cur_seq[core],
                };
                cur_stores[core].push(s);
                exec_stores.push(s);
                (addr, true)
            }
        };
        // The access's conflict check aborted every parked owner of the
        // line (requester wins).
        for (victim, seq) in m.take_conflict_aborts() {
            aborted[victim] = true;
            events.push(McEvent::ConflictAborted {
                core: victim,
                seq,
                by_core: core,
                line: PmAddr::new(addr).line().raw(),
                is_write,
            });
        }
    }
    if !crashed {
        // Close the run: outstanding lazily-persistent lines become
        // durable, so the image oracle sees the committed state.
        m.drain_lazy();
    }
    let outcome = McOutcome {
        committed,
        exec_stores,
        events,
        stats: *m.stats(),
        image_digest: image_digest(&m, programs),
        now: m.now(),
        crashed,
    };
    (m, outcome)
}

/// Runs per-core `programs` under `sched`, draining lazy data at the
/// end. See [`McOutcome`] for what comes back.
pub fn run_programs(
    cfg: MachineConfig,
    programs: &[Vec<TraceOp>],
    sched: Schedule,
) -> (Machine, McOutcome) {
    run_programs_opts(cfg, programs, sched, None, None)
}

/// [`run_programs`] with event tracing on from the first instruction
/// (per-core ring capacity `trace_capacity`) and an optionally armed
/// crash — the capture side of the interleaving sweeps. Drain the
/// records with [`Machine::take_trace`].
pub fn run_programs_traced(
    cfg: MachineConfig,
    programs: &[Vec<TraceOp>],
    sched: Schedule,
    crash_at: Option<u64>,
    trace_capacity: usize,
) -> (Machine, McOutcome) {
    run_programs_opts(cfg, programs, sched, crash_at, Some(trace_capacity))
}

/// `splitmix64` fold over the final image restricted to the program's
/// line universe.
fn image_digest(m: &Machine, programs: &[Vec<TraceOp>]) -> u64 {
    let mut h = 0x736c_706d_745f_6d63u64;
    for line in program_lines(programs) {
        h ^= line;
        splitmix64(&mut h);
        let data = m.device().image().read_line(PmAddr::new(line));
        for chunk in data.chunks_exact(8) {
            h ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            splitmix64(&mut h);
        }
    }
    h
}

// ---------------------------------------------------------------------
// The serialized-order oracle

/// Outcome of a serialized-oracle check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleReport {
    /// Words checked exactly against the serialized reference.
    pub words_checked: usize,
    /// Words skipped because their trailing writer was an aborted
    /// log-free store (freshly-allocated-memory semantics: the value
    /// is garbage by design and unreachable by the application).
    pub words_skipped: usize,
}

/// Serialized reference: every committed transaction's stores applied
/// in commit order. Conflict resolution guarantees per-word store
/// order agrees with commit order, so this is the linearised history.
pub fn serialized_reference(outcome: &McOutcome) -> BTreeMap<u64, u64> {
    let mut model = BTreeMap::new();
    for txn in &outcome.committed {
        for s in &txn.stores {
            model.insert(s.addr, s.value);
        }
    }
    model
}

/// Checks the machine's final state against the serialized reference:
/// for every word the programs wrote, both the coherent view
/// ([`Machine::peek_u64`]) and the *durable image* must hold the
/// last committed writer's value (0 if every writer aborted). Words
/// whose trailing writer was an aborted log-free store are skipped —
/// see [`OracleReport::words_skipped`].
///
/// # Errors
///
/// Returns a description of the first mismatching word.
pub fn check_serialized_oracle(m: &Machine, outcome: &McOutcome) -> Result<OracleReport, String> {
    let committed: BTreeSet<u64> = outcome.committed.iter().map(|t| t.seq).collect();
    let f = m.config().features;
    let reference = serialized_reference(outcome);
    // Replay the execution order: per word, the last committed value
    // and whether an aborted log-free store trails it.
    let mut last_committed: BTreeMap<u64, u64> = BTreeMap::new();
    let mut tainted: BTreeSet<u64> = BTreeSet::new();
    for s in &outcome.exec_stores {
        if committed.contains(&s.seq) {
            last_committed.insert(s.addr, s.value);
            tainted.remove(&s.addr);
        } else if !s.kind.effects(f.log_free, f.lazy).set_log {
            tainted.insert(s.addr);
        }
    }
    // Per-word execution order must agree with commit order — this is
    // exactly what cross-core conflict resolution (§V-C) guarantees.
    for (addr, value) in &reference {
        if last_committed.get(addr) != Some(value) {
            return Err(format!(
                "word {addr:#x}: commit-order value {value:#x} != \
                 execution-order value {:?} — conflict serialisation broken",
                last_committed.get(addr)
            ));
        }
    }
    let mut report = OracleReport {
        words_checked: 0,
        words_skipped: 0,
    };
    let words: BTreeSet<u64> = outcome.exec_stores.iter().map(|s| s.addr).collect();
    for word in words {
        if tainted.contains(&word) {
            report.words_skipped += 1;
            continue;
        }
        let expect = last_committed.get(&word).copied().unwrap_or(0);
        let a = PmAddr::new(word);
        let peeked = m.peek_u64(a);
        if peeked != expect {
            return Err(format!(
                "word {word:#x}: coherent view {peeked:#x}, serialized \
                 reference {expect:#x}"
            ));
        }
        let imaged = m.device().image().read_u64(a);
        if imaged != expect {
            return Err(format!(
                "word {word:#x}: durable image {imaged:#x}, serialized \
                 reference {expect:#x}"
            ));
        }
        report.words_checked += 1;
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Multi-core persist-event crash sweep

/// One cell of a multi-core crash sweep, reproducible from this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McSweepCase {
    /// Hardware design to simulate.
    pub scheme: Scheme,
    /// Number of cores.
    pub cores: usize,
    /// Program seed (see [`ProgramSpec`]).
    pub seed: u64,
    /// Interleaving schedule.
    pub sched: Schedule,
    /// Transactions per core.
    pub txns_per_core: usize,
    /// Stores per transaction.
    pub stores_per_txn: usize,
    /// Zipfian θ (thousandths) of shared-word picks; `0` = uniform
    /// (the historical shape — `Display` omits it so archived failure
    /// tuples stay byte-stable).
    pub skew: u16,
}

impl McSweepCase {
    /// A case with the standard trace shape.
    pub fn new(scheme: Scheme, cores: usize, seed: u64, sched: Schedule) -> Self {
        McSweepCase {
            scheme,
            cores,
            seed,
            sched,
            txns_per_core: 6,
            stores_per_txn: 4,
            skew: 0,
        }
    }

    /// [`new`](Self::new) with zipfian shared-word skew — hot-word
    /// conflict traffic for the interleaving sweeps.
    pub fn skewed(scheme: Scheme, cores: usize, seed: u64, sched: Schedule, skew: u16) -> Self {
        let mut case = Self::new(scheme, cores, seed, sched);
        case.skew = skew;
        case
    }

    fn spec(&self) -> ProgramSpec {
        ProgramSpec {
            cores: self.cores,
            txns_per_core: self.txns_per_core,
            stores_per_txn: self.stores_per_txn,
            shared_lines: 8,
            private_lines: 6,
            // Word-exact crash oracles need every store rolled back
            // exactly; log-free kinds are excluded by design.
            logged_only: true,
            shared_skew_milli: self.skew,
            seed: self.seed,
        }
    }
}

impl fmt::Display for McSweepCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheme={} cores={} seed={} sched={}",
            self.scheme, self.cores, self.seed, self.sched
        )?;
        if self.skew != 0 {
            write!(f, " skew={}", self.skew)?;
        }
        Ok(())
    }
}

/// Runs the case crash-free, checks the serialized oracle, and returns
/// the persist-event count `N` — the sweep domain is `0..=N`.
///
/// # Panics
///
/// Panics if the crash-free run already violates the oracle (the sweep
/// would be meaningless).
pub fn mc_count_events(case: &McSweepCase) -> u64 {
    let programs = gen_programs(&case.spec());
    let (m, outcome) = run_programs(
        MachineConfig::for_scheme(case.scheme),
        &programs,
        case.sched,
    );
    check_serialized_oracle(&m, &outcome)
        .unwrap_or_else(|e| panic!("{case}: crash-free run disagrees with the oracle: {e}"));
    m.persist_event_count()
}

/// Per-core trace ring capacity of the traced multi-core runs: far
/// above what a sweep case emits, so no record is ever dropped.
const MC_TRACE_CAPACITY: usize = 1 << 20;

/// Replays the case with a crash armed at persist event `k`, recovers,
/// and checks every program word against its *admissible* value set:
///
/// * Writers are the durably-committed transactions' stores to the
///   word, in commit order (durable markers form a prefix of the
///   commit order).
/// * Admissible are the values from the last *eager* committed writer
///   onward: its commit persisted the word (undo: data before marker;
///   redo: a replayable record before marker), so nothing older can
///   survive recovery, while later lazily-persistent values may or may
///   not have been forced — and their records were discarded at commit
///   (§III-B2) in both disciplines, so redo replay cannot re-create
///   them either. The initial 0 joins the set when no committed writer
///   was eager.
///
/// Store values are globally unique, so membership also proves no
/// uncommitted or aborted transaction's value survived recovery.
///
/// # Errors
///
/// Describes the first violating word.
pub fn mc_run_crash_at(case: &McSweepCase, k: u64) -> Result<(), String> {
    let programs = gen_programs(&case.spec());
    let cfg = MachineConfig::for_scheme(case.scheme);
    let lazy_enabled = cfg.features.lazy;
    let (mut m, outcome) = run_programs_opts(cfg, &programs, case.sched, Some(k), None);
    m.crash();
    // Durable markers decide what counts as committed.
    let durable = durable_commits(&m, &outcome);
    m.recover();
    // Admissible values per word, from the durably committed prefix.
    let mut writers: BTreeMap<u64, Vec<(u64, bool)>> = BTreeMap::new();
    for txn in outcome
        .committed
        .iter()
        .filter(|t| durable.contains(&t.seq))
    {
        for s in &txn.stores {
            let eager = s.kind.effects(true, lazy_enabled).set_persist;
            writers.entry(s.addr).or_default().push((s.value, eager));
        }
    }
    let words: BTreeSet<u64> = outcome.exec_stores.iter().map(|s| s.addr).collect();
    for word in words {
        let got = m.device().image().read_u64(PmAddr::new(word));
        let empty = Vec::new();
        let w = writers.get(&word).unwrap_or(&empty);
        let last_eager = w.iter().rposition(|&(_, eager)| eager);
        let mut admissible: Vec<u64> = match last_eager {
            Some(i) => w[i..].iter().map(|&(v, _)| v).collect(),
            None => {
                let mut v = vec![0];
                v.extend(w.iter().map(|&(v, _)| v));
                v
            }
        };
        admissible.dedup();
        if !admissible.contains(&got) {
            return Err(format!(
                "word {word:#x} recovered as {got:#x}, \
                 admissible {admissible:x?} ({} durable txns)",
                durable.len()
            ));
        }
    }
    Ok(())
}

/// Sequence numbers of the committed transactions whose commit marker
/// landed whole before the crash. Every commit persists one marker, in
/// commit order, and an armed crash admits a prefix of the persist
/// events, so these are the first
/// [`markers_landed`](slpmt_pmem::LogRegion::markers_landed) commits of
/// the run — whether their markers are still live in the log or were
/// retired by truncation, which the live marker map alone cannot tell
/// apart from a marker that never landed.
fn durable_commits(m: &Machine, outcome: &McOutcome) -> BTreeSet<u64> {
    let landed = m.device().log().markers_landed() as usize;
    outcome
        .committed
        .iter()
        .take(landed)
        .map(|t| t.seq)
        .collect()
}

/// Replays the machine-level sequence of [`mc_run_crash_at`] — run
/// under the case's schedule, crash at persist event `k`, power
/// failure, log replay — with event tracing enabled, and returns the
/// captured records. Recovery panics are swallowed so the trace up to
/// the failure still comes back; the same `(case, k)` always yields
/// the same records.
pub fn mc_trace_crash_at(case: &McSweepCase, k: u64) -> Vec<TraceRecord> {
    let programs = gen_programs(&case.spec());
    let (mut m, _) = run_programs_traced(
        MachineConfig::for_scheme(case.scheme),
        &programs,
        case.sched,
        Some(k),
        MC_TRACE_CAPACITY,
    );
    m.crash();
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.recover()));
    m.take_trace()
}

/// The multi-core battery as a [`CrashTarget`]: every point checks
/// the admissible-value oracle of [`mc_run_crash_at`].
#[derive(Debug, Clone, Copy, Default)]
pub struct McTarget;

impl CrashTarget for McTarget {
    type Case = McSweepCase;
    type Outcome = ();
    const LABEL: &'static str = "mc";

    fn count(&self, case: &McSweepCase) -> u64 {
        mc_count_events(case)
    }

    fn seed(&self, case: &McSweepCase, _plan: &FaultPlan) -> u64 {
        case.seed
    }

    fn check(&self, case: &McSweepCase, _plan: &FaultPlan, ks: &[u64]) -> Vec<Result<(), String>> {
        ks.iter()
            .map(|&k| guarded(|| mc_run_crash_at(case, k)))
            .collect()
    }

    fn trace(&self, case: &McSweepCase, _plan: &FaultPlan, k: u64) -> Vec<TraceRecord> {
        mc_trace_crash_at(case, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "no-trace"))]
    use slpmt_pmem::PersistEvent;

    #[test]
    fn programs_are_deterministic() {
        let spec = ProgramSpec::small(3, 7);
        assert_eq!(gen_programs(&spec), gen_programs(&spec));
        let other = ProgramSpec::small(3, 8);
        assert_ne!(gen_programs(&spec), gen_programs(&other));
    }

    #[test]
    fn store_values_are_unique_and_nonzero() {
        let programs = gen_programs(&ProgramSpec::small(4, 11));
        let mut seen = BTreeSet::new();
        for op in programs.iter().flatten() {
            if let TraceOp::Store { value, .. } = op {
                assert!(*value != 0);
                assert!(seen.insert(*value), "duplicate store value {value}");
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn one_core_run_matches_plain_machine() {
        // One core, no conflicts: the driver's machine must time and
        // count exactly like a plain one.
        let programs = gen_programs(&ProgramSpec::small(1, 3));
        let (m, outcome) = run_programs(MachineConfig::for_scheme(Scheme::Slpmt), &programs, {
            Schedule::round_robin(0)
        });
        assert!(!outcome.crashed);
        assert_eq!(outcome.stats.cross_core_aborts, 0);
        check_serialized_oracle(&m, &outcome).unwrap();

        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
        for op in &programs[0] {
            match *op {
                TraceOp::Begin => m.tx_begin(),
                TraceOp::Load { addr } => {
                    m.load_u64(PmAddr::new(addr));
                }
                TraceOp::Store { addr, value, kind } => m.store_u64(PmAddr::new(addr), value, kind),
                TraceOp::Commit => m.tx_commit(),
            }
        }
        m.drain_lazy();
        assert_eq!(m.now(), outcome.now, "the driver must not change timing");
        assert_eq!(*m.stats(), outcome.stats);
    }

    #[test]
    fn conflicts_abort_parked_owners() {
        // Two cores hammer one shared line: conflicts are inevitable
        // under round-robin interleaving.
        let spec = ProgramSpec {
            cores: 2,
            txns_per_core: 8,
            stores_per_txn: 4,
            shared_lines: 1,
            private_lines: 1,
            logged_only: true,
            shared_skew_milli: 0,
            seed: 5,
        };
        let programs = gen_programs(&spec);
        let (m, outcome) = run_programs(
            MachineConfig::for_scheme(Scheme::Slpmt),
            &programs,
            Schedule::round_robin(1),
        );
        assert!(
            outcome.stats.cross_core_aborts > 0,
            "single shared line must conflict"
        );
        assert!(outcome
            .events
            .iter()
            .any(|e| matches!(e, McEvent::ConflictAborted { .. })));
        check_serialized_oracle(&m, &outcome).unwrap();
    }

    #[test]
    fn weighted_and_round_robin_schedules_differ() {
        let programs = gen_programs(&ProgramSpec::small(3, 9));
        let cfg = || MachineConfig::for_scheme(Scheme::Slpmt);
        let (_, rr) = run_programs(cfg(), &programs, Schedule::round_robin(2));
        let (_, w) = run_programs(cfg(), &programs, Schedule::weighted(2));
        // Same programs, different interleaving: commit order differs
        // (overwhelmingly likely with 3 cores × 6 txns).
        let rr_order: Vec<u64> = rr.committed.iter().map(|t| t.seq).collect();
        let w_order: Vec<u64> = w.committed.iter().map(|t| t.seq).collect();
        assert_ne!(rr_order, w_order, "schedules must actually differ");
    }

    #[test]
    fn mc_crash_at_zero_recovers_to_initial_state() {
        let case = McSweepCase::new(Scheme::Slpmt, 2, 3, Schedule::round_robin(1));
        mc_run_crash_at(&case, 0).unwrap();
    }

    #[test]
    fn mc_crash_past_all_events_recovers_final_state() {
        let case = McSweepCase::new(Scheme::Slpmt, 2, 3, Schedule::round_robin(1));
        let n = mc_count_events(&case);
        mc_run_crash_at(&case, n).unwrap();
    }

    #[test]
    fn skewed_shared_picks_concentrate_on_hot_words() {
        // Under θ = 0.99 the hottest shared word must take a far
        // larger share of shared stores than the uniform 1/64.
        fn shared_store_counts(programs: &[Vec<TraceOp>]) -> std::collections::BTreeMap<u64, u32> {
            let mut counts = std::collections::BTreeMap::new();
            for prog in programs {
                for op in prog {
                    if let TraceOp::Store { addr, .. } = *op {
                        if (SHARED_BASE..PRIVATE_BASE).contains(&addr) {
                            *counts.entry(addr).or_insert(0u32) += 1;
                        }
                    }
                }
            }
            counts
        }
        let mut spec = ProgramSpec::small(4, 29);
        spec.txns_per_core = 32;
        spec.logged_only = true;
        let uniform = shared_store_counts(&gen_programs(&spec));
        spec.shared_skew_milli = 990;
        let skewed = shared_store_counts(&gen_programs(&spec));
        let peak = |m: &std::collections::BTreeMap<u64, u32>| {
            let total: u32 = m.values().sum();
            (*m.values().max().unwrap() as f64, total as f64)
        };
        let (u_max, u_total) = peak(&uniform);
        let (s_max, s_total) = peak(&skewed);
        assert!(
            s_max / s_total > 2.0 * u_max / u_total,
            "skewed peak {s_max}/{s_total} not hotter than uniform {u_max}/{u_total}"
        );
    }

    /// The untraced oracle's durable set equals the commit markers the
    /// traced persist history shows landing untorn, at every crash
    /// point of one sweep cell.
    #[cfg(not(feature = "no-trace"))]
    #[test]
    fn landed_markers_match_the_traced_persist_history() {
        let case = McSweepCase::new(Scheme::SlpmtRedo, 2, 7, Schedule::weighted(3));
        let programs = gen_programs(&case.spec());
        let cfg = MachineConfig::for_scheme(case.scheme);
        let n = mc_count_events(&case);
        let mut sizes = BTreeSet::new();
        for k in 0..=n {
            let (mut m, outcome) = run_programs_traced(
                cfg.clone(),
                &programs,
                case.sched,
                Some(k),
                MC_TRACE_CAPACITY,
            );
            m.crash();
            let log = m.device().log();
            let traced: BTreeSet<u64> = m
                .device()
                .persist_history()
                .into_iter()
                .filter_map(|e| match e {
                    PersistEvent::CommitMarker { txn } if log.marker_usable(txn) => Some(txn),
                    _ => None,
                })
                .collect();
            assert_eq!(durable_commits(&m, &outcome), traced, "{case} k={k}");
            sizes.insert(traced.len());
        }
        assert!(
            sizes.len() > 2,
            "the sweep crosses several commits: {sizes:?}"
        );
    }

    #[test]
    fn skewed_case_survives_crash_sweep_endpoints() {
        let case = McSweepCase::skewed(Scheme::Slpmt, 2, 3, Schedule::round_robin(1), 990);
        assert_eq!(
            case.to_string(),
            format!(
                "scheme={} cores=2 seed=3 sched=rr:1 skew=990",
                Scheme::Slpmt
            )
        );
        let n = mc_count_events(&case);
        mc_run_crash_at(&case, 0).unwrap();
        mc_run_crash_at(&case, n / 2).unwrap();
        mc_run_crash_at(&case, n).unwrap();
    }

    #[cfg(not(feature = "no-trace"))]
    #[test]
    fn event_origins_attribute_cores() {
        let programs = gen_programs(&ProgramSpec::small(2, 13));
        let (mut m, _) = run_programs_traced(
            MachineConfig::for_scheme(Scheme::Fg),
            &programs,
            Schedule::round_robin(0),
            None,
            MC_TRACE_CAPACITY,
        );
        let history = m.device().persist_history();
        let origins: Vec<u8> = m
            .take_trace()
            .into_iter()
            .filter(|r| matches!(r.event, slpmt_trace::Event::Persist { .. }))
            .map(|r| r.core)
            .collect();
        assert!(origins.contains(&0) && origins.contains(&1));
        assert_eq!(origins.len(), history.len());
    }
}
