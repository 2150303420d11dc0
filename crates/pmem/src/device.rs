//! The persistent-memory device: durable image + WPQ + accounting.
//!
//! [`PmDevice`] is the single point through which the simulated CPU
//! persists anything. Every persist is timed through the
//! [write pending queue](crate::wpq) and counted in
//! [`crate::stats::WriteTraffic`]; log-record persists
//! are additionally recorded in the durable [`LogRegion`] so that
//! crash recovery sees exactly what reached the persistence domain.

use crate::addr::{PmAddr, LINE_BYTES, WORD_BYTES};
use crate::config::PmConfig;
use crate::fault::{mix64, FaultPlan};
use crate::log_region::LogRegion;
use crate::payload::PayloadBuf;
use crate::space::PmSpace;
use crate::stats::WriteTraffic;
use crate::wpq::{WpqPush, WritePendingQueue};
use slpmt_trace::{Event as TraceEvent, PersistKind, TraceHandle};
use std::collections::BTreeSet;

/// One accepted durable-state mutation. The device keeps no history of
/// them: each is emitted to the trace sink as a `Persist` record, and
/// [`PmDevice::persist_history`] reads the stream back, in acceptance
/// order. Tests use it to assert persist-ordering disciplines
/// (Figure 4): e.g. that a logged line's undo records are accepted
/// before the line's data.
///
/// Every variant is one *numbered* durable-state mutation: the index
/// of an event in the stream (1-based) is the value the crash
/// scheduler ([`PmDevice::arm_crash_at_event`]) counts, so a crash
/// state is always an exact prefix of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistEvent {
    /// A data cache line was accepted by the WPQ.
    DataLine {
        /// Line address.
        addr: PmAddr,
    },
    /// A log record was accepted (atomically with its pack).
    LogRecord {
        /// Owning transaction.
        txn: u64,
        /// Record start address.
        addr: PmAddr,
        /// Record length in bytes.
        len: usize,
    },
    /// A commit marker became durable.
    CommitMarker {
        /// Committed transaction.
        txn: u64,
    },
    /// The durable log head advanced: committed records were truncated
    /// (post-commit) or the whole region was reset (post-recovery) —
    /// an 8-byte head-pointer update in real hardware.
    LogTruncate,
}

/// A log record queued for a packed flush; see
/// [`PmDevice::persist_log_pack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFlushEntry {
    /// Owning transaction sequence number.
    pub txn: u64,
    /// Word-aligned address the record covers.
    pub addr: PmAddr,
    /// Record payload bytes (a whole number of words), stored inline
    /// so packs move through the flush path without heap traffic.
    pub payload: PayloadBuf,
}

/// How the acceptance gate admitted one durable mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// The persist completed; durable state mutates fully.
    Full,
    /// The persist tore at the crash boundary: only the first `w`
    /// 8-byte words landed.
    Torn(u32),
    /// The crash already tripped; the mutation never happened.
    Dropped,
}

/// The word range `[lo, hi)` a torn word index may take for `event`,
/// or `None` when the event is a single-word (untearable) update.
/// Data lines tear with at least one word landed (`lo = 1`); records
/// may land tag-only (`lo = 0`, the payload entirely missing);
/// markers are two words (sequence, checksum) and may tear at either.
fn tear_range(event: &PersistEvent) -> Option<(u32, u32)> {
    match event {
        PersistEvent::DataLine { .. } => Some((1, (LINE_BYTES / WORD_BYTES) as u32)),
        PersistEvent::LogRecord { len, .. } => Some((0, (len / WORD_BYTES) as u32)),
        PersistEvent::CommitMarker { .. } => Some((0, 2)),
        PersistEvent::LogTruncate => None,
    }
}

/// The simulated persistent-memory device.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct PmDevice {
    config: PmConfig,
    image: PmSpace,
    wpq: WritePendingQueue,
    traffic: WriteTraffic,
    log: LogRegion,
    /// Byte offset of the sequential log-area tail. Log appends pack
    /// into 64-byte media lines; bytes landing in the line already in
    /// flight at the tail are absorbed for free.
    log_tail: u64,
    /// Total persist events ever accepted (monotonic across crashes).
    /// The events themselves live only in the trace sink.
    event_count: u64,
    /// Armed crash point: after `k` total events have been accepted,
    /// every further durable mutation is dropped (the power failed
    /// between event `k` and event `k + 1`).
    crash_at_event: Option<u64>,
    /// Set once the armed crash point has been reached and a durable
    /// mutation was dropped.
    crash_tripped: bool,
    /// Media-fault plan (tear / poison / flip / jitter); empty by
    /// default, in which case none of the fault paths run.
    plan: FaultPlan,
    /// `true` when an armed crash should apply the plan's post-crash
    /// corruption (poison + flips) at the next [`crash`](Self::crash).
    faults_pending: bool,
    /// Line addresses currently unreadable (uncorrectable-ECC model).
    poisoned: BTreeSet<u64>,
    /// Ground truth: lines the plan poisoned at the last crash.
    fault_poisoned: Vec<u64>,
    /// Ground truth: lines covered by records the plan bit-flipped at
    /// the last crash.
    fault_flipped: Vec<u64>,
    /// Optional trace sink shared with the machine front end. `None`
    /// (the default) keeps the persist path at a single branch.
    tracer: Option<TraceHandle>,
}

impl PmDevice {
    /// Creates a device with the given configuration.
    pub fn new(config: PmConfig) -> Self {
        let image = PmSpace::new(config.pm_capacity);
        let wpq = WritePendingQueue::new(
            config.wpq_entries,
            config.pm_write_cycles,
            config.wpq_accept_cycles,
        );
        PmDevice {
            config,
            image,
            wpq,
            traffic: WriteTraffic::new(),
            log: LogRegion::new(),
            log_tail: 0,
            event_count: 0,
            crash_at_event: None,
            crash_tripped: false,
            plan: FaultPlan::NONE,
            faults_pending: false,
            poisoned: BTreeSet::new(),
            fault_poisoned: Vec::new(),
            fault_flipped: Vec::new(),
            tracer: None,
        }
    }

    /// Installs (or removes) the shared trace sink. Accepted durable
    /// mutations, WPQ enqueues and log packs are emitted while a sink
    /// is present; the durable-event counter is mirrored into it so
    /// records from every emitter share the same clock.
    pub fn set_tracer(&mut self, tracer: Option<TraceHandle>) {
        self.tracer = tracer;
    }

    /// Stamps the simulated cycle clock on the trace sink (no-op when
    /// tracing is disabled).
    fn trace_clock(&mut self, now: u64) {
        if cfg!(feature = "no-trace") {
            return;
        }
        if let Some(t) = &self.tracer {
            t.borrow_mut().set_clock(now);
        }
    }

    /// Emits the accepted durable mutation into the trace sink.
    fn trace_accepted(&mut self, event: &PersistEvent, torn: bool) {
        if cfg!(feature = "no-trace") {
            return;
        }
        if let Some(t) = &self.tracer {
            let (kind, addr, len, txn) = match event {
                PersistEvent::DataLine { addr } => {
                    (PersistKind::Data, addr.raw(), LINE_BYTES as u16, 0)
                }
                PersistEvent::LogRecord { txn, addr, len } => {
                    (PersistKind::Record, addr.raw(), *len as u16, *txn)
                }
                PersistEvent::CommitMarker { txn } => (PersistKind::Marker, 0, 16, *txn),
                PersistEvent::LogTruncate => (PersistKind::Truncate, 0, 0, 0),
            };
            let mut t = t.borrow_mut();
            t.set_devent(self.event_count);
            t.emit(TraceEvent::Persist {
                kind,
                addr,
                len,
                txn,
                torn,
            });
        }
    }

    /// Emits the WPQ enqueue + drain-complete pair for one push.
    fn trace_wpq(&mut self, now: u64, push: &WpqPush) {
        if cfg!(feature = "no-trace") {
            return;
        }
        if let Some(t) = &self.tracer {
            let depth = self.wpq.occupancy(push.accepted_at).min(255) as u8;
            let stall = push.stall_cycles.min(u64::from(u32::MAX)) as u32;
            let mut t = t.borrow_mut();
            t.set_clock(now);
            t.emit(TraceEvent::WpqEnqueue { depth, stall });
            t.emit(TraceEvent::WpqDrainComplete {
                at: push.drained_at,
            });
        }
    }

    /// Every persist event accepted since construction, in acceptance
    /// order, read back from the trace sink's `Persist` records (the
    /// device keeps no history of its own). The core that issued each
    /// event is the record's `core`.
    ///
    /// # Panics
    ///
    /// Panics unless the whole stream is in the trace: a tracer must
    /// be installed before the first persist (and tracing compiled
    /// in), the sink must have dropped no record, and it must hold
    /// exactly [`event_count`](Self::event_count) `Persist` records
    /// (none drained by a `take`). A check can therefore never pass on
    /// a truncated history.
    pub fn persist_history(&self) -> Vec<PersistEvent> {
        let tracer = self
            .tracer
            .as_ref()
            .filter(|_| !cfg!(feature = "no-trace"))
            .expect("the persist history is read from the trace: enable tracing before the first persist");
        let t = tracer.borrow();
        assert_eq!(
            t.dropped(),
            0,
            "the trace dropped records, so the persist history is incomplete: raise its capacity"
        );
        let events: Vec<PersistEvent> = t
            .records()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::Persist {
                    kind,
                    addr,
                    len,
                    txn,
                    ..
                } => Some(match kind {
                    PersistKind::Data => PersistEvent::DataLine {
                        addr: PmAddr::new(addr),
                    },
                    PersistKind::Record => PersistEvent::LogRecord {
                        txn,
                        addr: PmAddr::new(addr),
                        len: len as usize,
                    },
                    PersistKind::Marker => PersistEvent::CommitMarker { txn },
                    PersistKind::Truncate => PersistEvent::LogTruncate,
                }),
                _ => None,
            })
            .collect();
        assert_eq!(
            events.len() as u64,
            self.event_count,
            "the trace holds {} of the device's {} persist events: tracing must be on \
             from the first persist and the trace must not be drained",
            events.len(),
            self.event_count
        );
        events
    }

    /// Total persist events accepted since construction. Event indices
    /// are 1-based: the first durable mutation is event 1.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// Arms the persist-event crash scheduler: once `k` total events
    /// have been accepted (counting from device construction), every
    /// later durable mutation is silently dropped — the durable state
    /// freezes as the exact `k`-event prefix of the persist trace,
    /// exactly what a power failure between event `k` and `k + 1`
    /// leaves behind. Pair with [`crash_tripped`](Self::crash_tripped)
    /// to detect the trip and a subsequent [`crash`](Self::crash) to
    /// discard volatile state.
    ///
    /// Arming with `k` at or below the current
    /// [`event_count`](Self::event_count) trips on the very next
    /// mutation.
    pub fn arm_crash_at_event(&mut self, k: u64) {
        self.crash_at_event = Some(k);
        self.crash_tripped = false;
        self.faults_pending = self.plan.poison_lines > 0 || self.plan.flip_records > 0;
        self.fault_poisoned.clear();
        self.fault_flipped.clear();
    }

    /// Installs a media-fault plan (see [`FaultPlan`]). The jitter
    /// component takes effect immediately on the WPQ; tear applies to
    /// the next armed crash boundary; poison and flips apply at the
    /// [`crash`](Self::crash) following the next
    /// [`arm_crash_at_event`](Self::arm_crash_at_event). An empty plan
    /// restores bit-identical fault-free behaviour.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.wpq
            .set_drain_jitter(plan.jitter as u64, mix64(plan.seed ^ 0x6A77));
    }

    /// The installed media-fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Disarms a pending persist-event crash without crashing.
    pub fn disarm_crash(&mut self) {
        self.crash_at_event = None;
        self.crash_tripped = false;
    }

    /// `true` once an armed persist-event crash point has been reached
    /// and at least one durable mutation was dropped.
    pub fn crash_tripped(&self) -> bool {
        self.crash_tripped
    }

    /// Gate for every durable-state mutation: numbers the event and
    /// reports whether it reached the persistence domain. After an
    /// armed crash trips, all further mutations are dropped. With a
    /// tearing [`FaultPlan`], the crash-boundary event `k` itself
    /// lands *partially*, at 8-byte word granularity.
    fn accept(&mut self, event: &PersistEvent) -> Admission {
        if let Some(k) = self.crash_at_event {
            if self.event_count >= k {
                self.crash_tripped = true;
                return Admission::Dropped;
            }
            if self.plan.tear && self.event_count + 1 == k {
                if let Some((lo, hi)) = tear_range(event) {
                    self.event_count += 1;
                    self.trace_accepted(event, true);
                    // Power failed *during* event k: the prefix of the
                    // persist landed, nothing later can.
                    self.crash_tripped = true;
                    let w = match self.plan.tear_word {
                        Some(w) => (w as u32).clamp(lo, hi - 1),
                        None => lo + (mix64(self.plan.seed ^ k) % (hi - lo) as u64) as u32,
                    };
                    return Admission::Torn(w);
                }
                // Untearable events (the 8-byte log-head update) land
                // fully; the crash trips on the next mutation instead.
            }
        }
        self.event_count += 1;
        self.trace_accepted(event, false);
        Admission::Full
    }

    /// Appends `bytes` to the sequential log area, returning how many
    /// *new* 64-byte media lines the append touches (0 when fully
    /// absorbed by the in-flight tail line).
    fn log_append_lines(&mut self, bytes: u64) -> u64 {
        let line = LINE_BYTES as u64;
        let before = self.log_tail.div_ceil(line);
        self.log_tail += bytes;
        self.log_tail.div_ceil(line) - before
    }

    /// The device configuration.
    pub fn config(&self) -> &PmConfig {
        &self.config
    }

    /// Read latency in cycles for a miss served by the PM medium.
    pub fn read_cycles(&self) -> u64 {
        self.config.pm_read_cycles
    }

    /// The durable image (crash-visible state).
    pub fn image(&self) -> &PmSpace {
        &self.image
    }

    /// Mutable access to the durable image for *out-of-band* setup
    /// (e.g. pre-populating a heap before measurement). Accesses through
    /// this method are neither timed nor counted.
    pub fn image_mut(&mut self) -> &mut PmSpace {
        &mut self.image
    }

    /// The durable log region.
    pub fn log(&self) -> &LogRegion {
        &self.log
    }

    /// Mutable access to the log region (used by recovery to truncate).
    pub fn log_mut(&mut self) -> &mut LogRegion {
        &mut self.log
    }

    /// Accumulated write traffic.
    pub fn traffic(&self) -> &WriteTraffic {
        &self.traffic
    }

    /// Total cycles requesters stalled on a full WPQ.
    pub fn wpq_stall_cycles(&self) -> u64 {
        self.wpq.total_stall_cycles()
    }

    /// WPQ occupancy at simulated time `now` — the admission signal
    /// for service-level backpressure (entries accepted but not yet
    /// drained to the medium).
    pub fn wpq_occupancy(&self, now: u64) -> usize {
        self.wpq.occupancy(now)
    }

    /// Configured WPQ capacity in 64-byte entries.
    pub fn wpq_entries(&self) -> usize {
        self.config.wpq_entries
    }

    /// Enables deterministic WPQ drain-completion jitter within
    /// `window` cycles (0 disables it), without arming any media
    /// fault. Drain timing shifts; durability never does — acceptance
    /// by the queue is what persists.
    pub fn set_wpq_drain_jitter(&mut self, window: u64, seed: u64) {
        self.wpq.set_drain_jitter(window, seed);
    }

    /// Cycle by which everything queued so far has drained.
    pub fn drained_by(&self, now: u64) -> u64 {
        self.wpq.drained_by(now)
    }

    /// Persists one 64-byte data line at time `now`; the line becomes
    /// durable (ADR) once accepted. Returns the acceptance cycle.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned.
    pub fn persist_line(&mut self, now: u64, addr: PmAddr, data: &[u8; LINE_BYTES]) -> u64 {
        self.trace_clock(now);
        match self.accept(&PersistEvent::DataLine { addr }) {
            Admission::Dropped => now,
            Admission::Full => {
                let push = self.wpq.push(now);
                self.trace_wpq(now, &push);
                self.image.write_line(addr, data);
                // A completed line write re-establishes ECC: the line
                // is readable again (cheap no-op when nothing is
                // poisoned).
                self.poisoned.remove(&addr.raw());
                self.traffic.count_data_line();
                push.accepted_at
            }
            Admission::Torn(w) => {
                let push = self.wpq.push(now);
                self.trace_wpq(now, &push);
                let mut line = self.image.read_line(addr);
                let landed = w as usize * WORD_BYTES;
                line[..landed].copy_from_slice(&data[..landed]);
                self.image.write_line(addr, &line);
                self.traffic.count_data_line();
                push.accepted_at
            }
        }
    }

    /// Persists a *pack* of log records: the record bytes append to
    /// the sequential log area and occupy however many new media lines
    /// the tail crosses (possibly zero, when absorbed by the in-flight
    /// tail line). Records become durable atomically with acceptance.
    /// Returns the acceptance cycle of the final slot.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn persist_log_pack(&mut self, now: u64, entries: &[LogFlushEntry]) -> u64 {
        assert!(!entries.is_empty(), "empty log pack");
        self.trace_clock(now);
        let mut bytes = 0;
        let mut records = 0;
        for e in entries {
            // Each record is its own persist event: a crash may land
            // between two records of the same pack — or *inside* one,
            // when a tearing fault plan is armed.
            match self.accept(&PersistEvent::LogRecord {
                txn: e.txn,
                addr: e.addr,
                len: e.payload.len(),
            }) {
                Admission::Dropped => break,
                Admission::Full => {
                    bytes += e.payload.len() as u64 + 8;
                    records += 1;
                    self.log.append(e.txn, e.addr, &e.payload);
                }
                Admission::Torn(w) => {
                    // The tag word landed (the tail line was in
                    // flight), the payload tore after `w` words.
                    bytes += e.payload.len() as u64 + 8;
                    records += 1;
                    self.log.append_torn(e.txn, e.addr, &e.payload, w as u8);
                    break;
                }
            }
        }
        if records == 0 {
            return now;
        }
        let lines = self.log_append_lines(bytes);
        let accepted = self.drain_lines(now, lines);
        self.traffic.count_log_flush(records, bytes, lines);
        if !cfg!(feature = "no-trace") {
            if let Some(t) = &self.tracer {
                t.borrow_mut().emit(TraceEvent::LogPack {
                    records: records as u16,
                    bytes: bytes.min(u64::from(u32::MAX)) as u32,
                });
            }
        }
        accepted
    }

    /// Drains `lines` dependent WPQ pushes starting at `now` and
    /// returns the final acceptance cycle. With no tracer attached the
    /// whole chain runs as one batched queue pass
    /// ([`WritePendingQueue::push_chain`]); with tracing on, each push
    /// is issued individually so the per-push `WpqEnqueue` /
    /// `WpqDrainComplete` records keep their exact timings. Both paths
    /// produce identical queue state and acceptance cycles.
    fn drain_lines(&mut self, now: u64, lines: u64) -> u64 {
        if cfg!(feature = "no-trace") || self.tracer.is_none() {
            return self.wpq.push_chain(now, lines);
        }
        let mut accepted = now;
        for _ in 0..lines {
            let push = self.wpq.push(accepted);
            self.trace_wpq(accepted, &push);
            accepted = push.accepted_at;
        }
        accepted
    }

    /// Persists the commit marker of transaction `txn`: a two-word
    /// (16-byte) record appended to the log tail — the committed
    /// sequence number plus its CRC32 tag — so a torn marker is
    /// detectable at either word. Returns the acceptance cycle.
    pub fn persist_commit_marker(&mut self, now: u64, txn: u64) -> u64 {
        self.trace_clock(now);
        match self.accept(&PersistEvent::CommitMarker { txn }) {
            Admission::Dropped => now,
            admission => {
                match admission {
                    Admission::Full => self.log.mark_committed(txn),
                    Admission::Torn(w) => self.log.mark_committed_torn(txn, w as u8),
                    Admission::Dropped => unreachable!(),
                }
                let lines = self.log_append_lines(16);
                let accepted = self.drain_lines(now, lines);
                self.traffic.count_log_flush(1, 16, lines);
                accepted
            }
        }
    }

    /// Truncates committed records from the durable log (the post-commit
    /// head-pointer advance). A numbered persist event: when a crash is
    /// armed and trips here, the log keeps its committed records — the
    /// head pointer never reached the persistence domain.
    pub fn truncate_log(&mut self) {
        // Head updates are single-word and untearable, so the gate
        // only ever answers Full or Dropped here.
        if self.accept(&PersistEvent::LogTruncate) == Admission::Full {
            self.log.truncate_committed();
        }
    }

    /// Resets the whole durable log region (the post-recovery head/tail
    /// reset). A numbered persist event, like
    /// [`truncate_log`](Self::truncate_log).
    pub fn reset_log(&mut self) {
        if self.accept(&PersistEvent::LogTruncate) == Admission::Full {
            self.log.reset();
        }
    }

    /// Updates the PM write latency (Figure 12 sweep) mid-model.
    pub fn set_write_latency_cycles(&mut self, cycles: u64) {
        self.config.pm_write_cycles = cycles;
        self.wpq.set_write_cycles(cycles);
    }

    /// Simulates a power failure: the WPQ drains (ADR), caches are lost
    /// by the caller. The durable image and log region are the surviving
    /// state; the queue model is reset for the post-recovery run.
    pub fn crash(&mut self) {
        // Everything accepted by the WPQ already updated `image`, so
        // draining needs no data movement here.
        self.wpq.reset();
        // The armed crash (if any) has happened; recovery's own persists
        // must reach the device.
        self.crash_at_event = None;
        self.crash_tripped = false;
        // Post-crash media corruption (poison + bit flips) applies
        // exactly once per armed crash, deterministically from the
        // plan seed.
        if self.faults_pending {
            self.faults_pending = false;
            self.apply_media_faults();
        }
    }

    /// Injects the plan's post-crash corruption: poisons
    /// `plan.poison_lines` touched image lines (detectably unreadable)
    /// and flips one payload bit in `plan.flip_records` durable log
    /// records (exposed by their CRC mismatch). Every choice derives
    /// from `plan.seed` and the frozen event count, so the same
    /// `(trace, k, plan)` corrupts identically on every replay.
    fn apply_media_faults(&mut self) {
        let base = mix64(self.plan.seed ^ mix64(self.event_count));
        let lines = self.image.touched_line_addrs();
        if !lines.is_empty() {
            for i in 0..self.plan.poison_lines as u64 {
                let la = lines[(mix64(base ^ (0x5050 + i)) % lines.len() as u64) as usize];
                if self.poisoned.insert(la) {
                    self.fault_poisoned.push(la);
                }
            }
            self.fault_poisoned.sort_unstable();
        }
        let n = self.log.len();
        if n > 0 {
            for i in 0..self.plan.flip_records as u64 {
                let idx = (mix64(base ^ (0xF11F + i)) % n as u64) as usize;
                let bit = mix64(base ^ (0xB17 + i)) as usize;
                if let Some(covered) = self.log.corrupt_record_bit(idx, bit) {
                    self.fault_flipped.extend(covered);
                }
            }
            self.fault_flipped.sort_unstable();
            self.fault_flipped.dedup();
        }
    }

    /// `true` when `addr`'s line is currently poisoned: a read of it
    /// is detectably lost (uncorrectable ECC), not silently wrong.
    pub fn line_poisoned(&self, addr: PmAddr) -> bool {
        !self.poisoned.is_empty() && self.poisoned.contains(&addr.line().raw())
    }

    /// Line addresses currently poisoned, in address order.
    pub fn poisoned_line_addrs(&self) -> Vec<u64> {
        self.poisoned.iter().copied().collect()
    }

    /// Clears poison from `addr`'s line without rewriting it (the
    /// recovery scrub path). Returns whether the line was poisoned.
    pub fn clear_poison(&mut self, addr: PmAddr) -> bool {
        self.poisoned.remove(&addr.line().raw())
    }

    /// Ground truth for sweep oracles: lines the plan poisoned at the
    /// last armed crash (sorted), regardless of later salvage.
    pub fn fault_poisoned_lines(&self) -> &[u64] {
        &self.fault_poisoned
    }

    /// Ground truth for sweep oracles: lines covered by log records
    /// the plan bit-flipped at the last armed crash (sorted, deduped).
    pub fn fault_flipped_lines(&self) -> &[u64] {
        &self.fault_flipped
    }

    /// Consumes the device returning its durable state (image and log).
    pub fn into_durable_state(self) -> (PmSpace, LogRegion) {
        (self.image, self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> PmDevice {
        PmDevice::new(PmConfig::default().with_capacity(1 << 20))
    }

    /// A device whose persist stream goes to a trace of `capacity`
    /// records.
    #[cfg(not(feature = "no-trace"))]
    fn traced_dev(capacity: usize) -> PmDevice {
        let mut d = dev();
        d.set_tracer(Some(slpmt_trace::tracer(capacity)));
        d
    }

    #[test]
    fn persist_line_updates_image_and_traffic() {
        let mut d = dev();
        let t = d.persist_line(0, PmAddr::new(128), &[9u8; 64]);
        assert_eq!(t, 8); // accept latency
        assert_eq!(d.image().read_u64(PmAddr::new(128)), 0x0909090909090909);
        assert_eq!(d.traffic().data_lines, 1);
        assert_eq!(d.traffic().data_bytes, 64);
    }

    #[test]
    fn log_pack_records_and_counts() {
        let mut d = dev();
        let entries = vec![
            LogFlushEntry {
                txn: 7,
                addr: PmAddr::new(0),
                payload: PayloadBuf::from_slice(&[1; 8]),
            },
            LogFlushEntry {
                txn: 7,
                addr: PmAddr::new(8),
                payload: PayloadBuf::from_slice(&[2; 8]),
            },
        ];
        d.persist_log_pack(0, &entries);
        assert_eq!(d.log().records_of(7).count(), 2);
        assert_eq!(d.traffic().log_records, 2);
        assert_eq!(d.traffic().log_bytes, 32); // 2 × (8 payload + 8 addr)
        assert_eq!(d.traffic().wpq_lines, 1);
    }

    #[test]
    fn commit_marker_marks_txn() {
        let mut d = dev();
        assert!(!d.log().is_committed(3));
        d.persist_commit_marker(0, 3);
        assert!(d.log().is_committed(3));
        // A marker is two words: sequence + CRC32 tag.
        assert_eq!(d.traffic().log_bytes, 16);
        // A 16-byte marker from an empty tail opens one media line;
        // the next marker is absorbed by it (32 ≤ 64 bytes).
        assert_eq!(d.traffic().wpq_lines, 1);
        d.persist_commit_marker(0, 4);
        assert_eq!(d.traffic().wpq_lines, 1);
    }

    #[test]
    fn wpq_backpressure_visible_through_device() {
        let mut d = dev();
        let mut t = 0;
        // Fill the queue then keep pushing; later pushes must stall.
        for _ in 0..32 {
            t = d.persist_line(t, PmAddr::new(0), &[0u8; 64]);
        }
        assert!(d.wpq_stall_cycles() > 0, "sustained persists must stall");
    }

    #[test]
    fn out_of_band_setup_is_free() {
        let mut d = dev();
        d.image_mut().write_u64(PmAddr::new(0), 42);
        assert_eq!(d.traffic().total_bytes(), 0);
        assert_eq!(d.image().read_u64(PmAddr::new(0)), 42);
    }

    #[test]
    fn crash_preserves_image_and_log() {
        let mut d = dev();
        d.persist_line(0, PmAddr::new(0), &[1u8; 64]);
        d.persist_commit_marker(10, 1);
        d.crash();
        assert_eq!(d.image().read_u64(PmAddr::new(0)), 0x0101010101010101);
        assert!(d.log().is_committed(1));
    }

    #[test]
    fn latency_update_applies() {
        let mut d = dev();
        d.set_write_latency_cycles(4600);
        assert_eq!(d.config().pm_write_cycles, 4600);
    }

    #[test]
    #[should_panic(expected = "empty log pack")]
    fn empty_pack_rejected() {
        let mut d = dev();
        d.persist_log_pack(0, &[]);
    }

    #[cfg(not(feature = "no-trace"))]
    #[test]
    fn accepted_events_are_numbered_monotonically() {
        let mut d = traced_dev(64);
        assert_eq!(d.event_count(), 0);
        d.persist_line(0, PmAddr::new(0), &[1u8; 64]);
        assert_eq!(d.event_count(), 1);
        d.persist_commit_marker(0, 1);
        d.truncate_log();
        assert_eq!(d.event_count(), 3);
        assert_eq!(
            d.persist_history(),
            vec![
                PersistEvent::DataLine {
                    addr: PmAddr::new(0)
                },
                PersistEvent::CommitMarker { txn: 1 },
                PersistEvent::LogTruncate,
            ]
        );
    }

    #[cfg(not(feature = "no-trace"))]
    #[test]
    fn history_reads_back_records_and_their_cores() {
        let mut d = traced_dev(64);
        d.persist_log_pack(
            0,
            &[LogFlushEntry {
                txn: 4,
                addr: PmAddr::new(64),
                payload: PayloadBuf::from_slice(&[1; 16]),
            }],
        );
        d.tracer.as_ref().unwrap().borrow_mut().set_core(1);
        d.reset_log();
        assert_eq!(
            d.persist_history(),
            vec![
                PersistEvent::LogRecord {
                    txn: 4,
                    addr: PmAddr::new(64),
                    len: 16
                },
                PersistEvent::LogTruncate,
            ]
        );
        let cores: Vec<u8> = d
            .tracer
            .as_ref()
            .unwrap()
            .borrow()
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Persist { .. }))
            .map(|r| r.core)
            .collect();
        assert_eq!(cores, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "enable tracing before the first persist")]
    fn history_needs_a_tracer() {
        let mut d = dev();
        d.persist_line(0, PmAddr::new(0), &[1u8; 64]);
        d.persist_history();
    }

    #[cfg(not(feature = "no-trace"))]
    #[test]
    #[should_panic(expected = "the trace dropped records")]
    fn history_refuses_a_trace_that_dropped_records() {
        // Each data persist emits three records (persist, WPQ enqueue,
        // drain): four persists overflow a 10-record ring.
        let mut d = traced_dev(10);
        for i in 0..4u64 {
            d.persist_line(0, PmAddr::new(i * 64), &[1u8; 64]);
        }
        d.persist_history();
    }

    #[cfg(not(feature = "no-trace"))]
    #[test]
    #[should_panic(expected = "the trace holds 1 of the device's 2 persist events")]
    fn history_refuses_a_tracer_installed_late() {
        let mut d = dev();
        d.persist_line(0, PmAddr::new(0), &[1u8; 64]);
        d.set_tracer(Some(slpmt_trace::tracer(64)));
        d.persist_line(0, PmAddr::new(64), &[1u8; 64]);
        d.persist_history();
    }

    #[test]
    fn armed_crash_freezes_durable_prefix() {
        let mut d = dev();
        d.arm_crash_at_event(1);
        d.persist_line(0, PmAddr::new(0), &[1u8; 64]);
        assert!(!d.crash_tripped());
        // Event 2 onward is dropped: image, log and traffic freeze.
        d.persist_line(0, PmAddr::new(64), &[2u8; 64]);
        d.persist_commit_marker(0, 1);
        assert!(d.crash_tripped());
        assert_eq!(d.event_count(), 1);
        assert_eq!(d.image().read_u64(PmAddr::new(0)), 0x0101010101010101);
        assert_eq!(d.image().read_u64(PmAddr::new(64)), 0);
        assert!(!d.log().is_committed(1));
        assert_eq!(d.traffic().data_lines, 1);
    }

    #[test]
    fn log_pack_crashes_between_records() {
        let mut d = dev();
        let entries = vec![
            LogFlushEntry {
                txn: 7,
                addr: PmAddr::new(0),
                payload: PayloadBuf::from_slice(&[1; 8]),
            },
            LogFlushEntry {
                txn: 7,
                addr: PmAddr::new(8),
                payload: PayloadBuf::from_slice(&[2; 8]),
            },
        ];
        d.arm_crash_at_event(1);
        d.persist_log_pack(0, &entries);
        assert!(d.crash_tripped());
        assert_eq!(d.log().records_of(7).count(), 1);
        assert_eq!(d.traffic().log_records, 1);
    }

    #[test]
    fn tripped_truncate_keeps_log() {
        let mut d = dev();
        d.persist_commit_marker(0, 1);
        d.arm_crash_at_event(1);
        d.truncate_log();
        assert!(d.crash_tripped());
        assert!(d.log().is_committed(1));
    }

    #[test]
    fn crash_disarms_scheduler() {
        let mut d = dev();
        d.arm_crash_at_event(0);
        d.persist_line(0, PmAddr::new(0), &[1u8; 64]);
        assert!(d.crash_tripped());
        d.crash();
        assert!(!d.crash_tripped());
        d.persist_line(0, PmAddr::new(0), &[3u8; 64]);
        assert_eq!(d.image().read_u64(PmAddr::new(0)), 0x0303030303030303);
    }

    #[test]
    fn disarm_without_crash() {
        let mut d = dev();
        d.arm_crash_at_event(0);
        d.disarm_crash();
        d.persist_line(0, PmAddr::new(0), &[1u8; 64]);
        assert!(!d.crash_tripped());
        assert_eq!(d.event_count(), 1);
    }

    // -----------------------------------------------------------------
    // Media-fault injection

    #[test]
    fn torn_data_line_lands_word_prefix() {
        let mut d = dev();
        d.persist_line(0, PmAddr::new(0), &[1u8; 64]);
        d.set_fault_plan(FaultPlan {
            tear: true,
            tear_word: Some(3),
            ..FaultPlan::NONE
        });
        d.arm_crash_at_event(2);
        d.persist_line(0, PmAddr::new(0), &[9u8; 64]);
        assert!(d.crash_tripped(), "power failed during event 2");
        assert_eq!(d.event_count(), 2, "the torn event is still counted");
        // Words 0..3 carry the new value, words 3..8 the old one.
        for w in 0..8u64 {
            let got = d.image().read_u64(PmAddr::new(w * 8));
            let want = if w < 3 {
                0x0909090909090909
            } else {
                0x0101010101010101
            };
            assert_eq!(got, want, "word {w}");
        }
    }

    #[cfg(not(feature = "no-trace"))]
    #[test]
    fn torn_marker_is_uncommitted_but_traced() {
        let mut d = traced_dev(64);
        d.set_fault_plan(FaultPlan {
            tear: true,
            tear_word: Some(1),
            ..FaultPlan::NONE
        });
        d.arm_crash_at_event(1);
        d.persist_commit_marker(0, 5);
        assert!(d.crash_tripped());
        assert!(!d.log().is_committed(5));
        assert!(!d.log().marker_usable(5));
        assert_eq!(
            d.persist_history(),
            vec![PersistEvent::CommitMarker { txn: 5 }],
            "torn marker appears in the trace"
        );
    }

    #[test]
    fn torn_log_record_truncates_at_validate() {
        let mut d = dev();
        let entries = vec![LogFlushEntry {
            txn: 7,
            addr: PmAddr::new(0),
            payload: PayloadBuf::from_slice(&[3; 16]),
        }];
        d.set_fault_plan(FaultPlan {
            tear: true,
            ..FaultPlan::NONE
        });
        d.arm_crash_at_event(1);
        d.persist_log_pack(0, &entries);
        assert!(d.crash_tripped());
        assert_eq!(d.log().len(), 1);
        assert!(!d.log().records()[0].is_intact());
        let v = d.log_mut().validate();
        assert_eq!(v.torn_tail_truncated, 1);
        assert!(d.log().is_empty());
    }

    #[test]
    fn poison_and_flips_apply_once_at_crash_and_replay_identically() {
        let run = || {
            let mut d = dev();
            for i in 0..4u64 {
                d.persist_line(0, PmAddr::new(i * 64), &[i as u8 + 1; 64]);
            }
            d.persist_log_pack(
                0,
                &[LogFlushEntry {
                    txn: 1,
                    addr: PmAddr::new(0),
                    payload: PayloadBuf::from_slice(&[8; 8]),
                }],
            );
            d.set_fault_plan(FaultPlan {
                seed: 77,
                poison_lines: 2,
                flip_records: 1,
                ..FaultPlan::NONE
            });
            d.arm_crash_at_event(u64::MAX);
            d.crash();
            (
                d.fault_poisoned_lines().to_vec(),
                d.fault_flipped_lines().to_vec(),
                d.log().records()[0].payload.to_vec(),
            )
        };
        let (pa, fa, ra) = run();
        let (pb, fb, rb) = run();
        assert_eq!(pa, pb);
        assert_eq!(fa, fb);
        assert_eq!(ra, rb);
        assert!(!pa.is_empty(), "poison chose among touched lines");
        assert_eq!(fa, vec![0], "the only record covers line 0");
    }

    #[test]
    fn poisoned_line_detectable_and_cleared_by_full_persist() {
        let mut d = dev();
        d.persist_line(0, PmAddr::new(64), &[1u8; 64]);
        d.set_fault_plan(FaultPlan {
            seed: 1,
            poison_lines: 1,
            ..FaultPlan::NONE
        });
        d.arm_crash_at_event(u64::MAX);
        d.crash();
        let la = PmAddr::new(d.fault_poisoned_lines()[0]);
        assert!(d.line_poisoned(la));
        assert_eq!(d.poisoned_line_addrs(), d.fault_poisoned_lines());
        d.persist_line(0, la, &[7u8; 64]);
        assert!(!d.line_poisoned(la), "rewrite re-establishes ECC");
        // Ground truth is unaffected by the salvage.
        assert_eq!(d.fault_poisoned_lines(), &[la.raw()]);
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let run = |plan: Option<FaultPlan>| {
            let mut d = dev();
            if let Some(p) = plan {
                d.set_fault_plan(p);
            }
            let mut t = 0;
            for i in 0..6u64 {
                t = d.persist_line(t, PmAddr::new(i * 64), &[i as u8; 64]);
            }
            d.arm_crash_at_event(4);
            for i in 0..6u64 {
                t = d.persist_line(t, PmAddr::new(i * 64), &[9; 64]);
            }
            d.crash();
            (t, d.event_count(), d.image().read_line(PmAddr::new(0)))
        };
        assert_eq!(run(None), run(Some(FaultPlan::NONE)));
    }
}
