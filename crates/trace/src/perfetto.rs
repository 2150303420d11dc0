//! Chrome/Perfetto trace-event JSON export.
//!
//! Produces the [Trace Event Format] consumed by `ui.perfetto.dev` and
//! `chrome://tracing`: one *process* for the cores (one thread track
//! per core) and one for the shared device (one thread track per
//! component — WPQ, log buffer, persistent medium, signatures,
//! recovery, service). Commit persist-ordering stages render as duration slices
//! on the issuing core's track; WPQ depth and tier occupancy render as
//! counter tracks; everything else is a thread-scoped instant event.
//!
//! The export is **byte-deterministic**: records are walked in the
//! tracer's deterministic merge order and all timestamps are simulated
//! cycles (written as microseconds, which Perfetto only uses for
//! scaling).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{Component, Event};
use crate::json::{JsonWriter, ToJson};
use crate::json_obj;
use crate::tracer::TraceRecord;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Process id of the per-core tracks.
const PID_CORES: u64 = 1;
/// Process id of the device-component tracks.
const PID_DEVICE: u64 = 2;

/// The `(pid, tid)` track of a `c` event issued by `core`: the core's
/// own track, or the component's device track (numbered from 1 in
/// [`Component`] declaration order).
fn track(c: Component, core: u8) -> (u64, u64) {
    match c {
        Component::Core => (PID_CORES, u64::from(core) + 1),
        c => (PID_DEVICE, c as u64),
    }
}

/// Exports `records` (in the tracer's merged order) as Chrome
/// trace-event JSON loadable by Perfetto.
pub fn export_chrome_trace(records: &[TraceRecord]) -> String {
    json_obj! {
        "displayTimeUnit": "ns",
        "traceEvents": TraceEvents(records),
    }
    .to_json()
}

/// The `traceEvents` array: track-naming metadata, then one object per
/// record, written as they are built.
struct TraceEvents<'a>(&'a [TraceRecord]);

impl ToJson for TraceEvents<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_arr();
        let cores: BTreeSet<u8> = self.0.iter().map(|r| r.core).collect();
        let tracks = [
            ("process_name", PID_CORES, None, "cores".to_string()),
            ("process_name", PID_DEVICE, None, "device".to_string()),
        ]
        .into_iter()
        .chain(cores.into_iter().map(|core| {
            let (pid, tid) = track(Component::Core, core);
            ("thread_name", pid, Some(tid), format!("core {core}"))
        }))
        .chain(
            Component::ALL
                .iter()
                .filter(|&&c| c != Component::Core)
                .map(|&c| {
                    let (pid, tid) = track(c, 0);
                    ("thread_name", pid, Some(tid), c.label().to_string())
                }),
        );
        for (name, pid, tid, label) in tracks {
            json_obj! {
                "name": name,
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": json_obj! { "name": label },
            }
            .write_json(w);
        }

        // Per-core commit-span state: the cycle the current stage started.
        let mut stage_start: BTreeMap<u8, u64> = BTreeMap::new();
        for rec in self.0 {
            let (pid, tid) = track(rec.event.component(), rec.core);
            let args =
                || json_obj! { "devent": rec.devent, "seq": rec.seq }.splice(rec.event.fields());
            // A commit stage is a complete slice from the previous stage.
            let (mut ts, mut dur) = (rec.now, None);
            let (name, ph, args) = match &rec.event {
                Event::CommitBegin { .. } => {
                    stage_start.insert(rec.core, rec.now);
                    ("commit".to_string(), "B", args())
                }
                Event::CommitStageDone { stage, .. } => {
                    ts = stage_start.insert(rec.core, rec.now).unwrap_or(rec.now);
                    dur = Some(rec.now.saturating_sub(ts));
                    (format!("commit:{}", stage.label()), "X", args())
                }
                Event::CommitEnd { .. } => {
                    stage_start.remove(&rec.core);
                    ("commit".to_string(), "E", args())
                }
                Event::WpqEnqueue { depth, .. } => {
                    ("wpq_depth".to_string(), "C", json_obj! { "depth": depth })
                }
                Event::TierOccupancy { .. } => {
                    (rec.event.name().to_string(), "C", rec.event.fields())
                }
                Event::RequestBegin { verb, .. } => (format!("req:{}", verb.label()), "B", args()),
                // Shed requests never opened a span; render them as
                // instants so B/E stay balanced.
                Event::RequestEnd { shed: true, .. } => ("req:shed".to_string(), "i", args()),
                Event::RequestEnd { .. } => ("req".to_string(), "E", args()),
                _ => (rec.event.name().to_string(), "i", args()),
            };
            json_obj! {
                "name": name,
                "ph": ph,
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "dur": dur,
                "s": (ph == "i").then_some("t"),
                "args": args,
            }
            .write_json(w);
        }
        w.end_arr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommitStage;
    use crate::tracer::Tracer;

    fn sample() -> Vec<TraceRecord> {
        let mut t = Tracer::new(64);
        t.set_clock(10);
        t.emit(Event::CommitBegin { txn: 1 });
        t.set_clock(20);
        t.emit(Event::CommitStageDone {
            txn: 1,
            stage: CommitStage::Records,
        });
        t.set_clock(25);
        t.emit(Event::WpqEnqueue { depth: 3, stall: 0 });
        t.set_clock(30);
        t.emit(Event::CommitStageDone {
            txn: 1,
            stage: CommitStage::Marker,
        });
        t.emit(Event::CommitEnd { txn: 1 });
        t.records()
    }

    #[test]
    fn export_is_deterministic_and_structured() {
        let recs = sample();
        let a = export_chrome_trace(&recs);
        let b = export_chrome_trace(&recs);
        assert_eq!(a, b, "byte-identical on re-export");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"traceEvents\":["));
        assert!(a.contains("\"commit:records\""));
        assert!(a.contains("\"ph\":\"B\"") && a.contains("\"ph\":\"E\""));
        assert!(a.contains("\"wpq_depth\""));
    }

    #[test]
    fn stage_spans_cover_the_gap() {
        let a = export_chrome_trace(&sample());
        // records stage: started at commit begin (10), done at 20.
        assert!(a.contains("\"name\":\"commit:records\",\"ph\":\"X\",\"ts\":10"));
        assert!(a.contains("\"dur\":10"));
        // marker stage: 20 → 30.
        assert!(a.contains("\"name\":\"commit:marker\",\"ph\":\"X\",\"ts\":20"));
    }

    /// One record of every event variant, issued from two cores: a
    /// commit's B/X/E span, both counter tracks, and a served and a
    /// shed request.
    fn every_event() -> Vec<TraceRecord> {
        use crate::event::{PersistKind, RecoveryStage, RequestVerb};
        let events = vec![
            Event::StoreIssue {
                addr: 4104,
                log: true,
                lazy: false,
                honoured: true,
            },
            Event::LogBit {
                addr: 4096,
                word: 1,
                lazy: true,
            },
            Event::LogBitConj {
                addr: 4096,
                l1_bits: 0b0000_0110,
                l2_bits: 0b01,
            },
            Event::TierAppend {
                tier: 0,
                addr: 4104,
                len: 8,
            },
            Event::TierCoalesce {
                tier: 1,
                addr: 4096,
                len: 16,
            },
            Event::TierDrain {
                tier: 1,
                addr: 4096,
                len: 16,
                overflow: true,
            },
            Event::TierOccupancy { lens: [3, 0, 1, 8] },
            Event::LogPack {
                records: 2,
                bytes: 40,
            },
            Event::CacheEvict {
                level: 2,
                addr: 8192,
                dirty: true,
                logged: false,
            },
            Event::CacheFetch {
                level: 4,
                addr: 8192,
                replicated: true,
            },
            Event::WpqEnqueue { depth: 5, stall: 7 },
            Event::WpqDrainComplete { at: 900 },
            Event::Persist {
                kind: PersistKind::Record,
                addr: 4096,
                len: 16,
                txn: 3,
                torn: false,
            },
            Event::CommitBegin { txn: 3 },
            Event::CommitStageDone {
                txn: 3,
                stage: CommitStage::Records,
            },
            Event::CommitStageDone {
                txn: 3,
                stage: CommitStage::Marker,
            },
            Event::CommitEnd { txn: 3 },
            Event::Abort { txn: 4 },
            Event::TxnIdAlloc { txn: 5, id: 2 },
            Event::TxnIdRetire { txn: 5, id: 2 },
            Event::SigInsert {
                txn: 5,
                id: 2,
                lines: vec![4096, 8192, 12288],
            },
            Event::SigHit { addr: 8192, id: 2 },
            Event::SigForcedPersist { id: 2, lines: 3 },
            Event::CrossConflict {
                addr: 4104,
                holder: 0,
            },
            Event::CrossAbort { victim: 0, txn: 6 },
            Event::CrossRepair {
                victim: 0,
                records: 4,
                deferred: true,
            },
            Event::Recovery {
                stage: RecoveryStage::Replay,
                n: 12,
            },
            Event::RequestBegin {
                session: 2,
                req: 17,
                verb: RequestVerb::Gets,
            },
            Event::RequestEnd {
                session: 2,
                req: 17,
                queued: 30,
                shed: false,
            },
            Event::RequestEnd {
                session: 3,
                req: 18,
                queued: 0,
                shed: true,
            },
            Event::ChaosCrashArm { k: 41 },
            Event::ServiceRestart {
                sessions: 4,
                acked: 99,
            },
            Event::DegradedBegin { poisoned: 2 },
            Event::DegradedEnd { scrubbed: 2 },
        ];
        let mut t = Tracer::new(64);
        for (i, event) in (0u64..).zip(events) {
            let other_core = matches!(
                event,
                Event::CacheFetch { .. }
                    | Event::CrossConflict { .. }
                    | Event::CrossAbort { .. }
                    | Event::CrossRepair { .. }
            );
            t.set_core(u8::from(other_core));
            t.set_devent(i / 3);
            t.set_clock(10 * i);
            t.emit(event);
        }
        t.records()
    }

    #[test]
    fn every_event_exports_as_pinned() {
        let got = export_chrome_trace(&every_event()).replace("},{", "},\n{");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/every_event.json");
        if std::env::var_os("SLPMT_BLESS").is_some() {
            std::fs::write(path, &got).expect("bless the pinned export");
        }
        let want = std::fs::read_to_string(path).expect("the pinned export");
        for (line, (w, g)) in (1..).zip(want.split('\n').zip(got.split('\n'))) {
            assert_eq!(w, g, "{path}, line {line}");
        }
        assert_eq!(want, got, "{path}: line counts differ");
    }

    #[test]
    fn empty_trace_still_valid() {
        let a = export_chrome_trace(&[]);
        assert!(a.contains("\"traceEvents\":["));
        assert!(a.ends_with("]}"));
    }
}
