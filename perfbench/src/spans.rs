//! Host-time spans recorded around the benchmark's calls into each
//! layer.
//!
//! A span is `(name, start, end, parent, op)`. Spans are kept in
//! memory while the workload runs and written out once at the end. A
//! layer's self time is its span's duration minus the part its child
//! spans cover; the benchmark is single-threaded, so children of one
//! span never overlap and the subtraction is exact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `kv.dispatch`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation the span belongs to (insert, request or crash point).
    pub op: u64,
}

/// Total self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Number of spans with this name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call, µs (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// In-memory span recorder. A disabled recorder records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        self.spans[id as usize].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }

    /// Self time and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += (s.end - s.start).saturating_sub(children);
        }
        out
    }

    /// Every span as tab-separated text, one per line:
    /// `id name start_ns end_ns parent op` (`-` for no parent).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\top\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.enter("outer", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        s.exit();
        let t = s.self_times();
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 4_000_000);
        assert!(outer.self_ns >= 2_000_000 && outer.self_ns < inner.self_ns);
        assert_eq!(s.to_tsv().lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("x", 0, || 7), 7);
        assert!(s.is_empty());
    }
}
