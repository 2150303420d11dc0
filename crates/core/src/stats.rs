//! Cycle and event accounting for the simulated machine.

use std::fmt;

/// Declares [`MachineStats`] from one list of `(doc, field)` counters:
/// the struct, [`MachineStats::counters`] (the `--json` key order) and
/// [`MachineStats::accumulate`] all expand from it, so adding a counter
/// is one line here.
macro_rules! machine_stats {
    ($($(#[doc = $doc:literal])+ $field:ident,)+) => {
        /// Counters accumulated by [`Machine`](crate::Machine) during a run.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MachineStats {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl MachineStats {
            /// Every counter as `(field name, value)`, in declaration
            /// order — the key order of the CLI's `--json` stats objects.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field),)+].into_iter()
            }

            /// Adds `other`'s counters into `self` (merging per-shard or
            /// per-worker runs; field-wise, order-independent).
            pub fn accumulate(&mut self, other: &MachineStats) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

machine_stats! {
    /// Load instructions executed.
    loads,
    /// Store-family instructions executed (plain and `storeT`).
    stores,
    /// Stores that executed with `storeT` semantics honoured.
    store_ts,
    /// Transactions begun.
    tx_begins,
    /// Transactions committed.
    tx_commits,
    /// Transactions aborted.
    tx_aborts,
    /// Suspended (switched-out) transactions aborted by conflicts.
    suspended_aborts,
    /// Open transactions of *other cores* aborted by a conflicting
    /// access (multi-core execution; requester wins, as in §V-C).
    cross_core_aborts,
    /// Cross-core abort repairs skipped because a victim's durable
    /// record failed validation (torn/corrupt) — the roll-back is left
    /// to post-crash recovery instead of replaying garbage.
    cross_core_repair_aborts,
    /// Undo/redo log records created (before coalescing).
    log_records_created,
    /// Log records discarded at commit because their line was lazy.
    log_records_discarded,
    /// Data lines persisted eagerly at commit.
    commit_line_persists,
    /// Lines whose persistence was deferred past commit (lazy).
    lazy_lines_deferred,
    /// Deferred lines later forced to persist by a conflict or ID
    /// recycling.
    lazy_lines_forced,
    /// Deferred lines that persisted as a side effect of cache overflow.
    lazy_lines_overflowed,
    /// Signature hits that triggered forced persistence.
    signature_hits,
    /// Cycles spent stalled at commit (log drain + data persists).
    commit_stall_cycles,
    /// Explicit `sfence` instructions executed (software PTM paths;
    /// hardware schemes order persists in the commit engine instead).
    fences,
    /// Explicit `clwb` flush instructions executed (software PTM
    /// paths).
    flushes,
    /// Cycles spent stalled in `sfence` waiting for the WPQ to drain.
    fence_stall_cycles,
    /// Cycles charged as pure compute by the workload.
    compute_cycles,
}

impl MachineStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// One-line summary for sweep logs, e.g.
    /// `ld 100 st 80 (storeT 20) tx 10/9/1 rec 30 (disc 4) persists 12
    /// lazy 3/1/0 sig 2 stall 4000` — the shared compact form the
    /// sweep runners print instead of hand-formatting counters.
    pub fn summary(&self) -> String {
        format!(
            "ld {} st {} (storeT {}) tx {}/{}/{} rec {} (disc {}) \
             persists {} lazy {}/{}/{} sig {} stall {}",
            self.loads,
            self.stores,
            self.store_ts,
            self.tx_begins,
            self.tx_commits,
            self.tx_aborts,
            self.log_records_created,
            self.log_records_discarded,
            self.commit_line_persists,
            self.lazy_lines_deferred,
            self.lazy_lines_forced,
            self.lazy_lines_overflowed,
            self.signature_hits,
            self.commit_stall_cycles
        )
    }
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "loads                  {:>12}", self.loads)?;
        writeln!(f, "stores                 {:>12}", self.stores)?;
        writeln!(f, "  storeT (honoured)    {:>12}", self.store_ts)?;
        writeln!(
            f,
            "tx begin/commit/abort  {:>6}/{:>6}/{:>6}",
            self.tx_begins, self.tx_commits, self.tx_aborts
        )?;
        writeln!(f, "suspended aborts       {:>12}", self.suspended_aborts)?;
        writeln!(f, "cross-core aborts      {:>12}", self.cross_core_aborts)?;
        writeln!(
            f,
            "cross-core repair skip {:>12}",
            self.cross_core_repair_aborts
        )?;
        writeln!(f, "log records created    {:>12}", self.log_records_created)?;
        writeln!(
            f,
            "log records discarded  {:>12}",
            self.log_records_discarded
        )?;
        writeln!(
            f,
            "commit line persists   {:>12}",
            self.commit_line_persists
        )?;
        writeln!(
            f,
            "lazy deferred/forced   {:>6}/{:>6}",
            self.lazy_lines_deferred, self.lazy_lines_forced
        )?;
        writeln!(
            f,
            "lazy overflowed        {:>12}",
            self.lazy_lines_overflowed
        )?;
        writeln!(f, "signature hits         {:>12}", self.signature_hits)?;
        writeln!(f, "commit stall cycles    {:>12}", self.commit_stall_cycles)?;
        writeln!(
            f,
            "fences/flushes         {:>6}/{:>6}",
            self.fences, self.flushes
        )?;
        write!(f, "fence stall cycles     {:>12}", self.fence_stall_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = MachineStats::new();
        assert_eq!(s.loads, 0);
        assert_eq!(s.tx_commits, 0);
    }

    #[test]
    fn counters_cover_every_field_in_json_order() {
        let mut s = MachineStats {
            loads: 1,
            compute_cycles: 2,
            ..MachineStats::new()
        };
        s.accumulate(&s.clone());
        let names: Vec<_> = s.counters().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 21);
        assert_eq!((names[0], names[20]), ("loads", "compute_cycles"));
        assert_eq!(s.counters().map(|(_, v)| v).sum::<u64>(), 6);
    }

    #[test]
    fn display_nonempty() {
        assert!(format!("{}", MachineStats::new()).contains("loads"));
    }
}
