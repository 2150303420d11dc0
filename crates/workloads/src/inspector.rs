//! Persistent-heap inspector — the analogue of PMDK's leaked-object
//! inspector the paper's recovery story relies on ("the recovery uses
//! a garbage collector or a persistent inspector from PMDK to reclaim
//! the leaked variable x", §IV-B).
//!
//! [`inspect`] diffs the allocator's live set against a reachable set
//! produced by the structure's root walk, classifying every leak —
//! exactly what a post-crash administrator (or the GC) wants to see
//! before reclaiming.

use crate::ctx::PmContext;
use slpmt_pmem::PmAddr;
use std::fmt;

/// One leaked allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leak {
    /// Start address.
    pub addr: PmAddr,
    /// Allocation size in bytes.
    pub bytes: u64,
}

/// The inspector's findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapReport {
    /// Allocations the heap considers live.
    pub live: usize,
    /// Of those, allocations reachable from the structure's roots.
    pub reachable: usize,
    /// Live but unreachable allocations (Pattern 1 leaks from
    /// interrupted transactions).
    pub leaks: Vec<Leak>,
    /// Reachable addresses that are *not* allocation starts (interior
    /// pointers — e.g. nodes living inside a resize block).
    pub interior_pointers: usize,
}

impl HeapReport {
    /// Total leaked bytes.
    pub fn leaked_bytes(&self) -> u64 {
        self.leaks.iter().map(|l| l.bytes).sum()
    }

    /// `true` when nothing leaked.
    pub fn is_clean(&self) -> bool {
        self.leaks.is_empty()
    }
}

impl fmt::Display for HeapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} live allocations, {} reachable, {} leaked ({} B), {} interior pointers",
            self.live,
            self.reachable,
            self.leaks.len(),
            self.leaked_bytes(),
            self.interior_pointers
        )
    }
}

/// Diffs the heap's live allocations against `reachable` (the
/// structure's root walk) in one linear merge-join
/// ([`PmHeap::classify`](slpmt_pmem::PmHeap::classify)). Does not
/// modify anything — pair with [`PmContext::gc`] to actually reclaim.
pub fn inspect(ctx: &PmContext, reachable: &[PmAddr]) -> HeapReport {
    let (mut live, mut reached_allocs, mut leaks) = (0, 0, Vec::new());
    let interior_pointers = ctx.heap().classify(reachable, |addr, bytes, reached| {
        live += 1;
        if reached {
            reached_allocs += 1;
        } else {
            leaks.push(Leak { addr, bytes });
        }
    });
    HeapReport {
        live,
        reachable: reached_allocs,
        leaks,
        interior_pointers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::IndexKind;
    use crate::{ycsb_load, AnnotationSource};
    use slpmt_annotate::AnnotationTable;
    use slpmt_core::Scheme;

    #[test]
    fn clean_structure_reports_no_leaks() {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let mut idx = IndexKind::KvCtree.build(&mut ctx, 32, AnnotationSource::Manual);
        for op in ycsb_load(30, 32, 1) {
            idx.insert(&mut ctx, op.key, &op.value);
        }
        let report = inspect(&ctx, &idx.reachable(&ctx));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.live, report.reachable);
    }

    #[test]
    fn manual_leak_is_found_and_sized() {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let mut idx = IndexKind::KvCtree.build(&mut ctx, 32, AnnotationSource::Manual);
        for op in ycsb_load(10, 32, 2) {
            idx.insert(&mut ctx, op.key, &op.value);
        }
        let stray = ctx.alloc(48);
        let report = inspect(&ctx, &idx.reachable(&ctx));
        assert_eq!(report.leaks.len(), 1);
        assert_eq!(report.leaks[0].addr, stray);
        assert_eq!(report.leaks[0].bytes, 48);
        assert_eq!(report.leaked_bytes(), 48);
        // GC reclaims exactly what the inspector found.
        let reclaimed = ctx.gc(&idx.reachable(&ctx));
        assert_eq!(reclaimed, 1);
        assert!(inspect(&ctx, &idx.reachable(&ctx)).is_clean());
    }

    #[test]
    fn interior_pointers_are_classified() {
        // Hashtable resize blocks hold nodes that are interior to one
        // big allocation: the root walk reports their addresses, the
        // inspector classifies them as interior pointers, not leaks.
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let mut idx = IndexKind::Hashtable.build(&mut ctx, 32, AnnotationSource::Manual);
        for op in ycsb_load(40, 32, 3) {
            idx.insert(&mut ctx, op.key, &op.value);
        }
        let report = inspect(&ctx, &idx.reachable(&ctx));
        assert!(report.interior_pointers > 0, "{report}");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn display_is_informative() {
        let ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let report = inspect(&ctx, &[]);
        assert!(format!("{report}").contains("0 live allocations"));
    }
}
