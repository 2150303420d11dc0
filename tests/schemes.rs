//! Cross-crate integration: every evaluated scheme runs every
//! benchmark correctly, and the relative orderings the paper reports
//! hold on this simulator.

use slpmt::core::{MachineConfig, Scheme};
use slpmt::workloads::runner::{self, IndexKind, RunResult, RunSpec};
use slpmt::workloads::{ycsb_load, AnnotationSource, YcsbOp};

const ALL_KINDS: [IndexKind; 8] = IndexKind::ALL;

/// One insert run with `verify` on: it checks invariants and
/// membership of every inserted key.
fn verified(
    scheme: Scheme,
    kind: IndexKind,
    ops: &[YcsbOp],
    value: usize,
    src: AnnotationSource,
) -> RunResult {
    let mut spec = RunSpec::inserts(MachineConfig::for_scheme(scheme), kind, ops, value);
    spec.source = src;
    spec.verify = true;
    runner::run(&spec).single().result
}

fn run(scheme: Scheme, kind: IndexKind, src: AnnotationSource) -> RunResult {
    verified(scheme, kind, &ycsb_load(120, 64, 11), 64, src)
}

#[test]
fn every_scheme_runs_every_index_correctly() {
    for kind in ALL_KINDS {
        for scheme in Scheme::ALL {
            let r = run(scheme, kind, AnnotationSource::Manual);
            assert!(r.cycles > 0, "{kind}/{scheme} must consume time");
            assert!(
                r.traffic.media_bytes() > 0,
                "{kind}/{scheme} must persist data"
            );
        }
    }
}

#[test]
fn compiler_annotations_run_every_index_correctly() {
    for kind in ALL_KINDS {
        let r = run(Scheme::Slpmt, kind, AnnotationSource::Compiler);
        assert!(r.cycles > 0);
    }
}

#[test]
fn slpmt_is_never_slower_than_baseline() {
    for kind in ALL_KINDS {
        let base = run(Scheme::Fg, kind, AnnotationSource::Manual);
        let slpmt = run(Scheme::Slpmt, kind, AnnotationSource::Manual);
        assert!(
            slpmt.cycles <= base.cycles,
            "{kind}: SLPMT {} > FG {}",
            slpmt.cycles,
            base.cycles
        );
        assert!(
            slpmt.traffic.media_bytes() <= base.traffic.media_bytes(),
            "{kind}: selective logging must not add traffic"
        );
    }
}

#[test]
fn feature_breakdown_is_consistent() {
    // FG+LG and FG+LZ individually sit between FG and SLPMT in log
    // records created.
    for kind in [IndexKind::Hashtable, IndexKind::Rbtree] {
        let fg = run(Scheme::Fg, kind, AnnotationSource::Manual);
        let lg = run(Scheme::FgLg, kind, AnnotationSource::Manual);
        let slpmt = run(Scheme::Slpmt, kind, AnnotationSource::Manual);
        assert!(lg.stats.log_records_created < fg.stats.log_records_created);
        assert!(slpmt.stats.log_records_created <= lg.stats.log_records_created);
    }
}

#[test]
fn comparison_schemes_pay_more_traffic() {
    for kind in [IndexKind::Rbtree, IndexKind::Heap] {
        let fg = run(Scheme::Fg, kind, AnnotationSource::Manual);
        let atom = run(Scheme::Atom, kind, AnnotationSource::Manual);
        let ede = run(Scheme::Ede, kind, AnnotationSource::Manual);
        assert!(
            atom.traffic.media_bytes() > fg.traffic.media_bytes(),
            "{kind}: line-granularity logging costs more media traffic"
        );
        assert!(
            ede.traffic.log_bytes > fg.traffic.log_bytes,
            "{kind}: bufferless logging loses record coalescing"
        );
    }
}

#[test]
fn annotations_do_not_change_results() {
    // Same final contents under every annotation source — annotations
    // affect performance, never semantics.
    let ops = ycsb_load(100, 32, 5);
    for kind in ALL_KINDS {
        for src in [
            AnnotationSource::None,
            AnnotationSource::Manual,
            AnnotationSource::Compiler,
        ] {
            // A verified run already asserts membership of every
            // inserted key and structural invariants.
            let _ = verified(Scheme::Slpmt, kind, &ops, 32, src);
        }
    }
}

#[test]
fn determinism_same_seed_same_cycles() {
    let a = run(Scheme::Slpmt, IndexKind::KvBtree, AnnotationSource::Manual);
    let b = run(Scheme::Slpmt, IndexKind::KvBtree, AnnotationSource::Manual);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.traffic, b.traffic);
}
