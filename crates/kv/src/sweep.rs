//! Crash and media-fault battery driven *through the service
//! boundary* — the service-level [`CrashTarget`].
//!
//! The engine-level sweep (`slpmt_workloads::crashsweep`) proves
//! committed-prefix durability for a mixed trace applied directly to a
//! [`DurableIndex`](slpmt_workloads::DurableIndex). This module proves
//! the same property one layer up: every operation travels the full
//! service path — abstract request → wire encoding → codec parse →
//! dispatch → facade transaction — before the crash lands, and
//! recovery goes through the facade's crash-to-ready sequence
//! ([`KvStore::replay`] then [`KvStore::rebuild`]). The oracle is still
//! the engine's [`StreamingOracle`] (the request stream maps 1:1 onto a
//! mixed trace), but value checks decode the facade's length-prefixed
//! cells instead of comparing raw index payloads.
//!
//! Under a media [`FaultPlan`] the engine's degradation rules apply
//! verbatim: log replay never panics; every anomaly is attributed to
//! an injected fault ([`attribute_faults`]); a loss-free recovery must
//! satisfy the strict oracle. [`ServiceTarget`] hands the battery to
//! the generic sweep driver (`slpmt_bench::sweep`).

use crate::codec::{Codec, Parse};
use crate::service::{dispatch, encode_request, TokenModel};
use crate::store::KvStore;
use slpmt_core::sweep::{attribute_faults, committed_prefix, guarded, panic_message};
use slpmt_core::{CrashTarget, SchemeKind, TraceRecord};
use slpmt_pmem::FaultPlan;
use slpmt_workloads::crashsweep::StreamingOracle;
use slpmt_workloads::ycsb::MixedOp;
use slpmt_workloads::{inspect, service_trace, IndexKind, KvRequest, MixSpec};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One service-boundary sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSweepCase {
    /// Simulated logging scheme.
    pub scheme: SchemeKind,
    /// Index backend behind the facade.
    pub kind: IndexKind,
    /// Trace seed.
    pub seed: u64,
    /// Load-phase inserts.
    pub load: usize,
    /// Mixed requests after the load phase.
    pub requests: usize,
    /// Value payload size.
    pub value_size: usize,
    /// Request mix.
    pub mix: MixSpec,
}

impl KvSweepCase {
    /// A baseline case: 30 loaded keys + `requests` YCSB-A requests of
    /// 16-byte values.
    pub fn new(scheme: impl Into<SchemeKind>, kind: IndexKind, seed: u64, requests: usize) -> Self {
        KvSweepCase {
            scheme: scheme.into(),
            kind,
            seed,
            load: 30,
            requests,
            value_size: 16,
            mix: MixSpec::YCSB_A,
        }
    }

    /// Same case with a different mix.
    pub fn with_mix(mut self, mix: MixSpec) -> Self {
        self.mix = mix;
        self
    }
}

impl fmt::Display for KvSweepCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kv-serve {} {} {} seed={} load={} reqs={} val={}",
            self.scheme, self.kind, self.mix, self.seed, self.load, self.requests, self.value_size
        )
    }
}

/// The case's deterministic service trace: mixed ops (the oracle's
/// input) and the mapped request stream, index-aligned.
pub fn service_ops(case: &KvSweepCase) -> (Vec<MixedOp>, Vec<KvRequest>) {
    service_trace(
        case.load,
        case.requests,
        case.value_size,
        case.seed,
        &case.mix,
    )
}

fn build_store(case: &KvSweepCase) -> KvStore {
    let mut store = KvStore::open(case.scheme, case.kind, case.value_size);
    store.prefault(case.load + case.requests);
    store
}

/// Replays one request through the full service path: wire-encode
/// (updating the client token model), codec-parse, dispatch.
fn apply_wire(
    store: &mut KvStore,
    codec: &Codec,
    model: &mut TokenModel,
    ordered: bool,
    req: &KvRequest,
    wire: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    wire.clear();
    encode_request(req, model, ordered, wire);
    let mut pos = 0;
    while pos < wire.len() {
        let (n, parse) = codec.parse(&wire[pos..]);
        pos += n;
        match parse {
            Parse::Req(r) => dispatch(store, &r, out),
            other => panic!("generated wire must parse cleanly, got {other:?}"),
        }
    }
}

/// Decoded-state check: the recovered store must agree with the
/// oracle's committed prefix, comparing *decoded payloads* (the facade
/// stores length-prefixed cells the raw engine oracle cannot compare
/// directly).
pub fn check_store(store: &KvStore, oracle: &StreamingOracle<'_>) -> Result<(), String> {
    if store.len() != oracle.len() {
        return Err(format!(
            "{} keys recovered through the facade, oracle has {}",
            store.len(),
            oracle.len()
        ));
    }
    for (k, v) in oracle.iter() {
        match store.peek_value(k) {
            Some(got) if got == v => {}
            got => {
                return Err(format!(
                    "key {k} decoded as {:?} B, oracle says {} B",
                    got.map(|g| g.len()),
                    v.len()
                ))
            }
        }
    }
    Ok(())
}

/// Replays the request stream through the service path, with the
/// `arm`ed plan and a crash at its persist event `k`.
/// Returns the store and each executed request's last transaction
/// sequence number.
fn serve(
    case: &KvSweepCase,
    reqs: &[KvRequest],
    arm: Option<(&FaultPlan, u64)>,
    tracing: bool,
) -> (KvStore, Vec<u64>) {
    let mut store = build_store(case);
    if tracing {
        store.enable_tracing(1 << 20);
    }
    let ordered = store.scan(0, 0).is_some();
    if let Some((plan, k)) = arm {
        store.machine_mut().set_fault_plan(*plan);
        store.machine_mut().arm_crash_at_event(k);
    }
    let codec = Codec::new(case.value_size);
    let mut model = TokenModel::default();
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    let mut op_seq = Vec::with_capacity(reqs.len());
    for req in reqs {
        apply_wire(
            &mut store, &codec, &mut model, ordered, req, &mut wire, &mut out,
        );
        op_seq.push(store.txn_seq());
        if store.machine().crash_tripped() {
            break;
        }
    }
    (store, op_seq)
}

/// Runs the case's request stream crash-free through the service
/// path, checks the decoded end state against the oracle, and returns
/// the persist-event count — the sweep domain is `0..=N`.
///
/// # Panics
///
/// Panics if the crash-free run already disagrees with the oracle.
pub fn count_service_events(case: &KvSweepCase) -> u64 {
    let (ops, reqs) = service_ops(case);
    let (store, _) = serve(case, &reqs, None, false);
    let mut oracle = StreamingOracle::new(&ops);
    oracle.advance_to(ops.len());
    if let Err(e) = check_store(&store, &oracle) {
        panic!("{case}: crash-free service run disagrees with the oracle: {e}");
    }
    store.machine().persist_event_count()
}

/// Crashes the service at persist event `k` with `plan` armed,
/// recovers through the facade, and checks the degradation rules and
/// committed-prefix durability with decoded values. The caller-owned
/// oracle (over [`service_ops`]) advances monotonically, so an
/// ascending sweep pays O(trace) model work total.
///
/// # Errors
///
/// Describes the violation when log replay panics, an anomaly has no
/// injected cause, or a loss-free recovery breaks the committed-prefix
/// contract, an invariant, or heap-leak accounting.
pub fn run_at(
    case: &KvSweepCase,
    plan: &FaultPlan,
    oracle: &mut StreamingOracle<'_>,
    k: u64,
) -> Result<(), String> {
    let (_ops, reqs) = service_ops(case);
    let (mut store, op_seq) = serve(case, &reqs, Some((plan, k)), false);
    store.crash();
    let marker = store.durable_commit_seq();
    let b = committed_prefix(&op_seq, marker);
    oracle.advance_to(b);
    // Log replay must never panic, whatever the media did.
    let report = catch_unwind(AssertUnwindSafe(|| store.replay()))
        .map_err(|p| format!("log replay panicked: {}", panic_message(&*p)))?;
    attribute_faults(Some(plan), &report, store.machine().device())?;
    if !report.lost_lines.is_empty() {
        // Degraded and detected: the loss was reported honestly and
        // attributed; the facade surfaces the report to the
        // application, and structure recovery over a lossy image is
        // out of contract (same stop as the engine-level battery).
        return Ok(());
    }
    store.rebuild();
    store
        .check_invariants()
        .map_err(|e| format!("invariant violated after service recovery: {e}"))?;
    let reachable = store.reachable();
    if !inspect(store.context(), &reachable).is_clean() {
        return Err("allocations still leaked after facade GC".into());
    }
    check_store(&store, oracle).map_err(|e| format!("{e} (b={b}, marker seq {marker})"))
}

/// The service battery as a [`CrashTarget`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceTarget;

impl CrashTarget for ServiceTarget {
    type Case = KvSweepCase;
    type Outcome = ();
    const LABEL: &'static str = "service";

    fn count(&self, case: &KvSweepCase) -> u64 {
        count_service_events(case)
    }

    fn seed(&self, case: &KvSweepCase, _plan: &FaultPlan) -> u64 {
        case.seed ^ 0x5E7E_CE00
    }

    fn check(&self, case: &KvSweepCase, plan: &FaultPlan, ks: &[u64]) -> Vec<Result<(), String>> {
        let (ops, _) = service_ops(case);
        let mut oracle = StreamingOracle::new(&ops);
        ks.iter()
            .map(|&k| guarded(|| run_at(case, plan, &mut oracle, k)))
            .collect()
    }

    fn trace(&self, case: &KvSweepCase, plan: &FaultPlan, k: u64) -> Vec<TraceRecord> {
        let (_ops, reqs) = service_ops(case);
        let (mut store, _) = serve(case, &reqs, Some((plan, k)), true);
        store.crash();
        let _ = catch_unwind(AssertUnwindSafe(|| store.replay()));
        store.context_mut().take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::sweep::sample_points;
    use slpmt_core::Scheme;
    use slpmt_workloads::crashsweep::default_plans;

    #[test]
    fn crash_free_service_run_matches_oracle() {
        let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 11, 60);
        let n = count_service_events(&case);
        assert!(n > 0);
    }

    #[test]
    fn sampled_service_crash_points_recover() {
        let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 5, 50);
        let n = count_service_events(&case);
        let seed = ServiceTarget.seed(&case, &FaultPlan::NONE);
        let ks = sample_points(seed, n, 8);
        for v in ServiceTarget.check(&case, &FaultPlan::NONE, &ks) {
            v.unwrap();
        }
    }

    #[test]
    fn fault_battery_smoke() {
        let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 9, 40);
        let n = count_service_events(&case);
        let plan = default_plans(1234)[0];
        let ks = [n / 3, 2 * n / 3];
        for (k, v) in ks.iter().zip(ServiceTarget.check(&case, &plan, &ks)) {
            if let Err(e) = v {
                panic!("{case} plan[0] @k={k}: {e}");
            }
        }
    }

    #[test]
    fn traced_point_captures_events() {
        let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 9, 20);
        let n = count_service_events(&case);
        let a = ServiceTarget.trace(&case, &FaultPlan::NONE, n / 2);
        assert!(!a.is_empty());
        assert_eq!(a, ServiceTarget.trace(&case, &FaultPlan::NONE, n / 2));
    }
}
