//! The deterministic in-process serve loop.
//!
//! One [`run_shard_service`] call is one single-threaded worker bound
//! to one shard: it owns a [`KvStore`], a set of client
//! [`Session`]s, and the admission gate. Seeded client generators
//! encode the shard's request stream into the sessions' receive
//! buffers (fully pipelined); the worker drains them in arrival
//! order, taking every request through admission → parse → dispatch →
//! response-encode. Every latency is a difference of simulated-cycle
//! clocks, so a serve run is byte-identical for a
//! `(seed, mix, shards)` triple no matter how many host threads the
//! caller fans the shards across.
//!
//! CAS tokens are derivable from durable state
//! ([`fingerprint`] of the current value),
//! and the trace is deterministic — so the closed-loop generator
//! *knows* each key's current token at encode time and emits `cas`
//! commands that carry it, the way a real client would after a `gets`.
//! Stale-token and miss paths are exercised separately by the protocol
//! battery.

use crate::admission::{admit, Admission, AdmissionConfig, AdmissionStats};
use crate::codec::{reply, Codec, Request};
use crate::session::Session;
use crate::store::{fingerprint, CasOutcome, KvStore};
use slpmt_core::{MachineConfig, SchemeKind, TraceHandle};
use slpmt_pmem::PmConfig;
use slpmt_prng::splitmix64;
use slpmt_trace::{Event, RequestVerb};
use slpmt_workloads::ycsb::YcsbOp;
use slpmt_workloads::{
    open_loop_arrivals, session_of, shard_of, ycsb_mix, IndexKind, KvRequest, MixSpec,
};
use std::collections::BTreeMap;

/// Latency classes, indexed by the serve loop's `sample_class` (matches
/// `KvRequest::verb` labels).
pub const VERB_CLASSES: [&str; 6] = ["get", "gets", "set", "cas", "delete", "scan"];

/// A typed service-level failure the serve loop surfaces instead of
/// panicking, so one broken client degrades to an error response
/// rather than aborting the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// A session's receive stream ended mid-request (the client was
    /// cut off, or the generator under-fed the session): there are
    /// buffered bytes or an expected request, but no complete request
    /// to parse.
    TruncatedStream {
        /// The session whose stream truncated.
        session: u32,
        /// Request index (within the shard's stream) that could not be
        /// pulled.
        at: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::TruncatedStream { session, at } => {
                write!(
                    f,
                    "session {session} stream truncated mid-request at request {at}"
                )
            }
        }
    }
}

/// Pulls the next complete request off a session, converting an
/// incomplete stream into a typed [`ServiceError`] instead of a
/// panic.
pub fn take_request(
    sess: &mut Session,
    codec: &Codec,
    at: u64,
) -> Result<Result<Request, String>, ServiceError> {
    let session = sess.id();
    sess.next_request(codec)
        .ok_or(ServiceError::TruncatedStream { session, at })
}

/// Service-health counters the `stats` verb exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests admitted after a non-zero queueing wait.
    pub queued: u64,
    /// `true` inside the post-crash degraded window.
    pub recovering: bool,
    /// Lines scrubbed since the last degraded recovery.
    pub scrubbed: u64,
    /// Flagged lines still waiting for the background scrub.
    pub scrub_pending: u64,
}

impl HealthSnapshot {
    /// Store-level health alone (no admission counters) — what
    /// [`dispatch`] answers when the serve loop does not overlay its
    /// own shed/queued totals.
    pub fn of_store(store: &KvStore) -> Self {
        HealthSnapshot {
            shed: 0,
            queued: 0,
            recovering: !store.ready(),
            scrubbed: store.scrubbed(),
            scrub_pending: store.scrub_pending() as u64,
        }
    }
}

/// Writes the `stats` response: one `STAT` line per counter, then
/// `END`.
pub fn write_stats(out: &mut Vec<u8>, h: &HealthSnapshot) {
    Codec::write_stat(out, "shed", h.shed);
    Codec::write_stat(out, "queued", h.queued);
    Codec::write_stat(out, "recovering", u64::from(h.recovering));
    Codec::write_stat(out, "scrubbed", h.scrubbed);
    Codec::write_stat(out, "scrub_pending", h.scrub_pending);
    Codec::write_line(out, reply::END);
}

/// One serve run's configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated logging scheme.
    pub scheme: SchemeKind,
    /// Index backend behind the facade.
    pub kind: IndexKind,
    /// YCSB mix shaping the request stream.
    pub mix: MixSpec,
    /// Load-phase inserts (applied before measurement).
    pub load: usize,
    /// Measured requests.
    pub requests: usize,
    /// Value payload size.
    pub value_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Keyspace shards (one worker per shard).
    pub shards: usize,
    /// Client sessions per shard (round-robin request assignment).
    pub sessions: usize,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// `true` for open-loop arrivals; `false` for closed loop.
    pub open_loop: bool,
    /// Mean inter-arrival gap for the open loop (cycles; 0 = all at
    /// once).
    pub mean_gap: u64,
    /// WPQ drain-jitter window (0 = deterministic drain).
    pub drain_jitter: u64,
    /// Device-timing override (forced-stall setups); `None` uses the
    /// scheme default.
    pub pm: Option<PmConfig>,
    /// Per-core trace-ring capacity; 0 disables request-span tracing.
    pub trace_capacity: usize,
}

impl ServeConfig {
    /// Baseline configuration for a `(scheme, kind, mix)` triple: 500
    /// loaded keys, 1000 requests of 32-byte values, seed 42, one
    /// shard, four sessions, closed loop, default admission.
    pub fn new(scheme: impl Into<SchemeKind>, kind: IndexKind, mix: MixSpec) -> Self {
        ServeConfig {
            scheme: scheme.into(),
            kind,
            mix,
            load: 500,
            requests: 1000,
            value_size: 32,
            seed: 42,
            shards: 1,
            sessions: 4,
            admission: AdmissionConfig::default(),
            open_loop: false,
            mean_gap: 0,
            drain_jitter: 0,
            pm: None,
            trace_capacity: 0,
        }
    }
}

/// What one shard worker produced.
#[derive(Debug, Clone)]
pub struct ShardServeReport {
    /// Shard index.
    pub shard: usize,
    /// Requests in this shard's stream.
    pub requests: u64,
    /// Requests that were dispatched (admitted and executed).
    pub served: u64,
    /// Admission statistics (immediate / queued / shed).
    pub admission: AdmissionStats,
    /// Service-phase simulated cycles (excludes the load phase).
    pub sim_cycles: u64,
    /// Per-verb-class latency samples (admitted requests only),
    /// indexed like [`VERB_CLASSES`].
    pub samples: Vec<Vec<u64>>,
    /// The full response byte stream, sessions concatenated in id
    /// order.
    pub responses: Vec<u8>,
    /// splitmix64 digest of `responses` (the byte-identity check).
    pub response_digest: u64,
    /// Device WPQ stall cycles over the whole run.
    pub wpq_stall_cycles: u64,
    /// Requests refused because the session stream truncated
    /// mid-request (each answered `SERVER_ERROR truncated request`).
    pub truncated: u64,
    /// Trace records captured when `trace_capacity > 0`.
    pub trace: Vec<slpmt_core::TraceRecord>,
}

/// Deterministic digest of a byte stream (splitmix64 fold).
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut state = 0xD19E_57D1_9E57_D19E ^ (bytes.len() as u64);
    let mut acc = splitmix64(&mut state);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        state ^= u64::from_le_bytes(w);
        acc ^= splitmix64(&mut state);
    }
    acc
}

/// Splits the load phase and the request stream across shards by
/// hashed key ownership; scans split per shard exactly like the
/// sharded mixed driver splits them (each shard walks its own keys).
pub fn shard_streams(cfg: &ServeConfig) -> (Vec<Vec<YcsbOp>>, Vec<Vec<KvRequest>>) {
    let shards = cfg.shards.max(1);
    let (loads, mixed) = ycsb_mix(cfg.load, cfg.requests, cfg.value_size, cfg.seed, &cfg.mix);
    let mut loads_by = vec![Vec::new(); shards];
    for op in loads {
        loads_by[shard_of(op.key, shards)].push(op);
    }
    let reqs: Vec<KvRequest> = mixed.iter().map(KvRequest::from_mixed).collect();
    (loads_by, shard_requests(&reqs, shards))
}

/// Partitions a request stream by key ownership. Scans are split into
/// the per-shard subsets of their expected keys (empty subsets are
/// dropped), mirroring `partition_mixed`.
pub fn shard_requests(reqs: &[KvRequest], shards: usize) -> Vec<Vec<KvRequest>> {
    let shards = shards.max(1);
    let mut by = vec![Vec::new(); shards];
    for req in reqs {
        match req {
            KvRequest::Scan { keys } => {
                let mut per: Vec<Vec<u64>> = vec![Vec::new(); shards];
                for &k in keys {
                    per[shard_of(k, shards)].push(k);
                }
                for (s, keys) in per.into_iter().enumerate() {
                    if !keys.is_empty() {
                        by[s].push(KvRequest::Scan { keys });
                    }
                }
            }
            other => by[shard_of(other.key(), shards)].push(other.clone()),
        }
    }
    by
}

/// Encode-time client model: tracks each key's current CAS token so
/// `cas` commands carry the token a real client would hold after its
/// `gets`.
#[derive(Debug, Default, Clone)]
pub struct TokenModel {
    tokens: BTreeMap<u64, u64>,
}

impl TokenModel {
    /// Folds one request's effect into the model and returns the
    /// token a `cas` must carry (`None` for other verbs).
    fn on_request(&mut self, req: &KvRequest) -> Option<u64> {
        match req {
            KvRequest::Set { key, value } => {
                self.tokens.insert(*key, fingerprint(value));
                None
            }
            KvRequest::Cas { key, value } => {
                let held = self.tokens.get(key).copied().unwrap_or(0);
                self.tokens.insert(*key, fingerprint(value));
                Some(held)
            }
            KvRequest::Delete { key } => {
                self.tokens.remove(key);
                None
            }
            _ => None,
        }
    }

    /// Seeds the model from a load-phase insert.
    pub fn on_load(&mut self, op: &YcsbOp) {
        self.tokens.insert(op.key, fingerprint(&op.value));
    }
}

/// Encodes one abstract request into wire bytes, updating the token
/// model. `ordered` selects whether scans use the `scan` verb or
/// degrade to a multi-key `get` (unordered backends).
pub fn encode_request(req: &KvRequest, model: &mut TokenModel, ordered: bool, out: &mut Vec<u8>) {
    let token = model.on_request(req);
    match req {
        KvRequest::Get { key } => Codec::encode_get(out, &[*key], false),
        KvRequest::Gets { key } => Codec::encode_get(out, &[*key], true),
        KvRequest::Set { key, value } => Codec::encode_set(out, *key, value),
        KvRequest::Cas { key, value } => Codec::encode_cas(out, *key, token.unwrap_or(0), value),
        KvRequest::Delete { key } => Codec::encode_delete(out, *key),
        KvRequest::Scan { keys } => {
            if ordered {
                Codec::encode_scan(out, keys[0], *keys.last().unwrap());
            } else {
                Codec::encode_get(out, keys, false);
            }
        }
    }
}

fn trace_verb(req: &Request) -> RequestVerb {
    match req {
        Request::Get {
            with_cas: false, ..
        } => RequestVerb::Get,
        Request::Get { with_cas: true, .. } => RequestVerb::Gets,
        Request::Set { .. } => RequestVerb::Set,
        Request::Cas { .. } => RequestVerb::Cas,
        Request::Delete { .. } => RequestVerb::Delete,
        Request::Scan { .. } => RequestVerb::Scan,
        Request::Stats => RequestVerb::Stats,
    }
}

/// Span tracing of one store: the machine's trace handle while tracing
/// is on, so each emit site is one call.
pub(crate) struct Spans(Option<TraceHandle>);

impl Spans {
    /// Turns tracing on with `capacity` records per core; off at 0 or
    /// when the build compiles tracing out.
    pub(crate) fn new(store: &mut KvStore, capacity: usize) -> Spans {
        let handle = (capacity > 0).then(|| store.enable_tracing(capacity));
        Spans(handle.filter(|_| store.machine().trace_enabled()))
    }

    /// Records `event` at the store's current cycle, if tracing is on.
    pub(crate) fn emit(&self, store: &KvStore, event: Event) {
        if let Some(h) = &self.0 {
            h.borrow_mut().emit_at(store.now(), event);
        }
    }
}

fn sample_class(req: &Request) -> usize {
    match req {
        Request::Get {
            with_cas: false, ..
        } => 0,
        Request::Get { with_cas: true, .. } => 1,
        Request::Set { .. } => 2,
        Request::Cas { .. } => 3,
        Request::Delete { .. } => 4,
        Request::Scan { .. } => 5,
        // Health queries are untimed metadata; bill them as reads.
        Request::Stats => 0,
    }
}

/// Dispatches one parsed request against the store, appending the
/// response to `out`. This is the single execution path shared by the
/// serve loop, the protocol battery and the service-boundary crash
/// sweeps.
pub fn dispatch(store: &mut KvStore, req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Get { keys, with_cas } => {
            for &k in keys {
                if let Some(v) = store.get(k) {
                    let cas = with_cas.then(|| fingerprint(&v));
                    Codec::write_value(out, k, &v, cas);
                }
            }
            Codec::write_line(out, reply::END);
        }
        Request::Set { key, value } => {
            store.set(*key, value);
            Codec::write_line(out, reply::STORED);
        }
        Request::Cas { key, token, value } => {
            let line = match store.cas(*key, *token, value) {
                CasOutcome::Stored => reply::STORED,
                CasOutcome::Exists => reply::EXISTS,
                CasOutcome::NotFound => reply::NOT_FOUND,
            };
            Codec::write_line(out, line);
        }
        Request::Delete { key } => {
            let line = if store.delete(*key) {
                reply::DELETED
            } else {
                reply::NOT_FOUND
            };
            Codec::write_line(out, line);
        }
        Request::Scan { lo, hi } => match store.scan(*lo, *hi) {
            Some(pairs) => {
                for (k, v) in pairs {
                    Codec::write_value(out, k, &v, None);
                }
                Codec::write_line(out, reply::END);
            }
            None => Codec::write_line(out, "SERVER_ERROR scan unsupported"),
        },
        Request::Stats => write_stats(out, &HealthSnapshot::of_store(store)),
    }
}

/// Per-shard deterministic seed derivation (jitter, arrivals).
fn shard_seed(seed: u64, shard: usize, salt: u64) -> u64 {
    let mut state = seed ^ salt ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// Runs one shard's worker over its partitioned load phase and
/// request stream. Pure simulation: safe to fan shards across host
/// threads, results are identical to the serial run.
pub fn run_shard_service(
    cfg: &ServeConfig,
    shard: usize,
    loads: &[YcsbOp],
    reqs: &[KvRequest],
) -> ShardServeReport {
    let machine_cfg = match &cfg.pm {
        Some(pm) => MachineConfig::for_kind(cfg.scheme).with_pm(pm.clone()),
        None => MachineConfig::for_kind(cfg.scheme),
    };
    let mut store = KvStore::with_config(machine_cfg, cfg.kind, cfg.value_size);
    store.prefault(loads.len() + reqs.len());
    if cfg.drain_jitter > 0 {
        let jseed = shard_seed(cfg.seed, shard, 0x4A17_7E12);
        store
            .machine_mut()
            .set_wpq_drain_jitter(cfg.drain_jitter, jseed);
    }
    let spans = Spans::new(&mut store, cfg.trace_capacity);

    // Load phase (pre-measurement) + client token model seeding.
    let mut model = TokenModel::default();
    for op in loads {
        store.set(op.key, &op.value);
        model.on_load(op);
    }
    // Probe backend orderedness once, before measurement starts: it
    // decides whether scans go out as `scan` or degrade to multi-get.
    let ordered = store.scan(0, 0).is_some();

    // Encode the whole stream into the sessions' receive buffers
    // (fully pipelined ingestion).
    let codec = Codec::new(cfg.value_size);
    let sessions = cfg.sessions.max(1);
    let mut sess: Vec<Session> = (0..sessions as u32).map(Session::new).collect();
    let mut wire = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        wire.clear();
        encode_request(req, &mut model, ordered, &mut wire);
        sess[session_of(i, sessions) as usize].feed(&wire);
    }

    let arrivals = cfg.open_loop.then(|| {
        open_loop_arrivals(
            reqs.len(),
            cfg.mean_gap,
            shard_seed(cfg.seed, shard, 0x0A11_7EA1),
        )
    });

    let start = store.now();
    let mut stats = AdmissionStats::default();
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); VERB_CLASSES.len()];
    let mut served = 0u64;
    let mut truncated = 0u64;
    for i in 0..reqs.len() {
        let s = session_of(i, sessions) as usize;
        // Pacing: open-loop requests arrive on the schedule; the
        // worker idles forward if it is ahead of the next arrival.
        if let Some(arr) = &arrivals {
            let at = start + arr[i];
            let now = store.now();
            if now < at {
                store.compute(at - now);
            }
        }
        let arrival = store.now();
        let decision = admit(&mut store, &cfg.admission);
        stats.record(decision);
        let sid = sess[s].id();
        match decision {
            Admission::Shed { queued } => {
                // The request is consumed (and discarded) so the
                // session stream stays in sync, then refused.
                let _ = sess[s].next_request(&codec);
                Codec::write_line(&mut sess[s].wbuf, reply::SERVER_ERROR_BUSY);
                spans.emit(
                    &store,
                    Event::RequestEnd {
                        session: sid,
                        req: i as u64,
                        queued,
                        shed: true,
                    },
                );
            }
            Admission::Admit { queued } => {
                let parsed = match take_request(&mut sess[s], &codec, i as u64) {
                    Ok(parsed) => parsed,
                    Err(ServiceError::TruncatedStream { .. }) => {
                        // A cut-off client is that client's problem,
                        // not the worker's: refuse the request and
                        // keep serving every other session.
                        truncated += 1;
                        Codec::write_line(&mut sess[s].wbuf, reply::SERVER_ERROR_TRUNCATED);
                        continue;
                    }
                };
                match parsed {
                    Ok(req) => {
                        spans.emit(
                            &store,
                            Event::RequestBegin {
                                session: sid,
                                req: i as u64,
                                verb: trace_verb(&req),
                            },
                        );
                        let mut out = std::mem::take(&mut sess[s].wbuf);
                        dispatch(&mut store, &req, &mut out);
                        sess[s].wbuf = out;
                        served += 1;
                        samples[sample_class(&req)].push(store.now() - arrival);
                        spans.emit(
                            &store,
                            Event::RequestEnd {
                                session: sid,
                                req: i as u64,
                                queued,
                                shed: false,
                            },
                        );
                    }
                    Err(line) => Codec::write_line(&mut sess[s].wbuf, &line),
                }
            }
        }
    }
    let sim_cycles = store.now() - start;

    let mut responses = Vec::new();
    for s in &mut sess {
        responses.extend_from_slice(&s.take_responses());
    }
    let response_digest = digest64(&responses);
    let wpq_stall_cycles = store.machine().device().wpq_stall_cycles();
    let trace = store.context_mut().take_trace();
    ShardServeReport {
        shard,
        requests: reqs.len() as u64,
        served,
        admission: stats,
        sim_cycles,
        samples,
        responses,
        response_digest,
        wpq_stall_cycles,
        truncated,
        trace,
    }
}

/// Runs every shard serially (the reference execution the parallel
/// fan-out in `slpmt-bench` must reproduce byte-for-byte).
pub fn run_serve_serial(cfg: &ServeConfig) -> Vec<ShardServeReport> {
    let (loads, reqs) = shard_streams(cfg);
    (0..cfg.shards.max(1))
        .map(|s| run_shard_service(cfg, s, &loads[s], &reqs[s]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::Scheme;

    fn base() -> ServeConfig {
        let mut cfg = ServeConfig::new(Scheme::Slpmt, IndexKind::KvBtree, MixSpec::YCSB_A);
        cfg.load = 60;
        cfg.requests = 200;
        cfg.value_size = 16;
        cfg.seed = 7;
        cfg
    }

    #[test]
    fn serve_is_deterministic() {
        let cfg = base();
        let a = run_serve_serial(&cfg);
        let b = run_serve_serial(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.responses, y.responses);
            assert_eq!(x.response_digest, y.response_digest);
            assert_eq!(x.sim_cycles, y.sim_cycles);
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn every_request_serves_under_default_admission() {
        let cfg = base();
        let reports = run_serve_serial(&cfg);
        let r = &reports[0];
        assert_eq!(r.served, r.requests);
        assert_eq!(r.admission.shed, 0);
        assert_eq!(
            r.samples.iter().map(|s| s.len() as u64).sum::<u64>(),
            r.served
        );
        assert!(r.sim_cycles > 0);
        assert!(!r.responses.is_empty());
    }

    #[test]
    fn sharded_streams_cover_the_request_stream() {
        let mut cfg = base();
        cfg.shards = 4;
        let (loads, reqs) = shard_streams(&cfg);
        assert_eq!(loads.iter().map(Vec::len).sum::<usize>(), cfg.load);
        // Scans may split (adding entries) but nothing may be lost.
        assert!(reqs.iter().map(Vec::len).sum::<usize>() >= cfg.requests);
        for (s, part) in reqs.iter().enumerate() {
            for req in part {
                match req {
                    KvRequest::Scan { keys } => {
                        assert!(keys.iter().all(|&k| shard_of(k, 4) == s))
                    }
                    other => assert_eq!(shard_of(other.key(), 4), s),
                }
            }
        }
    }

    #[test]
    fn cas_requests_always_store_in_trace_order() {
        // YCSB-F is RMW-heavy; with encode-time tokens every cas must
        // hit STORED (the stream is serial per shard).
        let mut cfg = base();
        cfg.mix = MixSpec::YCSB_F;
        cfg.requests = 150;
        let reports = run_serve_serial(&cfg);
        let text = String::from_utf8_lossy(&reports[0].responses).into_owned();
        assert!(text.contains("STORED"));
        assert!(!text.contains("EXISTS"), "stale token in serial stream");
        assert!(!text.contains("SERVER_ERROR"));
    }

    #[test]
    fn unordered_backend_degrades_scans_to_multiget() {
        let mut cfg = base();
        cfg.kind = IndexKind::Hashtable;
        cfg.mix = MixSpec::YCSB_E; // scan-heavy
        cfg.requests = 100;
        let reports = run_serve_serial(&cfg);
        let text = String::from_utf8_lossy(&reports[0].responses).into_owned();
        assert!(!text.contains("scan unsupported"), "degrade at encode time");
    }

    #[test]
    fn open_loop_pacing_stretches_the_run() {
        let closed = run_serve_serial(&base());
        let mut cfg = base();
        cfg.open_loop = true;
        cfg.mean_gap = 5_000;
        let open = run_serve_serial(&cfg);
        assert!(open[0].sim_cycles > closed[0].sim_cycles);
        // Pacing changes timing, not outcomes: same response bytes.
        assert_eq!(open[0].responses, closed[0].responses);
    }

    #[test]
    fn truncated_stream_degrades_to_typed_error() {
        let codec = Codec::new(32);
        let mut s = Session::new(7);
        // Cut mid-data-block: header promises 5 bytes, stream stops
        // after 3.
        s.feed(b"set 1 0 0 5\r\nhel");
        match take_request(&mut s, &codec, 3) {
            Err(ServiceError::TruncatedStream { session: 7, at: 3 }) => {}
            other => panic!("expected typed truncation error, got {other:?}"),
        }
        // The worker's degrade path writes the refusal and keeps the
        // session alive; once the missing bytes arrive the stream
        // parses normally again.
        Codec::write_line(&mut s.wbuf, reply::SERVER_ERROR_TRUNCATED);
        s.feed(b"lo\r\nget 1\r\n");
        assert!(matches!(
            take_request(&mut s, &codec, 4),
            Ok(Ok(Request::Set { key: 1, .. }))
        ));
        assert!(matches!(
            take_request(&mut s, &codec, 5),
            Ok(Ok(Request::Get { .. }))
        ));
        let text = String::from_utf8(s.take_responses()).unwrap();
        assert!(text.contains("SERVER_ERROR truncated request"));
    }

    #[test]
    fn stats_dispatch_reports_store_health() {
        let mut store = KvStore::open(Scheme::Slpmt, IndexKind::KvBtree, 16);
        let mut out = Vec::new();
        dispatch(&mut store, &Request::Stats, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("STAT recovering 0\r\n"));
        assert!(text.contains("STAT scrubbed 0\r\n"));
        assert!(text.ends_with("END\r\n"));
    }

    #[test]
    fn request_spans_are_traced() {
        let mut cfg = base();
        cfg.requests = 50;
        cfg.trace_capacity = 1 << 14;
        let reports = run_serve_serial(&cfg);
        let r = &reports[0];
        if !r.trace.is_empty() {
            let begins = r
                .trace
                .iter()
                .filter(|t| matches!(t.event, Event::RequestBegin { .. }))
                .count();
            let ends = r
                .trace
                .iter()
                .filter(|t| matches!(t.event, Event::RequestEnd { .. }))
                .count();
            assert_eq!(begins as u64, r.served);
            assert_eq!(ends as u64, r.requests);
        }
    }
}
