//! `kv-serve`: memcached-text YCSB-B requests against one `KvStore`.
//!
//! One store (kv-btree index, SLPMT, one shard) is loaded with a key
//! set whose footprint is several times the modelled 2 MiB L3, then
//! serves a seeded YCSB-B stream (95% get / 5% set, zipfian) from four
//! pipelined client sessions. Arrivals are open loop at one fixed
//! simulated rate, about 70% of the design's saturated rate on that key
//! set, and each request's simulated latency is timed from its **due**
//! time, so a stall also charges the requests queued behind it.
//!
//! Every request goes through the service's public path:
//! `Session::feed` → `admission::admit` → `service::take_request` →
//! `service::dispatch` → `Session::take_responses`. Reads dominate and
//! often miss L3, so PM fetches rather than commit set latency: this is
//! the reads-beside-writes contrast to `paper-load`.

use crate::layers::{Layers, Phase, Probe, TraceFold};
use crate::spans::Spans;
use crate::stats::percentile_u64;
use crate::{
    derive_seed, overhead_pct, report_speedup, slo_rate, HostOps, Outcome, Params, Setup, Trial,
    Versus, FG, SLPMT,
};
use slpmt_core::{MachineConfig, SchemeKind};
use slpmt_kv::admission::{admit, Admission, AdmissionConfig, AdmissionStats};
use slpmt_kv::codec::reply;
use slpmt_kv::service::{
    digest64, dispatch, encode_request, run_serve_serial, take_request, ServeConfig, TokenModel,
};
use slpmt_kv::{Codec, KvStore, Session};
use slpmt_workloads::ycsb::YcsbOp;
use slpmt_workloads::{open_loop_arrivals, session_of, ycsb_mix, IndexKind, KvRequest, MixSpec};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Keys loaded before serving (about 5× the modelled L3 with values,
/// cells and B-tree nodes).
pub const LOAD_KEYS: usize = 48_000;
/// Value payload, bytes.
pub const VALUE: usize = 128;
/// Requests per pass over the generated stream. Each pass replays the
/// stream on a fresh seeded arrival schedule that continues where the
/// last one ended.
pub const PASS_REQUESTS: usize = 60_000;
/// Passes whose simulated results are reported; they always run, so
/// simulated metrics repeat exactly for a seed. Later passes run until
/// the host-time budget is spent.
pub const SIM_PASSES: u64 = 3;
/// Requests per open-loop trial of the rate search.
pub const TRIAL_REQUESTS: usize = 16_000;
/// Distinct stream slices the rate search's trials cycle through, so a
/// trial does not replay requests a recent trial already warmed the
/// caches with.
const TRIAL_SLICES: usize = 12;
/// Client sessions (round-robin, fully pipelined).
pub const SESSIONS: usize = 4;
/// Mean inter-arrival gap of the timed run, simulated cycles. A request
/// takes about 1,100 busy cycles on this key set, so the worker is
/// about 70% busy.
pub const MEAN_GAP: u64 = 1_600;
/// Latency limit on the p99, simulated cycles (10 µs at 2 GHz).
pub const LATENCY_LIMIT: u64 = 20_000;
const TRACE_CAPACITY: usize = 1 << 20;
const DRAIN_EVERY: usize = 64;

/// The generated inputs of one run.
struct Inputs {
    load: Vec<YcsbOp>,
    reqs: Vec<KvRequest>,
    /// Wire bytes of every request, back to back.
    wire: Vec<u8>,
    /// `wire[offs[i]..offs[i + 1]]` is request `i`.
    offs: Vec<usize>,
}

impl Inputs {
    fn new(load: usize, requests: usize, seed: u64) -> Inputs {
        let (load, mixed) = ycsb_mix(load, requests, VALUE, seed, &MixSpec::YCSB_B);
        let reqs: Vec<KvRequest> = mixed.iter().map(KvRequest::from_mixed).collect();
        let mut model = TokenModel::default();
        for op in &load {
            model.on_load(op);
        }
        let mut wire = Vec::new();
        let mut offs = vec![0];
        for r in &reqs {
            encode_request(r, &mut model, true, &mut wire);
            offs.push(wire.len());
        }
        Inputs {
            load,
            reqs,
            wire,
            offs,
        }
    }

    fn wire(&self, i: usize) -> &[u8] {
        &self.wire[self.offs[i]..self.offs[i + 1]]
    }
}

/// The client's model of the store: what every reply must say.
struct Model {
    values: HashMap<u64, Vec<u8>>,
}

impl Model {
    fn new(load: &[YcsbOp]) -> Model {
        Model {
            values: load.iter().map(|o| (o.key, o.value.clone())).collect(),
        }
    }

    /// The reply `req` must get, applying its effect to the model.
    fn expect(&mut self, req: &KvRequest) -> Vec<u8> {
        let mut e = Vec::new();
        match req {
            KvRequest::Get { key } => {
                if let Some(v) = self.values.get(key) {
                    Codec::write_value(&mut e, *key, v, None);
                }
                Codec::write_line(&mut e, reply::END);
            }
            KvRequest::Set { key, value } => {
                self.values.insert(*key, value.clone());
                Codec::write_line(&mut e, reply::STORED);
            }
            KvRequest::Delete { key } => {
                let line = if self.values.remove(key).is_some() {
                    reply::DELETED
                } else {
                    reply::NOT_FOUND
                };
                Codec::write_line(&mut e, line);
            }
            // YCSB-B issues neither; an unmodelled reply never matches.
            KvRequest::Gets { .. } | KvRequest::Cas { .. } | KvRequest::Scan { .. } => {}
        }
        e
    }
}

/// A loaded store with its client model.
struct Loaded {
    store: KvStore,
    model: Model,
}

/// Builds a store, prefaults it, runs the load phase and probes
/// orderedness the way the service's own serve loop does.
fn load(scheme: SchemeKind, inp: &Inputs, spans: &mut Spans) -> Loaded {
    let mut store = spans.time("workloads.build", 0, || {
        let mut s =
            KvStore::with_config(MachineConfig::for_kind(scheme), IndexKind::KvBtree, VALUE);
        // Updates are 5% of requests; only they allocate.
        s.prefault(inp.load.len() + inp.reqs.len() / 16);
        s
    });
    for (i, op) in inp.load.iter().enumerate() {
        spans.time("workloads.insert", i as u64, || {
            store.set(op.key, &op.value)
        });
    }
    let ordered = store.scan(0, 0).is_some();
    assert!(ordered, "kv-btree serves range scans");
    Loaded {
        store,
        model: Model::new(&inp.load),
    }
}

/// What one pass over (part of) the stream produced.
#[derive(Default)]
struct Pass {
    /// Simulated busy cycles (idle pacing excluded).
    busy: u64,
    /// Simulated latency per request: from due time (open loop) or
    /// from pick-up (closed loop).
    lat: Vec<u64>,
    /// Lateness of the worker at the last request.
    final_lateness: u64,
    /// Largest lateness seen.
    max_lateness: u64,
    phase: Phase,
    admission: AdmissionStats,
    response_bytes: u64,
    /// Per-session response streams (closed-loop digest check only).
    responses: Vec<Vec<u8>>,
    /// Simulated clock after the pass.
    end: u64,
}

/// How a pass is driven and observed.
struct Drive<'a> {
    /// The requests to serve, as indices into the inputs.
    reqs: Range<usize>,
    /// Open-loop arrival offsets (from `base`) of those requests, or
    /// closed loop.
    arrivals: Option<&'a [u64]>,
    base: u64,
    spans: &'a mut Spans,
    host: Option<&'a mut HostOps>,
    fold: Option<&'a mut TraceFold>,
    keep_responses: bool,
}

/// Serves one pass, checking every reply against the model.
fn serve(l: &mut Loaded, inp: &Inputs, d: Drive<'_>, out: &mut Outcome) -> Pass {
    let Drive {
        reqs,
        arrivals,
        base,
        spans,
        mut host,
        mut fold,
        keep_responses,
    } = d;
    let codec = Codec::new(VALUE);
    let cfg = AdmissionConfig::default();
    let mut sess: Vec<Session> = (0..SESSIONS as u32).map(Session::new).collect();
    let mut pass = Pass {
        lat: Vec::with_capacity(reqs.len()),
        responses: vec![Vec::new(); if keep_responses { SESSIONS } else { 0 }],
        ..Pass::default()
    };
    let store = &mut l.store;
    let probe = Probe::of(store.context());
    let first = reqs.start;
    for i in reqs {
        let s = session_of(i - first, SESSIONS) as usize;
        let due = arrivals.map(|a| base + a[i - first]);
        if let Some(due) = due {
            let now = store.now();
            if now < due {
                store.compute(due - now);
            }
        }
        let start = store.now();
        let lateness = due.map_or(0, |due| start - due);
        pass.final_lateness = lateness;
        pass.max_lateness = pass.max_lateness.max(lateness);
        let t0 = Instant::now();
        spans.enter("kv.request", i as u64);
        let decision = spans.time("kv.admit", i as u64, || admit(store, &cfg));
        pass.admission.record(decision);
        let sess = &mut sess[s];
        let parsed = spans.time("kv.parse", i as u64, || {
            sess.feed(inp.wire(i));
            take_request(sess, &codec, i as u64)
        });
        match (decision, parsed) {
            (Admission::Admit { .. }, Ok(Ok(req))) => {
                spans.time("kv.dispatch", i as u64, || {
                    dispatch(store, &req, &mut sess.wbuf)
                });
            }
            (Admission::Admit { .. }, Ok(Err(line))) => Codec::write_line(&mut sess.wbuf, &line),
            (Admission::Admit { .. }, Err(_)) => {
                Codec::write_line(&mut sess.wbuf, reply::SERVER_ERROR_TRUNCATED);
            }
            (Admission::Shed { .. }, _) => {
                Codec::write_line(&mut sess.wbuf, reply::SERVER_ERROR_BUSY)
            }
        }
        let bytes = spans.time("kv.respond", i as u64, || sess.take_responses());
        spans.exit();
        let host_ns = t0.elapsed().as_nanos() as f64;
        if let Some(h) = host.as_deref_mut() {
            h.push(host_ns);
        }
        let end = store.now();
        pass.busy += end - start;
        pass.lat.push(end - due.unwrap_or(start));
        pass.response_bytes += bytes.len() as u64;
        let expected = spans.time("bench.check", i as u64, || l.model.expect(&inp.reqs[i]));
        if bytes != expected {
            out.fail(
                1,
                format!(
                    "kv-serve request {i} ({}): reply {:?}, model expects {:?}",
                    inp.reqs[i].verb(),
                    String::from_utf8_lossy(&bytes[..bytes.len().min(48)]),
                    String::from_utf8_lossy(&expected[..expected.len().min(48)])
                ),
            );
        }
        if keep_responses {
            pass.responses[s].extend_from_slice(&bytes);
        }
        if let Some(f) = fold.as_deref_mut() {
            if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
                f.absorb(store.context_mut().take_trace());
            }
        }
        out.attempted += 1;
    }
    if let Some(f) = fold {
        f.absorb(store.context_mut().take_trace());
    }
    pass.phase = probe.phase(store.context());
    pass.end = store.now();
    pass
}

fn arrivals(seed: u64, n: usize, gap: u64, salt: u64) -> Vec<u64> {
    open_loop_arrivals(n, gap, derive_seed(seed, salt))
}

/// Closed-loop replay of the first `n` requests on a freshly loaded
/// store: (busy cycles, PM media bytes).
fn closed_loop(l: &mut Loaded, inp: &Inputs, n: usize, out: &mut Outcome) -> (u64, u64) {
    let mut spans = Spans::new(false);
    let d = Drive {
        reqs: 0..n,
        arrivals: None,
        base: 0,
        spans: &mut spans,
        host: None,
        fold: None,
        keep_responses: false,
    };
    let pass = serve(l, inp, d, out);
    (pass.busy, pass.phase.media_bytes())
}

/// Runs this benchmark's serve loop, closed loop, on a small stream and
/// requires the response digest and simulated cycles of the service's
/// own `run_serve_serial`.
fn digest_check(seed: u64, out: &mut Outcome) {
    let mut cfg = ServeConfig::new(SLPMT, IndexKind::KvBtree, MixSpec::YCSB_B);
    cfg.load = 2_000;
    cfg.requests = 5_000;
    cfg.value_size = VALUE;
    cfg.seed = seed;
    cfg.sessions = SESSIONS;
    let reference = &run_serve_serial(&cfg)[0];
    let inp = Inputs::new(cfg.load, cfg.requests, seed);
    let mut spans = Spans::new(false);
    let mut l = load(SLPMT, &inp, &mut spans);
    let mut check = Outcome::default();
    let d = Drive {
        reqs: 0..inp.reqs.len(),
        arrivals: None,
        base: 0,
        spans: &mut spans,
        host: None,
        fold: None,
        keep_responses: true,
    };
    let pass = serve(&mut l, &inp, d, &mut check);
    let digest = digest64(&pass.responses.concat());
    let requests = check.attempted;
    if digest != reference.response_digest || pass.busy != reference.sim_cycles {
        check.fail(
            requests,
            format!(
                "kv-serve closed-loop variant: digest {digest:#x} / {} cycles, \
                 run_serve_serial {:#x} / {} cycles",
                pass.busy, reference.response_digest, reference.sim_cycles
            ),
        );
    }
    out.absorb(check);
    out.notes.push(format!(
        "closed-loop digest check: {requests} requests, digest {digest:#x}"
    ));
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let (load_keys, pass_reqs, trial_n) = (LOAD_KEYS, PASS_REQUESTS, TRIAL_REQUESTS);
    let total = pass_reqs + TRIAL_SLICES * trial_n;
    let fresh = |spans: &mut Spans| {
        let inp = Inputs::new(load_keys, total, p.seed);
        let l = load(SLPMT, &inp, spans);
        (inp, l)
    };
    let mut setup = Setup::default();
    let mut setup_spans = Spans::new(p.trace);
    let (inp, mut timed) = setup.time(|| fresh(&mut setup_spans));
    let (_, mut second) = setup.time(|| fresh(&mut setup_spans));
    if p.wrong_expectation {
        // Corrupt the model's value of the first key the stream reads.
        let key = inp.reqs.iter().find_map(|r| match r {
            KvRequest::Get { key } => Some(*key),
            _ => None,
        });
        if let Some(v) = key.and_then(|k| timed.model.values.get_mut(&k)) {
            v[0] ^= 1;
        }
    }

    // SLPMT over FG on the same stream, closed loop, from freshly
    // loaded stores.
    let mut fg = load(FG, &inp, &mut Spans::new(false));
    let (fg_busy, fg_media) = closed_loop(&mut fg, &inp, pass_reqs, &mut out);
    drop(fg);
    if p.trace {
        let mut fresh = load(SLPMT, &inp, &mut Spans::new(false));
        let (_, sl_media) = closed_loop(&mut fresh, &inp, pass_reqs, &mut out);
        drop(fresh);
        let mut versus = Versus::default();
        versus.add(FG, fg_busy, fg_media);
        versus.add(SLPMT, 0, sl_media);
        let reduction_pct = Versus::reduction_pct(&[versus]);
        // The first timed pass's schedule.
        let arr = arrivals(p.seed, pass_reqs, MEAN_GAP, 0xA11);
        traced(
            &inp,
            &arr,
            &mut timed,
            &mut second,
            setup_spans,
            reduction_pct,
            &mut out,
        );
        return out;
    }
    drop(setup_spans);
    let (sl_busy, sl_media) = closed_loop(&mut second, &inp, pass_reqs, &mut out);
    let mut versus = Versus::default();
    versus.add(FG, fg_busy, fg_media);
    versus.add(SLPMT, sl_busy, sl_media);
    let speedup = Versus::speedup(&[versus]);
    let reduction_pct = Versus::reduction_pct(&[versus]);
    out.fingerprint("closed_busy_slpmt", sl_busy);
    out.fingerprint("closed_busy_fg", fg_busy);

    digest_check(derive_seed(p.seed, 0xD16), &mut out);

    // Rate search, on its own store so the timed store's history stays
    // the same for every run of a seed.
    let service = sl_busy as f64 / pass_reqs as f64;
    let mut base = second.store.now();
    let mut trials = 0u64;
    let rate = slo_rate(LATENCY_LIMIT, service, |gap| {
        let start = pass_reqs + (trials as usize % TRIAL_SLICES) * trial_n;
        trials += 1;
        let a = arrivals(p.seed, trial_n, gap, 0x7E1A1 + trials);
        let mut spans = Spans::new(false);
        let mut check = Outcome::default();
        let d = Drive {
            reqs: start..start + trial_n,
            arrivals: Some(&a),
            base,
            spans: &mut spans,
            host: None,
            fold: None,
            keep_responses: false,
        };
        let pass = serve(&mut second, &inp, d, &mut check);
        base = pass.end;
        out.absorb(check);
        Trial {
            p99: percentile_u64(&mut pass.lat.clone(), 99.0),
            shed: pass.admission.shed,
            final_lateness: pass.final_lateness,
        }
    });
    drop(second);
    out.fingerprint("slo_rate", rate as u64);

    // The timed run.
    let mut host = HostOps::default();
    let mut spans = Spans::new(false);
    let t0 = Instant::now();
    let mut base = timed.store.now();
    let mut sim = Pass::default();
    let mut passes = 0;
    let mut late = 0u64;
    while passes < SIM_PASSES || t0.elapsed() < p.budget() {
        let arr = arrivals(p.seed, pass_reqs, MEAN_GAP, 0xA11 + passes);
        let d = Drive {
            reqs: 0..pass_reqs,
            arrivals: Some(&arr),
            base,
            spans: &mut spans,
            host: Some(&mut host),
            fold: None,
            keep_responses: false,
        };
        let pass = serve(&mut timed, &inp, d, &mut out);
        base = base + arr[pass_reqs - 1] + MEAN_GAP;
        host.end_batch();
        passes += 1;
        // One set-up repetition per pass, so the set-up median has about
        // as many samples as the host metrics have batches.
        drop(setup.time(|| fresh(&mut Spans::new(false))));
        late = late.max(pass.max_lateness);
        if passes <= SIM_PASSES {
            sim.busy += pass.busy;
            sim.lat.extend(pass.lat);
            sim.phase.traffic += pass.phase.traffic;
            sim.admission.queued += pass.admission.queued;
            sim.admission.shed += pass.admission.shed;
        }
    }
    let shed = sim.admission.shed;
    host.report(&mut out, "requests");
    out.notes.push(format!(
        "measured {passes} passes of {pass_reqs} requests in {:.2} s; open loop at mean gap \
         {MEAN_GAP} cycles ({:.0} req/s simulated), worker at most {late} cycles late; \
         simulated metrics from the first {SIM_PASSES} passes: {} queued, {shed} shed",
        t0.elapsed().as_secs_f64(),
        crate::reference::CLOCK_HZ / MEAN_GAP as f64,
        sim.admission.queued
    ));
    let n = sim.lat.len() as f64;
    let mut lat = sim.lat;
    out.fingerprint("busy", sim.busy);
    out.fingerprint("media", sim.phase.media_bytes());
    setup.report(&mut out, host.slowdown());
    out.metric("sim_cycles_per_op", "cycles", sim.busy as f64 / n);
    out.metric(
        "sim_p50_cycles",
        "cycles",
        percentile_u64(&mut lat, 50.0) as f64,
    );
    out.metric(
        "sim_p99_cycles",
        "cycles",
        percentile_u64(&mut lat, 99.0) as f64,
    );
    out.metric("pm_bytes_per_op", "B", sim.phase.media_bytes() as f64 / n);
    out.metric("sim_slo_rate_rps", "op/s", rate);
    report_speedup(&mut out, speedup);
    out.notes.push(format!(
        "simulated: SLPMT {speedup:.3}x over FG closed loop, traffic reduction {reduction_pct:.1}%"
    ));
    out
}

/// The traced run: the same open-loop pass, untraced on one store and
/// traced on an identical one; per-layer metrics come from the traced
/// pass.
fn traced(
    inp: &Inputs,
    arr: &[u64],
    plain: &mut Loaded,
    traced: &mut Loaded,
    mut spans: Spans,
    reduction_pct: f64,
    out: &mut Outcome,
) {
    let n = arr.len();
    let mut plain_host = HostOps::default();
    let mut off = Spans::new(false);
    let d = Drive {
        reqs: 0..n,
        arrivals: Some(arr),
        base: plain.store.now(),
        spans: &mut off,
        host: Some(&mut plain_host),
        fold: None,
        keep_responses: false,
    };
    let a = serve(plain, inp, d, out);
    let handle = traced.store.enable_tracing(TRACE_CAPACITY);
    let mut fold = TraceFold::default();
    let mut host = HostOps::default();
    let d = Drive {
        reqs: 0..n,
        arrivals: Some(arr),
        base: traced.store.now(),
        spans: &mut spans,
        host: Some(&mut host),
        fold: Some(&mut fold),
        keep_responses: false,
    };
    let b = serve(traced, inp, d, out);
    if a.busy != b.busy || a.phase.cycles != b.phase.cycles {
        out.fail(
            0,
            format!(
                "kv-serve: tracing changed the simulation ({} vs {} busy cycles)",
                b.busy, a.busy
            ),
        );
    }
    let mut layers = Layers::default();
    layers.add_phase(&b.phase);
    layers.add_trace(&fold, handle.borrow().dropped());
    layers.admission = b.admission;
    layers.response_bytes = b.response_bytes;
    let overhead = overhead_pct(&plain_host, &host);
    layers.report(out, &spans.self_times(), reduction_pct, overhead);
    out.spans_tsv = spans.to_tsv();
}
