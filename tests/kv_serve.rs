//! Determinism battery for the KV serve front end (issue 8
//! satellite): the same `(seed, mix, shards)` run must be
//! byte-identical at any host worker count, and pipelined request
//! ingestion must be indistinguishable — response bytes and recovered
//! durable state — from one-request-at-a-time delivery.

use slpmt::bench::serve::{run_serve, ServeRow};
use slpmt::core::Scheme;
use slpmt::kv::codec::{Codec, Parse};
use slpmt::kv::service::{
    dispatch, encode_request, run_shard_service, shard_streams, ServeConfig, TokenModel,
};
use slpmt::kv::store::KvStore;
use slpmt::workloads::runner::IndexKind;
use slpmt::workloads::ycsb::MixSpec;

fn cfg(mix: MixSpec, shards: usize, seed: u64) -> ServeConfig {
    let mut c = ServeConfig::new(Scheme::Slpmt, IndexKind::KvBtree, mix);
    c.load = 60;
    c.requests = 250;
    c.value_size = 16;
    c.seed = seed;
    c.shards = shards;
    c
}

// -------------------------------------------------------------------
// Worker-count invisibility: the SLPMT_THREADS contract, exercised
// in-process with explicit worker counts across the acceptance matrix
// (mixes A/B/C at 1 and 4 shards).

#[test]
fn serve_is_byte_identical_across_worker_counts() {
    for mix in [MixSpec::YCSB_A, MixSpec::YCSB_B, MixSpec::YCSB_C] {
        for shards in [1usize, 4] {
            let c = cfg(mix, shards, 42);
            let (serial, rep1): (ServeRow, _) = run_serve(&c, 1);
            let (fanned, rep4): (ServeRow, _) = run_serve(&c, 4);
            assert_eq!(
                serial.digest, fanned.digest,
                "digest drift at {shards} shards"
            );
            assert_eq!(serial.total_sim_cycles, fanned.total_sim_cycles);
            assert_eq!(serial.makespan_cycles, fanned.makespan_cycles);
            assert_eq!(serial.overall, fanned.overall);
            assert_eq!(serial.per_verb, fanned.per_verb);
            assert_eq!(rep1.len(), rep4.len());
            for (a, b) in rep1.iter().zip(&rep4) {
                assert_eq!(a.responses, b.responses, "response bytes diverged");
                assert_eq!(a.admission, b.admission);
                assert_eq!(a.samples, b.samples);
            }
        }
    }
}

#[test]
fn reruns_are_bit_identical_and_seeds_matter() {
    let c = cfg(MixSpec::YCSB_A, 2, 7);
    let (a, _) = run_serve(&c, 2);
    let (b, _) = run_serve(&c, 2);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.total_sim_cycles, b.total_sim_cycles);
    let (other, _) = run_serve(&cfg(MixSpec::YCSB_A, 2, 8), 2);
    assert_ne!(a.digest, other.digest, "seed must reshape the stream");
}

#[test]
fn open_loop_pacing_keeps_response_bytes() {
    // Arrival pacing stretches the simulated clock but cannot change
    // what the server answers.
    let closed = cfg(MixSpec::YCSB_B, 2, 11);
    let mut open = closed.clone();
    open.open_loop = true;
    open.mean_gap = 400;
    let (rc, repc) = run_serve(&closed, 2);
    let (ro, repo) = run_serve(&open, 2);
    assert_eq!(rc.digest, ro.digest);
    for (a, b) in repc.iter().zip(&repo) {
        assert_eq!(a.responses, b.responses);
    }
    assert!(
        ro.makespan_cycles > rc.makespan_cycles,
        "pacing must cost simulated time ({} vs {})",
        ro.makespan_cycles,
        rc.makespan_cycles
    );
}

// -------------------------------------------------------------------
// Pipelined vs one-at-a-time equivalence, including recovered state.

/// Replays one shard's stream one request at a time — encode, parse,
/// dispatch, repeat — with no session pipelining, and returns the
/// response bytes plus the store (for post-crash state comparison).
fn one_at_a_time(c: &ServeConfig, shard: usize) -> (Vec<u8>, KvStore) {
    let (loads, reqs) = shard_streams(c);
    let mut store = KvStore::open(c.scheme, c.kind, c.value_size);
    store.prefault(loads[shard].len() + reqs[shard].len());
    let mut model = TokenModel::default();
    for op in &loads[shard] {
        store.set(op.key, &op.value);
        model.on_load(op);
    }
    let ordered = store.scan(0, 0).is_some();
    let codec = Codec::new(c.value_size);
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    for req in &reqs[shard] {
        wire.clear();
        encode_request(req, &mut model, ordered, &mut wire);
        let mut pos = 0;
        while pos < wire.len() {
            let (n, parse) = codec.parse(&wire[pos..]);
            pos += n;
            match parse {
                Parse::Req(r) => dispatch(&mut store, &r, &mut out),
                other => panic!("generated wire must parse, got {other:?}"),
            }
        }
    }
    (out, store)
}

/// Replays the same stream fully pipelined: every request's wire
/// bytes land in one session buffer up front, then the drain loop
/// parses and dispatches them back to back. Returns the responses and
/// the store.
fn pipelined(c: &ServeConfig, shard: usize) -> (Vec<u8>, KvStore) {
    use slpmt::kv::session::Session;
    let (loads, reqs) = shard_streams(c);
    let mut store = KvStore::open(c.scheme, c.kind, c.value_size);
    store.prefault(loads[shard].len() + reqs[shard].len());
    let mut model = TokenModel::default();
    for op in &loads[shard] {
        store.set(op.key, &op.value);
        model.on_load(op);
    }
    let ordered = store.scan(0, 0).is_some();
    let codec = Codec::new(c.value_size);
    let mut sess = Session::new(0);
    let mut wire = Vec::new();
    for req in &reqs[shard] {
        wire.clear();
        encode_request(req, &mut model, ordered, &mut wire);
        sess.feed(&wire);
    }
    while let Some(step) = sess.next_request(&codec) {
        let req = step.expect("generated wire must parse");
        let mut out = std::mem::take(&mut sess.wbuf);
        dispatch(&mut store, &req, &mut out);
        sess.wbuf = out;
    }
    (sess.take_responses(), store)
}

/// The recovered view of a store: crash, recover through the facade,
/// then every key with its decoded value in key order.
fn recovered_view(store: &mut KvStore) -> Vec<(u64, Vec<u8>)> {
    store.crash();
    store.recover();
    store.check_invariants().expect("recovered invariants");
    // scan is total on ordered backends; the serve tests pin KvBtree.
    store.scan(0, u64::MAX).expect("ordered backend")
}

#[test]
fn pipelined_equals_one_at_a_time_including_recovery() {
    // One session so the pipelined run serialises onto a single
    // response stream comparable with the serial replay.
    let mut c = cfg(MixSpec::YCSB_A, 1, 13);
    c.sessions = 1;
    let (loads, reqs) = shard_streams(&c);
    let report = run_shard_service(&c, 0, &loads[0], &reqs[0]);
    assert_eq!(report.served, report.requests, "nothing shed at defaults");

    let (pipe_out, mut pipe_store) = pipelined(&c, 0);
    let (serial_out, mut serial_store) = one_at_a_time(&c, 0);
    assert_eq!(
        pipe_out, serial_out,
        "pipelined and one-at-a-time responses diverged"
    );
    assert_eq!(
        report.responses, serial_out,
        "service loop diverged from the reference replay"
    );

    // Recovered durable state must match key-for-key, value-for-value.
    let pipe_view = recovered_view(&mut pipe_store);
    let serial_view = recovered_view(&mut serial_store);
    assert_eq!(pipe_view, serial_view, "recovered state diverged");
    assert!(!serial_view.is_empty(), "YCSB-A leaves keys behind");
}

#[test]
#[ignore = "nightly long soak: every named mix at soak-sized request counts"]
fn serve_long_soak_every_named_mix() {
    for &(name, mix) in MixSpec::NAMED.iter() {
        let mut c = cfg(mix, 4, 0x50AC_0008);
        c.load = 300;
        c.requests = 3000;
        let (row1, rep1) = run_serve(&c, 1);
        let (row4, rep4) = run_serve(&c, 4);
        assert_eq!(row1.digest, row4.digest, "mix {name}: digest drift");
        assert_eq!(row1.total_sim_cycles, row4.total_sim_cycles, "mix {name}");
        assert_eq!(row1.overall, row4.overall, "mix {name}");
        for (a, b) in rep1.iter().zip(&rep4) {
            assert_eq!(a.responses, b.responses, "mix {name}: shard bytes");
        }
        assert_eq!(row1.served + row1.shed, row1.requests, "mix {name}");
        assert!(row1.overall.p50 > 0, "mix {name}: latency cannot be free");
    }
}

#[test]
fn scan_heavy_mix_stays_deterministic() {
    // YCSB-E drives the scan path (ordered backend) through the wire;
    // worker fan-out must still be invisible.
    let mut c = cfg(MixSpec::YCSB_E, 4, 21);
    c.requests = 150;
    let (a, ra) = run_serve(&c, 1);
    let (b, rb) = run_serve(&c, 4);
    assert_eq!(a.digest, b.digest);
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.responses, y.responses);
    }
    // Scans actually ran: the scan verb class has samples.
    let scan_class = a.per_verb.last().expect("scan class");
    assert!(scan_class.count > 0, "YCSB-E must exercise scan");
}
