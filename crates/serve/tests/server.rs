//! End-to-end server tests: wire answers are bit-identical to direct
//! evaluation, failures arrive as typed error frames, hostile bytes never
//! take the server down, and graceful shutdown drains and persists.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use oaq_engine::{
    direct_eval, zipf_workload, EngineConfig, Measure, QuerySpec, QuotaPolicy, Scheme, TenantId,
    WorkloadConfig,
};
use oaq_serve::client::{Client, ClientError, Reply};
use oaq_serve::proto::{append_frame, encode_request_into, ErrorCode, Request};
use oaq_serve::server::{serve, ServerConfig, ServerHandle, WarmStart};

fn test_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 256,
            result_cache: 512,
            pk_cache: 64,
            ..EngineConfig::default()
        },
        read_timeout: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

fn start() -> ServerHandle {
    serve(&test_config()).unwrap()
}

fn sample_query(lambda: f64) -> oaq_engine::QosQuery {
    QuerySpec::paper_defaults(
        lambda,
        Measure::QosAtLeast {
            scheme: Scheme::Oaq,
            y: 2,
        },
    )
    .build()
    .unwrap()
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("oaq_server_{tag}_{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn served_answers_are_bit_identical_to_direct_eval() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let queries = zipf_workload(
        &WorkloadConfig {
            scenarios: 10,
            skew: 1.0,
            queries: 60,
        },
        11,
    );
    for (i, q) in queries.iter().enumerate() {
        let req = Request::from_query(i as u64, q);
        match client.call(&req).unwrap() {
            Reply::Value { req_id, value } => {
                assert_eq!(req_id, i as u64);
                assert_eq!(value, direct_eval(q).unwrap(), "query {i}");
            }
            Reply::Error { code, .. } => panic!("query {i} failed: {code:?}"),
        }
    }
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn pipelined_replies_arrive_in_request_order() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let queries: Vec<_> = (0..24u32)
        .map(|i| sample_query(1e-5 + f64::from(i) * 1e-6))
        .collect();
    for (i, q) in queries.iter().enumerate() {
        client
            .send_buffered(&Request::from_query(1000 + i as u64, q))
            .unwrap();
    }
    client.flush().unwrap();
    for (i, q) in queries.iter().enumerate() {
        let reply = client.recv().unwrap();
        assert_eq!(reply.req_id(), 1000 + i as u64, "in-order replies");
        let Reply::Value { value, .. } = reply else {
            panic!("query {i} failed");
        };
        assert_eq!(value, direct_eval(q).unwrap());
    }
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn engine_failures_map_to_typed_error_frames() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // NaN lambda: rejected at validation with InvalidParam.
    let mut req = Request::from_query(1, &sample_query(5e-5));
    req.param_bits[2] = f64::NAN.to_bits();
    let Reply::Error { req_id, code, .. } = client.call(&req).unwrap() else {
        panic!("NaN lambda must fail");
    };
    assert_eq!((req_id, code), (1, ErrorCode::InvalidParam));

    // delta_eff >= tau: DeadlineConsumed with both floats in aux words.
    let mut req = Request::from_query(2, &sample_query(5e-5));
    req.param_bits[7] = req.param_bits[4]; // delta_eff := tau
    let Reply::Error {
        code, aux0, aux1, ..
    } = client.call(&req).unwrap()
    else {
        panic!("consumed deadline must fail");
    };
    assert_eq!(code, ErrorCode::DeadlineConsumed);
    assert_eq!(f64::from_bits(aux0), 5.0, "tau rides in aux0");
    assert_eq!(f64::from_bits(aux1), 5.0, "delta_eff rides in aux1");

    // Unknown measure tag: structurally fine, semantically Malformed.
    let mut req = Request::from_query(3, &sample_query(5e-5));
    req.measure = [99, 0, 0, 0];
    let Reply::Error { req_id, code, .. } = client.call(&req).unwrap() else {
        panic!("unknown measure must fail");
    };
    assert_eq!((req_id, code), (3, ErrorCode::Malformed));

    // An expired serving deadline arrives as DeadlineExceeded.
    let q = sample_query(7.77e-5).with_deadline_ms(1e-3).unwrap();
    let Reply::Error { code, .. } = client.call(&Request::from_query(4, &q)).unwrap() else {
        panic!("a 1 microsecond deadline must expire");
    };
    assert_eq!(code, ErrorCode::DeadlineExceeded);

    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn quota_rejections_carry_the_tenant() {
    let mut config = test_config();
    config.engine.quota = QuotaPolicy {
        rate_per_sec: 0.0,
        burst: 1.0,
        queue_share: 1.0,
    };
    let handle = serve(&config).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut quota_rejections = 0;
    for i in 0..10u32 {
        // Distinct lambdas defeat the result cache (cache hits bypass
        // quotas), same tenant drains the 1-token bucket.
        let q = sample_query(1e-5 + f64::from(i) * 1e-6).for_tenant(TenantId(9));
        match client.call(&Request::from_query(u64::from(i), &q)).unwrap() {
            Reply::Value { .. } => {}
            Reply::Error { code, aux0, .. } => {
                assert_eq!(code, ErrorCode::QuotaExceeded);
                assert_eq!(aux0, 9, "the over-quota tenant rides in aux0");
                quota_rejections += 1;
            }
        }
    }
    assert!(quota_rejections >= 8, "a 1-burst bucket rejects the flood");
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn hostile_bytes_get_typed_errors_and_the_connection_survives() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // A garbage frame (valid length prefix, junk payload).
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let junk = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x00, 0x01];
    stream
        .write_all(&(junk.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&junk).unwrap();
    let mut raw = Client::from_stream(stream).unwrap();
    let Reply::Error { req_id, code, .. } = raw.recv().unwrap() else {
        panic!("junk must be answered with an error frame");
    };
    assert_eq!((req_id, code), (0, ErrorCode::Malformed));

    // The healthy connection still serves bit-identical answers.
    let q = sample_query(3e-5);
    let Reply::Value { value, .. } = client.call(&Request::from_query(7, &q)).unwrap() else {
        panic!("healthy connection broken by another client's junk");
    };
    assert_eq!(value, direct_eval(&q).unwrap());

    // An oversized length prefix: one Malformed answer, then close.
    let mut bomb = TcpStream::connect(handle.local_addr()).unwrap();
    bomb.write_all(&u32::MAX.to_le_bytes()).unwrap();
    bomb.write_all(&[0u8; 64]).unwrap();
    let mut reply = Vec::new();
    bomb.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    bomb.read_to_end(&mut reply).unwrap();
    assert!(!reply.is_empty(), "the oversize answer precedes the close");

    drop(client);
    drop(raw);
    handle.shutdown().unwrap();
}

#[test]
fn one_pipelined_write_is_answered_in_full_before_an_oversize_close() {
    let handle = start();
    let queries: Vec<_> = (0..6u32)
        .map(|i| sample_query(2e-5 + f64::from(i) * 1e-6))
        .collect();
    // Valid requests, a junk frame after the third, and a trailing length
    // prefix over the cap — all in one write, so the server sees them in
    // one batch.
    let mut wire = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if i == 3 {
            append_frame(&mut wire, |out| out.extend_from_slice(&[0xDE, 0xAD, 0xBE]));
        }
        let req = Request::from_query(100 + i as u64, q);
        append_frame(&mut wire, |out| encode_request_into(out, &req));
    }
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&wire).unwrap();
    let mut client = Client::from_stream(stream).unwrap();

    let malformed = |reply: Reply| {
        let Reply::Error { req_id, code, .. } = reply else {
            panic!("expected a Malformed error frame, got {reply:?}");
        };
        assert_eq!((req_id, code), (0, ErrorCode::Malformed));
    };
    for (i, q) in queries.iter().enumerate() {
        if i == 3 {
            malformed(client.recv().unwrap());
        }
        let Reply::Value { req_id, value } = client.recv().unwrap() else {
            panic!("query {i} failed");
        };
        assert_eq!(req_id, 100 + i as u64, "in-order replies");
        assert_eq!(value, direct_eval(q).unwrap());
    }
    malformed(client.recv().unwrap());
    assert!(
        matches!(client.recv(), Err(ClientError::Closed)),
        "the oversize answer is the last frame before EOF"
    );
    handle.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_persists_and_warm_start_restores() {
    let scratch = Scratch::new("warm");
    let mut config = test_config();
    config.snapshot_path = Some(scratch.0.clone());

    // First life: cold boot, serve a working set, drain, persist.
    let first = serve(&config).unwrap();
    assert!(matches!(first.warm_start(), WarmStart::ColdBoot));
    let queries = zipf_workload(
        &WorkloadConfig {
            scenarios: 8,
            skew: 1.0,
            queries: 40,
        },
        23,
    );
    let mut client = Client::connect(first.local_addr()).unwrap();
    let mut baseline = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let Reply::Value { value, .. } = client.call(&Request::from_query(i as u64, q)).unwrap()
        else {
            panic!("query {i} failed");
        };
        baseline.push(value);
    }
    let cold_solves = first.engine().metrics().pk_solves;
    assert!(cold_solves > 0);
    drop(client);
    let saved = first.shutdown().unwrap().expect("snapshot saved");
    assert!(saved.pk_entries > 0 && saved.result_entries > 0);

    // Second life: warm boot from the snapshot, replay, re-solve nothing.
    let second = serve(&config).unwrap();
    let WarmStart::Loaded(loaded) = second.warm_start() else {
        panic!("expected a warm start, got {:?}", second.warm_start());
    };
    assert_eq!(loaded.pk_entries, saved.pk_entries);
    let mut client = Client::connect(second.local_addr()).unwrap();
    for (i, (q, want)) in queries.iter().zip(&baseline).enumerate() {
        let Reply::Value { value, .. } = client.call(&Request::from_query(i as u64, q)).unwrap()
        else {
            panic!("warm query {i} failed");
        };
        assert_eq!(&value, want, "warm answer {i} bit-identical");
    }
    let m = second.engine().metrics();
    assert_eq!(m.pk_solves, 0, "warm start re-solves nothing");
    assert_eq!(m.result_cache_hits, m.submitted);
    drop(client);
    second.shutdown().unwrap();

    // Third life: corrupt the snapshot; the server boots cold, not dead.
    let mut bytes = std::fs::read(&scratch.0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&scratch.0, &bytes).unwrap();
    let third = serve(&config).unwrap();
    assert!(
        matches!(third.warm_start(), WarmStart::Rejected(_)),
        "corrupt snapshot must be rejected, got {:?}",
        third.warm_start()
    );
    assert!(third.engine().export_pk_cache().is_empty(), "boots cold");
    let mut client = Client::connect(third.local_addr()).unwrap();
    let q = &queries[0];
    let Reply::Value { value, .. } = client.call(&Request::from_query(0, q)).unwrap() else {
        panic!("cold-booted server must still serve");
    };
    assert_eq!(value, baseline[0]);
    drop(client);
    third.shutdown().unwrap();
}

#[test]
fn shard_counters_accumulate_under_load() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let q = sample_query(4e-5);
    for i in 0..50u64 {
        let Reply::Value { .. } = client.call(&Request::from_query(i, &q)).unwrap() else {
            panic!("query {i} failed");
        };
    }
    let stats = handle.engine().cache_stats();
    let hits: u64 = stats.result.iter().map(|s| s.hits).sum();
    let misses: u64 = stats.result.iter().map(|s| s.misses).sum();
    assert!(hits >= 49, "one miss, then warm hits: {hits}");
    assert!(misses >= 1);
    assert_eq!(
        stats.result.len(),
        handle.engine().config().effective_shards()
    );
    drop(client);
    handle.shutdown().unwrap();
}
