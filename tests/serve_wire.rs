//! The serving frontend over loopback TCP: a cached answer comes back in
//! microseconds, not after the peer's delayed ACK, and a pipelined window
//! is answered in request order, bit-identical to direct evaluation.

use std::time::{Duration, Instant};

use oaq_engine::{direct_eval, EngineConfig, Measure, QosQuery, QuerySpec, Scheme};
use oaq_serve::client::{Client, Reply};
use oaq_serve::proto::Request;
use oaq_serve::server::{serve, ServerConfig};

fn query(lambda: f64) -> QosQuery {
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

fn value_of(reply: Reply, want_id: u64) -> oaq_engine::QosValue {
    match reply {
        Reply::Value { req_id, value } => {
            assert_eq!(req_id, want_id, "replies arrive in request order");
            value
        }
        Reply::Error { code, .. } => panic!("request {want_id} failed: {code:?}"),
    }
}

#[test]
fn sequential_calls_do_not_stall_and_pipelines_stay_ordered() {
    let handle = serve(&ServerConfig {
        engine: EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Warm one key, then time sequential cache hits. A reply held back by
    // Nagle's algorithm until the client's delayed ACK costs ~40 ms, so
    // 200 calls would take at least 8 s; unstalled they take milliseconds.
    let hot = query(5e-5);
    let want = direct_eval(&hot).unwrap();
    assert_eq!(
        value_of(client.call(&Request::from_query(0, &hot)).unwrap(), 0),
        want
    );
    let start = Instant::now();
    for id in 1..=200 {
        let got = value_of(client.call(&Request::from_query(id, &hot)).unwrap(), id);
        assert_eq!(got, want, "call {id}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 cached calls took {elapsed:?}: replies are stalling on the wire"
    );

    // A 64-deep window over eight keys, sent before any answer is read.
    let keys: Vec<QosQuery> = (0..8u32)
        .map(|i| query(1e-5 + f64::from(i) * 1e-5))
        .collect();
    let window: Vec<&QosQuery> = (0..64).map(|i| &keys[i % keys.len()]).collect();
    for (i, q) in window.iter().enumerate() {
        client
            .send_buffered(&Request::from_query(1000 + i as u64, q))
            .unwrap();
    }
    client.flush().unwrap();
    for (i, q) in window.iter().enumerate() {
        let got = value_of(client.recv().unwrap(), 1000 + i as u64);
        assert_eq!(got, direct_eval(q).unwrap(), "window slot {i}");
    }

    drop(client);
    handle.shutdown().unwrap();
}
