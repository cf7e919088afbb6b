//! Wire-level tests for `POST /v1/similar`.
//!
//! The load-bearing assertion mirrors `daemon_e2e.rs`: similarity answers
//! that travelled the full socket path are **bitwise identical** — node
//! ids in rank order and score bits — to direct in-process
//! `InferenceEngine::most_similar` calls over the same snapshot, for both
//! the single-engine and the sharded backend. The rest of the suite pins
//! the endpoint's error contract: 404 for out-of-range nodes, 400 for
//! malformed bodies, 504 for expired deadlines (with provably zero engine
//! work), and 503 while draining.

use sigma_daemon::{json, Backend, Daemon, DaemonConfig};
use sigma_graph::Graph;
use sigma_serve::{EngineConfig, InferenceEngine, ShardRouter, ShardRouterConfig, SimilarNode};
use sigma_testutil::wire;
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::Arc;

fn fixture_graph(seed: u64) -> Graph {
    random_graph(40, 60, seed)
}

/// Decodes the top-level `[{"node": n, "score": s}, ...]` body into
/// comparable `(node, score_bits)` pairs, in served rank order.
fn decode_similar(body: &[u8]) -> Vec<(usize, u32)> {
    let value = json::parse(body).expect("similar body parses");
    value
        .as_arr()
        .expect("similar body is a top-level array")
        .iter()
        .map(|entry| {
            let node = entry.get("node").and_then(json::Json::as_index).unwrap();
            let score = (entry.get("score").and_then(json::Json::as_num).unwrap() as f32).to_bits();
            (node, score)
        })
        .collect()
}

fn reference_bits(expected: &[SimilarNode]) -> Vec<(usize, u32)> {
    expected
        .iter()
        .map(|s| (s.node, s.score.to_bits()))
        .collect()
}

fn error_kind(resp: &wire::WireResponse) -> String {
    let value = json::parse(&resp.body).expect("error body parses");
    value
        .get("error")
        .and_then(json::Json::as_str)
        .expect("error body carries a kind")
        .to_string()
}

#[test]
fn similar_is_bitwise_equal_to_in_process_engine() {
    let fixture = serving_fixture(&fixture_graph(31), 4, 31);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let reference =
        InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("reference");
    let daemon =
        Daemon::start(Backend::Engine(engine), None, DaemonConfig::default()).expect("daemon");
    let addr = daemon.local_addr();

    for node in 0..fixture.snapshot.num_nodes() {
        // k sweeps small ranks and one value past the row length, so the
        // truncation path crosses the wire too.
        let k = if node % 7 == 0 { 100 } else { (node % 5) + 1 };
        let resp = wire::post_json(
            addr,
            "/v1/similar",
            &format!("{{\"node\": {node}, \"k\": {k}}}"),
        )
        .expect("similar");
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let expected = reference.most_similar(node, k).expect("reference similar");
        assert_eq!(
            decode_similar(&resp.body),
            reference_bits(&expected),
            "wire similarity for node {node} k {k} must be bitwise equal"
        );
    }
    daemon.shutdown();
}

#[test]
fn sharded_similar_is_bitwise_equal_over_the_wire() {
    let fixture = serving_fixture(&fixture_graph(32), 4, 32);
    let router =
        ShardRouter::new(&fixture.snapshot, &ShardRouterConfig { shards: 4 }).expect("router");
    let reference =
        InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("reference");
    let daemon = Daemon::start(
        Backend::Router(Arc::new(router)),
        None,
        DaemonConfig::default(),
    )
    .expect("daemon");
    let addr = daemon.local_addr();

    for node in 0..fixture.snapshot.num_nodes() {
        let k = (node % 6) + 1;
        let resp = wire::post_json(
            addr,
            "/v1/similar",
            &format!("{{\"node\": {node}, \"k\": {k}}}"),
        )
        .expect("similar");
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let expected = reference.most_similar(node, k).expect("reference similar");
        assert_eq!(
            decode_similar(&resp.body),
            reference_bits(&expected),
            "sharded wire similarity for node {node} k {k} must be bitwise equal"
        );
    }
    daemon.shutdown();
}

#[test]
fn similar_rejects_bad_queries_without_engine_work() {
    let fixture = serving_fixture(&fixture_graph(33), 4, 33);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let daemon = Daemon::start(
        Backend::Engine(engine.clone()),
        None,
        DaemonConfig::default(),
    )
    .expect("daemon");
    let addr = daemon.local_addr();
    let n = fixture.snapshot.num_nodes();

    // Out-of-range node: a well-formed query for a node the graph does not
    // have is the engine's InvalidQuery — 404, not 400.
    let resp = wire::post_json(addr, "/v1/similar", &format!("{{\"node\": {n}, \"k\": 3}}"))
        .expect("out of range");
    assert_eq!(resp.status, 404, "body: {}", resp.body_str());
    assert_eq!(error_kind(&resp), "invalid_query");

    // Malformed bodies are refused at the parse layer: k = 0, fractional
    // k, missing k, missing node.
    for body in [
        "{\"node\": 0, \"k\": 0}",
        "{\"node\": 0, \"k\": 1.5}",
        "{\"node\": 0}",
        "{\"k\": 3}",
    ] {
        let resp = wire::post_json(addr, "/v1/similar", body).expect("bad body");
        assert_eq!(resp.status, 400, "body {body:?} -> {}", resp.body_str());
        assert_eq!(error_kind(&resp), "bad_json", "body {body:?}");
    }

    // None of the rejects reached the engine.
    assert_eq!(engine.stats().similar_queries, 0);
    daemon.shutdown();
}

#[test]
fn similar_sheds_expired_deadlines_before_engine_work() {
    let fixture = serving_fixture(&fixture_graph(34), 4, 34);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    // A zero default deadline makes every request arrive already expired —
    // deterministic 504 with no sleeping in the test.
    let config = DaemonConfig {
        default_deadline_ms: 0,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(Backend::Engine(engine.clone()), None, config).expect("daemon");

    let resp = wire::post_json(
        daemon.local_addr(),
        "/v1/similar",
        "{\"node\": 0, \"k\": 3}",
    )
    .expect("expired");
    assert_eq!(resp.status, 504, "body: {}", resp.body_str());
    assert_eq!(error_kind(&resp), "deadline_expired");
    assert!(daemon.stats().deadline_shed >= 1);
    // The shed happened before the backend was invoked.
    assert_eq!(engine.stats().similar_queries, 0);
    daemon.shutdown();
}

#[test]
fn similar_refuses_new_queries_while_draining() {
    let fixture = serving_fixture(&fixture_graph(35), 4, 35);
    let engine =
        Arc::new(InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"));
    let config = DaemonConfig {
        drain_deadline_ms: 10_000,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(Backend::Engine(engine), None, config).expect("daemon");
    let addr = daemon.local_addr();

    // Establish a keep-alive connection and prove it serves normally, so
    // the worker is already parked on this socket when the drain begins.
    let mut client = wire::WireClient::connect(addr).expect("connect");
    let resp = client
        .request("POST", "/v1/similar", &[], b"{\"node\": 0, \"k\": 2}")
        .expect("pre-drain similar");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());

    // Drain concurrently; shutdown() blocks until the workers join, and
    // the worker holding our connection will not exit until it answers us.
    let handle = std::thread::spawn(move || daemon.shutdown());
    std::thread::sleep(std::time::Duration::from_millis(150));

    let resp = client
        .request("POST", "/v1/similar", &[], b"{\"node\": 0, \"k\": 2}")
        .expect("draining similar");
    assert_eq!(resp.status, 503, "body: {}", resp.body_str());
    assert_eq!(error_kind(&resp), "draining");
    handle.join().expect("shutdown thread");
}
