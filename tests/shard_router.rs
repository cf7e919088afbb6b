//! Behavioural contracts of the in-process [`ShardRouter`] that the
//! differential oracle does not pin directly:
//!
//! * a **no-op edit trace** (deletes of absent edges, duplicate inserts,
//!   self-loops — everything the maintainer records as *nothing*) must fan
//!   repair out to **zero** shards, observable through the
//!   `sigma_shard_repair_*` counters;
//! * construction with **more shards than nodes** pads empty-range engines
//!   that never panic and never receive traffic;
//! * the façade preserves the engine's typed error surface
//!   ([`ServeError::InvalidQuery`], [`ServeError::ShardConfig`]);
//! * edge-update fan-out invalidates exactly what one engine would, while
//!   skipping footprint-free shards.

use sigma_serve::{
    EngineConfig, InferenceEngine, Prediction, ServeError, ShardRouter, ShardRouterConfig,
};
use sigma_simrank::EdgeUpdate;
use sigma_testutil::{random_graph, serving_fixture};

fn assert_bitwise_eq(a: &Prediction, b: &Prediction) {
    assert_eq!(a.node, b.node);
    assert_eq!(a.label, b.label);
    let bits_a: Vec<u32> = a.logits.iter().map(|v| v.to_bits()).collect();
    let bits_b: Vec<u32> = b.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits_a, bits_b, "logits diverge at node {}", a.node);
}

#[test]
fn noop_edits_fan_repair_out_to_zero_shards() {
    let graph = random_graph(30, 8, 7);
    let fixture = serving_fixture(&graph, 5, 7);
    let mut maintainer = fixture.maintainer;
    let shards = 4;
    let router = ShardRouter::new(&fixture.snapshot, &ShardRouterConfig { shards })
        .expect("router construction");

    // Pure no-op edits: the maintainer's graph never changes, so
    // `affected_nodes()` / `edited_nodes()` stay empty.
    let (u, v) = graph.edges().next().expect("graph has edges");
    let mut absent = None;
    'outer: for a in 0..30usize {
        for b in (a + 1)..30 {
            if !graph.has_edge(a, b) {
                absent = Some((a, b));
                break 'outer;
            }
        }
    }
    let (a, b) = absent.expect("a 30-node degree-8 graph is not complete");
    maintainer.apply(EdgeUpdate::Delete(a, b)).unwrap(); // missing delete
    maintainer.apply(EdgeUpdate::Insert(u, v)).unwrap(); // duplicate insert
    maintainer.apply(EdgeUpdate::Insert(3, 3)).unwrap(); // self-loop
    assert!(maintainer.affected_nodes().is_empty(), "edits were no-ops");

    let repair = router.repair_from(&mut maintainer).expect("repair");
    assert!(!repair.full_refresh);
    assert_eq!(repair.fanout, 0, "no-op edits must touch no shard");
    assert_eq!(repair.skipped, shards);
    assert!(repair.operator_rows.is_empty());
    assert!(repair.shard_repairs.iter().all(Option::is_none));

    let stats = router.stats();
    assert_eq!(stats.repair_fanout, 0, "sigma_shard_repair_fanout_total");
    assert_eq!(
        stats.repair_skipped, shards as u64,
        "sigma_shard_repair_skipped_total"
    );
    assert_eq!(stats.repair_dirty_seeds, 0);
    assert_eq!(stats.engines.operator_repairs, 0);
    assert_eq!(stats.engines.rows_repaired, 0);
}

#[test]
fn more_shards_than_nodes_pads_idle_engines_without_panicking() {
    let graph = random_graph(6, 3, 13);
    let fixture = serving_fixture(&graph, 3, 13);
    let shards = 16;
    let router = ShardRouter::new(&fixture.snapshot, &ShardRouterConfig { shards })
        .expect("16 shards over 6 nodes must construct");
    assert_eq!(router.num_shards(), shards);
    assert_eq!(router.num_nodes(), 6);

    let reference = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap();
    let nodes: Vec<usize> = (0..6).collect();
    let routed = router.predict_batch(&nodes).expect("batch");
    let expected = reference.predict_batch(&nodes).expect("reference batch");
    for (a, b) in routed.iter().zip(&expected) {
        assert_bitwise_eq(a, b);
    }
    // Empty-range tail shards exist but never serve.
    let stats = router.stats();
    assert_eq!(stats.per_shard.len(), shards);
    let idle = stats
        .per_shard
        .iter()
        .zip(router.plan().ranges())
        .filter(|(s, range)| range.is_empty() && s.nodes_served == 0)
        .count();
    assert!(
        idle >= shards - 6,
        "at least {} tail shards must stay idle, saw {idle}",
        shards - 6
    );
    assert_eq!(stats.engines.nodes_served, 6);
    assert_eq!(stats.queries_routed, 6);
    assert_eq!(stats.batches_routed, 1);
}

#[test]
fn router_preserves_the_typed_error_surface() {
    let graph = random_graph(12, 4, 3);
    let fixture = serving_fixture(&graph, 4, 3);

    // Zero shards is a configuration error, not a panic.
    let err = ShardRouter::new(&fixture.snapshot, &ShardRouterConfig { shards: 0 }).unwrap_err();
    assert!(
        matches!(err, ServeError::ShardConfig { shards: 0, .. }),
        "zero shards must surface as ShardConfig, got {err}"
    );
    assert!(err.to_string().contains("shard"));

    // An empty mapped fleet is equally typed.
    let err = ShardRouter::from_mapped(Vec::new()).unwrap_err();
    assert!(matches!(err, ServeError::ShardConfig { shards: 0, .. }));

    // Out-of-range queries return InvalidQuery from both entry points.
    let router = ShardRouter::new(&fixture.snapshot, &ShardRouterConfig { shards: 3 }).unwrap();
    for err in [
        router.predict(12).unwrap_err(),
        router.predict_batch(&[0, 1, 99]).unwrap_err(),
    ] {
        match err {
            ServeError::InvalidQuery { node, num_nodes } => {
                assert!(node >= 12);
                assert_eq!(num_nodes, 12);
            }
            other => panic!("expected InvalidQuery, got {other}"),
        }
    }
    // A rejected batch serves nothing and routes nothing.
    assert_eq!(router.stats().queries_routed, 0);
}

#[test]
fn edge_update_fanout_invalidates_exactly_what_one_engine_would() {
    let graph = random_graph(40, 6, 21);
    let fixture = serving_fixture(&graph, 5, 21);
    let shards = 5;
    let router = ShardRouter::new(&fixture.snapshot, &ShardRouterConfig { shards }).unwrap();
    let reference = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap();

    let nodes: Vec<usize> = (0..40).collect();
    let routed = router.predict_batch(&nodes).unwrap();
    let expected = reference.predict_batch(&nodes).unwrap();
    for (a, b) in routed.iter().zip(&expected) {
        assert_bitwise_eq(a, b);
    }

    // One real edit: the router marks the same rows stale as the single
    // engine (each row counted once, on its owner shard), and skips every
    // shard the footprint provably misses.
    let (u, v) = graph.edges().next().expect("graph has edges");
    let updates = [EdgeUpdate::Delete(u, v)];
    let router_invalidated = router.apply_edge_updates(&updates).unwrap();
    let engine_invalidated = reference.apply_edge_updates(&updates).unwrap();
    assert_eq!(router_invalidated, engine_invalidated);
    assert_eq!(router.stale_nodes(), reference.stale_nodes());
    assert_eq!(
        router_invalidated,
        router.stale_nodes().len(),
        "the count is the number of rows marked stale"
    );
    // Staleness is visible on the served answers, identically.
    let routed = router.predict_batch(&nodes).unwrap();
    let expected = reference.predict_batch(&nodes).unwrap();
    for (a, b) in routed.iter().zip(&expected) {
        assert_bitwise_eq(a, b);
        assert_eq!(a.stale, b.stale, "staleness diverges at node {}", a.node);
    }
    assert!(
        !router.stale_nodes().is_empty(),
        "a real edit marks staleness"
    );

    let stats = router.stats();
    assert_eq!(
        stats.edge_update_fanout + stats.edge_update_skipped,
        shards as u64,
        "every shard is either fanned to or skipped"
    );
    assert!(
        stats.edge_update_fanout >= 1,
        "the owner shard must be touched"
    );
}
