//! Pins the documented `EngineStats` snapshot semantics: snapshots are
//! lock-free relaxed loads, so each counter is individually monotone and
//! exact, cross-counter identities hold once the engine quiesces, and
//! nothing more is promised while queries are in flight. Also covers the
//! repair counters (`rows_invalidated`, `repair_dirty_seeds`) and, with the
//! `obs` feature on, the engine's registration in the process-wide metrics
//! registry.

use sigma_serve::{EngineConfig, EngineStats, InferenceEngine, ServeSnapshot};
use sigma_simrank::EdgeUpdate;
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn engine(snapshot: &ServeSnapshot) -> InferenceEngine {
    InferenceEngine::new(snapshot, EngineConfig::default()).expect("engine")
}

fn assert_monotone(prev: &EngineStats, next: &EngineStats) {
    // Every field is a monotone counter: a later snapshot never observes a
    // smaller value, even when it tears against concurrent writers.
    let pairs = [
        ("nodes_served", prev.nodes_served, next.nodes_served),
        ("batches_served", prev.batches_served, next.batches_served),
        (
            "rows_invalidated",
            prev.rows_invalidated,
            next.rows_invalidated,
        ),
        (
            "operator_refreshes",
            prev.operator_refreshes,
            next.operator_refreshes,
        ),
        (
            "operator_repairs",
            prev.operator_repairs,
            next.operator_repairs,
        ),
        ("rows_repaired", prev.rows_repaired, next.rows_repaired),
        (
            "embedding_rows_repaired",
            prev.embedding_rows_repaired,
            next.embedding_rows_repaired,
        ),
        (
            "repair_dirty_seeds",
            prev.repair_dirty_seeds,
            next.repair_dirty_seeds,
        ),
    ];
    for (name, a, b) in pairs {
        assert!(a <= b, "{name} went backwards: {a} -> {b}");
    }
}

#[test]
fn snapshots_are_monotone_under_concurrent_load_and_exact_at_quiescence() {
    let graph = random_graph(24, 10, 7);
    let fixture = serving_fixture(&graph, 4, 7);
    let n = graph.num_nodes();
    let engine = Arc::new(engine(&fixture.snapshot));

    let stop = Arc::new(AtomicBool::new(false));
    let queriers: Vec<_> = (0..3)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let nodes: Vec<usize> = (0..n).map(|i| (i + t) % n).collect();
                let mut iters = 0u64;
                let mut nodes_queried = 0u64;
                loop {
                    let _ = engine.predict_batch(&nodes).expect("query");
                    nodes_queried += nodes.len() as u64;
                    let _ = engine.predict(t % n).expect("single query");
                    nodes_queried += 1;
                    iters += 1;
                    // Run at least a few rounds even if the reader finishes
                    // first, so quiescent identities have real traffic behind
                    // them.
                    if iters >= 8 && stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (nodes_queried, 2 * iters)
            })
        })
        .collect();

    // Reader: successive torn snapshots must still be per-field monotone.
    let mut prev = engine.stats();
    for _ in 0..200 {
        let next = engine.stats();
        assert_monotone(&prev, &next);
        prev = next;
    }

    stop.store(true, Ordering::Relaxed);
    let (mut nodes_queried, mut batches_queried) = (0u64, 0u64);
    for handle in queriers {
        let (nodes, batches) = handle.join().expect("querier");
        nodes_queried += nodes;
        batches_queried += batches;
    }

    // Quiesced: the documented counts hold exactly.
    let settled = engine.stats();
    assert_eq!(settled.nodes_served, nodes_queried);
    assert_eq!(
        settled.batches_served, batches_queried,
        "every predict and predict_batch call is exactly one served batch"
    );
    assert_eq!(settled.rows_invalidated, 0, "reads never invalidate rows");
}

#[test]
fn repair_accounts_dirty_seeds() {
    let graph = random_graph(22, 14, 31);
    let mut fixture = serving_fixture(&graph, 5, 31);
    let n = graph.num_nodes();
    let engine = engine(&fixture.snapshot);
    fixture
        .maintainer
        .apply(EdgeUpdate::Insert(0, n / 2))
        .expect("edit");
    let before = engine.stats();
    let repair = engine.repair_from(&mut fixture.maintainer).expect("repair");
    let after = engine.stats();
    assert!(!repair.full_refresh);
    assert_eq!(after.operator_repairs, before.operator_repairs + 1);
    assert_eq!(
        after.rows_invalidated - before.rows_invalidated,
        repair.invalidated_rows.len() as u64,
        "rows_invalidated counts exactly the recomputed rows"
    );
    assert!(
        after.repair_dirty_seeds > before.repair_dirty_seeds,
        "an edge insert must dirty at least the endpoint seeds"
    );
}

#[cfg(feature = "obs")]
#[test]
fn engine_counters_appear_in_the_global_registry() {
    let graph = random_graph(16, 8, 5);
    let fixture = serving_fixture(&graph, 4, 5);
    let n = graph.num_nodes();
    let engine = engine(&fixture.snapshot);
    let before = sigma_obs::snapshot().counter("sigma_serve_nodes_served_total");
    let all: Vec<usize> = (0..n).collect();
    let _ = engine.predict_batch(&all).expect("query");
    let after = sigma_obs::snapshot().counter("sigma_serve_nodes_served_total");
    assert!(
        after >= before + n as u64,
        "engine serving must surface in the process-wide registry ({before} -> {after})"
    );
    // The latency histograms registered and recorded too.
    let snap = sigma_obs::snapshot();
    match snap
        .get("sigma_serve_predict_batch_ns")
        .expect("batch latency histogram registered")
    {
        sigma_obs::MetricValue::Histogram(h) => assert!(h.count > 0),
        other => panic!("expected a histogram, got {other:?}"),
    }
}
