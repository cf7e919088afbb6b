//! Edge-case tests for `EngineStats` accounting and the logits table: a
//! repair must recompute exactly the affected rows (and count exactly
//! them), a whole-operator install must recompute everything, both must
//! match a rebuild bitwise, and queries racing an operator swap must never
//! serve a row of the wrong operator.

use sigma_matrix::CsrMatrix;
use sigma_serve::{
    compute_embeddings, EngineConfig, InferenceEngine, OperatorPatch, Prediction, ServeSnapshot,
};
use sigma_simrank::EdgeUpdate;
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A `(u, v)` pair that is definitely not an edge of `graph` yet.
fn absent_edge(graph: &sigma_graph::Graph) -> (usize, usize) {
    for u in 0..graph.num_nodes() {
        for v in (u + 2)..graph.num_nodes() {
            if !graph.has_edge(u, v) {
                return (u, v);
            }
        }
    }
    panic!("graph is complete");
}

fn build(snapshot: &ServeSnapshot) -> InferenceEngine {
    InferenceEngine::new(snapshot, EngineConfig::default()).expect("engine")
}

/// `snapshot` with its operator and adjacency replaced.
fn rebuilt(
    snapshot: &ServeSnapshot,
    operator: Option<CsrMatrix>,
    adjacency: CsrMatrix,
) -> ServeSnapshot {
    let mut model = snapshot.model.clone();
    if operator.is_none() {
        model.aggregator = sigma::AggregatorKind::None;
    }
    model.operator = operator;
    ServeSnapshot::new("rebuilt", model, snapshot.features.clone(), adjacency)
        .expect("rebuilt snapshot")
}

fn bits(p: &Prediction) -> Vec<u32> {
    p.logits.iter().map(|v| v.to_bits()).collect()
}

/// Panics unless both engines serve every node with bitwise-equal logits.
fn assert_serves_like(engine: &InferenceEngine, reference: &InferenceEngine, what: &str) {
    let all: Vec<usize> = (0..engine.num_nodes()).collect();
    let served = engine.predict_batch(&all).expect("served");
    let expected = reference.predict_batch(&all).expect("reference");
    for (got, want) in served.iter().zip(&expected) {
        assert_eq!(bits(got), bits(want), "{what}: node {} diverges", got.node);
        assert_eq!(got.label, want.label, "{what}: node {} label", got.node);
    }
}

#[test]
fn repair_invalidation_counts_exactly_the_affected_set() {
    let graph = random_graph(22, 14, 31);
    let mut fixture = serving_fixture(&graph, 5, 31);
    let engine = build(&fixture.snapshot);
    let n = graph.num_nodes();

    let (a, b) = absent_edge(&graph);
    fixture
        .maintainer
        .apply(EdgeUpdate::Insert(a, b))
        .expect("edit");
    let before = engine.stats();
    let repair = engine.repair_from(&mut fixture.maintainer).expect("repair");
    let after = engine.stats();

    assert!(!repair.full_refresh);
    // Both endpoints of the edit had their adjacency (hence H) rows redone.
    assert_eq!(repair.embedding_rows, vec![a, b]);
    // The recomputed set is exactly the patched operator rows, the
    // re-encoded nodes and every row referencing one — derived here
    // independently from the repaired operator.
    let operator = engine.operator().expect("fixture engine carries S");
    let expected: Vec<usize> = (0..n)
        .filter(|&r| {
            repair.operator_rows.contains(&r)
                || repair.embedding_rows.contains(&r)
                || operator
                    .row_iter(r)
                    .any(|(c, _)| repair.embedding_rows.contains(&c))
        })
        .collect();
    assert_eq!(repair.invalidated_rows, expected);
    // The counter matches the reported set exactly — no more, no less.
    assert_eq!(
        after.rows_invalidated - before.rows_invalidated,
        repair.invalidated_rows.len() as u64
    );
    assert_eq!(
        after.rows_repaired - before.rows_repaired,
        repair.operator_rows.len() as u64
    );
    assert_eq!(
        after.embedding_rows_repaired - before.embedding_rows_repaired,
        repair.embedding_rows.len() as u64
    );
    assert_eq!(after.operator_repairs, before.operator_repairs + 1);
    assert_eq!(after.operator_refreshes, before.operator_refreshes);
    // Repair leaves the engine fully consistent: nothing is stale, and
    // every row equals a rebuild on the edited graph.
    assert!(engine.stale_nodes().is_empty());
    let reference = build(&rebuilt(
        &fixture.snapshot,
        Some(operator),
        fixture.maintainer.graph().to_adjacency(),
    ));
    assert_serves_like(&engine, &reference, "repair vs rebuild");
}

#[test]
fn install_operator_recomputes_every_row_while_repair_recomputes_few() {
    // Large and sparse enough that one edit's repair region is a small
    // fraction of the graph.
    let graph = random_graph(60, 8, 77);
    let mut fixture = serving_fixture(&graph, 4, 77);
    let engine = build(&fixture.snapshot);
    let n = graph.num_nodes();

    fixture
        .maintainer
        .apply(EdgeUpdate::Delete(0, 1))
        .expect("edit");
    let repair = engine.repair_from(&mut fixture.maintainer).expect("repair");
    assert!(repair.invalidated_rows.len() < n, "repair must be targeted");

    // The blunt path: a whole-operator install recomputes the table. Half
    // the values, same sparsity: every row with an operator entry moves.
    let mut operator = engine.operator().expect("fixture engine carries S");
    operator.scale(0.5);
    engine.install_operator(operator.clone()).expect("install");
    assert_eq!(engine.stats().operator_refreshes, 1);
    let reference = build(&rebuilt(
        &fixture.snapshot,
        Some(operator),
        fixture.maintainer.graph().to_adjacency(),
    ));
    assert_serves_like(&engine, &reference, "install vs rebuild");
}

#[test]
fn repair_on_an_operatorless_engine_patches_embeddings_only() {
    let graph = random_graph(16, 8, 13);
    let mut fixture = serving_fixture(&graph, 4, 13);
    // Strip the operator: the engine serves Ẑ = H ("SIGMA w/o S").
    let snapshot = rebuilt(&fixture.snapshot, None, fixture.snapshot.adjacency.clone());
    let engine = build(&snapshot);
    assert!(engine.operator().is_none());

    let (a, b) = absent_edge(&graph);
    fixture
        .maintainer
        .apply(EdgeUpdate::Insert(a, b))
        .expect("edit");
    let repair = engine.repair_from(&mut fixture.maintainer).expect("repair");
    assert!(repair.operator_rows.is_empty());
    assert_eq!(repair.embedding_rows, vec![a, b]);
    // Without an operator `Z_u` reads `H_u` alone: exactly the re-encoded
    // nodes are recomputed.
    assert_eq!(repair.invalidated_rows, vec![a, b]);

    // The patched rows must equal a from-scratch engine's on the edited
    // graph, bitwise.
    let reference = build(&rebuilt(
        &snapshot,
        None,
        fixture.maintainer.graph().to_adjacency(),
    ));
    assert_serves_like(&engine, &reference, "H patch vs rebuild");
}

#[test]
fn operatorless_engine_serves_the_eq6_blend_of_h_with_itself() {
    let graph = random_graph(16, 8, 17);
    let fixture = serving_fixture(&graph, 4, 17);
    let snapshot = rebuilt(&fixture.snapshot, None, fixture.snapshot.adjacency.clone());
    let engine = build(&snapshot);
    let h = compute_embeddings(&snapshot.model, &snapshot.features, &snapshot.adjacency)
        .expect("embeddings");
    let alpha = engine.alpha();
    for node in 0..graph.num_nodes() {
        let served = engine.predict(node).expect("predict");
        let expected: Vec<u32> = h
            .row(node)
            .iter()
            .map(|&h| ((1.0 - alpha) * h + alpha * h).to_bits())
            .collect();
        assert_eq!(bits(&served), expected, "node {node}");
    }
}

#[test]
fn reencoded_nodes_are_recomputed_even_without_self_entries() {
    // `Z_u` reads `H_u` through the `α·H_u` term even when operator row
    // `u` has no self-entry; a repair that re-encodes `H_u` must therefore
    // recompute row `u` itself, not only the rows referencing `u`.
    let graph = random_graph(30, 8, 23);
    let fixture = serving_fixture(&graph, 4, 23);
    let n = graph.num_nodes();
    let full = fixture.snapshot.model.operator.clone().expect("operator");
    let (mut indptr, mut indices, mut values) = (vec![0usize], Vec::new(), Vec::new());
    for r in 0..n {
        for (c, v) in full.row_iter(r).filter(|&(c, _)| c != r) {
            indices.push(c as u32);
            values.push(v);
        }
        indptr.push(indices.len());
    }
    let operator = CsrMatrix::from_raw(n, n, indptr, indices, values).expect("operator");
    // An edit whose endpoints do not reference each other: nothing but
    // the re-encoded-node rule reaches rows `a` and `b`.
    let (a, b) = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .find(|&(a, b)| {
            !graph.has_edge(a, b)
                && operator.row_iter(a).all(|(c, _)| c != b)
                && operator.row_iter(b).all(|(c, _)| c != a)
        })
        .expect("an absent, unreferenced pair");
    let snapshot = rebuilt(
        &fixture.snapshot,
        Some(operator.clone()),
        fixture.snapshot.adjacency.clone(),
    );
    let engine = build(&snapshot);
    let mut edges: Vec<(usize, usize)> = graph.edges().collect();
    edges.push((a, b));
    let adjacency = sigma_graph::Graph::from_edges(n, &edges)
        .expect("edited graph")
        .to_adjacency();
    let repair = engine
        .apply_repair(&[], OperatorPatch::None, adjacency.clone(), 0)
        .expect("repair");
    assert_eq!(repair.embedding_rows, vec![a, b]);
    assert!(repair.invalidated_rows.contains(&a) && repair.invalidated_rows.contains(&b));

    let reference = build(&rebuilt(&snapshot, Some(operator), adjacency));
    for node in [a, b] {
        assert_eq!(
            bits(&engine.predict(node).expect("served")),
            bits(&reference.predict(node).expect("reference")),
            "re-encoded node {node} served a stale row"
        );
    }
    assert_serves_like(&engine, &reference, "repair vs rebuild");
}

#[test]
fn queries_racing_operator_swaps_always_serve_the_installed_operator() {
    // Every answer served after `install_operator` returns must come from
    // the installed operator, whatever the queries racing the swap read.
    let graph = random_graph(24, 16, 99);
    let fixture = serving_fixture(&graph, 5, 99);
    let n = graph.num_nodes();
    let engine = Arc::new(build(&fixture.snapshot));
    let operator_a = engine.operator().expect("initial operator");
    let mut operator_b = operator_a.clone();
    operator_b.scale(0.5); // same sparsity, different values

    // Reference engines for both operators, never mutated.
    let reference = |operator: CsrMatrix| {
        build(&rebuilt(
            &fixture.snapshot,
            Some(operator),
            fixture.snapshot.adjacency.clone(),
        ))
    };
    let reference_a = reference(operator_a.clone());
    let reference_b = reference(operator_b.clone());

    let stop = Arc::new(AtomicBool::new(false));
    let querier = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let all: Vec<usize> = (0..n).collect();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = engine.predict_batch(&all).expect("concurrent query");
            }
        })
    };

    for round in 0..40 {
        let (operator, reference) = if round % 2 == 0 {
            (operator_b.clone(), &reference_b)
        } else {
            (operator_a.clone(), &reference_a)
        };
        engine.install_operator(operator).expect("swap");
        assert_serves_like(&engine, reference, &format!("round {round}"));
    }
    stop.store(true, Ordering::Relaxed);
    querier.join().expect("querier thread");
}
