//! End-to-end serving tests: train → snapshot → restore → serve, asserting
//! that served logits match the in-memory full-graph forward pass.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{ContextBuilder, Model, ModelHyperParams, SigmaModel, TrainConfig, Trainer};
use sigma_datasets::{generate, GeneratorConfig};
use sigma_matrix::DenseMatrix;
use sigma_serve::{EngineConfig, InferenceEngine, ServeError, ServeSnapshot};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, SimRankConfig};

const TOP_K: usize = 8;

struct Fixture {
    snapshot: ServeSnapshot,
    /// Full-graph eval-mode logits of the trained model.
    full_logits: DenseMatrix,
    labels: Vec<usize>,
}

fn trained_fixture(seed: u64) -> Fixture {
    let cfg = GeneratorConfig::new(90, 6.0, 3, 10)
        .with_homophily(0.2)
        .with_feature_snr(1.2, 0.9)
        .with_name("serve-round-trip");
    let data = generate(&cfg, seed).unwrap();
    let split = data.default_split(seed).unwrap();
    let labels = data.labels.clone();
    let features = data.features.clone();
    let adjacency = data.graph.to_adjacency();
    let ctx = ContextBuilder::new(data)
        .with_simrank_topk(TOP_K)
        .build()
        .unwrap();

    let hyper = ModelHyperParams::small();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = SigmaModel::new(&ctx, &hyper, &mut rng).unwrap();
    Trainer::new(TrainConfig {
        epochs: 40,
        patience: 0,
        ..TrainConfig::default()
    })
    .train(&mut model as &mut dyn Model, &ctx, &split, seed)
    .unwrap();

    let mut eval_rng = StdRng::seed_from_u64(0);
    let full_logits = model.forward(&ctx, false, &mut eval_rng).unwrap();
    let snapshot = ServeSnapshot::new(
        "round-trip-fixture",
        model.snapshot(&ctx).unwrap(),
        features,
        adjacency,
    )
    .unwrap();
    Fixture {
        snapshot,
        full_logits,
        labels,
    }
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "{what}: component {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn served_logits_match_full_graph_forward_after_disk_round_trip() {
    let fixture = trained_fixture(11);
    let n = fixture.snapshot.num_nodes();

    // Disk round trip.
    let path = std::env::temp_dir().join("sigma-serve-round-trip.snapshot");
    fixture.snapshot.save(&path).unwrap();
    let loaded = ServeSnapshot::load(&path).unwrap();
    assert_eq!(loaded, fixture.snapshot);
    let _ = std::fs::remove_file(&path);

    // Restored model reproduces the training-side forward bitwise.
    let restored = SigmaModel::restore(&loaded.model).unwrap();
    assert_eq!(restored.num_parameters(), loaded.model.num_parameters());

    // The engine serves every node with logits within 1e-6 of the full
    // forward pass (they are computed by the same f32 operations, so this is
    // effectively bitwise).
    let engine = InferenceEngine::new(&loaded, EngineConfig::default()).unwrap();
    assert_eq!(engine.num_nodes(), n);
    let all: Vec<usize> = (0..n).collect();
    let served = engine.predict_batch(&all).unwrap();
    assert_eq!(served.len(), n);
    for prediction in &served {
        assert_close(
            &prediction.logits,
            fixture.full_logits.row(prediction.node),
            1e-6,
            "served vs full forward",
        );
        assert!(!prediction.stale);
    }

    // Serving agrees with training-side argmax labels everywhere.
    let full_labels = fixture.full_logits.argmax_rows();
    for prediction in &served {
        assert_eq!(prediction.label, full_labels[prediction.node]);
    }
    // Sanity: the model actually learned something about the training graph.
    let correct = served
        .iter()
        .filter(|p| p.label == fixture.labels[p.node])
        .count();
    assert!(
        correct as f64 / n as f64 > 1.0 / 3.0,
        "served accuracy at chance level: {correct}/{n}"
    );
}

#[test]
fn single_and_batched_queries_agree() {
    let fixture = trained_fixture(13);
    let engine = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap();

    let first = engine.predict(5).unwrap();
    let second = engine.predict(5).unwrap();
    assert_eq!(first, second, "repeat queries serve the same row");

    let batch = engine.predict_batch(&[5, 6, 5, 7]).unwrap();
    assert_eq!(batch.len(), 4);
    assert_eq!(batch[0], first);
    assert_eq!(batch[2], first);
    assert_eq!(batch[1], engine.predict(6).unwrap());

    let stats = engine.stats();
    assert_eq!(stats.nodes_served, 7);
    assert_eq!(stats.batches_served, 4);
}

#[test]
fn large_batches_are_served_in_order() {
    let fixture = trained_fixture(17);
    let n = fixture.snapshot.num_nodes();
    let engine = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap();
    let nodes: Vec<usize> = (0..n).chain(0..n).collect();
    let served = engine.predict_batch(&nodes).unwrap();
    assert_eq!(served.len(), 2 * n);
    for (slot, prediction) in served.iter().enumerate() {
        assert_eq!(prediction.node, nodes[slot], "order must be preserved");
        assert_close(
            &prediction.logits,
            fixture.full_logits.row(prediction.node),
            1e-6,
            "batched serving vs full forward",
        );
    }
    assert_eq!(engine.stats().batches_served, 1);
}

#[test]
fn concurrent_callers_share_one_engine() {
    let fixture = trained_fixture(19);
    let n = fixture.snapshot.num_nodes();
    let engine = std::sync::Arc::new(
        InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap(),
    );
    let expected = std::sync::Arc::new(fixture.full_logits);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let engine = std::sync::Arc::clone(&engine);
            let expected = std::sync::Arc::clone(&expected);
            std::thread::spawn(move || {
                for round in 0..5 {
                    let nodes: Vec<usize> = (0..n).map(|i| (i * (t + 1) + round) % n).collect();
                    let served = engine.predict_batch(&nodes).unwrap();
                    for p in served {
                        let row = expected.row(p.node);
                        for (a, b) in p.logits.iter().zip(row.iter()) {
                            assert!((a - b).abs() <= 1e-6);
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(engine.stats().nodes_served as usize, 4 * 5 * n);
}

#[test]
fn queries_out_of_range_are_rejected() {
    let fixture = trained_fixture(23);
    let n = fixture.snapshot.num_nodes();
    let engine = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap();
    assert!(matches!(
        engine.predict(n),
        Err(ServeError::InvalidQuery { .. })
    ));
    assert!(matches!(
        engine.predict_batch(&[0, n + 5]),
        Err(ServeError::InvalidQuery { .. })
    ));
    // A large batch surfaces the error too, serving nothing.
    let mut nodes: Vec<usize> = (0..n).collect();
    nodes.push(n + 1);
    assert!(engine.predict_batch(&nodes).is_err());
}

#[test]
fn edge_updates_invalidate_affected_rows_and_mark_them_stale() {
    let fixture = trained_fixture(29);
    let engine = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap();
    let n = fixture.snapshot.num_nodes();

    let invalidated = engine
        .apply_edge_updates(&[EdgeUpdate::Insert(0, 1)])
        .unwrap();
    let stale = engine.stale_nodes();
    assert!(stale.contains(&0) && stale.contains(&1));
    assert_eq!(
        invalidated,
        stale.len(),
        "the returned count is the number of rows marked stale"
    );
    assert!(invalidated < n, "invalidation must be targeted");

    // Predictions for stale nodes are flagged; untouched nodes are not.
    let p0 = engine.predict(0).unwrap();
    assert!(p0.stale);
    let fresh_node = (0..n)
        .find(|v| !stale.contains(v))
        .expect("some fresh node");
    assert!(!engine.predict(fresh_node).unwrap().stale);

    // Out-of-range updates are rejected.
    assert!(engine
        .apply_edge_updates(&[EdgeUpdate::Insert(0, n + 3)])
        .is_err());
    assert_eq!(engine.stats().rows_invalidated, invalidated as u64);
}

#[test]
fn dynamic_maintainer_refresh_swaps_the_operator() {
    let fixture = trained_fixture(31);
    let n = fixture.snapshot.num_nodes();
    let engine = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap();

    // A maintainer over the same graph with a small staleness budget.
    let graph = sigma::graph::Graph::from_edges(
        n,
        &fixture
            .snapshot
            .adjacency
            .indptr()
            .windows(2)
            .enumerate()
            .flat_map(|(u, w)| {
                fixture.snapshot.adjacency.indices()[w[0]..w[1]]
                    .iter()
                    .map(move |&v| (u, v as usize))
                    .filter(|&(u, v)| u < v)
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut maintainer =
        DynamicSimRank::new(graph, SimRankConfig::default().with_top_k(TOP_K), 2).unwrap();
    maintainer.refresh().unwrap();

    // Within budget: sync marks affected nodes stale but keeps the operator.
    maintainer.apply(EdgeUpdate::Insert(0, n / 2)).unwrap();
    let refreshed = engine.sync_with(&mut maintainer).unwrap();
    assert!(!refreshed);
    assert!(!engine.stale_nodes().is_empty());

    // Exceed the budget: sync installs the recomputed operator and clears
    // the staleness set.
    maintainer.apply(EdgeUpdate::Insert(1, n / 2 + 1)).unwrap();
    maintainer.apply(EdgeUpdate::Insert(2, n / 2 + 2)).unwrap();
    assert!(maintainer.needs_refresh());
    let refreshed = engine.sync_with(&mut maintainer).unwrap();
    assert!(refreshed);
    assert!(engine.stale_nodes().is_empty());
    assert_eq!(engine.stats().operator_refreshes, 1);
    // Serving still works against the refreshed operator.
    let p = engine.predict(0).unwrap();
    assert_eq!(p.logits.len(), engine.num_classes());
    assert!(!p.stale);
}

#[test]
fn corrupted_files_are_rejected_with_typed_errors() {
    let fixture = trained_fixture(37);
    let mut buf = Vec::new();
    fixture.snapshot.write_to(&mut buf).unwrap();

    // Round trip from memory.
    let loaded = ServeSnapshot::read_from(&mut buf.as_slice()).unwrap();
    assert_eq!(loaded, fixture.snapshot);

    // Bad magic.
    let mut bad_magic = buf.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        ServeSnapshot::read_from(&mut bad_magic.as_slice()),
        Err(ServeError::Corrupt { .. })
    ));

    // Future version.
    let mut future = buf.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        ServeSnapshot::read_from(&mut future.as_slice()),
        Err(ServeError::UnsupportedVersion { found: 99, .. })
    ));

    // Truncation anywhere in the tail surfaces as Io or Corrupt, never a
    // panic.
    for cut in [buf.len() / 3, buf.len() / 2, buf.len() - 1] {
        let truncated = &buf[..cut];
        match ServeSnapshot::read_from(&mut &truncated[..]) {
            Err(ServeError::Io(_)) | Err(ServeError::Corrupt { .. }) => {}
            other => panic!("truncated read at {cut} returned {other:?}"),
        }
    }

    // Missing file.
    assert!(matches!(
        ServeSnapshot::load("/nonexistent/sigma.snapshot"),
        Err(ServeError::Io(_))
    ));
}
