//! Serving quickstart: train SIGMA once, snapshot it to disk, then serve
//! online node-classification queries from the snapshot — including
//! staleness under a stream of edge updates.
//!
//! This is the deployment path the precompute-then-serve design enables: the
//! trained weights and the constant top-k SimRank operator are the whole
//! model, so the served logits are an `n × C` table computed once at engine
//! start, and a query for `b` nodes is `b` row reads instead of a
//! full-graph forward pass.
//!
//! Run with:
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{ContextBuilder, Model, ModelHyperParams, SigmaModel, TrainConfig, Trainer};
use sigma_datasets::DatasetPreset;
use sigma_serve::{EngineConfig, InferenceEngine, ServeSnapshot};
use sigma_simrank::EdgeUpdate;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train SIGMA on a chameleon-like heterophilous graph.
    let data = DatasetPreset::Chameleon.build(0.8, 13)?;
    println!("dataset  : {}", data.summary());
    let split = data.default_split(13)?;
    let features = data.features.clone();
    let adjacency = data.graph.to_adjacency();
    let labels = data.labels.clone();
    let ctx = ContextBuilder::new(data).with_simrank_topk(16).build()?;

    let hyper = ModelHyperParams::small();
    let mut rng = StdRng::seed_from_u64(13);
    let mut model = SigmaModel::new(&ctx, &hyper, &mut rng)?;
    let report = Trainer::new(TrainConfig {
        epochs: 120,
        patience: 40,
        ..TrainConfig::default()
    })
    .train(&mut model as &mut dyn Model, &ctx, &split, 13)?;
    println!(
        "training : test acc {:.1}% in {:.2?}",
        report.test_accuracy * 100.0,
        report.train_time
    );

    // 2. Snapshot: weights + operator + serving inputs in one binary file.
    let snapshot = ServeSnapshot::new(
        "chameleon-quickstart",
        model.snapshot(&ctx)?,
        features,
        adjacency,
    )?;
    let path = std::env::temp_dir().join("sigma-serve-quickstart.snapshot");
    snapshot.save(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "snapshot : {} ({:.1} KiB)",
        path.display(),
        bytes as f64 / 1024.0
    );

    // 3. Load and build the engine: one full-graph encoder pass and one
    //    SpMM materialise the logits table, so every query is a row read.
    let loaded = ServeSnapshot::load(&path)?;
    let start = Instant::now();
    let engine = InferenceEngine::new(&loaded, EngineConfig::default())?;
    println!(
        "engine   : {} nodes, {} classes, built in {:.2?}",
        engine.num_nodes(),
        engine.num_classes(),
        start.elapsed()
    );

    // 4. A single query.
    let first = engine.predict(7)?;
    println!("query 7  : label {} (true {})", first.label, labels[7]);

    // 5. A batched query over every node.
    let batch: Vec<usize> = (0..engine.num_nodes()).collect();
    let start = Instant::now();
    let served = engine.predict_batch(&batch)?;
    let correct = served.iter().filter(|p| p.label == labels[p.node]).count();
    println!(
        "batch    : {} nodes in {:.2?}, served accuracy {:.1}%",
        served.len(),
        start.elapsed(),
        correct as f64 / served.len() as f64 * 100.0
    );

    // 6. Edge updates arrive: affected rows are marked stale, and served
    //    predictions are flagged stale until a refresh or repair.
    let updates = [EdgeUpdate::Insert(7, 20), EdgeUpdate::Delete(3, 4)];
    let invalidated = engine.apply_edge_updates(&updates)?;
    let stale = engine.predict(7)?;
    println!(
        "updates  : {} rows marked stale, node 7 stale: {}",
        invalidated, stale.stale
    );
    let stats = engine.stats();
    println!(
        "stats    : {} nodes served, {} rows invalidated",
        stats.nodes_served, stats.rows_invalidated
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
