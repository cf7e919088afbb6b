//! Metrics quickstart: serve a few queries, repair after an edge edit, then
//! print what the `sigma-obs` layer saw — Prometheus exposition, the JSON
//! snapshot, and the most recent kernel spans.
//!
//! Everything below runs through the ordinary public APIs: the engine,
//! kernels, thread pool and repair path register their own counters and
//! histograms with the process-wide registry, so observing them is one
//! `sigma_obs::prometheus_text()` call. Build with `--no-default-features`
//! and the same program compiles to a no-op metrics layer (this example
//! then just says so and exits).
//!
//! Run with:
//! ```sh
//! cargo run --release --example metrics_quickstart
//! ```

use sigma_simrank::EdgeUpdate;
use sigma_testutil::{random_graph, serving_fixture};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if !sigma_obs::ENABLED {
        println!("sigma-obs is compiled out (`--no-default-features`); nothing to report.");
        return Ok(());
    }

    // 1. A small serving stack: graph, SimRank maintainer, untrained model,
    //    inference engine (see `serve_quickstart` for the trained version).
    let graph = random_graph(120, 10, 7);
    let mut fixture = serving_fixture(&graph, 8, 7);
    let n = graph.num_nodes();
    let engine =
        sigma_serve::InferenceEngine::new(&fixture.snapshot, sigma_serve::EngineConfig::default())?;

    // 2. Traffic: a batch sweep, a repeat, single queries, then an edge
    //    edit followed by an incremental repair.
    let all: Vec<usize> = (0..n).collect();
    let _ = engine.predict_batch(&all)?;
    let _ = engine.predict_batch(&all[..n / 2])?;
    for node in 0..8 {
        let _ = engine.predict(node)?;
    }
    fixture.maintainer.apply(EdgeUpdate::Insert(3, n / 2))?;
    let repair = engine.repair_from(&mut fixture.maintainer)?;
    println!(
        "served {} nodes; repair patched {} operator rows\n",
        engine.stats().nodes_served,
        repair.operator_rows.len()
    );

    // 3. Prometheus text exposition: every registered counter, gauge and
    //    histogram (kernels, pool, scratch, serving, spans) in one page.
    println!("--- prometheus exposition ---");
    print!("{}", sigma_obs::prometheus_text());

    // 4. The same snapshot as JSON, for dashboards that want structure.
    println!("\n--- json snapshot (excerpt) ---");
    let json = sigma_obs::snapshot().to_json();
    for line in json.lines().take(24) {
        println!("{line}");
    }
    println!("  ... ({} lines total)", json.lines().count());

    // 5. Recent spans: the per-call trace ring behind the span histograms.
    println!("\n--- most recent spans ---");
    let spans = sigma_obs::recent_spans();
    for span in spans.iter().rev().take(6) {
        println!(
            "{:>14}  {:>9} ns  value {}",
            span.name, span.duration_ns, span.value
        );
    }
    Ok(())
}
