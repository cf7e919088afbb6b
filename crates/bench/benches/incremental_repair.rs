//! Incremental operator repair vs full refresh on fig5-sized pokec-like
//! graphs.
//!
//! For each graph size the bench measures (a) a from-scratch seed-decomposed
//! LocalPush refresh — scores plus top-k operator — and (b) an incremental
//! `DynamicSimRank::repair` after `k` edge edits, patching only the dirty
//! region. Push counts are deterministic, so the bench *asserts* the
//! locality claim (repair re-pushes strictly fewer seeds than the full run)
//! and reports wall-clock times, each the median of [`SAMPLES`] independent
//! measurements; everything is also emitted as `BENCH_incremental.json` at
//! the repository root to seed the performance trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use sigma_bench::{BenchConfig, TablePrinter};
use sigma_datasets::DatasetPreset;
use sigma_simrank::{DynamicSimRank, EdgeUpdate, LocalPush, RepairOutcome, SimRankConfig};
use std::time::Instant;

/// Independent measurements per graph size; the reported times are their
/// medians (a single run on a shared 2-core host varied up to 4×).
const SAMPLES: usize = 5;

struct Row {
    nodes: usize,
    edges: usize,
    edits: usize,
    full_ms: f64,
    repair_ms: f64,
    full_pushes: usize,
    repair_pushes: usize,
    changed_rows: usize,
}

fn measure(scale: f64, edits: usize) -> Row {
    let data = DatasetPreset::Pokec.build(scale, 47).expect("preset");
    let graph = data.graph;
    let n = graph.num_nodes();
    let config = SimRankConfig::default().with_top_k(16);

    let mut maintainer =
        DynamicSimRank::new(graph.clone(), config, usize::MAX / 2).expect("maintainer");
    let _ = maintainer.operator().expect("initial operator");

    // A deterministic mixed edit batch: chord inserts plus ring deletions.
    let updates: Vec<EdgeUpdate> = (0..edits)
        .map(|i| {
            if i % 2 == 0 {
                EdgeUpdate::Insert((i * 17) % n, (i * 17 + n / 2) % n)
            } else {
                EdgeUpdate::Delete((i * 29) % n, (i * 29 + 1) % n)
            }
        })
        .collect();
    maintainer.apply_batch(&updates).expect("edits in bounds");

    // Incremental path: repair the decomposition and patch the operator.
    let start = Instant::now();
    let outcome = maintainer.repair().expect("repair");
    let _patched_operator = maintainer.operator().expect("patched operator");
    let repair_time = start.elapsed();
    let repair = match outcome {
        RepairOutcome::Patched(repair) => repair,
        RepairOutcome::FullRefresh => panic!("maintainer lost its decomposition"),
    };

    // Reference path: from-scratch refresh on the edited graph.
    let edited = maintainer.graph().clone();
    let mut solver = LocalPush::new(&edited, config).expect("solver");
    let start = Instant::now();
    let fresh = solver.run_decomposed();
    let scores = fresh.assemble();
    let reference_operator = scores.to_csr(config.top_k);
    let full_time = start.elapsed();

    // Deterministic correctness + locality guarantees, asserted on every
    // bench run: identical operators, strictly less push work.
    assert_eq!(
        maintainer.operator().expect("patched operator"),
        reference_operator,
        "repair diverged from the full refresh"
    );
    assert!(
        repair.pushes < solver.pushes_performed(),
        "repair re-pushed no fewer seeds than the full run ({} vs {})",
        repair.pushes,
        solver.pushes_performed()
    );

    Row {
        nodes: n,
        edges: edited.num_edges(),
        edits: updates.len(),
        full_ms: full_time.as_secs_f64() * 1e3,
        repair_ms: repair_time.as_secs_f64() * 1e3,
        full_pushes: solver.pushes_performed(),
        repair_pushes: repair.pushes,
        changed_rows: repair.changed_rows.len(),
    }
}

fn emit_json(rows: &[Row]) {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"nodes\": {}, \"edges\": {}, \"edits\": {}, \"full_ms\": {:.3}, \
             \"repair_ms\": {:.3}, \"full_pushes\": {}, \"repair_pushes\": {}, \
             \"changed_rows\": {}}}{}\n",
            row.nodes,
            row.edges,
            row.edits,
            row.full_ms,
            row.repair_ms,
            row.full_pushes,
            row.repair_pushes,
            row.changed_rows,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(root, out).expect("write BENCH_incremental.json at the repo root");
    println!("wrote {root}");
}

fn incremental_repair_benchmarks(_c: &mut Criterion) {
    let cfg = BenchConfig::from_env();
    let mut table = TablePrinter::new(vec![
        "nodes",
        "edges",
        "edits",
        "full (ms)",
        "repair (ms)",
        "speed-up",
        "pushes full",
        "pushes repair",
        "rows patched",
    ]);
    let mut rows = Vec::new();
    for i in (0..3i32).rev() {
        let scale = cfg.scale * 1.6 / 2.5f64.powi(i);
        let samples: Vec<Row> = (0..SAMPLES).map(|_| measure(scale, 4)).collect();
        let median = |time: fn(&Row) -> f64| {
            let mut times: Vec<f64> = samples.iter().map(time).collect();
            times.sort_by(f64::total_cmp);
            times[SAMPLES / 2]
        };
        let (full_ms, repair_ms) = (median(|r| r.full_ms), median(|r| r.repair_ms));
        let row = Row {
            full_ms,
            repair_ms,
            ..samples.into_iter().next().expect("SAMPLES > 0")
        };
        table.add_row(vec![
            row.nodes.to_string(),
            row.edges.to_string(),
            row.edits.to_string(),
            format!("{:.2}", row.full_ms),
            format!("{:.2}", row.repair_ms),
            format!("{:.2}x", row.full_ms / row.repair_ms.max(1e-9)),
            row.full_pushes.to_string(),
            row.repair_pushes.to_string(),
            row.changed_rows.to_string(),
        ]);
        rows.push(row);
    }
    table.print("Incremental repair vs full refresh (pokec-like, 4 edits)");
    emit_json(&rows);
}

criterion_group!(benches, incremental_repair_benchmarks);
criterion_main!(benches);
