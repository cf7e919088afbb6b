//! The decomposed LocalPush solver reports its work through the global
//! `sigma_localpush_*` counters and the `localpush_decomposed` /
//! `simrank_assemble` spans.
//!
//! The counters are process-wide, so this file is its own test binary with
//! a single test: no other test can bump them between the readings. With
//! the `obs` feature disabled the instrumentation compiles out and there is
//! nothing to check.
#![cfg(feature = "obs")]

use sigma_graph::Graph;
use sigma_simrank::{LocalPush, SimRankConfig};

fn counters() -> (u64, u64) {
    let snap = sigma_obs::snapshot();
    (
        snap.counter("sigma_localpush_runs_total"),
        snap.counter("sigma_localpush_pushes_total"),
    )
}

#[test]
fn decomposed_solve_and_repair_bump_counters_and_record_spans() {
    let n = 40;
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| [(u, (u + 1) % n), (u, (u + 7) % n)])
        .collect();
    let graph = Graph::from_edges(n, &edges).unwrap();
    let cfg = SimRankConfig::default();

    let (runs0, pushes0) = counters();
    let mut solver = LocalPush::new(&graph, cfg).unwrap();
    let mut decomposed = solver.run_decomposed();
    let (runs1, pushes1) = counters();
    assert_eq!(runs1 - runs0, n as u64, "one run per seed process");
    assert_eq!(pushes1 - pushes0, solver.pushes_performed() as u64);
    assert!(solver.pushes_performed() > 0);

    let mut edited = edges.clone();
    edited.push((0, 20));
    let edited = Graph::from_edges(n, &edited).unwrap();
    let mut repairer = LocalPush::new(&edited, cfg).unwrap();
    let report = repairer.repair(&mut decomposed, &[0, 20]).unwrap();
    let (runs2, pushes2) = counters();
    assert_eq!(runs2 - runs1, report.dirty_seeds.len() as u64);
    assert_eq!(pushes2 - pushes1, repairer.pushes_performed() as u64);
    assert_eq!(report.pushes, repairer.pushes_performed());

    let mut scores = decomposed.assemble();
    decomposed.assemble_rows_into(&mut scores, &report.changed_rows);
    sigma_obs::flush_thread_spans();
    let snap = sigma_obs::snapshot();
    for span in ["localpush_decomposed", "simrank_assemble"] {
        let name = format!("sigma_span_{span}_duration_ns");
        assert!(snap.get(&name).is_some(), "span {span} was not recorded");
    }
}
