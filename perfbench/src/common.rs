//! Pieces every workload shares: the result record, the obs counters read
//! as counts, the memory high-water mark, seeded graph edits and repair.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigma_graph::Graph;
use sigma_serve::{InferenceEngine, OperatorPatch, Prediction};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, LocalPush, RepairOutcome, SimRankConfig};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// SimRank operator width used by every workload.
const TOP_K: usize = 16;
/// Edits per `/v1/edges` round: two chord inserts and two deletions.
pub const EDITS_PER_ROUND: usize = 4;
/// A read answered later than this misses the latency limit.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(2);

pub fn simrank_config() -> SimRankConfig {
    SimRankConfig::default().with_top_k(TOP_K)
}

/// A maintainer over `graph` whose operator is already materialised, so
/// later repairs patch rows instead of refreshing.
pub fn maintainer(graph: &Graph) -> (DynamicSimRank, sigma_matrix::CsrMatrix) {
    let mut maintainer = DynamicSimRank::new(graph.clone(), simrank_config(), usize::MAX / 2)
        .expect("valid SimRank config");
    let operator = maintainer
        .operator()
        .expect("operator over a generated graph");
    (maintainer, operator)
}

/// Residual pushes of the decomposed LocalPush solve behind a maintainer's
/// operator. That solve bumps no obs counter, so the count comes from
/// running it once more, outside any timed span.
pub fn operator_pushes(graph: &Graph) -> f64 {
    let mut solver = LocalPush::new(graph, simrank_config()).expect("valid SimRank config");
    solver.run_decomposed();
    solver.pushes_performed() as f64
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failure counted in `failed`.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Set when the load generator, not the program, ran late: the
    /// latencies then overstate the program's.
    pub invalid: Option<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Counts one checked operation, failing it with `problem` unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(problem());
        }
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }
}

/// The obs counters the per-layer metrics read, as one coherent snapshot.
#[derive(Clone, Copy)]
pub struct Counters {
    pub spmm_calls: u64,
    pub spmm_nnz: u64,
    pub pool_tasks: u64,
    pub busy_ns: u64,
    pub at: Instant,
}

impl Counters {
    pub fn read() -> Self {
        let snap = sigma_obs::snapshot();
        let sum = |name: &str| -> u64 {
            snap.entries
                .iter()
                .filter(|e| e.name == name)
                .map(|e| match e.value {
                    sigma_obs::MetricValue::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        };
        Counters {
            spmm_calls: sum("sigma_spmm_calls_total")
                + sum("sigma_spmm_transpose_calls_total")
                + sum("sigma_spmm_rows_calls_total"),
            spmm_nnz: sum("sigma_spmm_nnz_total") + sum("sigma_spmm_transpose_nnz_total"),
            pool_tasks: sum("sigma_pool_tasks_total"),
            busy_ns: sum("sigma_pool_worker_busy_ns") + sum("sigma_pool_submitter_busy_ns"),
            at: Instant::now(),
        }
    }

    /// Sets the matrix and parallel per-layer metrics from `self − before`.
    pub fn report_since(&self, before: &Counters, report: &mut Report) {
        report.set(
            "matrix.spmm_calls",
            (self.spmm_calls - before.spmm_calls) as f64,
        );
        report.set("matrix.spmm_nnz", (self.spmm_nnz - before.spmm_nnz) as f64);
        report.set(
            "parallel.tasks",
            (self.pool_tasks - before.pool_tasks) as f64,
        );
        let wall = (self.at - before.at).as_nanos() as f64;
        let capacity = wall * sigma_parallel::current_threads() as f64;
        report.set(
            "parallel.busy_frac",
            (self.busy_ns - before.busy_ns) as f64 / capacity.max(1.0),
        );
    }
}

/// The process's resident-set high-water mark, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `rounds` edit rounds against `graph`, fixed by `seed`: each round
/// inserts two chords absent from the graph and deletes two edges present
/// in it. No edge is touched twice, so every edit changes the graph.
pub fn plan_edits(graph: &Graph, rounds: usize, seed: u64) -> Vec<Vec<EdgeUpdate>> {
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xed17_5eed);
    let mut used = HashSet::new();
    let key = |u: usize, v: usize| (u.min(v), u.max(v));
    (0..rounds)
        .map(|_| {
            let mut round = Vec::with_capacity(EDITS_PER_ROUND);
            while round.len() < EDITS_PER_ROUND / 2 {
                let u = rng.gen_range(0..n);
                let v = (u + n / 2 + rng.gen_range(0..n / 4)) % n;
                if u != v && !graph.has_edge(u, v) && used.insert(key(u, v)) {
                    round.push(EdgeUpdate::Insert(u, v));
                }
            }
            while round.len() < EDITS_PER_ROUND {
                let u = rng.gen_range(0..n);
                let neighbours = graph.neighbors(u);
                if neighbours.is_empty() {
                    continue;
                }
                let v = neighbours[rng.gen_range(0..neighbours.len())] as usize;
                if u != v && used.insert(key(u, v)) {
                    round.push(EdgeUpdate::Delete(u, v));
                }
            }
            round
        })
        .collect()
}

/// The JSON body of `POST /v1/edges`.
pub fn edges_body(updates: &[EdgeUpdate]) -> String {
    let items: Vec<String> = updates
        .iter()
        .map(|u| match *u {
            EdgeUpdate::Insert(a, b) => format!("{{\"op\": \"insert\", \"u\": {a}, \"v\": {b}}}"),
            EdgeUpdate::Delete(a, b) => format!("{{\"op\": \"delete\", \"u\": {a}, \"v\": {b}}}"),
        })
        .collect();
    format!("{{\"updates\": [{}]}}", items.join(", "))
}

/// Applies one edit round in process: the edits reach the maintainer and
/// the engine, then the two halves of `InferenceEngine::repair_from` run as
/// separate calls (`simrank.repair`: the maintainer's repair and row
/// payload; `serve.repair_apply`: the engine patch) so each can be timed.
/// Returns the round's wall time.
pub fn edit_round(
    maintainer: &mut DynamicSimRank,
    engine: &InferenceEngine,
    updates: &[EdgeUpdate],
    tracer: &Tracer,
    parent: Option<u64>,
) -> Duration {
    let start = Instant::now();
    let root = tracer.span("bench.edit_round", parent);
    {
        let _s = tracer.span("simrank.apply", root.id());
        maintainer.apply_batch(updates).expect("edits are in range");
    }
    {
        let _s = tracer.span("serve.edge_updates", root.id());
        engine
            .apply_edge_updates(updates)
            .expect("edits are in range");
    }
    let (rows, patch, dirty) = {
        let _s = tracer.span("simrank.repair", root.id());
        match maintainer.repair().expect("repair") {
            RepairOutcome::Patched(repair) => {
                let rows = repair.changed_rows.clone();
                let payload = maintainer.operator_rows(&rows).expect("rows in range");
                (
                    rows,
                    OperatorPatch::Rows(payload),
                    repair.dirty_seeds as u64,
                )
            }
            RepairOutcome::FullRefresh => {
                let operator = maintainer.operator().expect("operator");
                (
                    (0..engine.num_nodes()).collect(),
                    OperatorPatch::Full(operator),
                    0,
                )
            }
        }
    };
    {
        let _s = tracer.span("serve.repair_apply", root.id());
        engine
            .apply_repair(&rows, patch, maintainer.graph().to_adjacency(), dirty)
            .expect("repair applies");
    }
    drop(root);
    start.elapsed()
}

/// Whether two answers carry the same label and bit-identical logits.
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    a.node == b.node
        && a.label == b.label
        && a.logits.len() == b.logits.len()
        && a.logits
            .iter()
            .zip(&b.logits)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Index of the first maximum, the engine's tie-break.
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_edits_all_change_the_graph() {
        let data = sigma_datasets::DatasetPreset::Pokec.build(0.2, 3).unwrap();
        let rounds = plan_edits(&data.graph, 12, 5);
        assert_eq!(rounds, plan_edits(&data.graph, 12, 5));
        let mut graph_edges: HashSet<(usize, usize)> = data.graph.edges().collect();
        for round in &rounds {
            assert_eq!(round.len(), EDITS_PER_ROUND);
            for update in round {
                match *update {
                    EdgeUpdate::Insert(u, v) => {
                        assert!(
                            graph_edges.insert((u.min(v), u.max(v))),
                            "insert of an edge present"
                        )
                    }
                    EdgeUpdate::Delete(u, v) => {
                        assert!(
                            graph_edges.remove(&(u.min(v), u.max(v))),
                            "delete of an edge absent"
                        )
                    }
                }
            }
        }
    }
}
