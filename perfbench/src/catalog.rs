//! Every metric the benchmark reports, with the end-to-end metric and
//! workload each per-layer metric should move. `BENCHMARK.json` lists the
//! same names; a self-test keeps the two in step.

pub const WORKLOADS: &[&str] = &["train_pokec", "serve_hot", "serve_churn"];

/// `(name, unit, better)`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("test_acc", "fraction", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("p50_us", "us", "lower"),
    ("goodput_rps", "req/s", "higher"),
    ("edit_visible_ms", "ms", "lower"),
    ("ok_frac", "fraction", "higher"),
];

/// `(name, unit, better, end-to-end metric @ workload it should move)`.
/// Per-layer metrics a workload does not exercise read 0. `p99_us`, the
/// read-latency tail, is reported here rather than gated end to end: on a
/// 2-vCPU virtual machine, 10–20 ms hypervisor stalls set it, and its
/// run-to-run spread exceeded the largest bound an end-to-end metric may
/// have.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("p99_us", "us", "lower", "tail behind p50_us@all"),
    ("datasets.generate_s", "s", "lower", "setup_s@all"),
    (
        "simrank.operator_s",
        "s",
        "lower",
        "pipeline_s@train_pokec setup_s@serve_*",
    ),
    (
        "simrank.pushes",
        "count",
        "lower",
        "pipeline_s@train_pokec setup_s@serve_*",
    ),
    (
        "simrank.operator_nnz",
        "count",
        "lower",
        "pipeline_s@train_pokec setup_s@serve_*",
    ),
    (
        "simrank.repair_ms",
        "ms",
        "lower",
        "edit_visible_ms@serve_churn",
    ),
    (
        "simrank.dirty_seeds",
        "count",
        "lower",
        "edit_visible_ms@serve_churn",
    ),
    (
        "core.train_s",
        "s",
        "lower",
        "pipeline_s,peak_rss_mb@train_pokec",
    ),
    (
        "core.aggregation_s",
        "s",
        "lower",
        "pipeline_s,peak_rss_mb@train_pokec",
    ),
    (
        "core.forward_ms",
        "ms",
        "lower",
        "pipeline_s,peak_rss_mb@train_pokec",
    ),
    (
        "core.backward_ms",
        "ms",
        "lower",
        "pipeline_s,peak_rss_mb@train_pokec",
    ),
    (
        "core.step_ms",
        "ms",
        "lower",
        "pipeline_s,peak_rss_mb@train_pokec",
    ),
    (
        "matrix.spmm_calls",
        "count",
        "lower",
        "pipeline_s@train_pokec p50_us@serve_churn",
    ),
    (
        "matrix.spmm_nnz",
        "count",
        "lower",
        "pipeline_s@train_pokec p50_us@serve_churn",
    ),
    (
        "parallel.tasks",
        "count",
        "lower",
        "pipeline_s@train_pokec p50_us@serve_churn",
    ),
    (
        "parallel.busy_frac",
        "fraction",
        "higher",
        "pipeline_s@train_pokec p50_us@serve_churn",
    ),
    (
        "serve.snapshot_write_ms",
        "ms",
        "lower",
        "pipeline_s,setup_s@all",
    ),
    (
        "serve.snapshot_bytes",
        "bytes",
        "lower",
        "pipeline_s,setup_s@all",
    ),
    ("serve.open_us", "us", "lower", "pipeline_s,setup_s@all"),
    ("serve.verify_ms", "ms", "lower", "pipeline_s,setup_s@all"),
    (
        "serve.engine_build_ms",
        "ms",
        "lower",
        "pipeline_s,setup_s@all",
    ),
    (
        "serve.predict_us",
        "us",
        "lower",
        "p50_us@serve_hot,serve_churn",
    ),
    (
        "serve.predict_batch_us",
        "us",
        "lower",
        "p50_us@serve_hot,serve_churn",
    ),
    (
        "serve.similar_us",
        "us",
        "lower",
        "p50_us@serve_hot,serve_churn",
    ),
    (
        "serve.cache_hit_rate",
        "fraction",
        "higher",
        "p50_us@serve_hot,serve_churn",
    ),
    (
        "serve.cache_evictions",
        "count",
        "lower",
        "p50_us@serve_hot,serve_churn",
    ),
    (
        "serve.rows_repaired",
        "count",
        "lower",
        "edit_visible_ms,p99_us@serve_churn",
    ),
    (
        "serve.rows_invalidated",
        "count",
        "lower",
        "edit_visible_ms,p99_us@serve_churn",
    ),
    (
        "serve.repair_apply_ms",
        "ms",
        "lower",
        "edit_visible_ms,p99_us@serve_churn",
    ),
    (
        "daemon.read_request_us",
        "us",
        "lower",
        "p50_us@serve_hot,serve_churn",
    ),
    (
        "daemon.json_parse_us",
        "us",
        "lower",
        "p50_us@serve_hot,serve_churn",
    ),
    (
        "daemon.write_response_us",
        "us",
        "lower",
        "p50_us@serve_hot,serve_churn",
    ),
    (
        "daemon.overhead_us",
        "us",
        "lower",
        "p50_us,goodput_rps@serve_hot",
    ),
    (
        "daemon.batch_size_mean",
        "count",
        "higher",
        "p50_us,goodput_rps@serve_hot",
    ),
    (
        "daemon.shed",
        "count",
        "lower",
        "ok_frac@serve_hot,serve_churn",
    ),
    (
        "gen.late_p99_us",
        "us",
        "lower",
        "validity of p50_us,p99_us@serve_hot,serve_churn",
    ),
    ("trace.overhead_frac", "fraction", "lower", "trace health"),
    (
        "trace.unattributed_frac",
        "fraction",
        "lower",
        "trace health",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_daemon::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bytes = std::fs::read(path).expect("BENCHMARK.json at the repository root");
        sigma_daemon::json::parse(&bytes).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(json: &'a Json, key: &str) -> &'a [Json] {
        json.get(key).and_then(Json::as_arr).expect(key)
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().copied())
        {
            assert!(crate::stats::valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let json = benchmark_json();
        let e2e: Vec<(&str, &str, &str)> = entries(&json, "end_to_end")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        assert_eq!(e2e, END_TO_END.to_vec());
        let layers: Vec<(&str, &str, &str)> = entries(&json, "per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(&str, &str, &str)> =
            PER_LAYER.iter().map(|&(n, u, b, _)| (n, u, b)).collect();
        assert_eq!(layers, expected);
        let workloads: Vec<&str> = entries(&json, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn workload_whys_state_the_constants_the_code_uses() {
        let json = benchmark_json();
        let why = |name: &str| {
            entries(&json, "workloads")
                .iter()
                .find(|w| field(w, "name") == name)
                .map(|w| field(w, "why").to_string())
                .expect(name)
        };
        for fact in crate::train::facts() {
            assert!(
                why("train_pokec").contains(&fact),
                "train_pokec why lacks {fact:?}"
            );
        }
        for fact in crate::serve::hot_facts() {
            assert!(
                why("serve_hot").contains(&fact),
                "serve_hot why lacks {fact:?}"
            );
        }
        for fact in crate::serve::churn_facts() {
            assert!(
                why("serve_churn").contains(&fact),
                "serve_churn why lacks {fact:?}"
            );
        }
    }
}
