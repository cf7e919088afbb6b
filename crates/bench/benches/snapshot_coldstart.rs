//! Snapshot cold-start bench: format-v1 streamed decode versus format-v2
//! zero-copy mapping, across snapshot sizes.
//!
//! The claim under test is the v2 design's O(1) cold start: opening a v2
//! snapshot reads only the prelude, the section table, META and the
//! `indptr` endpoints, so `MappedSnapshot::open` should stay **flat** as
//! the file grows, while the v1 decode (and the v1 engine build, which
//! re-runs the encoder) grows **linearly**. Also measured, per size:
//!
//! * `verify` — the one O(bytes) pass (CRC32 + CSR invariants) a mapped
//!   engine pays before serving;
//! * engine build time, owned vs mapped (the mapped snapshot carries a
//!   precomputed `EMB` section, so its build skips the encoder; both
//!   builds include the one SpMM that materialises the `n × C` logits
//!   table, so the mapped build grows with the operator's nnz);
//! * resident-set growth after open / after the first query, owned vs
//!   mapped (mapped growth is file-backed clean pages, reclaimable under
//!   memory pressure; owned growth is anonymous heap);
//! * hot-reload latency onto a fresh mapping (which rebuilds the logits
//!   table), and the first-query latency immediately after;
//! * bit-parity: the mapped engine's logits are asserted identical to the
//!   owned engine's on every sampled node, every size, every run.
//!
//! Results go to stdout and `BENCH_snapshot.json` at the repository root.
//! Pass `--quick` for the CI-sized run.

use sigma::snapshot::ModelSnapshot;
use sigma::AggregatorKind;
use sigma_bench::TablePrinter;
use sigma_graph::Graph;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_serve::{EngineConfig, InferenceEngine, MappedSnapshot, ServeSnapshot};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const FEATURE_DIM: usize = 64;
const HIDDEN: usize = 32;
const CLASSES: usize = 8;
const TOP_K: usize = 8;

/// Deterministic value noise in `[-1, 1)` (splitmix-style finaliser).
fn pseudo(i: usize, j: usize, seed: u64) -> f32 {
    let mut h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
}

/// A power-law graph: ring base plus harmonically decaying head degrees —
/// the degree skew of the paper's pokec-style serving graphs.
fn power_law_graph(n: usize, max_deg: usize, seed: u64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        edges.push((u, (u + 1) % n));
        edges.push((u, (u + 7) % n));
    }
    for i in 0..n {
        let extra = max_deg / (i + 1);
        for e in 0..extra {
            let j = (i + 11 + e * 13 + (seed as usize % 17)) % n;
            if i != j {
                edges.push((i, j));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("in-bounds edges")
}

/// A top-k row-sparse operator standing in for the SimRank matrix: the
/// bench measures storage paths, not aggregation quality, so any valid
/// `n × n` CSR with realistic row sparsity does (and skips the LocalPush
/// solve that would dominate setup at the largest sizes).
fn synthetic_operator(n: usize, seed: u64) -> CsrMatrix {
    let mut triplets = Vec::with_capacity(n * TOP_K);
    for i in 0..n {
        for k in 0..TOP_K {
            let j = (i + 1 + (k * k + 3 * k) + (seed as usize % 7)) % n;
            triplets.push((i, j, pseudo(i, j, seed).abs() / TOP_K as f32 + 1e-3));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("valid triplets")
}

fn layer(rows: usize, cols: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    (
        DenseMatrix::from_fn(rows, cols, move |i, j| pseudo(i, j, seed) * 0.2),
        DenseMatrix::from_fn(1, cols, move |_, j| pseudo(j, 1, seed) * 0.05),
    )
}

/// A serving snapshot of `n` nodes with deterministically initialised
/// weights (cold-start cost does not depend on weight values).
fn build_snapshot(n: usize, seed: u64) -> ServeSnapshot {
    let graph = power_law_graph(n, 64, seed);
    let model = ModelSnapshot {
        delta: 0.6,
        alpha: 0.25,
        alpha_raw: None,
        dropout: 0.0,
        aggregator: AggregatorKind::SimRank,
        operator: Some(synthetic_operator(n, seed ^ 0x0b)),
        mlp_a: vec![
            layer(n, HIDDEN, seed ^ 0xa1),
            layer(HIDDEN, HIDDEN, seed ^ 0xa2),
        ],
        mlp_x: vec![
            layer(FEATURE_DIM, HIDDEN, seed ^ 0xb1),
            layer(HIDDEN, HIDDEN, seed ^ 0xb2),
        ],
        mlp_h: vec![layer(HIDDEN, CLASSES, seed ^ 0xc1)],
    };
    let features = DenseMatrix::from_fn(n, FEATURE_DIM, move |i, j| pseudo(i, j, seed ^ 0xfe));
    ServeSnapshot::new(
        format!("coldstart-{n}"),
        model,
        features,
        graph.to_adjacency(),
    )
    .expect("valid snapshot")
}

/// Resident set in kilobytes, from `/proc/self/status` (0 if unavailable).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Median wall-clock milliseconds of `repeats` runs of `f`.
fn time_ms<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            drop(out);
            ms
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct SizeResult {
    n: usize,
    v1_bytes: u64,
    v2_bytes: u64,
    v1_load_ms: f64,
    v2_open_ms: f64,
    v2_verify_ms: f64,
    owned_build_ms: f64,
    mapped_build_ms: f64,
    rss_open_kb: u64,
    rss_mapped_engine_kb: u64,
    rss_owned_engine_kb: u64,
    hot_reload_ms: f64,
    first_query_after_reload_us: f64,
}

fn run_size(n: usize, repeats: usize, dir: &std::path::Path) -> SizeResult {
    let mut snapshot = build_snapshot(n, n as u64);
    snapshot
        .precompute_embeddings()
        .expect("encoder over the bench graph");
    let v1_path: PathBuf = dir.join(format!("coldstart-{n}.v1.snapshot"));
    let v2_path: PathBuf = dir.join(format!("coldstart-{n}.v2.snapshot"));
    {
        let file = std::fs::File::create(&v1_path).expect("create v1 file");
        let mut w = std::io::BufWriter::new(file);
        snapshot.write_to_v1(&mut w).expect("v1 write");
        use std::io::Write as _;
        w.flush().expect("v1 flush");
    }
    snapshot.save(&v2_path).expect("v2 write");
    let v1_bytes = std::fs::metadata(&v1_path).expect("v1 stat").len();
    let v2_bytes = std::fs::metadata(&v2_path).expect("v2 stat").len();

    // Load-time scaling: v1 full decode vs v2 header-only open, plus the
    // deferred O(bytes) verify a mapped engine pays exactly once.
    let v1_load_ms = time_ms(repeats, || ServeSnapshot::load(&v1_path).expect("v1 load"));
    let v2_open_ms = time_ms(repeats, || MappedSnapshot::open(&v2_path).expect("v2 open"));
    let v2_verify_ms = time_ms(repeats, || {
        let m = MappedSnapshot::open(&v2_path).expect("v2 open");
        m.verify().expect("v2 verify");
        m
    });

    let config = EngineConfig::default();
    let probe: Vec<usize> = (0..16).map(|i| (i * n) / 16).collect();

    // Resident-set story, mapped path first (clean process → the mapping's
    // growth is not masked by allocator reuse): open is near-flat; the
    // engine build faults the file pages in during verify, as clean
    // file-backed pages, and adds the anonymous `n × C` logits table.
    let rss_before = rss_kb();
    let mapped = Arc::new(MappedSnapshot::open(&v2_path).expect("v2 open"));
    let rss_open_kb = rss_kb().saturating_sub(rss_before);
    let mapped_build_ms = time_ms(repeats, || {
        InferenceEngine::from_mapped(mapped.clone(), config).expect("mapped engine")
    });
    let mapped_engine =
        InferenceEngine::from_mapped(mapped.clone(), config).expect("mapped engine");
    let mapped_probe = mapped_engine.predict_batch(&probe).expect("mapped query");
    let rss_mapped_engine_kb = rss_kb().saturating_sub(rss_before);
    drop(mapped_engine);
    drop(mapped);

    // Owned path: v1 decode + engine build (which re-runs the encoder — v1
    // files carry no EMB section).
    let owned_snapshot = ServeSnapshot::load(&v1_path).expect("v1 load");
    let owned_build_ms = time_ms(repeats, || {
        InferenceEngine::new(&owned_snapshot, config).expect("owned engine")
    });
    let rss_owned_before = rss_kb();
    let owned_full = ServeSnapshot::load(&v1_path).expect("v1 load");
    let owned_engine = InferenceEngine::new(&owned_full, config).expect("owned engine");
    let owned_probe = owned_engine.predict_batch(&probe).expect("owned query");
    let rss_owned_engine_kb = rss_kb().saturating_sub(rss_owned_before);

    // Bit-parity: storage must be invisible in the outputs.
    for (a, b) in owned_probe.iter().zip(mapped_probe.iter()) {
        let a_bits: Vec<u32> = a.logits.iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u32> = b.logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "owned and mapped logits diverge at n={n}");
    }

    // Hot reload onto a fresh mapping, and the first query after it.
    let reload_map = Arc::new(MappedSnapshot::open(&v2_path).expect("v2 open"));
    let start = Instant::now();
    owned_engine
        .hot_reload_mapped(reload_map)
        .expect("hot reload");
    let hot_reload_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let after = owned_engine
        .predict_batch(&probe)
        .expect("post-reload query");
    let first_query_after_reload_us = start.elapsed().as_secs_f64() * 1e6;
    for (a, b) in owned_probe.iter().zip(after.iter()) {
        assert_eq!(a.logits, b.logits, "reload changed the answers at n={n}");
    }

    let _ = std::fs::remove_file(&v1_path);
    let _ = std::fs::remove_file(&v2_path);
    SizeResult {
        n,
        v1_bytes,
        v2_bytes,
        v1_load_ms,
        v2_open_ms,
        v2_verify_ms,
        owned_build_ms,
        mapped_build_ms,
        rss_open_kb,
        rss_mapped_engine_kb,
        rss_owned_engine_kb,
        hot_reload_ms,
        first_query_after_reload_us,
    }
}

fn emit_json(quick: bool, results: &[SizeResult]) {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"snapshot_coldstart\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(
        "  \"note\": \"v2_open_ms is the headline: it reads only the header table and META, so \
         it should stay flat while v1_load_ms grows with the file; verify/build are measured \
         medians and include the one SpMM that materialises the n x C logits table (the \
         mapped build's only O(nnz) work besides verify), RSS deltas are VmRSS and the mapped \
         deltas are file-backed clean pages (reclaimable) plus the anonymous logits table\",\n",
    );
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"v1_bytes\": {}, \"v2_bytes\": {}, \
             \"v1_load_ms\": {:.3}, \"v2_open_ms\": {:.3}, \"v2_verify_ms\": {:.3}, \
             \"owned_engine_build_ms\": {:.3}, \"mapped_engine_build_ms\": {:.3}, \
             \"rss_after_open_kb\": {}, \"rss_mapped_engine_kb\": {}, \
             \"rss_owned_engine_kb\": {}, \"hot_reload_ms\": {:.3}, \
             \"first_query_after_reload_us\": {:.1}}}{}\n",
            r.n,
            r.v1_bytes,
            r.v2_bytes,
            r.v1_load_ms,
            r.v2_open_ms,
            r.v2_verify_ms,
            r.owned_build_ms,
            r.mapped_build_ms,
            r.rss_open_kb,
            r.rss_mapped_engine_kb,
            r.rss_owned_engine_kb,
            r.hot_reload_ms,
            r.first_query_after_reload_us,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json");
    std::fs::write(root, &out).expect("write BENCH_snapshot.json at the repo root");
    println!("wrote {root}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sizes, repeats): (&[usize], usize) = if quick {
        (&[2_000, 8_000, 24_000], 3)
    } else {
        (&[8_000, 32_000, 128_000], 5)
    };
    let dir = std::env::temp_dir();
    println!(
        "snapshot cold start: v1 decode vs v2 mmap at {} sizes (quick: {quick})",
        sizes.len()
    );

    let mut table = TablePrinter::new(vec![
        "nodes",
        "v2 MB",
        "v1 load ms",
        "v2 open ms",
        "v2 verify ms",
        "owned build ms",
        "mapped build ms",
        "reload ms",
    ]);
    let mut results = Vec::new();
    for &n in sizes {
        let r = run_size(n, repeats, &dir);
        table.add_row(vec![
            format!("{}", r.n),
            format!("{:.1}", r.v2_bytes as f64 / 1e6),
            format!("{:.2}", r.v1_load_ms),
            format!("{:.3}", r.v2_open_ms),
            format!("{:.2}", r.v2_verify_ms),
            format!("{:.2}", r.owned_build_ms),
            format!("{:.3}", r.mapped_build_ms),
            format!("{:.3}", r.hot_reload_ms),
        ]);
        results.push(r);
    }
    table.print("snapshot cold start: v1 decode vs v2 zero-copy mapping");
    println!(
        "(open/build medians; every build includes the logits-table SpMM; mapped build \
         re-verifies only on the first engine per mapping)"
    );
    emit_json(quick, &results);
}
