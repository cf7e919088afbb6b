//! The online inference engine.
//!
//! SIGMA's aggregation operator `S` is a one-time precompute (paper
//! Eq. 5–6), so the served answer `Z = (1−α)·S·H + α·H` is a fixed
//! `n × C` table — the same size as the embedding `H` every engine already
//! holds. [`InferenceEngine::new`] takes a [`ServeSnapshot`], precomputes
//! the full-graph embedding `H = MLP_H(δ·MLP_X(X) + (1−δ)·MLP_A(A))` once
//! and materialises `Z` with one SpMM; a query is then a row read.
//!
//! The engine also consumes `sigma_simrank::dynamic` edge updates: edits
//! mark stale exactly the rows whose operator entries can change
//! (endpoints, their neighbours, and every row referencing them), and a
//! refreshed operator from [`sigma_simrank::DynamicSimRank`] can be swapped
//! in without rebuilding the engine. On top of the full swap,
//! [`InferenceEngine::repair_from`] performs **incremental repair**: it asks
//! the maintainer for the exact set of operator rows an edit trace changed,
//! patches those rows (and the `H` rows of the edited nodes — the encoder is
//! row-local, so the patch is bitwise identical to a full re-encode), and
//! recomputes only the affected `Z` rows with the row-sliced kernel, which
//! runs the same per-row loop as the full SpMM — so a repaired table is
//! bitwise the table a rebuild computes.
//!
//! Maintenance calls ([`InferenceEngine::install_operator`],
//! [`InferenceEngine::repair_from`], the hot reloads) may race queries
//! freely, but must not race each other — run them from a single
//! maintenance thread.

use crate::forward::{compute_embeddings, compute_embeddings_rows};
use crate::mmap::MappedSnapshot;
use crate::snapshot::ServeSnapshot;
use crate::store::{CsrSection, CsrStore, DenseSection, DenseStore, ModelRef};
use crate::{Result, ServeError};
use sigma_matrix::{CsrMatrix, CsrViewAny, DenseMatrix, DenseView};
use sigma_obs::{Counter, Histogram, Registry, Stopwatch};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, RepairOutcome};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Construction options of the [`InferenceEngine`].
///
/// Empty: the engine serves a materialised logits table and has nothing
/// left to tune. The type stays so existing constructor calls keep
/// compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {}

/// The served answer for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The queried node.
    pub node: usize,
    /// Class logits (`Z_u`, Eq. 6).
    pub logits: Vec<f32>,
    /// `argmax` of the logits.
    pub label: usize,
    /// Whether pending edge updates may have invalidated this node's
    /// operator row (served value may be stale until the next refresh).
    pub stale: bool,
}

/// One entry of a [`InferenceEngine::most_similar`] answer: a node ranked
/// by its score in the query node's operator row.
///
/// Ordering is pinned — score descending, then node id ascending — so a
/// sharded and a single-engine answer over the same operator are bitwise
/// comparable entry by entry (ids *and* score bits), which the sharded
/// differential oracle asserts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarNode {
    /// The similar node's id.
    pub node: usize,
    /// Its operator score `S[query][node]` (SimRank-style similarity).
    pub score: f32,
}

/// Monotone serving counters, read with [`InferenceEngine::stats`].
///
/// # Tearing semantics
///
/// A snapshot is assembled from independent relaxed loads of live counters,
/// **not** taken under any lock. Two guarantees hold:
///
/// * **Per-counter monotonicity.** Each field is an actually-attained value
///   of its counter, and successive snapshots never observe a field
///   decreasing.
/// * **No cross-counter consistency.** A snapshot taken while queries are in
///   flight may *tear* between fields: a batch bumps `nodes_served` before
///   `batches_served`, so derived identities can be transiently off by
///   in-flight requests. They hold exactly once the engine quiesces.
///
/// This is deliberate: serving never pays a stats lock. Tests that assert
/// cross-field identities must stop issuing queries first (see
/// `stats_tearing.rs` in this crate's test suite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total nodes served.
    pub nodes_served: u64,
    /// Total batches served.
    pub batches_served: u64,
    /// Always 0: the engine serves a materialised table and has no row
    /// cache. Kept so existing readers of the field keep compiling.
    pub cache_hits: u64,
    /// Always 0 (no row cache; see `cache_hits`).
    pub cache_misses: u64,
    /// Always 0 (no row cache; see `cache_hits`).
    pub cache_evictions: u64,
    /// Served rows invalidated: rows marked stale by edge updates plus
    /// `Z` rows recomputed by repairs (every row on a full refresh).
    pub rows_invalidated: u64,
    /// Operator swap-ins from a refreshed maintainer (whole-operator path;
    /// recomputes the whole table).
    pub operator_refreshes: u64,
    /// Incremental repairs applied by [`InferenceEngine::repair_from`]
    /// (row-patch path; recomputes only the affected rows).
    pub operator_repairs: u64,
    /// Operator rows patched in place across all repairs.
    pub rows_repaired: u64,
    /// Embedding (`H`) rows recomputed in place across all repairs.
    pub embedding_rows_repaired: u64,
    /// Dirty seed pairs re-pushed by the maintainer across all incremental
    /// repairs driven through [`InferenceEngine::repair_from`].
    pub repair_dirty_seeds: u64,
    /// Whole-snapshot hot reloads applied via
    /// [`InferenceEngine::hot_reload`] /
    /// [`InferenceEngine::hot_reload_mapped`].
    pub snapshot_reloads: u64,
    /// Top-k similarity queries served ([`InferenceEngine::most_similar`]
    /// and [`InferenceEngine::most_similar_batch`], counted per query).
    /// Similarity traffic reads operator rows directly, so this counter
    /// moves while `nodes_served` stays put.
    pub similar_queries: u64,
}

/// The engine's live counters and latency histograms, built on `sigma_obs`
/// primitives.
///
/// The counters are always functional (they are plain relaxed atomics, so
/// [`InferenceEngine::stats`] works identically with the `obs` feature
/// off); when `obs` is enabled they are additionally registered with the
/// process-wide [`Registry`] under `sigma_serve_*` names, where several
/// engines in one process merge by summation. The latency histograms are
/// only *recorded into* when `obs` is on — with it off the stopwatch reads
/// compile to nothing and the histograms stay empty.
struct EngineMetrics {
    nodes_served: Arc<Counter>,
    batches_served: Arc<Counter>,
    rows_invalidated: Arc<Counter>,
    operator_refreshes: Arc<Counter>,
    operator_repairs: Arc<Counter>,
    rows_repaired: Arc<Counter>,
    embedding_rows_repaired: Arc<Counter>,
    repair_dirty_seeds: Arc<Counter>,
    snapshot_reloads: Arc<Counter>,
    similar_queries: Arc<Counter>,
    /// Wall time of [`InferenceEngine::predict`] calls, nanoseconds.
    predict_ns: Arc<Histogram>,
    /// Wall time of [`InferenceEngine::predict_batch`] calls, nanoseconds.
    predict_batch_ns: Arc<Histogram>,
    /// Wall time of [`InferenceEngine::most_similar`] /
    /// [`InferenceEngine::most_similar_batch`] calls, nanoseconds.
    similar_ns: Arc<Histogram>,
}

impl EngineMetrics {
    fn new() -> Self {
        let metrics = Self {
            nodes_served: Arc::new(Counter::new()),
            batches_served: Arc::new(Counter::new()),
            rows_invalidated: Arc::new(Counter::new()),
            operator_refreshes: Arc::new(Counter::new()),
            operator_repairs: Arc::new(Counter::new()),
            rows_repaired: Arc::new(Counter::new()),
            embedding_rows_repaired: Arc::new(Counter::new()),
            repair_dirty_seeds: Arc::new(Counter::new()),
            snapshot_reloads: Arc::new(Counter::new()),
            similar_queries: Arc::new(Counter::new()),
            predict_ns: Arc::new(Histogram::new()),
            predict_batch_ns: Arc::new(Histogram::new()),
            similar_ns: Arc::new(Histogram::new()),
        };
        if sigma_obs::ENABLED {
            let registry = Registry::global();
            registry.register_arc_counter(
                "sigma_serve_nodes_served_total",
                "nodes served across all batches",
                &metrics.nodes_served,
            );
            registry.register_arc_counter(
                "sigma_serve_batches_served_total",
                "predict/predict_batch calls completed",
                &metrics.batches_served,
            );
            registry.register_arc_counter(
                "sigma_serve_rows_invalidated_total",
                "served rows marked stale by edge updates or recomputed by repairs",
                &metrics.rows_invalidated,
            );
            registry.register_arc_counter(
                "sigma_serve_operator_refreshes_total",
                "whole-operator swap-ins (whole-table recompute)",
                &metrics.operator_refreshes,
            );
            registry.register_arc_counter(
                "sigma_serve_operator_repairs_total",
                "incremental row-patch repairs applied",
                &metrics.operator_repairs,
            );
            registry.register_arc_counter(
                "sigma_serve_rows_repaired_total",
                "operator rows patched in place across all repairs",
                &metrics.rows_repaired,
            );
            registry.register_arc_counter(
                "sigma_serve_embedding_rows_repaired_total",
                "embedding rows re-encoded in place across all repairs",
                &metrics.embedding_rows_repaired,
            );
            registry.register_arc_counter(
                "sigma_serve_repair_dirty_seeds_total",
                "dirty seed pairs re-pushed by the maintainer during repairs",
                &metrics.repair_dirty_seeds,
            );
            registry.register_arc_counter(
                "sigma_serve_snapshot_reloads_total",
                "whole-snapshot hot reloads applied",
                &metrics.snapshot_reloads,
            );
            registry.register_arc_histogram(
                "sigma_serve_predict_ns",
                "single-node predict latency in nanoseconds",
                &metrics.predict_ns,
            );
            registry.register_arc_histogram(
                "sigma_serve_predict_batch_ns",
                "predict_batch latency in nanoseconds",
                &metrics.predict_batch_ns,
            );
            registry.register_arc_counter(
                "sigma_serve_similar_queries_total",
                "top-k similarity queries served off operator rows",
                &metrics.similar_queries,
            );
            registry.register_arc_histogram(
                "sigma_serve_similar_ns",
                "most_similar query latency in nanoseconds",
                &metrics.similar_ns,
            );
        }
        metrics
    }

    /// Independent relaxed loads; see [`EngineStats`] for the exact tearing
    /// guarantees.
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            nodes_served: self.nodes_served.get(),
            batches_served: self.batches_served.get(),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            rows_invalidated: self.rows_invalidated.get(),
            operator_refreshes: self.operator_refreshes.get(),
            operator_repairs: self.operator_repairs.get(),
            rows_repaired: self.rows_repaired.get(),
            embedding_rows_repaired: self.embedding_rows_repaired.get(),
            repair_dirty_seeds: self.repair_dirty_seeds.get(),
            snapshot_reloads: self.snapshot_reloads.get(),
            similar_queries: self.similar_queries.get(),
        }
    }
}

/// The aggregation operator plus its transposed sparsity pattern (used to
/// find the rows that reference an updated node during invalidation).
struct OperatorState {
    matrix: CsrStore,
    /// Transposed pattern, materialised lazily on the first invalidation or
    /// repair that needs it: an engine serving straight out of a mapped
    /// snapshot must not pay an O(nnz) transpose at cold start. `OnceLock`
    /// lets racing readers initialise it under the state *read* lock.
    reverse: OnceLock<CsrMatrix>,
}

impl OperatorState {
    fn new(matrix: CsrStore) -> Self {
        Self {
            matrix,
            reverse: OnceLock::new(),
        }
    }

    /// The transposed operator, built on first use.
    fn reverse(&self) -> &CsrMatrix {
        self.reverse
            .get_or_init(|| self.matrix.view().transpose_owned())
    }

    /// Rows whose entries reference any of `nodes` (unsorted, deduplicated).
    fn referencing(&self, nodes: impl IntoIterator<Item = usize>) -> HashSet<usize> {
        let reverse = self.reverse();
        let mut rows = HashSet::new();
        for node in nodes {
            if node < reverse.rows() {
                rows.extend(reverse.row_iter(node).map(|(row, _)| row));
            }
        }
        rows
    }
}

/// Everything a query must observe as one consistent unit: the served
/// logits, the embedding and operator they were computed from, the
/// adjacency the embedding was encoded from, and the inputs (features,
/// weights, `α`) behind them. Queries take the read side; operator swaps,
/// incremental repairs and snapshot hot reloads take the write side, so a
/// query never sees a half-patched state. Every input matrix is held as an
/// owned-or-mapped store, so the same engine serves decoded v1 snapshots
/// and zero-copy v2 mappings through identical code paths.
struct ServingState {
    /// The served table `Z = (1−α)·Ẑ + α·H` (`n × C`, Eq. 6), with
    /// `Ẑ = S·H` (`Ẑ = H` without an operator).
    logits: DenseMatrix,
    /// Precomputed full-graph embedding `H` (`n × C`).
    embeddings: DenseStore,
    /// Adjacency the embedding was computed from, kept in sync by repairs;
    /// also the source of first-order invalidation regions.
    adjacency: CsrStore,
    /// Constant aggregation operator (`None` = SIGMA w/o S: `Ẑ = H`).
    operator: Option<OperatorState>,
    /// Node features `X`, the dense half of the encoder input (repairs
    /// re-encode `H` rows from it).
    features: DenseStore,
    /// Encoder weights, decoded lazily on the mapped path (only the repair
    /// path needs them).
    model: ModelRef,
    /// Effective local/global balance `α`.
    alpha: f32,
}

impl ServingState {
    /// Assembles a state, materialising the logits table with one SpMM.
    fn new(
        embeddings: DenseStore,
        adjacency: CsrStore,
        operator: Option<OperatorState>,
        features: DenseStore,
        model: ModelRef,
        alpha: f32,
    ) -> Result<Self> {
        let logits = compute_logits(
            operator.as_ref().map(|op| op.matrix.view()),
            embeddings.view(),
            None,
            alpha,
        )?;
        Ok(Self {
            logits,
            embeddings,
            adjacency,
            operator,
            features,
            model,
            alpha,
        })
    }
}

/// Online node-classification server for a snapshotted SIGMA model.
pub struct InferenceEngine {
    state: RwLock<ServingState>,
    /// Node and class counts (immutable over the engine's lifetime; hot
    /// reloads must match them).
    num_nodes: usize,
    num_classes: usize,
    /// Nodes whose operator rows may be stale w.r.t. applied edge updates.
    stale: Mutex<HashSet<usize>>,
    stats: EngineMetrics,
}

/// The operator payload of one repair round, fed to
/// [`InferenceEngine::apply_repair`].
///
/// [`InferenceEngine::repair_from`] computes this from a
/// [`DynamicSimRank`] maintainer; a shard router computes it once and fans
/// row-filtered `Rows` payloads to the shards whose ranges intersect the
/// repair footprint (`DynamicSimRank::repair` consumes the pending edits,
/// so the maintainer can be driven only once per round — the payload, not
/// the maintainer, is what travels to each engine).
#[derive(Debug, Clone)]
pub enum OperatorPatch {
    /// Replace exactly the listed operator rows with the rows of this
    /// `rows.len() × n` payload (in the same order).
    Rows(CsrMatrix),
    /// Install this whole `n × n` operator (full-refresh path: first sync
    /// with a maintainer that had no prior state). Recomputes the whole
    /// table.
    Full(CsrMatrix),
    /// The operator is untouched this round — only the adjacency (and the
    /// `H` rows its diff implies) need repair. Also the only valid payload
    /// for an operator-less engine (`Ẑ = H`).
    None,
}

/// What one [`InferenceEngine::repair_from`] call changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRepair {
    /// Operator rows patched in place (sorted). On a full refresh this
    /// lists every row.
    pub operator_rows: Vec<usize>,
    /// Embedding (`H`) rows re-encoded in place (sorted): the nodes whose
    /// adjacency rows differed from the engine's.
    pub embedding_rows: Vec<usize>,
    /// Served `Z` rows recomputed (sorted): the patched operator rows,
    /// every row whose operator entries reference a re-encoded node, and
    /// the re-encoded nodes themselves (their `α·H_u` term). On a full
    /// refresh this lists every row.
    pub invalidated_rows: Vec<usize>,
    /// Whether the engine fell back to a whole-operator install (first sync
    /// with a maintainer that had no prior state).
    pub full_refresh: bool,
}

impl std::fmt::Debug for InferenceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceEngine")
            .field("num_nodes", &self.num_nodes())
            .field("num_classes", &self.num_classes())
            .finish()
    }
}

impl InferenceEngine {
    /// Builds an engine from a decoded snapshot: runs the encoder once over
    /// the full graph (or adopts the snapshot's precomputed embeddings when
    /// present) and materialises the logits table.
    pub fn new(snapshot: &ServeSnapshot, _config: EngineConfig) -> Result<Self> {
        snapshot.model.validate()?;
        let state = Self::owned_state(snapshot)?;
        Ok(Self::from_state(state))
    }

    /// Builds an engine serving straight out of a mapped v2 snapshot —
    /// zero copy for every input matrix; when the snapshot carries
    /// precomputed embeddings the only build work is the logits SpMM
    /// (otherwise the encoder runs once, as [`InferenceEngine::new`] would).
    ///
    /// Verifies the mapping first (checksums + CSR invariants; cached, so
    /// repeated engines off one mapping pay it once). The engine holds the
    /// [`Arc`], pinning the mapping for its lifetime; results are bitwise
    /// identical to an engine built from the decoded snapshot.
    pub fn from_mapped(snapshot: Arc<MappedSnapshot>, _config: EngineConfig) -> Result<Self> {
        let state = Self::mapped_state(snapshot)?;
        Ok(Self::from_state(state))
    }

    /// Serving state for the owned (decoded) path.
    fn owned_state(snapshot: &ServeSnapshot) -> Result<ServingState> {
        let embeddings = match &snapshot.embeddings {
            Some(h) => {
                if h.shape() != (snapshot.num_nodes(), snapshot.model.num_classes()) {
                    return Err(ServeError::Corrupt {
                        reason: format!(
                            "precomputed embeddings {:?} do not match the model's {} × {} output",
                            h.shape(),
                            snapshot.num_nodes(),
                            snapshot.model.num_classes()
                        ),
                    });
                }
                h.clone()
            }
            None => compute_embeddings(&snapshot.model, &snapshot.features, &snapshot.adjacency)?,
        };
        ServingState::new(
            DenseStore::Owned(embeddings),
            CsrStore::Owned(snapshot.adjacency.clone()),
            snapshot
                .model
                .operator
                .clone()
                .map(|m| OperatorState::new(CsrStore::Owned(m))),
            DenseStore::Owned(snapshot.features.clone()),
            ModelRef::Owned(Arc::new(snapshot.model.clone())),
            snapshot.model.effective_alpha() as f32,
        )
    }

    /// Serving state borrowing a verified mapping.
    fn mapped_state(snap: Arc<MappedSnapshot>) -> Result<ServingState> {
        snap.verify()?;
        let embeddings = if snap.has_embeddings() {
            DenseStore::Mapped {
                snap: snap.clone(),
                section: DenseSection::Embeddings,
            }
        } else {
            // No EMB section: encode `H` once from the mapped inputs (the
            // O(n) fallback — write snapshots with
            // `ServeSnapshot::precompute_embeddings` to skip it).
            let model = snap.model()?;
            let features = snap.features_view().to_owned_matrix();
            let adjacency = snap.adjacency_view().to_owned_matrix()?;
            DenseStore::Owned(compute_embeddings(&model, &features, &adjacency)?)
        };
        ServingState::new(
            embeddings,
            CsrStore::Mapped {
                snap: snap.clone(),
                section: CsrSection::Adjacency,
            },
            snap.has_operator().then(|| {
                OperatorState::new(CsrStore::Mapped {
                    snap: snap.clone(),
                    section: CsrSection::Operator,
                })
            }),
            DenseStore::Mapped {
                snap: snap.clone(),
                section: DenseSection::Features,
            },
            ModelRef::Mapped(snap.clone()),
            snap.effective_alpha() as f32,
        )
    }

    fn from_state(state: ServingState) -> Self {
        Self {
            num_nodes: state.logits.rows(),
            num_classes: state.logits.cols(),
            state: RwLock::new(state),
            stale: Mutex::new(HashSet::new()),
            stats: EngineMetrics::new(),
        }
    }

    /// Atomically replaces the entire served state — logits, embeddings,
    /// adjacency, operator, features, weights, `α` — with a new snapshot
    /// of the *same* graph dimensions: the new state (logits table
    /// included) is built off-lock, swapped in under one write lock, and
    /// the staleness set is cleared. Queries racing the reload serve a
    /// consistent answer from one state or the other, never a blend.
    pub fn hot_reload(&self, snapshot: &ServeSnapshot) -> Result<()> {
        snapshot.model.validate()?;
        let state = Self::owned_state(snapshot)?;
        self.swap_state(state)
    }

    /// [`InferenceEngine::hot_reload`] for a mapped v2 snapshot: the engine
    /// switches to serving out of the new mapping zero-copy (verifying it
    /// first) and drops its reference to the old one.
    pub fn hot_reload_mapped(&self, snapshot: Arc<MappedSnapshot>) -> Result<()> {
        let state = Self::mapped_state(snapshot)?;
        self.swap_state(state)
    }

    fn swap_state(&self, new_state: ServingState) -> Result<()> {
        let (n, classes) = new_state.logits.shape();
        if n != self.num_nodes {
            return Err(ServeError::OperatorMismatch {
                got: (n, n),
                expected: self.num_nodes,
            });
        }
        if classes != self.num_classes {
            return Err(ServeError::Corrupt {
                reason: format!(
                    "reloaded snapshot serves {} classes, engine was built for {}",
                    classes, self.num_classes
                ),
            });
        }
        *self.write_state() = new_state;
        self.stale.lock().expect("stale lock poisoned").clear();
        self.stats.snapshot_reloads.inc();
        Ok(())
    }

    /// Number of nodes the engine serves.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of classes per prediction.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The effective `α` blended at serve time.
    pub fn alpha(&self) -> f32 {
        self.read_state().alpha
    }

    /// A copy of the aggregation operator currently served (`None` when the
    /// engine runs the operator-less `Ẑ = H` variant). Observability hook
    /// used by the differential test harness.
    pub fn operator(&self) -> Option<CsrMatrix> {
        self.read_state()
            .operator
            .as_ref()
            .map(|state| state.matrix.to_matrix())
    }

    /// Serves a single node.
    pub fn predict(&self, node: usize) -> Result<Prediction> {
        let sw = Stopwatch::start();
        let mut batch = self.serve(&[node])?;
        if sigma_obs::ENABLED {
            self.stats.predict_ns.record(sw.elapsed_ns());
        }
        Ok(batch.pop().expect("one prediction per queried node"))
    }

    /// Serves a batch of nodes, preserving query order. The whole batch
    /// reads one consistent state.
    pub fn predict_batch(&self, nodes: &[usize]) -> Result<Vec<Prediction>> {
        let sw = Stopwatch::start();
        let result = self.serve(nodes);
        if sigma_obs::ENABLED {
            self.stats.predict_batch_ns.record(sw.elapsed_ns());
        }
        result
    }

    /// Top-`k` nodes most similar to `node`, ranked by the node's
    /// aggregation-operator row (the top-k SimRank structure the engine
    /// already serves aggregation from).
    ///
    /// Determinism contract: entries are ordered by **score descending,
    /// then node id ascending** — pinned so a sharded router and a single
    /// engine over the same operator return bitwise-identical answers (ids
    /// *and* score bits), which the sharded differential oracle asserts.
    /// The query node's own self-similarity entry is excluded; a
    /// recommendation-style caller never wants `node` recommended to
    /// itself. Fewer than `k` entries come back when the row holds fewer
    /// qualifying entries.
    ///
    /// Errors with [`ServeError::InvalidQuery`] for an out-of-range node
    /// and [`ServeError::NoOperator`] on an engine serving the
    /// operator-less `Ẑ = H` variant.
    pub fn most_similar(&self, node: usize, k: usize) -> Result<Vec<SimilarNode>> {
        let sw = Stopwatch::start();
        let mut batch = self.similar(&[(node, k)])?;
        if sigma_obs::ENABLED {
            self.stats.similar_ns.record(sw.elapsed_ns());
        }
        Ok(batch.pop().expect("one answer per similarity query"))
    }

    /// Serves a batch of `(node, k)` similarity queries in request order
    /// under one read of the serving state, with the same determinism
    /// contract as [`InferenceEngine::most_similar`].
    pub fn most_similar_batch(&self, queries: &[(usize, usize)]) -> Result<Vec<Vec<SimilarNode>>> {
        let sw = Stopwatch::start();
        let result = self.similar(queries);
        if sigma_obs::ENABLED {
            self.stats.similar_ns.record(sw.elapsed_ns());
        }
        result
    }

    /// Applies a stream of edge updates to the staleness tracker.
    ///
    /// Marks stale the first-order affected region (endpoints plus their
    /// neighbours at snapshot time) and every row whose operator entries
    /// reference it. Returns the number of rows marked stale.
    pub fn apply_edge_updates(&self, updates: &[EdgeUpdate]) -> Result<usize> {
        let affected = self.edge_update_footprint(updates)?;
        Ok(self.invalidate_nodes(&affected).len())
    }

    /// The first-order region a stream of edge updates touches, read off
    /// this engine's *own* adjacency copy: each update's endpoints plus
    /// their neighbours at snapshot time. Sorted and deduplicated.
    ///
    /// Routers use this per shard (shard adjacencies can lag each other
    /// between repairs) to decide which shards an update stream must fan
    /// out to, before committing to [`InferenceEngine::invalidate_nodes`].
    pub fn edge_update_footprint(&self, updates: &[EdgeUpdate]) -> Result<Vec<usize>> {
        let n = self.num_nodes();
        let mut affected: HashSet<usize> = HashSet::new();
        {
            let state = self.read_state();
            let adjacency = state.adjacency.view();
            for &update in updates {
                let (u, v) = match update {
                    EdgeUpdate::Insert(u, v) | EdgeUpdate::Delete(u, v) => (u, v),
                };
                if u >= n || v >= n {
                    return Err(ServeError::InvalidQuery {
                        node: u.max(v),
                        num_nodes: n,
                    });
                }
                for endpoint in [u, v] {
                    affected.insert(endpoint);
                    for &nb in adjacency.row_cols(endpoint) {
                        affected.insert(nb as usize);
                    }
                }
            }
        }
        Ok(sorted(affected))
    }

    /// Rows of the served operator whose entries reference any of `nodes`
    /// (sorted, deduplicated; empty for an operator-less engine). These are
    /// exactly the `Z` rows an update to those nodes can change through
    /// `S·H`, so a router may skip a shard whose range misses the affected
    /// set *only* if this is also empty for that shard.
    pub fn referencing_rows(&self, nodes: &[usize]) -> Vec<usize> {
        let state = self.read_state();
        match state.operator.as_ref() {
            Some(operator) => sorted(operator.referencing(nodes.iter().copied())),
            None => Vec::new(),
        }
    }

    /// Marks stale the `affected` nodes and every row whose operator
    /// entries reference them; returns those rows (sorted). This is
    /// [`InferenceEngine::apply_edge_updates`] with the footprint already
    /// computed — the router entry point for fanning a pre-computed
    /// affected set to intersecting shards.
    pub fn invalidate_nodes(&self, affected: &[usize]) -> Vec<usize> {
        let set: HashSet<usize> = affected.iter().copied().collect();
        self.invalidate_region(&set)
    }

    /// Synchronises with a [`DynamicSimRank`] maintainer.
    ///
    /// If the maintainer's staleness budget is exhausted, its refreshed
    /// operator is swapped in (recomputing the table and clearing the
    /// staleness set) and `true` is returned. Otherwise the maintainer's
    /// affected-node set is marked stale here, bounding how wrong served
    /// rows can be, and `false` is returned. See
    /// [`InferenceEngine::repair_from`] for the incremental alternative
    /// that stays exact.
    pub fn sync_with(&self, maintainer: &mut DynamicSimRank) -> Result<bool> {
        if maintainer.needs_refresh() {
            let operator = maintainer.operator()?;
            self.install_operator(operator)?;
            Ok(true)
        } else {
            let affected: HashSet<usize> = maintainer.affected_nodes().into_iter().collect();
            self.invalidate_region(&affected);
            Ok(false)
        }
    }

    /// Incrementally repairs the served state from a [`DynamicSimRank`]
    /// maintainer after graph edits, instead of swapping the whole operator.
    ///
    /// Drives [`DynamicSimRank::repair`] and then patches:
    ///
    /// * the operator rows the maintainer reports as changed (spliced with
    ///   `CsrMatrix::replace_rows`),
    /// * the `H` rows of every node whose adjacency row differs from the
    ///   engine's copy (the encoder is row-local, so the re-encoded rows are
    ///   bitwise identical to a full re-encode),
    /// * the `Z` rows those two changes reach (see
    ///   [`EngineRepair::invalidated_rows`]),
    /// * the engine's adjacency itself.
    ///
    /// The staleness set is cleared: the engine is fully consistent with
    /// the maintainer's graph, bitwise identical to an engine rebuilt from
    /// scratch on it.
    ///
    /// The engine's operator must have come from the same maintainer (or an
    /// equal one): row patches are relative to the served operator. The
    /// first call against a maintainer with no prior state falls back to a
    /// whole-operator install (`full_refresh` in the returned report).
    pub fn repair_from(&self, maintainer: &mut DynamicSimRank) -> Result<EngineRepair> {
        let n = self.num_nodes();
        let graph_nodes = maintainer.graph().num_nodes();
        if graph_nodes != n {
            return Err(ServeError::OperatorMismatch {
                got: (graph_nodes, graph_nodes),
                expected: n,
            });
        }
        let outcome = maintainer.repair()?;
        let has_operator = self.read_state().operator.is_some();
        // Resolve the operator payload before touching the state (the
        // maintainer materialises rows lazily).
        let (operator_rows, patch, dirty_seeds) = match (&outcome, has_operator) {
            (RepairOutcome::Patched(repair), true) => {
                let rows = repair.changed_rows.clone();
                let payload = maintainer.operator_rows(&rows)?;
                (
                    rows,
                    OperatorPatch::Rows(payload),
                    repair.dirty_seeds as u64,
                )
            }
            (RepairOutcome::FullRefresh, true) => {
                let operator = maintainer.operator()?;
                ((0..n).collect(), OperatorPatch::Full(operator), 0)
            }
            // Operator-less engine (`Ẑ = H`): only the embedding needs care.
            (RepairOutcome::Patched(repair), false) => {
                (Vec::new(), OperatorPatch::None, repair.dirty_seeds as u64)
            }
            (RepairOutcome::FullRefresh, false) => (Vec::new(), OperatorPatch::None, 0),
        };
        let adjacency_new = maintainer.graph().to_adjacency();
        self.apply_repair(&operator_rows, patch, adjacency_new, dirty_seeds)
    }

    /// Applies a repair round whose payload was already computed — the
    /// maintainer-free second half of [`InferenceEngine::repair_from`].
    ///
    /// `operator_rows` are the rows `patch` replaces (sorted, matching the
    /// payload's row order for [`OperatorPatch::Rows`]); `adjacency` is the
    /// post-edit adjacency to adopt (the `H` rows to re-encode are found by
    /// diffing it against the engine's own copy, so a lagging engine
    /// self-heals); `dirty_seeds` is forwarded to the
    /// `repair_dirty_seeds` counter.
    ///
    /// Every new matrix and `Z` row is computed under the state *read*
    /// lock, so queries keep flowing while the repair works; the write
    /// section only swaps the results in.
    ///
    /// This is the fan-out surface for a [`crate::ShardRouter`]: the router
    /// drives one maintainer, then calls this on each shard whose row range
    /// intersects the repair footprint, with the payload filtered to that
    /// shard's rows.
    pub fn apply_repair(
        &self,
        operator_rows: &[usize],
        patch: OperatorPatch,
        adjacency_new: CsrMatrix,
        dirty_seeds: u64,
    ) -> Result<EngineRepair> {
        let n = self.num_nodes();
        if adjacency_new.shape() != (n, n) {
            return Err(ServeError::OperatorMismatch {
                got: adjacency_new.shape(),
                expected: n,
            });
        }
        match &patch {
            OperatorPatch::Rows(payload) if payload.shape() != (operator_rows.len(), n) => {
                return Err(ServeError::OperatorMismatch {
                    got: payload.shape(),
                    expected: n,
                });
            }
            OperatorPatch::Full(operator) if operator.shape() != (n, n) => {
                return Err(ServeError::OperatorMismatch {
                    got: operator.shape(),
                    expected: n,
                });
            }
            _ => {}
        }
        let full_refresh = matches!(patch, OperatorPatch::Full(_));

        // Maintenance calls are externally serialised and queries never
        // mutate the state, so nothing computed here can go stale before
        // the write section below.
        let (embedding_rows, embeddings, operator, invalidated_rows, logits) = {
            let state = self.read_state();
            // Re-encode exactly the nodes whose adjacency rows differ. The
            // diff is against the engine's own copy, so it also catches
            // edits the maintainer absorbed before this engine ever synced.
            let embedding_rows = changed_adjacency_rows(state.adjacency.view(), &adjacency_new);
            let embeddings = if embedding_rows.is_empty() {
                None
            } else {
                // Mapped engines decode the model here, on first repair —
                // the one maintenance path that needs the weights.
                let model = state.model.get()?;
                let patched = compute_embeddings_rows(
                    &model,
                    state.features.view(),
                    &adjacency_new,
                    &embedding_rows,
                )?;
                let mut h = state.embeddings.view().to_owned_matrix();
                for (i, &row) in embedding_rows.iter().enumerate() {
                    h.row_mut(row).copy_from_slice(patched.row(i));
                }
                Some(h)
            };
            let operator = match patch {
                OperatorPatch::Rows(payload) => {
                    let current = state
                        .operator
                        .as_ref()
                        .expect("patch path implies an operator");
                    let patched = match &current.matrix {
                        CsrStore::Owned(m) => m.replace_rows(operator_rows, &payload)?,
                        mapped => mapped.to_matrix().replace_rows(operator_rows, &payload)?,
                    };
                    Some(OperatorState::new(CsrStore::Owned(patched)))
                }
                OperatorPatch::Full(operator) => {
                    Some(OperatorState::new(CsrStore::Owned(operator)))
                }
                OperatorPatch::None => None,
            };
            // The post-repair inputs of Eq. 6.
            let h = embeddings
                .as_ref()
                .map_or_else(|| state.embeddings.view(), |h| h.view());
            let s = operator.as_ref().or(state.operator.as_ref());
            let invalidated_rows: Vec<usize> = if full_refresh {
                (0..n).collect()
            } else {
                // `Z_u` reads operator row `u`, the `H` rows that row
                // references, and `H_u` itself.
                let mut rows: HashSet<usize> = operator_rows.iter().copied().collect();
                rows.extend(embedding_rows.iter().copied());
                if let (Some(s), false) = (s, embedding_rows.is_empty()) {
                    rows.extend(s.referencing(embedding_rows.iter().copied()));
                }
                sorted(rows)
            };
            let logits = compute_logits(
                s.map(|s| s.matrix.view()),
                h,
                (!full_refresh).then_some(invalidated_rows.as_slice()),
                state.alpha,
            )?;
            (
                embedding_rows,
                embeddings,
                operator,
                invalidated_rows,
                logits,
            )
        };

        {
            let mut state = self.write_state();
            if full_refresh {
                state.logits = logits;
            } else {
                for (i, &row) in invalidated_rows.iter().enumerate() {
                    state.logits.row_mut(row).copy_from_slice(logits.row(i));
                }
            }
            if let Some(h) = embeddings {
                state.embeddings = DenseStore::Owned(h);
            }
            if let Some(operator) = operator {
                state.operator = Some(operator);
            }
            state.adjacency = CsrStore::Owned(adjacency_new);
        }
        self.stale.lock().expect("stale lock poisoned").clear();
        let stats = &self.stats;
        stats.rows_invalidated.add(invalidated_rows.len() as u64);
        stats
            .embedding_rows_repaired
            .add(embedding_rows.len() as u64);
        stats.repair_dirty_seeds.add(dirty_seeds);
        if full_refresh {
            stats.operator_refreshes.inc();
        } else {
            stats.operator_repairs.inc();
            stats.rows_repaired.add(operator_rows.len() as u64);
        }
        Ok(EngineRepair {
            operator_rows: operator_rows.to_vec(),
            embedding_rows,
            invalidated_rows,
            full_refresh,
        })
    }

    /// Replaces the aggregation operator (e.g. after a SimRank refresh on an
    /// updated graph), recomputing the logits table and clearing the
    /// staleness set.
    pub fn install_operator(&self, operator: CsrMatrix) -> Result<()> {
        let n = self.num_nodes();
        if operator.shape() != (n, n) {
            return Err(ServeError::OperatorMismatch {
                got: operator.shape(),
                expected: n,
            });
        }
        let logits = {
            let state = self.read_state();
            compute_logits(
                Some(CsrViewAny::Native(operator.view())),
                state.embeddings.view(),
                None,
                state.alpha,
            )?
        };
        {
            let mut state = self.write_state();
            state.operator = Some(OperatorState::new(CsrStore::Owned(operator)));
            state.logits = logits;
        }
        self.stale.lock().expect("stale lock poisoned").clear();
        self.stats.operator_refreshes.inc();
        Ok(())
    }

    /// Nodes currently marked stale, sorted by id.
    pub fn stale_nodes(&self) -> Vec<usize> {
        sorted(self.stale.lock().expect("stale lock poisoned").clone())
    }

    /// A point-in-time copy of the serving counters.
    ///
    /// Lock-free: see [`EngineStats`] for the exact guarantees — each field
    /// is individually monotone and exact, but fields may tear against each
    /// other while queries are in flight.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, ServingState> {
        self.state.read().expect("serving state poisoned")
    }

    fn write_state(&self) -> std::sync::RwLockWriteGuard<'_, ServingState> {
        self.state.write().expect("serving state poisoned")
    }

    /// Marks `affected` nodes and every row referencing them stale; returns
    /// those rows (sorted).
    fn invalidate_region(&self, affected: &HashSet<usize>) -> Vec<usize> {
        if affected.is_empty() {
            return Vec::new();
        }
        let mut rows = affected.clone();
        if let Some(operator) = self.read_state().operator.as_ref() {
            rows.extend(operator.referencing(affected.iter().copied()));
        }
        let rows = sorted(rows);
        self.stale
            .lock()
            .expect("stale lock poisoned")
            .extend(rows.iter().copied());
        self.stats.rows_invalidated.add(rows.len() as u64);
        rows
    }

    /// Serves one batch: a read of the logits table under one read of the
    /// serving state, argmax labels, staleness tagging.
    fn serve(&self, nodes: &[usize]) -> Result<Vec<Prediction>> {
        let n = self.num_nodes;
        for &node in nodes {
            if node >= n {
                return Err(ServeError::InvalidQuery { node, num_nodes: n });
            }
        }
        let _span = sigma_obs::span!("serve_batch", nodes.len());
        let rows: Vec<Vec<f32>> = {
            let state = self.read_state();
            nodes
                .iter()
                .map(|&node| state.logits.row(node).to_vec())
                .collect()
        };
        let stale = self.stale.lock().expect("stale lock poisoned");
        let out = nodes
            .iter()
            .zip(rows)
            .map(|(&node, logits)| Prediction {
                node,
                label: argmax(&logits),
                logits,
                stale: stale.contains(&node),
            })
            .collect();
        drop(stale);
        self.stats.nodes_served.add(nodes.len() as u64);
        self.stats.batches_served.inc();
        Ok(out)
    }

    /// Serves a batch of `(node, k)` similarity queries straight off the
    /// operator rows, under one read of the serving state. Validates every
    /// node before touching any row so a batch either answers fully or
    /// fails without partial work, like `serve`.
    fn similar(&self, queries: &[(usize, usize)]) -> Result<Vec<Vec<SimilarNode>>> {
        let n = self.num_nodes;
        for &(node, _) in queries {
            if node >= n {
                return Err(ServeError::InvalidQuery { node, num_nodes: n });
            }
        }
        let _span = sigma_obs::span!("similar_batch", queries.len());
        let state = self.read_state();
        let operator = state.operator.as_ref().ok_or(ServeError::NoOperator)?;
        let view = operator.matrix.view();
        let mut out = Vec::with_capacity(queries.len());
        for &(node, k) in queries {
            let mut row: Vec<SimilarNode> = view
                .row_cols(node)
                .iter()
                .zip(view.row_vals(node).iter())
                .filter(|&(&m, _)| m as usize != node)
                .map(|(&m, &score)| SimilarNode {
                    node: m as usize,
                    score,
                })
                .collect();
            // The pinned ordering: score descending, then node id ascending.
            // `total_cmp` keeps the sort deterministic even for NaN scores, and
            // the id tie-break is explicit rather than relying on CSR column
            // order surviving an unstable sort.
            row.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.node.cmp(&b.node)));
            row.truncate(k);
            out.push(row);
        }
        self.stats.similar_queries.add(queries.len() as u64);
        Ok(out)
    }
}

/// Eq. 6 for `rows` (every row when `None`): `Z_r = (1−α)·Ẑ_r + α·H_r`
/// with `Ẑ = S·H`, or `Ẑ = H` without an operator. The full table costs one
/// SpMM and a row subset one row-sliced SpMM; both run the same per-row
/// kernel, so a recomputed row is bitwise the row a rebuild computes.
fn compute_logits(
    operator: Option<CsrViewAny<'_>>,
    h: DenseView<'_>,
    rows: Option<&[usize]>,
    alpha: f32,
) -> Result<DenseMatrix> {
    let mut z = match (operator, rows) {
        (Some(s), Some(rows)) => s.spmm_rows(rows, h)?,
        (Some(s), None) => s.spmm(h)?,
        (None, Some(rows)) => h.select_rows(rows)?,
        (None, None) => h.to_owned_matrix(),
    };
    for i in 0..z.rows() {
        let h_row = h.row(rows.map_or(i, |rows| rows[i]));
        for (z, &h) in z.row_mut(i).iter_mut().zip(h_row) {
            *z = (1.0 - alpha) * *z + alpha * h;
        }
    }
    Ok(z)
}

/// Index of the first maximum (the served label).
fn argmax(row: &[f32]) -> usize {
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

fn sorted(set: HashSet<usize>) -> Vec<usize> {
    let mut out: Vec<usize> = set.into_iter().collect();
    out.sort_unstable();
    out
}

/// Rows on which two equal-shape CSR matrices differ (indices or values).
fn changed_adjacency_rows(old: CsrViewAny<'_>, new: &CsrMatrix) -> Vec<usize> {
    debug_assert_eq!(old.shape(), new.shape());
    (0..old.rows())
        .filter(|&r| {
            let (ns, ne) = (new.indptr()[r], new.indptr()[r + 1]);
            old.row_cols(r) != &new.indices()[ns..ne] || old.row_vals(r) != &new.values()[ns..ne]
        })
        .collect()
}
