//! Dynamic SimRank maintenance with lazy recomputation.
//!
//! The paper's conclusion names dynamic graphs as the main future-work
//! direction: SIGMA's aggregation operator is constant during training, so
//! when edges arrive or disappear the SimRank matrix must be refreshed
//! without redoing the full precomputation on every edit. This module
//! implements the *lazy update* strategy the paper sketches:
//!
//! * edge insertions/deletions are buffered and applied to the graph
//!   immediately, but the cached score matrix is only recomputed when a
//!   caller asks for the operator **and** the accumulated edits exceed a
//!   configurable staleness budget;
//! * between recomputations the maintainer tracks exactly which nodes are
//!   *affected* (endpoints of edited edges plus their neighbours — the only
//!   rows whose first-order SimRank terms can change), so callers can bound
//!   how stale a particular query is and tests can verify the locality
//!   argument.
//!
//! This trades a small, controllable amount of staleness for amortised
//! `O(edits)` bookkeeping, mirroring the incremental-update literature the
//! paper cites (Wang et al., ICDE'18) without reproducing its full
//! differential push machinery.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::incremental::DecomposedScores;
use crate::localpush::LocalPush;
use crate::{Result, SimRankConfig, SimRankError, SparseScores};
use sigma_graph::Graph;
use sigma_matrix::CsrMatrix;

/// A buffered edge edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Add an undirected edge `(u, v)`.
    Insert(usize, usize),
    /// Remove an undirected edge `(u, v)`.
    Delete(usize, usize),
}

/// What [`DynamicSimRank::repair`] patched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreRepair {
    /// Score/operator rows whose values were re-assembled (sorted). Rows
    /// outside this set are provably unchanged.
    pub changed_rows: Vec<usize>,
    /// Nodes whose adjacency actually changed since the last refresh or
    /// repair (sorted) — the rows of `A` (and hence of the serving-side
    /// embedding `H`) a consumer must recompute.
    pub edited_nodes: Vec<usize>,
    /// Number of seed push processes that were re-run.
    pub dirty_seeds: usize,
    /// Residual absorptions performed by the re-pushed seeds.
    pub pushes: usize,
}

impl ScoreRepair {
    fn empty() -> Self {
        Self {
            changed_rows: Vec::new(),
            edited_nodes: Vec::new(),
            dirty_seeds: 0,
            pushes: 0,
        }
    }
}

/// How [`DynamicSimRank::repair`] brought the scores up to date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairOutcome {
    /// No prior decomposition existed, so a full (decomposed) recomputation
    /// ran; every row may have changed.
    FullRefresh,
    /// Only the reported rows were re-assembled; the result is bitwise
    /// identical to what a full refresh would have produced.
    Patched(ScoreRepair),
}

/// Maintains a graph together with a lazily refreshed SimRank operator.
#[derive(Debug)]
pub struct DynamicSimRank {
    graph: Graph,
    config: SimRankConfig,
    /// Number of edits tolerated before a refresh is forced.
    staleness_budget: usize,
    /// Edits applied to the graph since the last refresh.
    pending_edits: usize,
    /// Nodes whose rows may be stale (endpoints of edits and their
    /// neighbours at edit time).
    affected: FxHashSet<u32>,
    /// Endpoints whose adjacency actually changed since the last refresh or
    /// repair — the dirtiness source for incremental repair.
    edited: FxHashSet<u32>,
    /// Seed-decomposed computation behind `cached`, patched by `repair`.
    decomposed: Option<DecomposedScores>,
    /// Cached scores from the last refresh (`None` until first computed).
    cached: Option<SparseScores>,
    /// Top-k materialisation of `cached`, built lazily and row-patched by
    /// `repair`.
    operator_cache: Option<CsrMatrix>,
    /// Number of full recomputations performed so far.
    refreshes: usize,
    /// Number of incremental repairs performed so far.
    repairs: usize,
}

impl DynamicSimRank {
    /// Creates a maintainer over an initial graph. The first operator query
    /// triggers the initial computation.
    pub fn new(graph: Graph, config: SimRankConfig, staleness_budget: usize) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            graph,
            config,
            staleness_budget,
            pending_edits: 0,
            affected: FxHashSet::default(),
            edited: FxHashSet::default(),
            decomposed: None,
            cached: None,
            operator_cache: None,
            refreshes: 0,
            repairs: 0,
        })
    }

    /// The current graph (always up to date, regardless of score staleness).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of edits applied since the scores were last refreshed.
    pub fn pending_edits(&self) -> usize {
        self.pending_edits
    }

    /// Number of full recomputations performed so far.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Number of incremental repairs performed so far.
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Nodes whose score rows may be stale: endpoints of edits since the
    /// last refresh/repair plus their neighbourhoods at edit time.
    ///
    /// Contract (pinned by a unit test): the result is sorted ascending and
    /// duplicate-free, even when several edits overlap or both endpoints of
    /// an edit share neighbours.
    pub fn affected_nodes(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.affected.iter().map(|&v| v as usize).collect();
        out.sort_unstable();
        out
    }

    /// Nodes whose adjacency actually changed since the last refresh or
    /// repair, sorted ascending. Unlike [`DynamicSimRank::affected_nodes`]
    /// this excludes no-op edits (duplicate inserts, missing deletes) and
    /// untouched neighbours — it is the exact dirtiness source incremental
    /// repair works from.
    pub fn edited_nodes(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.edited.iter().map(|&v| v as usize).collect();
        out.sort_unstable();
        out
    }

    /// Applies one edge update to the graph and records the affected region.
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<()> {
        self.apply_batch(std::slice::from_ref(&update))
    }

    /// Applies a batch of updates in order, rebuilding the graph once.
    ///
    /// The semantics are exactly those of applying the updates one by one:
    /// each edit is checked for being a no-op against the graph as the
    /// earlier edits of the batch left it, and records the neighbourhoods
    /// its endpoints had at that point. On an out-of-range update the edits
    /// before it stay applied and the error is returned.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<()> {
        let n = self.graph.num_nodes();
        // Sorted adjacency lists of the nodes the batch has changed so far;
        // every other node still reads its list from `self.graph`.
        let mut touched: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        let mut outcome = Ok(());
        for &update in updates {
            let (u, v, insert) = match update {
                EdgeUpdate::Insert(u, v) => (u, v, true),
                EdgeUpdate::Delete(u, v) => (u, v, false),
            };
            if u >= n || v >= n {
                outcome = Err(SimRankError::NodeOutOfBounds {
                    node: u.max(v),
                    num_nodes: n,
                });
                break;
            }
            // No-op edits (duplicate inserts, self-loops, missing deletes)
            // leave the topology — and therefore the scores — untouched;
            // record nothing so they neither burn staleness budget nor
            // dirty repairs.
            let present = neighbours(&self.graph, &touched, u)
                .binary_search(&(v as u32))
                .is_ok();
            let changes = if insert { u != v && !present } else { present };
            if !changes {
                continue;
            }
            // Mark the endpoints and their current neighbourhoods stale
            // *before* editing, so deletions also record the old neighbours.
            for &endpoint in &[u, v] {
                self.affected.insert(endpoint as u32);
                self.edited.insert(endpoint as u32);
                self.affected
                    .extend(neighbours(&self.graph, &touched, endpoint).iter().copied());
            }
            for (a, b) in [(u, v), (v, u)] {
                let list = touched
                    .entry(a as u32)
                    .or_insert_with(|| self.graph.neighbors(a).to_vec());
                match list.binary_search(&(b as u32)) {
                    Ok(i) if !insert => {
                        list.remove(i);
                    }
                    Err(i) if insert => list.insert(i, b as u32),
                    _ => unreachable!("the no-op check above saw the same lists"),
                }
            }
            self.pending_edits += 1;
        }
        if !touched.is_empty() {
            // Untouched nodes keep their edges to each other; every edge
            // with a touched endpoint comes from the touched lists (twice
            // when both endpoints are touched — `from_edges` deduplicates).
            let is_touched = |w: usize| touched.contains_key(&(w as u32));
            let mut edges: Vec<(usize, usize)> = self
                .graph
                .edges()
                .filter(|&(a, b)| !is_touched(a) && !is_touched(b))
                .collect();
            for (&a, list) in &touched {
                edges.extend(list.iter().map(|&b| (a as usize, b as usize)));
            }
            self.graph = Graph::from_edges(n, &edges)?;
        }
        outcome
    }

    /// Whether the cached scores are stale enough that the next operator
    /// query will trigger a recomputation.
    pub fn needs_refresh(&self) -> bool {
        self.cached.is_none() || self.pending_edits > self.staleness_budget
    }

    /// Forces an immediate full recomputation regardless of the staleness
    /// budget. Runs the seed-decomposed solver so the result is incrementally
    /// repairable by [`DynamicSimRank::repair`].
    pub fn refresh(&mut self) -> Result<()> {
        let decomposed = LocalPush::new(&self.graph, self.config)?.run_decomposed();
        self.cached = Some(decomposed.assemble());
        self.decomposed = Some(decomposed);
        self.operator_cache = None;
        self.pending_edits = 0;
        self.affected.clear();
        self.edited.clear();
        self.refreshes += 1;
        Ok(())
    }

    /// Incrementally brings the cached scores and operator up to date with
    /// the current graph, re-pushing only the seeds the edits since the last
    /// refresh/repair can influence.
    ///
    /// The patched state is **bitwise identical** to what a full
    /// [`DynamicSimRank::refresh`] would produce — the differential harness
    /// in `sigma-testutil` holds this to random edit traces — while the work
    /// scales with the edited region instead of the whole graph. Falls back
    /// to a full refresh when nothing has been computed yet.
    pub fn repair(&mut self) -> Result<RepairOutcome> {
        if self.decomposed.is_none() {
            self.refresh()?;
            return Ok(RepairOutcome::FullRefresh);
        }
        if self.edited.is_empty() {
            self.pending_edits = 0;
            self.affected.clear();
            return Ok(RepairOutcome::Patched(ScoreRepair::empty()));
        }
        let edited = self.edited_nodes();
        let mut solver = LocalPush::new(&self.graph, self.config)?;
        let decomposed = self
            .decomposed
            .as_mut()
            .expect("checked above: decomposition exists");
        let report = solver.repair(decomposed, &edited)?;
        let cached = self
            .cached
            .as_mut()
            .expect("a decomposition is always assembled into cached scores");
        decomposed.assemble_rows_into(cached, &report.changed_rows);
        if let Some(operator) = &self.operator_cache {
            let patch = cached.rows_to_csr(&report.changed_rows, self.config.top_k);
            self.operator_cache = Some(operator.replace_rows(&report.changed_rows, &patch)?);
        }
        self.pending_edits = 0;
        self.affected.clear();
        self.edited.clear();
        self.repairs += 1;
        Ok(RepairOutcome::Patched(ScoreRepair {
            changed_rows: report.changed_rows,
            edited_nodes: edited,
            dirty_seeds: report.dirty_seeds.len(),
            pushes: report.pushes,
        }))
    }

    /// Returns the (possibly slightly stale) scores, refreshing them first if
    /// the staleness budget is exhausted or nothing has been computed yet.
    pub fn scores(&mut self) -> Result<&SparseScores> {
        if self.needs_refresh() {
            self.refresh()?;
        }
        Ok(self.cached.as_ref().expect("refresh populates the cache"))
    }

    /// Materialises the current top-k aggregation operator (refreshing lazily
    /// like [`DynamicSimRank::scores`]). The materialisation is cached and
    /// row-patched by [`DynamicSimRank::repair`], so repeated queries between
    /// edits are cheap.
    pub fn operator(&mut self) -> Result<CsrMatrix> {
        if self.needs_refresh() {
            self.refresh()?;
        }
        if self.operator_cache.is_none() {
            let scores = self.cached.as_ref().expect("refresh populates the cache");
            self.operator_cache = Some(scores.to_csr(self.config.top_k));
        }
        Ok(self
            .operator_cache
            .clone()
            .expect("materialised immediately above"))
    }

    /// Materialises the top-k operator rows for the listed score rows as a
    /// `rows.len() × n` CSR patch against the *current* cached scores —
    /// the row payload consumers splice in with `CsrMatrix::replace_rows`
    /// after a [`DynamicSimRank::repair`].
    pub fn operator_rows(&mut self, rows: &[usize]) -> Result<CsrMatrix> {
        let n = self.graph.num_nodes();
        for &row in rows {
            if row >= n {
                return Err(SimRankError::NodeOutOfBounds {
                    node: row,
                    num_nodes: n,
                });
            }
        }
        if self.cached.is_none() {
            self.refresh()?;
        }
        let scores = self.cached.as_ref().expect("refresh populates the cache");
        Ok(scores.rows_to_csr(rows, self.config.top_k))
    }
}

/// The current neighbours of `node` during a batch: its edited list if the
/// batch has touched it, else its list in `graph`.
fn neighbours<'a>(
    graph: &'a Graph,
    touched: &'a FxHashMap<u32, Vec<u32>>,
    node: usize,
) -> &'a [u32] {
    touched
        .get(&(node as u32))
        .map_or_else(|| graph.neighbors(node), Vec::as_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    fn maintainer(budget: usize) -> DynamicSimRank {
        DynamicSimRank::new(ring(12), SimRankConfig::default().with_top_k(4), budget).unwrap()
    }

    #[test]
    fn first_query_computes_scores() {
        let mut dyn_sim = maintainer(5);
        assert!(dyn_sim.needs_refresh());
        let op = dyn_sim.operator().unwrap();
        assert_eq!(op.shape(), (12, 12));
        assert_eq!(dyn_sim.refreshes(), 1);
        assert!(!dyn_sim.needs_refresh());
    }

    #[test]
    fn edits_are_applied_to_the_graph_immediately() {
        let mut dyn_sim = maintainer(10);
        assert!(!dyn_sim.graph().has_edge(0, 6));
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        assert!(dyn_sim.graph().has_edge(0, 6));
        dyn_sim.apply(EdgeUpdate::Delete(0, 6)).unwrap();
        assert!(!dyn_sim.graph().has_edge(0, 6));
        assert_eq!(dyn_sim.pending_edits(), 2);
    }

    #[test]
    fn refresh_is_lazy_until_budget_is_exhausted() {
        let mut dyn_sim = maintainer(2);
        let _ = dyn_sim.scores().unwrap();
        assert_eq!(dyn_sim.refreshes(), 1);
        // Two edits stay within the budget: no recomputation on query.
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        dyn_sim.apply(EdgeUpdate::Insert(1, 7)).unwrap();
        let _ = dyn_sim.scores().unwrap();
        assert_eq!(dyn_sim.refreshes(), 1);
        // A third edit exceeds it: the next query recomputes.
        dyn_sim.apply(EdgeUpdate::Insert(2, 8)).unwrap();
        let _ = dyn_sim.scores().unwrap();
        assert_eq!(dyn_sim.refreshes(), 2);
        assert_eq!(dyn_sim.pending_edits(), 0);
    }

    #[test]
    fn affected_nodes_cover_endpoints_and_neighbours() {
        let mut dyn_sim = maintainer(10);
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        let affected = dyn_sim.affected_nodes();
        for node in [0usize, 1, 5, 6, 7, 11] {
            assert!(affected.contains(&node), "{node} missing from {affected:?}");
        }
        assert!(!affected.contains(&3));
        // A refresh clears the stale set.
        dyn_sim.refresh().unwrap();
        assert!(dyn_sim.affected_nodes().is_empty());
    }

    #[test]
    fn inserted_edges_change_the_scores_after_refresh() {
        let mut dyn_sim = maintainer(0);
        // The 12-cycle is bipartite, so odd-distance pairs such as (0, 5)
        // have no even-length meeting tours and score exactly zero.
        let before = dyn_sim.scores().unwrap().get(0, 5);
        assert!(before < 1e-6);
        // Adding the chord (0, 6) gives nodes 0 and 5 the shared neighbour 6.
        dyn_sim.apply(EdgeUpdate::Insert(0, 6)).unwrap();
        let after = dyn_sim.scores().unwrap().get(0, 5);
        assert!(
            after > 0.05,
            "a new shared neighbour should raise S(0,5): {before} -> {after}"
        );
    }

    #[test]
    fn duplicate_inserts_and_missing_deletes_are_no_ops_on_topology() {
        let mut dyn_sim = maintainer(10);
        let edges_before = dyn_sim.graph().num_edges();
        dyn_sim.apply(EdgeUpdate::Insert(0, 1)).unwrap(); // already present
        dyn_sim.apply(EdgeUpdate::Delete(3, 9)).unwrap(); // not present
        assert_eq!(dyn_sim.graph().num_edges(), edges_before);
        // No-op edits leave no trace: no staleness burnt, nothing to repair.
        assert_eq!(dyn_sim.pending_edits(), 0);
        assert!(dyn_sim.affected_nodes().is_empty());
        assert!(dyn_sim.edited_nodes().is_empty());
    }

    /// Applies `updates` once as a batch and once edit by edit, and asserts
    /// the two maintainers agree on everything an edit records.
    fn assert_batch_matches_one_by_one(graph: Graph, updates: &[EdgeUpdate]) {
        let cfg = SimRankConfig::default();
        let mut batched = DynamicSimRank::new(graph.clone(), cfg, 1000).unwrap();
        let mut single = DynamicSimRank::new(graph, cfg, 1000).unwrap();
        let batch_result = batched.apply_batch(updates);
        let mut single_result = Ok(());
        for &update in updates {
            single_result = single.apply(update);
            if single_result.is_err() {
                break;
            }
        }
        assert_eq!(batch_result.is_err(), single_result.is_err());
        let edges = |d: &DynamicSimRank| d.graph().edges().collect::<Vec<_>>();
        assert_eq!(edges(&batched), edges(&single));
        assert_eq!(batched.pending_edits(), single.pending_edits());
        assert_eq!(batched.affected_nodes(), single.affected_nodes());
        assert_eq!(batched.edited_nodes(), single.edited_nodes());
    }

    #[test]
    fn batch_application_matches_one_by_one() {
        use EdgeUpdate::{Delete, Insert};
        // Insert-then-delete of the same edge, duplicate inserts, a missing
        // delete, a self-loop, and delete-then-reinsert of a ring edge.
        assert_batch_matches_one_by_one(
            ring(12),
            &[
                Insert(0, 6),
                Insert(6, 0),
                Delete(0, 6),
                Insert(0, 1),
                Delete(3, 9),
                Insert(4, 4),
                Delete(2, 3),
                Insert(3, 2),
                Insert(5, 9),
                Delete(9, 5),
                Insert(5, 9),
            ],
        );
        // An out-of-range edit mid-batch keeps the edits before it.
        assert_batch_matches_one_by_one(ring(12), &[Insert(0, 6), Insert(1, 99), Insert(2, 8)]);
        // A longer pseudo-random trace over a small node set, so edits
        // collide with each other and with the ring.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let trace: Vec<EdgeUpdate> = (0..200)
            .map(|_| {
                let (u, v) = (next(16), next(16));
                if next(3) == 0 {
                    Delete(u, v)
                } else {
                    Insert(u, v)
                }
            })
            .collect();
        assert_batch_matches_one_by_one(ring(16), &trace);
    }

    #[test]
    fn affected_nodes_are_sorted_and_duplicate_free() {
        // Insert (0, 2) on the 12-ring: the endpoints share neighbour 1, and
        // a second overlapping edit repeats several nodes. The contract is
        // that `affected_nodes` reports each node once, sorted ascending.
        let mut dyn_sim = maintainer(10);
        dyn_sim.apply(EdgeUpdate::Insert(0, 2)).unwrap();
        let affected = dyn_sim.affected_nodes();
        assert_eq!(affected, vec![0, 1, 2, 3, 11]);
        dyn_sim.apply(EdgeUpdate::Insert(1, 3)).unwrap();
        let affected = dyn_sim.affected_nodes();
        assert!(affected.windows(2).all(|w| w[0] < w[1]), "{affected:?}");
        assert_eq!(affected, vec![0, 1, 2, 3, 4, 11]);
        let edited = dyn_sim.edited_nodes();
        assert!(edited.windows(2).all(|w| w[0] < w[1]), "{edited:?}");
        assert_eq!(edited, vec![0, 1, 2, 3]);
    }

    fn scores_bits(s: &SparseScores) -> Vec<Vec<(usize, u32)>> {
        (0..s.num_nodes())
            .map(|u| {
                let mut row: Vec<(usize, u32)> = s.row(u).map(|(v, x)| (v, x.to_bits())).collect();
                row.sort_unstable();
                row
            })
            .collect()
    }

    #[test]
    fn repair_is_bitwise_identical_to_refresh() {
        let mut incremental = maintainer(100);
        let _ = incremental.operator().unwrap(); // initial decomposition
        let updates = [
            EdgeUpdate::Insert(0, 6),
            EdgeUpdate::Delete(3, 4),
            EdgeUpdate::Insert(2, 9),
        ];
        incremental.apply_batch(&updates).unwrap();
        let outcome = incremental.repair().unwrap();
        let repair = match outcome {
            RepairOutcome::Patched(r) => r,
            other => panic!("expected a patch, got {other:?}"),
        };
        assert!(!repair.changed_rows.is_empty());
        assert_eq!(repair.edited_nodes, vec![0, 2, 3, 4, 6, 9]);
        assert_eq!(incremental.repairs(), 1);
        assert_eq!(incremental.pending_edits(), 0);

        // A maintainer that takes the full-refresh road instead.
        let mut full = maintainer(100);
        full.apply_batch(&updates).unwrap();
        full.refresh().unwrap();
        assert_eq!(
            scores_bits(incremental.scores().unwrap()),
            scores_bits(full.scores().unwrap())
        );
        assert_eq!(incremental.operator().unwrap(), full.operator().unwrap());
    }

    #[test]
    fn delete_then_readd_repairs_back_to_the_original_state() {
        let mut dyn_sim = maintainer(100);
        let original = dyn_sim.operator().unwrap();
        dyn_sim.apply(EdgeUpdate::Delete(0, 1)).unwrap();
        dyn_sim.apply(EdgeUpdate::Insert(0, 1)).unwrap();
        let outcome = dyn_sim.repair().unwrap();
        match outcome {
            // The net topology is unchanged, so the re-pushed seeds land on
            // identical values and the operator round-trips bitwise.
            RepairOutcome::Patched(repair) => assert_eq!(repair.edited_nodes, vec![0, 1]),
            other => panic!("expected a patch, got {other:?}"),
        }
        assert_eq!(dyn_sim.operator().unwrap(), original);
    }

    #[test]
    fn repair_without_prior_state_is_a_full_refresh() {
        let mut dyn_sim = maintainer(5);
        assert_eq!(dyn_sim.repair().unwrap(), RepairOutcome::FullRefresh);
        assert_eq!(dyn_sim.refreshes(), 1);
        // And with no pending edits it degenerates to an empty patch.
        match dyn_sim.repair().unwrap() {
            RepairOutcome::Patched(repair) => {
                assert!(repair.changed_rows.is_empty());
                assert_eq!(repair.dirty_seeds, 0);
            }
            other => panic!("expected an empty patch, got {other:?}"),
        }
        assert_eq!(dyn_sim.refreshes(), 1);
    }

    #[test]
    fn operator_rows_match_the_full_materialisation() {
        let mut dyn_sim = maintainer(5);
        let full = dyn_sim.operator().unwrap();
        let rows = [1usize, 4, 7];
        let slice = dyn_sim.operator_rows(&rows).unwrap();
        assert_eq!(slice, full.gather_rows(&rows).unwrap());
        assert!(dyn_sim.operator_rows(&[99]).is_err());
    }

    #[test]
    fn out_of_bounds_updates_are_rejected() {
        let mut dyn_sim = maintainer(10);
        assert!(matches!(
            dyn_sim.apply(EdgeUpdate::Insert(0, 99)),
            Err(SimRankError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = SimRankConfig {
            decay: 1.4,
            epsilon: 0.1,
            top_k: None,
        };
        assert!(DynamicSimRank::new(ring(4), bad, 1).is_err());
    }
}
