//! `serve_hot` and `serve_churn`: an untrained SIGMA model over a
//! SnapPatents graph, served by an in-process `sigma-daemon` with its
//! default configuration and driven over loopback sockets.
//!
//! The graph and model are fixed, so set-up does the same work on every
//! run; the workload seed picks the traffic: node popularity, the request
//! stream, arrival times and the graph edits.
//!
//! * `serve_hot` — reads only, on a working set the engine's Ẑ-row cache
//!   holds: Zipf(1.25) node popularity, 70% `/v1/predict`, 20%
//!   `/v1/predict_batch` of 16 nodes, 10% `/v1/similar` with k = 8. An open
//!   loop at a fixed rate, alternating between 2 connections, then a closed
//!   loop on 2 connections. A few edit rounds follow the reads, with no reads beside
//!   them.
//! * `serve_churn` — reads beside writes, on a working set the cache cannot
//!   hold: uniform `/v1/predict` reads in an open loop on one connection,
//!   and rounds of 4 edits + `/v1/repair` at a fixed cadence on the other.

use crate::common::{
    edges_body, maintainer, operator_pushes, peak_rss_mib, plan_edits, same_prediction,
    simrank_config, Counters, Report, LATENCY_LIMIT,
};
use crate::load::{closed_loop, open_loop, post, Outcome, Planned};
use crate::stats::{median, nearest_rank, sorted, window_quantiles};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigma::{ContextBuilder, ModelHyperParams, SigmaModel};
use sigma_daemon::{http, json, Backend, Daemon, DaemonConfig, DaemonStats, Response};
use sigma_datasets::{Dataset, DatasetPreset};
use sigma_graph::Graph;
use sigma_serve::{
    EngineConfig, EngineStats, InferenceEngine, MappedSnapshot, Prediction, ServeSnapshot,
};
use sigma_simrank::{DynamicSimRank, EdgeUpdate};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCALE: f64 = 4.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The served graph and model do not depend on the workload seed.
const GRAPH_SEED: u64 = 4;
const MODEL_SEED: u64 = 47;
const HOT_SKEW: f64 = 1.25;
/// Open-loop rate of `serve_hot`. The closed-loop goodput of the code this
/// benchmark was defined on was 5.4k–6.7k req/s on a quiet 2-core host but
/// fell to 1.4k–3.1k while the host was loaded, and at 2,500 req/s the
/// open loop's backlog then grew without bound; this rate stays below
/// capacity in both conditions.
const HOT_RATE: f64 = 1200.0;
/// Share of the run spent in the open-loop phase of `serve_hot`.
const HOT_OPEN_SHARE: f64 = 0.5;
const HOT_EDIT_ROUNDS: usize = 5;
const BATCH: usize = 16;
const SIMILAR_K: usize = 8;
const CHURN_RATE: f64 = 500.0;
const CHURN_EDIT_EVERY_MS: u64 = 500;
/// Every this-many-th `serve_hot` read is checked bit for bit.
const CHECK_EVERY: u64 = 4;
/// Nodes compared against a rebuilt engine after `serve_churn`.
const SAMPLED_NODES: usize = 256;
/// A run whose generator sent requests later than this after their due
/// time at p99 (half the latency limit) is marked invalid.
const GEN_LATE_LIMIT_US: f64 = 1000.0;
/// Requests pre-encoded per closed-loop connection (cycled if exhausted).
const CLOSED_PLAN: usize = 40_000;

pub fn hot_facts() -> Vec<String> {
    vec![
        format!("SnapPatents x{SCALE}"),
        format!("Zipf {HOT_SKEW}"),
        "70/20/10".into(),
        format!("batch {BATCH}"),
        format!("k={SIMILAR_K}"),
        format!("{HOT_RATE} req/s"),
        format!("{} ms", LATENCY_LIMIT.as_millis()),
    ]
}

pub fn churn_facts() -> Vec<String> {
    vec![
        format!("SnapPatents x{SCALE}"),
        format!("{CHURN_RATE} req/s"),
        format!("every {CHURN_EDIT_EVERY_MS} ms"),
        format!("{} edits", crate::common::EDITS_PER_ROUND),
    ]
}

#[derive(Clone)]
enum Query {
    Predict(usize),
    Batch(Vec<usize>),
    Similar(usize, usize),
    Edges,
    Repair,
}

impl Query {
    fn encode(&self, edits: &[EdgeUpdate]) -> Vec<u8> {
        match self {
            Query::Predict(node) => post("/v1/predict", &format!("{{\"node\": {node}}}")),
            Query::Batch(nodes) => {
                let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
                post(
                    "/v1/predict_batch",
                    &format!("{{\"nodes\": [{}]}}", ids.join(", ")),
                )
            }
            Query::Similar(node, k) => {
                post("/v1/similar", &format!("{{\"node\": {node}, \"k\": {k}}}"))
            }
            Query::Edges => post("/v1/edges", &edges_body(edits)),
            Query::Repair => post("/v1/repair", "{}"),
        }
    }

    fn is_read(&self) -> bool {
        !matches!(self, Query::Edges | Query::Repair)
    }
}

/// Every request of a run, indexed by its id, encoded before timing.
#[derive(Default)]
struct Plan {
    queries: Vec<Query>,
    /// Edits carried by each `Edges` query, by id.
    edits: Vec<Vec<EdgeUpdate>>,
}

impl Plan {
    fn add(&mut self, query: Query, edits: Vec<EdgeUpdate>, due: Duration) -> Planned {
        let id = self.queries.len() as u64;
        let bytes = query.encode(&edits);
        self.queries.push(query);
        self.edits.push(edits);
        Planned { id, due, bytes }
    }
}

/// Evenly spaced due times at `rate` per second over `span`: a fixed rate,
/// so queueing comes from the server, not from bursts in the schedule.
fn arrivals(rate: f64, span: Duration) -> Vec<Duration> {
    let count = (rate * span.as_secs_f64()) as u32;
    (0..count)
        .map(|k| Duration::from_secs_f64(f64::from(k) / rate))
        .collect()
}

/// One complete set-up: generated graph, operator, snapshot, mapped engine
/// and running daemon.
struct Served {
    data: Dataset,
    snapshot: ServeSnapshot,
    engine: Arc<InferenceEngine>,
    /// Running for the set-up that serves the run; stopped for the others.
    daemon: Option<Daemon>,
    path: std::path::PathBuf,
    setup: f64,
    pipeline: f64,
    generate: f64,
    operator: f64,
    operator_nnz: usize,
    snapshot_write: f64,
    snapshot_bytes: u64,
    open: f64,
    verify: f64,
    engine_build: f64,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn set_up(tracer: &Tracer, path: std::path::PathBuf) -> Served {
    let root = tracer.span("bench.setup", None);
    let parent = root.id();
    let start = Instant::now();
    let (data, generate) = tracer.timed("datasets.generate", parent, || {
        DatasetPreset::SnapPatents
            .build(SCALE, GRAPH_SEED)
            .expect("SnapPatents preset")
    });
    let pipeline_start = Instant::now();
    let ((maint, operator), operator_s) =
        tracer.timed("simrank.operator", parent, || maintainer(&data.graph));
    let operator_nnz = operator.nnz();
    let (snapshot, _) = tracer.timed("core.model", parent, || {
        let ctx = ContextBuilder::new(data.clone())
            .with_simrank_operator(operator)
            .build()
            .expect("context");
        let model = SigmaModel::new(
            &ctx,
            &ModelHyperParams::small(),
            &mut StdRng::seed_from_u64(MODEL_SEED),
        )
        .expect("model");
        ServeSnapshot::new(
            "perfbench-serve",
            model.snapshot(&ctx).expect("model snapshot"),
            data.features.clone(),
            data.graph.to_adjacency(),
        )
        .expect("serve snapshot")
    });
    let ((), snapshot_write) = tracer.timed("serve.snapshot_write", parent, || {
        snapshot.save(&path).expect("snapshot write")
    });
    let snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (mapped, open) = tracer.timed("serve.open", parent, || {
        MappedSnapshot::open(&path).expect("open")
    });
    let ((), verify) = tracer.timed("serve.verify", parent, || mapped.verify().expect("verify"));
    let (engine, engine_build) = tracer.timed("serve.engine_build", parent, || {
        Arc::new(
            InferenceEngine::from_mapped(Arc::new(mapped), EngineConfig::default())
                .expect("engine"),
        )
    });
    // The engine answering a batch ends the pipeline. A small fixed probe
    // keeps the cache as cold as the traffic will find it.
    let probe: Vec<usize> = (0..BATCH).collect();
    tracer.timed("serve.predict_batch", parent, || {
        engine.predict_batch(&probe).expect("probe batch")
    });
    let pipeline = secs(pipeline_start);
    let (daemon, _) = tracer.timed("daemon.start", parent, || {
        Daemon::start(
            Backend::Engine(engine.clone()),
            Some(maint),
            DaemonConfig::default(),
        )
        .expect("daemon")
    });
    drop(root);
    Served {
        data,
        snapshot,
        engine,
        daemon: Some(daemon),
        path,
        setup: secs(start),
        pipeline,
        generate: generate.as_secs_f64(),
        operator: operator_s.as_secs_f64(),
        operator_nnz,
        snapshot_write: snapshot_write.as_secs_f64(),
        snapshot_bytes,
        open: open.as_secs_f64(),
        verify: verify.as_secs_f64(),
        engine_build: engine_build.as_secs_f64(),
    }
}

/// Pulls the numeric values following every `"key": ` in a response body.
fn values_after<'a>(body: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\": ");
    body.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &body[at + pattern.len()..];
            let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
            rest[..end].trim()
        })
        .collect()
}

/// The logit arrays of a predict or predict_batch body, in order.
fn logit_arrays(body: &str) -> Option<Vec<Vec<f32>>> {
    body.match_indices("\"logits\": [")
        .map(|(at, m)| {
            let rest = &body[at + m.len()..];
            let end = rest.find(']')?;
            rest[..end]
                .split(", ")
                .map(|v| v.parse::<f32>().ok())
                .collect()
        })
        .collect()
}

/// Whether a predict / predict_batch body carries exactly `expected`,
/// logits bit for bit.
fn body_matches_predictions(body: &str, expected: &[Prediction]) -> bool {
    let nodes = values_after(body, "node");
    let labels = values_after(body, "label");
    let Some(logits) = logit_arrays(body) else {
        return false;
    };
    nodes.len() == expected.len()
        && labels.len() == expected.len()
        && logits.len() == expected.len()
        && expected.iter().enumerate().all(|(i, p)| {
            nodes[i].parse() == Ok(p.node)
                && labels[i].parse() == Ok(p.label)
                && logits[i].len() == p.logits.len()
                && logits[i]
                    .iter()
                    .zip(&p.logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

fn body_matches_similar(body: &str, expected: &[sigma_serve::SimilarNode]) -> bool {
    let nodes = values_after(body, "node");
    let scores = values_after(body, "score");
    nodes.len() == expected.len()
        && scores.len() == expected.len()
        && expected.iter().enumerate().all(|(i, s)| {
            nodes[i].parse() == Ok(s.node)
                && scores[i].parse::<f32>().map(f32::to_bits) == Ok(s.score.to_bits())
        })
}

/// Checks one recorded read against an in-process engine.
fn matches_engine(query: &Query, body: &[u8], engine: &InferenceEngine) -> bool {
    let Ok(body) = std::str::from_utf8(body) else {
        return false;
    };
    match query {
        Query::Predict(node) => engine
            .predict(*node)
            .is_ok_and(|p| body_matches_predictions(body, &[p])),
        Query::Batch(nodes) => engine
            .predict_batch(nodes)
            .is_ok_and(|p| body_matches_predictions(body, &p)),
        Query::Similar(node, k) => engine
            .most_similar(*node, *k)
            .is_ok_and(|s| body_matches_similar(body, &s)),
        Query::Edges | Query::Repair => true,
    }
}

/// A fresh engine built from scratch on `graph` with the served model's
/// weights.
fn rebuilt_engine(snapshot: &ServeSnapshot, graph: &Graph) -> InferenceEngine {
    let (_, operator) = maintainer(graph);
    let mut model = snapshot.model.clone();
    model.operator = Some(operator);
    let rebuilt = ServeSnapshot::new(
        "perfbench-rebuilt",
        model,
        snapshot.features.clone(),
        graph.to_adjacency(),
    )
    .expect("rebuilt snapshot");
    InferenceEngine::new(&rebuilt, EngineConfig::default()).expect("rebuilt engine")
}

/// Replays the open-loop stream in send order, in process: each read
/// goes through the daemon's own request parser, JSON parser, the engine
/// and the response writer, so the per-layer split of a request's time is
/// measured without the sockets; each churn edit round goes through
/// `edit_round`. Returns the per-read replay latencies, µs.
fn replay(
    plan: &Plan,
    sent_order: &[&Outcome],
    engine: &InferenceEngine,
    mut maint: Option<&mut DynamicSimRank>,
    tracer: &Tracer,
) -> Vec<f64> {
    let limits = http::HttpLimits::default();
    let mut latencies = Vec::new();
    for outcome in sent_order {
        let id = outcome.id;
        let query = &plan.queries[id as usize];
        if !query.is_read() {
            if let (Query::Edges, Some(m)) = (query, maint.as_deref_mut()) {
                crate::common::edit_round(m, engine, &plan.edits[id as usize], tracer, None);
            }
            continue;
        }
        let bytes = query.encode(&plan.edits[id as usize]);
        let start = Instant::now();
        let root = tracer.span_for("bench.replay", None, Some(id));
        let request = {
            let _s = tracer.span_for("daemon.read_request", root.id(), Some(id));
            http::read_request(&mut std::io::Cursor::new(&bytes), &limits)
                .expect("recorded request parses")
        };
        {
            let _s = tracer.span_for("daemon.json_parse", root.id(), Some(id));
            json::parse(&request.body).expect("recorded body parses");
        }
        match query {
            Query::Predict(node) => {
                let _s = tracer.span_for("serve.predict", root.id(), Some(id));
                let _ = engine.predict(*node);
            }
            Query::Batch(nodes) => {
                let _s = tracer.span_for("serve.predict_batch", root.id(), Some(id));
                let _ = engine.predict_batch(nodes);
            }
            Query::Similar(node, k) => {
                let _s = tracer.span_for("serve.similar", root.id(), Some(id));
                let _ = engine.most_similar(*node, *k);
            }
            Query::Edges | Query::Repair => unreachable!("writes are handled above"),
        }
        {
            let _s = tracer.span_for("daemon.write_response", root.id(), Some(id));
            let body = String::from_utf8_lossy(&outcome.body).into_owned();
            let mut out = Vec::with_capacity(body.len() + 128);
            http::write_response(&mut out, &Response::json(200, body)).expect("write to memory");
        }
        drop(root);
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
    }
    latencies
}

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Churn,
}

/// Every request of a run, encoded before timing starts.
struct Traffic {
    plan: Plan,
    /// Open-loop requests per connection.
    open: [Vec<Planned>; 2],
    /// Closed-loop requests per connection (`serve_hot`).
    closed: [Vec<Planned>; 2],
    /// Edit rounds sent after the reads (`serve_hot`).
    after: Vec<Planned>,
    edit_rounds: Vec<Vec<EdgeUpdate>>,
}

fn plan_traffic(kind: Kind, seed: u64, run_for: Duration, graph: &Graph) -> Traffic {
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Traffic {
        plan: Plan::default(),
        open: Default::default(),
        closed: Default::default(),
        after: Vec::new(),
        edit_rounds: Vec::new(),
    };
    match kind {
        Kind::Hot => {
            let zipf = crate::zipf::Zipf::new(n, HOT_SKEW, seed);
            let read = |rng: &mut StdRng| match rng.gen_range(0..100u32) {
                0..=69 => Query::Predict(zipf.sample(rng)),
                70..=89 => Query::Batch((0..BATCH).map(|_| zipf.sample(rng)).collect()),
                _ => Query::Similar(zipf.sample(rng), SIMILAR_K),
            };
            for (i, due) in arrivals(HOT_RATE, run_for.mul_f64(HOT_OPEN_SHARE))
                .into_iter()
                .enumerate()
            {
                let q = read(&mut rng);
                t.open[i % 2].push(t.plan.add(q, Vec::new(), due));
            }
            for conn in &mut t.closed {
                for _ in 0..CLOSED_PLAN {
                    let q = read(&mut rng);
                    conn.push(t.plan.add(q, Vec::new(), Duration::ZERO));
                }
            }
            t.edit_rounds = plan_edits(graph, HOT_EDIT_ROUNDS, seed);
            for round in &t.edit_rounds {
                t.after
                    .push(t.plan.add(Query::Edges, round.clone(), Duration::ZERO));
                t.after
                    .push(t.plan.add(Query::Repair, Vec::new(), Duration::ZERO));
            }
        }
        Kind::Churn => {
            for due in arrivals(CHURN_RATE, run_for) {
                let q = Query::Predict(rng.gen_range(0..n));
                t.open[0].push(t.plan.add(q, Vec::new(), due));
            }
            let every = Duration::from_millis(CHURN_EDIT_EVERY_MS);
            let rounds = (run_for.as_millis() / every.as_millis()) as usize;
            t.edit_rounds = plan_edits(graph, rounds, seed);
            for (k, round) in t.edit_rounds.iter().enumerate() {
                let due = every * k as u32;
                t.open[1].push(t.plan.add(Query::Edges, round.clone(), due));
                t.open[1].push(t.plan.add(Query::Repair, Vec::new(), due));
            }
        }
    }
    t
}

/// Outcomes and counter snapshots of the timed phases.
struct Measured {
    /// Open-loop outcomes, by id.
    open: Vec<Outcome>,
    closed: Vec<Outcome>,
    closed_secs: f64,
    after: Vec<Outcome>,
    counters: [Counters; 2],
    /// Before the reads, after the reads, after everything.
    engine: [EngineStats; 3],
    daemon: [DaemonStats; 3],
}

fn drive(
    t: &Traffic,
    served: &Served,
    daemon: &Daemon,
    run_for: Duration,
    tracer: &Tracer,
) -> Measured {
    let addr = daemon.local_addr();
    let engine_before = served.engine.stats();
    let daemon_before = daemon.stats();
    let counters_before = Counters::read();
    let start = Instant::now() + Duration::from_millis(20);
    let mut open: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = t
            .open
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| s.spawn(move || open_loop(addr, p, start, tracer)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client"))
            .collect()
    });
    open.sort_by_key(|o| o.id);
    let closed_start = Instant::now();
    let until = closed_start + run_for.mul_f64(1.0 - HOT_OPEN_SHARE);
    let closed: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = t
            .closed
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| s.spawn(move || closed_loop(addr, p, until, tracer)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client"))
            .collect()
    });
    let closed_secs = secs(closed_start);
    let counters_reads = Counters::read();
    let engine_reads = served.engine.stats();
    let daemon_reads = daemon.stats();
    let after = if t.after.is_empty() {
        Vec::new()
    } else {
        open_loop(addr, &t.after, Instant::now(), tracer)
    };
    Measured {
        open,
        closed,
        closed_secs,
        after,
        counters: [counters_before, counters_reads],
        engine: [engine_before, engine_reads, served.engine.stats()],
        daemon: [daemon_before, daemon_reads, daemon.stats()],
    }
}

pub fn run(kind: Kind, seed: u64, seconds: u64, tracer: &Tracer, scratch: &Path) -> Report {
    let mut report = Report::default();

    // Set-up, several times; the last one serves the run.
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let path = scratch.join(format!("serve-{}-{rep}.snap", std::process::id()));
        let mut served = set_up(tracer, path);
        if rep + 1 < SETUP_REPS {
            // Earlier set-ups only count toward `setup_s`.
            if let Some(daemon) = served.daemon.take() {
                daemon.shutdown();
            }
        }
        setups.push(served);
    }
    report.attempted += SETUP_REPS as u64;
    let daemon = setups
        .last_mut()
        .and_then(|s| s.daemon.take())
        .expect("the last set-up keeps its daemon");
    let med = |f: &dyn Fn(&Served) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", med(&|s| s.setup));
    report.set("pipeline_s", med(&|s| s.pipeline));
    let served = setups.last().expect("at least one set-up");
    let graph = &served.data.graph;
    let n = graph.num_nodes();

    let run_for = Duration::from_secs(seconds);
    let traffic = plan_traffic(kind, seed, run_for, graph);
    let plan = &traffic.plan;
    let m = drive(&traffic, served, &daemon, run_for, tracer);

    // Correctness: every request answered 200; every CHECK_EVERY-th hot
    // read bit-identical to an in-process engine built from the same
    // snapshot; every churn read carrying one logit vector.
    let reference =
        InferenceEngine::new(&served.snapshot, EngineConfig::default()).expect("reference engine");
    for o in m.open.iter().chain(&m.closed).chain(&m.after) {
        let query = &plan.queries[o.id as usize];
        let body_ok = match kind {
            Kind::Hot => {
                !query.is_read()
                    || o.id % CHECK_EVERY != 0
                    || matches_engine(query, &o.body, &reference)
            }
            Kind::Churn => {
                !query.is_read()
                    || std::str::from_utf8(&o.body)
                        .ok()
                        .and_then(logit_arrays)
                        .is_some_and(|l| l.len() == 1)
            }
        };
        report.check(o.status == 200 && body_ok, || {
            format!(
                "request {}: status {}, or its body differs from the reference",
                o.id, o.status
            )
        });
    }

    // Repair ≡ rebuild: after churn, served logits for sampled nodes equal
    // a fresh engine built on the final graph.
    let mut rebuild_check = None;
    if kind == Kind::Churn {
        let mut tracker = DynamicSimRank::new(graph.clone(), simrank_config(), usize::MAX / 2)
            .expect("edit tracker");
        for round in &traffic.edit_rounds {
            tracker.apply_batch(round).expect("edits in range");
        }
        let rebuilt = rebuilt_engine(&served.snapshot, tracker.graph());
        let mut sample_rng = StdRng::seed_from_u64(seed ^ 0x5a3b);
        let sample: Vec<usize> = (0..SAMPLED_NODES)
            .map(|_| sample_rng.gen_range(0..n))
            .collect();
        let expected = rebuilt.predict_batch(&sample).expect("rebuilt batch");
        let mut client =
            sigma_testutil::WireClient::connect(daemon.local_addr()).expect("check client");
        let reply = client
            .send_raw(&Query::Batch(sample.clone()).encode(&[]))
            .and_then(|()| client.read_response());
        let wire_ok = reply.is_ok_and(|r| {
            r.status == 200
                && std::str::from_utf8(&r.body)
                    .is_ok_and(|b| body_matches_predictions(b, &expected))
        });
        report.check(wire_ok, || {
            "served logits after churn differ from a rebuilt engine".into()
        });
        rebuild_check = Some((sample, expected));
    }

    // End-to-end metrics.
    let reads: Vec<&Outcome> = m
        .open
        .iter()
        .filter(|o| plan.queries[o.id as usize].is_read())
        .collect();
    // Latency windows of WINDOW consecutive reads in due order.
    let lat: Vec<f64> = reads
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e6)
        .collect();
    let windows = window_quantiles(&lat);
    report.check(!windows.is_empty(), || {
        format!("{} open-loop reads cannot support p99", lat.len())
    });
    let over_windows =
        |f: fn(&(f64, f64)) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let in_time = |o: &&Outcome| o.status == 200 && o.latency <= LATENCY_LIMIT;
    let goodput = match kind {
        // Closed loop: answers within the limit per second.
        Kind::Hot => m.closed.iter().filter(in_time).count() as f64 / m.closed_secs.max(1e-9),
        // Open loop at a fixed rate: the offered rate times the share of
        // reads answered within the limit.
        Kind::Churn => {
            CHURN_RATE * reads.iter().copied().filter(in_time).count() as f64
                / reads.len().max(1) as f64
        }
    };
    let writes: Vec<&Outcome> = m
        .open
        .iter()
        .chain(&m.after)
        .filter(|o| !plan.queries[o.id as usize].is_read())
        .collect();
    // An edits request is followed by its repair: id and id + 1.
    let edit_visible: Vec<f64> = writes
        .windows(2)
        .filter(|w| {
            matches!(plan.queries[w[0].id as usize], Query::Edges) && w[1].id == w[0].id + 1
        })
        .map(|w| (w[1].done - w[0].sent).as_secs_f64() * 1e3)
        .collect();
    let test = served
        .data
        .default_split(GRAPH_SEED)
        .expect("stratified split")
        .test;
    let test_labels = reference
        .predict_batch(&test)
        .expect("reference test batch");
    let correct = test_labels
        .iter()
        .filter(|p| p.label == served.data.labels[p.node])
        .count();
    report.set("test_acc", correct as f64 / test.len().max(1) as f64);
    report.set("peak_rss_mb", peak_rss_mib());
    report.set("p50_us", over_windows(|w| w.0));
    report.set("p99_us", over_windows(|w| w.1));
    report.set("goodput_rps", goodput);
    report.set("edit_visible_ms", median(&edit_visible));

    let late: Vec<f64> = m.open.iter().map(|o| o.late.as_secs_f64() * 1e6).collect();
    let late_p99 = nearest_rank(&sorted(&late), 0.99);
    report.set("gen.late_p99_us", late_p99);
    if late_p99 > GEN_LATE_LIMIT_US {
        report.invalid = Some(format!(
            "load generator ran late: p99 lateness {late_p99:.0} us > {GEN_LATE_LIMIT_US} us"
        ));
    }

    if tracer.enabled() {
        report.set("datasets.generate_s", med(&|s| s.generate));
        report.set("simrank.operator_s", med(&|s| s.operator));
        report.set("simrank.pushes", operator_pushes(graph));
        report.set("simrank.operator_nnz", med(&|s| s.operator_nnz as f64));
        report.set("serve.snapshot_write_ms", med(&|s| s.snapshot_write * 1e3));
        report.set("serve.snapshot_bytes", med(&|s| s.snapshot_bytes as f64));
        report.set("serve.open_us", med(&|s| s.open * 1e6));
        report.set("serve.verify_ms", med(&|s| s.verify * 1e3));
        report.set("serve.engine_build_ms", med(&|s| s.engine_build * 1e3));
        m.counters[1].report_since(&m.counters[0], &mut report);
        let [e0, e1, e2] = m.engine;
        let (hits, misses) = (
            e1.cache_hits - e0.cache_hits,
            e1.cache_misses - e0.cache_misses,
        );
        report.set(
            "serve.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "serve.cache_evictions",
            (e1.cache_evictions - e0.cache_evictions) as f64,
        );
        // Hot edits come after the reads; churn edits run beside them.
        let edits_from = if kind == Kind::Hot { e1 } else { e0 };
        let rounds = traffic.edit_rounds.len().max(1) as f64;
        let per_round = |a: u64, b: u64| (a - b) as f64 / rounds;
        report.set(
            "simrank.dirty_seeds",
            per_round(e2.repair_dirty_seeds, edits_from.repair_dirty_seeds),
        );
        report.set(
            "serve.rows_repaired",
            per_round(e2.rows_repaired, edits_from.rows_repaired),
        );
        report.set(
            "serve.rows_invalidated",
            per_round(e2.rows_invalidated, edits_from.rows_invalidated),
        );
        let [d0, d1, d2] = &m.daemon;
        let flushes = d1.batch_flushes - d0.batch_flushes;
        report.set(
            "daemon.batch_size_mean",
            (d1.coalesced_predicts - d0.coalesced_predicts) as f64 / flushes.max(1) as f64,
        );
        let shed = |d: &DaemonStats| d.connections_shed + d.batch_shed + d.deadline_shed;
        report.set("daemon.shed", (shed(d2) - shed(d0)) as f64);

        // Tracing overhead: traced (even id) against untraced (odd id)
        // open-loop reads of the same stream.
        let half = |parity: u64| {
            median(
                &reads
                    .iter()
                    .filter(|o| o.id % 2 == parity)
                    .map(|o| o.latency.as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        report.set("trace.overhead_frac", half(0) / half(1) - 1.0);

        let replay_engine =
            InferenceEngine::new(&served.snapshot, EngineConfig::default()).expect("replay engine");
        let mut replay_maintainer = (kind == Kind::Churn).then(|| maintainer(graph).0);
        let mut sent_order: Vec<&Outcome> = m.open.iter().collect();
        sent_order.sort_by_key(|o| o.sent);
        let replayed = replay(
            plan,
            &sent_order,
            &replay_engine,
            replay_maintainer.as_mut(),
            tracer,
        );
        let span_us = |name: &str| {
            let d = tracer.durations_ns(name);
            if d.is_empty() {
                0.0
            } else {
                median(&d) / 1e3
            }
        };
        report.set("serve.predict_us", span_us("serve.predict"));
        report.set("serve.predict_batch_us", span_us("serve.predict_batch"));
        report.set("serve.similar_us", span_us("serve.similar"));
        report.set("daemon.read_request_us", span_us("daemon.read_request"));
        report.set("daemon.json_parse_us", span_us("daemon.json_parse"));
        report.set("daemon.write_response_us", span_us("daemon.write_response"));
        report.set("daemon.overhead_us", median(&lat) - median(&replayed));
        report.set("simrank.repair_ms", span_us("simrank.repair") / 1e3);
        report.set("serve.repair_apply_ms", span_us("serve.repair_apply") / 1e3);
        if let Some((sample, expected)) = &rebuild_check {
            let replayed = replay_engine.predict_batch(sample).expect("replay batch");
            let same = replayed.len() == expected.len()
                && replayed
                    .iter()
                    .zip(expected)
                    .all(|(a, b)| same_prediction(a, b));
            report.check(same, || {
                "in-process repair differs from a rebuilt engine".into()
            });
        }
    }

    daemon.shutdown();
    for s in &setups {
        let _ = std::fs::remove_file(&s.path);
    }
    report
}
