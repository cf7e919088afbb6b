//! `train_pokec`: the paper's offline path, generated graph → SimRank
//! operator → trained SIGMA → snapshot → mapped, verified engine answering
//! `predict_batch` over the test nodes. No daemon runs.
//!
//! After each pipeline, untimed by `pipeline_s`, the fresh engine and a few
//! more built off the same mapping each answer single-node predicts for
//! every non-test node (cold cache; `p50_us`, `p99_us`, `goodput_rps`), and
//! the first takes a few edit rounds (`edit_visible_ms`).

use crate::common::{
    argmax, edit_round, maintainer, operator_pushes, peak_rss_mib, plan_edits, Counters, Report,
    LATENCY_LIMIT,
};
use crate::stats::{median, window_quantiles};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sigma::matrix::DenseMatrix;
use sigma::nn::Optimizer;
use sigma::{
    ContextBuilder, GraphContext, Model, ModelHyperParams, SigmaModel, TrainConfig, Trainer,
};
use sigma_datasets::DatasetPreset;
use sigma_serve::{EngineConfig, InferenceEngine, MappedSnapshot, ServeSnapshot};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCALE: f64 = 2.0;
/// The graph does not depend on the workload seed, so every run trains on
/// the same work; the seed picks the split, the initial weights and the
/// read order.
const GRAPH_SEED: u64 = 2;
/// Generation takes milliseconds here, so more set-ups steady its median.
const SETUP_REPS: usize = 9;
const EPOCHS: usize = 10;
/// Pipelines per run at least, whatever `--seconds` says.
const MIN_PIPELINES: usize = 3;
const EDIT_ROUNDS: usize = 2;
/// Cold-cache passes over the non-test nodes after each pipeline.
const READ_PASSES: usize = 4;

/// Constants the workload's `why` in `BENCHMARK.json` must state.
pub fn facts() -> Vec<String> {
    vec![format!("Pokec x{SCALE}"), format!("{EPOCHS} epochs")]
}

/// Forwards every call to the model, recording a span around each
/// forward, backward and optimizer step the trainer makes.
struct TimedModel<'a> {
    inner: &'a mut SigmaModel,
    tracer: &'a Tracer,
    parent: Option<u64>,
}

impl Model for TimedModel<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> sigma::Result<DenseMatrix> {
        let _s = self.tracer.span("core.forward", self.parent);
        self.inner.forward(ctx, training, rng)
    }

    fn backward(&mut self, ctx: &GraphContext, grad_logits: &DenseMatrix) -> sigma::Result<()> {
        let _s = self.tracer.span("core.backward", self.parent);
        self.inner.backward(ctx, grad_logits)
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad()
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> sigma::Result<()> {
        let _s = self.tracer.span("core.step", self.parent);
        self.inner.apply_gradients(optimizer)
    }

    fn num_parameters(&self) -> usize {
        self.inner.num_parameters()
    }

    fn take_aggregation_time(&mut self) -> Duration {
        self.inner.take_aggregation_time()
    }
}

/// Stage times of one pipeline, for the per-layer metrics.
#[derive(Default)]
struct Stages {
    operator: Duration,
    operator_nnz: usize,
    train: Duration,
    aggregation: Duration,
    snapshot_write: Duration,
    snapshot_bytes: u64,
    open: Duration,
    verify: Duration,
    engine_build: Duration,
    predict_batch: Duration,
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer, scratch: &Path) -> Report {
    let mut report = Report::default();
    let off = Tracer::new(false);

    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPS {
        let root = tracer.span("bench.setup", None);
        let start = Instant::now();
        let (built, took) = tracer.timed("datasets.generate", root.id(), || {
            DatasetPreset::Pokec
                .build(SCALE, GRAPH_SEED)
                .expect("Pokec preset")
        });
        generate.push(took.as_secs_f64());
        setup.push(start.elapsed().as_secs_f64());
        data = Some(built);
    }
    let data = data.expect("at least one set-up");
    let split = data.default_split(seed).expect("stratified split");
    let mut readers: Vec<usize> = split.train.iter().chain(&split.val).copied().collect();
    let snapshot_path = scratch.join(format!("train_pokec-{}.snap", std::process::id()));

    let mut pipeline = [Vec::new(), Vec::new()];
    let mut stages: Vec<Stages> = Vec::new();
    let mut counters = Vec::new();
    let mut latencies_us = Vec::new();
    let mut within_limit = 0usize;
    let mut read_time = Duration::ZERO;
    let mut edit_visible = Vec::new();
    let mut first_labels: Option<Vec<usize>> = None;
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let (mut dirty_seeds, mut rows_repaired, mut rows_invalidated, mut rounds) =
        (0u64, 0u64, 0u64, 0u64);

    let started = Instant::now();
    let mut i = 0usize;
    while i < MIN_PIPELINES || started.elapsed() < Duration::from_secs(seconds) {
        // In a traced run, pipelines alternate untraced / traced so the
        // tracing overhead is measured inside one process.
        let traced = tracer.enabled() && i % 2 == 1;
        let t = if traced { tracer } else { &off };
        let before = Counters::read();
        let mut s = Stages::default();

        let root = t.span("bench.pipeline", None);
        let parent = root.id();
        let start = Instant::now();
        let ((mut maint, operator), took) =
            t.timed("simrank.operator", parent, || maintainer(&data.graph));
        s.operator = took;
        s.operator_nnz = operator.nnz();
        let (ctx, _) = t.timed("core.context", parent, || {
            ContextBuilder::new(data.clone())
                .with_simrank_operator(operator)
                .build()
                .expect("context")
        });
        let (mut model, _) = t.timed("core.model_init", parent, || {
            SigmaModel::new(
                &ctx,
                &ModelHyperParams::small(),
                &mut StdRng::seed_from_u64(seed),
            )
            .expect("model")
        });
        let train_config = TrainConfig {
            epochs: EPOCHS,
            patience: 0,
            ..TrainConfig::default()
        };
        let (train_report, took) = {
            let span = t.span("core.train", parent);
            let start = Instant::now();
            let mut timed_model = TimedModel {
                inner: &mut model,
                tracer: t,
                parent: span.id(),
            };
            let out = Trainer::new(train_config)
                .train(&mut timed_model, &ctx, &split, seed)
                .expect("training");
            (out, start.elapsed())
        };
        s.train = took;
        s.aggregation = train_report.aggregation_time;
        let (_, took) = t.timed("serve.snapshot_write", parent, || {
            ServeSnapshot::new(
                "train_pokec",
                model.snapshot(&ctx).expect("model snapshot"),
                data.features.clone(),
                data.graph.to_adjacency(),
            )
            .expect("serve snapshot")
            .save(&snapshot_path)
            .expect("snapshot write")
        });
        s.snapshot_write = took;
        s.snapshot_bytes = std::fs::metadata(&snapshot_path).map_or(0, |m| m.len());
        let (mapped, took) = t.timed("serve.open", parent, || {
            MappedSnapshot::open(&snapshot_path).expect("open")
        });
        s.open = took;
        let (_, took) = t.timed("serve.verify", parent, || mapped.verify().expect("verify"));
        s.verify = took;
        let mapped = Arc::new(mapped);
        let (engine, took) = t.timed("serve.engine_build", parent, || {
            InferenceEngine::from_mapped(mapped.clone(), EngineConfig::default()).expect("engine")
        });
        s.engine_build = took;
        let (served, took) = t.timed("serve.predict_batch", parent, || {
            engine.predict_batch(&split.test)
        });
        s.predict_batch = took;
        pipeline[usize::from(traced)].push(start.elapsed().as_secs_f64());
        drop(root);
        counters.push((before, Counters::read()));

        // Served labels must equal the final model's eval forward.
        let eval = model
            .forward(&ctx, false, &mut StdRng::seed_from_u64(seed))
            .expect("eval forward");
        let truth = |node: usize| argmax(eval.row(node));
        let mut labels = Vec::with_capacity(split.test.len());
        match served {
            Ok(served) => {
                for (p, &node) in served.iter().zip(&split.test) {
                    report.check(p.node == node && p.label == truth(node), || {
                        format!(
                            "test node {node}: served label {} != eval argmax {}",
                            p.label,
                            truth(node)
                        )
                    });
                    labels.push(p.label);
                }
            }
            Err(e) => report.fail(format!("predict_batch over the test nodes: {e}")),
        }
        match &first_labels {
            None => first_labels = Some(labels),
            Some(first) => report.check(*first == labels, || {
                "served test labels differ between pipelines".into()
            }),
        }

        // Read passes: the pipeline's engine first, then fresh engines off
        // the same mapping, each answering every non-test node once.
        for pass in 0..READ_PASSES {
            let fresh;
            let reader = if pass == 0 {
                &engine
            } else {
                fresh = InferenceEngine::from_mapped(mapped.clone(), EngineConfig::default())
                    .expect("engine");
                &fresh
            };
            readers.shuffle(&mut StdRng::seed_from_u64(
                seed ^ (i * READ_PASSES + pass) as u64,
            ));
            let reads = t.span("bench.reads", None);
            let stats_before = reader.stats();
            let read_start = Instant::now();
            for &node in &readers {
                let sent = Instant::now();
                let answer = reader.predict(node);
                let done = Instant::now();
                t.record("serve.predict", reads.id(), Some(node as u64), sent, done);
                let latency = done - sent;
                latencies_us.push(latency.as_secs_f64() * 1e6);
                let ok = matches!(&answer, Ok(p) if p.label == truth(node));
                within_limit += usize::from(ok && latency <= LATENCY_LIMIT);
                report.check(ok, || {
                    format!("predict({node}) disagrees with the eval forward")
                });
            }
            read_time += read_start.elapsed();
            drop(reads);
            let stats = reader.stats();
            hits += stats.cache_hits - stats_before.cache_hits;
            misses += stats.cache_misses - stats_before.cache_misses;
            evictions += stats.cache_evictions - stats_before.cache_evictions;
        }
        let stats = engine.stats();

        // The edits are fixed too: their repair cost depends on which
        // nodes they touch, and six rounds are too few to average that out.
        let edits = t.span("bench.edits", None);
        for updates in plan_edits(maint.graph(), EDIT_ROUNDS, GRAPH_SEED + i as u64) {
            let took = edit_round(&mut maint, &engine, &updates, t, edits.id());
            edit_visible.push(took.as_secs_f64() * 1e3);
            report.attempted += 1;
        }
        drop(edits);
        let after = engine.stats();
        dirty_seeds += after.repair_dirty_seeds - stats.repair_dirty_seeds;
        rows_repaired += after.rows_repaired - stats.rows_repaired;
        rows_invalidated += after.rows_invalidated - stats.rows_invalidated;
        rounds += EDIT_ROUNDS as u64;

        if traced || !tracer.enabled() {
            stages.push(s);
        }
        drop(engine);
        let _ = std::fs::remove_file(&snapshot_path);
        i += 1;
    }

    let windows = window_quantiles(&latencies_us);
    report.check(!windows.is_empty(), || {
        format!("{} reads cannot support p99", latencies_us.len())
    });
    let over_windows =
        |f: fn(&(f64, f64)) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", median(&setup));
    let all_pipelines: Vec<f64> = pipeline.concat();
    report.set("pipeline_s", median(&all_pipelines));
    let test = split.test.len().max(1) as f64;
    let correct = first_labels
        .unwrap_or_default()
        .iter()
        .zip(&split.test)
        .filter(|(label, node)| **label == data.labels[**node])
        .count();
    report.set("test_acc", correct as f64 / test);
    report.set("peak_rss_mb", peak_rss_mib());
    report.set("p50_us", over_windows(|w| w.0));
    report.set("p99_us", over_windows(|w| w.1));
    report.set(
        "goodput_rps",
        within_limit as f64 / read_time.as_secs_f64().max(1e-9),
    );
    report.set("edit_visible_ms", median(&edit_visible));

    if tracer.enabled() {
        let med = |f: &dyn Fn(&Stages) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
        report.set("datasets.generate_s", median(&generate));
        report.set("simrank.operator_s", med(&|s| s.operator.as_secs_f64()));
        report.set("simrank.pushes", operator_pushes(&data.graph));
        report.set("simrank.operator_nnz", med(&|s| s.operator_nnz as f64));
        report.set(
            "simrank.repair_ms",
            median(&tracer.durations_ns("simrank.repair")) / 1e6,
        );
        report.set("simrank.dirty_seeds", dirty_seeds as f64 / rounds as f64);
        report.set("core.train_s", med(&|s| s.train.as_secs_f64()));
        report.set("core.aggregation_s", med(&|s| s.aggregation.as_secs_f64()));
        let traced_epochs = (stages.len() * EPOCHS) as f64;
        let per_epoch_ms =
            |name| tracer.durations_ns(name).iter().sum::<f64>() / 1e6 / traced_epochs;
        report.set("core.forward_ms", per_epoch_ms("core.forward"));
        report.set("core.backward_ms", per_epoch_ms("core.backward"));
        report.set("core.step_ms", per_epoch_ms("core.step"));
        // Counters of the last traced pipeline (they are deterministic).
        let (before, after) = counters.last().expect("at least one pipeline");
        after.report_since(before, &mut report);
        report.set(
            "serve.snapshot_write_ms",
            med(&|s| s.snapshot_write.as_secs_f64() * 1e3),
        );
        report.set("serve.snapshot_bytes", med(&|s| s.snapshot_bytes as f64));
        report.set("serve.open_us", med(&|s| s.open.as_secs_f64() * 1e6));
        report.set("serve.verify_ms", med(&|s| s.verify.as_secs_f64() * 1e3));
        report.set(
            "serve.engine_build_ms",
            med(&|s| s.engine_build.as_secs_f64() * 1e3),
        );
        report.set("serve.predict_us", median(&latencies_us));
        report.set(
            "serve.predict_batch_us",
            med(&|s| s.predict_batch.as_secs_f64() * 1e6),
        );
        report.set(
            "serve.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "serve.cache_evictions",
            evictions as f64 / (i * READ_PASSES) as f64,
        );
        report.set("serve.rows_repaired", rows_repaired as f64 / rounds as f64);
        report.set(
            "serve.rows_invalidated",
            rows_invalidated as f64 / rounds as f64,
        );
        report.set(
            "serve.repair_apply_ms",
            median(&tracer.durations_ns("serve.repair_apply")) / 1e6,
        );
        report.set(
            "trace.overhead_frac",
            median(&pipeline[1]) / median(&pipeline[0]) - 1.0,
        );
    }
    report
}
