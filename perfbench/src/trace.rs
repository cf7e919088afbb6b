//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A span's layer is its name up to the first `.`; spans of layer `bench`
//! are the benchmark's own roots, so their self time is the time no layer
//! span accounts for. Spans stay in memory and are written out when the run
//! ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped. Inert when tracing is off.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: Option<u64>,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, to pass as a child's parent (`None` when off).
    pub fn id(&self) -> Option<u64> {
        self.tracer.enabled.then_some(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let end_ns = self.tracer.now_ns();
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                request: self.request,
            });
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn span(&self, name: &'static str, parent: Option<u64>) -> Guard<'_> {
        self.span_for(name, parent, None)
    }

    pub fn span_for(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> Guard<'_> {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Guard {
            tracer: self,
            id,
            parent,
            name,
            request,
            start_ns,
        }
    }

    /// Runs `f` inside a span named `name` and returns its result and wall
    /// time (measured whether or not tracing is on).
    pub fn timed<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let _s = self.span(name, parent);
        let start = Instant::now();
        let out = f();
        (out, start.elapsed())
    }

    /// Records an already-timed interval (`start`..`end`) as a span and
    /// returns its id (`None` when off).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            name,
            start_ns: at(start),
            end_ns: at(end),
            request,
        });
        Some(id)
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Durations (ns) of every span with this name.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes one tab-separated line per span:
    /// `id parent name start_ns end_ns request`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\trequest")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                opt(s.parent),
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, and the identity that makes the budget reconcile.
#[derive(Debug, Default)]
pub struct Budget {
    /// Layer → summed self time (ns). `bench` is the unattributed part.
    pub self_ns: BTreeMap<String, u64>,
    /// Summed duration of the root spans (the traced end-to-end time).
    pub root_ns: u64,
}

impl Budget {
    /// A span's self time is its duration minus the union of its children's
    /// intervals clipped to it. Summed over a tree whose children nest
    /// inside their parents and do not overlap, self times add up to the
    /// root's duration exactly.
    pub fn of(spans: &[Span]) -> Budget {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut budget = Budget::default();
        for s in spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            *budget.self_ns.entry(layer(s.name).to_string()).or_default() +=
                (s.end_ns - s.start_ns).saturating_sub(covered);
            if s.parent.is_none() {
                budget.root_ns += s.end_ns - s.start_ns;
            }
        }
        budget
    }

    pub fn attributed_ns(&self) -> u64 {
        self.self_ns
            .iter()
            .filter(|(layer, _)| layer.as_str() != "bench")
            .map(|(_, ns)| ns)
            .sum()
    }

    pub fn unattributed_ns(&self) -> u64 {
        self.self_ns.get("bench").copied().unwrap_or(0)
    }

    /// |attributed + unattributed − traced end-to-end| as a share of the
    /// traced end-to-end time.
    pub fn reconcile_error(&self) -> f64 {
        let total = self.attributed_ns() + self.unattributed_ns();
        total.abs_diff(self.root_ns) as f64 / self.root_ns.max(1) as f64
    }

    pub fn print(&self, workload: &str) {
        println!("self time per layer ({workload}):");
        println!("  {:<10} {:>12} {:>8}", "layer", "self ms", "share");
        for (layer, ns) in &self.self_ns {
            let label = if layer == "bench" { "unattrib." } else { layer };
            println!(
                "  {:<10} {:>12.3} {:>7.1}%",
                label,
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / self.root_ns.max(1) as f64
            );
        }
        println!(
            "  {:<10} {:>12.3}  (reconcile error {:.4}%)",
            "traced e2e",
            self.root_ns as f64 / 1e6,
            100.0 * self.reconcile_error()
        );
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            request: None,
        }
    }

    #[test]
    fn nested_spans_reconcile_exactly() {
        let spans = vec![
            span(1, None, "bench.run", 0, 100),
            span(2, Some(1), "simrank.operator", 10, 40),
            span(3, Some(1), "core.train", 40, 90),
            span(4, Some(3), "core.forward", 45, 60),
            span(5, Some(3), "core.backward", 60, 80),
        ];
        let b = Budget::of(&spans);
        assert_eq!(b.root_ns, 100);
        assert_eq!(b.self_ns["bench"], 20);
        assert_eq!(b.self_ns["simrank"], 30);
        assert_eq!(b.self_ns["core"], 50);
        assert_eq!(b.reconcile_error(), 0.0);
    }

    #[test]
    fn a_child_escaping_its_parent_breaks_the_identity() {
        let spans = vec![
            span(1, None, "bench.run", 0, 100),
            span(2, Some(1), "serve.open", 90, 130),
        ];
        // Root self 90 + child 40 against a 100 ns root.
        assert!((Budget::of(&spans).reconcile_error() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_toward_the_parent() {
        let mut iv = vec![(10, 50), (30, 70), (80, 200)];
        assert_eq!(union_within(&mut iv, 0, 100), 60 + 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("serve.open", None);
            assert_eq!(g.id(), None);
        }
        t.record("serve.open", None, None, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
