//! Spans around the benchmark's calls into each layer.
//!
//! A span records a layer name, its start and end on one monotonic
//! clock, the span that caused it, and the operation id shared by every
//! span of one request (one pass over a script, one serve request, one
//! probe). Spans stay in memory and are written out once, when the run
//! ends. A disabled tracer records nothing and allocates nothing.

use otter_metrics::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_op: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_op: AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh operation id.
    pub fn op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id
    /// to parent its own calls. With tracing off this is a plain call.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Per-layer totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    /// Duration minus the part of it that child spans cover.
    pub self_s: f64,
}

/// Self time per layer name: each span's duration minus the union of
/// its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += dur as f64 * 1e-9;
        e.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// The spans file: every span, then the per-layer self-time table.
pub fn to_json(spans: &[Span], layers: &BTreeMap<&'static str, LayerTime>) -> Json {
    let num = |x: u64| Json::Num(x as f64);
    let spans = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| num(p as u64)),
                ),
                ("op".into(), num(s.op)),
            ])
        })
        .collect();
    let layers = layers
        .iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("count".into(), num(t.count)),
                    ("total_s".into(), Json::Num(t.total_s)),
                    ("self_s".into(), Json::Num(t.self_s)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("perfbench-spans/v1".into())),
        ("spans".into(), Json::Arr(spans)),
        ("self_time".into(), Json::Obj(layers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("run", 10, 40, Some(0)),
            span("run", 30, 60, Some(0)), // overlaps the first child
            span("check", 35, 45, Some(2)),
        ];
        let t = self_times(&spans);
        assert!((t["pass"].self_s - 50e-9).abs() < 1e-15);
        assert!((t["run"].self_s - (30e-9 + 20e-9)).abs() < 1e-15);
        assert_eq!(t["run"].count, 2);
        assert!((t["check"].self_s - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("run", 1, None, |id| id), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("pass", 1, None, |id| t.span("run", 1, id, |id| id));
        assert_eq!(inner, Some(1));
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
