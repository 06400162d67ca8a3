//! Outside-in spans: one per call into a layer's public function.
//!
//! Spans are recorded by the adapter (the only module that calls the
//! `cypress_*` crates), kept in memory, and analysed after the block
//! ends. A span's *self time* is its duration minus the part of that
//! interval its children cover. Tracing is off unless [`begin`] was
//! called, and an inactive [`span`] is one thread-local read, so the
//! untraced run executes the same code path.
//!
//! A *composite* span wraps a runtime call that cannot be split from
//! outside (`launch_compiled`, `launch_timing`, `autotune_with`). The
//! traced block follows each such op with a *decomposed replay* of the
//! same work through direct compiler / simulator calls under a
//! `harness.replay` root; [`breakdown`] charges the replayed layer
//! times against the composite span and leaves the residual — the
//! runtime's own overhead — with the composite's layer.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of one timed op.
pub const OP_ROOT: &str = "harness.op";
/// Root span of the decomposed replay of one op.
pub const REPLAY_ROOT: &str = "harness.replay";

/// The layers `trace.share.*` is reported for.
pub const LAYERS: [&str; 6] = [
    "core",
    "sim.engine",
    "sim.functional",
    "sim.concurrent",
    "runtime",
    "harness",
];

/// One recorded span. `name` is `<layer>.<call>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The op this span belongs to (shared by the op and its replay).
    pub op: u32,
    pub composite: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: the part of its name before the
    /// first dot — two parts for the simulator, whose timing engine,
    /// functional data path and contention engine are layers of their
    /// own (`sim.engine`, `sim.functional`, `sim.concurrent`).
    pub fn layer(&self) -> &'static str {
        let parts = if self.name.starts_with("sim.") { 2 } else { 1 };
        match self.name.match_indices('.').nth(parts - 1) {
            Some((dot, _)) => &self.name[..dot],
            None => self.name,
        }
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread.
pub fn begin() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        });
    });
}

/// Stop recording and hand back every span in start order.
pub fn end() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Tag the spans that follow with op id `op`.
pub fn set_op(op: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.op = op;
        }
    });
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span named `<layer>.<call>`; a no-op unless tracing is on.
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Open a composite span (see the module docs).
pub fn composite(name: &'static str) -> Guard {
    open(name, true)
}

fn open(name: &'static str, composite: bool) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut() else {
            return Guard(None);
        };
        let now = t.epoch.elapsed().as_nanos() as u64;
        let idx = t.spans.len();
        t.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: t.open.last().copied(),
            op: t.op,
            composite,
        });
        t.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[idx].end_ns = t.epoch.elapsed().as_nanos() as u64;
                // Guards drop in reverse order of creation, so `idx`
                // is the innermost open span.
                t.open.pop();
            }
        });
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span, so overlapping or
/// overhanging children are never counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The outermost ancestor of every span. Spans start in index order,
/// so a parent's root is known before its children are visited.
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = s.parent.map_or(i, |p| root[p]);
    }
    root
}

/// Where the time of the traced ops went, by layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Nanoseconds charged to each layer (`harness` is the op loop's
    /// own self time).
    pub layer_ns: BTreeMap<&'static str, f64>,
    /// Total duration of the op root spans.
    pub op_ns: f64,
}

impl Breakdown {
    /// Share of the op time charged to `layer`, in `[0, 1]`.
    pub fn share(&self, layer: &str) -> f64 {
        if self.op_ns == 0.0 {
            return 0.0;
        }
        self.layer_ns.get(layer).copied().unwrap_or(0.0) / self.op_ns
    }

    /// Per cent of the op time that sits in a layer span (everything
    /// but the harness's own self time).
    pub fn accounted_pct(&self) -> f64 {
        100.0 * (1.0 - self.share("harness"))
    }
}

/// Charge every span's self time to its layer, splitting composite
/// spans by their op's decomposed replay.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let own = self_times(spans);
    let root = roots(spans);
    let in_replay = |i: usize| spans[root[i]].name == REPLAY_ROOT;

    let mut replayed: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut composite_ns: BTreeMap<u32, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if in_replay(i) {
            if root[i] != i {
                *replayed
                    .entry(s.op)
                    .or_default()
                    .entry(s.layer())
                    .or_default() += own[i] as f64;
            }
        } else if s.composite {
            *composite_ns.entry(s.op).or_default() += own[i] as f64;
        }
    }

    let mut out = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        if in_replay(i) {
            continue;
        }
        if root[i] == i {
            out.op_ns += s.dur_ns() as f64;
        }
        let own_ns = own[i] as f64;
        let parts = replayed.get(&s.op).filter(|_| s.composite);
        let Some(parts) = parts else {
            *out.layer_ns.entry(s.layer()).or_default() += own_ns;
            continue;
        };
        // This span's share of the op's composite time takes the same
        // share of the replay; a replay longer than the composite
        // (noise) is scaled down to fit, leaving no residual.
        let total: f64 = parts.values().sum();
        let weight = own_ns / composite_ns[&s.op].max(1.0);
        let scale = weight * (composite_ns[&s.op] / total.max(1.0)).min(1.0);
        let mut charged = 0.0;
        for (layer, ns) in parts {
            *out.layer_ns.entry(layer).or_default() += ns * scale;
            charged += ns * scale;
        }
        *out.layer_ns.entry(s.layer()).or_default() += (own_ns - charged).max(0.0);
    }
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering: complete
/// events in microseconds, ops on thread 1 and replays on thread 2.
pub fn chrome_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let root = roots(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let replay = spans[root[i]].name == REPLAY_ROOT;
            Value::obj([
                ("name", Value::Str(s.name.into())),
                ("cat", Value::Str(s.layer().into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(if replay { 2.0 } else { 1.0 })),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op", Value::Num(f64::from(s.op))),
                        ("self_us", Value::Num(own[i] as f64 / 1e3)),
                        ("composite", Value::Bool(s.composite)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::obj([("traceEvents", Value::Arr(events))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u32,
        composite: bool,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            composite,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span_at(OP_ROOT, 0, 100, None, 0, false),
            span_at("core.compile", 10, 60, Some(0), 0, false),
            span_at("sim.lower", 20, 30, Some(1), 0, false),
            span_at("sim.time", 70, 90, Some(0), 0, false),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let spans = [
            span_at(OP_ROOT, 0, 100, None, 0, false),
            // Two children overlapping on [30, 50).
            span_at("core.a", 10, 50, Some(0), 0, false),
            span_at("core.b", 30, 70, Some(0), 0, false),
            // One child overhanging the parent's end.
            span_at("core.c", 90, 130, Some(0), 0, false),
            // One child fully inside an earlier sibling.
            span_at("core.d", 35, 45, Some(0), 0, false),
        ];
        // Covered: [10, 70) and [90, 100) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn breakdown_splits_a_composite_by_its_replay() {
        let spans = [
            span_at(OP_ROOT, 0, 1000, None, 7, false),
            span_at("runtime.launch", 100, 900, Some(0), 7, true),
            span_at(REPLAY_ROOT, 1000, 1700, None, 7, false),
            span_at("sim.functional.run", 1000, 1600, Some(2), 7, false),
            span_at("core.compile", 1600, 1700, Some(2), 7, false),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.op_ns, 1000.0);
        assert_eq!(b.layer_ns["sim.functional"], 600.0);
        assert_eq!(b.layer_ns["core"], 100.0);
        assert_eq!(
            b.layer_ns["runtime"], 100.0,
            "residual stays with the composite"
        );
        assert_eq!(b.layer_ns["harness"], 200.0);
        assert!((b.accounted_pct() - 80.0).abs() < 1e-9);
        assert!((b.share("sim.functional") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn a_replay_longer_than_its_composite_is_scaled_to_fit() {
        let spans = [
            span_at(OP_ROOT, 0, 100, None, 0, false),
            span_at("runtime.launch", 0, 100, Some(0), 0, true),
            span_at(REPLAY_ROOT, 100, 300, None, 0, false),
            span_at("sim.functional.run", 100, 300, Some(2), 0, false),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.layer_ns["sim.functional"], 100.0);
        assert_eq!(b.layer_ns["runtime"], 0.0);
    }

    #[test]
    fn recorded_spans_nest_and_export() {
        begin();
        set_op(3);
        {
            let _op = span(OP_ROOT);
            let _inner = composite("runtime.launch");
        }
        let spans = end();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[1].composite);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let parsed = crate::json::parse(&chrome_json(&spans)).unwrap();
        let Some(Value::Arr(events)) = parsed.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 2);
        // Tracing is off again: spans are inert.
        drop(span("core.compile"));
        assert!(end().is_empty());
    }
}
