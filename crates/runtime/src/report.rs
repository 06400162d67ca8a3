//! Whole-graph timing reports with per-node stream timelines.
//!
//! A [`GraphReport`] describes one simulated execution of a task graph.
//! Every node carries the simulated stream it ran on and its `[start,
//! end)` interval in cycles since graph launch, so overlap (or its
//! absence) is directly observable. Three aggregate numbers summarize the
//! schedule:
//!
//! - [`GraphReport::makespan`] — when the last node retired. At one
//!   stream on one device this equals the serial sum; with more streams
//!   or devices it shrinks toward the critical path as independent nodes
//!   overlap.
//! - [`GraphReport::critical_path`] — the longest dependency chain of
//!   solo node makespans: no schedule, however many streams, can beat it.
//! - [`GraphReport::serial_sum`] — the cost of launching every node
//!   back-to-back: what a one-stream schedule pays.
//!
//! Any valid schedule satisfies `critical_path <= makespan <=
//! serial_sum`; the property suite locks that invariant down for
//! generated graphs.

use cypress_sim::TimingReport;

/// Timing of one node's launch inside a graph execution.
#[derive(Debug, Clone)]
pub struct NodeTiming {
    /// The node's display name.
    pub node: String,
    /// Simulated device the node ran on (0 under
    /// [`crate::PlacementPolicy::SingleDevice`]; transfers report their
    /// destination device).
    pub device: usize,
    /// Simulated stream the node was assigned to on its device (0 under
    /// the serial policy).
    pub stream: usize,
    /// Launch cycle, relative to the graph launch.
    pub start: f64,
    /// Retire cycle, relative to the graph launch.
    pub end: f64,
    /// The mapping the session launched this node with: `"default"`
    /// under [`crate::MappingPolicy::Default`], the winning candidate's
    /// label under [`crate::MappingPolicy::Autotune`].
    pub mapping: String,
    /// Solo-cycle speedup of the launched mapping over the hand-tuned
    /// default (1.0 when the default ran; never below 1.0, since the
    /// default is always one of the tuner's candidates).
    pub tuned_speedup: f64,
    /// When this launch came from the fusion rewriter
    /// ([`crate::FusionPolicy::Auto`]): the names of the original graph
    /// nodes it replaced, in original insertion order. Empty for nodes
    /// that launched as written — so timelines always say which written
    /// nodes each launch accounts for.
    pub replaced: Vec<String>,
    /// The simulator's solo report for this launch (what the node costs
    /// with the device to itself).
    pub report: TimingReport,
}

/// What the fault layer did during one graph execution.
///
/// All-zero (the [`Default`]) for a fault-free run. Under
/// [`crate::FaultPolicy::Retry`] the counters record the injected faults
/// the schedule absorbed, and [`Recovery::overhead_cycles`] the cycles
/// spent recovering from them; under [`crate::FaultPolicy::FailFast`] the
/// first fault ends the run, and the partial report its typed error
/// carries records it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recovery {
    /// Injected faults the schedule observed (transient + device loss).
    pub faults: u64,
    /// Node attempts re-executed after a transient fault.
    pub retries: u64,
    /// Devices permanently lost mid-run, in eviction order.
    pub evicted_devices: Vec<usize>,
    /// Nodes re-planned onto surviving devices after an eviction, in
    /// re-plan order (includes re-routed pending transfers).
    pub resharded_nodes: Vec<String>,
    /// Cycles of recovery work on the timeline: the summed `end - start`
    /// of every `retry:` span (a failed attempt, or a launch a device loss
    /// killed in flight) and every `xfer:recover:` transfer. Never
    /// negative; 0.0 when nothing faulted. Spans on different streams or
    /// devices may overlap, so this is work, not how much later the graph
    /// finished than a fault-free run. Retry backoff gaps are idle time
    /// and are not counted.
    pub overhead_cycles: f64,
}

/// Timing of a whole graph execution, with per-node stream timeline.
///
/// Nodes appear in completion order (at one stream on one device that is
/// the deterministic topological schedule). Launch overheads are included
/// in each node's interval — the same place the paper's §5.3
/// persistent-kernel effect shows up at graph scale.
#[derive(Debug, Clone, Default)]
pub struct GraphReport {
    /// Per-node timing, in completion order.
    pub nodes: Vec<NodeTiming>,
    /// Cycle at which the last node retired.
    pub makespan: f64,
    /// [`GraphReport::makespan`] in seconds at the machine clock.
    pub seconds: f64,
    /// Longest dependency chain of solo node makespans, in cycles.
    pub critical_path: f64,
    /// Streams the schedule was allowed to use per device (1 under the
    /// serial policy).
    pub streams: usize,
    /// Devices the schedule placed nodes on (1 under
    /// [`crate::PlacementPolicy::SingleDevice`]).
    pub devices: usize,
    /// What the fault layer did (all-zero for a fault-free run).
    pub recovery: Recovery,
}

impl GraphReport {
    /// Graph makespan in cycles (alias of [`GraphReport::makespan`]).
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.makespan
    }

    /// What the schedule would cost on one stream: the sum of the solo
    /// node makespans.
    #[must_use]
    pub fn serial_sum(&self) -> f64 {
        self.nodes.iter().map(|n| n.report.cycles).sum()
    }

    /// `serial_sum / makespan` — 1.0 means no overlap was achieved.
    #[must_use]
    pub fn overlap_speedup(&self) -> f64 {
        if self.makespan > 0.0 {
            self.serial_sum() / self.makespan
        } else {
            1.0
        }
    }

    /// Total discrete events processed across the solo node simulations.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.nodes.iter().map(|n| n.report.events).sum()
    }

    /// Whole-graph TFLOP/s for an externally supplied algorithmic FLOP
    /// count (the figure-style number), using the schedule's makespan.
    #[must_use]
    pub fn tflops_for(&self, algorithmic_flops: f64) -> f64 {
        if self.seconds > 0.0 {
            algorithmic_flops / self.seconds / 1e12
        } else {
            0.0
        }
    }

    /// The timeline entry of the node called `name`, if it ran.
    #[must_use]
    pub fn timeline(&self, name: &str) -> Option<&NodeTiming> {
        self.nodes.iter().find(|n| n.node == name)
    }

    /// The report's timeline as telemetry events: one
    /// [`crate::telemetry::Event::NodeSpan`] per node, in completion
    /// order — exactly the spans a session-attached recorder receives
    /// after a graph launch, and exactly what
    /// [`crate::TraceSink::chrome_json`] serializes.
    #[must_use]
    pub(crate) fn trace_events(&self) -> Vec<crate::telemetry::Event> {
        self.nodes
            .iter()
            .map(|n| crate::telemetry::Event::NodeSpan {
                node: n.node.clone(),
                stream: n.stream,
                start: n.start,
                end: n.end,
            })
            .collect()
    }

    /// A human-readable per-node breakdown with the stream timeline.
    #[must_use]
    pub fn breakdown(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let total = self.makespan.max(1.0);
        for n in &self.nodes {
            let share = 100.0 * n.report.cycles / total;
            let mapping = if n.mapping == "default" {
                String::new()
            } else {
                format!("  [{} {:.2}x]", n.mapping, n.tuned_speedup)
            };
            let fused = if n.replaced.is_empty() {
                String::new()
            } else {
                format!("  [fused: {}]", n.replaced.join(", "))
            };
            let _ = writeln!(
                out,
                "{:<24} d{}/s{} [{:>12.0}, {:>12.0}) {:>14.0} cycles ({:>5.1}%)  {:>8.1} TFLOP/s achieved{mapping}{fused}",
                n.node, n.device, n.stream, n.start, n.end, n.report.cycles, share, n.report.achieved_tflops
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:>14.0} cycles ({:.3} ms) | critical path {:.0} | serial sum {:.0} | {:.2}x overlap",
            "makespan",
            self.makespan,
            self.seconds * 1e3,
            self.critical_path,
            self.serial_sum(),
            self.overlap_speedup()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, stream: usize, start: f64, cycles: f64) -> NodeTiming {
        NodeTiming {
            node: name.into(),
            device: 0,
            stream,
            start,
            end: start + cycles,
            mapping: "default".into(),
            tuned_speedup: 1.0,
            replaced: Vec::new(),
            report: TimingReport {
                kernel: name.into(),
                cycles,
                seconds: cycles / 1e9,
                tc_flops: 1e6,
                simt_flops: 0.0,
                achieved_tflops: 1.0,
                tc_utilization: 0.5,
                tma_utilization: 0.5,
                simt_utilization: 0.1,
                ctas: 1,
                simulated_ctas: 1,
                active_sms: 1,
                ctas_per_sm: 1,
                load_bytes: 1e3,
                store_bytes: 1e3,
                l2_hit: 0.5,
                events: 10,
            },
        }
    }

    fn overlapped() -> GraphReport {
        GraphReport {
            nodes: vec![node("a", 0, 0.0, 1000.0), node("b", 1, 0.0, 800.0)],
            makespan: 1000.0,
            seconds: 1000.0 / 1e9,
            critical_path: 1000.0,
            streams: 2,
            devices: 1,
            recovery: Recovery::default(),
        }
    }

    #[test]
    fn aggregates_read_the_timeline() {
        let r = overlapped();
        assert_eq!(r.cycles(), 1000.0);
        assert_eq!(r.serial_sum(), 1800.0);
        assert!((r.overlap_speedup() - 1.8).abs() < 1e-12);
        assert_eq!(r.events(), 20);
        assert_eq!(r.timeline("b").unwrap().stream, 1);
        assert!(r.critical_path <= r.makespan && r.makespan <= r.serial_sum());
    }

    #[test]
    fn breakdown_shows_streams_and_makespan() {
        let text = overlapped().breakdown();
        assert!(text.contains("d0/s1"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("1.80x overlap"), "{text}");
    }

    #[test]
    fn trace_events_mirror_the_timeline() {
        let evs = overlapped().trace_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[1],
            crate::telemetry::Event::NodeSpan {
                node: "b".into(),
                stream: 1,
                start: 0.0,
                end: 800.0,
            }
        );
    }
}
