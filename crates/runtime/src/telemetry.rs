//! Deterministic tracing and unified metrics for the runtime.
//!
//! The session already produces rich but fragmented signals —
//! [`GraphReport`] timelines, [`CacheStats`], [`PoolStats`], tuner sweep
//! outcomes, fusion-rewrite decisions. This module unifies them behind
//! three small pieces:
//!
//! - **[`Recorder`] / [`Event`]** — a span/event stream threaded through
//!   the whole execution path (graph submission, fusion rewrites with
//!   their sim-confirmed win margins, kernel-cache lookups, buffer-pool
//!   traffic, autotune sweeps, wave scheduling, per-node execution).
//!   Attach one with [`crate::Session::with_recorder`]; the default is
//!   the zero-cost [`NoopRecorder`], whose `enabled() == false` means
//!   event payloads are never even constructed.
//! - **[`MetricsSnapshot`]** — one snapshot unifying the existing stats
//!   structs plus the session's own counters (fusion rewrites
//!   applied/declined, comm and fault counters, per-dtype functional
//!   apply bytes). Read it with [`crate::Session::metrics`].
//! - **[`TraceSink`]** — a hand-rolled Chrome-trace-event JSON exporter
//!   (no `serde`, mirroring [`crate::TuningTable`]'s text round-trip):
//!   [`TraceSink::chrome_json`] turns any [`GraphReport`] into a file
//!   that opens directly in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`, and [`TraceSink::parse_chrome_json`] reads one
//!   back through [`crate::json`] for the round-trip tests and the CI
//!   trace validator.
//!
//! # Determinism contract
//!
//! Every event payload is expressed in **sim cycles** (or other
//! deterministic quantities), never host wall-clock, except the
//! [`EventClass::Host`] events, which exist precisely to carry wall
//! time and are opt-in ([`TraceLog::with_host`]) — kept out of every
//! comparison the way host measurements are kept out of
//! `BENCH_figures.json` (they live in `benchmark/`). Each event belongs
//! to an [`EventClass`] that states exactly how reproducible it is:
//!
//! | class | identical across |
//! |-------|------------------|
//! | [`EventClass::Flow`] | repeat runs, schedule policies, parallelism levels |
//! | [`EventClass::Schedule`] | repeat runs, parallelism levels (the timeline is the policy's output) |
//! | [`EventClass::Host`] | nothing — wall clock, opt-in |
//!
//! No class depends on the worker count: there is one functional
//! executor and one tuner sweep, so the full recorded stream (minus
//! `Host`) is bit-identical across repeat runs *and* across
//! [`crate::Session::with_parallelism`] settings. `tests/policy_product.rs`
//! locks each row of the table down: repeat runs of a fixed graph, and
//! on random graphs at random policy points, the whole stream at
//! parallelism 1 and 8 and the `Flow` events of serial and concurrent
//! schedules.

use crate::cache::CacheStats;
use crate::json::{json_num, json_str, JsonParser, JsonValue};
use crate::pool::PoolStats;
use crate::report::GraphReport;
use crate::tuner::TunerStats;
use cypress_sim::ApplyBytes;
use cypress_tensor::DType;
use std::fmt;
use std::sync::{Arc, Mutex};

/// How reproducible an [`Event`] is (see the module docs' table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// Deterministic dataflow decisions — graph and fusion rewrites,
    /// cache lookups, tuner sweeps, the executor's ready waves and its
    /// buffer-pool traffic: identical across repeat runs, schedule
    /// policies, and parallelism levels.
    Flow,
    /// The sim-cycle timeline a schedule policy produced: identical
    /// across repeat runs and parallelism levels; differs between
    /// policies by design (that difference *is* the policy).
    Schedule,
    /// Host wall-clock measurements: never comparable, off by default
    /// (see [`TraceLog::with_host`]).
    Host,
}

/// One traced runtime event. All payloads are deterministic sim-side
/// quantities except [`Event::CompilePass`], the [`EventClass::Host`]
/// carrier of wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A graph entered [`crate::Session::launch_functional`] or
    /// [`crate::Session::launch_timing`].
    GraphSubmitted {
        /// Nodes in the submitted (pre-fusion) graph.
        nodes: usize,
        /// `"functional"` or `"timing"`.
        mode: &'static str,
    },
    /// The fusion rewriter applied a rewrite the simulator confirmed.
    FusionApplied {
        /// The rule that fired (`"dual_chain"` or `"gemm_reduction"`).
        rule: &'static str,
        /// Name of the fused node in the rewritten graph.
        fused: String,
        /// Names of the original nodes the fused launch replaced.
        replaced: Vec<String>,
        /// Solo sim cycles of the fused launch.
        fused_cycles: f64,
        /// Summed solo sim cycles of the launches it replaced; the win
        /// margin is `unfused_cycles - fused_cycles`.
        unfused_cycles: f64,
    },
    /// The fusion rewriter matched a candidate but the simulator said
    /// the fused launch loses, so it was left unfused.
    FusionDeclined {
        /// The rule that matched.
        rule: &'static str,
        /// Names of the nodes that stayed unfused.
        replaced: Vec<String>,
        /// Solo sim cycles of the (rejected) fused launch.
        fused_cycles: f64,
        /// Summed solo sim cycles of the unfused launches.
        unfused_cycles: f64,
    },
    /// One kernel-cache lookup through the session.
    CacheLookup {
        /// The compile fingerprint that was looked up.
        fingerprint: u64,
        /// `true` when served without running the pass pipeline.
        hit: bool,
    },
    /// One autotune sweep resolved (freshly timed or served from the
    /// [`crate::TuningTable`]).
    TunerSweep {
        /// Entry task of the tuned program.
        entry: String,
        /// Problem shape (`d0xd1x...`).
        shape: String,
        /// Candidates evaluated when the sweep ran.
        candidates: usize,
        /// The winning mapping's label.
        winner: String,
        /// Solo sim cycles of the hand-tuned default mapping.
        default_cycles: f64,
        /// Solo sim cycles of the winner.
        tuned_cycles: f64,
        /// `true` when the result came from the table without timing.
        cached: bool,
    },
    /// One compiled candidate of an autotune sweep, in the space's
    /// deterministic enumeration order: timed whole, cut, or ruled out by
    /// its floor (`cycles` and `cut` both `None`).
    TunerCandidate {
        /// Entry task of the tuned program.
        entry: String,
        /// The candidate mapping's label.
        config: String,
        /// Its solo sim cycles, when its timing run finished.
        cycles: Option<f64>,
        /// The bound its timing run crossed when it stopped, proven
        /// slower than the sweep's seed: above the seed's cycles, at or
        /// below its own.
        cut: Option<f64>,
        /// Its timing floor, a proven lower bound on its cycles
        /// (`cypress_sim::Simulator::timing_floor`).
        floor: f64,
    },
    /// A node's kernel ran (solo view), emitted post-run in ascending
    /// node-id order — independent of schedule policy and worker count.
    NodeExecuted {
        /// Node name in the launched graph.
        node: String,
        /// Name of the compiled kernel that ran.
        kernel: String,
        /// Solo sim cycles of the launch.
        cycles: f64,
    },
    /// A node's `[start, end)` interval on its simulated stream — the
    /// [`GraphReport`] timeline as events, in completion order.
    NodeSpan {
        /// Node name in the launched graph.
        node: String,
        /// Simulated stream the node ran on.
        stream: usize,
        /// Launch cycle relative to graph launch.
        start: f64,
        /// Retire cycle relative to graph launch.
        end: f64,
    },
    /// The graph sharder assigned a launch to a simulated device
    /// (emitted only under [`crate::PlacementPolicy::Sharded`] with two
    /// or more devices, in ascending launch-id order of the timeline).
    ShardAssigned {
        /// Launch name on the timeline (`xfer:` transfers included).
        node: String,
        /// Zero-based device the node was placed on.
        device: usize,
    },
    /// The sharder turned a cross-device edge into a transfer charged
    /// to a topology link.
    LinkTransfer {
        /// Index of the link in [`cypress_sim::Topology::links`].
        link: usize,
        /// Producing device.
        src: usize,
        /// Consuming device.
        dst: usize,
        /// Payload bytes moved across the link.
        bytes: f64,
    },
    /// The functional executor scheduled one ready wave of nodes (every
    /// node whose dependencies are satisfied) — a function of the graph
    /// alone, recorded at every worker count.
    WaveScheduled {
        /// Zero-based wave index.
        wave: usize,
        /// Node ids in the wave, ascending.
        nodes: Vec<usize>,
    },
    /// The buffer pool handed out a zeroed buffer.
    PoolAcquire {
        /// Element type of the buffer.
        dtype: DType,
        /// Rows of the buffer.
        rows: usize,
        /// Columns of the buffer.
        cols: usize,
        /// `true` when a parked buffer was reused instead of allocated.
        reused: bool,
    },
    /// A drained intermediate's buffer was recycled into the pool.
    PoolRelease {
        /// Element type of the buffer.
        dtype: DType,
        /// Elements in the buffer.
        elements: usize,
        /// Parked buffers the pool's capacity bound evicted as a result.
        evictions: u64,
    },
    /// The fault layer observed an injected fault: a transient kernel
    /// fault, or the moment a permanent device loss fired.
    FaultInjected {
        /// The node whose launch faulted (`"device"` for a device-loss
        /// firing with no launch in flight).
        node: String,
        /// The device the fault fired on.
        device: usize,
        /// `"transient"` or `"device_loss"`.
        kind: &'static str,
        /// Sim cycle (relative to graph launch) the fault surfaced at.
        at: f64,
    },
    /// The retry policy re-executed a node after a transient fault.
    NodeRetried {
        /// The retried node's name.
        node: String,
        /// The device the retry launched on.
        device: usize,
        /// 1-based attempt number of the *new* launch (2 for the first
        /// retry).
        attempt: u32,
    },
    /// A device was permanently lost and removed from the schedule.
    DeviceEvicted {
        /// The dead device.
        device: usize,
        /// Sim cycle (relative to graph launch) it died at.
        at: f64,
    },
    /// The fault layer re-planned the unexecuted frontier onto the
    /// surviving devices after a device loss.
    Resharded {
        /// The evicted device the re-plan recovered from.
        device: usize,
        /// Nodes moved to surviving devices, in re-plan order.
        nodes: Vec<String>,
        /// Recovery transfers inserted for stranded buffers.
        recovery_transfers: usize,
    },
    /// Host wall-clock time one compiler pass took on a cache miss (the
    /// [`EventClass::Host`] event; see [`TraceLog::with_host`]).
    CompilePass {
        /// Pass name in pipeline order (`depan`, `vectorize`, ...).
        pass: String,
        /// Wall-clock nanoseconds the pass took.
        host_ns: u64,
    },
    /// A guided sweep's analytical ranking pass resolved
    /// ([`EventClass::Host`], like [`Event::CompilePass`]: its
    /// `host_ns` is wall-clock, so it is filtered from determinism
    /// checks).
    TunerRanked {
        /// Entry task of the tuned program.
        entry: String,
        /// Problem shape (`d0xd1x...`).
        shape: String,
        /// Candidates priced by the cost model.
        ranked: usize,
        /// Candidates dropped before compiling or timing.
        pruned: usize,
        /// `true` when a neighboring shape's winner seeded the sweep.
        transferred: bool,
        /// Wall-clock nanoseconds the ranking pass took.
        host_ns: u64,
    },
}

impl Event {
    /// The determinism class of this event (see [`EventClass`]).
    #[must_use]
    pub fn class(&self) -> EventClass {
        match self {
            Event::GraphSubmitted { .. }
            | Event::FusionApplied { .. }
            | Event::FusionDeclined { .. }
            | Event::CacheLookup { .. }
            | Event::TunerSweep { .. }
            | Event::TunerCandidate { .. }
            | Event::NodeExecuted { .. }
            | Event::ShardAssigned { .. }
            | Event::LinkTransfer { .. }
            | Event::WaveScheduled { .. }
            | Event::PoolAcquire { .. }
            | Event::PoolRelease { .. } => EventClass::Flow,
            Event::NodeSpan { .. }
            | Event::FaultInjected { .. }
            | Event::NodeRetried { .. }
            | Event::DeviceEvicted { .. }
            | Event::Resharded { .. } => EventClass::Schedule,
            Event::CompilePass { .. } | Event::TunerRanked { .. } => EventClass::Host,
        }
    }
}

/// Sink for runtime [`Event`]s.
///
/// The session consults [`Recorder::enabled`] before building any event
/// payload, so a disabled recorder (the default [`NoopRecorder`]) keeps
/// the hot path free of allocation and formatting — attaching telemetry
/// is strictly opt-in.
pub trait Recorder: fmt::Debug + Send {
    /// `false` lets emission sites skip constructing events entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn record(&mut self, event: Event);
}

/// The default recorder: records nothing and reports itself disabled,
/// so sessions without telemetry pay nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: Event) {}
}

/// A shared, cloneable in-memory event log.
///
/// Clones share one underlying buffer, so the idiom is: keep one handle,
/// give the session a clone, read [`TraceLog::events`] afterwards:
///
/// ```
/// use cypress_runtime::telemetry::TraceLog;
/// use cypress_runtime::Session;
/// use cypress_sim::MachineConfig;
///
/// let log = TraceLog::new();
/// let mut session = Session::new(MachineConfig::test_gpu()).with_recorder(log.clone());
/// // ... launch graphs ...
/// assert!(log.events().is_empty()); // nothing launched yet
/// ```
///
/// [`EventClass::Host`] events are dropped unless the log was built
/// with [`TraceLog::with_host`], so the default stream is bit-identical
/// across repeat runs.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    shared: Arc<Mutex<Vec<Event>>>,
    host: bool,
}

impl TraceLog {
    /// A new, empty log (host-time events filtered out).
    #[must_use]
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Opt in to [`EventClass::Host`] events (wall-clock payloads).
    /// Streams recorded with host events are *not* comparable across
    /// runs — filter by [`Event::class`] before diffing.
    #[must_use]
    pub fn with_host(mut self) -> Self {
        self.host = true;
        self
    }

    /// Snapshot of the recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.lock().clone()
    }

    /// Events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drop all recorded events (the handle stays attached).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        // A panicking recorder thread must not wedge telemetry: take the
        // data through the poison.
        self.shared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Recorder for TraceLog {
    fn record(&mut self, event: Event) {
        if !self.host && event.class() == EventClass::Host {
            return;
        }
        self.lock().push(event);
    }
}

/// One unified view of everything the session counts, returned by
/// [`crate::Session::metrics`]. Every field is deterministic for a
/// fixed launch sequence and independent of the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Kernel-cache counters.
    pub cache: CacheStats,
    /// Buffer-pool counters.
    pub pool: PoolStats,
    /// Tuning-table counters ([`crate::TuningTable::stats`]).
    pub tuner: TunerStats,
    /// Fusion rewrites the simulator confirmed and the session applied.
    pub fusion_applied: u64,
    /// Fusion rewrites declined by the simulator gate (fused launch
    /// loses).
    pub fusion_declined: u64,
    /// Transfer kernels inserted by the graph sharder across every
    /// launch (one per cross-device edge after deduplication).
    pub comm_launches: u64,
    /// Payload bytes moved across topology links by those transfers.
    pub link_bytes: u64,
    /// Per-dtype functional apply bytes.
    pub apply_bytes: ApplyBytes,
    /// Injected faults the fault layer observed across every launch.
    pub faults_injected: u64,
    /// Node attempts re-executed after transient faults.
    pub retries: u64,
    /// Devices permanently lost and evicted.
    pub devices_evicted: u64,
    /// Nodes re-planned after device evictions.
    pub nodes_resharded: u64,
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cache   hits {} | misses {} | entries {}",
            self.cache.hits, self.cache.misses, self.cache.entries
        )?;
        writeln!(
            f,
            "pool    acquired {} | reused {} | evicted {} | free {}",
            self.pool.acquired, self.pool.reused, self.pool.evicted, self.pool.free
        )?;
        writeln!(
            f,
            "tuner   lookups {} | hits {} | sweeps {} | candidates timed {} | cut {} | \
             bounded {} | ranked {} | pruned {} | transferred {}",
            self.tuner.lookups,
            self.tuner.hits,
            self.tuner.sweeps,
            self.tuner.candidates_timed,
            self.tuner.cut,
            self.tuner.bounded,
            self.tuner.ranked,
            self.tuner.pruned,
            self.tuner.transferred
        )?;
        writeln!(
            f,
            "fusion  applied {} | declined {}",
            self.fusion_applied, self.fusion_declined
        )?;
        writeln!(
            f,
            "comm    launches {} | link bytes {}",
            self.comm_launches, self.link_bytes
        )?;
        writeln!(
            f,
            "fault   injected {} | retries {} | evicted {} | resharded {}",
            self.faults_injected, self.retries, self.devices_evicted, self.nodes_resharded
        )?;
        write!(f, "apply   {}", self.apply_bytes)
    }
}

/// A parsed `"X"` (complete) event of a Chrome trace, as produced by
/// [`TraceSink::chrome_json`] and read back by
/// [`TraceSink::parse_chrome_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeSpan {
    /// Span name (the node name).
    pub name: String,
    /// Category string (`"node"` for graph spans).
    pub cat: String,
    /// Start timestamp. [`TraceSink::chrome_json`] writes **sim
    /// cycles** here, not microseconds — relative magnitudes are what
    /// Perfetto renders.
    pub ts: f64,
    /// Duration, in the same unit as `ts`.
    pub dur: f64,
    /// Process id (always 0 for graph traces).
    pub pid: u64,
    /// Thread id — `device * streams + stream`, so each device's
    /// streams group into a contiguous track band (plain `stream` on a
    /// single-device report).
    pub tid: usize,
}

/// A parsed Chrome trace: the stream metadata plus the spans.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrace {
    /// Stream count declared by the `cypress_graph` metadata event.
    pub streams: Option<usize>,
    /// Device count declared by the metadata event (`None` for traces
    /// written before multi-device support; readers treat that as 1).
    pub devices: Option<usize>,
    /// Makespan (cycles) declared by the metadata event.
    pub makespan: Option<f64>,
    /// All `"X"` events, in file order (sorted by `ts` on export).
    pub spans: Vec<ChromeSpan>,
}

/// Exporter (and minimal re-parser) of Chrome-trace-event JSON.
///
/// Serialization is hand-rolled like [`crate::TuningTable::to_text`] —
/// the offline build carries no `serde` — and numbers print in a form
/// the parser reads back bit-for-bit, so the round-trip is exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSink;

impl TraceSink {
    /// Render `report` as Chrome-trace-event JSON.
    ///
    /// One `"X"` (complete) event per node — `ts`/`dur` in **sim
    /// cycles**, `tid` = `device * streams + stream` (so each device's
    /// streams render as a contiguous track band; plain `stream` on a
    /// single-device report) — sorted by start time so timestamps are
    /// monotone, preceded by one `"M"` metadata event (`cypress_graph`)
    /// declaring the stream count, device count, and makespan. The
    /// output loads directly in Perfetto or `chrome://tracing`.
    #[must_use]
    pub fn chrome_json(report: &GraphReport) -> String {
        let mut spans: Vec<&crate::report::NodeTiming> = report.nodes.iter().collect();
        spans.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.node.cmp(&b.node))
        });
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"name\":\"cypress_graph\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"streams\":{},\"devices\":{},\"makespan\":{},\"unit\":\"cycles\"}}}}",
            report.streams,
            report.devices.max(1),
            json_num(report.makespan)
        ));
        for t in spans {
            let fused = if t.replaced.is_empty() {
                String::new()
            } else {
                format!(",\"fused\":{}", json_str(&t.replaced.join(", ")))
            };
            out.push(',');
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"node\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"kernel\":{},\"mapping\":{},\
                 \"cycles\":{},\"achieved_tflops\":{}{}}}}}",
                json_str(&t.node),
                json_num(t.start),
                json_num(t.end - t.start),
                t.device * report.streams + t.stream,
                json_str(&t.report.kernel),
                json_str(&t.mapping),
                json_num(t.report.cycles),
                json_num(t.report.achieved_tflops),
                fused,
            ));
        }
        out.push_str("]}");
        out
    }

    /// [`TraceSink::chrome_json`] plus the trace's
    /// [`EventClass::Host`] events — compile passes and guided-tuner
    /// ranking passes — appended as `cat:"host"` `"X"` spans, and its
    /// [`Event::TunerCandidate`]s as `cat:"tuner"` ones.
    ///
    /// Host spans measure wall-clock nanoseconds on a synthetic
    /// timeline of their own (each starts where the previous host span
    /// ended), not sim cycles: they are observability, deliberately
    /// excluded from determinism checks the way
    /// [`Event::CompilePass`]'s `host_ns` already is. A tuner span is
    /// one candidate on a track of its own (`pid` 1, `tid` its place in
    /// the trace's candidate stream), starting at 0 and lasting what
    /// its sweep learned of its cycles: the whole run's, the bound a cut
    /// run crossed, or the floor of a bounded one; `args` carries
    /// `floor` and `cycles` or `cut`. Consumers checking monotonicity,
    /// stream bounds, or makespan containment must filter on `cat !=
    /// "host"` and `cat != "tuner"` (as `check_trace` does).
    #[must_use]
    pub fn chrome_json_with_host(report: &GraphReport, events: &[Event]) -> String {
        let mut out = Self::chrome_json(report);
        out.truncate(out.len() - "]}".len());
        let mut ts = 0.0;
        let mut candidates = 0;
        for event in events {
            let (name, host_ns, extra) = match event {
                Event::TunerCandidate {
                    entry,
                    config,
                    cycles,
                    cut,
                    floor,
                } => {
                    let (known, dur) = match (cycles, cut) {
                        (Some(c), _) => (format!(",\"cycles\":{}", json_num(*c)), *c),
                        (None, Some(b)) => (format!(",\"cut\":{}", json_num(*b)), *b),
                        (None, None) => (String::new(), *floor),
                    };
                    out.push_str(&format!(
                        ",{{\"name\":{},\"cat\":\"tuner\",\"ph\":\"X\",\"ts\":0,\"dur\":{},\
                         \"pid\":1,\"tid\":{candidates},\"args\":{{\"unit\":\"cycles\",\
                         \"floor\":{}{known}}}}}",
                        json_str(&format!("tune:{entry}:{config}")),
                        json_num(dur),
                        json_num(*floor),
                    ));
                    candidates += 1;
                    continue;
                }
                Event::CompilePass { pass, host_ns } => {
                    (format!("compile:{pass}"), *host_ns, String::new())
                }
                Event::TunerRanked {
                    entry,
                    shape,
                    ranked,
                    pruned,
                    transferred,
                    host_ns,
                } => (
                    format!("rank:{entry}"),
                    *host_ns,
                    format!(
                        ",\"shape\":{},\"ranked\":{ranked},\"pruned\":{pruned},\
                         \"transferred\":{transferred}",
                        json_str(shape)
                    ),
                ),
                _ => continue,
            };
            out.push(',');
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"host\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"unit\":\"ns\"{extra}}}}}",
                json_str(&name),
                json_num(ts),
                json_num(host_ns as f64),
            ));
            ts += host_ns as f64;
        }
        out.push_str("]}");
        out
    }

    /// Parse JSON produced by [`TraceSink::chrome_json`] (any
    /// conforming Chrome trace with a top-level `traceEvents` array
    /// works). Returns the metadata plus every `"X"` span in file
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape problem.
    pub fn parse_chrome_json(json: &str) -> Result<ChromeTrace, String> {
        let value = JsonParser::parse(json)?;
        let Some(events) = value.get("traceEvents").and_then(JsonValue::as_array) else {
            return Err("missing top-level \"traceEvents\" array".into());
        };
        let mut trace = ChromeTrace {
            streams: None,
            devices: None,
            makespan: None,
            spans: Vec::new(),
        };
        for (i, ev) in events.iter().enumerate() {
            let field = |k: &str| ev.get(k);
            let ph = field("ph").and_then(JsonValue::as_str).unwrap_or("");
            let name = field("name").and_then(JsonValue::as_str).unwrap_or("");
            match ph {
                "M" if name == "cypress_graph" => {
                    let args = field("args");
                    trace.streams = args
                        .and_then(|a| a.get("streams"))
                        .and_then(JsonValue::as_f64)
                        .map(|s| s as usize);
                    trace.devices = args
                        .and_then(|a| a.get("devices"))
                        .and_then(JsonValue::as_f64)
                        .map(|d| d as usize);
                    trace.makespan = args
                        .and_then(|a| a.get("makespan"))
                        .and_then(JsonValue::as_f64);
                }
                "X" => {
                    let num = |k: &str| {
                        field(k)
                            .and_then(JsonValue::as_f64)
                            .ok_or_else(|| format!("event {i}: missing numeric \"{k}\""))
                    };
                    trace.spans.push(ChromeSpan {
                        name: name.to_string(),
                        cat: field("cat")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string(),
                        ts: num("ts")?,
                        dur: num("dur")?,
                        pid: num("pid")? as u64,
                        tid: num("tid")? as usize,
                    });
                }
                _ => {}
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_drops_events() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.record(Event::GraphSubmitted {
            nodes: 1,
            mode: "timing",
        });
        // Nothing observable: NoopRecorder holds no state by
        // construction (it is a unit struct).
    }

    #[test]
    fn trace_log_clones_share_the_buffer() {
        let log = TraceLog::new();
        let mut handle = log.clone();
        handle.record(Event::GraphSubmitted {
            nodes: 3,
            mode: "functional",
        });
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn host_events_are_opt_in() {
        let host_event = Event::CompilePass {
            pass: "depan".into(),
            host_ns: 123,
        };
        assert_eq!(host_event.class(), EventClass::Host);
        let mut default_log = TraceLog::new();
        default_log.record(host_event.clone());
        assert!(default_log.is_empty());
        let mut host_log = TraceLog::new().with_host();
        host_log.record(host_event);
        assert_eq!(host_log.len(), 1);
    }

    #[test]
    fn json_numbers_round_trip() {
        for x in [0.0, 1.0, -3.5, 123456789.25, 1e18, 29_400.0] {
            let parsed = JsonParser::parse(&json_num(x)).unwrap();
            assert_eq!(parsed.as_f64(), Some(x), "{x}");
        }
    }

    #[test]
    fn json_strings_escape_and_parse() {
        let tricky = "a\"b\\c\nd\tμ";
        let parsed = JsonParser::parse(&json_str(tricky)).unwrap();
        assert_eq!(parsed.as_str(), Some(tricky));
    }

    #[test]
    fn unicode_escapes_combine_surrogate_pairs() {
        // 𝕫 (U+1D56B) arrives as a surrogate pair from conforming JSON
        // writers; the parser must combine the halves, not emit two
        // replacement characters.
        let parsed = JsonParser::parse("\"\\ud835\\udd6b\"").unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1D56B}"));
        // 🚀 (U+1F680) likewise.
        let parsed = JsonParser::parse("\"x\\ud83d\\ude80y\"").unwrap();
        assert_eq!(parsed.as_str(), Some("x\u{1F680}y"));

        // Lone halves are not scalar values: replace, don't crash.
        assert_eq!(
            JsonParser::parse(r#""\ud800""#).unwrap().as_str(),
            Some("\u{FFFD}")
        );
        assert_eq!(
            JsonParser::parse(r#""\udc00""#).unwrap().as_str(),
            Some("\u{FFFD}")
        );
        // A high half chased by a non-surrogate escape: the second
        // escape stands on its own.
        assert_eq!(
            JsonParser::parse(r#""\ud800A""#).unwrap().as_str(),
            Some("\u{FFFD}A")
        );
        // Two high halves, the second opening a valid pair: only the
        // first is replaced.
        assert_eq!(
            JsonParser::parse("\"\\ud800\\ud835\\udd6b\"")
                .unwrap()
                .as_str(),
            Some("\u{FFFD}\u{1D56B}")
        );
        // A high half followed by a raw character (no second escape).
        assert_eq!(
            JsonParser::parse(r#""\ud800z""#).unwrap().as_str(),
            Some("\u{FFFD}z")
        );
        // Truncated second escape is still a syntax error.
        assert!(JsonParser::parse(r#""\ud835\ud""#).is_err());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(JsonParser::parse("{").is_err());
        assert!(JsonParser::parse("[1,]").is_err());
        assert!(JsonParser::parse("{\"a\" 1}").is_err());
        assert!(JsonParser::parse("\"unterminated").is_err());
        assert!(TraceSink::parse_chrome_json("[]").is_err());
    }
}
