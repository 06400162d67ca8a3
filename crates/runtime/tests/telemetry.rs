//! Integration contract of the telemetry layer
//! (`cypress_runtime::telemetry`):
//!
//! 1. **Zero-cost default**: sessions ship with the disabled
//!    `NoopRecorder`; attaching a `TraceLog` never changes tensors or
//!    reports, it only observes them, and host-time events stay out of
//!    the stream unless explicitly opted in.
//! 2. **Chrome-trace round-trip**: `TraceSink::chrome_json` output
//!    parses back with `TraceSink::parse_chrome_json`, timestamps are
//!    monotone, and every parsed span matches the `GraphReport`
//!    timeline bit-for-bit.
//! 3. **Unified metrics**: one `Session::metrics` snapshot carries
//!    cache, pool, tuner, fusion, and apply-byte counters at once, and
//!    the apply bytes are invariant across schedule policies and
//!    worker counts.

use cypress_core::kernels::space::Shape;
use cypress_core::kernels::{dual_gemm, gemm};
use cypress_core::{MappingConfig, MappingSpace};
use cypress_runtime::json::{JsonParser, JsonValue};
use cypress_runtime::telemetry::TraceLog;
use cypress_runtime::{
    Binding, Event, EventClass, FusionPolicy, NodeId, Program, SchedulePolicy, Session, TaskGraph,
    TraceSink, TunerBudget,
};
use cypress_sim::MachineConfig;
use cypress_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

const D: usize = 64;

/// Two independent GEMMs feeding a dual-GEMM combiner: wide enough to
/// overlap on two streams, and its drained intermediates exercise the
/// buffer pool.
fn vee_graph(machine: &MachineConfig) -> (TaskGraph, NodeId) {
    let gemm_p = Program::from_parts(gemm::build(D, D, D, machine).unwrap(), "gemm");
    let dual_p = Program::from_parts(dual_gemm::build(D, D, D, machine).unwrap(), "dual");
    let mut graph = TaskGraph::new();
    let left = graph
        .add_node(
            "left",
            gemm_p.clone(),
            vec![
                Binding::Zeros,
                Binding::external("A0"),
                Binding::external("B0"),
            ],
        )
        .unwrap();
    let right = graph
        .add_node(
            "right",
            gemm_p,
            vec![
                Binding::Zeros,
                Binding::external("A1"),
                Binding::external("B1"),
            ],
        )
        .unwrap();
    let sink = graph
        .add_node(
            "sink",
            dual_p,
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::output(left, 0),
                Binding::output(right, 0),
            ],
        )
        .unwrap();
    (graph, sink)
}

fn vee_inputs(seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = HashMap::new();
    for name in ["A0", "B0", "A1", "B1", "X"] {
        m.insert(
            name.to_string(),
            Tensor::random(DType::F16, &[D, D], &mut rng, -0.5, 0.5),
        );
    }
    m
}

/// A GEMM→GEMM chain the fusion rewriter collapses to one launch.
fn chain_graph(machine: &MachineConfig) -> (TaskGraph, NodeId) {
    let gemm_p = Program::from_parts(gemm::build(D, D, D, machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    let up = graph
        .add_node(
            "up",
            gemm_p.clone(),
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::external("W1"),
            ],
        )
        .unwrap();
    let down = graph
        .add_node(
            "down",
            gemm_p,
            vec![
                Binding::Zeros,
                Binding::output(up, 0),
                Binding::external("W2"),
            ],
        )
        .unwrap();
    (graph, down)
}

fn chain_inputs(seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = HashMap::new();
    for name in ["X", "W1", "W2"] {
        m.insert(
            name.to_string(),
            Tensor::random(DType::F16, &[D, D], &mut rng, -0.5, 0.5),
        );
    }
    m
}

/// Attaching a recorder observes the launch without changing it: the
/// tensors and report are bit-identical to an unrecorded session, and
/// the stream covers the whole execution path.
#[test]
fn recorders_observe_without_changing_results() {
    let machine = MachineConfig::test_gpu();
    let (graph, sink) = vee_graph(&machine);
    let ins = vee_inputs(7);

    let mut plain = Session::new(machine.clone());
    let want = plain.launch_functional(&graph, &ins).unwrap();

    let log = TraceLog::new();
    let mut traced = Session::new(machine).with_recorder(log.clone());
    let got = traced.launch_functional(&graph, &ins).unwrap();

    assert_eq!(
        want.tensor(sink, 0).unwrap().data(),
        got.tensor(sink, 0).unwrap().data(),
        "recording must not perturb results"
    );
    assert_eq!(
        want.report.makespan.to_bits(),
        got.report.makespan.to_bits()
    );

    let events = log.events();
    assert_eq!(
        events[0],
        Event::GraphSubmitted {
            nodes: 3,
            mode: "functional"
        }
    );
    let count = |pred: fn(&&Event) -> bool| events.iter().filter(pred).count();
    assert_eq!(count(|e| matches!(e, Event::CacheLookup { .. })), 3);
    assert_eq!(count(|e| matches!(e, Event::NodeExecuted { .. })), 3);
    assert_eq!(count(|e| matches!(e, Event::NodeSpan { .. })), 3);
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::PoolAcquire { .. })));
    assert!(
        events.iter().all(|e| e.class() != EventClass::Host),
        "host-time events need the with_host opt-in"
    );
}

/// Wall-clock compile-pass events reach the log only with
/// [`TraceLog::with_host`], and they carry every pipeline pass on a
/// cache miss.
#[test]
fn host_compile_passes_require_the_opt_in() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = vee_graph(&machine);
    let ins = vee_inputs(7);

    let log = TraceLog::new().with_host();
    let mut session = Session::new(machine).with_recorder(log.clone());
    session.launch_functional(&graph, &ins).unwrap();

    let passes: Vec<String> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::CompilePass { pass, .. } => Some(pass.clone()),
            _ => None,
        })
        .collect();
    assert!(
        passes.iter().any(|p| p == "codegen"),
        "a cache miss records each pipeline pass, got {passes:?}"
    );
}

/// A cold exhaustive sweep compiles each group of schedule siblings
/// (candidates with one `MappingConfig::front_key`) through one compiler
/// front: every cache miss reports all six passes, and exactly one
/// miss per group carries a non-zero `copyelim` time.
#[test]
fn a_sweep_times_each_front_once() {
    let machine = MachineConfig::test_gpu();
    let shape = Shape::of(&[128, 128, 128]);
    let candidates = gemm::GemmSpace.candidates(&machine, &shape);
    let mut fronts: Vec<MappingConfig> = Vec::new();
    for key in candidates.iter().map(MappingConfig::front_key) {
        if !fronts.contains(&key) {
            fronts.push(key);
        }
    }
    assert!(fronts.len() > 1 && fronts.len() < candidates.len());

    let program = Program::from_space(Arc::new(gemm::GemmSpace), shape, &machine).unwrap();
    let log = TraceLog::new().with_host();
    let mut session = Session::new(machine).with_recorder(log.clone());
    session.autotune(&program).unwrap();
    assert_eq!(
        session.metrics().cache.misses,
        candidates.len() as u64,
        "every candidate compiles"
    );

    // The `CompilePass` events of a miss follow its `CacheLookup`.
    let mut misses: Vec<Vec<(String, u64)>> = Vec::new();
    for event in log.events() {
        match event {
            Event::CacheLookup { hit: false, .. } => misses.push(Vec::new()),
            Event::CompilePass { pass, host_ns } => {
                misses
                    .last_mut()
                    .expect("a pass follows a miss")
                    .push((pass, host_ns));
            }
            _ => {}
        }
    }
    assert_eq!(misses.len(), candidates.len());
    for passes in &misses {
        let names: Vec<&str> = passes.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            names,
            [
                "depan",
                "vectorize",
                "copyelim",
                "warpspec",
                "codegen",
                "lower"
            ]
        );
    }
    let timed_fronts = misses
        .iter()
        .filter(|passes| passes.iter().any(|(p, ns)| p == "copyelim" && *ns > 0))
        .count();
    assert_eq!(timed_fronts, fronts.len(), "one timed copyelim per front");
}

/// The Chrome-trace export round-trips through the bundled parser with
/// every span matching the report timeline bit-for-bit.
#[test]
fn chrome_json_round_trips_against_the_report() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = vee_graph(&machine);
    let mut session = Session::new(machine).with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let report = session.launch_timing(&graph).unwrap();
    assert!(
        report.nodes.iter().any(|n| n.stream > 0),
        "the vee overlaps on two streams"
    );

    let json = TraceSink::chrome_json(&report);
    let trace = TraceSink::parse_chrome_json(&json).unwrap();
    assert_eq!(trace.streams, Some(report.streams));
    assert_eq!(trace.makespan.unwrap().to_bits(), report.makespan.to_bits());
    assert_eq!(trace.spans.len(), report.nodes.len());
    for pair in trace.spans.windows(2) {
        assert!(pair[0].ts <= pair[1].ts, "timestamps must be monotone");
    }
    for span in &trace.spans {
        let node = report
            .nodes
            .iter()
            .find(|n| n.node == span.name)
            .unwrap_or_else(|| panic!("span {} has no report node", span.name));
        assert_eq!(span.cat, "node");
        assert_eq!(span.pid, 0);
        assert_eq!(span.tid, node.stream);
        assert_eq!(span.ts.to_bits(), node.start.to_bits());
        assert_eq!(span.dur.to_bits(), (node.end - node.start).to_bits());
    }
}

/// Hostile span labels — quotes, backslashes, control characters,
/// astral-plane Unicode, JSON-injection attempts — survive the
/// export/parse round-trip byte-for-byte: the escaper writes valid JSON
/// for any Rust string and the parser reads it back exactly.
#[test]
fn chrome_json_round_trips_hostile_labels() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = vee_graph(&machine);
    let mut session = Session::new(machine);
    let mut report = session.launch_timing(&graph).unwrap();

    let hostile = [
        "quote\" backslash\\ slash/ \"closer",
        "newline\n tab\t return\r bell\u{7} nul\u{0}",
        "unicode μ→𝕫🚀 injection\",\"ph\":\"M\",\"x\":\"",
        "</script>{}[]\u{1b}[31m escape\u{1F} del\u{7f}",
    ];
    assert!(
        report.nodes.len() <= hostile.len(),
        "the vee fits the hostile label set"
    );
    for (node, label) in report.nodes.iter_mut().zip(hostile) {
        node.node = label.to_string();
        node.mapping = format!("mapping {label}");
        node.replaced = vec![format!("was {label}")];
    }

    let json = TraceSink::chrome_json(&report);
    let trace = TraceSink::parse_chrome_json(&json).unwrap();
    assert_eq!(trace.spans.len(), report.nodes.len());
    let mut names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    let mut want: Vec<&str> = report.nodes.iter().map(|n| n.node.as_str()).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want, "hostile labels must round-trip exactly");
}

/// One [`Session::metrics`] snapshot unifies the cache, pool, fusion,
/// and apply-byte counters, and its Display form names each section.
#[test]
fn metrics_snapshot_unifies_the_counters() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = chain_graph(&machine);
    let ins = chain_inputs(5);

    let mut session = Session::new(machine).with_fusion_policy(FusionPolicy::Auto);
    session.launch_functional(&graph, &ins).unwrap();
    session.launch_functional(&graph, &ins).unwrap();

    let m = session.metrics();
    assert!(m.cache.misses >= 1, "{m}");
    assert!(m.cache.hits >= 1, "the second launch is served hot: {m}");
    assert!(m.pool.acquired >= 1, "{m}");
    assert!(m.fusion_applied >= 1, "the GEMM chain fuses: {m}");
    assert!(m.apply_bytes.f16 > 0, "an f16 GEMM moves f16 bytes: {m}");
    assert_eq!(
        m.apply_bytes.total(),
        m.apply_bytes.f16 + m.apply_bytes.bf16 + m.apply_bytes.f32
    );
    let text = m.to_string();
    for section in ["cache", "pool", "tuner", "fusion", "fault", "apply"] {
        assert!(text.contains(section), "{text}");
    }
}

/// Tuner counters and sweep events flow through the session: a fresh
/// sweep records its candidates, a repeat is a table hit flagged
/// `cached`, and the stats agree with the stream.
#[test]
fn tuner_metrics_and_sweep_events_flow_through_the_session() {
    let machine = MachineConfig::test_gpu();
    let program =
        Program::from_space(Arc::new(gemm::GemmSpace), Shape::of(&[D, D, D]), &machine).unwrap();

    let log = TraceLog::new();
    let mut session = Session::new(machine).with_recorder(log.clone());
    let first = session.autotune(&program).unwrap();
    let second = session.autotune(&program).unwrap();
    assert_eq!(first, second);

    let m = session.metrics();
    assert_eq!(m.tuner.lookups, 2, "{m}");
    assert_eq!(m.tuner.hits, 1, "{m}");
    assert_eq!(m.tuner.sweeps, 1, "{m}");
    assert!(m.tuner.candidates_timed >= 1, "{m}");

    let sweeps: Vec<(bool, String)> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::TunerSweep { cached, winner, .. } => Some((*cached, winner.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(sweeps.len(), 2);
    assert!(!sweeps[0].0, "the first sweep timed its candidates");
    assert!(sweeps[1].0, "the second was served from the table");
    assert_eq!(sweeps[0].1, sweeps[1].1, "both name the same winner");

    // One event per compiled candidate, each exactly one of whole
    // (cycles no lower than its floor), cut (a bound above the seed's
    // cycles and no lower than its floor) or bounded (neither).
    let candidates: Vec<(Option<f64>, Option<f64>, f64)> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::TunerCandidate {
                cycles, cut, floor, ..
            } => Some((*cycles, *cut, *floor)),
            _ => None,
        })
        .collect();
    let whole = candidates.iter().filter(|(c, _, _)| c.is_some()).count() as u64;
    let cut = candidates.iter().filter(|(_, b, _)| b.is_some()).count() as u64;
    assert_eq!(whole + cut, m.tuner.candidates_timed, "{m}");
    assert_eq!(cut, m.tuner.cut, "{m}");
    assert_eq!(
        candidates.len() as u64,
        m.tuner.candidates_timed + m.tuner.bounded,
        "{m}"
    );
    for (cycles, cut, floor) in candidates {
        assert!(cycles.is_none() || cut.is_none(), "{cycles:?} and {cut:?}");
        assert!(
            cycles.is_none_or(|c| floor <= c),
            "floor {floor} > {cycles:?}"
        );
        assert!(
            cut.is_none_or(|b| floor <= b && b > first.default_cycles),
            "cut at {cut:?}: floor {floor}, seed {}",
            first.default_cycles
        );
    }
}

/// Acceptance: the functional apply-path byte counters are
/// execution-strategy invariant — same graph, same inputs, same bytes
/// at every schedule policy and worker count.
#[test]
fn apply_bytes_are_invariant_across_policies_and_parallelism() {
    let machine = MachineConfig::test_gpu();
    let (graph, _) = vee_graph(&machine);
    let ins = vee_inputs(9);

    let mut base = Session::new(machine.clone()).with_parallelism(1);
    base.launch_functional(&graph, &ins).unwrap();
    let want = base.metrics().apply_bytes;
    assert!(want.total() > 0);

    for (parallelism, policy) in [
        (2, SchedulePolicy::Serial),
        (8, SchedulePolicy::Serial),
        (4, SchedulePolicy::Concurrent { streams: 2 }),
    ] {
        let mut session = Session::new(machine.clone())
            .with_parallelism(parallelism)
            .with_policy(policy);
        session.launch_functional(&graph, &ins).unwrap();
        assert_eq!(
            session.metrics().apply_bytes,
            want,
            "parallelism {parallelism}, policy {policy:?}"
        );
    }
}

/// Fault recovery is fully observable: a transient fault plus a
/// mid-run device loss under `Retry` bump all four fault counters in
/// the unified snapshot (agreeing with the report's recovery summary),
/// and the recorder stream carries each recovery decision as a
/// `Schedule`-class event.
#[test]
fn fault_recovery_metrics_and_events_flow_through_the_session() {
    use cypress_runtime::{FaultPlan, FaultPolicy, PlacementPolicy};
    let machine = MachineConfig::test_gpu();
    let gemm_p = Program::from_parts(gemm::build(D, D, D, &machine).unwrap(), "gemm");
    let mut graph = TaskGraph::new();
    for i in 0..8 {
        graph
            .add_node(
                &format!("g{i}"),
                gemm_p.clone(),
                vec![
                    Binding::Zeros,
                    Binding::External(format!("A{i}")),
                    Binding::External(format!("B{i}")),
                ],
            )
            .unwrap();
    }
    let mut clean = Session::new(machine.clone())
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let makespan = clean.launch_timing(&graph).unwrap().makespan;

    let log = TraceLog::new();
    let mut session = Session::new(machine)
        .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
        .with_policy(SchedulePolicy::Concurrent { streams: 2 })
        .with_fault_policy(FaultPolicy::Retry {
            max_attempts: 3,
            backoff: 0.0,
        })
        .with_fault_plan(
            FaultPlan::new()
                .with_transient(0, 0)
                .with_device_loss(1, makespan * 0.5),
        )
        .with_recorder(log.clone());
    let report = session.launch_timing(&graph).unwrap();

    let m = session.metrics();
    assert_eq!(m.faults_injected, 2, "one transient + one device loss: {m}");
    assert!(m.retries >= 1, "{m}");
    assert_eq!(m.devices_evicted, 1, "{m}");
    assert_eq!(
        m.nodes_resharded,
        report.recovery.resharded_nodes.len() as u64,
        "{m}"
    );
    assert!(m.nodes_resharded >= 1, "{m}");
    assert_eq!(m.retries, report.recovery.retries, "{m}");
    let text = m.to_string();
    assert!(text.contains("injected"), "{text}");

    let events = log.events();
    let injected: Vec<(&String, usize, &str)> = events
        .iter()
        .filter_map(|e| match e {
            Event::FaultInjected {
                node, device, kind, ..
            } => {
                assert_eq!(e.class(), EventClass::Schedule);
                Some((node, *device, *kind))
            }
            _ => None,
        })
        .collect();
    assert_eq!(injected.len(), 2, "{injected:?}");
    assert!(injected
        .iter()
        .any(|(_, d, k)| *d == 0 && *k == "transient"));
    assert!(injected
        .iter()
        .any(|(_, d, k)| *d == 1 && *k == "device_loss"));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::NodeRetried { attempt, .. } if *attempt >= 2)),
        "a retried node records its attempt number"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::DeviceEvicted { device: 1, .. })));
    let resharded: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::Resharded { .. }))
        .collect();
    match resharded.as_slice() {
        [Event::Resharded { device, nodes, .. }] => {
            assert_eq!(*device, 1);
            assert_eq!(nodes, &report.recovery.resharded_nodes);
        }
        other => panic!("expected exactly one Resharded event, got {other:?}"),
    }
}

/// A guided sweep records its ranking as a `Host`-class
/// [`Event::TunerRanked`] whose counters agree with the metrics
/// snapshot (and show up in its Display form), and
/// [`TraceSink::chrome_json_with_host`] exports the ranking on the
/// separate `cat == "host"` timeline next to the graph spans.
#[test]
fn guided_ranking_is_a_host_span_with_counters() {
    let machine = MachineConfig::test_gpu();
    let program =
        Program::from_space(Arc::new(gemm::GemmSpace), Shape::of(&[D, D, D]), &machine).unwrap();

    // Ranking is wall-clock host time: like `CompilePass`, its event is
    // `Host`-class and needs the explicit opt-in.
    let log = TraceLog::new().with_host();
    let mut session = Session::new(machine.clone()).with_recorder(log.clone());
    let tuned = session
        .autotune_with(&program, TunerBudget::TopK(1))
        .unwrap();
    assert!(tuned.candidates >= 1);

    let ranked: Vec<(usize, usize, bool)> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::TunerRanked {
                ranked,
                pruned,
                transferred,
                ..
            } => {
                assert_eq!(e.class(), EventClass::Host, "ranking is host time");
                Some((*ranked, *pruned, *transferred))
            }
            _ => None,
        })
        .collect();
    assert_eq!(ranked.len(), 1, "one sweep, one ranking");
    let (r, p, t) = ranked[0];
    assert_eq!(r, tuned.candidates, "every candidate is ranked");
    assert!(!t, "nothing to transfer from an empty table");

    let m = session.metrics();
    assert_eq!(m.tuner.ranked, r as u64, "{m}");
    assert_eq!(m.tuner.pruned, p as u64, "{m}");
    assert_eq!(m.tuner.transferred, 0, "{m}");
    assert_eq!(
        p as u64 + m.tuner.bounded + m.tuner.candidates_timed,
        r as u64,
        "{m}"
    );
    let text = m.to_string();
    for field in ["cut", "bounded", "ranked", "pruned", "transferred"] {
        assert!(text.contains(field), "{text}");
    }

    // Export a graph timeline with the host events and tuner candidates
    // appended: the graph spans are untouched, the ranking rides on the
    // host timeline, and each candidate is a tuner span carrying what
    // its sweep learned.
    let (graph, _) = chain_graph(&machine);
    let report = session.launch_timing(&graph).unwrap();
    let events = log.events();
    let json = TraceSink::chrome_json_with_host(&report, &events);
    let trace = TraceSink::parse_chrome_json(&json).unwrap();
    let (host, rest): (Vec<_>, Vec<_>) = trace.spans.iter().partition(|s| s.cat == "host");
    let (tuner, graph_spans): (Vec<_>, Vec<_>) = rest.into_iter().partition(|s| s.cat == "tuner");
    assert_eq!(graph_spans.len(), report.nodes.len());
    let swept: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::TunerCandidate {
                config,
                cycles,
                cut,
                ..
            } => Some((config, *cycles, *cut)),
            _ => None,
        })
        .collect();
    assert_eq!(tuner.len(), swept.len());
    let exported = JsonParser::parse(&json).unwrap();
    let args: Vec<_> = exported
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("tuner"))
        .map(|e| e.get("args").unwrap())
        .collect();
    for ((span, args), (config, cycles, cut)) in tuner.iter().zip(args).zip(swept) {
        assert_eq!(span.name, format!("tune:gemm:{config}"));
        let num = |k: &str| args.get(k).and_then(JsonValue::as_f64);
        assert_eq!((num("cycles"), num("cut")), (cycles, cut), "{config}");
        assert!(num("floor").is_some_and(|f| f <= span.dur), "{config}");
    }
    assert!(
        host.iter().any(|s| s.name == "rank:gemm"),
        "host spans: {:?}",
        host.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    for span in host {
        assert_eq!(span.tid, 0);
        assert!(span.ts >= 0.0 && span.dur >= 0.0);
    }
    // The plain exporter stays host-free for determinism comparisons.
    let plain = TraceSink::parse_chrome_json(&TraceSink::chrome_json(&report)).unwrap();
    assert!(plain.spans.iter().all(|s| s.cat != "host"));
}
