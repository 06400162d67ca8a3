//! The runtime's contract over its whole policy product: the session's
//! policies decide where and when kernels run, never what they compute.
//!
//! One generator draws random DAGs over six node kinds — the five paper
//! kernels and the standalone row-reduction — and one property launches
//! each at a random point of fusion × mapping × schedule × placement ×
//! faults × parallelism, holding it to a hand-composed single-kernel
//! oracle and to every invariant the point admits:
//!
//! - every exposed tensor equals the oracle's bit for bit; an unfused
//!   run exposes exactly its retained nodes and sinks, and fusion hides
//!   none of their outputs;
//! - `FailFast` ends fault-free or in a typed error, `Retry` retries
//!   every transient, and the recovery overhead is the recovery spans;
//! - fault-free, `critical_path <= makespan <= serial_sum`, completions
//!   come in time order, concurrency never loses to the serial schedule,
//!   and the serial single-device timeline is the prefix sum of the solo
//!   launches;
//! - `Concurrent { streams: 1 }` is `Serial`, `Sharded { devices: 1 }`
//!   is `SingleDevice`, and a plan that injects nothing is no plan;
//! - launches are nodes − replaced + fused, two nodes per rewrite, the
//!   fused makespan stays within the unfused serial sum, and both rules
//!   fire across the cases;
//! - a warm relaunch, a compiled-graph re-bind and a session warmed at
//!   another point reproduce the cold launch, and a relaunch — also
//!   after re-pointing the session's schedule, faults, worker count and
//!   recorder — compiles and tunes nothing while counting every fusion
//!   decision again;
//! - on every fourth case, parallelism 1 and 8 record the same event
//!   stream, and serial and concurrent schedules the same
//!   [`EventClass::Flow`] events.
//!
//! Fixed graphs the generator cannot express follow the property.

mod common;

use common::{assert_overhead_is_recovery_work, assert_runs_match, gemm_chain, gemm_node};
use common::{gemm_program, graph_inputs, D};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::space::Shape;
use cypress_core::kernels::{attention, batched, dual_gemm, gemm, gemm_reduction, reduction};
use cypress_core::{Compiled, MappingConfig, MappingSpace};
use cypress_runtime::telemetry::TraceLog;
use cypress_runtime::{
    Binding, Event, EventClass, FaultPlan, FaultPolicy, FusionPolicy, GraphReport, GraphRun,
    MappingPolicy, MetricsSnapshot, NodeId, PlacementPolicy, Program, Recovery, RuntimeError,
    SchedulePolicy, Session, TaskGraph,
};
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// One node kind at the uniform size: its program, the same program
/// carrying its mapping space, and the oracle's compile of it with its
/// solo cycles.
struct Kind {
    plain: Program,
    bound: Program,
    compiled: Compiled,
    solo: f64,
}

/// The five paper kernels and the standalone row-reduction on `machine`.
fn kinds(machine: &MachineConfig) -> Vec<Kind> {
    // One 64-row warpgroup, so attention tiles the uniform size.
    let fa_cfg = attention::AttentionConfig {
        br: 64,
        bc: 64,
        wgs: 1,
        pipeline: 1,
    };
    let fa = attention::AttentionSpace {
        algorithm: attention::Algorithm::Fa2,
    };
    let spaces: [(Arc<dyn MappingSpace>, &[usize]); 6] = [
        (Arc::new(gemm::GemmSpace), &[D, D, D]),
        (Arc::new(batched::BatchedGemmSpace), &[1, D, D, D]),
        (Arc::new(dual_gemm::DualGemmSpace), &[D, D, D]),
        (Arc::new(gemm_reduction::GemmReductionSpace), &[D, D, D]),
        (Arc::new(reduction::ReductionSpace), &[D, D]),
        (Arc::new(fa), &[1, D, D]),
    ];
    let machine = machine.clone();
    let sim = Simulator::new(machine.clone());
    let compiler = CypressCompiler::new(CompilerOptions {
        machine,
        ..Default::default()
    });
    let kind = |(space, dims): (Arc<dyn MappingSpace>, &[usize])| {
        let shape = Shape::of(dims);
        let cfg = match space.entry() {
            "fa" => MappingConfig::Attention(fa_cfg),
            _ => space.default_for(sim.machine()),
        };
        let plain = Program::from_parts(space.build(&shape, &cfg).unwrap(), space.entry());
        let (registry, mapping) = (&plain.registry, &plain.mapping);
        let compiled = compiler
            .compile(registry, mapping, &plain.entry, &plain.args)
            .unwrap();
        let solo = sim.run_timing(&compiled.kernel).unwrap().cycles;
        let bound = Program::from_space_at(space, shape, &cfg, sim.machine()).unwrap();
        Kind {
            plain,
            bound,
            compiled,
            solo,
        }
    };
    spaces.into_iter().map(kind).collect()
}

/// What a node's kind is drawn from: GEMM three times as likely as each
/// other kind, since both fusion rules need one.
const KIND_DRAWS: [usize; 8] = [0, 0, 0, 1, 2, 3, 4, 5];

/// A random DAG of two to five nodes, and each node's kind. Half the
/// nodes carry their mapping space, and 30 % are retained. A node's
/// first input continues the previous node's output when it fits
/// (70 %), as layers in sequence do; any other input takes the primary
/// output of a random earlier node (40 %) or one of two external tensors
/// of its shape. So producers fan out, fan in and share inputs, and both
/// fusion patterns occur: a GEMM feeding only a GEMM, and a GEMM and a
/// reduction of one tensor.
fn random_graph(kinds: &[Kind], seed: u64) -> (TaskGraph, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = TaskGraph::new();
    let (mut ids, mut kind_of) = (Vec::<NodeId>::new(), Vec::<usize>::new());
    for i in 0..rng.gen_range(2..6) {
        let kind = KIND_DRAWS[rng.gen_range(0..KIND_DRAWS.len())];
        let program = if rng.gen_bool(0.5) {
            &kinds[kind].bound
        } else {
            &kinds[kind].plain
        };
        let outputs = program.output_indices();
        let mut bindings = Vec::new();
        for (pi, arg) in program.args.iter().enumerate() {
            if outputs.contains(&pi) {
                bindings.push(Binding::Zeros);
                continue;
            }
            let first = bindings.iter().all(|b| matches!(b, Binding::Zeros));
            let fits: Vec<usize> = (0..i)
                .filter(|&j| {
                    let src = &kinds[kind_of[j]].plain.args[0];
                    (src.rows, src.cols, src.dtype) == (arg.rows, arg.cols, arg.dtype)
                })
                .collect();
            bindings.push(match fits.last() {
                Some(&last) if first && last + 1 == i && rng.gen_bool(0.7) => {
                    Binding::output(ids[last], 0)
                }
                Some(_) if rng.gen_bool(0.4) => {
                    Binding::output(ids[fits[rng.gen_range(0..fits.len())]], 0)
                }
                _ => {
                    let which = rng.gen_range(0..2);
                    Binding::External(format!("x{which}_{}x{}", arg.rows, arg.cols))
                }
            });
        }
        let id = graph
            .add_node(&format!("n{i}"), program.clone(), bindings)
            .expect("generated bindings are compatible by construction");
        if rng.gen_bool(0.3) {
            graph.retain(id).unwrap();
        }
        ids.push(id);
        kind_of.push(kind);
    }
    (graph, kind_of)
}

/// Hand-composed oracle: walk the deterministic schedule and run each
/// node's default-mapping kernel as its own `Simulator::run_functional`
/// call, threading buffers by hand. Every node's final parameters.
fn oracle_run(
    graph: &TaskGraph,
    kinds: &[&Kind],
    sim: &Simulator,
    inputs: &HashMap<String, Tensor>,
) -> Vec<Vec<Tensor>> {
    let mut results: Vec<Option<Vec<Tensor>>> = vec![None; graph.len()];
    for id in graph.schedule() {
        let node = &graph.nodes()[id.index()];
        let params = node.bindings.iter().zip(&node.program.args);
        let params = params.map(|(binding, arg)| match binding {
            Binding::External(name) => inputs[name].clone(),
            Binding::Output { node, param } => {
                results[node.index()].as_ref().unwrap()[*param].clone()
            }
            Binding::Zeros => Tensor::zeros(arg.dtype, &[arg.rows, arg.cols]),
        });
        let kernel = &kinds[id.index()].compiled.kernel;
        let run = sim.run_functional(kernel, params.collect()).unwrap();
        results[id.index()] = Some(run.params);
    }
    results.into_iter().map(Option::unwrap).collect()
}

/// How a point injects faults.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Faults {
    /// No faults: the empty plan, under `FailFast`.
    None,
    /// Under `Retry`, a plan that injects nothing: empty, or one
    /// transient at a launch index no run reaches.
    Inert { unreached: bool },
    /// This many seeded transients under `Retry`.
    Retry(usize),
    /// This many seeded transients under `FailFast`.
    FailFast(usize),
}

/// One point of the policy product.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    fusion: FusionPolicy,
    mapping: MappingPolicy,
    schedule: SchedulePolicy,
    placement: PlacementPolicy,
    faults: Faults,
    parallelism: usize,
}

impl Point {
    fn draw(rng: &mut StdRng) -> Point {
        let mut pick = |n: usize| rng.gen_range(0..n);
        Point {
            fusion: [FusionPolicy::Off, FusionPolicy::Auto][pick(2)],
            mapping: [
                MappingPolicy::Default,
                MappingPolicy::Autotune,
                MappingPolicy::Guided { top_k: 1 },
            ][pick(3)],
            schedule: match pick(5) {
                0 => SchedulePolicy::Serial,
                streams => SchedulePolicy::Concurrent { streams },
            },
            placement: match pick(4) {
                0 => PlacementPolicy::SingleDevice,
                i => PlacementPolicy::Sharded {
                    devices: 1 << (i - 1),
                },
            },
            faults: match pick(4) {
                0 => Faults::None,
                1 => Faults::Inert {
                    unreached: pick(2) == 1,
                },
                2 => Faults::Retry(1 + pick(3)),
                _ => Faults::FailFast(1 + pick(3)),
            },
            parallelism: [1, 8][pick(2)],
        }
    }

    fn devices(&self) -> usize {
        match self.placement {
            PlacementPolicy::SingleDevice => 1,
            PlacementPolicy::Sharded { devices } => devices,
        }
    }

    fn fault_free(&self) -> bool {
        matches!(self.faults, Faults::None | Faults::Inert { .. })
    }

    /// A fresh session at this point.
    fn session(&self, machine: &MachineConfig, seed: u64) -> Session {
        self.apply(Session::new(machine.clone()), seed)
    }

    /// `session` moved to this point on every axis, its caches kept.
    fn apply(&self, session: Session, seed: u64) -> Session {
        let seeded = |n| FaultPlan::seeded(seed, self.devices(), n);
        let unreached = FaultPlan::new().with_transient(0, 1_000_000);
        let (retry, plan) = match self.faults {
            Faults::None => (false, FaultPlan::new()),
            Faults::Inert { unreached: false } => (true, FaultPlan::new()),
            Faults::Inert { unreached: true } => (true, unreached),
            Faults::Retry(n) => (true, seeded(n)),
            Faults::FailFast(n) => (false, seeded(n)),
        };
        let fault_policy = match retry {
            true => FaultPolicy::Retry {
                max_attempts: 8,
                backoff: 8.0,
            },
            false => FaultPolicy::FailFast,
        };
        session
            .with_fusion_policy(self.fusion)
            .with_mapping_policy(self.mapping)
            .with_policy(self.schedule)
            .with_placement_policy(self.placement)
            .with_parallelism(self.parallelism)
            .with_fault_policy(fault_policy)
            .with_fault_plan(plan)
    }

    /// This point with every axis that has an identical twin swapped
    /// for it, if any has: `Serial` ↔ `Concurrent { streams: 1 }`,
    /// `SingleDevice` ↔ `Sharded { devices: 1 }`, an inert plan → none.
    fn twin(&self) -> Option<Point> {
        use {PlacementPolicy::*, SchedulePolicy::*};
        let mut twin = *self;
        twin.schedule = match self.schedule {
            Serial => Concurrent { streams: 1 },
            Concurrent { streams: 1 } => Serial,
            other => other,
        };
        twin.placement = match self.placement {
            SingleDevice => Sharded { devices: 1 },
            Sharded { devices: 1 } => SingleDevice,
            other => other,
        };
        if let Faults::Inert { .. } = self.faults {
            twin.faults = Faults::None;
        }
        (twin != *self).then_some(twin)
    }
}

type Launch = Result<GraphRun, RuntimeError>;

/// A launch's report, or its error, rendered with every bit: what two
/// launches that must be identical are compared by.
fn rendered(result: Result<&GraphReport, &RuntimeError>) -> String {
    match result {
        Ok(report) => format!("{report:?}"),
        Err(e) => format!("{e:?}"),
    }
}

fn report_of(launch: &Launch) -> Result<&GraphReport, &RuntimeError> {
    launch.as_ref().map(|run| &run.report)
}

/// Assert two launches are identical: report (or error) bit for bit,
/// and the retained tensors.
fn assert_same(a: &Launch, b: &Launch, graph: &TaskGraph, label: &str) {
    assert_eq!(rendered(report_of(a)), rendered(report_of(b)), "{label}");
    if let (Ok(a), Ok(b)) = (a, b) {
        assert_runs_match(a, b, graph, label);
    }
}

/// A functional launch, and what it added to the session's counters:
/// kernel-cache misses, tuner sweeps, fusion rewrites applied and
/// declined.
fn counted_launch(session: &mut Session, case: &Case) -> (Launch, [u64; 4]) {
    let count = |s: &Session| {
        let m = s.metrics();
        let fusion = [m.fusion_applied, m.fusion_declined];
        [m.cache.misses, m.tuner.sweeps, fusion[0], fusion[1]]
    };
    let before = count(session);
    let launch = session.launch_functional(&case.graph, &case.inputs);
    let after = count(session);
    (launch, std::array::from_fn(|i| after[i] - before[i]))
}

/// A fault-free sharded launch reports its transfers alike on all three
/// channels: the session's comm counters (`metrics`, this launch's
/// deltas), the `LinkTransfer` events (count, endpoints, bytes) and the
/// report's `xfer:` spans (count, endpoints, summed `load_bytes`), a
/// span's source being its producer's span device. Returns how many
/// transfers it compared.
fn assert_transfers_agree(
    report: &GraphReport,
    metrics: &MetricsSnapshot,
    events: &[Event],
    label: &str,
) -> usize {
    let mut moved: Vec<(usize, usize, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::LinkTransfer {
                src, dst, bytes, ..
            } => Some((*src, *dst, *bytes as u64)),
            _ => None,
        })
        .collect();
    let device_of = |name: &str| report.nodes.iter().find(|n| n.node == name).unwrap().device;
    let mut spans: Vec<(usize, usize, u64)> = report
        .nodes
        .iter()
        .filter_map(|n| {
            let (producer, _) = n.node.strip_prefix("xfer:")?.rsplit_once("->d")?;
            let (producer, _) = producer.rsplit_once('.')?;
            Some((device_of(producer), n.device, n.report.load_bytes as u64))
        })
        .collect();
    let link_bytes = spans.iter().map(|s| s.2).sum::<u64>();
    assert_eq!(metrics.comm_launches, spans.len() as u64, "{label}");
    assert_eq!(metrics.link_bytes, link_bytes, "{label}");
    moved.sort_unstable();
    spans.sort_unstable();
    assert_eq!(moved, spans, "LinkTransfer events vs xfer: spans ({label})");
    spans.len()
}

/// What the property counts across its cases.
#[derive(Default)]
struct Tally {
    /// Applied GEMM→GEMM chain rewrites.
    chains: usize,
    /// Applied GEMM+Reduction rewrites.
    reductions: usize,
    /// Cases whose event streams were compared.
    streams: usize,
    /// Transfers held to the same account on all three channels.
    transfers: usize,
}

/// One case: a graph drawn from `seed`, its nodes' kinds, its inputs,
/// and the point it launches at.
struct Case<'a> {
    seed: u64,
    graph: TaskGraph,
    kinds: Vec<&'a Kind>,
    inputs: HashMap<String, Tensor>,
    point: Point,
    label: String,
}

impl Case<'_> {
    /// The cold launch's own checks: every tensor against the oracle,
    /// the fault contract, fusion's accounting, and the timing of a
    /// fault-free report.
    fn check_run(&self, run: &GraphRun, sim: &Simulator, applied: u64, tally: &mut Tally) {
        let (graph, point, label) = (&self.graph, &self.point, &self.label);
        let oracle = oracle_run(graph, &self.kinds, sim, &self.inputs);
        let consumers = graph.consumer_counts();
        for (i, node) in graph.nodes().iter().enumerate() {
            let kept = node.retain || consumers[i].iter().all(|&c| c == 0);
            let outputs = node.program.output_indices();
            for (pi, want) in oracle[i].iter().enumerate() {
                let got = run.tensor_of(&node.name, pi);
                let what = format!("{} param {pi} ({label})", node.name);
                assert!(got.is_none_or(|got| got.data() == want.data()), "{what}");
                // Unfused runs keep exactly the retained nodes and sinks;
                // fusion may drop their operands, never their outputs.
                match point.fusion {
                    FusionPolicy::Off => assert_eq!(got.is_some(), kept, "{what}"),
                    FusionPolicy::Auto => {
                        let output = kept && outputs.contains(&pi);
                        assert!(got.is_some() || !output, "{what} vanished under fusion");
                    }
                }
            }
        }

        let report = &run.report;
        let recovery = &report.recovery;
        assert_overhead_is_recovery_work(report, label);
        match point.faults {
            Faults::Retry(_) => assert_eq!(recovery.retries, recovery.faults, "{label}"),
            Faults::FailFast(_) => assert_eq!(recovery.faults, 0, "{label}"),
            _ => assert_eq!(recovery, &Recovery::default(), "{label}"),
        }

        // Each fused launch names the two nodes it replaced; every other
        // compute launch is one node of the graph.
        let launches = report.nodes.iter().filter(|n| !n.node.contains(':'));
        let (mut count, mut replaced, mut fused) = (0, 0, 0);
        for node in launches {
            count += 1;
            replaced += node.replaced.len();
            if node.replaced.is_empty() {
                continue;
            }
            assert_eq!(node.replaced.len(), 2, "{label}");
            fused += 1;
            let reduces = node.replaced.iter().any(|name| {
                let i: usize = name[1..].parse().unwrap();
                self.kinds[i].plain.entry == "reduce"
            });
            match reduces {
                true => tally.reductions += 1,
                false => tally.chains += 1,
            }
        }
        assert_eq!(count, graph.len() - replaced + fused, "{label}");
        assert_eq!(
            fused as u64, applied,
            "a rewrite per fused launch ({label})"
        );

        if !point.fault_free() {
            return;
        }
        let serial_sum: f64 = self.kinds.iter().map(|k| k.solo).sum();
        let eps = 1e-9 * serial_sum;
        assert!(report.critical_path <= report.makespan + eps, "{label}");
        assert!(report.makespan <= report.serial_sum() + eps, "{label}");
        let ends: Vec<f64> = report.nodes.iter().map(|n| n.end).collect();
        assert!(ends.is_sorted(), "completions regressed in time ({label})");
        assert_eq!(Some(&report.makespan), ends.last(), "{label}");
        // The fusion gate only applies rewrites that beat the default
        // mappings they replace, and an exhaustive sweep never loses to
        // the default; a guided one can.
        let guided = matches!(point.mapping, MappingPolicy::Guided { .. });
        if point.fusion == FusionPolicy::Auto && point.devices() == 1 && !guided {
            let makespan = report.makespan;
            assert!(
                makespan <= serial_sum + eps,
                "{makespan} > {serial_sum} ({label})"
            );
        }
        // Serially on one device, unfused: the back-to-back walk of the
        // solo launches in `graph.schedule()` order.
        let walk = (SchedulePolicy::Serial, 1, FusionPolicy::Off);
        if (point.schedule, point.devices(), point.fusion) != walk {
            return;
        }
        let schedule = graph.schedule();
        assert_eq!(report.nodes.len(), schedule.len(), "{label}");
        let mut cursor = 0.0f64;
        for (timing, id) in report.nodes.iter().zip(&schedule) {
            assert_eq!(timing.node, graph.nodes()[id.index()].name, "{label}");
            if point.mapping == MappingPolicy::Default {
                let solo = self.kinds[id.index()].solo;
                assert_eq!(timing.report.cycles.to_bits(), solo.to_bits(), "{label}");
            }
            assert_eq!(timing.start.to_bits(), cursor.to_bits(), "{label}");
            cursor += timing.report.cycles;
            assert_eq!(timing.end.to_bits(), cursor.to_bits(), "{label}");
            assert_eq!((timing.device, timing.stream), (0, 0), "{label}");
        }
    }

    /// A launch that did not complete: only a seeded plan under
    /// `FailFast` may end one, as a typed error on its first attempt.
    fn check_error(&self, err: &RuntimeError) {
        let label = &self.label;
        assert!(
            matches!(self.point.faults, Faults::FailFast(_)),
            "{err} ({label})"
        );
        match err {
            RuntimeError::NodeFailed {
                attempts, report, ..
            } => {
                let recovery = &report.recovery;
                assert_eq!((*attempts, recovery.retries), (1, 0), "{label}");
                assert!(recovery.faults >= 1, "{label}");
            }
            RuntimeError::DeviceLost { .. } => {}
            other => panic!("unexpected error class: {other} ({label})"),
        }
    }
}

/// Launch `case` at its point and hold every run of it to the cold one;
/// `warmer` is the other point a second session may first launch at.
fn check_case(
    case: &Case,
    machine: &MachineConfig,
    warmer: Point,
    record: bool,
    tally: &mut Tally,
) {
    let (graph, point, seed, label) = (&case.graph, case.point, case.seed, &case.label);
    let sim = Simulator::new(machine.clone());
    let log = TraceLog::new();
    let mut session = point.session(machine, seed);
    let sharded = point.fault_free() && point.devices() > 1;
    if record || sharded {
        session = session.with_recorder(log.clone());
    }
    let (cold, counts) = counted_launch(&mut session, case);
    let stream = log.events();
    match &cold {
        Ok(run) => case.check_run(run, &sim, counts[2], tally),
        Err(err) => case.check_error(err),
    }
    if let (Ok(run), true) = (&cold, sharded) {
        // A fresh session: its counters are the cold launch's deltas.
        let metrics = session.metrics();
        tally.transfers += assert_transfers_agree(&run.report, &metrics, &stream, label);
    }

    // The same launch warm: nothing compiled or tuned again, and every
    // fusion decision made — and counted — again.
    let (warm, warm_counts) = counted_launch(&mut session, case);
    assert_same(&cold, &warm, graph, &format!("warm relaunch, {label}"));
    assert_eq!(warm_counts, [0, 0, counts[2], counts[3]], "{label}");

    // Timing launches agree with the functional one, and so do twins.
    let cold_report = rendered(report_of(&cold));
    let timing = session.launch_timing(graph);
    assert_eq!(rendered(timing.as_ref()), cold_report, "{label}");
    if let Some(twin) = point.twin() {
        session = twin.apply(session, seed);
        let got = rendered(session.launch_timing(graph).as_ref());
        assert_eq!(got, cold_report, "twin {twin:?} of {label}");
    }
    if let (Ok(run), SchedulePolicy::Concurrent { .. }) = (&cold, point.schedule) {
        if point.fault_free() {
            let serial = Point {
                schedule: SchedulePolicy::Serial,
                ..point
            };
            session = serial.apply(session, seed);
            let serial = session.launch_timing(graph).unwrap();
            let (conc, eps) = (&run.report, 1e-9 * serial.makespan);
            assert!(
                conc.makespan <= serial.makespan + eps,
                "lost to serial: {label}"
            );
            let solo_sums = (conc.serial_sum() - serial.serial_sum()).abs();
            assert!(solo_sums <= eps, "{label}");
        }
    }

    // Compile once, re-bind fresh inputs twice.
    session = point.apply(session, seed);
    let compiled = session.compile_graph(graph).unwrap();
    for round in 1..=2 {
        let inputs = graph_inputs(graph, seed ^ round);
        let rebind = session.launch_compiled(&compiled, &inputs);
        let fresh = session.launch_functional(graph, &inputs);
        assert_same(&rebind, &fresh, graph, &format!("re-bind {round}, {label}"));
    }

    // Re-pointed at the warmer's schedule, fault plan and worker count,
    // with another recorder, the session keeps its kernel cache, pool,
    // tuning table and fusion memos: no counter moves, and the next
    // launch compiles and tunes nothing.
    let before = session.metrics();
    let repointed = Point {
        schedule: warmer.schedule,
        faults: warmer.faults,
        parallelism: warmer.parallelism,
        ..point
    };
    session = repointed
        .apply(session, seed)
        .with_recorder(TraceLog::new());
    assert_eq!(
        session.metrics(),
        before,
        "re-pointing moved a counter ({label})"
    );
    let (_, repointed_counts) = counted_launch(&mut session, case);
    let want = [0, 0, counts[2], counts[3]];
    assert_eq!(
        repointed_counts, want,
        "re-pointed at {repointed:?}: {label}"
    );

    // A second session that first launched the graph at another point.
    // On recorded cases that is this point at the other worker count,
    // whose stream must be this one's. Otherwise it is a random point
    // that keeps this point's mapping unless it drew the default, warmed
    // by a timing launch and this session's tuning table, so it sweeps
    // nothing.
    let other = if record {
        let workers = Point {
            parallelism: 9 - point.parallelism,
            ..point
        };
        let other_log = TraceLog::new();
        let mut other = workers
            .session(machine, seed)
            .with_recorder(other_log.clone());
        let _ = other.launch_functional(graph, &case.inputs);
        let other_stream = other_log.events();
        assert_eq!(stream, other_stream, "worker count leaked ({label})");
        tally.streams += 1;
        other
    } else {
        let mapping = match warmer.mapping {
            MappingPolicy::Default => MappingPolicy::Default,
            _ => point.mapping,
        };
        let mut other = Point { mapping, ..warmer }.session(machine, seed);
        other.import_tuning(session.tuning_table().clone());
        let _ = other.launch_timing(graph);
        other
    };
    let mut other = point.apply(other, seed);
    let (launch, other_counts) = counted_launch(&mut other, case);
    assert_same(&cold, &launch, graph, &format!("second session, {label}"));
    // It already holds this point's winners, from the table or from its
    // own launch, so it sweeps nothing, and it decides fusion again.
    assert_eq!(other_counts[1..], [0, counts[2], counts[3]], "{label}");

    // Fault-free, the serial and a concurrent schedule make the same
    // dataflow decisions.
    if record && point.fault_free() {
        let schedule = match point.schedule {
            SchedulePolicy::Serial => SchedulePolicy::Concurrent { streams: 4 },
            SchedulePolicy::Concurrent { .. } => SchedulePolicy::Serial,
        };
        let flipped_log = TraceLog::new();
        let mut flipped = Point { schedule, ..point }
            .session(machine, seed)
            .with_recorder(flipped_log.clone());
        let _ = flipped.launch_functional(graph, &case.inputs);
        let flow = |events: Vec<Event>| -> Vec<Event> {
            let flow = events.into_iter().filter(|e| e.class() == EventClass::Flow);
            flow.collect()
        };
        let flipped = flow(flipped_log.events());
        assert_eq!(flow(stream), flipped, "schedule leaked into Flow ({label})");
    }
}

/// The property: 128 random graphs, each at one random point of the
/// policy product.
#[test]
fn every_policy_point_matches_the_oracle() {
    let machine = MachineConfig::test_gpu();
    let all = kinds(&machine);
    let mut rng = StdRng::seed_from_u64(0x0090_11C7);
    let mut tally = Tally::default();
    for i in 0..128 {
        let seed = rng.next_u64() % 1_000_000;
        let (point, warmer) = (Point::draw(&mut rng), Point::draw(&mut rng));
        let (graph, kind_of) = random_graph(&all, seed);
        let case = Case {
            seed,
            kinds: kind_of.iter().map(|&k| &all[k]).collect(),
            inputs: graph_inputs(&graph, seed),
            graph,
            point,
            label: format!("seed {seed}, {point:?}"),
        };
        check_case(&case, &machine, warmer, i % 4 == 0, &mut tally);
    }
    assert!(tally.chains > 0, "no GEMM->GEMM chain fused");
    assert!(tally.reductions > 0, "no GEMM+Reduction pair fused");
    assert_eq!(tally.streams, 32);
    assert!(
        tally.transfers > 0,
        "no fault-free sharded case moved a buffer"
    );
}

/// The fan-out graph: four independent GEMMs feeding a two-level
/// reduction (two dual-GEMM combiners, then a GEMM+Reduction sink).
/// Width 4, depth 3 — plenty of exposed parallelism.
fn fan_out_graph(machine: &MachineConfig) -> TaskGraph {
    let gemm_p = gemm_program(machine, D);
    let dual_p = Program::from_parts(dual_gemm::build(D, D, D, machine).unwrap(), "dual");
    let gr_p = Program::from_parts(gemm_reduction::build(D, D, D, machine).unwrap(), "gr");
    let mut graph = TaskGraph::new();
    let gemms: Vec<NodeId> = (0..4)
        .map(|i| {
            let [a, b] = [format!("A{i}"), format!("B{i}")].map(Binding::External);
            gemm_node(&mut graph, &format!("gemm{i}"), &gemm_p, a, b)
        })
        .collect();
    let mut combine = |name: &str, pair: &[NodeId]| {
        let mut bindings = vec![Binding::Zeros, Binding::external("X")];
        bindings.extend(pair.iter().map(|&g| Binding::output(g, 0)));
        graph.add_node(name, dual_p.clone(), bindings).unwrap()
    };
    let combined = [
        combine("combine01", &gemms[..2]),
        combine("combine23", &gemms[2..]),
    ];
    let mut bindings = vec![Binding::Zeros, Binding::Zeros];
    bindings.extend(combined.map(|c| Binding::output(c, 0)));
    graph.add_node("reduce", gr_p, bindings).unwrap();
    graph
}

/// A fan-out graph overlaps under the concurrent policy —
/// `critical_path <= makespan < serial_sum` — and four streams actually
/// use more than one stream.
#[test]
fn fan_out_overlaps_under_concurrent_policy() {
    let machine = MachineConfig::test_gpu();
    let graph = fan_out_graph(&machine);
    let mut session = Session::new(machine);

    let serial = session.launch_timing(&graph).unwrap();
    assert_eq!(serial.makespan, serial.serial_sum());
    assert_eq!(serial.streams, 1);
    assert!(serial.nodes.iter().all(|n| n.stream == 0));

    session = session.with_policy(SchedulePolicy::Concurrent { streams: 4 });
    let conc = session.launch_timing(&graph).unwrap();
    let (makespan, serial_sum) = (conc.makespan, serial.serial_sum());
    assert!(
        makespan < serial_sum,
        "no overlap: {makespan} vs {serial_sum}"
    );
    assert!(makespan >= conc.critical_path, "beat the critical path");
    assert!(conc.nodes.iter().any(|n| n.stream > 0), "one stream used");
    assert!(conc.overlap_speedup() > 1.0);
    // The four independent GEMMs all start at cycle 0.
    for i in 0..4 {
        let t = conc.timeline(&format!("gemm{i}")).unwrap();
        assert_eq!(t.start, 0.0, "gemm{i} is ready at launch");
    }
}

/// Timing invariants hold at every stream count, and adding streams
/// never hurts this fan-out graph.
#[test]
fn invariants_across_stream_counts() {
    let machine = MachineConfig::test_gpu();
    let graph = fan_out_graph(&machine);
    let mut session = Session::new(machine);
    let serial = session.launch_timing(&graph).unwrap();

    let mut prev = f64::INFINITY;
    for streams in 1..=6 {
        session = session.with_policy(SchedulePolicy::Concurrent { streams });
        let r = session.launch_timing(&graph).unwrap();
        let eps = 1e-9 * serial.makespan;
        assert!(r.critical_path <= r.makespan + eps, "streams {streams}");
        assert!(r.makespan <= r.serial_sum() + eps, "streams {streams}");
        assert!(r.makespan <= prev + eps, "more streams hurt ({streams})");
        assert_eq!(r.streams, streams);
        prev = r.makespan;
    }
    // Beyond the graph's width, extra streams change nothing.
    session = session.with_policy(SchedulePolicy::Concurrent { streams: 4 });
    let four = session.launch_timing(&graph).unwrap();
    session = session.with_policy(SchedulePolicy::Concurrent { streams: 16 });
    let sixteen = session.launch_timing(&graph).unwrap();
    assert_eq!(four.makespan.to_bits(), sixteen.makespan.to_bits());
}

/// Repeat-run row of the telemetry determinism table: at fixed settings
/// the full recorded stream of a fresh session is bit-identical across
/// runs, and it covers the graph — one submission, one execution, span
/// and cache lookup per node, the executor's waves and pool traffic.
#[test]
fn event_stream_is_identical_across_repeat_runs() {
    let machine = MachineConfig::test_gpu();
    let graph = fan_out_graph(&machine);
    let ins = graph_inputs(&graph, 23);
    let recorded_stream = |parallelism: usize, policy: SchedulePolicy| {
        let log = TraceLog::new();
        let mut session = Session::new(machine.clone())
            .with_parallelism(parallelism)
            .with_policy(policy)
            .with_recorder(log.clone());
        session.launch_functional(&graph, &ins).unwrap();
        log.events()
    };
    for (parallelism, policy) in [
        (1, SchedulePolicy::Serial),
        (4, SchedulePolicy::Concurrent { streams: 3 }),
    ] {
        let a = recorded_stream(parallelism, policy);
        let b = recorded_stream(parallelism, policy);
        assert_eq!(a, b, "parallelism {parallelism}: repeat runs diverged");

        let count = |pred: fn(&&Event) -> bool| a.iter().filter(pred).count();
        assert_eq!(count(|e| matches!(e, Event::GraphSubmitted { .. })), 1);
        assert_eq!(count(|e| matches!(e, Event::NodeExecuted { .. })), 7);
        assert_eq!(count(|e| matches!(e, Event::NodeSpan { .. })), 7);
        assert_eq!(count(|e| matches!(e, Event::CacheLookup { .. })), 7);
        assert!(count(|e| matches!(e, Event::WaveScheduled { .. })) > 0);
        assert!(count(|e| matches!(e, Event::PoolAcquire { .. })) > 0);
    }
}

/// `Session::metrics()` is a function of the launch sequence alone: after
/// three fan-out launches (cold pool, then warm) and one autotune sweep,
/// every counter — pool reuse and occupancy, cache traffic, tuner stats,
/// apply bytes — is equal at parallelism 1, 2 and 8.
#[test]
fn metrics_are_identical_across_worker_counts() {
    let machine = MachineConfig::test_gpu();
    let graph = fan_out_graph(&machine);
    let ins = graph_inputs(&graph, 29);
    let shape = Shape::of(&[128, 128, 64]);
    let tuned = Program::from_space(Arc::new(gemm::GemmSpace), shape, &machine).unwrap();
    let metrics_at = |parallelism: usize| {
        let mut session = Session::new(machine.clone()).with_parallelism(parallelism);
        for _ in 0..3 {
            session.launch_functional(&graph, &ins).unwrap();
        }
        session.autotune(&tuned).unwrap();
        session.metrics()
    };
    let want = metrics_at(1);
    let timed = want.tuner.candidates_timed;
    assert!(want.pool.reused > 0 && timed > 1, "{want}");
    for parallelism in [2, 8] {
        let got = metrics_at(parallelism);
        assert_eq!(want, got, "worker count {parallelism} leaked");
    }
}

/// The compiled-graph handle freezes the fusion rewrite and keeps its
/// kernels alive independently of the session cache: re-binding after
/// [`Session::clear`] still launches, and fused results still come back
/// addressed by the original graph's node ids.
#[test]
fn compiled_graph_rebind_survives_fusion_and_cache_clear() {
    let machine = MachineConfig::test_gpu();
    let (graph, _, down) = gemm_chain(&machine);
    let mut session = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
    let compiled = session.compile_graph(&graph).unwrap();
    assert!(compiled.is_fused(), "the GEMM chain fuses on this machine");
    assert_eq!(compiled.launch_count(), 1);
    assert_eq!(compiled.graph().len(), 2);

    for round in 0..2u64 {
        let inputs = graph_inputs(&graph, 1000 + round);
        if round == 1 {
            // Evicting every cached kernel must not invalidate the
            // handle: it owns its compiled launches.
            session.clear();
        }
        let rebind = session.launch_compiled(&compiled, &inputs).unwrap();
        let fresh = session.launch_functional(&graph, &inputs).unwrap();
        let a = rebind.tensor(down, 0).expect("sink tensor retained");
        let b = fresh.tensor(down, 0).expect("sink tensor retained");
        assert_eq!(a.data(), b.data(), "fused re-bind diverged (round {round})");
    }
}
