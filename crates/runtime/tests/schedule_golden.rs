//! Golden digests of sharded schedules.
//!
//! `tests/golden/schedules.digests` pins one FNV-64 per case over what a
//! timing launch and a functional launch of the case report: every
//! span's name, device, stream and the bits of its start and end, its
//! report's kernel and the bits of its cycles, then the makespan, the
//! critical path and the recovery section. A case is a graph — the
//! `common` builders, a two-producer fan-in, or one of 16 seeded random
//! DAGs — on 2 or 4 devices × `Serial` / `Concurrent { streams: 4 }` ×
//! fusion off / auto × no faults / two transients / the loss of the last
//! device at half the clean makespan, on the unit-test machine under
//! `MappingPolicy::Default`. Transients retry after a backoff on four
//! devices and immediately on two.
//!
//! A rewrite of the sharder, the scheduler or the recovery path must
//! leave the file untouched. Only after an *intentional* change to the
//! timeline model regenerate it with
//!
//! ```sh
//! cargo test --release -p cypress-runtime --test schedule_golden -- --ignored regenerate
//! ```
//!
//! and review the diff like any other golden file.

mod common;

#[allow(dead_code)]
#[path = "../../core/tests/golden/shared.rs"]
mod shared;

use common::{diamond, gemm_chain, gemm_fanout, gemm_node, gemm_program, graph_inputs, D};
use cypress_core::fingerprint::Fnv64;
use cypress_core::kernels::{gemm, reduction};
use cypress_runtime::{
    Binding, FaultPlan, FaultPolicy, FusionPolicy, GraphReport, NodeId, PlacementPolicy, Program,
    RuntimeError, SchedulePolicy, Session, TaskGraph,
};
use cypress_sim::MachineConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/schedules.digests");

/// Two producers of different weight feeding one consumer, which reads
/// the lighter one across the link twice.
fn fan_in(machine: &MachineConfig) -> TaskGraph {
    let wide = Program::from_parts(gemm::build(D, D, 2 * D, machine).unwrap(), "gemm");
    let program = gemm_program(machine, D);
    let mut graph = TaskGraph::new();
    let [a, b] = ["aA", "aB"].map(Binding::external);
    let heavy = gemm_node(&mut graph, "heavy", &wide, a, b);
    let [a, b] = ["bA", "bB"].map(Binding::external);
    let light = gemm_node(&mut graph, "light", &program, a, b);
    let [x, y] = [heavy, light].map(|p| Binding::output(p, 0));
    let sum = gemm_node(&mut graph, "sum", &program, x, y);
    let [x, y] = [sum, light].map(|p| Binding::output(p, 0));
    gemm_node(&mut graph, "out", &program, x, y);
    graph
}

/// A random DAG of three to eight nodes: GEMMs reading earlier GEMM
/// outputs or shared externals, wider GEMM roots (a third of the
/// nodes), and row-reductions of either, a fifth of them retained.
fn random_dag(machine: &MachineConfig, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let program = gemm_program(machine, D);
    let wide = Program::from_parts(gemm::build(D, D, 2 * D, machine).unwrap(), "gemm");
    let reduce = Program::from_parts(reduction::build(D, D, machine).unwrap(), "reduce");
    let mut graph = TaskGraph::new();
    let mut outputs: Vec<NodeId> = Vec::new();
    for i in 0..rng.gen_range(3..9) {
        let source = |rng: &mut StdRng| {
            if !outputs.is_empty() && rng.gen_bool(0.8) {
                Binding::output(outputs[rng.gen_range(0..outputs.len())], 0)
            } else {
                Binding::External(format!("x{}", rng.gen_range(0..2)))
            }
        };
        let name = format!("n{i}");
        let id = match rng.gen_range(0..6) {
            0 => {
                let bindings = vec![Binding::Zeros, source(&mut rng)];
                graph.add_node(&name, reduce.clone(), bindings).unwrap()
            }
            1 | 2 => {
                let [a, b] = ["A", "B"].map(|p| Binding::External(format!("{name}{p}")));
                gemm_node(&mut graph, &name, &wide, a, b)
            }
            _ => {
                let [a, b] = [source(&mut rng), source(&mut rng)];
                gemm_node(&mut graph, &name, &program, a, b)
            }
        };
        if graph.nodes()[id.index()].program.entry == "gemm" {
            outputs.push(id);
        }
        if rng.gen_bool(0.2) {
            graph.retain(id).unwrap();
        }
    }
    graph
}

/// Every graph the digests cover, by name.
fn graphs(machine: &MachineConfig) -> Vec<(String, TaskGraph)> {
    let mut graphs = vec![
        ("chain".to_string(), gemm_chain(machine).0),
        ("fanout".to_string(), gemm_fanout(machine, 128)),
        ("diamond".to_string(), diamond(machine).0),
        ("fan_in".to_string(), fan_in(machine)),
    ];
    for seed in 0..16 {
        graphs.push((format!("dag{seed}"), random_dag(machine, seed)));
    }
    graphs
}

/// What a case injects.
#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    Transients,
    LastDeviceLost,
}

impl Faults {
    /// `session` retrying this case's faults on `devices` devices, whose
    /// clean makespan is `clean`.
    fn apply(self, session: Session, devices: usize, clean: f64) -> Session {
        let (plan, backoff) = match self {
            Faults::None => (FaultPlan::new(), 0.0),
            Faults::Transients => {
                let plan = FaultPlan::new().with_transient(0, 0);
                let backoff = if devices == 4 { 96.0 } else { 0.0 };
                (plan.with_transient(devices - 1, 1), backoff)
            }
            Faults::LastDeviceLost => {
                let plan = FaultPlan::new().with_device_loss(devices - 1, 0.5 * clean);
                (plan, 0.0)
            }
        };
        let max_attempts = 4;
        let policy = FaultPolicy::Retry {
            max_attempts,
            backoff,
        };
        session.with_fault_plan(plan).with_fault_policy(policy)
    }
}

/// Fold one launch's outcome into `h`.
fn digest(h: &mut Fnv64, outcome: Result<&GraphReport, &RuntimeError>) {
    let report = match outcome {
        Ok(report) => report,
        Err(RuntimeError::NodeFailed { report, .. } | RuntimeError::DeviceLost { report, .. }) => {
            h.write_str("partial");
            report
        }
        Err(other) => {
            h.write_args(format_args!("error {other}"));
            return;
        }
    };
    for n in &report.nodes {
        h.write_args(format_args!(
            "{} d{} s{} {:x} {:x} {} {:x};",
            n.node,
            n.device,
            n.stream,
            n.start.to_bits(),
            n.end.to_bits(),
            n.report.kernel,
            n.report.cycles.to_bits()
        ));
    }
    let r = &report.recovery;
    h.write_args(format_args!(
        "makespan {:x} critical {:x} faults {} retries {} evicted {:?} resharded {:?} overhead {:x}",
        report.makespan.to_bits(),
        report.critical_path.to_bits(),
        r.faults,
        r.retries,
        r.evicted_devices,
        r.resharded_nodes,
        r.overhead_cycles.to_bits()
    ));
}

/// One line per graph × devices × schedule × fusion × faults.
fn digests() -> String {
    let machine = MachineConfig::test_gpu();
    let mut session = Session::new(machine.clone()).with_parallelism(1);
    let mut out = String::new();
    for (name, graph) in graphs(&machine) {
        let inputs = graph_inputs(&graph, 7);
        for devices in [2usize, 4] {
            for schedule in [
                SchedulePolicy::Serial,
                SchedulePolicy::Concurrent { streams: 4 },
            ] {
                for fusion in [FusionPolicy::Off, FusionPolicy::Auto] {
                    session = session
                        .with_placement_policy(PlacementPolicy::Sharded { devices })
                        .with_policy(schedule)
                        .with_fusion_policy(fusion)
                        .with_fault_policy(FaultPolicy::FailFast)
                        .with_fault_plan(FaultPlan::new());
                    let clean = session.launch_timing(&graph).unwrap().makespan;
                    for faults in [Faults::None, Faults::Transients, Faults::LastDeviceLost] {
                        session = faults.apply(session, devices, clean);
                        let mut h = Fnv64::new();
                        digest(&mut h, session.launch_timing(&graph).as_ref());
                        let run = session.launch_functional(&graph, &inputs);
                        digest(&mut h, run.as_ref().map(|run| &run.report));
                        let _ = writeln!(
                            out,
                            "{name} d{devices} {schedule:?} {fusion:?} {faults:?} {:016x}",
                            h.finish()
                        );
                    }
                }
            }
        }
    }
    out
}

#[test]
fn sharded_schedules_match_golden_digests() {
    shared::assert_matches_golden(
        GOLDEN,
        &digests(),
        "sharded schedules no longer reproduce tests/golden/schedules.digests",
    );
}

/// Rewrites the golden file from the current implementation (see the
/// module header for when that is legitimate).
#[test]
#[ignore = "regenerates tests/golden/schedules.digests"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/");
    std::fs::write(format!("{path}schedules.digests"), digests()).expect("write golden file");
}
