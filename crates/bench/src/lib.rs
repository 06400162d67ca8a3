//! Regenerates every table and figure of the Cypress evaluation (paper
//! §5) on the **simulated clock**, and gates them. Each `figNN` function
//! returns the series the paper plots; the `figures` binary prints them
//! side by side with the paper's reported ratios and writes
//! `BENCH_figures.json` ([`FigureFile`]); [`expected_rows`] and
//! [`gates`] are what the `check_figures` binary holds that file to.
//! Host-clock numbers live in the standalone `benchmark/` package.

#![forbid(unsafe_code)]

use cypress_baselines::{cublas, cudnn, fa3, thunderkittens, triton};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::space::{MappingSpace, Shape};
use cypress_core::kernels::{
    attention, batched, chain, dual_gemm, gemm, gemm_reduction, reduction,
};
use cypress_runtime::json::{json_str, JsonParser, JsonValue};
use cypress_runtime::{
    Binding, FaultPlan, FaultPolicy, FusionPolicy, PlacementPolicy, Program, SchedulePolicy,
    Session, TaskGraph, TunerBudget,
};
use cypress_sim::{Kernel, MachineConfig, Simulator};
use std::fmt;
use std::sync::Arc;

/// What a [`Row`]'s value measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Simulated throughput.
    Tflops,
    /// A ratio of two simulated quantities (or a fraction).
    Ratio,
    /// A count of things the run did.
    Count,
}

impl Unit {
    const ALL: [Unit; 3] = [Unit::Tflops, Unit::Ratio, Unit::Count];

    /// The name printed beside a series and written as the row's
    /// `"unit"` in `BENCH_figures.json`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Unit::Tflops => "TFLOP/s",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
        }
    }
}

/// One measured point: one line of `BENCH_figures.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Id of the figure the point belongs to.
    pub figure: String,
    /// System name (Cypress, Triton, cuBLAS, ...).
    pub system: String,
    /// Problem size label (M=N=K or sequence length).
    pub size: usize,
    /// The measurement.
    pub value: f64,
    /// What `value` measures.
    pub unit: Unit,
}

impl Row {
    /// The point `(figure, system, size)`.
    pub fn new(
        figure: &str,
        system: impl Into<String>,
        size: usize,
        value: f64,
        unit: Unit,
    ) -> Self {
        Row {
            figure: figure.into(),
            system: system.into(),
            size,
            value,
            unit,
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: `{}` @ {}", self.figure, self.system, self.size)
    }
}

fn compile_cypress(
    machine: &MachineConfig,
    reg: &cypress_core::TaskRegistry,
    mapping: &cypress_core::MappingSpec,
    name: &str,
    args: &[cypress_core::EntryArg],
) -> Kernel {
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    compiler
        .compile(reg, mapping, name, args)
        .expect("evaluation kernels compile")
        .kernel
}

/// One row per `(system, kernel)` pair of `figure` at `size`: the
/// kernel simulated, as TFLOP/s for `flops`.
fn series<'a>(
    figure: &'a str,
    systems: &'a [&str],
    kernels: &'a [Kernel],
    size: usize,
    flops: f64,
    machine: &MachineConfig,
) -> impl Iterator<Item = Row> + 'a {
    let sim = Simulator::new(machine.clone());
    systems.iter().zip(kernels).map(move |(system, kernel)| {
        let report = sim.run_timing(kernel).expect("kernel must simulate");
        let tflops = report.tflops_for(flops);
        Row::new(figure, *system, size, tflops, Unit::Tflops)
    })
}

// Figure ids: the `"figure"` of every row a builder emits, and what
// `expected_rows` and `gates` file their entries under.
const FIG_13A: &str = "13a_gemm";
const FIG_13B: &str = "13b_batched_gemm";
const FIG_13C: &str = "13c_dual_gemm";
const FIG_13D: &str = "13d_gemm_reduction";
const FIG_14: &str = "14_attention";
const FIG_OVERLAP: &str = "graph_overlap";
const FIG_MULTI_GPU: &str = "fig_multi_gpu";
const FIG_FUSION: &str = "fig_fusion";
const FIG_AUTOTUNE: &str = "fig_autotune";
const FIG_FAULT: &str = "fig_fault_tolerance";

/// The evaluation sizes of Fig. 13.
pub const GEMM_SIZES: [usize; 3] = [4096, 6144, 8192];
/// The evaluation sequence lengths of Fig. 14.
pub const SEQ_LENS: [usize; 4] = [2048, 4096, 8192, 16384];
/// Heads used for Fig. 14 (batch x heads at head dim 128).
pub const HEADS: usize = 16;
/// Head dimension of Fig. 14.
pub const HEAD_DIM: usize = 128;
/// Series of Fig. 13a/13b; 13c/13d plot the first two.
const GEMM_SYSTEMS: [&str; 3] = ["Cypress", "Triton", "cuBLAS"];
/// Series of Fig. 14.
const ATTENTION_SYSTEMS: [&str; 6] = [
    "Cypress (FA2)",
    "Cypress (FA3)",
    "Triton (FA2)",
    "ThunderKittens (FA2)",
    "Flash Attention 3",
    "cuDNN",
];

/// Fig. 13a: GEMM — Cypress vs Triton vs cuBLAS.
#[must_use]
pub fn fig13a(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    let sim = Simulator::new(machine.clone());
    for size in GEMM_SIZES {
        let (reg, mapping, args) =
            gemm::build(size, size, size, machine).expect("paper kernel builds");
        let kernels = [
            compile_cypress(machine, &reg, &mapping, "gemm", &args),
            triton::gemm(size, size, size),
            cublas::gemm_with(size, size, size, &sim),
        ];
        let fl = gemm::flops(size, size, size);
        rows.extend(series(FIG_13A, &GEMM_SYSTEMS, &kernels, size, fl, machine));
    }
    rows
}

/// Fig. 13b: Batched-GEMM (L = 4).
#[must_use]
pub fn fig13b(machine: &MachineConfig) -> Vec<Row> {
    let l = 4;
    let mut rows = Vec::new();
    for size in GEMM_SIZES {
        let (reg, mapping, args) =
            batched::build(l, size, size, size, machine).expect("paper kernel builds");
        let kernels = [
            compile_cypress(machine, &reg, &mapping, "bgemm", &args),
            triton::batched_gemm(l, size, size, size),
            cublas::batched_gemm(l, size, size, size),
        ];
        let fl = batched::flops(l, size, size, size);
        rows.extend(series(FIG_13B, &GEMM_SYSTEMS, &kernels, size, fl, machine));
    }
    rows
}

/// Fig. 13c: Dual-GEMM — Cypress vs Triton.
#[must_use]
pub fn fig13c(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for size in GEMM_SIZES {
        let (reg, mapping, args) =
            dual_gemm::build(size, size, size, machine).expect("paper kernel builds");
        let kernels = [
            compile_cypress(machine, &reg, &mapping, "dual", &args),
            triton::dual_gemm(size, size, size),
        ];
        let fl = dual_gemm::flops(size, size, size);
        rows.extend(series(FIG_13C, &GEMM_SYSTEMS, &kernels, size, fl, machine));
    }
    rows
}

/// Fig. 13d: GEMM+Reduction — Cypress vs Triton.
#[must_use]
pub fn fig13d(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for size in GEMM_SIZES {
        let (reg, mapping, args) =
            gemm_reduction::build(size, size, size, machine).expect("paper kernel builds");
        let kernels = [
            compile_cypress(machine, &reg, &mapping, "gr", &args),
            triton::gemm_reduction(size, size, size),
        ];
        let fl = gemm_reduction::flops(size, size, size);
        rows.extend(series(FIG_13D, &GEMM_SYSTEMS, &kernels, size, fl, machine));
    }
    rows
}

/// Fig. 14: FlashAttention (FP16, head dim 128).
#[must_use]
pub fn fig14(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    let sim = Simulator::new(machine.clone());
    for seq in SEQ_LENS {
        let cypress = |alg| {
            let (reg, mapping, args) =
                attention::build(alg, HEADS, seq, HEAD_DIM, machine).expect("paper kernel builds");
            compile_cypress(machine, &reg, &mapping, "fa", &args)
        };
        let kernels = [
            cypress(attention::Algorithm::Fa2),
            cypress(attention::Algorithm::Fa3),
            triton::attention(HEADS, seq, HEAD_DIM, machine.sms),
            thunderkittens::attention(HEADS, seq, HEAD_DIM, machine.sms),
            fa3::attention(HEADS, seq, HEAD_DIM, machine.sms),
            cudnn::attention_with(HEADS, seq, HEAD_DIM, &sim),
        ];
        let fl = attention::flops(HEADS, seq, HEAD_DIM);
        rows.extend(series(
            FIG_14,
            &ATTENTION_SYSTEMS,
            &kernels,
            seq,
            fl,
            machine,
        ));
    }
    rows
}

/// Problem sizes of the graph-overlap figure: small GEMMs that occupy a
/// fraction of the device, where multi-stream overlap pays off (the
/// batched-tensor regime of Shi et al.).
pub const OVERLAP_SIZES: [usize; 3] = [256, 512, 1024];
/// Independent kernels per graph (and streams in the concurrent run).
pub const OVERLAP_WIDTH: usize = 8;
/// Row label of the serial graph-overlap series.
pub const OVERLAP_SERIAL_SYSTEM: &str = "Graph (serial)";

/// Row label of the concurrent graph-overlap series (derived from
/// [`OVERLAP_WIDTH`] so the label always matches the measurement).
#[must_use]
pub fn overlap_concurrent_system() -> String {
    format!("Graph ({OVERLAP_WIDTH} streams)")
}

/// A width-`width` fan-out graph of independent `size`-cubed GEMMs.
fn overlap_graph(width: usize, size: usize, machine: &MachineConfig) -> TaskGraph {
    let program = Program::from_parts(
        gemm::build(size, size, size, machine).expect("paper kernel builds"),
        "gemm",
    );
    let mut graph = TaskGraph::new();
    for i in 0..width {
        graph
            .add_node(
                &format!("gemm{i}"),
                program.clone(),
                vec![
                    Binding::Zeros,
                    Binding::External(format!("A{i}")),
                    Binding::External(format!("B{i}")),
                ],
            )
            .expect("independent nodes always insert");
    }
    graph
}

/// Graph overlap: `OVERLAP_WIDTH` independent GEMMs scheduled serially
/// vs concurrently on `OVERLAP_WIDTH` streams. The concurrent rows show
/// the makespan-level speedup multi-stream scheduling buys for small
/// kernels; at sizes that fill the device the two converge.
#[must_use]
pub fn fig_graph_overlap(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for size in OVERLAP_SIZES {
        let graph = overlap_graph(OVERLAP_WIDTH, size, machine);
        let fl = OVERLAP_WIDTH as f64 * gemm::flops(size, size, size);
        let mut session = Session::new(machine.clone());
        let serial = session.launch_timing(&graph).expect("graph times");
        let tflops = serial.tflops_for(fl);
        rows.push(Row::new(
            FIG_OVERLAP,
            OVERLAP_SERIAL_SYSTEM,
            size,
            tflops,
            Unit::Tflops,
        ));
        session = session.with_policy(SchedulePolicy::Concurrent {
            streams: OVERLAP_WIDTH,
        });
        let conc = session.launch_timing(&graph).expect("graph times");
        let (system, tflops) = (overlap_concurrent_system(), conc.tflops_for(fl));
        rows.push(Row::new(FIG_OVERLAP, system, size, tflops, Unit::Tflops));
    }
    rows
}

/// Device counts of the multi-GPU figure (powers of two behind
/// NVLink-class all-to-all links; 1 is the single-device control).
const MULTI_GPU_DEVICES: [usize; 3] = [1, 2, 4];

/// Problem sizes of the multi-GPU figure: the device-filling regime
/// where eight concurrent GEMMs oversubscribe one simulated H100, so
/// spreading them across devices shortens the makespan (below ~1024 the
/// fan-out fits on one device and every placement ties).
const MULTI_GPU_SIZES: [usize; 3] = [1024, 2048, 4096];

/// Row label of the sharded graph-overlap series at `devices` devices.
fn multi_gpu_system(devices: usize) -> String {
    let plural = if devices == 1 { "" } else { "s" };
    format!("Sharded ({devices} device{plural})")
}

/// Row label of the comm-vs-compute overlap series (fraction of link
/// transfer cycles hidden under concurrent compute, 2-device shard).
const MULTI_GPU_OVERLAP_SYSTEM: &str = "Comm overlap (2 devices)";

/// A two-layer graph forcing cross-device traffic under round-robin
/// root placement: `width` independent GEMM producers feed `width / 2`
/// consumers, each reading a producer pair `(2j, 2j + 1)` that lands on
/// different devices whenever the shard uses more than one. Producer
/// pairs deepen geometrically in K (`size / 2^(pairs - 1 - j)` up to
/// `size`), so early pairs retire while late pairs still compute and
/// their cross-device transfers have compute to hide under.
#[must_use]
fn multi_gpu_comm_graph(width: usize, size: usize, machine: &MachineConfig) -> TaskGraph {
    let join = Program::from_parts(
        gemm::build(size, size, size, machine).expect("paper kernel builds"),
        "gemm",
    );
    let pairs = width / 2;
    let mut graph = TaskGraph::new();
    let mut producers = Vec::new();
    for i in 0..width {
        let k = (size >> (pairs - 1 - i / 2)).max(64);
        let program = Program::from_parts(
            gemm::build(size, size, k, machine).expect("paper kernel builds"),
            "gemm",
        );
        producers.push(
            graph
                .add_node(
                    &format!("gemm{i}"),
                    program,
                    vec![
                        Binding::Zeros,
                        Binding::External(format!("A{i}")),
                        Binding::External(format!("B{i}")),
                    ],
                )
                .expect("independent nodes always insert"),
        );
    }
    for j in 0..pairs {
        graph
            .add_node(
                &format!("join{j}"),
                join.clone(),
                vec![
                    Binding::Zeros,
                    Binding::output(producers[2 * j], 0),
                    Binding::output(producers[2 * j + 1], 0),
                ],
            )
            .expect("consumer nodes always insert");
    }
    graph
}

/// Fraction of transfer-node cycles in `report` that overlap at least
/// one compute node's span (transfer nodes are the `xfer:`-prefixed
/// nodes the graph sharder inserts). `NaN` when the report has no
/// transfers.
#[must_use]
fn comm_overlap_ratio(report: &cypress_runtime::GraphReport) -> f64 {
    let is_xfer = |n: &cypress_runtime::NodeTiming| n.node.starts_with("xfer:");
    let mut total = 0.0;
    let mut hidden = 0.0;
    for xfer in report.nodes.iter().filter(|n| is_xfer(n)) {
        total += xfer.end - xfer.start;
        // Merge the compute intervals clipped to this transfer's span;
        // completion order is not start order, so sort before sweeping.
        let mut clips: Vec<(f64, f64)> = report
            .nodes
            .iter()
            .filter(|n| !is_xfer(n))
            .map(|n| (n.start.max(xfer.start), n.end.min(xfer.end)))
            .filter(|(s, e)| e > s)
            .collect();
        clips.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = xfer.start;
        for (s, e) in clips {
            let s = s.max(cursor);
            if e > s {
                hidden += e - s;
                cursor = e;
            }
        }
    }
    hidden / total
}

/// Multi-GPU figure: the 8-wide fan-out graph sharded across 1/2/4
/// simulated devices ([`PlacementPolicy::Sharded`], concurrent
/// streams), plus the fraction of cross-device transfer cycles the
/// 2-device schedule hides under compute on `multi_gpu_comm_graph`.
/// [`gates`] holds 2 devices to strictly beating 1 at every size and
/// the overlap ratio to a valid fraction.
#[must_use]
pub fn fig_multi_gpu(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for size in MULTI_GPU_SIZES {
        let graph = overlap_graph(OVERLAP_WIDTH, size, machine);
        let fl = OVERLAP_WIDTH as f64 * gemm::flops(size, size, size);
        for devices in MULTI_GPU_DEVICES {
            let mut session = Session::new(machine.clone())
                .with_placement_policy(PlacementPolicy::Sharded { devices })
                .with_policy(SchedulePolicy::Concurrent {
                    streams: OVERLAP_WIDTH,
                });
            let report = session.launch_timing(&graph).expect("graph times");
            let tflops = report.tflops_for(fl);
            let system = multi_gpu_system(devices);
            rows.push(Row::new(FIG_MULTI_GPU, system, size, tflops, Unit::Tflops));
        }
        let comm = multi_gpu_comm_graph(OVERLAP_WIDTH, size, machine);
        let mut session = Session::new(machine.clone())
            .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
            .with_policy(SchedulePolicy::Concurrent {
                streams: OVERLAP_WIDTH,
            });
        let report = session.launch_timing(&comm).expect("comm graph times");
        let hidden = comm_overlap_ratio(&report);
        rows.push(Row::new(
            FIG_MULTI_GPU,
            MULTI_GPU_OVERLAP_SYSTEM,
            size,
            hidden,
            Unit::Ratio,
        ));
    }
    rows
}

/// Problem sizes of the fusion figure: the launch-bound small/medium
/// regime where collapsing a producer→consumer pair into one fused
/// kernel pays (at device-filling sizes the simulator gate simply
/// leaves the graph unfused, so fused can never lose).
const FUSION_SIZES: [usize; 3] = [256, 512, 1024];

/// A two-node GEMM→GEMM chain: `C1 = A·W1`, `C = C1·W2`, the dead
/// intermediate making it a `dual_chain` fusion candidate.
#[must_use]
fn chained_gemm_graph(size: usize, machine: &MachineConfig) -> TaskGraph {
    let program = Program::from_parts(
        gemm::build(size, size, size, machine).expect("paper kernel builds"),
        "gemm",
    );
    let mut graph = TaskGraph::new();
    let up = graph
        .add_node(
            "up",
            program.clone(),
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("W1"),
            ],
        )
        .expect("chain graph builds");
    graph
        .add_node(
            "down",
            program,
            vec![
                Binding::Zeros,
                Binding::output(up, 0),
                Binding::external("W2"),
            ],
        )
        .expect("chain graph builds");
    graph
}

/// A GEMM and a standalone row-reduction over the same input — the
/// Fig. 13d dataflow as two primitive nodes, a `gemm_reduction` fusion
/// candidate.
#[must_use]
fn gemm_reduction_pair_graph(size: usize, machine: &MachineConfig) -> TaskGraph {
    let mut graph = TaskGraph::new();
    graph
        .add_node(
            "proj",
            Program::from_parts(
                gemm::build(size, size, size, machine).expect("paper kernel builds"),
                "gemm",
            ),
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("W"),
            ],
        )
        .expect("pair graph builds");
    graph
        .add_node(
            "stat",
            Program::from_parts(
                reduction::build(size, size, machine).expect("reduction builds"),
                "reduce",
            ),
            vec![Binding::Zeros, Binding::external("A")],
        )
        .expect("pair graph builds");
    graph
}

/// The fused workloads of the fusion figure.
const FUSION_WORKLOADS: [&str; 2] = ["Chained GEMM", "GEMM+Reduction pair"];

/// Row label of `workload`'s unfused or fused series.
fn fusion_system(workload: &str, fused: bool) -> String {
    format!("{workload} ({})", if fused { "fused" } else { "unfused" })
}

/// The fusion figure: each candidate graph launched with
/// `FusionPolicy::Off` vs `FusionPolicy::Auto` (serial schedule). The
/// fused series can never lose — the session's simulator gate applies a
/// rewrite only when the fused kernel beats the launches it replaces —
/// and [`gates`] holds it to that.
#[must_use]
pub fn fig_fusion(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for size in FUSION_SIZES {
        let workloads = [
            (
                chained_gemm_graph(size, machine),
                chain::flops(size, size, size, size),
            ),
            (
                gemm_reduction_pair_graph(size, machine),
                gemm::flops(size, size, size) + reduction::flops(size, size),
            ),
        ];
        for (name, (graph, fl)) in FUSION_WORKLOADS.into_iter().zip(workloads) {
            for fused in [false, true] {
                let policy = if fused {
                    FusionPolicy::Auto
                } else {
                    FusionPolicy::Off
                };
                let mut session = Session::new(machine.clone()).with_fusion_policy(policy);
                let tflops = session
                    .launch_timing(&graph)
                    .expect("graph times")
                    .tflops_for(fl);
                let system = fusion_system(name, fused);
                rows.push(Row::new(FIG_FUSION, system, size, tflops, Unit::Tflops));
            }
        }
    }
    rows
}

/// Problem sizes of the autotune figure: a small size where the
/// hand-tuned H100 tiles underfill the device (the regime the tuner
/// wins — e.g. GEMM picks 64-column tiles for 4x the CTAs), and the
/// paper's evaluation size where the hand-tuned mappings are already
/// optimal in the space (the tuner must tie, never lose). Attention
/// runs `seq = size` at [`HEADS`]×[`HEAD_DIM`].
const AUTOTUNE_SIZES: [usize; 2] = [512, 4096];

/// The five paper kernels' mapping spaces with their `fig_autotune`
/// shapes at `size` (batched GEMM at L=4, attention FA3 at
/// [`HEADS`]/[`HEAD_DIM`]).
fn autotune_entries(size: usize) -> Vec<(&'static str, Arc<dyn MappingSpace>, Shape, f64)> {
    vec![
        (
            "gemm",
            Arc::new(gemm::GemmSpace) as Arc<dyn MappingSpace>,
            Shape::of(&[size, size, size]),
            gemm::flops(size, size, size),
        ),
        (
            "batched_gemm",
            Arc::new(batched::BatchedGemmSpace),
            Shape::of(&[4, size, size, size]),
            batched::flops(4, size, size, size),
        ),
        (
            "dual_gemm",
            Arc::new(dual_gemm::DualGemmSpace),
            Shape::of(&[size, size, size]),
            dual_gemm::flops(size, size, size),
        ),
        (
            "gemm_reduction",
            Arc::new(gemm_reduction::GemmReductionSpace),
            Shape::of(&[size, size, size]),
            gemm_reduction::flops(size, size, size),
        ),
        (
            "attention_fa3",
            Arc::new(attention::AttentionSpace {
                algorithm: attention::Algorithm::Fa3,
            }),
            Shape::of(&[HEADS, size, HEAD_DIM]),
            attention::flops(HEADS, size, HEAD_DIM),
        ),
    ]
}

/// Suffix of the hand-tuned series in [`fig_autotune`] rows.
const AUTOTUNE_HAND_SYSTEM: &str = "hand-tuned";
/// Suffix of the autotuned (exhaustive-sweep) series.
const AUTOTUNE_TUNED_SYSTEM: &str = "autotuned";
/// Suffix of the cost-model-guided series
/// (`TunerBudget::TopK(candidates / 2)` on a cold table).
const AUTOTUNE_GUIDED_SYSTEM: &str = "guided";
/// Suffix of the guided sweep's timed-candidate-count series.
const AUTOTUNE_TIMED_GUIDED_SYSTEM: &str = "candidates timed (guided)";
/// Suffix of the exhaustive sweep's timed-candidate-count series.
const AUTOTUNE_TIMED_EXHAUSTIVE_SYSTEM: &str = "candidates timed (exhaustive)";
/// The five series of every autotune kernel, in row order.
const AUTOTUNE_SERIES: [(&str, Unit); 5] = [
    (AUTOTUNE_HAND_SYSTEM, Unit::Tflops),
    (AUTOTUNE_TUNED_SYSTEM, Unit::Tflops),
    (AUTOTUNE_GUIDED_SYSTEM, Unit::Tflops),
    (AUTOTUNE_TIMED_GUIDED_SYSTEM, Unit::Count),
    (AUTOTUNE_TIMED_EXHAUSTIVE_SYSTEM, Unit::Count),
];

/// The autotune figure: for each paper kernel at each
/// `AUTOTUNE_SIZES` shape, the hand-tuned H100 mapping's throughput,
/// the mapping the exhaustive simulator-driven tuner picked from the
/// kernel's `MappingSpace`, the winner of a cost-model-guided sweep
/// that times only the predicted top half ([`TunerBudget::TopK`]), and
/// the number of candidates each sweep actually simulated. The tuned
/// row can never lose — the hand-tuned mapping is one of the
/// candidates — and [`gates`] holds the figure to `tuned >= hand`,
/// `guided >= 0.95 x tuned`, and `timed(guided) < timed(exhaustive)`.
#[must_use]
pub fn fig_autotune(machine: &MachineConfig) -> Vec<Row> {
    let mut session = Session::new(machine.clone());
    let mut rows = Vec::new();
    for size in AUTOTUNE_SIZES {
        for (name, space, shape, fl) in autotune_entries(size) {
            let program = Program::from_space(space, shape, machine)
                .expect("paper kernels build at the hand-tuned default");
            let before = session.metrics().tuner.candidates_timed;
            let tuned = session.autotune(&program).expect("paper kernels autotune");
            let exhaustive_timed = session.metrics().tuner.candidates_timed - before;

            // The guided sweep runs cold (fresh session, empty table)
            // under a half-size budget, so the comparison is cold sweep
            // vs cold sweep.
            let mut guided_session = Session::new(machine.clone());
            let top_k = (tuned.candidates / 2).max(1);
            let guided = guided_session
                .autotune_with(&program, TunerBudget::TopK(top_k))
                .expect("paper kernels autotune under a guided budget");
            let guided_timed = guided_session.metrics().tuner.candidates_timed;

            let tflops_at = |cycles: f64| {
                let seconds = machine.cycles_to_seconds(cycles);
                fl / seconds / 1e12
            };
            let values = [
                tflops_at(tuned.default_cycles),
                tflops_at(tuned.tuned_cycles),
                tflops_at(guided.tuned_cycles),
                guided_timed as f64,
                exhaustive_timed as f64,
            ];
            for ((series, unit), value) in AUTOTUNE_SERIES.into_iter().zip(values) {
                let system = format!("{name} {series}");
                rows.push(Row::new(FIG_AUTOTUNE, system, size, value, unit));
            }
        }
    }
    rows
}

/// Problem size of the fault-tolerance figure (the device-filling
/// regime of [`MULTI_GPU_SIZES`], where losing a device actually
/// costs).
const FAULT_SIZE: usize = 1024;
/// Device counts of the fault-tolerance figure (1 is the
/// single-device retry control; the loss rows need survivors, so they
/// run at 2 and 4 only).
const FAULT_DEVICES: [usize; 3] = [1, 2, 4];
/// Transient-fault counts per retry row (0 is the zero-fault control —
/// gated to cost *exactly* nothing).
const FAULT_TRANSIENTS: [usize; 3] = [0, 1, 2];

/// Row label of the transient-retry series at `devices` devices with
/// `transients` injected faults.
fn fault_retry_system(devices: usize, transients: usize) -> String {
    let dev = if devices == 1 { "device" } else { "devices" };
    let tr = if transients == 1 {
        "transient"
    } else {
        "transients"
    };
    format!("Retry ({devices} {dev}, {transients} {tr})")
}

/// Row label of the device-loss recovery series at `devices` devices.
fn fault_loss_system(devices: usize) -> String {
    format!("Device loss ({devices} devices)")
}

/// The fault-tolerance figure: recovery overhead of the 8-wide fan-out
/// graph under [`cypress_runtime::FaultPolicy::Retry`]. Row values are
/// the **makespan ratio** of the faulted run over the fault-free run
/// (1.0 = free recovery; higher = overhead), not a throughput. Three
/// regimes per device count: a zero-fault control (gated to exactly
/// 1.0 — the fault machinery is bit-free when nothing fires), 1–2
/// transient kernel faults retried in place, and — at 2 and 4 devices
/// — a permanent device loss at half the clean makespan, recovered by
/// degraded re-sharding onto the survivors. [`gates`] bounds every
/// ratio.
#[must_use]
pub fn fig_fault_tolerance(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    let size = FAULT_SIZE;
    let graph = overlap_graph(OVERLAP_WIDTH, size, machine);
    for devices in FAULT_DEVICES {
        let mut session = Session::new(machine.clone())
            .with_placement_policy(PlacementPolicy::Sharded { devices })
            .with_policy(SchedulePolicy::Concurrent {
                streams: OVERLAP_WIDTH,
            });
        let clean = session.launch_timing(&graph).expect("graph times").makespan;
        session = session.with_fault_policy(FaultPolicy::Retry {
            max_attempts: 3,
            backoff: 0.0,
        });
        for transients in FAULT_TRANSIENTS {
            let mut plan = FaultPlan::new();
            for launch in 0..transients {
                plan = plan.with_transient(0, launch as u64);
            }
            session = session.with_fault_plan(plan);
            let faulted = session
                .launch_timing(&graph)
                .expect("transient faults recover under Retry")
                .makespan;
            let system = fault_retry_system(devices, transients);
            rows.push(Row::new(
                FIG_FAULT,
                system,
                size,
                faulted / clean,
                Unit::Ratio,
            ));
        }
        if devices > 1 {
            session = session
                .with_fault_plan(FaultPlan::new().with_device_loss(devices - 1, clean * 0.5));
            let faulted = session
                .launch_timing(&graph)
                .expect("device loss recovers by re-sharding onto survivors")
                .makespan;
            let system = fault_loss_system(devices);
            rows.push(Row::new(
                FIG_FAULT,
                system,
                size,
                faulted / clean,
                Unit::Ratio,
            ));
        }
    }
    rows
}

/// The value of the `(system, size)` row among `rows` (one figure's) —
/// the one lookup behind [`ratio`], [`Gate::check`] and the `figures`
/// tables.
pub fn value<'a>(
    rows: impl IntoIterator<Item = &'a Row>,
    system: &str,
    size: usize,
) -> Option<f64> {
    rows.into_iter()
        .find(|r| r.system == system && r.size == size)
        .map(|r| r.value)
}

/// The measured ratio of `a` over `b` at `size` among one figure's
/// `rows` (`NaN` when either is absent).
#[must_use]
pub fn ratio(rows: &[Row], a: &str, b: &str, size: usize) -> f64 {
    let get = |system| value(rows, system, size).unwrap_or(f64::NAN);
    get(a) / get(b)
}

/// The `(figure, system, size)` key of every row `BENCH_figures.json`
/// must hold exactly once, expanded from the constants and label
/// functions the builders iterate.
#[must_use]
pub fn expected_rows() -> Vec<(&'static str, String, usize)> {
    let mut keys = Vec::new();
    let mut grid = |figure, sizes: &[usize], systems: &[String]| {
        for &size in sizes {
            keys.extend(systems.iter().map(|system| (figure, system.clone(), size)));
        }
    };
    let owned = |systems: &[&str]| systems.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    grid(FIG_13A, &GEMM_SIZES, &owned(&GEMM_SYSTEMS));
    grid(FIG_13B, &GEMM_SIZES, &owned(&GEMM_SYSTEMS));
    grid(FIG_13C, &GEMM_SIZES, &owned(&GEMM_SYSTEMS[..2]));
    grid(FIG_13D, &GEMM_SIZES, &owned(&GEMM_SYSTEMS[..2]));
    grid(FIG_14, &SEQ_LENS, &owned(&ATTENTION_SYSTEMS));
    let overlap = [OVERLAP_SERIAL_SYSTEM.into(), overlap_concurrent_system()];
    grid(FIG_OVERLAP, &OVERLAP_SIZES, &overlap);
    let mut sharded = MULTI_GPU_DEVICES.map(multi_gpu_system).to_vec();
    sharded.push(MULTI_GPU_OVERLAP_SYSTEM.into());
    grid(FIG_MULTI_GPU, &MULTI_GPU_SIZES, &sharded);
    let fusion: Vec<String> = FUSION_WORKLOADS
        .iter()
        .flat_map(|w| [fusion_system(w, false), fusion_system(w, true)])
        .collect();
    grid(FIG_FUSION, &FUSION_SIZES, &fusion);
    for size in AUTOTUNE_SIZES {
        let tuned: Vec<String> = autotune_entries(size)
            .iter()
            .flat_map(|(name, ..)| AUTOTUNE_SERIES.map(|(series, _)| format!("{name} {series}")))
            .collect();
        grid(FIG_AUTOTUNE, &[size], &tuned);
    }
    let mut fault = Vec::new();
    for devices in FAULT_DEVICES {
        fault.extend(FAULT_TRANSIENTS.map(|t| fault_retry_system(devices, t)));
        if devices > 1 {
            fault.push(fault_loss_system(devices));
        }
    }
    grid(FIG_FAULT, &[FAULT_SIZE], &fault);
    keys
}

/// How a [`Gate`] compares its row to its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`, bit for bit
    Eq,
}

/// One gated relation of `BENCH_figures.json`: the row
/// `(figure, system, size)` stands in `rel` to the bound `factor`, or
/// `factor` x the row `of` when there is one.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Figure id of the gated row (and of `of`).
    pub figure: &'static str,
    /// System of the gated row.
    pub system: String,
    /// Size of the gated row (and of `of`).
    pub size: usize,
    /// The comparison.
    pub rel: Rel,
    /// The bound, or the multiple of `of` that is the bound.
    pub factor: f64,
    /// System of the row the bound is a multiple of.
    pub of: Option<String>,
    /// What a failure means.
    pub why: &'static str,
}

impl Gate {
    /// Evaluate the gate on `rows` (any set holding its figure's) and
    /// render it with the values it compared.
    ///
    /// # Errors
    ///
    /// Names a missing row, or renders the failed gate with its `why`.
    pub fn check(&self, rows: &[Row]) -> Result<String, String> {
        let (figure, size, factor) = (self.figure, self.size, self.factor);
        let get = |system: &str| {
            value(rows.iter().filter(|r| r.figure == figure), system, size)
                .ok_or_else(|| format!("{figure}: missing series `{system}` at size {size}"))
        };
        let (system, lhs) = (&self.system, get(&self.system)?);
        let bound = factor * self.of.as_deref().map_or(Ok(1.0), get)?;
        let (holds, symbol) = match self.rel {
            Rel::Ge => (lhs >= bound, ">="),
            Rel::Gt => (lhs > bound, ">"),
            Rel::Lt => (lhs < bound, "<"),
            Rel::Le => (lhs <= bound, "<="),
            Rel::Eq => (lhs == bound, "=="),
        };
        let multiple = |of| format!(" = {factor} x `{of}`");
        let of = self.of.as_ref().map_or(String::new(), multiple);
        let gate =
            format!("{figure}: `{system}` @ {size} is {lhs:.3}, gate: {symbol} {bound:.3}{of}");
        if holds {
            Ok(gate)
        } else {
            Err(format!("{gate} — {}", self.why))
        }
    }
}

/// Ceiling on every fault-tolerance recovery ratio: retrying a couple
/// of transients or losing one of the devices halfway may cost up to —
/// but never reach — this factor of the clean makespan.
const FAULT_OVERHEAD_CEILING: f64 = 4.0;

/// Every relation CI holds `BENCH_figures.json` to, beyond each
/// [`expected_rows`] value being finite and positive.
#[must_use]
pub fn gates() -> Vec<Gate> {
    let mut gates = Vec::new();
    for size in AUTOTUNE_SIZES {
        for (name, ..) in autotune_entries(size) {
            let series = |suffix| format!("{name} {suffix}");
            gates.push(Gate {
                figure: FIG_AUTOTUNE,
                system: series(AUTOTUNE_TUNED_SYSTEM),
                size,
                rel: Rel::Ge,
                factor: 1.0,
                of: Some(series(AUTOTUNE_HAND_SYSTEM)),
                why: "tuned_speedup >= 1: the hand-tuned mapping is one of the tuner's candidates",
            });
            gates.push(Gate {
                figure: FIG_AUTOTUNE,
                system: series(AUTOTUNE_GUIDED_SYSTEM),
                size,
                rel: Rel::Ge,
                factor: 0.95,
                of: Some(series(AUTOTUNE_TUNED_SYSTEM)),
                why: "guided_quality >= 0.95: the cost model's top half must hold a near-best one",
            });
            gates.push(Gate {
                figure: FIG_AUTOTUNE,
                system: series(AUTOTUNE_TIMED_GUIDED_SYSTEM),
                size,
                rel: Rel::Lt,
                factor: 1.0,
                of: Some(series(AUTOTUNE_TIMED_EXHAUSTIVE_SYSTEM)),
                why: "the guided sweep must simulate strictly fewer candidates",
            });
        }
    }
    for size in MULTI_GPU_SIZES {
        gates.push(Gate {
            figure: FIG_MULTI_GPU,
            system: multi_gpu_system(2),
            size,
            rel: Rel::Gt,
            factor: 1.0,
            of: Some(multi_gpu_system(1)),
            why: "strictly greater: two devices must shorten the independent fan-out's makespan",
        });
        gates.push(Gate {
            figure: FIG_MULTI_GPU,
            system: MULTI_GPU_OVERLAP_SYSTEM.into(),
            size,
            rel: Rel::Le,
            factor: 1.0,
            of: None,
            why: "the hidden fraction of transfer cycles cannot exceed 1",
        });
    }
    for size in FUSION_SIZES {
        for workload in FUSION_WORKLOADS {
            gates.push(Gate {
                figure: FIG_FUSION,
                system: fusion_system(workload, true),
                size,
                rel: Rel::Ge,
                factor: 1.0,
                of: Some(fusion_system(workload, false)),
                why: "lost under fusion: the simulator gate must leave losing rewrites unfused",
            });
        }
    }
    let mut fault = |system, rel, factor, why| {
        gates.push(Gate {
            figure: FIG_FAULT,
            system,
            size: FAULT_SIZE,
            rel,
            factor,
            of: None,
            why,
        });
    };
    for devices in FAULT_DEVICES {
        for transients in FAULT_TRANSIENTS {
            let retry = || fault_retry_system(devices, transients);
            if transients == 0 {
                let why = "exactly 1.0: a silent fault plan must not move the schedule by one bit";
                fault(retry(), Rel::Eq, 1.0, why);
            } else {
                fault(
                    retry(),
                    Rel::Gt,
                    1.0,
                    "a retried transient must cost something",
                );
                let why = "recovery from a transient must stay under the overhead ceiling";
                fault(retry(), Rel::Le, FAULT_OVERHEAD_CEILING, why);
            }
        }
        if devices > 1 {
            let loss = || fault_loss_system(devices);
            fault(
                loss(),
                Rel::Ge,
                1.0,
                "losing a device cannot shorten the run",
            );
            let why = "re-sharding onto survivors must stay under the overhead ceiling";
            fault(loss(), Rel::Lt, FAULT_OVERHEAD_CEILING, why);
        }
    }
    gates
}

/// The contents of `BENCH_figures.json`: one [`Row`] per line, written
/// by `figures`, read back by `check_figures`.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureFile {
    /// Name of the simulated machine.
    pub machine: String,
    /// Its FP16 peak.
    pub peak_tflops: f64,
    /// Every figure's rows, in figure order.
    pub rows: Vec<Row>,
}

impl FigureFile {
    /// Render the file. The `"tflops"` key holds every row's value
    /// whatever its `"unit"` (the key predates the unit).
    ///
    /// # Errors
    ///
    /// Names the first row whose value is not finite: `NaN` and
    /// infinity are not JSON, so they never reach the file.
    pub fn to_json(&self) -> Result<String, String> {
        let mut lines = Vec::new();
        for r in &self.rows {
            if !r.value.is_finite() {
                return Err(format!("{r} is {}, which JSON cannot hold", r.value));
            }
            lines.push(format!(
                "    {{\"figure\": {}, \"system\": {}, \"size\": {}, \"tflops\": {:.3}, \"unit\": {}}}",
                json_str(&r.figure),
                json_str(&r.system),
                r.size,
                r.value,
                json_str(r.unit.label())
            ));
        }
        Ok(format!(
            "{{\n  \"machine\": {},\n  \"peak_tflops\": {:.1},\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_str(&self.machine),
            self.peak_tflops,
            lines.join(",\n")
        ))
    }

    /// Read a file [`FigureFile::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// A syntax error gives its line number and quotes the line (one
    /// row per line); a missing or mistyped key names the row's index.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonParser::parse(text).map_err(|e| {
            let before = &text.as_bytes()[..e.offset.min(text.len())];
            let line = before.iter().filter(|&&b| b == b'\n').count();
            let quoted = text.lines().nth(line).unwrap_or("").trim();
            format!("line {}: {e}: `{quoted}`", line + 1)
        })?;
        let rows = doc.get("rows").and_then(JsonValue::as_array);
        let row = |row: &JsonValue| {
            let unit = string(row, "unit")?;
            Ok(Row {
                figure: string(row, "figure")?.into(),
                system: string(row, "system")?.into(),
                size: number(row, "size")? as usize,
                value: number(row, "tflops")?,
                unit: Unit::ALL
                    .into_iter()
                    .find(|u| u.label() == unit)
                    .ok_or(format!("unknown unit `{unit}`"))?,
            })
        };
        Ok(FigureFile {
            machine: string(&doc, "machine")?.into(),
            peak_tflops: number(&doc, "peak_tflops")?,
            rows: (rows.ok_or("no array \"rows\"")?.iter().enumerate())
                .map(|(i, r)| row(r).map_err(|e: String| format!("row {i}: {e}")))
                .collect::<Result<_, _>>()?,
        })
    }
}

fn string<'a>(object: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    let field = object.get(key).and_then(JsonValue::as_str);
    field.ok_or(format!("no string \"{key}\""))
}

fn number(object: &JsonValue, key: &str) -> Result<f64, String> {
    let field = object.get(key).and_then(JsonValue::as_f64);
    field.ok_or(format!("no number \"{key}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_json_round_trips() {
        let file = FigureFile {
            machine: "H100 \"SXM5\"".into(),
            peak_tflops: 989.4,
            rows: vec![
                Row::new(
                    "f",
                    "Retry (2 devices, 0 transients)",
                    1024,
                    1.0,
                    Unit::Ratio,
                ),
                Row::new(
                    "f",
                    "quote \" backslash \\ comma ,",
                    1,
                    784.2304,
                    Unit::Tflops,
                ),
                Row::new("g", "candidates timed (guided)", 512, 6.0, Unit::Count),
            ],
        };
        let json = file.to_json().unwrap();
        let parsed = FigureFile::parse(&json).unwrap();
        assert_eq!(parsed.rows[1].system, file.rows[1].system);
        assert_eq!(parsed.to_json().unwrap(), json);
    }

    #[test]
    fn non_finite_value_is_refused_naming_the_row() {
        let mut file = FigureFile {
            machine: "m".into(),
            peak_tflops: 1.0,
            rows: vec![Row::new(
                "fig",
                "Comm overlap (2 devices)",
                1024,
                f64::NAN,
                Unit::Ratio,
            )],
        };
        let err = file.to_json().unwrap_err();
        assert!(
            err.contains("fig: `Comm overlap (2 devices)` @ 1024 is NaN"),
            "{err}"
        );
        file.rows[0].value = f64::INFINITY;
        assert!(file.to_json().is_err());
    }
}
