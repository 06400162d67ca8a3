//! Benchmark harness regenerating every table and figure of the Cypress
//! evaluation (paper §5). Each `figNN` function returns the series the
//! paper plots; the `figures` binary prints them side by side with the
//! paper's reported ratios.

use cypress_baselines::{cublas, cudnn, fa3, thunderkittens, triton};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::space::{MappingSpace, Shape};
use cypress_core::kernels::{
    attention, batched, chain, dual_gemm, gemm, gemm_reduction, reduction,
};
use cypress_runtime::{
    Binding, FaultPlan, FaultPolicy, FusionPolicy, PlacementPolicy, Program, SchedulePolicy,
    Session, TaskGraph, TunerBudget,
};
use cypress_sim::{Kernel, MachineConfig, Simulator};
use std::sync::Arc;

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name (Cypress, Triton, cuBLAS, ...).
    pub system: String,
    /// Problem size label (M=N=K or sequence length).
    pub size: usize,
    /// Measured throughput.
    pub tflops: f64,
}

/// Simulate `kernel` and convert to TFLOP/s for `flops`.
fn measure(machine: &MachineConfig, kernel: &Kernel, flops: f64) -> f64 {
    let sim = Simulator::new(machine.clone());
    let report = sim.run_timing(kernel).expect("kernel must simulate");
    report.tflops_for(flops)
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

/// The evaluation sizes of Fig. 13.
pub const GEMM_SIZES: [usize; 3] = [4096, 6144, 8192];
/// The evaluation sequence lengths of Fig. 14.
pub const SEQ_LENS: [usize; 4] = [2048, 4096, 8192, 16384];
/// Heads used for Fig. 14 (batch x heads at head dim 128).
pub const HEADS: usize = 16;
/// Head dimension of Fig. 14.
pub const HEAD_DIM: usize = 128;

/// Fig. 13a: GEMM — Cypress vs Triton vs cuBLAS.
#[must_use]
pub fn fig13a(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    let sim = Simulator::new(machine.clone());
    for size in GEMM_SIZES {
        let fl = gemm::flops(size, size, size);
        let (reg, mapping, args) =
            gemm::build(size, size, size, machine).expect("paper kernel builds");
        let cy = compile_cypress(machine, &reg, &mapping, "gemm", &args);
        rows.push(Row {
            system: "Cypress".into(),
            size,
            tflops: measure(machine, &cy, fl),
        });
        let tr = triton::gemm(size, size, size);
        rows.push(Row {
            system: "Triton".into(),
            size,
            tflops: measure(machine, &tr, fl),
        });
        let cb = cublas::gemm_with(size, size, size, &sim);
        rows.push(Row {
            system: "cuBLAS".into(),
            size,
            tflops: measure(machine, &cb, fl),
        });
    }
    rows
}

/// Fig. 13b: Batched-GEMM (L = 4).
#[must_use]
pub fn fig13b(machine: &MachineConfig) -> Vec<Row> {
    let l = 4;
    let mut rows = Vec::new();
    for size in GEMM_SIZES {
        let fl = batched::flops(l, size, size, size);
        let (reg, mapping, args) =
            batched::build(l, size, size, size, machine).expect("paper kernel builds");
        let cy = compile_cypress(machine, &reg, &mapping, "bgemm", &args);
        rows.push(Row {
            system: "Cypress".into(),
            size,
            tflops: measure(machine, &cy, fl),
        });
        let tr = triton::batched_gemm(l, size, size, size);
        rows.push(Row {
            system: "Triton".into(),
            size,
            tflops: measure(machine, &tr, fl),
        });
        let cb = cublas::batched_gemm(l, size, size, size);
        rows.push(Row {
            system: "cuBLAS".into(),
            size,
            tflops: measure(machine, &cb, fl),
        });
    }
    rows
}

/// Fig. 13c: Dual-GEMM — Cypress vs Triton.
#[must_use]
pub fn fig13c(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for size in GEMM_SIZES {
        let fl = dual_gemm::flops(size, size, size);
        let (reg, mapping, args) =
            dual_gemm::build(size, size, size, machine).expect("paper kernel builds");
        let cy = compile_cypress(machine, &reg, &mapping, "dual", &args);
        rows.push(Row {
            system: "Cypress".into(),
            size,
            tflops: measure(machine, &cy, fl),
        });
        let tr = triton::dual_gemm(size, size, size);
        rows.push(Row {
            system: "Triton".into(),
            size,
            tflops: measure(machine, &tr, fl),
        });
    }
    rows
}

/// Fig. 13d: GEMM+Reduction — Cypress vs Triton.
#[must_use]
pub fn fig13d(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for size in GEMM_SIZES {
        let fl = gemm_reduction::flops(size, size, size);
        let (reg, mapping, args) =
            gemm_reduction::build(size, size, size, machine).expect("paper kernel builds");
        let cy = compile_cypress(machine, &reg, &mapping, "gr", &args);
        rows.push(Row {
            system: "Cypress".into(),
            size,
            tflops: measure(machine, &cy, fl),
        });
        let tr = triton::gemm_reduction(size, size, size);
        rows.push(Row {
            system: "Triton".into(),
            size,
            tflops: measure(machine, &tr, fl),
        });
    }
    rows
}

/// Fig. 14: FlashAttention (FP16, head dim 128).
#[must_use]
pub fn fig14(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    let sim = Simulator::new(machine.clone());
    for seq in SEQ_LENS {
        let fl = attention::flops(HEADS, seq, HEAD_DIM);
        for (name, alg) in [
            ("Cypress (FA2)", attention::Algorithm::Fa2),
            ("Cypress (FA3)", attention::Algorithm::Fa3),
        ] {
            let (reg, mapping, args) =
                attention::build(alg, HEADS, seq, HEAD_DIM, machine).expect("paper kernel builds");
            let k = compile_cypress(machine, &reg, &mapping, "fa", &args);
            rows.push(Row {
                system: name.into(),
                size: seq,
                tflops: measure(machine, &k, fl),
            });
        }
        let tr = triton::attention(HEADS, seq, HEAD_DIM, machine.sms);
        rows.push(Row {
            system: "Triton (FA2)".into(),
            size: seq,
            tflops: measure(machine, &tr, fl),
        });
        let tk = thunderkittens::attention(HEADS, seq, HEAD_DIM, machine.sms);
        rows.push(Row {
            system: "ThunderKittens (FA2)".into(),
            size: seq,
            tflops: measure(machine, &tk, fl),
        });
        let f3 = fa3::attention(HEADS, seq, HEAD_DIM, machine.sms);
        rows.push(Row {
            system: "Flash Attention 3".into(),
            size: seq,
            tflops: measure(machine, &f3, fl),
        });
        let cd = cudnn::attention_with(HEADS, seq, HEAD_DIM, &sim);
        rows.push(Row {
            system: "cuDNN".into(),
            size: seq,
            tflops: measure(machine, &cd, fl),
        });
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
#[must_use]
pub fn overlap_graph(width: usize, size: usize, machine: &MachineConfig) -> TaskGraph {
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
        rows.push(Row {
            system: OVERLAP_SERIAL_SYSTEM.into(),
            size,
            tflops: serial.tflops_for(fl),
        });
        session.set_policy(SchedulePolicy::Concurrent {
            streams: OVERLAP_WIDTH,
        });
        let conc = session.launch_timing(&graph).expect("graph times");
        rows.push(Row {
            system: overlap_concurrent_system(),
            size,
            tflops: conc.tflops_for(fl),
        });
    }
    rows
}

/// Device counts of the multi-GPU figure (powers of two behind
/// NVLink-class all-to-all links; 1 is the single-device control).
pub const MULTI_GPU_DEVICES: [usize; 3] = [1, 2, 4];

/// Problem sizes of the multi-GPU figure: the device-filling regime
/// where eight concurrent GEMMs oversubscribe one simulated H100, so
/// spreading them across devices shortens the makespan (below ~1024 the
/// fan-out fits on one device and every placement ties).
pub const MULTI_GPU_SIZES: [usize; 3] = [1024, 2048, 4096];

/// Row label of the sharded graph-overlap series at `devices` devices.
#[must_use]
pub fn multi_gpu_system(devices: usize) -> String {
    let plural = if devices == 1 { "" } else { "s" };
    format!("Sharded ({devices} device{plural})")
}

/// Row label of the comm-vs-compute overlap series (fraction of link
/// transfer cycles hidden under concurrent compute, 2-device shard).
pub const MULTI_GPU_OVERLAP_SYSTEM: &str = "Comm overlap (2 devices)";

/// A two-layer graph forcing cross-device traffic under round-robin
/// root placement: `width` independent GEMM producers feed `width / 2`
/// consumers, each reading a producer pair `(2j, 2j + 1)` that lands on
/// different devices whenever the shard uses more than one. Producer
/// pairs deepen geometrically in K (`size / 2^(pairs - 1 - j)` up to
/// `size`), so early pairs retire while late pairs still compute and
/// their cross-device transfers have compute to hide under.
#[must_use]
pub fn multi_gpu_comm_graph(width: usize, size: usize, machine: &MachineConfig) -> TaskGraph {
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
pub fn comm_overlap_ratio(report: &cypress_runtime::GraphReport) -> f64 {
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
/// 2-device schedule hides under compute on [`multi_gpu_comm_graph`].
/// `check_figures` gates 2 devices strictly beating 1 at every size and
/// the overlap ratio staying a valid fraction.
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
            rows.push(Row {
                system: multi_gpu_system(devices),
                size,
                tflops: report.tflops_for(fl),
            });
        }
        let comm = multi_gpu_comm_graph(OVERLAP_WIDTH, size, machine);
        let mut session = Session::new(machine.clone())
            .with_placement_policy(PlacementPolicy::Sharded { devices: 2 })
            .with_policy(SchedulePolicy::Concurrent {
                streams: OVERLAP_WIDTH,
            });
        let report = session.launch_timing(&comm).expect("comm graph times");
        rows.push(Row {
            system: MULTI_GPU_OVERLAP_SYSTEM.into(),
            size,
            tflops: comm_overlap_ratio(&report),
        });
    }
    rows
}

/// Problem sizes of the fusion figure: the launch-bound small/medium
/// regime where collapsing a producer→consumer pair into one fused
/// kernel pays (at device-filling sizes the simulator gate simply
/// leaves the graph unfused, so fused can never lose).
pub const FUSION_SIZES: [usize; 3] = [256, 512, 1024];

/// A two-node GEMM→GEMM chain: `C1 = A·W1`, `C = C1·W2`, the dead
/// intermediate making it a `dual_chain` fusion candidate.
#[must_use]
pub fn chained_gemm_graph(size: usize, machine: &MachineConfig) -> TaskGraph {
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
pub fn gemm_reduction_pair_graph(size: usize, machine: &MachineConfig) -> TaskGraph {
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

/// The fusion figure: each candidate graph launched with
/// `FusionPolicy::Off` vs `FusionPolicy::Auto` (serial schedule). The
/// fused series can never lose — the session's simulator gate applies a
/// rewrite only when the fused kernel beats the launches it replaces —
/// and `check_figures` gates that in CI.
#[must_use]
pub fn fig_fusion(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for size in FUSION_SIZES {
        let workloads: [(&str, TaskGraph, f64); 2] = [
            (
                "Chained GEMM",
                chained_gemm_graph(size, machine),
                chain::flops(size, size, size, size),
            ),
            (
                "GEMM+Reduction pair",
                gemm_reduction_pair_graph(size, machine),
                gemm::flops(size, size, size) + reduction::flops(size, size),
            ),
        ];
        for (name, graph, fl) in workloads {
            let mut off = Session::new(machine.clone());
            let unfused = off.launch_timing(&graph).expect("graph times");
            rows.push(Row {
                system: format!("{name} (unfused)"),
                size,
                tflops: unfused.tflops_for(fl),
            });
            let mut auto = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
            let fused = auto.launch_timing(&graph).expect("graph times");
            rows.push(Row {
                system: format!("{name} (fused)"),
                size,
                tflops: fused.tflops_for(fl),
            });
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
pub const AUTOTUNE_SIZES: [usize; 2] = [512, 4096];

/// The five paper kernels' mapping spaces with their `fig_autotune`
/// shapes at `size` (batched GEMM at L=4, attention FA3 at
/// [`HEADS`]/[`HEAD_DIM`]).
#[must_use]
pub fn autotune_entries(size: usize) -> Vec<(&'static str, Arc<dyn MappingSpace>, Shape, f64)> {
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
pub const AUTOTUNE_HAND_SYSTEM: &str = "hand-tuned";
/// Suffix of the autotuned (exhaustive-sweep) series in
/// [`fig_autotune`] rows.
pub const AUTOTUNE_TUNED_SYSTEM: &str = "autotuned";
/// Suffix of the cost-model-guided series in [`fig_autotune`] rows
/// (`TunerBudget::TopK(candidates / 2)` on a cold table).
pub const AUTOTUNE_GUIDED_SYSTEM: &str = "guided";
/// Suffix of the guided sweep's timed-candidate-count series. These
/// rows reuse the `tflops` value slot for a **count**, not a
/// throughput — `check_figures` gates it against the exhaustive count.
pub const AUTOTUNE_TIMED_GUIDED_SYSTEM: &str = "candidates timed (guided)";
/// Suffix of the exhaustive sweep's timed-candidate-count series (see
/// [`AUTOTUNE_TIMED_GUIDED_SYSTEM`]).
pub const AUTOTUNE_TIMED_EXHAUSTIVE_SYSTEM: &str = "candidates timed (exhaustive)";

/// Wall time of one kernel's exhaustive and guided cold sweeps — the
/// host-measured side of the autotune figure. Kept out of
/// `BENCH_figures.json` (which regenerates bit-identically in CI) and
/// printed by the `figures` binary instead.
#[derive(Debug, Clone)]
pub struct SweepTime {
    /// Kernel name (matches [`autotune_entries`]).
    pub name: String,
    /// Problem size.
    pub size: usize,
    /// Exhaustive cold-sweep wall time, in seconds.
    pub exhaustive_s: f64,
    /// Guided (`TopK(candidates / 2)`) cold-sweep wall time, in seconds.
    pub guided_s: f64,
}

/// The autotune figure: for each paper kernel at each
/// [`AUTOTUNE_SIZES`] shape, the hand-tuned H100 mapping's throughput,
/// the mapping the exhaustive simulator-driven tuner picked from the
/// kernel's `MappingSpace`, the winner of a cost-model-guided sweep
/// that times only the predicted top half ([`TunerBudget::TopK`]), and
/// the number of candidates each sweep actually simulated. The tuned
/// row can never lose — the hand-tuned mapping is one of the
/// candidates — and `check_figures` gates `tuned >= hand`,
/// `guided >= 0.95 x tuned`, and `timed(guided) < timed(exhaustive)`
/// in CI. Alongside the rows, returns each sweep's wall time for the
/// `figures` stdout report.
#[must_use]
pub fn fig_autotune_with_times(machine: &MachineConfig) -> (Vec<Row>, Vec<SweepTime>) {
    let mut session = Session::new(machine.clone());
    let mut rows = Vec::new();
    let mut times = Vec::new();
    for size in AUTOTUNE_SIZES {
        for (name, space, shape, fl) in autotune_entries(size) {
            let program = Program::from_space(space, shape, machine)
                .expect("paper kernels build at the hand-tuned default");
            let t0 = std::time::Instant::now();
            let before = session.metrics().tuner.candidates_timed;
            let tuned = session.autotune(&program).expect("paper kernels autotune");
            let exhaustive_s = t0.elapsed().as_secs_f64();
            let exhaustive_timed = session.metrics().tuner.candidates_timed - before;

            // The guided sweep runs cold (fresh session, empty table)
            // under a half-size budget, so the comparison is cold sweep
            // vs cold sweep.
            let mut guided_session = Session::new(machine.clone());
            let top_k = (tuned.candidates / 2).max(1);
            let t0 = std::time::Instant::now();
            let guided = guided_session
                .autotune_with(&program, TunerBudget::TopK(top_k))
                .expect("paper kernels autotune under a guided budget");
            let guided_s = t0.elapsed().as_secs_f64();
            let guided_timed = guided_session.metrics().tuner.candidates_timed;

            let tflops_at = |cycles: f64| {
                let seconds = machine.cycles_to_seconds(cycles);
                fl / seconds / 1e12
            };
            rows.push(Row {
                system: format!("{name} {AUTOTUNE_HAND_SYSTEM}"),
                size,
                tflops: tflops_at(tuned.default_cycles),
            });
            rows.push(Row {
                system: format!("{name} {AUTOTUNE_TUNED_SYSTEM}"),
                size,
                tflops: tflops_at(tuned.tuned_cycles),
            });
            rows.push(Row {
                system: format!("{name} {AUTOTUNE_GUIDED_SYSTEM}"),
                size,
                tflops: tflops_at(guided.tuned_cycles),
            });
            rows.push(Row {
                system: format!("{name} {AUTOTUNE_TIMED_GUIDED_SYSTEM}"),
                size,
                tflops: guided_timed as f64,
            });
            rows.push(Row {
                system: format!("{name} {AUTOTUNE_TIMED_EXHAUSTIVE_SYSTEM}"),
                size,
                tflops: exhaustive_timed as f64,
            });
            times.push(SweepTime {
                name: name.to_string(),
                size,
                exhaustive_s,
                guided_s,
            });
        }
    }
    (rows, times)
}

/// [`fig_autotune_with_times`] without the wall-clock sweep times.
#[must_use]
pub fn fig_autotune(machine: &MachineConfig) -> Vec<Row> {
    fig_autotune_with_times(machine).0
}

/// Problem size of the functional data-path figure (`M = N = K`, and the
/// attention sequence length).
pub const FUNCTIONAL_SIZE: usize = 256;
/// Attention heads of the functional figure (head dim is [`HEAD_DIM`]).
pub const FUNCTIONAL_HEADS: usize = 2;
/// Independent GEMM nodes of the functional fan-out graph.
pub const FUNCTIONAL_FAN_OUT: usize = 8;

/// Minimum wall time over `runs` calls of `f` (best-of discards cold
/// compiles and scheduler noise).
fn best_seconds(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The functional data-path figure — the only **host-measured** figure:
/// element throughput of functional GEMM and attention on the fast
/// resolved-view data path versus the retained scalar reference
/// interpreter (`Simulator::run_functional_scalar`), the pre-lowered
/// bytecode frontend (`Simulator::run_functional_lowered`) versus the
/// fast-apply IR walk it replaced on GEMM, plus whole-graph functional
/// wall time of a [`FUNCTIONAL_FAN_OUT`]-wide fan-out under the serial
/// executor versus the parallel worker pool.
///
/// Row values are millions of multiply-accumulates per second for the
/// kernels and graph launches per second for the fan-out rows — higher
/// is better in both, and `check_figures` gates fast ≥ 3× scalar on
/// GEMM and speedup ≥ 1 (with wall-clock jitter slack) on the rest.
/// Because these rows are wall-clock measurements they are *not*
/// covered by the bit-identical regeneration check that guards every
/// simulated figure.
#[must_use]
pub fn fig_functional(machine: &MachineConfig) -> Vec<Row> {
    use cypress_tensor::{DType, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    let mut rows = Vec::new();
    let size = FUNCTIONAL_SIZE;
    let sim = Simulator::new(machine.clone());
    let mut rng = StdRng::seed_from_u64(20_26);

    // GEMM: bytecode vs fast-apply walk vs scalar data path. The fast
    // row pins the IR-walk frontend explicitly so it keeps measuring
    // what it always measured now that `run_functional` dispatches
    // through the bytecode VM.
    let (reg, mapping, args) = gemm::build(size, size, size, machine).expect("paper kernel builds");
    let kernel = compile_cypress(machine, &reg, &mapping, "gemm", &args);
    let lowered = cypress_sim::bytecode::lower(&kernel).expect("paper kernel lowers");
    let a = Tensor::random(DType::F16, &[size, size], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[size, size], &mut rng, -1.0, 1.0);
    let c = Tensor::zeros(DType::F16, &[size, size]);
    let macs = (size * size * size) as f64;
    // Warm up once, then interleave the two frontends' timed runs so
    // load drift on a contended host hits both equally — the gate
    // compares these two wall-clock numbers against each other.
    sim.run_functional_walk(&kernel, vec![c.clone(), a.clone(), b.clone()])
        .expect("functional gemm runs");
    let mut bytecode = f64::INFINITY;
    let mut fast = f64::INFINITY;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        sim.run_functional_lowered(&kernel, &lowered, vec![c.clone(), a.clone(), b.clone()])
            .expect("bytecode functional gemm runs");
        bytecode = bytecode.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        sim.run_functional_walk(&kernel, vec![c.clone(), a.clone(), b.clone()])
            .expect("functional gemm runs");
        fast = fast.min(t0.elapsed().as_secs_f64());
    }
    let scalar = best_seconds(2, || {
        sim.run_functional_scalar(&kernel, vec![c.clone(), a.clone(), b.clone()])
            .expect("scalar functional gemm runs");
    });
    rows.push(Row {
        system: "GEMM functional (bytecode)".into(),
        size,
        tflops: macs / bytecode / 1e6,
    });
    rows.push(Row {
        system: "GEMM functional (fast)".into(),
        size,
        tflops: macs / fast / 1e6,
    });
    rows.push(Row {
        system: "GEMM functional (scalar)".into(),
        size,
        tflops: macs / scalar / 1e6,
    });

    // Attention (FA2): the SIMT-heavy softmax path.
    let heads = FUNCTIONAL_HEADS;
    let (reg, mapping, args) =
        attention::build(attention::Algorithm::Fa2, heads, size, HEAD_DIM, machine)
            .expect("paper kernel builds");
    let kernel = compile_cypress(machine, &reg, &mapping, "fa", &args);
    let mk =
        |rng: &mut StdRng| Tensor::random(DType::F16, &[heads * size, HEAD_DIM], rng, -1.0, 1.0);
    let (q, k, v) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
    let o = Tensor::zeros(DType::F16, &[heads * size, HEAD_DIM]);
    let macs = attention::flops(heads, size, HEAD_DIM) / 2.0;
    let fast = best_seconds(2, || {
        sim.run_functional_walk(&kernel, vec![o.clone(), q.clone(), k.clone(), v.clone()])
            .expect("functional attention runs");
    });
    let scalar = best_seconds(2, || {
        sim.run_functional_scalar(&kernel, vec![o.clone(), q.clone(), k.clone(), v.clone()])
            .expect("scalar functional attention runs");
    });
    rows.push(Row {
        system: "Attention functional (fast)".into(),
        size,
        tflops: macs / fast / 1e6,
    });
    rows.push(Row {
        system: "Attention functional (scalar)".into(),
        size,
        tflops: macs / scalar / 1e6,
    });

    // Fan-out graph: serial executor vs the scoped worker pool.
    let graph = overlap_graph(FUNCTIONAL_FAN_OUT, size, machine);
    let mut inputs = HashMap::new();
    for i in 0..FUNCTIONAL_FAN_OUT {
        for name in [format!("A{i}"), format!("B{i}")] {
            inputs.insert(
                name,
                Tensor::random(DType::F16, &[size, size], &mut rng, -1.0, 1.0),
            );
        }
    }
    let mut serial_session = Session::new(machine.clone()).with_parallelism(1);
    let serial = best_seconds(5, || {
        serial_session
            .launch_functional(&graph, &inputs)
            .expect("serial functional graph runs");
    });
    let workers = cypress_sim::par::available();
    let parallel = if workers <= 1 {
        // On a single-core host both rows would measure the same
        // one-worker run, so re-measuring it would only add noise to
        // the `parallel >= serial` gate.
        serial
    } else {
        let mut parallel_session = Session::new(machine.clone()).with_parallelism(workers);
        best_seconds(5, || {
            parallel_session
                .launch_functional(&graph, &inputs)
                .expect("parallel functional graph runs");
        })
    };
    rows.push(Row {
        system: "Fan-out graph (serial)".into(),
        size,
        tflops: 1.0 / serial,
    });
    rows.push(Row {
        system: "Fan-out graph (parallel)".into(),
        size,
        tflops: 1.0 / parallel,
    });
    rows
}

/// Problem size of the fault-tolerance figure (the device-filling
/// regime of [`MULTI_GPU_SIZES`], where losing a device actually
/// costs).
pub const FAULT_SIZE: usize = 1024;
/// Device counts of the fault-tolerance figure (1 is the
/// single-device retry control; the loss rows need survivors, so they
/// run at 2 and 4 only).
pub const FAULT_DEVICES: [usize; 3] = [1, 2, 4];
/// Transient-fault counts per retry row (0 is the zero-fault control —
/// gated to cost *exactly* nothing).
pub const FAULT_TRANSIENTS: [usize; 3] = [0, 1, 2];

/// Row label of the transient-retry series at `devices` devices with
/// `transients` injected faults.
#[must_use]
pub fn fault_retry_system(devices: usize, transients: usize) -> String {
    let dev = if devices == 1 { "device" } else { "devices" };
    let tr = if transients == 1 {
        "transient"
    } else {
        "transients"
    };
    format!("Retry ({devices} {dev}, {transients} {tr})")
}

/// Row label of the device-loss recovery series at `devices` devices.
#[must_use]
pub fn fault_loss_system(devices: usize) -> String {
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
/// degraded re-sharding onto the survivors. `check_figures` gates
/// every ratio's bounds and `figures` regenerates the rows
/// bit-identically in CI.
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
        session.set_fault_policy(FaultPolicy::Retry {
            max_attempts: 3,
            backoff: 0.0,
        });
        for transients in FAULT_TRANSIENTS {
            let mut plan = FaultPlan::new();
            for launch in 0..transients {
                plan = plan.with_transient(0, launch as u64);
            }
            session.set_fault_plan(Some(plan));
            let faulted = session
                .launch_timing(&graph)
                .expect("transient faults recover under Retry")
                .makespan;
            rows.push(Row {
                system: fault_retry_system(devices, transients),
                size,
                tflops: faulted / clean,
            });
        }
        if devices > 1 {
            session.set_fault_plan(Some(
                FaultPlan::new().with_device_loss(devices - 1, clean * 0.5),
            ));
            let faulted = session
                .launch_timing(&graph)
                .expect("device loss recovers by re-sharding onto survivors")
                .makespan;
            rows.push(Row {
                system: fault_loss_system(devices),
                size,
                tflops: faulted / clean,
            });
        }
    }
    rows
}

/// Helper: the measured ratio of `a` over `b` at `size`.
#[must_use]
pub fn ratio(rows: &[Row], a: &str, b: &str, size: usize) -> f64 {
    let get = |s: &str| {
        rows.iter()
            .find(|r| r.system == s && r.size == size)
            .map(|r| r.tflops)
            .unwrap_or(f64::NAN)
    };
    get(a) / get(b)
}
