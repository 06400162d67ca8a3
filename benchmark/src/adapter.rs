//! The pinned API surface: every call the benchmark makes into the
//! `cypress_*` crates lives in this file, wrapped in a [`trace`] span
//! named `<layer>.<call>`. The rest of the benchmark sees plain data
//! (cycles, counts, digests) and opaque handles, so
//!
//! - `grep cypress_ benchmark/src` lists exactly what a later
//!   simplification of the libraries has to keep (or change together
//!   with a benchmark PR), and
//! - the traced run gets its layer spans from one place.
//!
//! Only public functions are called, sessions are configured through
//! `Session::new` + the `with_*` builders, and no library type leaks
//! out of here except as an opaque field.

use crate::digest::Digest;
use crate::trace;
use cypress_baselines::{cublas, cudnn, fa3, thunderkittens, triton};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::space::{MappingConfig, MappingSpace, Shape};
use cypress_core::kernels::{attention, batched, chain, dual_gemm, gemm, gemm_reduction};
use cypress_core::{Compiled, EntryArg, MappingSpec, TaskRegistry};
use cypress_runtime::telemetry::TraceLog;
use cypress_runtime::{
    Binding, CompiledGraph, FaultPolicy, FusionPolicy, GraphReport, GraphRun, NodeId,
    PlacementPolicy, Program, SchedulePolicy, Session, TaskGraph, TunerBudget, TuningTable,
};
use cypress_sim::{
    bytecode, ConcurrentEngine, EngineStep, FaultPlan, Kernel, KernelProfile, LaunchOutcome,
    MachineConfig, Simulator, Topology,
};
use cypress_tensor::tensor::reference;
use cypress_tensor::{DType, Tensor as LibTensor};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Every workload targets the paper's machine.
fn machine() -> &'static MachineConfig {
    static MACHINE: OnceLock<MachineConfig> = OnceLock::new();
    MACHINE.get_or_init(MachineConfig::h100_sxm5)
}

/// Host cores the libraries would use by default.
pub fn nproc() -> usize {
    cypress_sim::par::available()
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------
// cypress-core: mapping spaces, the Fig. 6 compiler, the cost model
// ---------------------------------------------------------------------

/// The kernel families of the paper's evaluation (plus the chained
/// dual-GEMM the fusion rewriter emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    Gemm,
    Batched,
    Dual,
    GemmReduction,
    Chain,
    Fa2,
    Fa3,
}

impl Family {
    fn space(self) -> Arc<dyn MappingSpace> {
        match self {
            Family::Gemm => Arc::new(gemm::GemmSpace),
            Family::Batched => Arc::new(batched::BatchedGemmSpace),
            Family::Dual => Arc::new(dual_gemm::DualGemmSpace),
            Family::GemmReduction => Arc::new(gemm_reduction::GemmReductionSpace),
            Family::Chain => Arc::new(chain::ChainSpace),
            Family::Fa2 => Arc::new(attention::AttentionSpace {
                algorithm: attention::Algorithm::Fa2,
            }),
            Family::Fa3 => Arc::new(attention::AttentionSpace {
                algorithm: attention::Algorithm::Fa3,
            }),
        }
    }
}

/// A kernel family at a problem shape (`[m, n, k]`, `[l, m, n, k]`,
/// `[m, n, k, mid]` or `[heads, seq, head_dim]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelSpec {
    pub family: Family,
    pub dims: Vec<usize>,
}

impl KernelSpec {
    pub fn new(family: Family, dims: &[usize]) -> Self {
        KernelSpec {
            family,
            dims: dims.to_vec(),
        }
    }

    pub fn label(&self) -> String {
        format!("{:?}{:?}", self.family, self.dims)
    }

    fn shape(&self) -> Shape {
        Shape::of(&self.dims)
    }
}

/// One point of a kernel's mapping space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mapping(MappingConfig);

impl Mapping {
    pub fn label(&self) -> String {
        self.0.label()
    }
}

/// Every valid mapping of `spec`, in the space's deterministic order.
pub fn candidates(spec: &KernelSpec) -> Vec<Mapping> {
    let _s = trace::span("core.space.candidates");
    spec.family
        .space()
        .candidates(machine(), &spec.shape())
        .into_iter()
        .map(Mapping)
        .collect()
}

/// The hand-tuned mapping when it is valid for `spec`, else the first
/// candidate; `None` when the space is empty at this shape.
fn default_mapping(spec: &KernelSpec) -> Option<Mapping> {
    let _s = trace::span("core.space.default");
    let space = spec.family.space();
    let default = space.default_for(machine());
    if space.validate(machine(), &spec.shape(), &default).is_ok() {
        return Some(Mapping(default));
    }
    space
        .candidates(machine(), &spec.shape())
        .into_iter()
        .next()
        .map(Mapping)
}

/// A Cypress program: task tree plus mapping specification.
#[derive(Debug, Clone)]
pub struct Source {
    registry: TaskRegistry,
    mapping: MappingSpec,
    args: Vec<EntryArg>,
    entry: &'static str,
}

impl Source {
    /// `(rows, cols)` of every entry parameter, in declaration order.
    pub fn arg_shapes(&self) -> Vec<(usize, usize)> {
        self.args.iter().map(|a| (a.rows, a.cols)).collect()
    }

    /// A zero tensor of parameter `i`'s shape and element type.
    pub fn zero_param(&self, i: usize) -> Tensor {
        let a = &self.args[i];
        Tensor(LibTensor::zeros(a.dtype, &[a.rows, a.cols]))
    }

    fn program(&self) -> Program {
        Program::new(
            self.registry.clone(),
            self.mapping.clone(),
            self.entry,
            self.args.clone(),
        )
    }
}

/// Build `spec`'s program at `mapping` (`MappingSpace::build`).
pub fn build(spec: &KernelSpec, mapping: &Mapping) -> Result<Source, String> {
    let _s = trace::span("core.front.build");
    let space = spec.family.space();
    let (registry, mapping, args) = space
        .build(&spec.shape(), &mapping.0)
        .map_err(err("build"))?;
    Ok(Source {
        registry,
        mapping,
        args,
        entry: space.entry(),
    })
}

/// `spec`'s program at the mapping [`default_mapping`] picks.
pub fn build_default(spec: &KernelSpec) -> Result<Source, String> {
    let mapping =
        default_mapping(spec).ok_or_else(|| format!("{} has no valid mapping", spec.label()))?;
    build(spec, &mapping)
}

fn compiler() -> CypressCompiler {
    CypressCompiler::new(CompilerOptions {
        machine: machine().clone(),
        ..Default::default()
    })
}

/// The compile-cache key of `source`.
pub fn fingerprint(source: &Source) -> u64 {
    let _s = trace::span("core.fingerprint");
    compiler().fingerprint(
        &source.registry,
        &source.mapping,
        source.entry,
        &source.args,
    )
}

/// A compiled kernel with the compiler's own per-pass clock.
#[derive(Debug, Clone)]
pub struct Binary(Compiled);

impl Binary {
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint
    }

    /// `(pass, host nanoseconds)` in pipeline order.
    pub fn pass_nanos(&self) -> &[(String, u64)] {
        &self.0.pass_nanos
    }

    pub fn removed_copies(&self) -> usize {
        self.0.copyelim_stats.removed_copies
    }

    pub fn copyelim_rounds(&self) -> usize {
        self.0.copyelim_stats.rounds
    }

    pub fn smem_bytes(&self) -> usize {
        self.0.smem_bytes
    }

    /// Size of the generated pseudo-CUDA.
    pub fn cuda_bytes(&self) -> usize {
        self.0.cuda.len()
    }

    /// The kernel and the bytecode the compiler already lowered.
    pub fn launchable(&self) -> Launchable {
        Launchable {
            kernel: self.0.kernel.clone(),
            program: self.0.lowered.clone(),
        }
    }
}

/// A fresh, uncached run of the Fig. 6 pipeline.
pub fn compile(source: &Source) -> Result<Binary, String> {
    let _s = trace::span("core.compile");
    compiler()
        .compile(
            &source.registry,
            &source.mapping,
            source.entry,
            &source.args,
        )
        .map(Binary)
        .map_err(err("compile"))
}

/// The analytical cost model's predicted cycles for one candidate.
pub fn estimate(spec: &KernelSpec, mapping: &Mapping) -> Option<f64> {
    let _s = trace::span("core.cost.estimate");
    spec.family
        .space()
        .estimate(machine(), &spec.shape(), &mapping.0)
        .map(|e| e.cycles)
}

// ---------------------------------------------------------------------
// cypress-baselines: the hand-written competitors of Fig. 13/14
// ---------------------------------------------------------------------

/// The baseline systems of Fig. 13/14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Baseline {
    Cublas,
    Triton,
    ThunderKittens,
    Fa3,
    Cudnn,
}

/// A baseline's kernel for `family` at `dims`, or `None` when the
/// paper has no such pairing.
pub fn baseline(sim: &Sim, system: Baseline, family: Family, dims: &[usize]) -> Option<Kernel> {
    let paired = matches!(
        (system, family),
        (Baseline::Cublas, Family::Gemm | Family::Batched)
            | (
                Baseline::Triton,
                Family::Gemm | Family::Batched | Family::Dual | Family::GemmReduction | Family::Fa2
            )
            | (Baseline::ThunderKittens, Family::Fa2)
            | (Baseline::Fa3 | Baseline::Cudnn, Family::Fa3)
    );
    if !paired {
        return None;
    }
    let _s = trace::span("baselines.build");
    let sms = machine().sms;
    Some(match (system, family, dims) {
        (Baseline::Cublas, Family::Gemm, &[m, n, k]) => cublas::gemm_with(m, n, k, &sim.0),
        (Baseline::Cublas, _, &[l, m, n, k]) => cublas::batched_gemm(l, m, n, k),
        (Baseline::Triton, Family::Gemm, &[m, n, k]) => triton::gemm(m, n, k),
        (Baseline::Triton, Family::Batched, &[l, m, n, k]) => triton::batched_gemm(l, m, n, k),
        (Baseline::Triton, Family::Dual, &[m, n, k]) => triton::dual_gemm(m, n, k),
        (Baseline::Triton, Family::GemmReduction, &[m, n, k]) => triton::gemm_reduction(m, n, k),
        (Baseline::Triton, _, &[h, s, d]) => triton::attention(h, s, d, sms),
        (Baseline::ThunderKittens, _, &[h, s, d]) => thunderkittens::attention(h, s, d, sms),
        (Baseline::Fa3, _, &[h, s, d]) => fa3::attention(h, s, d, sms),
        (Baseline::Cudnn, _, &[h, s, d]) => cudnn::attention_with(h, s, d, &sim.0),
        // A shape of the wrong rank for its family.
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// cypress-sim: lowering, the timing engine, the functional data path,
// the concurrent contention engine
// ---------------------------------------------------------------------

/// A single-threaded simulator of the paper's machine.
#[derive(Debug, Clone)]
pub struct Sim(Simulator);

pub fn simulator() -> Sim {
    Sim(Simulator::new(machine().clone()).with_parallelism(1))
}

/// A kernel with its lowered bytecode, ready to launch.
#[derive(Debug, Clone)]
pub struct Launchable {
    kernel: Kernel,
    program: bytecode::Program,
}

/// Lower a hand-written kernel to bytecode (`bytecode::lower`).
pub fn lower(kernel: Kernel) -> Result<Launchable, String> {
    let _s = trace::span("sim.lower");
    let program = bytecode::lower(&kernel).map_err(err("lower"))?;
    Ok(Launchable { kernel, program })
}

/// Re-lower an already launchable kernel (what the compiler's last
/// pass does), for the lowering probe.
pub fn relower(launchable: &Launchable) -> Result<(), String> {
    let _s = trace::span("sim.lower");
    bytecode::lower(&launchable.kernel)
        .map(drop)
        .map_err(err("lower"))
}

/// What one timing-mode run reports.
#[derive(Debug, Clone)]
pub struct Timed {
    pub cycles: f64,
    /// Discrete events the engine processed.
    pub events: u64,
    profile: KernelProfile,
}

/// One discrete-event timing run (`Simulator::run_timing_lowered`).
pub fn time(sim: &Sim, k: &Launchable) -> Result<Timed, String> {
    let _s = trace::span("sim.engine.run_timing");
    let report = sim
        .0
        .run_timing_lowered(&k.kernel, &k.program)
        .map_err(err("run_timing"))?;
    Ok(Timed {
        cycles: report.cycles,
        events: report.events,
        profile: KernelProfile::from_report(&report, machine()),
    })
}

/// One functional run: data really moves
/// (`Simulator::run_functional_lowered`). Returns the parameters after
/// the launch.
pub fn run_functional(
    sim: &Sim,
    k: &Launchable,
    params: Vec<Tensor>,
) -> Result<Vec<Tensor>, String> {
    let _s = trace::span("sim.functional.run");
    let run = sim
        .0
        .run_functional_lowered(
            &k.kernel,
            &k.program,
            params.into_iter().map(|t| t.0).collect(),
        )
        .map_err(err("run_functional"))?;
    Ok(run.params.into_iter().map(Tensor).collect())
}

/// What driving the contention engine directly observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrentOut {
    /// `ConcurrentEngine::step` calls that returned an event.
    pub steps: u64,
    /// Launches that retired with a fault outcome.
    pub faulted: u64,
    pub makespan: f64,
}

/// Launch every profile at cycle 0, round-robin over `devices`, with
/// one link transfer per device pair, and step the engine dry. With
/// `transients > 0` the first launches on device 0 fault once.
pub fn drive_concurrent(profiles: &[Timed], devices: usize, transients: u64) -> ConcurrentOut {
    let _s = trace::span("sim.concurrent.drive");
    let topology = if devices > 1 {
        Topology::nvlink(machine(), devices)
    } else {
        Topology::single(machine().clone())
    };
    let mut plan = FaultPlan::new();
    for launch in 0..transients {
        plan = plan.with_transient(0, launch);
    }
    let mut engine = ConcurrentEngine::with_topology(&topology).with_fault_plan(plan);
    for (id, p) in profiles.iter().enumerate() {
        engine.launch_on(id, id % devices, &p.profile);
    }
    for link in 0..topology.links.len() {
        let l = &topology.links[link];
        let cycles = l.transfer_cycles(1_048_576.0, machine());
        engine.launch_transfer(profiles.len() + link, link, cycles, l.bytes_per_cycle);
    }
    let mut out = ConcurrentOut {
        steps: 0,
        faulted: 0,
        makespan: 0.0,
    };
    while let Some(step) = engine.step() {
        out.steps += 1;
        if let EngineStep::Retired { outcome, .. } = step {
            if outcome != LaunchOutcome::Completed {
                out.faulted += 1;
            }
        }
    }
    out.makespan = engine.now();
    out
}

// ---------------------------------------------------------------------
// cypress-tensor: inputs and the host oracle
// ---------------------------------------------------------------------

/// A host tensor.
#[derive(Debug, Clone)]
pub struct Tensor(LibTensor);

impl Tensor {
    pub fn shape(&self) -> (usize, usize) {
        (self.0.shape()[0], self.0.shape()[1])
    }

    /// Bit-for-bit equality of contents.
    pub fn same_bits(&self, other: &Tensor) -> bool {
        self.0.shape() == other.0.shape()
            && self
                .0
                .data()
                .iter()
                .zip(other.0.data())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Error against `want` relative to `want`'s magnitude.
    pub fn relative_error(&self, want: &Tensor) -> Result<f32, String> {
        self.0
            .relative_error(&want.0)
            .map_err(err("relative_error"))
    }

    /// Rows `[from, from + rows)` as a tensor of their own.
    pub fn rows(&self, from: usize, rows: usize) -> Tensor {
        let cols = self.0.shape()[1];
        let data = self.0.data()[from * cols..(from + rows) * cols].to_vec();
        Tensor(
            LibTensor::from_data(self.0.dtype(), &[rows, cols], data)
                .expect("a row range of a matrix is a matrix"),
        )
    }

    /// Sum the columns of every row into an f32 column vector.
    pub fn fold_columns(&self) -> Tensor {
        let (rows, cols) = self.shape();
        let mut out = LibTensor::zeros(DType::F32, &[rows, 1]);
        for r in 0..rows {
            out.data_mut()[r] = self.0.data()[r * cols..(r + 1) * cols].iter().sum();
        }
        Tensor(out)
    }
}

/// The seeded generator inputs are drawn from.
pub type Rng = StdRng;

pub fn rng(seed: u64) -> Rng {
    <StdRng as rand::SeedableRng>::seed_from_u64(seed)
}

/// A random f16 matrix uniform in `[-scale, scale)`.
pub fn random_f16(rng: &mut Rng, rows: usize, cols: usize, scale: f32) -> Tensor {
    let _s = trace::span("tensor.random");
    Tensor(LibTensor::random(
        DType::F16,
        &[rows, cols],
        rng,
        -scale,
        scale,
    ))
}

/// Host oracle: `A · B` rounded to f16.
pub fn ref_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, String> {
    let _s = trace::span("tensor.reference.matmul");
    reference::matmul(&a.0, &b.0, DType::F16)
        .map(Tensor)
        .map_err(err("reference matmul"))
}

/// Host oracle: `A · B1 + A · B2`, summed in f32, rounded to f16 once.
pub fn ref_dual_matmul(a: &Tensor, b1: &Tensor, b2: &Tensor) -> Result<Tensor, String> {
    let _s = trace::span("tensor.reference.dual_matmul");
    let g1 = reference::matmul(&a.0, &b1.0, DType::F32).map_err(err("reference matmul"))?;
    let g2 = reference::matmul(&a.0, &b2.0, DType::F32).map_err(err("reference matmul"))?;
    let mut out = LibTensor::zeros(DType::F16, g1.shape());
    for (o, (x, y)) in out
        .data_mut()
        .iter_mut()
        .zip(g1.data().iter().zip(g2.data()))
    {
        *o = DType::F16.quantize(x + y);
    }
    Ok(Tensor(out))
}

/// Host oracle: single-head `softmax(Q Kᵀ / sqrt(d)) V`.
pub fn ref_attention(q: &Tensor, k: &Tensor, v: &Tensor) -> Result<Tensor, String> {
    let _s = trace::span("tensor.reference.attention");
    reference::attention(&q.0, &k.0, &v.0, DType::F16)
        .map(Tensor)
        .map_err(err("reference attention"))
}

/// Host oracle: row sums in f32.
pub fn ref_row_sum(x: &Tensor) -> Result<Tensor, String> {
    let _s = trace::span("tensor.reference.row_sum");
    reference::row_sum(&x.0, DType::F32)
        .map(Tensor)
        .map_err(err("reference row_sum"))
}

// ---------------------------------------------------------------------
// cypress-runtime: sessions, graphs, the tuner
// ---------------------------------------------------------------------

/// The fault plan of a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Faults {
    None,
    /// The first `n` compute launches on device 0 fail once each.
    Transients(u64),
    /// The last device dies at this cycle.
    DeviceLoss {
        at: f64,
    },
}

/// One point of the session's policy space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    pub parallelism: usize,
    /// `1` is `SchedulePolicy::Serial`.
    pub streams: usize,
    /// `1` is `PlacementPolicy::SingleDevice`.
    pub devices: usize,
    pub fusion: bool,
    pub faults: Faults,
}

impl Policy {
    /// Serial, single device, unfused, fault-free.
    pub fn plain(parallelism: usize) -> Policy {
        Policy {
            parallelism,
            streams: 1,
            devices: 1,
            fusion: false,
            faults: Faults::None,
        }
    }
}

/// A runtime session plus the event log attached to it, if any.
#[derive(Debug)]
pub struct Runtime {
    session: Option<Session>,
    log: Option<TraceLog>,
}

impl Runtime {
    /// A cold session (empty kernel cache, empty tuning table).
    pub fn new(policy: &Policy) -> Runtime {
        let _s = trace::span("runtime.session.new");
        let mut rt = Runtime {
            session: Some(Session::new(machine().clone()).with_pool_capacity(POOL_BUFFERS)),
            log: None,
        };
        rt.configure(policy);
        rt
    }

    /// A cold session with a `TraceLog` recorder attached.
    pub fn with_event_log(policy: &Policy) -> Runtime {
        let mut rt = Runtime::new(policy);
        let log = TraceLog::new();
        rt.session = rt.session.take().map(|s| s.with_recorder(log.clone()));
        rt.log = Some(log);
        rt
    }

    /// Re-point the session at `policy`, keeping its caches warm.
    pub fn configure(&mut self, policy: &Policy) {
        let _s = trace::span("runtime.session.configure");
        let schedule = if policy.streams <= 1 {
            SchedulePolicy::Serial
        } else {
            SchedulePolicy::Concurrent {
                streams: policy.streams,
            }
        };
        let placement = if policy.devices <= 1 {
            PlacementPolicy::SingleDevice
        } else {
            PlacementPolicy::Sharded {
                devices: policy.devices,
            }
        };
        let fusion = if policy.fusion {
            FusionPolicy::Auto
        } else {
            FusionPolicy::Off
        };
        let (plan, fault_policy) = match policy.faults {
            Faults::None => (FaultPlan::new(), FaultPolicy::FailFast),
            Faults::Transients(n) => (
                (0..n).fold(FaultPlan::new(), |p, launch| p.with_transient(0, launch)),
                RETRY,
            ),
            Faults::DeviceLoss { at } => (
                FaultPlan::new().with_device_loss(policy.devices.saturating_sub(1), at),
                RETRY,
            ),
        };
        self.session = self.session.take().map(|s| {
            s.with_parallelism(policy.parallelism)
                .with_policy(schedule)
                .with_placement_policy(placement)
                .with_fusion_policy(fusion)
                .with_fault_policy(fault_policy)
                .with_fault_plan(plan)
        });
    }

    fn session(&mut self) -> &mut Session {
        self.session
            .as_mut()
            .expect("the session is only taken inside configure")
    }

    /// Events the attached log recorded so far (0 without a log).
    pub fn logged_events(&self) -> u64 {
        self.log.as_ref().map_or(0, |l| l.len() as u64)
    }

    /// Compile `graph` once for repeated functional launches.
    pub fn compile_graph(&mut self, graph: &Graph) -> Result<FrozenGraph, String> {
        let _s = trace::span("runtime.compile_graph");
        self.session()
            .compile_graph(&graph.graph)
            .map(FrozenGraph)
            .map_err(err("compile_graph"))
    }

    /// One functional launch of a compiled graph.
    pub fn launch_compiled(
        &mut self,
        frozen: &FrozenGraph,
        inputs: &Inputs,
    ) -> Result<GraphOutputs, String> {
        let _s = trace::composite("runtime.launch_compiled");
        self.session()
            .launch_compiled(&frozen.0, &inputs.0)
            .map(GraphOutputs)
            .map_err(err("launch_compiled"))
    }

    /// One timing launch of `graph` under the current policy.
    pub fn launch_timing(&mut self, graph: &Graph) -> Result<Schedule, String> {
        let _s = trace::composite("runtime.launch_timing");
        self.session()
            .launch_timing(&graph.graph)
            .map(|r| Schedule::of(&r))
            .map_err(err("launch_timing"))
    }

    /// Compile one program through the session's kernel cache.
    pub fn compile(&mut self, source: &Source) -> Result<Launchable, String> {
        let _s = trace::span("runtime.cache.compile");
        let compiled = self
            .session()
            .compile(&source.program())
            .map_err(err("session compile"))?;
        Ok(Launchable {
            kernel: compiled.kernel.clone(),
            program: compiled.lowered.clone(),
        })
    }

    /// One autotune sweep of `spec`'s mapping space; `top_k: None` is
    /// exhaustive.
    pub fn autotune(&mut self, spec: &KernelSpec, top_k: Option<usize>) -> Result<Tuned, String> {
        let program = Program::from_space(spec.family.space(), spec.shape(), machine())
            .map_err(err("from_space"))?;
        let budget = top_k.map_or(TunerBudget::Exhaustive, TunerBudget::TopK);
        let before = self.counters().tuner_timed;
        let _s = trace::composite("runtime.autotune_with");
        let tuned = self
            .session()
            .autotune_with(&program, budget)
            .map_err(err("autotune"))?;
        Ok(Tuned {
            winner: Mapping(tuned.config),
            default_cycles: tuned.default_cycles,
            tuned_cycles: tuned.tuned_cycles,
            candidates: tuned.candidates,
            timed: self.counters().tuner_timed - before,
        })
    }

    /// The session's tuning table through its text format and back;
    /// returns the number of entries that survived.
    pub fn tuning_round_trip(&mut self) -> Result<usize, String> {
        let _s = trace::span("runtime.tuner.table_roundtrip");
        let text = self.session().tuning_table().to_text();
        TuningTable::from_text(&text)
            .map(|t| t.len())
            .map_err(err("tuning table"))
    }

    /// The session's unified counters.
    pub fn counters(&mut self) -> Counters {
        let m = self.session().metrics();
        Counters {
            cache_hits: m.cache.hits,
            cache_misses: m.cache.misses,
            pool_acquired: m.pool.acquired,
            pool_reused: m.pool.reused,
            tuner_timed: m.tuner.candidates_timed,
            tuner_pruned: m.tuner.pruned,
            fusion_applied: m.fusion_applied,
            fusion_declined: m.fusion_declined,
            shard_transfers: m.comm_launches,
            link_bytes: m.link_bytes,
        }
    }
}

/// Parked buffers a session keeps. The default pool is unbounded and
/// parks a clone of every external input of every launch, so a serving
/// loop grows by its inputs' size per launch; a long-lived session
/// bounds it, and so does the benchmark — otherwise peak memory would
/// measure how many blocks fit in the run.
const POOL_BUFFERS: usize = 64;

/// Retry budget of every faulted launch: enough for two transients on
/// one node, no backoff.
const RETRY: FaultPolicy = FaultPolicy::Retry {
    max_attempts: 4,
    backoff: 0.0,
};

/// `Session::metrics()` as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub pool_acquired: u64,
    pub pool_reused: u64,
    pub tuner_timed: u64,
    pub tuner_pruned: u64,
    pub fusion_applied: u64,
    pub fusion_declined: u64,
    pub shard_transfers: u64,
    pub link_bytes: u64,
}

/// What an autotune sweep chose.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuned {
    pub winner: Mapping,
    pub default_cycles: f64,
    pub tuned_cycles: f64,
    /// Size of the mapping space at this shape.
    pub candidates: usize,
    /// Candidates this sweep compiled and simulated.
    pub timed: u64,
}

/// Where a node parameter's tensor comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// An output the launch allocates.
    Zeros,
    /// A named tensor the caller supplies.
    External(String),
    /// Parameter `param` of an earlier node.
    Node { node: usize, param: usize },
}

/// One kernel launch of a graph, as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    pub name: String,
    pub kernel: KernelSpec,
    pub inputs: Vec<Input>,
    /// Keep the node's tensors in the result even if consumed.
    pub retain: bool,
}

/// A task graph.
#[derive(Debug, Clone)]
pub struct Graph {
    graph: TaskGraph,
    ids: Vec<NodeId>,
}

/// Build a task graph of `nodes`, each at its family's default mapping.
pub fn build_graph(nodes: &[NodeSpec]) -> Result<Graph, String> {
    let _s = trace::span("runtime.graph.build");
    let mut graph = TaskGraph::new();
    let mut ids: Vec<NodeId> = Vec::with_capacity(nodes.len());
    for n in nodes {
        let program = build_default(&n.kernel)?.program();
        let bindings = n
            .inputs
            .iter()
            .map(|i| match i {
                Input::Zeros => Binding::Zeros,
                Input::External(name) => Binding::external(name),
                Input::Node { node, param } => Binding::output(ids[*node], *param),
            })
            .collect();
        let id = graph
            .add_node(&n.name, program, bindings)
            .map_err(err("add_node"))?;
        if n.retain {
            graph.retain(id).map_err(err("retain"))?;
        }
        ids.push(id);
    }
    Ok(Graph { graph, ids })
}

impl Graph {
    /// `(name, rows, cols)` of every external input the graph needs.
    pub fn external_inputs(&self) -> Vec<(String, usize, usize)> {
        let mut out: Vec<(String, usize, usize)> = Vec::new();
        for node in self.graph.nodes() {
            for (binding, arg) in node.bindings.iter().zip(&node.program.args) {
                if let Binding::External(name) = binding {
                    if !out.iter().any(|(n, _, _)| n == name) {
                        out.push((name.clone(), arg.rows, arg.cols));
                    }
                }
            }
        }
        out
    }
}

/// A graph compiled once by `Session::compile_graph`.
#[derive(Debug)]
pub struct FrozenGraph(CompiledGraph);

/// Named external inputs of one launch.
#[derive(Debug, Clone, Default)]
pub struct Inputs(HashMap<String, LibTensor>);

impl Inputs {
    pub fn insert(&mut self, name: &str, t: Tensor) {
        self.0.insert(name.to_string(), t.0);
    }

    pub fn get(&self, name: &str) -> Option<Tensor> {
        self.0.get(name).cloned().map(Tensor)
    }
}

/// The tensors and report of one functional graph launch.
#[derive(Debug)]
pub struct GraphOutputs(GraphRun);

impl GraphOutputs {
    pub fn makespan(&self) -> f64 {
        self.0.report.makespan
    }

    pub fn apply_bytes(&self) -> u64 {
        self.0.apply_bytes.total()
    }

    /// Parameter `param` of node `node` of `graph`, if retained.
    pub fn tensor(&self, graph: &Graph, node: usize, param: usize) -> Option<Tensor> {
        self.0.tensor(graph.ids[node], param).cloned().map(Tensor)
    }
}

/// A whole-graph timing report as plain numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub makespan: f64,
    pub critical_path: f64,
    pub serial_sum: f64,
    /// Launches on the timeline (fused, transfer and retry spans
    /// included).
    pub launches: usize,
    pub faults: u64,
    pub retries: u64,
    pub resharded: usize,
    pub overhead_cycles: f64,
    /// Digest of every span's `(name, device, stream, start, end)`.
    pub digest: u64,
}

impl Schedule {
    fn of(r: &GraphReport) -> Schedule {
        let digest = r.nodes.iter().fold(
            Digest::new().float(r.makespan).float(r.critical_path),
            |d, n| {
                d.text(&n.node)
                    .word(n.device as u64)
                    .word(n.stream as u64)
                    .float(n.start)
                    .float(n.end)
            },
        );
        Schedule {
            makespan: r.makespan,
            critical_path: r.critical_path,
            serial_sum: r.serial_sum(),
            launches: r.nodes.len(),
            faults: r.recovery.faults,
            retries: r.recovery.retries,
            resharded: r.recovery.resharded_nodes.len(),
            overhead_cycles: r.recovery.overhead_cycles,
            digest: digest.finish(),
        }
    }
}
