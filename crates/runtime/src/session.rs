//! The runtime session: compiler + simulator + kernel cache + buffer pool.
//!
//! A [`Session`] is the long-lived object a serving process keeps around.
//! It owns one [`CypressCompiler`] and one [`Simulator`] for a fixed
//! machine, a fingerprint-keyed [`KernelCache`] so repeated launches of
//! the same `(tasks, mapping, args, machine)` skip the Fig. 6 pass
//! pipeline, and a [`BufferPool`] so intermediate tensors are reused
//! across launches instead of reallocated.
//!
//! Graph launches are scheduled by one ready-queue scheduler; the
//! session's [`SchedulePolicy`] sets its stream count. The default,
//! [`SchedulePolicy::Serial`], is one stream per device: on one device
//! nodes launch back-to-back in the deterministic topological order.
//! [`SchedulePolicy::Concurrent`] assigns independent nodes to several
//! simulated streams so their launches overlap (see the
//! [executor docs](crate::executor) and [`crate::GraphReport`] for how to
//! read the resulting timeline). Functional results never depend on the
//! policy: data always moves in the deterministic topological order.
//!
//! Orthogonally, the session's [`MappingPolicy`] chooses *which mapping*
//! each node launches with. [`MappingPolicy::Default`] (the default)
//! runs every program's own mapping — the hand-tuned path, bit for bit.
//! [`MappingPolicy::Autotune`] transparently autotunes every node that
//! carries a [`crate::SpaceBinding`] (see [`Session::autotune`]): the
//! space's candidates are compiled through the kernel cache, timed with
//! the simulator, and the winner is launched and recorded in the
//! session's [`TuningTable`]. Mapping spaces only enumerate functionally
//! transparent candidates, so tensors are identical under either policy;
//! only the timeline changes.
//!
//! A third axis, the session's [`FusionPolicy`], chooses *which
//! launches* a graph turns into. [`FusionPolicy::Off`] (the default)
//! launches the graph exactly as written. [`FusionPolicy::Auto`] runs
//! the fusion rewriter (see [`crate::fuse`]) first: producer→consumer
//! patterns collapse into the paper's fused kernels when the simulator
//! confirms the fused launch wins, with results re-addressed to the
//! caller's node ids and bitwise identical either way.
//!
//! A fourth axis, the session's [`PlacementPolicy`], chooses *where*
//! the launches run. [`PlacementPolicy::SingleDevice`] (the default)
//! keeps everything on one simulated device.
//! [`PlacementPolicy::Sharded`] partitions the (possibly fused) graph
//! across N simulated devices connected by NVLink-class links (see
//! [`cypress_sim::Topology`] and [`crate::shard`]): every cross-device
//! edge becomes an explicit transfer kernel charged to its link, the
//! scheduler overlaps communication with compute, and
//! results are re-addressed to the caller's node ids — bitwise
//! identical at every device count. `Sharded { devices: 1 }` is
//! exactly `SingleDevice`, timeline included.

use crate::cache::{CacheStats, KernelCache};
use crate::error::RuntimeError;
use crate::executor;
use crate::executor::{CommLaunch, FaultContext, GraphRun, NodeLaunch};
use crate::fuse::{self, FusedKernel, FusionPlan, FusionPolicy};
use crate::graph::TaskGraph;
use crate::pool::{BufferPool, PoolStats};
use crate::program::Program;
use crate::report::GraphReport;
use crate::shard::{self, PlacementPolicy, ShardPlan};
use crate::telemetry::{Event, MetricsRegistry, MetricsSnapshot, NoopRecorder, Recorder};
use crate::tuner::{key_for, TunedMapping, TunerBudget, TuningKey, TuningTable};
use cypress_core::fingerprint::{combine, machine_fingerprint, target_fingerprint};
use cypress_core::{Compiled, CompilerOptions, CypressCompiler, COST_MODEL_VERSION};
use cypress_sim::{FaultPlan, MachineConfig, Simulator, TimingReport, Topology};
use cypress_tensor::Tensor;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How a [`Session`] schedules the nodes of a [`TaskGraph`].
///
/// The policy only affects *timing*: which simulated stream each node is
/// assigned to and how launches overlap in the [`GraphReport`] timeline.
/// Functional tensor results are identical under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// One stream per device — exactly `Concurrent { streams: 1 }`. On
    /// one device nodes launch back-to-back in the deterministic
    /// topological schedule and the makespan is the sum of the solo
    /// launches; on a sharded topology each device runs its own launches
    /// back to back and devices overlap. Attaching a fault plan does not
    /// change this.
    #[default]
    Serial,
    /// Ready-queue scheduling onto `streams` simulated streams per
    /// device: independent nodes launch as soon as a stream frees up,
    /// co-resident launches contend for SMs, L2, and HBM under the
    /// [`cypress_sim::concurrent`] model, and dependents are released as
    /// upstream launches retire.
    Concurrent {
        /// Number of simulated streams (clamped to at least 1).
        streams: usize,
    },
}

impl SchedulePolicy {
    /// The stream count the policy schedules onto (1 for serial).
    #[must_use]
    pub fn streams(&self) -> usize {
        match self {
            SchedulePolicy::Serial => 1,
            SchedulePolicy::Concurrent { streams } => (*streams).max(1),
        }
    }
}

/// Which mapping each launched node uses (mirrors [`SchedulePolicy`]).
///
/// The policy never changes functional results: mapping spaces only
/// enumerate candidates that compute bitwise the same function as the
/// default mapping. It changes which compiled kernel runs, and therefore
/// the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingPolicy {
    /// Every node launches its program's own mapping — the hand-tuned
    /// default path, preserved bit for bit.
    #[default]
    Default,
    /// Nodes whose programs carry a [`crate::SpaceBinding`] launch the
    /// autotuned winner of their mapping space (tuning on first
    /// encounter, then served from the session's [`TuningTable`]);
    /// unbound programs fall back to their own mapping.
    Autotune,
    /// Like [`MappingPolicy::Autotune`], but sweeps run under
    /// [`TunerBudget::TopK`]`(top_k)`: every candidate is priced by the
    /// analytical cost model (see [`cypress_core::kernels::cost`]), and
    /// only the `top_k` best-predicted — plus a transferred neighbor
    /// winner, when the [`TuningTable`] knows one — are compiled and
    /// timed. With `top_k >= candidates.len()` this is bit-identical to
    /// [`MappingPolicy::Autotune`]; tensors are bitwise identical under
    /// every policy regardless.
    Guided {
        /// Best-predicted candidates to compile and time per sweep.
        top_k: usize,
    },
}

/// How a [`Session`] reacts to injected faults during a graph launch —
/// the fifth policy axis, layered on the [`cypress_sim::FaultPlan`]
/// attached with [`Session::set_fault_plan`].
///
/// The policy lives entirely in the *timing* domain: functional tensors
/// are computed along the deterministic topological data path before
/// the schedule is simulated, so a launch that completes under
/// [`FaultPolicy::Retry`] returns tensors bitwise identical to the
/// fault-free run. With no fault plan attached both policies are
/// bit-identical to each other and to the pre-fault runtime, timeline
/// included.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultPolicy {
    /// The first injected fault aborts the launch with a typed error —
    /// [`RuntimeError::NodeFailed`] for a transient kernel fault,
    /// [`RuntimeError::DeviceLost`] for a permanent device loss — each
    /// carrying the partial [`GraphReport`].
    #[default]
    FailFast,
    /// Transient faults re-execute the node (visible as
    /// `retry:`-prefixed spans in the timeline) after an optional
    /// backoff window; a permanent device loss evicts the device and
    /// the run degrades onto the survivors — unexecuted nodes re-shard
    /// (see [`crate::shard`]), stranded buffers drain over the links as
    /// `xfer:recover:` spans — and the launch completes with
    /// bitwise-identical tensors and a populated
    /// [`GraphReport::recovery`] section.
    Retry {
        /// Total launches one node may consume before the graph launch
        /// aborts with [`RuntimeError::NodeFailed`] (clamped to at
        /// least 1).
        max_attempts: u32,
        /// Cycles to wait before re-launching a transiently failed node
        /// (`0.0` retries immediately).
        backoff: f64,
    },
}

/// A task graph compiled once by [`Session::compile_graph`] — fusion
/// planned, every node's kernel compiled (through the kernel cache) and
/// its mapping chosen — ready to launch repeatedly against fresh inputs
/// with [`Session::launch_compiled`].
///
/// This is the replay primitive for serving loops: the fusion rewrite,
/// the Fig. 6 pass pipeline, the bytecode lowering, and any autotuning
/// all happen exactly once, at compile time. Each launch only re-binds
/// the `External` inputs and replays the already-lowered launches; the
/// graph topology is never re-walked and the compiler is never
/// consulted again. The handle owns [`Arc`]s to its compiled kernels,
/// so it stays valid even after [`Session::clear`] evicts the cache.
///
/// Results are bitwise identical to [`Session::launch_functional`] on
/// the same graph: the fusion and mapping decisions are frozen at
/// compile time, while the schedule policy and host parallelism in
/// effect at *launch* time shape the timeline (never the tensors).
#[derive(Debug)]
pub struct CompiledGraph {
    /// The graph as submitted; results stay addressed by its node ids.
    graph: TaskGraph,
    prepared: Prepared,
}

/// What one graph turns into under the session's fusion, placement and
/// mapping policies: the product of the one preparation step every
/// launch shares (see `Session::prepare`).
#[derive(Debug)]
struct Prepared {
    /// The fusion rewrite, when the session's policy rewrote the graph.
    plan: Option<FusionPlan>,
    /// The shard rewrite, when the session's placement policy
    /// partitioned the (possibly fused) graph across devices.
    shard: Option<ShardPlan>,
    /// The device topology the shard plan was made for, so a compiled
    /// graph replays against the same links.
    topology: Topology,
    /// One launch per executed node — of the sharded graph when `shard`
    /// is set, of the fused graph when `plan` is, of the submitted graph
    /// otherwise.
    launches: Vec<NodeLaunch>,
}

impl Prepared {
    /// `graph` after the fusion rewrite, if one fired.
    fn fused_graph<'a>(&'a self, graph: &'a TaskGraph) -> &'a TaskGraph {
        self.plan.as_ref().map_or(graph, |p| &p.graph)
    }

    /// The graph that actually executes: the sharded rewrite of the
    /// fused rewrite of `graph`, whichever of the two fired.
    fn exec_graph<'a>(&'a self, graph: &'a TaskGraph) -> &'a TaskGraph {
        match &self.shard {
            Some(s) => &s.graph,
            None => self.fused_graph(graph),
        }
    }
}

impl CompiledGraph {
    /// The graph this handle was compiled from (the caller's addressing).
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Number of launches a run of this handle performs (fewer than
    /// `graph().len()` when fusion collapsed nodes).
    #[must_use]
    pub fn launch_count(&self) -> usize {
        self.prepared.launches.len()
    }

    /// Whether the session's fusion policy rewrote this graph.
    #[must_use]
    pub fn is_fused(&self) -> bool {
        self.prepared.plan.is_some()
    }
}

/// A long-lived runtime for compiling and launching task graphs.
#[derive(Debug)]
pub struct Session {
    compiler: CypressCompiler,
    /// [`target_fingerprint`] of the compiler's machine and options and
    /// [`machine_fingerprint`] of the machine, hashed once here: with a
    /// program's memoized source hash they make a cache key or a tuning
    /// key without rendering anything.
    target: u64,
    machine_fp: u64,
    simulator: Simulator,
    cache: KernelCache,
    pool: BufferPool,
    policy: SchedulePolicy,
    mapping_policy: MappingPolicy,
    fusion_policy: FusionPolicy,
    placement_policy: PlacementPolicy,
    /// The fault axes: injected plan, [`FaultPolicy`], and the per-node /
    /// whole-graph deadlines (see the `set_fault_*` / `set_*_deadline`
    /// setters).
    fault: FaultContext,
    tuning: TuningTable,
    /// Compiled winners per tuning key, so warm `Autotune` launches skip
    /// the space builder entirely.
    tuned_launches: HashMap<TuningKey, NodeLaunch>,
    /// Keys whose space has no valid candidate on this machine, so warm
    /// fallback launches skip re-enumerating the candidate grid.
    untunable: HashSet<TuningKey>,
    /// Solo makespans per compiled-kernel fingerprint — what the fusion
    /// rewriter's simulator gate consults, memoized so warm launches pay
    /// hash lookups instead of re-simulation. `None` is the verdict
    /// "could not compile or time it", memoized too, so a rejected fused
    /// kernel is compiled once per session rather than on every launch.
    solo_cycles: HashMap<u64, Option<f64>>,
    /// The fusion rewriter's fused programs per `FusedKernel` (rule plus
    /// fitted shape; with this session's machine, everything the build
    /// reads), so a warm launch reuses one program — its identity
    /// already hashed — instead of building and hashing it afresh.
    /// `None` marks a kernel with no valid mapping on this machine.
    fused_programs: HashMap<FusedKernel, Option<Program>>,
    /// Telemetry sink every launch reports to (see
    /// [`Session::set_recorder`]); [`NoopRecorder`] by default, so the
    /// hot path constructs no events.
    recorder: Box<dyn Recorder>,
    /// Counters no component stats struct carries (fusion decisions,
    /// comm launches, functional apply bytes); unified with the cache,
    /// pool, and tuner stats by [`Session::metrics`].
    metrics: MetricsRegistry,
}

impl Session {
    /// A session targeting `machine` with default compiler options.
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        Session::with_options(CompilerOptions {
            machine,
            ..Default::default()
        })
    }

    /// A session with explicit compiler options.
    #[must_use]
    pub fn with_options(opts: CompilerOptions) -> Self {
        let machine = opts.machine.clone();
        Session {
            target: target_fingerprint(&machine, opts.spill_first),
            machine_fp: machine_fingerprint(&machine),
            compiler: CypressCompiler::new(opts),
            simulator: Simulator::new(machine),
            cache: KernelCache::new(),
            pool: BufferPool::new(),
            policy: SchedulePolicy::default(),
            mapping_policy: MappingPolicy::default(),
            fusion_policy: FusionPolicy::default(),
            placement_policy: PlacementPolicy::default(),
            fault: FaultContext::default(),
            tuning: TuningTable::new(),
            tuned_launches: HashMap::new(),
            untunable: HashSet::new(),
            solo_cycles: HashMap::new(),
            fused_programs: HashMap::new(),
            recorder: Box::new(NoopRecorder),
            metrics: MetricsRegistry::default(),
        }
    }

    /// The machine this session compiles for and simulates.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        self.simulator.machine()
    }

    /// Change how subsequent graph launches are scheduled.
    pub fn set_policy(&mut self, policy: SchedulePolicy) {
        self.policy = policy;
    }

    /// Builder-style [`Session::set_policy`].
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Change which mapping subsequent launches use.
    pub fn set_mapping_policy(&mut self, policy: MappingPolicy) {
        self.mapping_policy = policy;
    }

    /// Builder-style [`Session::set_mapping_policy`].
    #[must_use]
    pub fn with_mapping_policy(mut self, policy: MappingPolicy) -> Self {
        self.mapping_policy = policy;
        self
    }

    /// Choose whether graph launches are rewritten through the fusion
    /// rewriter (see [`crate::fuse`]). [`FusionPolicy::Off`] launches
    /// graphs exactly as written; [`FusionPolicy::Auto`] collapses
    /// producer→consumer patterns into the paper's fused kernels when
    /// the simulator confirms the fused launch wins — functional results
    /// stay bitwise identical either way.
    #[must_use]
    pub fn with_fusion_policy(mut self, policy: FusionPolicy) -> Self {
        self.fusion_policy = policy;
        self
    }

    /// Change how subsequent graph launches are placed onto simulated
    /// devices (see [`crate::shard`]).
    /// [`PlacementPolicy::SingleDevice`] keeps everything on one
    /// device; [`PlacementPolicy::Sharded`] partitions each graph
    /// across N devices connected by NVLink-class links, inserting
    /// explicit transfer kernels on cross-device edges — functional
    /// results stay bitwise identical at every device count.
    pub fn set_placement_policy(&mut self, policy: PlacementPolicy) {
        self.placement_policy = policy;
    }

    /// Builder-style [`Session::set_placement_policy`].
    #[must_use]
    pub fn with_placement_policy(mut self, policy: PlacementPolicy) -> Self {
        self.placement_policy = policy;
        self
    }

    /// Change how subsequent graph launches react to injected faults
    /// (see [`FaultPolicy`]). Inert until a fault plan is attached with
    /// [`Session::set_fault_plan`].
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.fault.policy = policy;
    }

    /// Builder-style [`Session::set_fault_policy`].
    #[must_use]
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault.policy = policy;
        self
    }

    /// Attach a deterministic [`FaultPlan`] that subsequent graph
    /// launches inject into their timing schedule (`None` detaches).
    /// An empty plan injects nothing and leaves every schedule
    /// bit-identical to a plan-free launch, timeline included. A plan
    /// never changes *how* launches are scheduled — the stream count
    /// stays the [`SchedulePolicy`]'s — only what happens to them.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault.plan = plan;
    }

    /// Builder-style [`Session::set_fault_plan`].
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault.plan = Some(plan);
        self
    }

    /// Bound the cycles from a node's first launch to its successful
    /// retirement: a node that exceeds the bound aborts the graph
    /// launch with [`RuntimeError::DeadlineExceeded`] carrying the
    /// partial report (`None` removes the bound).
    pub fn set_node_deadline(&mut self, deadline: Option<f64>) {
        self.fault.node_deadline = deadline;
    }

    /// Bound the whole schedule's makespan: a launch whose timeline
    /// passes the bound aborts with [`RuntimeError::DeadlineExceeded`]
    /// carrying the partial report (`None` removes the bound).
    pub fn set_graph_deadline(&mut self, deadline: Option<f64>) {
        self.fault.graph_deadline = deadline;
    }

    /// Builder-style [`Session::set_graph_deadline`].
    #[must_use]
    pub fn with_graph_deadline(mut self, deadline: f64) -> Self {
        self.fault.graph_deadline = Some(deadline);
        self
    }

    /// Bound the kernel cache to at most `capacity` compiled kernels
    /// (LRU eviction). Autotuning compiles one kernel per candidate, so
    /// bounded sessions keep memory flat.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache.set_capacity(Some(capacity));
        self
    }

    /// Bound the buffer pool to at most `capacity` parked buffers
    /// (least-recently-released eviction). Sessions serving
    /// shape-diverse graphs keep memory flat this way instead of
    /// parking one buffer per distinct shape forever.
    #[must_use]
    pub fn with_pool_capacity(mut self, capacity: usize) -> Self {
        self.pool.set_capacity(Some(capacity));
        self
    }

    /// Attach a telemetry [`Recorder`] that subsequent launches report
    /// to (mirrors [`Session::set_policy`]). The usual sink is a
    /// [`crate::TraceLog`] clone — keep one handle, hand the session the
    /// other, read the events after launching. Replacing the recorder
    /// drops the previous one; pass [`NoopRecorder`] to detach.
    pub fn set_recorder(&mut self, recorder: impl Recorder + 'static) {
        self.recorder = Box::new(recorder);
    }

    /// Builder-style [`Session::set_recorder`].
    #[must_use]
    pub fn with_recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// One unified snapshot of everything the session counts: cache,
    /// pool, and tuner stats plus fusion decisions, comm and fault
    /// counters, and the functional apply-path byte counters — the same
    /// at every worker count.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.cache.stats(), self.pool.stats(), self.tuning.stats())
    }

    /// The host worker threads the session currently uses.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.simulator.parallelism()
    }

    /// Set how many host worker threads the session may use (clamped to
    /// at least 1; new sessions default to the available cores). The
    /// workers parallelize *host-side* work — running ready graph nodes
    /// in the functional executor, compiling and timing autotune
    /// candidates, and solo-timing kernel batches. The worker count
    /// changes wall time only — there is one executor and one sweep, so
    /// tensors, reports, tuning winners, metrics, and the recorded event
    /// stream are identical at every setting.
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.simulator.set_parallelism(parallelism);
    }

    /// Builder-style [`Session::set_parallelism`].
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.set_parallelism(parallelism);
        self
    }

    /// The session's accumulated tuning results.
    #[must_use]
    pub fn tuning_table(&self) -> &TuningTable {
        &self.tuning
    }

    /// Adopt previously persisted tuning results (e.g. from
    /// [`TuningTable::load`]); entries in `table` replace the session's
    /// on key collisions, and any memoized launches are invalidated so
    /// subsequent autotuned launches use the imported winners without
    /// re-timing the space.
    pub fn import_tuning(&mut self, table: TuningTable) {
        // Imported winners may differ from the ones already launched;
        // drop the compiled-launch memo (and the untunable marks, which
        // the imported table supersedes) so neither serves stale picks.
        self.tuned_launches.clear();
        self.untunable.clear();
        self.tuning.merge(table);
    }

    /// The compile fingerprint of `program` in this session — the value
    /// [`CypressCompiler::fingerprint`] computes from the parts, here
    /// from the program's memoized source hash and the session's target
    /// hash.
    fn fingerprint_of(&self, program: &Program) -> u64 {
        combine(program.identity().source, self.target)
    }

    /// Compile `program`, reusing the cached kernel when the fingerprint
    /// of `(tasks, mapping, entry args, machine, options)` matches a
    /// previous compile. A hit returns the identical [`Compiled`] without
    /// re-running any pass.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError::Compile`] from the pass pipeline.
    pub fn compile(&mut self, program: &Program) -> Result<Arc<Compiled>, RuntimeError> {
        let fp = self.fingerprint_of(program);
        let before = self.recorder.enabled().then(|| self.cache.stats());
        let compiler = &self.compiler;
        let compiled = self.cache.get_or_compile(fp, || {
            compiler.compile_with_fingerprint(
                &program.registry,
                &program.mapping,
                &program.entry,
                &program.args,
                fp,
            )
        })?;
        if let Some(before) = before {
            record_cache_lookup(self.recorder.as_mut(), &self.cache, fp, before, &compiled);
        }
        Ok(compiled)
    }

    /// Autotune `program`'s mapping: enumerate its space's candidates
    /// for this session's machine, compile each through the kernel cache,
    /// time each with the simulator, and record the fastest in the
    /// session's [`TuningTable`] keyed by `(computation fingerprint,
    /// shape, machine fingerprint)`. Repeated calls (and
    /// [`MappingPolicy::Autotune`] launches) are served from the table
    /// without re-timing. Ties go to the earliest candidate in the
    /// space's deterministic enumeration order, so two sessions tuning
    /// the same program always pick the same winner.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoMappingSpace`] when the program carries no
    /// [`crate::SpaceBinding`]; [`RuntimeError::Untunable`] when the
    /// space has *no* candidate that validates and compiles for this
    /// session's machine and shape (e.g. the program was built for a
    /// different machine — [`MappingPolicy::Autotune`] launches fall
    /// back to the program's own mapping on this error instead of
    /// surfacing it). Candidates the compiler's allocator rejects are
    /// skipped — a space's `validate` is a cheap estimate, the compiler
    /// is the authority. Simulation failures still propagate.
    pub fn autotune(&mut self, program: &Program) -> Result<TunedMapping, RuntimeError> {
        self.autotune_with(program, TunerBudget::Exhaustive)
    }

    /// [`Session::autotune`] under an explicit [`TunerBudget`].
    ///
    /// [`TunerBudget::Exhaustive`] is exactly [`Session::autotune`].
    /// Under [`TunerBudget::TopK`]`(k)` the sweep first prices every
    /// candidate with the analytical cost model and keeps only the `k`
    /// best-predicted (deterministic total order: predicted cycles by
    /// `total_cmp`, then the encoded config as tie break; unpriceable
    /// candidates are never pruned). If the session's [`TuningTable`]
    /// holds a winner for the *same kernel and machine at a neighboring
    /// shape* ([`TuningTable::nearest_neighbor`]), that winner is added
    /// to the timed set as a transfer seed — under `TopK(0)` it is the
    /// *only* candidate timed, so warm fleets re-tune new shapes at the
    /// cost of one simulation. The kept candidates then flow through
    /// the one sweep in enumeration order, so
    /// `TopK(k >= candidates.len())` reproduces the exhaustive sweep bit
    /// for bit — same winner, same kernel-cache traffic, same
    /// `TunerCandidate` telemetry.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::autotune`].
    pub fn autotune_with(
        &mut self,
        program: &Program,
        budget: TunerBudget,
    ) -> Result<TunedMapping, RuntimeError> {
        let Some(binding) = program.space.clone() else {
            return Err(RuntimeError::NoMappingSpace {
                entry: program.entry.clone(),
            });
        };
        let machine = self.machine().clone();
        let key = key_for(program, &binding.shape, self.machine_fp);
        if let Some(done) = self.tuning.get(&key) {
            // Tables can be hand-edited or imported from elsewhere: a
            // stored winner that no longer validates is re-tuned below
            // (overwriting the bad entry) instead of being built blind.
            if binding
                .space
                .validate(&machine, &binding.shape, &done.config)
                .is_ok()
            {
                let done = done.clone();
                if self.recorder.enabled() {
                    self.recorder.record(Event::TunerSweep {
                        entry: program.entry.clone(),
                        shape: binding.shape.to_string(),
                        candidates: done.candidates,
                        winner: done.config.label(),
                        default_cycles: done.default_cycles,
                        tuned_cycles: done.tuned_cycles,
                        cached: true,
                    });
                }
                return Ok(done);
            }
        }

        let default_cfg = binding.space.default_for(&machine);
        let candidates = binding.space.candidates(&machine, &binding.shape);
        if candidates.is_empty() {
            // Nothing in the space is valid here; surface the default's
            // validation failure as the typed reason.
            let reason = match binding
                .space
                .validate(&machine, &binding.shape, &default_cfg)
            {
                Err(e) => e,
                Ok(()) => cypress_core::CompileError::Unsupported(format!(
                    "mapping space of `{}` emitted no candidates for shape {} on {}",
                    program.entry, binding.shape, machine.name
                )),
            };
            return Err(RuntimeError::Untunable {
                entry: program.entry.clone(),
                reason,
            });
        }

        let total = candidates.len();
        // Guided budgets shrink the candidate list *before* the sweep;
        // the survivors stay in enumeration order, so the sweep below
        // (and every tie break after it) is the exhaustive path's.
        let candidates = match budget {
            TunerBudget::Exhaustive => candidates,
            TunerBudget::TopK(k) => {
                let started = std::time::Instant::now();
                let (kept, pruned, transferred) =
                    self.rank_candidates(&binding, &key, candidates, k);
                self.tuning
                    .note_ranking(total as u64, pruned as u64, transferred);
                if self.recorder.enabled() {
                    self.recorder.record(Event::TunerRanked {
                        entry: program.entry.clone(),
                        shape: binding.shape.to_string(),
                        ranked: total,
                        pruned,
                        transferred,
                        host_ns: started.elapsed().as_nanos() as u64,
                    });
                }
                kept
            }
        };
        let timed = self.sweep(&binding, candidates)?;
        self.tuning.note_sweep(timed.len() as u64);
        if self.recorder.enabled() {
            for (cycles, cfg) in &timed {
                self.recorder.record(Event::TunerCandidate {
                    entry: program.entry.clone(),
                    config: cfg.label(),
                    cycles: *cycles,
                });
            }
        }
        let mut default_cycles = None;
        let mut best: Option<(f64, cypress_core::MappingConfig)> = None;
        for (cycles, cfg) in timed {
            if cfg == default_cfg {
                default_cycles = Some(cycles);
            }
            // Strict `<` keeps the earliest candidate on ties, making the
            // winner independent of session history.
            if best.as_ref().is_none_or(|(c, _)| cycles < *c) {
                best = Some((cycles, cfg));
            }
        }
        let Some((tuned_cycles, config)) = best else {
            return Err(RuntimeError::Untunable {
                entry: program.entry.clone(),
                reason: cypress_core::CompileError::Unsupported(format!(
                    "no candidate of `{}`'s mapping space compiles for shape {} on {}",
                    program.entry, binding.shape, machine.name
                )),
            });
        };
        // When the hand-tuned default is itself invalid for this
        // machine/shape (and therefore was never timed), report the
        // winner as the baseline: speedup 1.0, never a below-1.0 ratio
        // against a mapping that cannot run.
        let default_cycles = default_cycles.unwrap_or(tuned_cycles);
        // Record the model's prediction for the winner on *every*
        // budget — exhaustive sweeps included — so a guided sweep with
        // `top_k >= candidates.len()` produces a bit-identical entry.
        let predicted = binding
            .space
            .estimate(&machine, &binding.shape, &config)
            .map(|e| e.cycles);
        let tuned = TunedMapping {
            entry: binding.space.entry().to_string(),
            config,
            default_cycles,
            tuned_cycles,
            predicted_cycles: predicted.unwrap_or(0.0),
            candidates: total,
            model_version: if predicted.is_some() {
                COST_MODEL_VERSION
            } else {
                0
            },
        };
        self.tuning.insert(key, tuned.clone());
        if self.recorder.enabled() {
            self.recorder.record(Event::TunerSweep {
                entry: program.entry.clone(),
                shape: binding.shape.to_string(),
                candidates: total,
                winner: tuned.config.label(),
                default_cycles: tuned.default_cycles,
                tuned_cycles: tuned.tuned_cycles,
                cached: false,
            });
        }
        Ok(tuned)
    }

    /// The guided tuner's selection pass: price every candidate with
    /// the analytical cost model, keep the `k` best-predicted plus the
    /// transfer seed, and return `(kept in enumeration order, pruned
    /// count, transferred)`.
    ///
    /// Ranking is a deterministic total order — predicted cycles by
    /// `total_cmp`, ties broken by the encoded config — and unpriceable
    /// candidates (`estimate` returned `None`) sort ahead of every
    /// priced one, so a kernel the model does not understand is never
    /// pruned on its account. The transfer seed is the winner of the
    /// nearest tuned neighbor shape, admitted only when it is also one
    /// of *this* shape's enumerated candidates (which keeps, e.g., an
    /// FA3 winner from seeding an FA2 sweep); if the budget is already
    /// full it replaces the worst-ranked survivor.
    fn rank_candidates(
        &self,
        binding: &crate::program::SpaceBinding,
        key: &TuningKey,
        candidates: Vec<cypress_core::MappingConfig>,
        k: usize,
    ) -> (Vec<cypress_core::MappingConfig>, usize, bool) {
        let machine = self.machine();
        let total = candidates.len();
        let priced: Vec<Option<f64>> = candidates
            .iter()
            .map(|cfg| {
                binding
                    .space
                    .estimate(machine, &binding.shape, cfg)
                    .map(|e| e.cycles)
            })
            .collect();
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by(|&a, &b| match (priced[a], priced[b]) {
            (None, None) => candidates[a].encode().cmp(&candidates[b].encode()),
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(x), Some(y)) => x
                .total_cmp(&y)
                .then_with(|| candidates[a].encode().cmp(&candidates[b].encode())),
        });
        let keep = k.min(total);
        let mut selected = vec![false; total];
        for &i in order.iter().take(keep) {
            selected[i] = true;
        }
        let seed = self
            .tuning
            .nearest_neighbor(binding.space.entry(), key.machine, &key.shape)
            .and_then(|(_, t)| candidates.iter().position(|c| *c == t.config));
        let transferred = seed.is_some();
        if let Some(i) = seed {
            if !selected[i] {
                if keep > 0 {
                    selected[order[keep - 1]] = false;
                }
                selected[i] = true;
            }
        }
        // A zero budget with no transfer seed still times the single
        // best-predicted candidate: a sweep must produce a winner.
        if !selected.iter().any(|&s| s) {
            selected[order[0]] = true;
        }
        let kept: Vec<cypress_core::MappingConfig> = candidates
            .into_iter()
            .zip(&selected)
            .filter_map(|(cfg, &s)| s.then_some(cfg))
            .collect();
        let pruned = total - kept.len();
        (kept, pruned, transferred)
    }

    /// The cold sweep: compile every cache-missing candidate on the
    /// worker pool, issue the cache lookups in candidate order (so
    /// hit/miss counters, LRU behavior, and the recorded events are a
    /// function of the candidate list alone), then solo-time each
    /// distinct compiled kernel on the pool. Returns `(cycles, config)`
    /// in candidate order, so the caller's first-wins tie break is
    /// independent of the worker count. A space's `validate` is a cheap
    /// resource estimate and the compiler's allocator is the authority:
    /// candidates the builder or compiler rejects are skipped, not
    /// errors; simulation failures propagate.
    fn sweep(
        &mut self,
        binding: &crate::program::SpaceBinding,
        candidates: Vec<cypress_core::MappingConfig>,
    ) -> Result<Vec<(f64, cypress_core::MappingConfig)>, RuntimeError> {
        use cypress_sim::par;
        // Build every candidate program up front (cheap, pure); builder
        // rejections are skipped like compiler rejections.
        let mut built = Vec::with_capacity(candidates.len());
        for cfg in candidates {
            let Ok((registry, mapping, args)) = binding.space.build(&binding.shape, &cfg) else {
                continue;
            };
            let program = Program::new(registry, mapping, binding.space.entry(), args);
            let fp = self.fingerprint_of(&program);
            built.push((cfg, program, fp));
        }
        // Compile the cache misses on the worker pool.
        let compiler = &self.compiler;
        let mut queued = HashSet::new();
        let jobs: Vec<(u64, &Program)> = built
            .iter()
            .filter(|(_, _, fp)| self.cache.peek(*fp).is_none() && queued.insert(*fp))
            .map(|(_, program, fp)| (*fp, program))
            .collect();
        let mut precompiled: HashMap<u64, Result<cypress_core::Compiled, _>> =
            par::parallel_map(self.parallelism(), jobs, |(fp, p)| {
                let result = compiler.compile_with_fingerprint(
                    &p.registry,
                    &p.mapping,
                    &p.entry,
                    &p.args,
                    fp,
                );
                (fp, result)
            })
            .into_iter()
            .collect();
        // Issue the lookups in candidate order; misses consume the
        // precompiled kernels (recompiling inline only if a bounded cache
        // evicted an entry mid-sweep). This is also where the
        // `CacheLookup` (and miss-side `CompilePass`) events are
        // emitted, in candidate order.
        let mut resident = Vec::with_capacity(built.len());
        for (cfg, program, fp) in built {
            let before = self.recorder.enabled().then(|| self.cache.stats());
            let compiled = self.cache.get_or_compile(fp, || {
                precompiled.remove(&fp).unwrap_or_else(|| {
                    compiler.compile_with_fingerprint(
                        &program.registry,
                        &program.mapping,
                        &program.entry,
                        &program.args,
                        fp,
                    )
                })
            });
            match compiled {
                Ok(compiled) => {
                    if let Some(before) = before {
                        record_cache_lookup(
                            self.recorder.as_mut(),
                            &self.cache,
                            fp,
                            before,
                            &compiled,
                        );
                    }
                    resident.push((cfg, compiled));
                }
                // The compiler's allocator is the authority; its
                // rejections are skipped, not errors (and emit nothing,
                // like a failed `Session::compile`).
                Err(_) => continue,
            }
        }
        // Solo-time each distinct kernel on the worker pool. Timing is
        // deterministic per kernel, so deduplication cannot change any
        // candidate's cycles.
        let mut seen = HashSet::new();
        let sims: Vec<Arc<Compiled>> = resident
            .iter()
            .filter(|(_, c)| seen.insert(c.fingerprint))
            .map(|(_, c)| Arc::clone(c))
            .collect();
        let simulator = &self.simulator;
        let timed = par::parallel_map(self.parallelism(), sims, |c| {
            (
                c.fingerprint,
                simulator.run_timing_lowered(&c.kernel, &c.lowered),
            )
        });
        let mut cycles_by_fp = HashMap::new();
        for (fp, report) in timed {
            cycles_by_fp.insert(fp, report?.cycles);
        }
        resident
            .into_iter()
            .map(|(cfg, compiled)| {
                let cycles = cycles_by_fp.get(&compiled.fingerprint).ok_or_else(|| {
                    RuntimeError::Internal {
                        what: "a resident autotune candidate was never timed".into(),
                    }
                })?;
                Ok((*cycles, cfg))
            })
            .collect()
    }

    /// The program a node should launch under the session's
    /// [`MappingPolicy`], with its mapping annotation.
    ///
    /// Tuned launches are memoized per [`crate::TuningKey`], so a warm
    /// serving loop pays one map lookup per node — keyed by hashes the
    /// program and the session already hold, the same as the default
    /// path — instead of re-running the space's builder. A
    /// program whose space has no valid candidate on this machine (e.g.
    /// built for a different machine) falls back to its own mapping.
    fn node_launch(&mut self, program: &Program) -> Result<NodeLaunch, RuntimeError> {
        let budget = match self.mapping_policy {
            MappingPolicy::Default => None,
            MappingPolicy::Autotune => Some(TunerBudget::Exhaustive),
            MappingPolicy::Guided { top_k } => Some(TunerBudget::TopK(top_k)),
        };
        if let Some(budget) = budget {
            if let Some(binding) = program.space.clone() {
                let key = key_for(program, &binding.shape, self.machine_fp);
                if let Some(hit) = self.tuned_launches.get(&key) {
                    return Ok(hit.clone());
                }
                // The fallback launch depends on the program's own
                // mapping (which the tuning key deliberately excludes),
                // so only the *untunability* of the key is memoized; the
                // launch itself routes through the per-program compile.
                if !self.untunable.contains(&key) {
                    match self.autotune_with(program, budget) {
                        Ok(tuned) => {
                            let (registry, mapping, args) =
                                binding.space.build(&binding.shape, &tuned.config)?;
                            let candidate =
                                Program::new(registry, mapping, binding.space.entry(), args);
                            let compiled = self.compile(&candidate)?;
                            // A winner that *is* the hand-tuned default
                            // reads as "default" so reports match the
                            // Default policy's rendering for the
                            // identical kernel.
                            let mapping_label =
                                if tuned.config == binding.space.default_for(self.machine()) {
                                    "default".to_string()
                                } else {
                                    tuned.config.label()
                                };
                            let launch = NodeLaunch {
                                compiled,
                                mapping: mapping_label,
                                tuned_speedup: tuned.speedup(),
                                replaced: Vec::new(),
                                device: 0,
                                comm: None,
                            };
                            self.tuned_launches.insert(key, launch.clone());
                            return Ok(launch);
                        }
                        // No valid candidate here: remember that and run
                        // the program's own mapping.
                        Err(RuntimeError::Untunable { .. }) => {
                            self.untunable.insert(key);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(NodeLaunch {
            compiled: self.compile(program)?,
            mapping: "default".to_string(),
            tuned_speedup: 1.0,
            replaced: Vec::new(),
            device: 0,
            comm: None,
        })
    }

    /// Plan fusion for `graph` under the session's [`FusionPolicy`]:
    /// `None` when the policy is `Off` or no rewrite fired.
    fn fusion_plan(&mut self, graph: &TaskGraph) -> Result<Option<FusionPlan>, RuntimeError> {
        if self.fusion_policy == FusionPolicy::Off {
            return Ok(None);
        }
        let (plan, declined) = fuse::plan(graph, self)?;
        if let Some(plan) = &plan {
            self.metrics.fusion_applied += plan.rewrites.len() as u64;
        }
        self.metrics.fusion_declined += declined.len() as u64;
        if self.recorder.enabled() {
            if let Some(plan) = &plan {
                for r in &plan.rewrites {
                    self.recorder.record(Event::FusionApplied {
                        rule: r.rule,
                        fused: plan.graph.nodes()[r.fused.index()].name.clone(),
                        replaced: r.replaced.clone(),
                        fused_cycles: r.fused_cycles,
                        unfused_cycles: r.unfused_cycles,
                    });
                }
            }
            for d in declined {
                self.recorder.record(Event::FusionDeclined {
                    rule: d.rule,
                    replaced: d.replaced,
                    fused_cycles: d.fused_cycles,
                    unfused_cycles: d.unfused_cycles,
                });
            }
        }
        Ok(plan)
    }

    /// Shard `graph` across `topology`'s devices under the session's
    /// [`PlacementPolicy`]: `None` below two devices (placement is the
    /// identity there), otherwise the [`ShardPlan`] with its telemetry
    /// (one [`Event::ShardAssigned`] per sharded-graph node, one
    /// [`Event::LinkTransfer`] per inserted transfer) and the comm
    /// counters bumped.
    fn shard_plan(
        &mut self,
        graph: &TaskGraph,
        topology: &Topology,
    ) -> Result<Option<ShardPlan>, RuntimeError> {
        if self.placement_policy.devices() < 2 {
            return Ok(None);
        }
        let plan = shard::plan(graph, topology)?;
        self.metrics.comm_launches += plan.transfers.len() as u64;
        self.metrics.link_bytes += plan.transfers.iter().map(|t| t.bytes).sum::<f64>() as u64;
        if self.recorder.enabled() {
            for (i, node) in plan.graph.nodes().iter().enumerate() {
                self.recorder.record(Event::ShardAssigned {
                    node: node.name.clone(),
                    device: plan.device(i),
                });
            }
            for t in &plan.transfers {
                self.recorder.record(Event::LinkTransfer {
                    link: t.link,
                    src: t.src,
                    dst: t.dst,
                    bytes: t.bytes,
                });
            }
        }
        Ok(Some(plan))
    }

    /// The one preparation step behind every graph launch: plan fusion,
    /// shard the (possibly fused) graph across the placement policy's
    /// topology, and compile one launch per executed node, indexed by
    /// `NodeId::index()`. Each launch carries its device, transfer nodes
    /// carry their link accounting, and fused nodes the names of the
    /// nodes they replaced (through the shard's origin map when both
    /// rewrites fired).
    fn prepare(&mut self, graph: &TaskGraph) -> Result<Prepared, RuntimeError> {
        // One device for `SingleDevice`, an all-pairs NVLink mesh for
        // `Sharded` — at one device the mesh *is* the single-device
        // topology, which keeps `Sharded { devices: 1 }` bit-identical.
        let topology = Topology::nvlink(self.machine(), self.placement_policy.devices());
        let plan = self.fusion_plan(graph)?;
        let fused_graph = plan.as_ref().map_or(graph, |p| &p.graph);
        let shard = self.shard_plan(fused_graph, &topology)?;
        let exec_graph = shard.as_ref().map_or(fused_graph, |s| &s.graph);
        let replaced = plan.as_ref().map(FusionPlan::replaced_by_node);
        let mut launches = Vec::with_capacity(exec_graph.len());
        for (i, node) in exec_graph.nodes().iter().enumerate() {
            let mut launch = self.node_launch(&node.program)?;
            let mut origin = Some(i);
            if let Some(shard) = &shard {
                launch.device = shard.device(i);
                launch.comm = shard.transfer_of(i).map(|t| CommLaunch {
                    link: t.link,
                    bytes: t.bytes,
                });
                origin = shard.origin(i);
            }
            if let (Some(replaced), Some(origin)) = (&replaced, origin) {
                launch.replaced = replaced[origin].clone();
            }
            launches.push(launch);
        }
        Ok(Prepared {
            plan,
            shard,
            topology,
            launches,
        })
    }

    /// Announce a graph launch to the recorder.
    fn record_submitted(&mut self, graph: &TaskGraph, mode: &'static str) {
        if self.recorder.enabled() {
            self.recorder.record(Event::GraphSubmitted {
                nodes: graph.len(),
                mode,
            });
        }
    }

    /// Fold one launch's [`crate::Recovery`] section — of its report, or
    /// of the partial report inside a fault-carrying error, so failed
    /// launches count too — into the session metrics.
    fn note_recovery(&mut self, outcome: Result<&GraphReport, &RuntimeError>) {
        let report = match outcome {
            Ok(report) => report,
            Err(RuntimeError::NodeFailed { report, .. })
            | Err(RuntimeError::DeviceLost { report, .. })
            | Err(RuntimeError::DeadlineExceeded { report, .. }) => report,
            Err(_) => return,
        };
        self.metrics.faults_injected += report.recovery.faults;
        self.metrics.retries += report.recovery.retries;
        self.metrics.devices_evicted += report.recovery.evicted_devices.len() as u64;
        self.metrics.nodes_resharded += report.recovery.resharded_nodes.len() as u64;
    }

    /// Run a prepared graph functionally against `inputs` and re-address
    /// the results to `graph`'s node ids.
    fn launch_prepared(
        &mut self,
        graph: &TaskGraph,
        prepared: &Prepared,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<GraphRun, RuntimeError> {
        let run = executor::run_functional(
            &self.simulator,
            &prepared.topology,
            prepared.exec_graph(graph),
            &prepared.launches,
            inputs,
            &mut self.pool,
            self.policy,
            &self.fault,
            self.recorder.as_mut(),
        );
        self.note_recovery(run.as_ref().map(|run| &run.report));
        let run = run?;
        self.metrics.apply_bytes.merge(run.apply_bytes);
        let run = match &prepared.shard {
            Some(s) => {
                executor::remap_run(run, prepared.fused_graph(graph), &|i, p| s.target(i, p))
            }
            None => run,
        };
        Ok(match &prepared.plan {
            Some(p) => executor::remap_run(run, graph, &|i, q| p.target(i, q)),
            None => run,
        })
    }

    /// Launch `graph` functionally: real data flows along the graph's
    /// tensor-buffer edges, `inputs` supplies the `External` bindings, and
    /// the result holds every retained node's final tensors plus the
    /// whole-graph timing report.
    ///
    /// Under [`FusionPolicy::Auto`] the graph is first rewritten through
    /// the fusion rewriter (see [`crate::fuse`]); results stay addressed
    /// by *this* graph's node ids and are bitwise identical to the
    /// unfused launch, while the report shows the fused launches (each
    /// [`crate::NodeTiming::replaced`] lists the original nodes).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on compile failure, missing or mis-shaped
    /// inputs, or simulation failure.
    pub fn launch_functional(
        &mut self,
        graph: &TaskGraph,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<GraphRun, RuntimeError> {
        self.record_submitted(graph, "functional");
        let prepared = self.prepare(graph)?;
        self.launch_prepared(graph, &prepared, inputs)
    }

    /// Compile `graph` once into a reusable [`CompiledGraph`] handle:
    /// plan fusion under the session's [`FusionPolicy`], compile every
    /// node (through the kernel cache, autotuning under
    /// [`MappingPolicy::Autotune`]), and freeze the resulting launches.
    /// [`Session::launch_compiled`] then re-binds fresh inputs against
    /// the handle without re-walking the graph or re-consulting the
    /// compiler.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on compile failure or when the fusion
    /// gate's timing simulation fails.
    pub fn compile_graph(&mut self, graph: &TaskGraph) -> Result<CompiledGraph, RuntimeError> {
        Ok(CompiledGraph {
            graph: graph.clone(),
            prepared: self.prepare(graph)?,
        })
    }

    /// Launch a [`CompiledGraph`] functionally against fresh `inputs`:
    /// the repeat-launch half of [`Session::compile_graph`]. Equivalent
    /// to [`Session::launch_functional`] on the handle's graph — same
    /// tensors, bit for bit — minus all per-launch compilation work.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on missing or mis-shaped inputs, or on
    /// simulation failure.
    pub fn launch_compiled(
        &mut self,
        compiled: &CompiledGraph,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<GraphRun, RuntimeError> {
        self.record_submitted(&compiled.graph, "functional");
        self.launch_prepared(&compiled.graph, &compiled.prepared, inputs)
    }

    /// Launch `graph` in timing mode: no data moves; the result is the
    /// whole-graph [`GraphReport`] with per-node stream timeline, built
    /// according to the session's [`SchedulePolicy`]. Under
    /// [`MappingPolicy::Autotune`] each node with a mapping space
    /// transparently launches its tuned mapping, and the report's
    /// per-node `mapping` / `tuned_speedup` fields say what ran. Under
    /// [`FusionPolicy::Auto`] the timeline shows the fused launches,
    /// each annotated with the original nodes it replaced.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on compile or simulation failure.
    pub fn launch_timing(&mut self, graph: &TaskGraph) -> Result<GraphReport, RuntimeError> {
        self.record_submitted(graph, "timing");
        let prepared = self.prepare(graph)?;
        let report = executor::run_timing(
            &self.simulator,
            &prepared.topology,
            prepared.exec_graph(graph),
            &prepared.launches,
            self.policy,
            &self.fault,
            self.recorder.as_mut(),
        );
        self.note_recovery(report.as_ref());
        report
    }

    /// Compile (with caching) and functionally run a single program —
    /// the one-kernel special case of [`Session::launch_functional`],
    /// mirroring [`Simulator::run_functional`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on compile or simulation failure.
    pub fn run_functional(
        &mut self,
        program: &Program,
        params: Vec<Tensor>,
    ) -> Result<Vec<Tensor>, RuntimeError> {
        let launch = self.node_launch(program)?;
        let run = self.simulator.run_functional_lowered(
            &launch.compiled.kernel,
            &launch.compiled.lowered,
            params,
        )?;
        self.metrics.apply_bytes.merge(run.apply_bytes);
        Ok(run.params)
    }

    /// Compile (with caching) and time a single program (under
    /// [`MappingPolicy::Autotune`], its tuned mapping).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on compile or simulation failure.
    pub fn run_timing(&mut self, program: &Program) -> Result<TimingReport, RuntimeError> {
        let launch = self.node_launch(program)?;
        Ok(self
            .simulator
            .run_timing_lowered(&launch.compiled.kernel, &launch.compiled.lowered)?)
    }

    /// Kernel-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Buffer-pool counters.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Drop all cached kernels, pooled buffers and the session's launch
    /// memos: the compiled autotuned winners, the fusion gate's solo
    /// cycles and "could not evaluate" verdicts, and the fusion
    /// rewriter's fused programs. The next launch rebuilds and re-times
    /// what it needs and reports exactly what it reported before.
    /// Counters, tuning results and the marks of untunable programs are
    /// kept.
    pub fn clear(&mut self) {
        self.cache.clear();
        self.tuned_launches.clear();
        self.solo_cycles.clear();
        self.fused_programs.clear();
        self.pool.clear();
    }
}

/// Emit the [`Event::CacheLookup`] for one successful lookup (hit and
/// eviction flags read from the cache's own counter deltas since
/// `before`) and, on a miss, the opt-in host-time [`Event::CompilePass`]
/// stream of the freshly compiled kernel.
fn record_cache_lookup(
    recorder: &mut dyn Recorder,
    cache: &KernelCache,
    fp: u64,
    before: CacheStats,
    compiled: &Compiled,
) {
    let after = cache.stats();
    let hit = after.hits > before.hits;
    recorder.record(Event::CacheLookup {
        fingerprint: fp,
        hit,
        evictions: after.evictions - before.evictions,
    });
    if !hit {
        for (pass, ns) in &compiled.pass_nanos {
            recorder.record(Event::CompilePass {
                pass: pass.clone(),
                host_ns: *ns,
            });
        }
    }
}

impl fuse::FusionGate for Session {
    /// Solo cycles of `program`, compiled through the kernel cache and
    /// memoized per fingerprint: what the fusion rewriter compares. A
    /// program that does not compile (the rewriter's candidate did not
    /// fit this machine after all) yields `None`, vetoing its rewrite —
    /// memoized like a success, since compile and simulation are
    /// deterministic in the fingerprint.
    fn solo_cycles(&mut self, program: &Program) -> Option<f64> {
        let fp = self.fingerprint_of(program);
        if let Some(&verdict) = self.solo_cycles.get(&fp) {
            return verdict;
        }
        let verdict = self.compile(program).ok().and_then(|compiled| {
            self.simulator
                .run_timing_lowered(&compiled.kernel, &compiled.lowered)
                .ok()
                .map(|report| report.cycles)
        });
        self.solo_cycles.insert(fp, verdict);
        verdict
    }

    /// `kernel`'s program for this session's machine, built on first
    /// request and shared by every later one (`None` memoized too).
    fn fused_program(&mut self, kernel: FusedKernel) -> Option<Program> {
        let machine = self.simulator.machine();
        self.fused_programs
            .entry(kernel)
            .or_insert_with(|| kernel.build(machine).ok())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Binding;
    use cypress_core::kernels::{gemm, reduction};

    fn gemm_program(m: usize, n: usize, k: usize) -> Program {
        Program::from_parts(
            gemm::build(m, n, k, &MachineConfig::test_gpu()).unwrap(),
            "gemm",
        )
    }

    fn auto_session() -> Session {
        Session::new(MachineConfig::test_gpu()).with_fusion_policy(FusionPolicy::Auto)
    }

    /// A GEMM chain `up -> down` through a `64 x mid` intermediate, plus
    /// a GEMM and a row-reduction over one source.
    fn graph(mid: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let operands = |a: Binding, b: &str| vec![Binding::Zeros, a, Binding::external(b)];
        let up = g
            .add_node(
                "up",
                gemm_program(64, mid, 64),
                operands(Binding::external("X"), "W1"),
            )
            .unwrap();
        g.add_node(
            "down",
            gemm_program(64, 64, mid),
            operands(Binding::output(up, 0), "W2"),
        )
        .unwrap();
        g.add_node(
            "proj",
            gemm_program(64, 64, 64),
            operands(Binding::external("Y"), "W3"),
        )
        .unwrap();
        let stat = reduction::build(64, 64, &MachineConfig::test_gpu()).unwrap();
        g.add_node(
            "stat",
            Program::from_parts(stat, "reduce"),
            vec![Binding::Zeros, Binding::external("Y")],
        )
        .unwrap();
        g
    }

    /// The fused nodes' programs of one more plan of `graph`.
    fn fused_programs(session: &mut Session, graph: &TaskGraph) -> Vec<Program> {
        let compiled = session.compile_graph(graph).unwrap();
        let plan = compiled.prepared.plan.expect("the graph fuses");
        plan.rewrites
            .iter()
            .map(|r| plan.graph.nodes()[r.fused.index()].program.clone())
            .collect()
    }

    #[test]
    fn fused_programs_are_built_once_per_session() {
        let graph = graph(64);
        let mut session = auto_session();
        let first = fused_programs(&mut session, &graph);
        assert_eq!(first.len(), 2, "both rules fire");
        let second = fused_programs(&mut session, &graph);
        for (a, b) in first.iter().zip(&second) {
            assert!(a.shares_parts_with(b), "`{}` was rebuilt", a.entry);
        }
        // Another session builds its own, structurally identical ones.
        let other = fused_programs(&mut auto_session(), &graph);
        for (a, b) in first.iter().zip(&other) {
            assert!(!a.shares_parts_with(b));
            assert_eq!(a.identity(), b.identity());
        }
    }

    #[test]
    fn a_chain_with_no_valid_mapping_is_built_once() {
        // A 64 x 1024 f16 band is 128 KiB; the test machine has 64.
        let graph = graph(1024);
        let chain = FusedKernel::Chain {
            m: 64,
            n: 64,
            k: 64,
            mid: 1024,
        };
        assert!(chain.build(&MachineConfig::test_gpu()).is_err());
        let mut session = auto_session();
        for _ in 0..2 {
            let (plan, _) = fuse::plan(&graph, &mut session).unwrap();
            let replaced = plan.expect("the pair still fuses").replaced_by_node();
            assert!(!replaced.contains(&vec!["up".to_string(), "down".to_string()]));
            // One negative entry, found by every plan after the first.
            assert_eq!(session.fused_programs.len(), 2);
            assert!(matches!(session.fused_programs.get(&chain), Some(None)));
        }
    }

    #[test]
    fn clear_drops_the_fusion_memos_and_no_report_bit() {
        let graph = graph(64);
        let mut session = auto_session();
        session.launch_timing(&graph).unwrap();
        let before = session.launch_timing(&graph).unwrap();
        let held = fused_programs(&mut session, &graph);
        session.clear();
        assert!(session.fused_programs.is_empty() && session.solo_cycles.is_empty());
        let after = session.launch_timing(&graph).unwrap();
        assert_eq!(format!("{after:?}"), format!("{before:?}"));
        for (old, new) in held.iter().zip(fused_programs(&mut session, &graph)) {
            assert!(
                !old.shares_parts_with(&new),
                "`{}` survived clear",
                old.entry
            );
            assert_eq!(old.identity(), new.identity());
        }
    }
}
