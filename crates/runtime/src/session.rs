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
//! edge becomes a link launch on the timeline, with no copy kernel, and
//! the scheduler overlaps communication with compute. Tensors are
//! bitwise identical at every device count. `Sharded { devices: 1 }` is
//! exactly `SingleDevice`, timeline included.
#![deny(clippy::too_many_lines)]

use crate::cache::{CacheStats, KernelCache};
use crate::error::RuntimeError;
use crate::executor;
use crate::executor::{FaultContext, GraphRun, Launch, NodeLaunch, Work};
use crate::fuse::{self, FusedKernel, FusionPlan, FusionPolicy};
use crate::graph::TaskGraph;
use crate::pool::BufferPool;
use crate::program::Program;
use crate::report::GraphReport;
use crate::shard::PlacementPolicy;
use crate::telemetry::{Event, MetricsSnapshot, TraceLog};
use crate::tuner::{key_for, TunedMapping, TunerBudget, TuningKey, TuningTable};
use cypress_core::fingerprint::{combine, machine_fingerprint, resume_source, target_fingerprint};
use cypress_core::{Compiled, CompilerOptions, CypressCompiler, COST_MODEL_VERSION};
use cypress_sim::{FaultPlan, MachineConfig, Simulator, TimingOutcome, TimingReport, Topology};
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
    pub(crate) fn streams(&self) -> usize {
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
/// attached with [`Session::with_fault_plan`].
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
    /// (see [`PlacementPolicy`]), stranded buffers drain over the links as
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
pub(crate) struct Prepared {
    /// The fusion rewrite, when the session's policy rewrote the graph.
    plan: Option<FusionPlan>,
    /// The device topology the timeline was placed on, so a compiled
    /// graph replays against the same links.
    pub(crate) topology: Topology,
    /// One launch per node of the executed graph: the fused graph when
    /// `plan` is set, the submitted graph otherwise.
    pub(crate) nodes: Vec<NodeLaunch>,
    /// How the scheduler times them: the nodes on their devices, with a
    /// link transfer before each cross-device consumer.
    pub(crate) timeline: Vec<Launch>,
}

impl Prepared {
    /// The graph that executes: `graph` after the fusion rewrite, if one
    /// fired.
    fn graph<'a>(&'a self, graph: &'a TaskGraph) -> &'a TaskGraph {
        self.plan.as_ref().map_or(graph, |p| &p.graph)
    }
}

impl CompiledGraph {
    /// The graph this handle was compiled from (the caller's addressing).
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Number of launches a run of this handle performs, link
    /// transfers included (fewer than `graph().len()` when fusion
    /// collapsed nodes).
    #[must_use]
    pub fn launch_count(&self) -> usize {
        self.prepared.timeline.len()
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
    /// [`target_fingerprint`] and [`machine_fingerprint`] of the
    /// machine, hashed once here: with a
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
    /// The fault axes: injected plan and [`FaultPolicy`] (see the
    /// `with_fault_*` builders).
    fault: FaultContext,
    tuning: TuningTable,
    /// Compiled winners per tuning key, so warm `Autotune` launches skip
    /// the space builder entirely.
    tuned_launches: HashMap<TuningKey, NodeLaunch>,
    /// Keys whose space has no valid candidate on this machine, so warm
    /// fallback launches skip re-enumerating the candidate grid.
    untunable: HashSet<TuningKey>,
    /// Solo timing reports per compiled-kernel fingerprint (the cache
    /// key, which covers the machine): every solo timing the session
    /// makes reads and fills this one memo, so a warm launch re-simulates
    /// nothing. `None` is the fusion gate's memoized verdict "could not
    /// compile or time it", so a rejected fused kernel is compiled once.
    solo: HashMap<u64, Option<TimingReport>>,
    /// The fusion rewriter's fused programs per `FusedKernel` (rule plus
    /// fitted shape; with this session's machine, everything the build
    /// reads), so a warm launch reuses one program — its identity
    /// already hashed — instead of building and hashing it afresh.
    /// `None` marks a kernel with no valid mapping on this machine.
    fused_programs: HashMap<FusedKernel, Option<Program>>,
    /// The event log every launch reports to (see
    /// [`Session::with_recorder`]); `None` by default, so the hot path
    /// constructs no events.
    recorder: Option<TraceLog>,
    /// Counters no component stats struct carries (fusion decisions,
    /// comm launches, fault counters, functional apply bytes). Its
    /// `cache` / `pool` / `tuner` fields stay at their defaults:
    /// [`Session::metrics`] fills them in from the components.
    metrics: MetricsSnapshot,
}

impl Session {
    /// A session that compiles for and simulates `machine`.
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        Session {
            target: target_fingerprint(&machine),
            machine_fp: machine_fingerprint(&machine),
            compiler: CypressCompiler::new(CompilerOptions {
                machine: machine.clone(),
                ..Default::default()
            }),
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
            solo: HashMap::new(),
            fused_programs: HashMap::new(),
            recorder: None,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// The machine this session compiles for and simulates.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        self.simulator.machine()
    }

    /// Schedule subsequent graph launches under `policy`.
    ///
    /// Every `with_*` setting applies to the launches after it and leaves
    /// the session's kernel cache, buffer pool, tuning table and launch
    /// memos as they are, so a warm session is re-pointed in place:
    /// `session = session.with_policy(..)`.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Choose which mapping subsequent launches use (see
    /// [`MappingPolicy`]).
    #[must_use]
    pub fn with_mapping_policy(mut self, policy: MappingPolicy) -> Self {
        self.mapping_policy = policy;
        self
    }

    /// Choose whether graph launches are rewritten through the fusion
    /// rewriter (see [`FusionPolicy`]). [`FusionPolicy::Off`] launches
    /// graphs exactly as written; [`FusionPolicy::Auto`] collapses
    /// producer→consumer patterns into the paper's fused kernels when
    /// the simulator confirms the fused launch wins — functional results
    /// stay bitwise identical either way.
    #[must_use]
    pub fn with_fusion_policy(mut self, policy: FusionPolicy) -> Self {
        self.fusion_policy = policy;
        self
    }

    /// Choose how subsequent graph launches are placed onto simulated
    /// devices.
    /// [`PlacementPolicy::SingleDevice`] keeps everything on one
    /// device; [`PlacementPolicy::Sharded`] partitions each graph
    /// across N devices connected by NVLink-class links, launching a
    /// link transfer on every cross-device edge — functional results
    /// stay bitwise identical at every device count.
    #[must_use]
    pub fn with_placement_policy(mut self, policy: PlacementPolicy) -> Self {
        self.placement_policy = policy;
        self
    }

    /// Choose how subsequent graph launches react to injected faults
    /// (see [`FaultPolicy`]). Inert until a fault plan is attached with
    /// [`Session::with_fault_plan`].
    #[must_use]
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault.policy = policy;
        self
    }

    /// Attach a deterministic [`FaultPlan`] that subsequent graph
    /// launches inject into their timing schedule, replacing the
    /// previous one. An empty plan — the default, and how a plan is
    /// detached — injects nothing and leaves every schedule
    /// bit-identical to a fault-free launch, timeline included. A plan
    /// never changes *how* launches are scheduled — the stream count
    /// stays the [`SchedulePolicy`]'s — only what happens to them.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault.plan = plan;
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

    /// Attach an event log that subsequent launches report to. Clones
    /// of a [`TraceLog`] share one buffer: keep one handle, hand the
    /// session the other, read the events after launching. Attaching a
    /// log replaces the previous one.
    #[must_use]
    pub fn with_recorder(mut self, log: TraceLog) -> Self {
        self.recorder = Some(log);
        self
    }

    /// One unified snapshot of everything the session counts: cache,
    /// pool, and tuner stats plus fusion decisions, comm and fault
    /// counters, and the functional apply-path byte counters — the same
    /// at every worker count.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cache: self.cache.stats(),
            pool: self.pool.stats(),
            tuner: self.tuning.stats(),
            ..self.metrics
        }
    }

    /// The host worker threads the session currently uses.
    #[must_use]
    pub(crate) fn parallelism(&self) -> usize {
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
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.simulator = self.simulator.with_parallelism(parallelism);
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
    /// of `(tasks, mapping, entry args, machine)` matches a
    /// previous compile. A hit returns the identical [`Compiled`] without
    /// re-running any pass.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError::Compile`] from the pass pipeline.
    pub fn compile(&mut self, program: &Program) -> Result<Arc<Compiled>, RuntimeError> {
        let fp = self.fingerprint_of(program);
        let before = self.recorder.is_some().then(|| self.cache.stats());
        let compiler = &self.compiler;
        let compiled = self.cache.get_or_compile(fp, || {
            compiler
                .front(
                    &program.registry,
                    &program.mapping,
                    &program.entry,
                    &program.args,
                )?
                .finish(&program.mapping, fp)
        })?;
        if let (Some(log), Some(before)) = (&self.recorder, before) {
            record_cache_lookup(log, &self.cache, fp, before, &compiled);
        }
        Ok(compiled)
    }

    /// Autotune `program`'s mapping: enumerate its space's candidates
    /// for this session's machine, compile each through the kernel cache,
    /// time them with the simulator, and record the fastest in the
    /// session's [`TuningTable`] keyed by `(computation fingerprint,
    /// shape, machine fingerprint)`. Repeated calls (and
    /// [`MappingPolicy::Autotune`] launches) are served from the table
    /// without re-timing. Ties go to the earliest candidate in the
    /// space's deterministic enumeration order, so two sessions tuning
    /// the same program always pick the same winner.
    ///
    /// The sweep simulates only what could win. It times a *seed* first:
    /// the space's hand-tuned `default_for` mapping, or, when that is not
    /// among the compiled candidates, the one the cost model ranks best.
    /// It then skips every candidate whose [`Simulator::timing_floor`] —
    /// a proven lower bound on its cycles — is above the seed's cycles,
    /// or equal to them and later in enumeration order (the tie would go
    /// to the seed), and times the rest in one batch, each with
    /// [`Simulator::run_timing_bounded`] at the seed's cycles: a run
    /// stops once it is proven slower than the seed, and is neither
    /// memoized nor a winner. A run as fast as the seed finishes, so
    /// ties break as before. The skipped and the stopped sets are a
    /// function of the candidate list alone, so the winner is the one an
    /// exhaustive timing would pick, at every worker count.
    /// [`crate::TunerStats::bounded`] counts the skipped candidates and
    /// [`crate::TunerStats::cut`] the stopped ones.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoMappingSpace`] when the program carries no
    /// [`crate::SpaceBinding`]; [`RuntimeError::Untunable`] when the
    /// space has *no* candidate that validates and compiles for this
    /// session's machine and shape (e.g. the program was built for a
    /// different machine — [`MappingPolicy::Autotune`] launches fall
    /// back to the program's own mapping on this error instead of
    /// surfacing it). Candidates the compiler rejects are skipped — a
    /// space's `validate` predicts the kernel's budgets, the compiled
    /// kernel's validation decides. Simulation failures of the
    /// candidates the sweep times still propagate, unless a bounded run
    /// stops before it meets its failure.
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
    /// shape* (`TuningTable::nearest_neighbor`), that winner is added
    /// to the kept set as a transfer seed — under `TopK(0)` it is the
    /// *only* candidate, so warm fleets re-tune new shapes at the
    /// cost of one simulation. The kept candidates then flow through
    /// the one sweep in enumeration order — seed, floor skip and all —
    /// so `TopK(k >= candidates.len())` reproduces the exhaustive sweep
    /// bit for bit: same winner, same kernel-cache traffic, same
    /// skipped candidates, same `TunerCandidate` telemetry.
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
        let key = key_for(program, &binding.shape, self.machine_fp);
        if let Some(done) = self.tuned_from_table(program, &binding, &key) {
            return Ok(done);
        }
        let candidates = binding.space.candidates(self.machine(), &binding.shape);
        if candidates.is_empty() {
            // Nothing in the space is valid here; surface the default's
            // validation failure as the typed reason.
            let machine = self.machine();
            let reason = match binding.space.validate(
                machine,
                &binding.shape,
                &binding.space.default_for(machine),
            ) {
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
                if let Some(log) = &self.recorder {
                    log.record(Event::TunerRanked {
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
        let swept = self.sweep(program, &binding, candidates)?;
        let whole = swept.iter().filter(|c| c.cycles.is_some()).count();
        let cut = swept.iter().filter(|c| c.cut.is_some()).count();
        self.tuning.note_sweep(
            (whole + cut) as u64,
            cut as u64,
            (swept.len() - whole - cut) as u64,
        );
        if let Some(log) = &self.recorder {
            for c in &swept {
                log.record(Event::TunerCandidate {
                    entry: program.entry.clone(),
                    config: c.config.label(),
                    cycles: c.cycles,
                    cut: c.cut,
                    floor: c.floor,
                });
            }
        }
        let tuned = self.pick_winner(program, &binding, total, &swept)?;
        self.tuning.insert(key, tuned.clone());
        self.record_sweep(program, &binding, &tuned, false);
        Ok(tuned)
    }

    /// The table's winner for `key`, if it holds one that still
    /// validates. Tables can be hand-edited or imported from elsewhere:
    /// a stored winner that no longer validates is re-tuned (overwriting
    /// the bad entry) instead of being built blind.
    fn tuned_from_table(
        &mut self,
        program: &Program,
        binding: &crate::program::SpaceBinding,
        key: &TuningKey,
    ) -> Option<TunedMapping> {
        let done = self.tuning.get(key)?;
        binding
            .space
            .validate(self.machine(), &binding.shape, &done.config)
            .ok()?;
        let done = done.clone();
        self.record_sweep(program, binding, &done, true);
        Some(done)
    }

    /// Emit the [`Event::TunerSweep`] of a sweep that resolved to
    /// `tuned`, from the table (`cached`) or freshly timed.
    fn record_sweep(
        &self,
        program: &Program,
        binding: &crate::program::SpaceBinding,
        tuned: &TunedMapping,
        cached: bool,
    ) {
        if let Some(log) = &self.recorder {
            log.record(Event::TunerSweep {
                entry: program.entry.clone(),
                shape: binding.shape.to_string(),
                candidates: tuned.candidates,
                winner: tuned.config.label(),
                default_cycles: tuned.default_cycles,
                tuned_cycles: tuned.tuned_cycles,
                cached,
            });
        }
    }

    /// The winner of a sweep over `total` enumerated candidates: the
    /// first timed candidate with the fewest cycles (strict `<` keeps the
    /// earliest on ties, making the winner independent of session
    /// history), reported against the hand-tuned default's cycles.
    fn pick_winner(
        &self,
        program: &Program,
        binding: &crate::program::SpaceBinding,
        total: usize,
        swept: &[SweptCandidate],
    ) -> Result<TunedMapping, RuntimeError> {
        let machine = self.machine();
        let default_cfg = binding.space.default_for(machine);
        let mut default_cycles = None;
        let mut best: Option<(f64, cypress_core::MappingConfig)> = None;
        for c in swept {
            let Some(cycles) = c.cycles else { continue };
            if c.config == default_cfg {
                default_cycles = Some(cycles);
            }
            if best.as_ref().is_none_or(|(b, _)| cycles < *b) {
                best = Some((cycles, c.config));
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
        // Record the model's prediction for the winner on *every*
        // budget — exhaustive sweeps included — so a guided sweep with
        // `top_k >= candidates.len()` produces a bit-identical entry.
        let predicted = binding
            .space
            .estimate(machine, &binding.shape, &config)
            .map(|e| e.cycles);
        Ok(TunedMapping {
            entry: binding.space.entry().to_string(),
            config,
            // When the hand-tuned default is itself invalid for this
            // machine/shape (and therefore was never timed), report the
            // winner as the baseline: speedup 1.0, never a below-1.0
            // ratio against a mapping that cannot run. A default that
            // compiled is the sweep's seed, so it was timed.
            default_cycles: default_cycles.unwrap_or(tuned_cycles),
            tuned_cycles,
            predicted_cycles: predicted.unwrap_or(0.0),
            candidates: total,
            model_version: if predicted.is_some() {
                COST_MODEL_VERSION
            } else {
                0
            },
        })
    }

    /// `candidates`' indices in the cost model's order: predicted cycles
    /// by `total_cmp`, ties broken by the encoded config, and unpriceable
    /// candidates (`estimate` returned `None`) ahead of every priced one,
    /// so a kernel the model does not understand is never ranked out on
    /// its account.
    fn by_prediction(
        &self,
        binding: &crate::program::SpaceBinding,
        candidates: &[cypress_core::MappingConfig],
    ) -> Vec<usize> {
        let priced: Vec<Option<f64>> = candidates
            .iter()
            .map(|cfg| {
                binding
                    .space
                    .estimate(self.machine(), &binding.shape, cfg)
                    .map(|e| e.cycles)
            })
            .collect();
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| match (priced[a], priced[b]) {
            (None, None) => candidates[a].encode().cmp(&candidates[b].encode()),
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(x), Some(y)) => x
                .total_cmp(&y)
                .then_with(|| candidates[a].encode().cmp(&candidates[b].encode())),
        });
        order
    }

    /// The guided tuner's selection pass: rank every candidate
    /// [`Session::by_prediction`], keep the `k` best plus the transfer
    /// seed, and return `(kept in enumeration order, pruned count,
    /// transferred)`.
    ///
    /// The transfer seed is the winner of the nearest tuned neighbor
    /// shape, admitted only when it is also one of *this* shape's
    /// enumerated candidates (which keeps, e.g., an FA3 winner from
    /// seeding an FA2 sweep); if the budget is already full it replaces
    /// the worst-ranked survivor.
    fn rank_candidates(
        &self,
        binding: &crate::program::SpaceBinding,
        key: &TuningKey,
        candidates: Vec<cypress_core::MappingConfig>,
        k: usize,
    ) -> (Vec<cypress_core::MappingConfig>, usize, bool) {
        let total = candidates.len();
        let order = self.by_prediction(binding, &candidates);
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

    /// The cold sweep: compile the candidates from `program` — one
    /// worker job per group of schedule siblings (see
    /// [`Session::compile_candidates`]) — then time the seed,
    /// skip the candidates its cycles rule out, and time the rest bounded
    /// at the seed's cycles (see [`Session::autotune`]). Returns every
    /// compiled candidate in candidate order, so the caller's first-wins
    /// tie break is independent of the worker count. Simulation failures
    /// propagate.
    fn sweep(
        &mut self,
        program: &Program,
        binding: &crate::program::SpaceBinding,
        candidates: Vec<cypress_core::MappingConfig>,
    ) -> Result<Vec<SweptCandidate>, RuntimeError> {
        let resident = self.compile_candidates(program, binding, candidates);
        let configs: Vec<_> = resident.iter().map(|(cfg, _)| *cfg).collect();
        let default_cfg = binding.space.default_for(self.machine());
        let Some(seed) = configs
            .iter()
            .position(|cfg| *cfg == default_cfg)
            .or_else(|| self.by_prediction(binding, &configs).first().copied())
        else {
            return Ok(Vec::new());
        };
        let seed_cycles = self.solo_cycles(&resident[seed].1)?;
        // A floor above the seed's cycles, or equal to them later in
        // enumeration order (first-wins ties keep the seed), cannot win.
        // Every other candidate runs, and stops once it is proven slower
        // than the seed: strictly, so a tie still runs whole.
        let floors: Vec<f64> = resident
            .iter()
            .map(|(_, c)| self.simulator.timing_floor(&c.lowered))
            .collect();
        let runs = |i: usize| {
            i != seed && (floors[i] < seed_cycles || (floors[i] == seed_cycles && i < seed))
        };
        let outcomes = self.time_bounded(
            resident
                .iter()
                .enumerate()
                .filter_map(|(i, (_, c))| runs(i).then_some(c)),
            seed_cycles,
        )?;
        Ok(resident
            .iter()
            .zip(floors.iter())
            .enumerate()
            .map(|(i, ((config, c), &floor))| {
                let outcome = if i == seed {
                    Some(Ok(seed_cycles))
                } else if runs(i) {
                    outcomes.get(&c.fingerprint).copied()
                } else {
                    None
                };
                SweptCandidate {
                    config: *config,
                    floor,
                    cycles: outcome.and_then(Result::ok),
                    cut: outcome.and_then(Result::err),
                }
            })
            .collect())
    }

    /// Compile the candidates through the kernel cache, one worker job
    /// per group of schedule siblings (candidates with one
    /// [`cypress_core::MappingConfig::front_key`]), and return the ones
    /// that compiled, in candidate order. A space's `validate` predicts
    /// the compiled kernel's budgets and the kernel's own validation
    /// decides: candidates the builder or compiler rejects are skipped,
    /// not errors.
    ///
    /// The sweep builds nothing but mappings: `program` is bound to
    /// `binding`'s space, which built it at `binding`'s shape, and every
    /// candidate of a space builds the same registry and entry
    /// arguments, and builds exactly when its
    /// [`cypress_core::MappingSpace::mapping`] does (that method's
    /// contract). Every job shares `program`, and each member adds only
    /// its mapping, hashed by resuming the source stream from the
    /// program's memoized computation hash
    /// ([`cypress_core::fingerprint::resume_source`]), so every
    /// fingerprint is the one a solo [`Session::compile`] of the
    /// member's full `build` computes. A job compiles its group's cache
    /// misses through one compiler front and drops it, so at most
    /// `parallelism` fronts are alive at once.
    ///
    /// The lookups are issued afterwards, in candidate order, so hit/miss
    /// counters and the `CacheLookup` (and miss-side `CompilePass`) events
    /// are a function of the candidate list alone; a miss takes its
    /// group's kernel. Each distinct missing fingerprint compiles once:
    /// a job compiles each of its fingerprints once, and the front-key
    /// fields a space's grid varies are fields its mapping carries, so
    /// no fingerprint falls in two groups. The compiler's rejections
    /// emit nothing, like a failed `Session::compile`.
    fn compile_candidates(
        &mut self,
        program: &Program,
        binding: &crate::program::SpaceBinding,
        candidates: Vec<cypress_core::MappingConfig>,
    ) -> Vec<(cypress_core::MappingConfig, Arc<Compiled>)> {
        let mut groups: Vec<(cypress_core::MappingConfig, Vec<_>)> = Vec::new();
        for (i, cfg) in candidates.into_iter().enumerate() {
            let key = cfg.front_key();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push((i, cfg)),
                None => groups.push((key, vec![(i, cfg)])),
            }
        }
        let (compiler, cache, target) = (&self.compiler, &self.cache, self.target);
        let jobs = cypress_sim::par::parallel_map(self.parallelism(), groups, |(_, members)| {
            compile_group(compiler, cache, target, binding, program, members)
        });
        let mut built = Vec::new();
        let mut precompiled = HashMap::new();
        for (members, compiled) in jobs {
            built.extend(members);
            precompiled.extend(compiled);
        }
        built.sort_unstable_by_key(|&(i, ..)| i);
        let mut resident = Vec::with_capacity(built.len());
        for (_, cfg, fp) in built {
            let before = self.recorder.is_some().then(|| self.cache.stats());
            // A failure is not cached, so a fingerprint the list holds
            // twice misses again: its error stays for the second lookup.
            let compiled = self
                .cache
                .get_or_compile(fp, || match precompiled.get(&fp) {
                    Some(Err(e)) => Err(e.clone()),
                    _ => precompiled
                        .remove(&fp)
                        .expect("a sweep's group compiles every fingerprint the cache misses"),
                });
            if let Ok(compiled) = compiled {
                if let (Some(log), Some(before)) = (&self.recorder, before) {
                    record_cache_lookup(log, &self.cache, fp, before, &compiled);
                }
                resident.push((cfg, compiled));
            }
        }
        resident
    }

    /// On the worker pool, time each distinct kernel of `kernels`
    /// bounded at `cutoff` ([`Simulator::run_timing_bounded`]), and
    /// memoize every run that finished. Returns, by kernel fingerprint,
    /// `Ok(cycles)` for a run that ended at or before `cutoff` and
    /// `Err(bound)` for one that stopped. A kernel the memo already
    /// holds within `cutoff` is not run; one it holds past `cutoff` runs
    /// bounded like the rest, so each outcome is a function of the
    /// kernel and `cutoff` alone.
    fn time_bounded<'a>(
        &mut self,
        kernels: impl IntoIterator<Item = &'a Arc<Compiled>>,
        cutoff: f64,
    ) -> Result<HashMap<u64, Result<f64, f64>>, RuntimeError> {
        let mut outcomes = HashMap::new();
        let mut seen = HashSet::new();
        let mut sims = Vec::new();
        for c in kernels {
            match self.solo.get(&c.fingerprint) {
                Some(Some(report)) if report.cycles <= cutoff => {
                    outcomes.insert(c.fingerprint, Ok(report.cycles));
                }
                _ if seen.insert(c.fingerprint) => sims.push(c),
                _ => {}
            }
        }
        let simulator = &self.simulator;
        let timed = cypress_sim::par::parallel_map(self.parallelism(), sims, |c| {
            let outcome = simulator.run_timing_bounded(&c.kernel, &c.lowered, cutoff);
            (c.fingerprint, outcome)
        });
        for (fp, outcome) in timed {
            let outcome = match outcome? {
                TimingOutcome::Done(report) => {
                    let cycles = report.cycles;
                    self.solo.insert(fp, Some(report));
                    Ok(cycles)
                }
                TimingOutcome::Exceeded { bound } => Err(bound),
            };
            outcomes.insert(fp, outcome);
        }
        Ok(outcomes)
    }

    /// `compiled`'s solo cycles, from the session's memo or simulated
    /// and memoized.
    fn solo_cycles(&mut self, compiled: &Compiled) -> Result<f64, RuntimeError> {
        Ok(executor::solo_report(&self.simulator, &mut self.solo, compiled)?.cycles)
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
        if let Some(log) = &self.recorder {
            if let Some(plan) = &plan {
                for r in &plan.rewrites {
                    let v = &r.verdict;
                    log.record(Event::FusionApplied {
                        rule: v.rule,
                        fused: plan.graph.nodes()[r.fused.index()].name.clone(),
                        replaced: v.replaced.clone(),
                        fused_cycles: v.fused_cycles,
                        unfused_cycles: v.unfused_cycles,
                    });
                }
            }
            for d in declined {
                log.record(Event::FusionDeclined {
                    rule: d.rule,
                    replaced: d.replaced,
                    fused_cycles: d.fused_cycles,
                    unfused_cycles: d.unfused_cycles,
                });
            }
        }
        Ok(plan)
    }

    /// Place `graph`'s launches on `topology`'s devices (see
    /// [`crate::shard`]). On more than one device, count the transfer
    /// launches into the comm counters and record one
    /// [`Event::ShardAssigned`] per launch and one [`Event::LinkTransfer`]
    /// per transfer launch.
    fn timeline(
        &mut self,
        graph: &TaskGraph,
        topology: &Topology,
    ) -> Result<Vec<Launch>, RuntimeError> {
        let timeline = executor::timeline(graph, topology)?;
        if topology.device_count() < 2 {
            return Ok(timeline);
        }
        let (mut transfers, mut link_bytes) = (Vec::new(), 0.0);
        for launch in &timeline {
            if let (Work::Transfer(t), [edge]) = (&launch.work, &launch.inputs[..]) {
                link_bytes += edge.bytes;
                transfers.push(Event::LinkTransfer {
                    link: t.link,
                    src: timeline[edge.launch].device,
                    dst: launch.device,
                    bytes: edge.bytes,
                });
            }
        }
        self.metrics.comm_launches += transfers.len() as u64;
        self.metrics.link_bytes += link_bytes as u64;
        if let Some(log) = &self.recorder {
            for launch in &timeline {
                log.record(Event::ShardAssigned {
                    node: launch.name.clone(),
                    device: launch.device,
                });
            }
            for event in transfers {
                log.record(event);
            }
        }
        Ok(timeline)
    }

    /// The one preparation step behind every graph launch: plan fusion,
    /// place the (possibly fused) graph's launches across the placement
    /// policy's topology, and compile one launch per node, indexed by
    /// `NodeId::index()`. Fused nodes carry the names of the nodes they
    /// replaced.
    fn prepare(&mut self, graph: &TaskGraph) -> Result<Prepared, RuntimeError> {
        let topology = self.placement_policy.topology(self.machine())?;
        let plan = self.fusion_plan(graph)?;
        let fused = plan.as_ref().map_or(graph, |p| &p.graph);
        let timeline = self.timeline(fused, &topology)?;
        let replaced = plan.as_ref().map(FusionPlan::replaced_by_node);
        let mut nodes = Vec::with_capacity(fused.len());
        for (i, node) in fused.nodes().iter().enumerate() {
            let mut launch = self.node_launch(&node.program)?;
            if let Some(replaced) = &replaced {
                launch.replaced = replaced[i].clone();
            }
            nodes.push(launch);
        }
        Ok(Prepared {
            plan,
            topology,
            nodes,
            timeline,
        })
    }

    /// Announce a graph launch to the recorder.
    fn record_submitted(&self, graph: &TaskGraph, mode: &'static str) {
        if let Some(log) = &self.recorder {
            log.record(Event::GraphSubmitted {
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
            | Err(RuntimeError::DeviceLost { report, .. }) => report,
            Err(_) => return,
        };
        self.metrics.faults_injected += report.recovery.faults;
        self.metrics.retries += report.recovery.retries;
        self.metrics.devices_evicted += report.recovery.evicted_devices.len() as u64;
        self.metrics.nodes_resharded += report.recovery.resharded_nodes.len() as u64;
    }

    /// The timing schedule of a prepared graph under the session's
    /// schedule policy and fault context, its recovery counted into the
    /// session metrics: what every graph launch reports.
    fn schedule(&mut self, prepared: &Prepared) -> Result<GraphReport, RuntimeError> {
        let report = executor::run_timing(
            &self.simulator,
            &mut self.solo,
            prepared,
            self.policy,
            &self.fault,
            self.recorder.as_ref(),
        );
        self.note_recovery(report.as_ref());
        report
    }

    /// Schedule a prepared graph, then run it functionally against
    /// `inputs` and re-address the results to `graph`'s node ids. A
    /// schedule that fails moves no data.
    fn launch_prepared(
        &mut self,
        graph: &TaskGraph,
        prepared: &Prepared,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<GraphRun, RuntimeError> {
        let report = self.schedule(prepared)?;
        let run = executor::run_functional(
            &self.simulator,
            prepared.graph(graph),
            &prepared.nodes,
            inputs,
            &mut self.pool,
            self.recorder.as_ref(),
            report,
        )?;
        self.metrics.apply_bytes.merge(run.apply_bytes);
        Ok(match &prepared.plan {
            Some(plan) => executor::remap_run(run, graph, plan),
            None => run,
        })
    }

    /// Launch `graph` functionally: real data flows along the graph's
    /// tensor-buffer edges, `inputs` supplies the `External` bindings, and
    /// the result holds every retained node's final tensors plus the
    /// whole-graph timing schedule — [`Session::launch_timing`]'s report,
    /// bit for bit (see [`GraphRun::report`]). The schedule comes first:
    /// a launch whose schedule fails returns its typed error before any
    /// data moves or the pool hands out a buffer.
    ///
    /// Under [`FusionPolicy::Auto`] the graph is first rewritten through
    /// the fusion rewriter; results stay addressed
    /// by *this* graph's node ids and are bitwise identical to the
    /// unfused launch, while the report shows the fused launches (each
    /// [`crate::NodeTiming::replaced`] lists the original nodes).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on compile failure, a failed schedule
    /// (see [`Session::launch_timing`]), missing or mis-shaped inputs, or
    /// simulation failure.
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
    /// tensors and the same timing schedule, bit for bit — minus all
    /// per-launch compilation work.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on a failed schedule, missing or
    /// mis-shaped inputs, or simulation failure.
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
        self.schedule(&prepared)
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
        Ok(executor::solo_report(
            &self.simulator,
            &mut self.solo,
            &launch.compiled,
        )?)
    }

    /// Drop all cached kernels, pooled buffers and the session's launch
    /// memos: the compiled autotuned winners, the solo timing reports
    /// (with the fusion gate's "could not evaluate" verdicts), and the
    /// fusion rewriter's fused programs. The next launch rebuilds and
    /// re-times what it needs and reports exactly what it reported
    /// before. Counters, tuning results and the marks of untunable
    /// programs are kept.
    pub fn clear(&mut self) {
        self.cache.clear();
        self.tuned_launches.clear();
        self.solo.clear();
        self.fused_programs.clear();
        self.pool.clear();
    }
}

/// One compiled candidate of an autotune sweep, in enumeration order.
struct SweptCandidate {
    config: cypress_core::MappingConfig,
    /// Its [`Simulator::timing_floor`].
    floor: f64,
    /// Its solo cycles, when its run finished.
    cycles: Option<f64>,
    /// The bound its run crossed when it stopped, proven slower than the
    /// seed. With `cycles`, `None` when the floor ruled it out untimed.
    cut: Option<f64>,
}

/// A member of a sweep's group that built: `(candidate index, config,
/// fingerprint)`.
type Member = (usize, cypress_core::MappingConfig, u64);

/// A fingerprint a sweep's group compiled, and what the compiler said.
type Compile = (u64, Result<Compiled, cypress_core::CompileError>);

/// One worker job of [`Session::compile_candidates`]: the schedule
/// siblings `members` (`(candidate index, config)`, in candidate order)
/// of `binding`'s space, over the swept `program`. Each member that has
/// a mapping adds it and a source hash resumed from the program's
/// computation hash. Compiles the members `cache` misses (each
/// fingerprint once) through one front, built from the first of them:
/// every miss gets the front's error if it fails, and only the first
/// finished kernel carries the front's pass time. Returns the members
/// that built, with their fingerprints, and the compiled misses.
fn compile_group(
    compiler: &CypressCompiler,
    cache: &KernelCache,
    target: u64,
    binding: &crate::program::SpaceBinding,
    program: &Program,
    members: Vec<(usize, cypress_core::MappingConfig)>,
) -> (Vec<Member>, Vec<Compile>) {
    let (space, shape) = (&binding.space, &binding.shape);
    let computation = program.identity().computation;
    let built: Vec<_> = members
        .into_iter()
        .filter_map(|(i, cfg)| {
            let mapping = space.mapping(shape, &cfg).ok()?;
            let source = resume_source(computation, &mapping);
            Some((i, cfg, combine(source, target), mapping))
        })
        .collect();
    let mut queued = HashSet::new();
    let misses: Vec<_> = built
        .iter()
        .filter(|(_, _, fp, _)| cache.peek(*fp).is_none() && queued.insert(*fp))
        .collect();
    let compiled = match misses
        .first()
        .map(|(.., first)| compiler.front(&program.registry, first, &program.entry, &program.args))
    {
        None => Vec::new(),
        Some(Ok(mut front)) => misses
            .iter()
            .map(|(_, _, fp, mapping)| (*fp, front.finish(mapping, *fp)))
            .collect(),
        Some(Err(e)) => misses
            .iter()
            .map(|(_, _, fp, _)| (*fp, Err(e.clone())))
            .collect(),
    };
    let built = built.into_iter().map(|(i, cfg, fp, _)| (i, cfg, fp));
    (built.collect(), compiled)
}

/// Emit the [`Event::CacheLookup`] for one successful lookup (the hit
/// flag read from the cache's own counter delta since `before`) and, on
/// a miss, the opt-in host-time [`Event::CompilePass`] stream of the
/// freshly compiled kernel.
fn record_cache_lookup(
    log: &TraceLog,
    cache: &KernelCache,
    fp: u64,
    before: CacheStats,
    compiled: &Compiled,
) {
    let hit = cache.stats().hits > before.hits;
    log.record(Event::CacheLookup {
        fingerprint: fp,
        hit,
    });
    if !hit {
        for (pass, ns) in &compiled.pass_nanos {
            log.record(Event::CompilePass {
                pass: pass.clone(),
                host_ns: *ns,
            });
        }
    }
}

impl fuse::FusionGate for Session {
    /// Solo cycles of `program`, compiled through the kernel cache and
    /// read through the session's solo-report memo: what the fusion
    /// rewriter compares. A program that does not compile or time (the
    /// rewriter's candidate did not fit this machine after all) yields
    /// `None`, vetoing its rewrite — memoized like a success, since
    /// compile and simulation are deterministic in the fingerprint.
    fn solo_cycles(&mut self, program: &Program) -> Option<f64> {
        let fp = self.fingerprint_of(program);
        if !self.solo.contains_key(&fp) {
            let verdict = self.compile(program).ok().and_then(|compiled| {
                self.simulator
                    .run_timing_lowered(&compiled.kernel, &compiled.lowered)
                    .ok()
            });
            self.solo.insert(fp, verdict);
        }
        Some(self.solo.get(&fp)?.as_ref()?.cycles)
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

    /// Asserts that `a` and `b` agree field by field, every cycle count
    /// by its bits.
    fn assert_same_report(a: &GraphReport, b: &GraphReport, label: &str) {
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{label}");
        assert_eq!(
            a.critical_path.to_bits(),
            b.critical_path.to_bits(),
            "{label}"
        );
        assert_eq!(a.nodes.len(), b.nodes.len(), "{label}");
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            let node = format!("{label}: {}", x.node);
            assert_eq!(x.start.to_bits(), y.start.to_bits(), "{node}");
            assert_eq!(x.end.to_bits(), y.end.to_bits(), "{node}");
            assert_eq!(
                x.report.cycles.to_bits(),
                y.report.cycles.to_bits(),
                "{node}"
            );
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}");
    }

    #[test]
    fn one_memo_holds_every_solo_report_a_launch_needs() {
        // Four distinct kernels: three GEMM shapes and the reduction.
        let graph = graph(128);
        let mut session = Session::new(MachineConfig::test_gpu());
        session.launch_timing(&graph).unwrap();
        let unfused: HashSet<u64> = session.solo.keys().copied().collect();
        assert_eq!(unfused.len(), 4);
        let transients = FaultPlan::new().with_transient(0, 0).with_transient(0, 2);
        let mut last = None;
        for streams in [1, 4] {
            for devices in [1, 2] {
                for fusion in [FusionPolicy::Off, FusionPolicy::Auto] {
                    for plan in [FaultPlan::new(), transients.clone()] {
                        let label =
                            format!("{streams} streams, {devices} devices, {fusion:?}, {plan:?}");
                        let point = move |s: Session| {
                            s.with_policy(SchedulePolicy::Concurrent { streams })
                                .with_placement_policy(PlacementPolicy::Sharded { devices })
                                .with_fusion_policy(fusion)
                                .with_fault_policy(FaultPolicy::Retry {
                                    max_attempts: 3,
                                    backoff: 0.0,
                                })
                                .with_fault_plan(plan.clone())
                        };
                        session = point(session);
                        let warm = session.launch_timing(&graph).unwrap();
                        let fresh = point(Session::new(MachineConfig::test_gpu()))
                            .launch_timing(&graph)
                            .unwrap();
                        assert_same_report(&warm, &fresh, &label);
                        // Only the fusion gate's kernels join the four.
                        let fused: HashSet<u64> = session
                            .fused_programs
                            .values()
                            .flatten()
                            .map(|p| session.fingerprint_of(p))
                            .collect();
                        for fp in session.solo.keys() {
                            assert!(unfused.contains(fp) || fused.contains(fp), "{label}");
                        }
                        last = Some((point, warm));
                    }
                }
            }
        }
        assert!(
            session.solo.len() > unfused.len(),
            "the gate timed fused kernels"
        );
        let (point, before) = last.unwrap();
        session.clear();
        assert!(session.solo.is_empty());
        session = point(session);
        let after = session.launch_timing(&graph).unwrap();
        assert_same_report(&after, &before, "after clear");
    }

    #[test]
    fn clear_drops_the_fusion_memos_and_no_report_bit() {
        let graph = graph(64);
        let mut session = auto_session();
        session.launch_timing(&graph).unwrap();
        let before = session.launch_timing(&graph).unwrap();
        let held = fused_programs(&mut session, &graph);
        session.clear();
        assert!(session.fused_programs.is_empty() && session.solo.is_empty());
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
