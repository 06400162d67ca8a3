//! Discrete-event functional and timing simulator of a Hopper-class GPU.
//!
//! This crate is the hardware substrate of the Cypress reproduction:
//! instead of CUDA on an H100, compiled kernels target a
//! [`Kernel`] device-program representation executed by [`Simulator`]. The
//! simulated machine has the units the paper's generated code exercises:
//!
//! - per-SM **TMA** engines performing asynchronous bulk copies that
//!   complete on **mbarriers**,
//! - per-SM **Tensor Cores** executing asynchronous `wgmma` operations
//!   observed with group waits,
//! - SIMT ALUs/SFUs for warpgroup math, `cp.async` fallback loads,
//!   named barriers and `__syncthreads`,
//! - shared L2/HBM bandwidth, occupancy-limited CTA scheduling, and
//!   per-CTA launch overheads (which is where the §5.3 persistent-kernel
//!   effect comes from).
//!
//! Two modes (see [`Simulator::run_functional`] and
//! [`Simulator::run_timing`]): functional runs move real data and report
//! no time; timing runs reproduce the schedule at paper-scale problem
//! sizes in milliseconds of host time. On top of solo timing,
//! the [`concurrent`] contention model (shared SMs, L2, and HBM)
//! co-schedules kernels distilled to [`KernelProfile`]s, which is what
//! the runtime's multi-stream graph scheduler builds on.
//!
//! The engine executes one instruction set: the flat [`bytecode`] every
//! entry point lowers a kernel to (once per compiled kernel in the
//! runtime, which replays the cached [`Program`]). Lowering is the one
//! walk of a kernel's instructions and its structural check, so a
//! [`Program`] exists only for a structurally valid kernel; a run checks
//! the machine budgets ([`Kernel::validate`]) and that the program is
//! the kernel's. Its index arithmetic is held to [`Expr::eval`] by the
//! bytecode module's own tests.
//! Functional data movement runs on a fast resolved-view path (each
//! slice becomes a flat-buffer view once per apply; WGMMA is a blocked
//! microkernel), held bit for bit to a retained scalar per-element
//! interpreter. That oracle compiles only under `cfg(test)` and the
//! `scalar-oracle` feature, which exposes it as
//! `Simulator::run_functional_scalar` (the same bytecode, scalar
//! applies); a build without the feature does not contain it. No data
//! moves in timing runs, so the discrete-event schedule and every cycle
//! count are the same on either data path.
//!
//! # Example
//!
//! ```
//! use cypress_sim::{KernelBuilder, RoleKind, Instr, Slice, Simulator, MachineConfig};
//! use cypress_tensor::{Tensor, DType};
//!
//! // A kernel whose single warpgroup fills its output with 7.
//! let mut b = KernelBuilder::new("fill7", [1, 1, 1]);
//! let out = b.param("out", 8, 8, DType::F32);
//! let frag = b.frag("f", 8, 8);
//! b.role(RoleKind::Compute(0), vec![
//!     Instr::Simt(cypress_sim::SimtOp::Fill { dst: Slice::frag(frag).extent(8, 8), value: 7.0 }),
//!     Instr::Simt(cypress_sim::SimtOp::Copy {
//!         src: Slice::frag(frag).extent(8, 8),
//!         dst: Slice::param(out).extent(8, 8),
//!     }),
//! ]);
//! let kernel = b.build();
//!
//! let sim = Simulator::new(MachineConfig::test_gpu());
//! let run = sim.run_functional(&kernel, vec![Tensor::zeros(DType::F32, &[8, 8])])?;
//! assert_eq!(run.params[0].get(&[3, 3])?, 7.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The only `unsafe` in this crate is the guarded call of a
// `#[target_feature]` function; each one says why it is sound.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]
// `pub` is for what another crate may name: an item that is `pub` but
// unreachable from the crate root must say `pub(crate)`.
#![deny(unreachable_pub)]

pub(crate) mod apply;
mod builder;
pub mod bytecode;
pub mod concurrent;
mod engine;
mod error;
pub mod expr;
mod fault;
mod fnv;
mod instr;
mod kernel;
mod machine;
pub mod mem;
pub mod par;
mod report;
pub mod topology;

pub use builder::KernelBuilder;
pub use bytecode::Program;
pub use concurrent::{Completion, ConcurrentEngine, EngineStep, KernelProfile, LaunchOutcome};
pub use error::SimError;
pub use expr::{Cond, Env, Expr};
pub use fault::{Fault, FaultPlan};
pub use fnv::Fnv64;
pub use instr::{BinOp, Instr, RedOp, SimtOp, UnOp};
pub use kernel::{Kernel, KernelError, MbarDecl, Role, RoleKind};
pub use machine::{CostConstants, MachineConfig};
pub use mem::{FragDecl, MemRef, ParamDecl, Slice, SmemDecl, Space};
pub use report::{ApplyBytes, TimingOutcome, TimingReport};
pub use topology::{Link, Topology};

use cypress_tensor::Tensor;
use engine::{Engine, Mode, Workspace};
use std::fmt;
use std::sync::{Arc, Mutex};

/// The simulator: a machine configuration plus launch entry points.
///
/// A functional run of a kernel that already ran functionally on this
/// simulator leaves its per-CTA shared-memory and fragment buffers
/// parked here (one run's worth, shared with its clones), and the next
/// functional run re-zeroes the ones its kernel can use instead of
/// allocating fresh ones. Results do not depend on what is parked.
#[derive(Clone)]
pub struct Simulator {
    machine: MachineConfig,
    /// Host worker threads batches of runs may use (see
    /// [`Simulator::with_parallelism`]). Single-kernel runs are always
    /// single-threaded and deterministic regardless of this setting.
    parallelism: usize,
    /// The per-CTA shared-memory and fragment buffers a functional run
    /// parked for the next one (at most one run's worth, shared by clones
    /// and by the runs concurrent workers make).
    workspace: Arc<Mutex<Workspace>>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("machine", &self.machine)
            .field("parallelism", &self.parallelism)
            .finish_non_exhaustive()
    }
}

/// Result of a functional run: the (mutated) parameter tensors. It
/// reports no time; [`Simulator::run_timing`] does.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// Parameter tensors after execution, in declaration order.
    pub params: Vec<Tensor>,
    /// Discrete events the run processed.
    pub events: u64,
    /// Per-dtype bytes the functional data path moved (see
    /// [`ApplyBytes`]); a deterministic function of the kernel and grid.
    pub apply_bytes: ApplyBytes,
}

impl Simulator {
    /// A simulator for `machine`. Batches of runs default to one host
    /// worker per available core (see [`Simulator::with_parallelism`]).
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        Simulator {
            machine,
            parallelism: par::available(),
            workspace: Arc::default(),
        }
    }

    /// The machine being simulated.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The host worker threads batches of runs currently use.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Let a caller that fans independent runs of this simulator out
    /// over [`par::parallel_map`] (the runtime's executor and tuner) use
    /// `parallelism` host worker threads, clamped to at least 1. The
    /// worker count changes wall time only — every setting runs the same
    /// code (a batch runs inline at one worker), so results are
    /// bit-identical.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Execute `kernel` functionally: every CTA runs and `params` data is
    /// really moved and computed on. Returns the mutated tensors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on validation failure, parameter mismatch,
    /// out-of-bounds access, deadlock, or event-budget exhaustion.
    pub fn run_functional(
        &self,
        kernel: &Kernel,
        params: Vec<Tensor>,
    ) -> Result<FunctionalRun, SimError> {
        let program = bytecode::lower(kernel)?;
        self.run_functional_lowered(kernel, &program, params)
    }

    /// [`Simulator::run_functional`] with a pre-lowered bytecode
    /// [`Program`] (see [`bytecode::lower`]). The runtime lowers once per
    /// compiled kernel and replays the program on every launch, skipping
    /// the per-invocation lowering; tensors and events are bit-identical
    /// to [`Simulator::run_functional`]'s.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::run_functional`]; additionally
    /// rejects a `program` lowered from a different kernel with
    /// [`SimError::Internal`].
    pub fn run_functional_lowered(
        &self,
        kernel: &Kernel,
        program: &bytecode::Program,
        params: Vec<Tensor>,
    ) -> Result<FunctionalRun, SimError> {
        let mut engine = Engine::new(
            kernel,
            &self.machine,
            Mode::Functional,
            Some(params),
            program,
        )?;
        engine.recycle_through(&self.workspace);
        Self::finish_functional(engine.run_whole()?)
    }

    /// [`Simulator::run_functional`] through the retained **scalar**
    /// reference interpreter: the same bytecode program, with every
    /// functional apply on the pre-optimization per-element data path,
    /// kept as a bitwise oracle of the fast one. Only available with the
    /// `scalar-oracle` feature.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::run_functional`].
    #[cfg(feature = "scalar-oracle")]
    pub fn run_functional_scalar(
        &self,
        kernel: &Kernel,
        params: Vec<Tensor>,
    ) -> Result<FunctionalRun, SimError> {
        let program = bytecode::lower(kernel)?;
        let mut engine = Engine::new(
            kernel,
            &self.machine,
            Mode::Functional,
            Some(params),
            &program,
        )?;
        engine.set_scalar();
        engine.recycle_through(&self.workspace);
        Self::finish_functional(engine.run_whole()?)
    }

    fn finish_functional(
        (report, params, apply_bytes): engine::Finished,
    ) -> Result<FunctionalRun, SimError> {
        let params = params.ok_or_else(|| SimError::Internal {
            what: "a functional run returned no parameter tensors".into(),
        })?;
        Ok(FunctionalRun {
            params,
            events: report.events,
            apply_bytes,
        })
    }

    /// Execute `kernel` in timing mode: no data moves; the busiest SM's
    /// share of CTAs is simulated and the full-launch makespan is derived.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on validation failure, deadlock, or
    /// event-budget exhaustion.
    pub fn run_timing(&self, kernel: &Kernel) -> Result<TimingReport, SimError> {
        let program = bytecode::lower(kernel)?;
        self.run_timing_lowered(kernel, &program)
    }

    /// [`Simulator::run_timing`] with a pre-lowered bytecode [`Program`]
    /// (see [`bytecode::lower`]); the discrete-event schedule is
    /// bit-identical to [`Simulator::run_timing`]'s.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::run_timing`]; additionally rejects a
    /// `program` lowered from a different kernel with
    /// [`SimError::Internal`].
    pub fn run_timing_lowered(
        &self,
        kernel: &Kernel,
        program: &bytecode::Program,
    ) -> Result<TimingReport, SimError> {
        let engine = Engine::new(kernel, &self.machine, Mode::Timing, None, program)?;
        Ok(engine.run_whole()?.0)
    }

    /// [`Simulator::run_timing_lowered`] that stops as soon as the run
    /// is proven to end past `cutoff` cycles: a tuner comparing
    /// candidates against an incumbent need not finish a loser's run.
    /// The result is [`TimingOutcome::Done`] with the report
    /// [`Simulator::run_timing_lowered`] returns, bit for bit, whenever
    /// that report's `cycles <= cutoff`, and otherwise
    /// [`TimingOutcome::Exceeded`] with `cutoff < bound <= cycles`. The
    /// run stops once the simulated clock passes `cutoff`, or earlier,
    /// at a CTA launch, once the CTAs still to launch cannot finish by
    /// it (see the `engine` module's "Bounded runs"). A NaN `cutoff`
    /// never stops a run.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::run_timing_lowered`], for the part
    /// of the run simulated before it stops.
    pub fn run_timing_bounded(
        &self,
        kernel: &Kernel,
        program: &bytecode::Program,
        cutoff: f64,
    ) -> Result<TimingOutcome, SimError> {
        let engine = Engine::new(kernel, &self.machine, Mode::Timing, None, program)?;
        Ok(match engine.run(cutoff)? {
            Ok((report, _, _)) => TimingOutcome::Done(report),
            Err(bound) => TimingOutcome::Exceeded { bound },
        })
    }

    /// A lower bound on [`Simulator::run_timing_lowered`]`(kernel,
    /// program)`'s `cycles`, without running the engine: the kernel and
    /// CTA launch plus the slowest of the busiest SM's Tensor Core, TMA,
    /// `cp.async` and HBM work over its rate (a roofline floor). A tuner
    /// that has timed a candidate skips every one whose floor is above
    /// it. The bound holds for every kernel that times; `program` must be
    /// `kernel`'s lowering, as there.
    #[must_use]
    pub fn timing_floor(&self, kernel: &Kernel, program: &bytecode::Program) -> f64 {
        engine::timing_floor(kernel, &self.machine, program)
    }
}
