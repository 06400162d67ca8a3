//! The compiler driver: runs the pass pipeline of Fig. 6.

use crate::error::CompileError;
use crate::front::mapping::MappingSpec;
use crate::front::task::TaskRegistry;
use crate::ir::printer::print_program;
use crate::passes::depan::EntryArg;
use crate::passes::{alloc, copyelim, depan, vectorize, warpspec};
use cypress_sim::{Kernel, MachineConfig};

/// Compiler configuration. The machine is the only input besides the
/// program that decides the emitted kernel; `dump_ir` adds diagnostics.
#[derive(Debug, Clone)]
pub struct CompilerOptions {
    /// Target machine (its shared memory per SM is the allocation budget;
    /// the kernel is validated against it).
    pub machine: MachineConfig,
    /// Keep per-pass IR dumps in the result.
    pub dump_ir: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            machine: MachineConfig::h100_sxm5(),
            dump_ir: false,
        }
    }
}

/// A compiled Cypress program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The device kernel, ready for [`cypress_sim::Simulator`].
    pub kernel: Kernel,
    /// Pseudo-CUDA rendering of the kernel.
    pub cuda: String,
    /// IR dumps per pass (`depan`, `vectorize`, `copyelim`), if requested.
    pub ir_dumps: Vec<(String, String)>,
    /// Copy-elimination statistics.
    pub copyelim_stats: copyelim::Stats,
    /// Shared-memory bytes allocated per CTA.
    pub smem_bytes: usize,
    /// The kernel's functional body lowered once into flat bytecode (see
    /// [`cypress_sim::bytecode`]); the runtime replays it on every launch
    /// instead of re-walking the kernel IR.
    pub lowered: cypress_sim::Program,
    /// Stable fingerprint of the compiler inputs that produced this kernel
    /// (see [`crate::fingerprint::fingerprint`]); the cache key of the
    /// `cypress-runtime` kernel cache.
    pub fingerprint: u64,
    /// Host wall-clock nanoseconds each compiler pass took, in pipeline
    /// order. Observability only: the numbers are nondeterministic, are
    /// never part of [`Compiled::fingerprint`], and downstream consumers
    /// (the runtime's telemetry layer) treat them as opt-in host-time
    /// fields.
    pub pass_nanos: Vec<(String, u64)>,
}

/// The Cypress compiler.
#[derive(Debug, Clone, Default)]
pub struct CypressCompiler {
    opts: CompilerOptions,
}

impl CypressCompiler {
    /// A compiler with default options (H100 target).
    #[must_use]
    pub fn new(opts: CompilerOptions) -> Self {
        CypressCompiler { opts }
    }

    /// Compile a logical description + mapping specification into a device
    /// kernel (paper Fig. 6: dependence analysis → vectorization → copy
    /// elimination → resource allocation → warp specialization → codegen).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from any pass; backend validation
    /// failures are wrapped in [`CompileError::Backend`].
    pub fn compile(
        &self,
        registry: &TaskRegistry,
        mapping: &MappingSpec,
        name: &str,
        entry_args: &[EntryArg],
    ) -> Result<Compiled, CompileError> {
        let fingerprint = self.fingerprint(registry, mapping, name, entry_args);
        self.compile_with_fingerprint(registry, mapping, name, entry_args, fingerprint)
    }

    /// [`CypressCompiler::compile`] with a fingerprint the caller already
    /// computed (kernel caches hash the inputs to form their key; this
    /// avoids hashing them a second time on a miss). `fingerprint` must
    /// come from [`CypressCompiler::fingerprint`] on the same inputs.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from any pass; backend validation
    /// failures are wrapped in [`CompileError::Backend`].
    pub fn compile_with_fingerprint(
        &self,
        registry: &TaskRegistry,
        mapping: &MappingSpec,
        name: &str,
        entry_args: &[EntryArg],
        fingerprint: u64,
    ) -> Result<Compiled, CompileError> {
        let mut dumps = Vec::new();
        // Pass wall-clock timings (observability only; kept out of the
        // fingerprint so cache keys and BENCH rows are unaffected).
        let mut pass_nanos: Vec<(String, u64)> = Vec::with_capacity(6);
        let mut timed = |name: &str, since: std::time::Instant| {
            pass_nanos.push((name.to_string(), since.elapsed().as_nanos() as u64));
        };

        // 1. Dependence analysis (§4.2.1).
        let t = std::time::Instant::now();
        let mut prog = depan::analyze(registry, mapping, name, entry_args)?;
        timed("depan", t);
        if self.opts.dump_ir {
            dumps.push(("depan".to_string(), print_program(&prog)));
        }

        // 2. Vectorization (§4.2.2).
        let t = std::time::Instant::now();
        vectorize::run(&mut prog);
        vectorize::normalize_ranks(&mut prog);
        timed("vectorize", t);
        if self.opts.dump_ir {
            dumps.push(("vectorize".to_string(), print_program(&prog)));
        }

        // 3. Copy elimination (§4.2.3).
        let t = std::time::Instant::now();
        let stats = copyelim::run(&mut prog)?;
        timed("copyelim", t);
        if self.opts.dump_ir {
            dumps.push(("copyelim".to_string(), print_program(&prog)));
        }

        // 4. Resource allocation (§4.2.4).
        let t = std::time::Instant::now();
        let allocation = alloc::run(&prog, self.opts.machine.smem_per_sm)?;
        timed("alloc", t);

        // 5/6. Warp specialization, pipelining, and code generation
        // (§4.2.5, §4.2.6).
        let sched = warpspec::SchedOptions {
            warpspecialize: mapping.iter().any(|i| i.warpspecialize),
            pipeline: mapping.iter().map(|i| i.pipeline).max().unwrap_or(0).max(1),
        };
        let t = std::time::Instant::now();
        let kernel = warpspec::lower(&prog, &allocation, sched)?;
        kernel
            .validate(&self.opts.machine)
            .map_err(|e| CompileError::Backend(e.to_string()))?;
        timed("warpspec", t);

        let t = std::time::Instant::now();
        let cuda = crate::codegen::cuda::render(&kernel);
        timed("codegen", t);

        // 7. Bytecode lowering: compile the kernel body once into the flat
        // instruction stream the simulator's dispatch loop executes.
        let t = std::time::Instant::now();
        let lowered = cypress_sim::bytecode::lower(&kernel)
            .map_err(|e| CompileError::Backend(e.to_string()))?;
        timed("lower", t);

        let smem_bytes = kernel.smem_bytes();
        Ok(Compiled {
            kernel,
            cuda,
            ir_dumps: dumps,
            copyelim_stats: stats,
            smem_bytes,
            lowered,
            fingerprint,
            pass_nanos,
        })
    }

    /// Stable fingerprint of a compile invocation on this compiler's
    /// machine — equal fingerprints guarantee an equal [`Compiled::kernel`],
    /// so callers may reuse a cached result instead of compiling.
    #[must_use]
    pub fn fingerprint(
        &self,
        registry: &TaskRegistry,
        mapping: &MappingSpec,
        name: &str,
        entry_args: &[EntryArg],
    ) -> u64 {
        crate::fingerprint::fingerprint(registry, mapping, name, entry_args, &self.opts.machine)
    }

    /// The options this compiler was constructed with.
    #[must_use]
    pub fn options(&self) -> &CompilerOptions {
        &self.opts
    }
}
