//! The compiler driver: runs the pass pipeline of Fig. 6.
//!
//! The pipeline has a seam the paper already draws. Dependence
//! analysis, vectorization and copy elimination (§4.2.1–4.2.3) never
//! read a mapping's pipeline depth or warp specialization; only warp
//! specialization (§4.2.5) does. So [`CypressCompiler::front`] runs the
//! first three passes once into a [`Front`], and [`Front::finish`]
//! lowers it at one schedule. A tuner whose candidates differ only in
//! those two fields builds one program and one front for all of them
//! and finishes the front per candidate;
//! [`CypressCompiler::compile`] is one front finished once.
//!
//! Shared memory is not aliased (§4.2.4's allocator is not
//! reproduced): warp specialization declares one region per surviving
//! shared tensor, staged per pipeline stage, and the emitted kernel's
//! validation against the machine is the one budget check.
//! A [`crate::MappingSpace`]'s footprint predicts that byte count so its
//! candidates are filtered before they are compiled.

use crate::error::CompileError;
use crate::front::mapping::{MappingSpec, TaskMapping};
use crate::front::task::TaskRegistry;
use crate::ir::printer::print_program;
use crate::ir::IrProgram;
use crate::passes::depan::EntryArg;
use crate::passes::{copyelim, depan, vectorize, warpspec};
use cypress_sim::{Kernel, KernelError, MachineConfig};

/// Compiler configuration. The machine is the only input besides the
/// program that decides the emitted kernel; `dump_ir` adds diagnostics.
#[derive(Debug, Clone)]
pub struct CompilerOptions {
    /// Target machine: the emitted kernel is validated against it, so
    /// its shared memory per SM is the shared-memory budget.
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
    /// fields. A kernel finished from a [`Front`] another kernel was
    /// already finished from reads 0 for the three front passes: the
    /// front's time is charged once.
    pub pass_nanos: Vec<(String, u64)>,
}

/// The Cypress compiler.
#[derive(Debug, Clone, Default)]
pub struct CypressCompiler {
    opts: CompilerOptions,
}

/// A program through the front half of Fig. 6 — dependence analysis,
/// vectorization and copy elimination — ready to be finished at any
/// pipeline depth and warp-specialization choice.
///
/// Built by [`CypressCompiler::front`]; [`Front::finish`] runs the rest.
#[derive(Debug, Clone)]
pub struct Front<'c> {
    machine: &'c MachineConfig,
    /// The mapping the front was built from; `finish` accepts only its
    /// schedule siblings.
    mapping: MappingSpec,
    prog: IrProgram,
    copyelim_stats: copyelim::Stats,
    ir_dumps: Vec<(String, String)>,
    /// The front passes' host nanoseconds, zeroed once a finished
    /// kernel has carried them.
    pass_nanos: Vec<(String, u64)>,
}

impl CypressCompiler {
    /// A compiler with default options (H100 target).
    #[must_use]
    pub fn new(opts: CompilerOptions) -> Self {
        CypressCompiler { opts }
    }

    /// Compile a logical description + mapping specification into a device
    /// kernel (paper Fig. 6: dependence analysis → vectorization → copy
    /// elimination → warp specialization → codegen).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from any pass, and
    /// [`Front::finish`]'s errors: [`CompileError::OutOfSharedMemory`]
    /// for a kernel over the machine's shared memory,
    /// [`CompileError::Backend`] for its other validation failures.
    pub fn compile(
        &self,
        registry: &TaskRegistry,
        mapping: &MappingSpec,
        name: &str,
        entry_args: &[EntryArg],
    ) -> Result<Compiled, CompileError> {
        let fingerprint = self.fingerprint(registry, mapping, name, entry_args);
        self.front(registry, mapping, name, entry_args)?
            .finish(mapping, fingerprint)
    }

    /// Run the passes that do not read the mapping's schedule fields:
    /// dependence analysis (§4.2.1), vectorization (§4.2.2) and copy
    /// elimination (§4.2.3). Shared memory is checked only once the
    /// schedule fixes the pipeline staging, by [`Front::finish`].
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from any of the three passes.
    pub fn front(
        &self,
        registry: &TaskRegistry,
        mapping: &MappingSpec,
        name: &str,
        entry_args: &[EntryArg],
    ) -> Result<Front<'_>, CompileError> {
        let mut ir_dumps = Vec::new();
        // Pass wall-clock timings (observability only; kept out of the
        // fingerprint so cache keys and BENCH rows are unaffected).
        let mut pass_nanos = Vec::with_capacity(3);
        let mut timed = |name: &str, since: std::time::Instant| {
            pass_nanos.push((name.to_string(), since.elapsed().as_nanos() as u64));
        };

        // 1. Dependence analysis (§4.2.1).
        let t = std::time::Instant::now();
        let mut prog = depan::analyze(registry, mapping, name, entry_args)?;
        timed("depan", t);
        if self.opts.dump_ir {
            ir_dumps.push(("depan".to_string(), print_program(&prog)));
        }

        // 2. Vectorization (§4.2.2).
        let t = std::time::Instant::now();
        vectorize::run(&mut prog);
        vectorize::normalize_ranks(&mut prog);
        timed("vectorize", t);
        if self.opts.dump_ir {
            ir_dumps.push(("vectorize".to_string(), print_program(&prog)));
        }

        // 3. Copy elimination (§4.2.3).
        let t = std::time::Instant::now();
        let copyelim_stats = copyelim::run(&mut prog)?;
        timed("copyelim", t);
        if self.opts.dump_ir {
            ir_dumps.push(("copyelim".to_string(), print_program(&prog)));
        }

        Ok(Front {
            machine: &self.opts.machine,
            mapping: mapping.clone(),
            prog,
            copyelim_stats,
            ir_dumps,
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

impl Front<'_> {
    /// Finish the front at `mapping`'s schedule: warp specialization and
    /// pipelining (§4.2.5), the machine-budget check, bytecode lowering
    /// (the kernel's structural check) and code generation (§4.2.6).
    /// `mapping` may differ from the mapping the
    /// front was built from only in its instances' `pipeline` and
    /// `warpspecialize`; `fingerprint` is
    /// [`CypressCompiler::fingerprint`] of the full inputs at `mapping`.
    ///
    /// # Errors
    ///
    /// [`CompileError::Unsupported`] when `mapping` differs in anything
    /// else; otherwise propagates [`CompileError`] from warp
    /// specialization, reports a kernel that stages more shared memory
    /// than the machine has as [`CompileError::OutOfSharedMemory`], and
    /// wraps other backend failures in [`CompileError::Backend`].
    pub fn finish(
        &mut self,
        mapping: &MappingSpec,
        fingerprint: u64,
    ) -> Result<Compiled, CompileError> {
        if !schedule_siblings(&self.mapping, mapping) {
            return Err(CompileError::Unsupported(
                "a front is finished only at mappings that differ from its own in pipeline \
                 depth and warp specialization alone"
                    .into(),
            ));
        }
        let mut pass_nanos = Vec::with_capacity(6);
        let mut timed = |name: &str, since: std::time::Instant| {
            pass_nanos.push((name.to_string(), since.elapsed().as_nanos() as u64));
        };

        // 4/5. Warp specialization, pipelining, and code generation
        // (§4.2.5, §4.2.6). Validating the kernel checks the machine
        // budgets, shared memory among them; lowering checks its structure.
        let sched = warpspec::SchedOptions {
            warpspecialize: mapping.iter().any(|i| i.warpspecialize),
            pipeline: mapping.iter().map(|i| i.pipeline).max().unwrap_or(0).max(1),
        };
        let t = std::time::Instant::now();
        let kernel = warpspec::lower(&self.prog, sched)?;
        kernel.validate(self.machine).map_err(|e| match e {
            KernelError::SharedMemoryExceeded { used, limit } => CompileError::OutOfSharedMemory {
                required: used,
                limit,
            },
            e => CompileError::Backend(e.to_string()),
        })?;
        timed("warpspec", t);

        // 6. Bytecode lowering: compile the kernel body once into the flat
        // instruction stream the simulator's dispatch loop executes. It is
        // the structural check, so it runs ahead of the code generator,
        // which indexes the declarations every slice names.
        let t = std::time::Instant::now();
        let lowered = cypress_sim::bytecode::lower(&kernel)
            .map_err(|e| CompileError::Backend(e.to_string()))?;
        let lower_nanos = t.elapsed().as_nanos() as u64;

        let t = std::time::Instant::now();
        let cuda = crate::codegen::cuda::render(&kernel);
        timed("codegen", t);
        pass_nanos.push(("lower".into(), lower_nanos));

        // The front's passes ran once: the first finished kernel carries
        // their time, later siblings read 0.
        let front_nanos = self
            .pass_nanos
            .iter_mut()
            .map(|(pass, ns)| (pass.clone(), std::mem::take(ns)));
        pass_nanos.splice(0..0, front_nanos);

        let smem_bytes = kernel.smem_bytes();
        Ok(Compiled {
            kernel,
            cuda,
            ir_dumps: self.ir_dumps.clone(),
            copyelim_stats: self.copyelim_stats,
            smem_bytes,
            lowered,
            fingerprint,
            pass_nanos,
        })
    }
}

/// `true` when `a` and `b` bind the same instances identically apart
/// from the two fields only warp specialization reads.
fn schedule_siblings(a: &MappingSpec, b: &MappingSpec) -> bool {
    let unscheduled = |m: &TaskMapping| TaskMapping {
        warpspecialize: false,
        pipeline: 0,
        ..m.clone()
    };
    a.iter().count() == b.iter().count()
        && a.iter().all(|i| {
            b.instance(&i.instance)
                .is_ok_and(|j| unscheduled(i) == unscheduled(j))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm::{GemmConfig, GemmSpace};
    use crate::kernels::space::{MappingConfig, MappingSpace, Shape};

    fn compiler() -> CypressCompiler {
        CypressCompiler::new(CompilerOptions {
            machine: MachineConfig::test_gpu(),
            ..Default::default()
        })
    }

    fn gemm(cfg: GemmConfig) -> (TaskRegistry, MappingSpec, Vec<EntryArg>) {
        GemmSpace
            .build(&Shape::of(&[128, 128, 64]), &MappingConfig::Gemm(cfg))
            .unwrap()
    }

    /// One front finished at every schedule of a tile reproduces each
    /// solo compile, and its pass time is charged to the first kernel.
    #[test]
    fn one_front_finishes_every_schedule_sibling() {
        let compiler = compiler();
        let (reg, first, args) = gemm(GemmConfig::test());
        let mut front = compiler.front(&reg, &first, "gemm", &args).unwrap();
        for (i, (pipeline, warpspecialize)) in
            [(2, true), (1, false), (3, true)].into_iter().enumerate()
        {
            let (reg, mapping, args) = gemm(GemmConfig {
                pipeline,
                warpspecialize,
                ..GemmConfig::test()
            });
            let fp = compiler.fingerprint(&reg, &mapping, "gemm", &args);
            let solo = compiler.compile(&reg, &mapping, "gemm", &args).unwrap();
            let shared = front.finish(&mapping, fp).unwrap();
            assert_eq!(shared.kernel, solo.kernel);
            assert_eq!(shared.lowered, solo.lowered);
            assert_eq!(shared.fingerprint, solo.fingerprint);
            let passes: Vec<&str> = shared.pass_nanos.iter().map(|(p, _)| p.as_str()).collect();
            assert_eq!(
                passes,
                [
                    "depan",
                    "vectorize",
                    "copyelim",
                    "warpspec",
                    "codegen",
                    "lower"
                ]
            );
            let front_ns: u64 = shared.pass_nanos[..3].iter().map(|(_, ns)| ns).sum();
            assert_eq!(front_ns > 0, i == 0, "{:?}", shared.pass_nanos);
        }
    }

    /// A program over the machine's shared memory — built directly, past
    /// the space's `validate` — is rejected by the emitted kernel's
    /// check with the typed error and the kernel's own byte count.
    #[test]
    fn a_kernel_over_shared_memory_is_a_typed_error() {
        let machine = MachineConfig::h100_sxm5();
        let compiler = CypressCompiler::new(CompilerOptions {
            machine: machine.clone(),
            ..Default::default()
        });
        let space = crate::kernels::comm::AllReduceSpace;
        let (reg, mapping, args) = space
            .build(
                &Shape::of(&[4, 2048, 2048]),
                &MappingConfig::Gemm(GemmConfig::h100()),
            )
            .unwrap();
        assert_eq!(
            compiler.compile(&reg, &mapping, space.entry(), &args).err(),
            Some(CompileError::OutOfSharedMemory {
                required: 327_680,
                limit: machine.smem_per_sm,
            })
        );
        assert_eq!(machine.smem_per_sm, 233_472);
    }

    #[test]
    fn a_front_rejects_a_mapping_that_is_not_a_schedule_sibling() {
        let compiler = compiler();
        let (reg, mapping, args) = gemm(GemmConfig::test());
        let mut front = compiler.front(&reg, &mapping, "gemm", &args).unwrap();
        let (_, other_tile, _) = gemm(GemmConfig {
            v: 128,
            ..GemmConfig::test()
        });
        assert!(matches!(
            front.finish(&other_tile, 0),
            Err(CompileError::Unsupported(_))
        ));
    }
}
