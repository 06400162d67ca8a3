//! A compilable unit: one Cypress program plus its entry description.
//!
//! [`Program`] packages exactly what [`cypress_core::CypressCompiler::compile`]
//! consumes — the task registry, the mapping specification, the entry task
//! name, and the entry argument descriptors — so a graph node, the kernel
//! cache, and the executor all speak about the same unit. The kernel
//! builders under [`cypress_core::kernels`] return `(registry, mapping,
//! args)` triples; [`Program::from_parts`] adapts them directly.
//!
//! A program may additionally carry a [`SpaceBinding`]: the
//! [`MappingSpace`] it was built from plus its problem [`Shape`]. Bound
//! programs are *tunable* — the session's autotuner (see
//! [`crate::tuner`]) can enumerate and time the space's candidate
//! mappings and transparently swap the winner in. [`Program::from_space`]
//! builds a bound program at the space's hand-tuned default, so an
//! untuned launch is bit-identical to the plain builders, and
//! [`Program::from_space_at`] at any other valid mapping. Only a space
//! attaches a binding, to a program it built at the binding's shape.

use crate::fuse::{self, LibraryKernel};
use cypress_core::fingerprint::{source_identity, SourceIdentity};
use cypress_core::front::Privilege;
use cypress_core::{
    CompileError, EntryArg, MappingConfig, MappingSpace, MappingSpec, Shape, TaskRegistry,
};
use cypress_sim::MachineConfig;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The mapping space a tunable program was built from, plus its problem
/// shape — what [`crate::Session::autotune`] needs to enumerate
/// candidate mappings for the program.
#[derive(Debug, Clone)]
pub struct SpaceBinding {
    /// The kernel's mapping space.
    pub space: Arc<dyn MappingSpace>,
    /// The problem shape the program was built at.
    pub shape: Shape,
}

/// One compilable Cypress program: an immutable, cheaply cloned handle.
/// Dereferences to its [`ProgramParts`].
///
/// # Immutable, shared, self-identifying
///
/// A `Program` is a handle to [`ProgramParts`] behind an [`Arc`]. The
/// parts are readable by plain field access through `Deref`
/// (`program.registry`, `&node.program.args`, `program.space`) and are
/// never writable after construction: there is no `DerefMut` and no
/// setter, and a [`SpaceBinding`] is attached only by the constructor
/// that built the parts from that space at that shape. That is what
/// makes three things sound:
///
/// - **Clones share everything.** `Program::clone` bumps a reference
///   count, so every graph the runtime rebuilds from another (the fusion
///   and shard rewrites, [`crate::Session::compile_graph`]) shares its
///   nodes' registries and mappings with the source graph.
/// - **The identity is computed once.** The parts memoize their
///   target-free [`SourceIdentity`] — the hash a warm launch needs to
///   find its compiled kernel — on first use; every clone sees the memo.
///   The same goes for which library kernel the parts are, the deep
///   registry comparison the fusion rewriter matches members by.
/// - **A sweep compiles the program it is given.** Every candidate of
///   a bound program's space builds the program's registry and entry
///   arguments, so [`crate::Session::autotune`] compiles each candidate
///   from them and its mapping alone, hashed from the memoized
///   computation hash.
///
/// The identity is *structural*, never the allocation's address: it is
/// the hash [`cypress_core::fingerprint::source_identity`] computes from
/// the parts, so a program rebuilt from scratch has the identity of the
/// original and hits the same cache entries, and nothing
/// target-dependent is stored — a session combines the program's source
/// hash with its own target hash, so one program launched through
/// sessions with different machines or compiler options still gets
/// different fingerprints.
#[derive(Debug, Clone)]
pub struct Program {
    parts: Arc<ProgramParts>,
}

/// What a [`Program`] holds, read through the program's `Deref`. Only
/// [`Program`]'s constructors build one, and nothing hands out `&mut`
/// access, so the memoized identity can never go stale.
#[derive(Debug)]
pub struct ProgramParts {
    /// Task variants.
    pub registry: TaskRegistry,
    /// Mapping specification (must have exactly one entrypoint).
    pub mapping: MappingSpec,
    /// Entry task name (what the compiler's `name` argument receives).
    pub entry: String,
    /// Entry parameter descriptors, in kernel declaration order.
    pub args: Vec<EntryArg>,
    /// The mapping space this program was built from, when known —
    /// `None` programs always run their fixed mapping.
    pub space: Option<SpaceBinding>,
    /// Hash of `(registry, mapping, entry, args)`, filled on first use.
    identity: OnceLock<SourceIdentity>,
    /// Which library kernel `(registry, entry, args)` is, if any,
    /// classified on first use.
    library: OnceLock<Option<LibraryKernel>>,
}

impl Deref for Program {
    type Target = ProgramParts;

    fn deref(&self) -> &ProgramParts {
        &self.parts
    }
}

impl Program {
    fn build(
        registry: TaskRegistry,
        mapping: MappingSpec,
        entry: String,
        args: Vec<EntryArg>,
        space: Option<SpaceBinding>,
    ) -> Self {
        Program {
            parts: Arc::new(ProgramParts {
                registry,
                mapping,
                entry,
                args,
                space,
                identity: OnceLock::new(),
                library: OnceLock::new(),
            }),
        }
    }

    /// Package a registry, mapping, and argument list under `entry`.
    #[must_use]
    pub fn new(
        registry: TaskRegistry,
        mapping: MappingSpec,
        entry: &str,
        args: Vec<EntryArg>,
    ) -> Self {
        Program::build(registry, mapping, entry.to_string(), args, None)
    }

    /// Adapt the `(registry, mapping, args)` triple the kernel builders
    /// return, e.g. `Program::from_parts(gemm::build(m, n, k, &machine)?, "gemm")`.
    #[must_use]
    pub fn from_parts(parts: (TaskRegistry, MappingSpec, Vec<EntryArg>), entry: &str) -> Self {
        let (registry, mapping, args) = parts;
        Program::new(registry, mapping, entry, args)
    }

    /// Build a *tunable* program: `space` at its hand-tuned default
    /// mapping for `machine`, carrying the [`SpaceBinding`] the session's
    /// autotuner needs. Launched under [`crate::MappingPolicy::Default`]
    /// the result is bit-identical to the plain kernel builders.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] when the default mapping is invalid
    /// for this machine/shape combination.
    pub fn from_space(
        space: Arc<dyn MappingSpace>,
        shape: Shape,
        machine: &MachineConfig,
    ) -> Result<Self, CompileError> {
        let cfg = space.default_for(machine);
        Program::from_space_at(space, shape, &cfg, machine)
    }

    /// [`Program::from_space`] for the kernels the runtime inserts on
    /// its own (fused nodes), whose shapes no
    /// hand-tuned default anticipated: built at the default mapping when
    /// it fits `shape`, else at the space's first candidate.
    ///
    /// # Errors
    ///
    /// The default mapping's [`CompileError`] when the space has no
    /// valid mapping for this machine/shape combination.
    pub(crate) fn fitted(
        space: Arc<dyn MappingSpace>,
        shape: Shape,
        machine: &MachineConfig,
    ) -> Result<Self, CompileError> {
        let cfg = space.default_or_first_candidate(machine, &shape)?;
        Program::from_space_at(space, shape, &cfg, machine)
    }

    /// [`Program::from_space`] at the mapping `cfg` instead of the
    /// space's default: `space`'s program for `shape` at `cfg`,
    /// carrying the [`SpaceBinding`]. A binding exists only on a program
    /// its space built at its shape, which is what lets a sweep compile
    /// every candidate from the program's own registry and arguments.
    ///
    /// # Errors
    ///
    /// [`CompileError`] when `cfg` is invalid for this machine/shape
    /// combination, or the space cannot build it.
    pub fn from_space_at(
        space: Arc<dyn MappingSpace>,
        shape: Shape,
        cfg: &MappingConfig,
        machine: &MachineConfig,
    ) -> Result<Self, CompileError> {
        space.validate(machine, &shape, cfg)?;
        let (registry, mapping, args) = space.build(&shape, cfg)?;
        let entry = space.entry().to_string();
        Ok(Program::build(
            registry,
            mapping,
            entry,
            args,
            Some(SpaceBinding { space, shape }),
        ))
    }

    /// The target-free identity of `(registry, mapping, entry, args)`,
    /// hashed on first use and shared by every clone.
    pub(crate) fn identity(&self) -> SourceIdentity {
        *self
            .parts
            .identity
            .get_or_init(|| source_identity(&self.registry, &self.mapping, &self.entry, &self.args))
    }

    /// The library kernel this program is, if any — what the fusion
    /// rewriter's rules match members by — classified on first use and
    /// shared by every clone.
    pub(crate) fn library_kernel(&self) -> Option<LibraryKernel> {
        *self.parts.library.get_or_init(|| fuse::classify(self))
    }

    /// `true` when `self` and `other` are handles to the same parts —
    /// what the rebuild passes' tests assert about the graphs they emit.
    #[cfg(test)]
    pub(crate) fn shares_parts_with(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.parts, &other.parts)
    }

    /// Declared privilege of entry parameter `idx`, if the entry variant
    /// declares its signature (used to distinguish outputs from inputs).
    #[must_use]
    pub(crate) fn param_privilege(&self, idx: usize) -> Option<Privilege> {
        let entry_variant = &self.mapping.entry().variant;
        let variant = self.registry.variant(entry_variant).ok()?;
        let sig = variant.params.get(idx)?;
        Some(sig.privilege)
    }

    /// Indices of the entry parameters the kernel writes (its outputs).
    #[must_use]
    pub fn output_indices(&self) -> Vec<usize> {
        (0..self.args.len())
            .filter(|&i| {
                matches!(
                    self.param_privilege(i),
                    Some(Privilege::Write | Privilege::ReadWrite)
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_core::kernels::gemm;
    use cypress_sim::MachineConfig;

    #[test]
    fn from_parts_preserves_declaration_order() {
        let p = Program::from_parts(
            gemm::build(128, 128, 64, &MachineConfig::test_gpu()).unwrap(),
            "gemm",
        );
        assert_eq!(p.args.len(), 3);
        assert_eq!(p.output_indices(), vec![0]);
    }

    fn gemm_program() -> Program {
        Program::from_parts(
            gemm::build(128, 128, 64, &MachineConfig::test_gpu()).unwrap(),
            "gemm",
        )
    }

    #[test]
    fn clones_and_rebuilds_have_the_memoized_identity() {
        let original = gemm_program();
        // Taken before the original is hashed: the clone shares the
        // (still empty) memo, the rebuild owns its own.
        let early_clone = original.clone();
        let early_rebuild = gemm_program();
        assert!(early_clone.shares_parts_with(&original));
        assert!(!early_rebuild.shares_parts_with(&original));
        let early_rebuild_id = early_rebuild.identity();

        let id = original.identity();
        assert_eq!(
            id,
            source_identity(
                &original.registry,
                &original.mapping,
                &original.entry,
                &original.args
            ),
            "the memo is the structural hash of the parts"
        );
        assert_eq!(early_clone.identity(), id);
        assert_eq!(early_rebuild_id, id);
        // And after: a late clone reads the memo, a late rebuild rehashes
        // to the same value.
        assert_eq!(original.clone().identity(), id);
        assert_eq!(gemm_program().identity(), id);
        assert_eq!(original.identity(), id, "asking twice changes nothing");
    }

    #[test]
    fn programs_cross_threads() {
        // The sweep workers borrow programs; the memo must not cost that.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
    }
}
