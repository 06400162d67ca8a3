//! Kernel (device-program) representation and validation.
//!
//! A [`Kernel`] is what the Cypress compiler emits and what hand-written
//! baselines construct directly: a grid of CTAs, per-CTA resources
//! (shared-memory regions, register fragments, mbarriers), and one
//! statically-scheduled instruction stream per *role*. Roles correspond to
//! the warp-specialization structure of §4.2.5: one optional DMA warp plus
//! one or more compute warpgroups.
//!
//! A kernel is checked in two halves. Its structure (grid, roles,
//! declarations, address spaces, barriers, trip counts) is checked by
//! [`crate::bytecode::lower`], in the one walk that lowers it; what the
//! machine can host (shared memory, registers, warps) by
//! [`Kernel::validate`].
#![deny(clippy::too_many_lines)]

use crate::instr::Instr;
use crate::machine::MachineConfig;
use crate::mem::{FragDecl, MemRef, ParamDecl, SmemDecl};
use std::fmt;

/// The kind of executor a role runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoleKind {
    /// A single data-movement warp (32 threads) that exclusively issues TMA
    /// work, as in Fig. 1b lines 6–19.
    Dma,
    /// A compute warpgroup (128 threads) identified by its index.
    Compute(usize),
}

impl fmt::Display for RoleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoleKind::Dma => write!(f, "dma"),
            RoleKind::Compute(i) => write!(f, "wg{i}"),
        }
    }
}

/// One role: an executor kind plus its instruction stream.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Role {
    /// Executor kind.
    pub kind: RoleKind,
    /// The statically scheduled instruction stream.
    pub body: Vec<Instr>,
}

/// mbarrier declaration: how many arrivals complete one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MbarDecl {
    /// Arrivals per phase (TMA completions count as one arrival each).
    pub expected: usize,
}

/// A complete device program.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Kernel {
    /// Kernel name for reports.
    pub name: String,
    /// Grid dimensions `[gx, gy, gz]` (CTAs).
    pub grid: [usize; 3],
    /// Global-memory parameters.
    pub params: Vec<ParamDecl>,
    /// Shared-memory regions (per CTA).
    pub smem: Vec<SmemDecl>,
    /// Register fragments (per compute warpgroup).
    pub frags: Vec<FragDecl>,
    /// mbarriers (per CTA).
    pub mbars: Vec<MbarDecl>,
    /// Roles: at most one DMA warp plus compute warpgroups.
    pub roles: Vec<Role>,
    /// `true` if this kernel is persistent: the grid is sized to the number
    /// of resident CTAs and work scheduling happens inside the kernel
    /// (the §5.3 persistent-kernel optimization). Persistent kernels pay
    /// the per-CTA launch overhead once per resident CTA rather than once
    /// per logical work item.
    pub persistent: bool,
}

impl Kernel {
    /// Shared-memory bytes used by one CTA. Saturates on overflow so the
    /// budget check in [`Kernel::validate`] fires instead of wrapping.
    #[must_use]
    pub fn smem_bytes(&self) -> usize {
        self.smem
            .iter()
            .map(SmemDecl::size_bytes)
            .fold(0usize, usize::saturating_add)
    }

    /// Number of compute warpgroups.
    #[must_use]
    pub fn num_compute_warpgroups(&self) -> usize {
        self.roles
            .iter()
            .filter(|r| matches!(r.kind, RoleKind::Compute(_)))
            .count()
    }

    /// `true` if the kernel has a dedicated DMA warp (warp specialization).
    #[must_use]
    pub fn has_dma_warp(&self) -> bool {
        self.roles.iter().any(|r| r.kind == RoleKind::Dma)
    }

    /// Registers per thread required by the largest compute warpgroup's
    /// fragments. Every compute warpgroup owns an instance of every
    /// fragment declaration, matching how the compiler allocates
    /// accumulators per warpgroup.
    #[must_use]
    pub fn regs_per_thread(&self) -> usize {
        // Base cost covers addresses, indices and operand staging.
        const BASE_REGS: usize = 40;
        self.frags
            .iter()
            .map(FragDecl::regs_per_thread)
            .fold(BASE_REGS, usize::saturating_add)
    }

    /// Warps per CTA (4 per compute warpgroup, 1 for a DMA warp).
    #[must_use]
    pub(crate) fn warps_per_cta(&self) -> usize {
        self.num_compute_warpgroups() * 4 + usize::from(self.has_dma_warp())
    }

    /// Check that `machine` can host one CTA of the kernel: its shared
    /// memory, its registers per thread and its warps. Reads the
    /// declarations and the roles, never an instruction; the structure is
    /// [`crate::bytecode::lower`]'s to check.
    ///
    /// # Errors
    ///
    /// Returns the first budget exceeded, in that order:
    /// [`KernelError::SharedMemoryExceeded`],
    /// [`KernelError::RegistersExceeded`] or [`KernelError::TooManyWarps`].
    pub fn validate(&self, machine: &MachineConfig) -> Result<(), KernelError> {
        if self.smem_bytes() > machine.smem_per_sm {
            return Err(KernelError::SharedMemoryExceeded {
                used: self.smem_bytes(),
                limit: machine.smem_per_sm,
            });
        }
        if self.regs_per_thread() > machine.max_regs_per_thread {
            return Err(KernelError::RegistersExceeded {
                used: self.regs_per_thread(),
                limit: machine.max_regs_per_thread,
            });
        }
        if self.warps_per_cta() > machine.max_warps_per_sm {
            return Err(KernelError::TooManyWarps {
                used: self.warps_per_cta(),
                limit: machine.max_warps_per_sm,
            });
        }
        Ok(())
    }
}

/// Kernel validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The grid has zero CTAs.
    EmptyGrid,
    /// The grid, named here, has more CTAs than a `usize` counts.
    GridOverflow([usize; 3]),
    /// The kernel declares no roles.
    NoRoles,
    /// More than one DMA warp was declared.
    MultipleDmaWarps,
    /// The same role kind appears twice.
    DuplicateRole(RoleKind),
    /// Shared memory exceeds the per-SM capacity.
    SharedMemoryExceeded {
        /// Bytes requested.
        used: usize,
        /// Machine limit.
        limit: usize,
    },
    /// Register fragments exceed the per-thread register budget.
    RegistersExceeded {
        /// Registers required.
        used: usize,
        /// Machine limit.
        limit: usize,
    },
    /// More warps than the SM can host.
    TooManyWarps {
        /// Warps requested.
        used: usize,
        /// Machine limit.
        limit: usize,
    },
    /// A barrier index has no declaration.
    UnknownBarrier(usize),
    /// A slice references a memory object that does not exist.
    UnknownMemoryObject(MemRef),
    /// A slice has zero extent.
    EmptySlice(MemRef),
    /// Source and destination extents of a copy disagree.
    CopyExtentMismatch {
        /// Source extent.
        src: (usize, usize),
        /// Destination extent.
        dst: (usize, usize),
    },
    /// The DMA warp attempted Tensor Core or register work.
    DmaWarpComputes,
    /// An operand lives in an address space the instruction cannot access.
    IllegalOperandSpace,
    /// A named barrier expects more parties than there are roles.
    BarrierPartiesExceedRoles {
        /// Parties requested.
        parties: usize,
        /// Roles declared.
        roles: usize,
    },
    /// A loop trip count references a loop variable.
    DynamicTripCount,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::EmptyGrid => write!(f, "kernel grid is empty"),
            KernelError::GridOverflow(grid) => {
                write!(f, "kernel grid {grid:?} has more CTAs than a usize counts")
            }
            KernelError::NoRoles => write!(f, "kernel declares no roles"),
            KernelError::MultipleDmaWarps => write!(f, "kernel declares more than one dma warp"),
            KernelError::DuplicateRole(k) => write!(f, "duplicate role {k}"),
            KernelError::SharedMemoryExceeded { used, limit } => {
                write!(
                    f,
                    "shared memory exceeded: {used} bytes used, {limit} available"
                )
            }
            KernelError::RegistersExceeded { used, limit } => {
                write!(
                    f,
                    "registers per thread exceeded: {used} used, {limit} available"
                )
            }
            KernelError::TooManyWarps { used, limit } => {
                write!(f, "too many warps per cta: {used} used, {limit} available")
            }
            KernelError::UnknownBarrier(b) => write!(f, "unknown mbarrier {b}"),
            KernelError::UnknownMemoryObject(m) => write!(f, "unknown memory object {m:?}"),
            KernelError::EmptySlice(m) => write!(f, "empty slice of {m:?}"),
            KernelError::CopyExtentMismatch { src, dst } => {
                write!(f, "copy extent mismatch: src {src:?}, dst {dst:?}")
            }
            KernelError::DmaWarpComputes => {
                write!(f, "dma warp may only issue data movement and barriers")
            }
            KernelError::IllegalOperandSpace => write!(f, "operand in illegal address space"),
            KernelError::BarrierPartiesExceedRoles { parties, roles } => {
                write!(
                    f,
                    "named barrier expects {parties} parties but kernel has {roles} roles"
                )
            }
            KernelError::DynamicTripCount => {
                write!(f, "loop trip count must be launch-constant")
            }
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::lower;
    use crate::expr::Expr;
    use crate::mem::Slice;
    use crate::SimError;
    use cypress_tensor::DType;

    /// The structural fault lowering reports of `k`, if any.
    fn structural(k: &Kernel) -> Result<(), KernelError> {
        match lower(k) {
            Ok(_) => Ok(()),
            Err(SimError::Kernel(e)) => Err(e),
            Err(e) => panic!("not a structural fault: {e}"),
        }
    }

    fn minimal_kernel() -> Kernel {
        Kernel {
            name: "t".into(),
            grid: [1, 1, 1],
            params: vec![ParamDecl {
                name: "A".into(),
                rows: 64,
                cols: 64,
                dtype: DType::F16,
            }],
            smem: vec![SmemDecl {
                name: "sA".into(),
                rows: 64,
                cols: 64,
                dtype: DType::F16,
                stages: 2,
            }],
            frags: vec![FragDecl {
                name: "acc".into(),
                rows: 64,
                cols: 64,
            }],
            mbars: vec![MbarDecl { expected: 1 }],
            roles: vec![Role {
                kind: RoleKind::Compute(0),
                body: vec![],
            }],
            persistent: false,
        }
    }

    #[test]
    fn minimal_kernel_validates() {
        let k = minimal_kernel();
        k.validate(&MachineConfig::test_gpu()).unwrap();
        assert_eq!(lower(&k).unwrap().ctas, 1);
        assert_eq!(k.smem_bytes(), 64 * 64 * 2 * 2);
        assert_eq!(k.warps_per_cta(), 4);
        assert!(!k.has_dma_warp());
    }

    #[test]
    fn smem_overflow_detected() {
        let mut k = minimal_kernel();
        k.smem[0].stages = 100;
        assert!(matches!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::SharedMemoryExceeded { .. })
        ));
    }

    #[test]
    fn register_overflow_detected() {
        let mut k = minimal_kernel();
        // 128x512 f32 = 512 regs/thread, beyond the 255 limit.
        k.frags[0] = FragDecl {
            name: "acc".into(),
            rows: 128,
            cols: 512,
        };
        assert!(matches!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::RegistersExceeded { .. })
        ));
    }

    #[test]
    fn arithmetic_overflow_in_declarations_still_rejected() {
        // Footprints that overflow usize saturate instead of wrapping, so
        // the budget checks reject them with the same typed errors.
        let mut k = minimal_kernel();
        k.smem[0].rows = usize::MAX / 2;
        k.smem[0].cols = 3;
        assert!(matches!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::SharedMemoryExceeded { .. })
        ));
        let mut k = minimal_kernel();
        k.frags[0].rows = usize::MAX / 2;
        k.frags[0].cols = 4;
        assert!(matches!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::RegistersExceeded { .. })
        ));
    }

    #[test]
    fn dma_warp_cannot_compute() {
        let mut k = minimal_kernel();
        k.roles = vec![Role {
            kind: RoleKind::Dma,
            body: vec![Instr::Wgmma {
                a: Slice::smem(0).extent(64, 16),
                b: Slice::smem(0).extent(16, 64),
                acc: Slice::frag(0).extent(64, 64),
                accumulate: true,
                transpose_b: false,
            }],
        }];
        assert_eq!(structural(&k), Err(KernelError::DmaWarpComputes));
    }

    #[test]
    fn tma_space_checked() {
        let mut k = minimal_kernel();
        k.roles[0].body = vec![Instr::TmaLoad {
            src: Slice::smem(0).extent(8, 8),
            dst: Slice::smem(0).extent(8, 8),
            bar: 0,
        }];
        assert_eq!(structural(&k), Err(KernelError::IllegalOperandSpace));
    }

    #[test]
    fn unknown_barrier_detected() {
        let mut k = minimal_kernel();
        k.roles[0].body = vec![Instr::MbarWait { bar: 3 }];
        assert_eq!(structural(&k), Err(KernelError::UnknownBarrier(3)));
    }

    #[test]
    fn dynamic_trip_count_rejected() {
        let mut k = minimal_kernel();
        k.roles[0].body = vec![Instr::Loop {
            var: 0,
            count: Expr::lit(4),
            body: vec![Instr::Loop {
                var: 1,
                count: Expr::var(0),
                body: vec![],
            }],
        }];
        assert_eq!(structural(&k), Err(KernelError::DynamicTripCount));
    }

    #[test]
    fn copy_extent_mismatch_detected() {
        let mut k = minimal_kernel();
        k.roles[0].body = vec![Instr::TmaLoad {
            src: Slice::param(0).extent(8, 8),
            dst: Slice::smem(0).extent(8, 4),
            bar: 0,
        }];
        assert!(matches!(
            structural(&k),
            Err(KernelError::CopyExtentMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_roles_rejected() {
        let mut k = minimal_kernel();
        k.roles.push(Role {
            kind: RoleKind::Compute(0),
            body: vec![],
        });
        assert!(matches!(structural(&k), Err(KernelError::DuplicateRole(_))));
    }

    /// A grid whose CTA count overflows `usize` is named in a typed error:
    /// the product is neither an overflow panic (dev profile) nor wrapped
    /// to an empty grid (release).
    #[test]
    fn an_overflowing_grid_is_a_typed_error() {
        let grid = [1usize << 33, 1 << 31, 1];
        let mut b = crate::KernelBuilder::new("huge", grid);
        b.role(RoleKind::Compute(0), vec![]);
        let sim = crate::Simulator::new(MachineConfig::test_gpu());
        let err = KernelError::GridOverflow(grid);
        assert_eq!(
            sim.run_timing(&b.build()),
            Err(SimError::Kernel(err.clone()))
        );
        assert_eq!(
            err.to_string(),
            "kernel grid [8589934592, 2147483648, 1] has more CTAs than a usize counts"
        );
    }
}
