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

use crate::expr::Env;
use crate::instr::Instr;
use crate::machine::MachineConfig;
use crate::mem::{FragDecl, MemRef, ParamDecl, Slice, SmemDecl};
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
    pub fn warps_per_cta(&self) -> usize {
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

    /// Per-CTA totals, from one walk: `(estimate, floor)`, both stored
    /// on the [`crate::Program`] by lowering once it has checked that
    /// every slice names a declared object, which this indexes.
    ///
    /// Loop bodies are weighted by their trip counts at CTA (0,0,0). The
    /// *estimate* (for the L2 hit estimate and the report) weighs an
    /// `If` by its larger side, so it is not a bound: a kernel whose trip
    /// counts read the block index, or whose guards skip work, is over-
    /// or under-counted for its other CTAs. The *floor* (for the timing
    /// floor) is what every CTA's run is proven to reach: an `If` weighs
    /// its smaller side (each unit's field on its own), and a kernel with
    /// a loop trip count that reads the block index, where CTA (0,0,0)'s
    /// counts bound no other CTA's, has none.
    #[must_use]
    pub(crate) fn totals(&self) -> (StaticTotals, Option<StaticTotals>) {
        let env = Env::for_block([0, 0, 0]);
        let mut walk = TotalsWalk::default();
        for role in &self.roles {
            self.accumulate(&role.body, &env, 1.0, &mut walk);
        }
        (walk.estimate, (!walk.reads_block).then_some(walk.floor))
    }

    fn accumulate(&self, body: &[Instr], env: &Env, weight: f64, walk: &mut TotalsWalk) {
        for instr in body {
            let zero = StaticTotals::default();
            let leaf = match instr {
                Instr::TmaLoad { src, .. } => StaticTotals {
                    tma_load_bytes: weight * self.slice_bytes(src),
                    ..zero
                },
                Instr::CpAsyncLoad { src, .. } => StaticTotals {
                    cp_async_bytes: weight * self.slice_bytes(src),
                    ..zero
                },
                Instr::TmaStore { dst, .. } => StaticTotals {
                    store_bytes: weight * self.slice_bytes(dst),
                    ..zero
                },
                Instr::Wgmma { a, acc, .. } => StaticTotals {
                    tc_flops: weight * wgmma_flops(a.num_elements() as f64, acc.cols as f64),
                    ..zero
                },
                Instr::Simt(op) => StaticTotals {
                    simt_flops: weight * op.dst().num_elements() as f64,
                    ..zero
                },
                Instr::Loop { count, body, .. } => {
                    walk.reads_block |= count.references_block();
                    let trips = count.eval(env).unwrap_or(0).max(0) as f64;
                    self.accumulate(body, env, weight * trips, walk);
                    continue;
                }
                Instr::If { then_, else_, .. } => {
                    let mut a = TotalsWalk::default();
                    let mut b = TotalsWalk::default();
                    self.accumulate(then_, env, weight, &mut a);
                    self.accumulate(else_, env, weight, &mut b);
                    walk.estimate.add_branch(&a.estimate, &b.estimate, f64::max);
                    walk.floor.add_branch(&a.floor, &b.floor, f64::min);
                    walk.reads_block |= a.reads_block || b.reads_block;
                    continue;
                }
                _ => continue,
            };
            walk.estimate.add(&leaf);
            walk.floor.add(&leaf);
        }
    }

    fn slice_bytes(&self, s: &Slice) -> f64 {
        let elem = match s.mem {
            MemRef::Param(i) => self.params[i].dtype.size_bytes(),
            MemRef::Smem(i) => self.smem[i].dtype.size_bytes(),
            MemRef::Frag(_) => 4,
        };
        (s.num_elements() * elem) as f64
    }
}

/// FLOPs of one `Wgmma`: `2 · |A| · N`, left to right in `f64` (the
/// timing golden digests pin the bits the engine reserves).
pub(crate) fn wgmma_flops(a_elems: f64, n: f64) -> f64 {
    2.0 * a_elems * n
}

/// Per-CTA static totals of a kernel: what its instructions move and
/// compute, loops weighted by their trip counts. Every field sums whole
/// numbers, so it is exact in `f64` whatever the summation order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StaticTotals {
    /// Global-memory bytes loaded per CTA through TMA.
    pub tma_load_bytes: f64,
    /// Global-memory bytes loaded per CTA through `cp.async`.
    pub cp_async_bytes: f64,
    /// Global-memory bytes stored per CTA (through TMA).
    pub store_bytes: f64,
    /// Tensor Core FLOPs per CTA.
    pub tc_flops: f64,
    /// SIMT FLOPs per CTA.
    pub simt_flops: f64,
}

impl StaticTotals {
    /// Global-memory bytes loaded per CTA, through either copy unit.
    #[must_use]
    pub fn load_bytes(&self) -> f64 {
        self.tma_load_bytes + self.cp_async_bytes
    }

    /// Add `other` field by field (adding a `0.0` leaves a field's bits
    /// as they are).
    fn add(&mut self, other: &Self) {
        self.tma_load_bytes += other.tma_load_bytes;
        self.cp_async_bytes += other.cp_async_bytes;
        self.store_bytes += other.store_bytes;
        self.tc_flops += other.tc_flops;
        self.simt_flops += other.simt_flops;
    }

    /// Add `pick(a, b)` to each field, field by field.
    fn add_branch(&mut self, a: &Self, b: &Self, pick: fn(f64, f64) -> f64) {
        self.tma_load_bytes += pick(a.tma_load_bytes, b.tma_load_bytes);
        self.cp_async_bytes += pick(a.cp_async_bytes, b.cp_async_bytes);
        self.store_bytes += pick(a.store_bytes, b.store_bytes);
        self.tc_flops += pick(a.tc_flops, b.tc_flops);
        self.simt_flops += pick(a.simt_flops, b.simt_flops);
    }
}

/// What [`Kernel::totals`]' walk has counted so far.
#[derive(Default)]
struct TotalsWalk {
    estimate: StaticTotals,
    floor: StaticTotals,
    /// A loop trip count read the block index.
    reads_block: bool,
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
    use crate::expr::{Cond, Expr};
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
    fn static_totals_weight_loops() {
        let mut k = minimal_kernel();
        k.roles[0].body = vec![Instr::Loop {
            var: 0,
            count: Expr::lit(4),
            body: vec![
                Instr::TmaLoad {
                    src: Slice::param(0).extent(16, 16),
                    dst: Slice::smem(0).extent(16, 16),
                    bar: 0,
                },
                Instr::Wgmma {
                    a: Slice::smem(0).extent(64, 16),
                    b: Slice::smem(0).extent(16, 64),
                    acc: Slice::frag(0).extent(64, 64),
                    accumulate: true,
                    transpose_b: false,
                },
            ],
        }];
        let (t, floor) = k.totals();
        assert_eq!(t.load_bytes(), 4.0 * 256.0 * 2.0);
        assert_eq!(t.tc_flops, 4.0 * 2.0 * 64.0 * 64.0 * 16.0);
        assert_eq!(floor, Some(t));
    }

    /// An `If` counts its larger side in the estimate and its smaller
    /// side in the floor, field by field; a trip count that reads the
    /// block index leaves the floor nothing to count.
    #[test]
    fn floor_totals_take_the_smaller_branch_and_no_block_dependent_trips() {
        let load = |unit: fn(Slice, Slice) -> Instr, rows| {
            unit(
                Slice::param(0).extent(rows, 16),
                Slice::smem(0).extent(rows, 16),
            )
        };
        let tma = |src, dst| Instr::TmaLoad { src, dst, bar: 0 };
        let cp = |src, dst| Instr::CpAsyncLoad { src, dst, bar: 0 };
        let mut k = minimal_kernel();
        k.roles[0].body = vec![Instr::If {
            cond: Cond::Eq(Expr::block_x(), Expr::lit(0)),
            then_: vec![load(tma, 16), load(cp, 4)],
            else_: vec![load(tma, 8), load(cp, 12)],
        }];
        let (estimate, floor) = k.totals();
        assert_eq!(
            (estimate.tma_load_bytes, estimate.cp_async_bytes),
            (512.0, 384.0)
        );
        let floor = floor.expect("no trip count reads the block");
        assert_eq!((floor.tma_load_bytes, floor.cp_async_bytes), (256.0, 128.0));

        k.roles[0].body = vec![Instr::Loop {
            var: 0,
            count: Expr::block_y() + Expr::lit(1),
            body: vec![load(tma, 16)],
        }];
        let (estimate, floor) = k.totals();
        assert_eq!(estimate.tma_load_bytes, 512.0);
        assert_eq!(floor, None);
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
