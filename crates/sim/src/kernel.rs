//! Kernel (device-program) representation and validation.
//!
//! A [`Kernel`] is what the Cypress compiler emits and what hand-written
//! baselines construct directly: a grid of CTAs, per-CTA resources
//! (shared-memory regions, register fragments, mbarriers), and one
//! statically-scheduled instruction stream per *role*. Roles correspond to
//! the warp-specialization structure of §4.2.5: one optional DMA warp plus
//! one or more compute warpgroups.

use crate::expr::Env;
use crate::instr::{Instr, SimtOp};
use crate::machine::MachineConfig;
use crate::mem::{FragDecl, MemRef, ParamDecl, Slice, SmemDecl, Space};
use std::collections::HashSet;
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
    /// Total CTAs in the grid.
    #[must_use]
    pub(crate) fn num_ctas(&self) -> usize {
        self.grid[0] * self.grid[1] * self.grid[2]
    }

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

    /// Validate the kernel against `machine`, checking every structural
    /// invariant the engine later relies on.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] describing the first violated invariant:
    /// shared memory or register over-subscription, out-of-range memory or
    /// barrier references, loop trip counts that are not launch-constant,
    /// operations issued by a role that cannot perform them, or slices whose
    /// address space is illegal for the instruction.
    pub fn validate(&self, machine: &MachineConfig) -> Result<(), KernelError> {
        if self.num_ctas() == 0 {
            return Err(KernelError::EmptyGrid);
        }
        if self.roles.is_empty() {
            return Err(KernelError::NoRoles);
        }
        let dma_count = self
            .roles
            .iter()
            .filter(|r| r.kind == RoleKind::Dma)
            .count();
        if dma_count > 1 {
            return Err(KernelError::MultipleDmaWarps);
        }
        let mut seen = HashSet::new();
        for r in &self.roles {
            if !seen.insert(r.kind) {
                return Err(KernelError::DuplicateRole(r.kind));
            }
        }
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
        for role in &self.roles {
            self.validate_block(&role.body, role.kind)?;
        }
        Ok(())
    }

    fn validate_block(&self, body: &[Instr], role: RoleKind) -> Result<(), KernelError> {
        for instr in body {
            match instr {
                Instr::TmaLoad { src, dst, bar } | Instr::CpAsyncLoad { src, dst, bar } => {
                    self.check_slice(src, Space::Global)?;
                    self.check_slice(dst, Space::Shared)?;
                    self.check_bar(*bar)?;
                    self.check_same_extent(src, dst)?;
                }
                Instr::TmaStore { src, dst } => {
                    self.check_slice(src, Space::Shared)?;
                    self.check_slice(dst, Space::Global)?;
                    self.check_same_extent(src, dst)?;
                }
                Instr::TmaStoreWait | Instr::Syncthreads => {}
                Instr::MbarArrive { bar } | Instr::MbarWait { bar } => self.check_bar(*bar)?,
                Instr::Wgmma { a, b, acc, .. } => {
                    if role == RoleKind::Dma {
                        return Err(KernelError::DmaWarpComputes);
                    }
                    if a.mem.space() == Space::Global || b.mem.space() != Space::Shared {
                        return Err(KernelError::IllegalOperandSpace);
                    }
                    self.check_slice_exists(a)?;
                    self.check_slice(b, Space::Shared)?;
                    self.check_slice(acc, Space::Register)?;
                }
                Instr::WgmmaWait { .. } => {
                    if role == RoleKind::Dma {
                        return Err(KernelError::DmaWarpComputes);
                    }
                }
                Instr::Simt(op) => {
                    if role == RoleKind::Dma && self.simt_touches_registers(op) {
                        return Err(KernelError::DmaWarpComputes);
                    }
                    self.check_slice_exists(op.dst())?;
                    for s in op.sources() {
                        self.check_slice_exists(s)?;
                    }
                }
                Instr::NamedBarrier { parties, .. } => {
                    if *parties > self.roles.len() {
                        return Err(KernelError::BarrierPartiesExceedRoles {
                            parties: *parties,
                            roles: self.roles.len(),
                        });
                    }
                }
                Instr::Loop { count, body, .. } => {
                    if count.references_vars() {
                        return Err(KernelError::DynamicTripCount);
                    }
                    self.validate_block(body, role)?;
                }
                Instr::If { then_, else_, .. } => {
                    self.validate_block(then_, role)?;
                    self.validate_block(else_, role)?;
                }
            }
        }
        Ok(())
    }

    fn simt_touches_registers(&self, op: &SimtOp) -> bool {
        op.dst().mem.space() == Space::Register
            || op
                .sources()
                .iter()
                .any(|s| s.mem.space() == Space::Register)
    }

    fn check_bar(&self, bar: usize) -> Result<(), KernelError> {
        if bar >= self.mbars.len() {
            return Err(KernelError::UnknownBarrier(bar));
        }
        Ok(())
    }

    fn check_same_extent(&self, a: &Slice, b: &Slice) -> Result<(), KernelError> {
        // Widen to u128 so two extents that wrap to the same usize in a
        // release build still compare unequal.
        if (a.rows as u128) * (a.cols as u128) != (b.rows as u128) * (b.cols as u128) {
            return Err(KernelError::CopyExtentMismatch {
                src: (a.rows, a.cols),
                dst: (b.rows, b.cols),
            });
        }
        Ok(())
    }

    fn check_slice(&self, s: &Slice, space: Space) -> Result<(), KernelError> {
        if s.mem.space() != space {
            return Err(KernelError::IllegalOperandSpace);
        }
        self.check_slice_exists(s)
    }

    fn check_slice_exists(&self, s: &Slice) -> Result<(), KernelError> {
        let ok = match s.mem {
            MemRef::Param(i) => i < self.params.len(),
            MemRef::Smem(i) => i < self.smem.len(),
            MemRef::Frag(i) => i < self.frags.len(),
        };
        if !ok {
            return Err(KernelError::UnknownMemoryObject(s.mem));
        }
        if s.rows == 0 || s.cols == 0 {
            return Err(KernelError::EmptySlice(s.mem));
        }
        Ok(())
    }

    /// Static per-CTA totals used by the bandwidth model and for reporting:
    /// `(global_load_bytes, global_store_bytes, tc_flops, simt_flops)`.
    ///
    /// Loop bodies are weighted by trip count, `If` branches by the maximum
    /// of the two sides (conservative). Trip counts are evaluated with the
    /// CTA-(0,0,0) environment; kernels with grid-dependent trip counts get
    /// an approximation, which only affects the L2 hit-rate estimate.
    #[must_use]
    pub fn static_totals(&self) -> StaticTotals {
        let env = Env::for_block([0, 0, 0]);
        let mut t = StaticTotals::default();
        for role in &self.roles {
            self.accumulate(&role.body, &env, 1.0, &mut t);
        }
        t
    }

    fn accumulate(&self, body: &[Instr], env: &Env, weight: f64, t: &mut StaticTotals) {
        for instr in body {
            match instr {
                Instr::TmaLoad { src, .. } | Instr::CpAsyncLoad { src, .. } => {
                    t.load_bytes += weight * self.slice_bytes(src);
                }
                Instr::TmaStore { dst, .. } => {
                    t.store_bytes += weight * self.slice_bytes(dst);
                }
                Instr::Wgmma { a, b, .. } => {
                    // flops = 2 * m * n * k; k is the shared extent.
                    let m = a.rows as f64;
                    let k = a.cols as f64;
                    let n = if b.rows == a.cols { b.cols } else { b.rows } as f64;
                    t.tc_flops += weight * 2.0 * m * n * k;
                }
                Instr::Simt(op) => {
                    t.simt_flops += weight * op.dst().num_elements() as f64;
                }
                Instr::Loop { count, body, .. } => {
                    let trips = count.eval(env).unwrap_or(0).max(0) as f64;
                    self.accumulate(body, env, weight * trips, t);
                }
                Instr::If { then_, else_, .. } => {
                    let mut a = StaticTotals::default();
                    let mut b = StaticTotals::default();
                    self.accumulate(then_, env, weight, &mut a);
                    self.accumulate(else_, env, weight, &mut b);
                    t.load_bytes += a.load_bytes.max(b.load_bytes);
                    t.store_bytes += a.store_bytes.max(b.store_bytes);
                    t.tc_flops += a.tc_flops.max(b.tc_flops);
                    t.simt_flops += a.simt_flops.max(b.simt_flops);
                }
                _ => {}
            }
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

/// Per-CTA static totals computed by [`Kernel::static_totals`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StaticTotals {
    /// Global-memory bytes loaded per CTA.
    pub load_bytes: f64,
    /// Global-memory bytes stored per CTA.
    pub store_bytes: f64,
    /// Tensor Core FLOPs per CTA.
    pub tc_flops: f64,
    /// SIMT FLOPs per CTA.
    pub simt_flops: f64,
}

/// Kernel validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The grid has zero CTAs.
    EmptyGrid,
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
    use crate::expr::Expr;
    use cypress_tensor::DType;

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
        assert_eq!(k.num_ctas(), 1);
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
        assert_eq!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::DmaWarpComputes)
        );
    }

    #[test]
    fn tma_space_checked() {
        let mut k = minimal_kernel();
        k.roles[0].body = vec![Instr::TmaLoad {
            src: Slice::smem(0).extent(8, 8),
            dst: Slice::smem(0).extent(8, 8),
            bar: 0,
        }];
        assert_eq!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::IllegalOperandSpace)
        );
    }

    #[test]
    fn unknown_barrier_detected() {
        let mut k = minimal_kernel();
        k.roles[0].body = vec![Instr::MbarWait { bar: 3 }];
        assert_eq!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::UnknownBarrier(3))
        );
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
        assert_eq!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::DynamicTripCount)
        );
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
            k.validate(&MachineConfig::test_gpu()),
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
        let t = k.static_totals();
        assert_eq!(t.load_bytes, 4.0 * 256.0 * 2.0);
        assert_eq!(t.tc_flops, 4.0 * 2.0 * 64.0 * 64.0 * 16.0);
    }

    #[test]
    fn duplicate_roles_rejected() {
        let mut k = minimal_kernel();
        k.roles.push(Role {
            kind: RoleKind::Compute(0),
            body: vec![],
        });
        assert!(matches!(
            k.validate(&MachineConfig::test_gpu()),
            Err(KernelError::DuplicateRole(_))
        ));
    }
}
