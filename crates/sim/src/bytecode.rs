//! Flat bytecode for the execution engine.
//!
//! A kernel's role bodies are trees of [`Instr`]s whose slice origins,
//! loop trip counts and branch conditions are [`Expr`] trees. Rather
//! than evaluate those trees and re-derive every byte and FLOP quantity
//! per CTA and per iteration, [`lower`] does that work **once per
//! compiled kernel**, in one walk of each role's tree that is also the
//! kernel's structural check (see [`lower`]'s errors), producing a
//! [`Program`]: a flat instruction stream with
//!
//! - index arithmetic compiled to a small register machine (`IdxOp`
//!   preludes over virtual `i64` registers, constant-folded,
//!   identity-folded and value-numbered per instruction: an operation
//!   is keyed by its kind and lowered operands, so two trees that lower
//!   to one operation share its register),
//! - slice bounds (`prows`/`pcols`/`stages`) resolved from the kernel's
//!   declarations at lowering time, and launch-constant slices (literal
//!   origin, no prelude, in bounds) resolved outright (see
//!   `BcSlice::fixed`),
//! - *proven* instructions: lowering bounds every origin by interval
//!   arithmetic over the grid, the enclosing loops' trip counts and the
//!   enclosing then-blocks' conditions, and marks an instruction whose
//!   slices all fit their objects (see `Operands::proven`). Such an
//!   instruction cannot fail to resolve, so a timing run — which drops
//!   what it resolves — issues it without building its operands,
//! - transfer bytes, WGMMA FLOPs and SIMT cost factors pre-computed with
//!   overflow-checked arithmetic, and summed as each operation is lowered
//!   into the kernel's per-CTA totals, their floor and its L2 hit
//!   estimate (see [`Program`]'s fields),
//! - operand slices kept out of the instruction stream, in one table per
//!   program that an instruction indexes (see `Operands`): what a
//!   timing run fetches per event is a `BcInstr` of at most 72 bytes.
//!
//! Positions follow the tree in order: a loop is its `LoopStart`, its body
//! and its `LoopEnd`; an `If` is its `Branch`, the then-block, a `Jump`
//! over the else-block, and the else-block; each role ends in `End`. A
//! program counter in an error context or a deadlock report names one of
//! these positions. Index operations evaluate in [`Expr::eval`]'s
//! order and fail with its errors where it would; this module's
//! `vm_matches_expr_eval_*` tests hold the VM to it. A timing run skips
//! only what cannot fail.
//!
//! Index registers use wrapping arithmetic: the VM never panics on
//! overflow, as [`Expr::eval`] does where overflow checks are on.
//! Division still reports [`EvalError::DivisionByZero`] exactly where
//! [`Expr::eval`] would.
#![deny(clippy::too_many_lines)]

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::apply::RSlice;
use crate::error::SimError;
use crate::expr::{Cond, Env, EvalError, Expr};
use crate::fnv::Fnv64;
use crate::instr::{Instr, SimtOp};
use crate::kernel::{Kernel, KernelError, Role, RoleKind};
use crate::mem::{MemRef, Slice, Space};

/// Operand of an index instruction: an immediate, a block index, a loop
/// variable read from the executor's environment, or a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Scalar {
    /// Constant, folded at lowering time.
    Imm(i64),
    /// Block index component (0 = x, 1 = y, 2 = z).
    Block(u8),
    /// Loop variable id, read through the executor's [`Env`] so unbound
    /// uses fail exactly like [`Expr::eval`].
    Var(usize),
    /// Virtual register written by an earlier [`IdxOp`] of the same
    /// instruction.
    Reg(u32),
}

/// One register-machine index operation. Arithmetic wraps ([`Expr::eval`]'s
/// release-mode behavior, made unconditional so the VM cannot panic);
/// division and remainder use Euclidean semantics like [`Expr::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdxOp {
    /// `dst = a + b`.
    Add { dst: u32, a: Scalar, b: Scalar },
    /// `dst = a - b`.
    Sub { dst: u32, a: Scalar, b: Scalar },
    /// `dst = a * b`.
    Mul { dst: u32, a: Scalar, b: Scalar },
    /// `dst = a.div_euclid(b)`; `b == 0` raises division-by-zero.
    Div { dst: u32, a: Scalar, b: Scalar },
    /// `dst = a.rem_euclid(b)`; `b == 0` raises division-by-zero.
    Mod { dst: u32, a: Scalar, b: Scalar },
    /// Raise division-by-zero if `b == 0`. Emitted between a divisor's
    /// operations and a dividend's, replicating [`Expr::eval`]'s
    /// divisor-first evaluation order so error precedence is identical.
    CheckDiv { b: Scalar },
}

/// A lowered scalar expression: a prelude of index operations plus the
/// operand holding the final value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SVal {
    pub(crate) pre: Vec<IdxOp>,
    pub(crate) val: Scalar,
}

/// Comparison kind of a lowered branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CondKind {
    /// `a >= b`.
    Ge,
    /// `a < b`.
    Lt,
    /// `a == b`.
    Eq,
}

/// A lowered branch condition (operands evaluated left then right, like
/// [`Cond::eval`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BcCond {
    pub(crate) pre: Vec<IdxOp>,
    pub(crate) kind: CondKind,
    pub(crate) a: Scalar,
    pub(crate) b: Scalar,
}

/// A lowered slice: origin expressions compiled to a prelude + operands,
/// and the owning object's bounds baked in from the kernel declarations.
///
/// Each slice carries its **own** prelude (rather than one merged
/// per-instruction prelude) because the engine resolves operand slices
/// one at a time, in operand order — evaluating, sign-checking and
/// bounds-checking a source completely before touching the
/// destination's expressions. Keeping that granularity fixes which error
/// fires first when several would.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BcSlice {
    pub(crate) mem: MemRef,
    pub(crate) pre: Vec<IdxOp>,
    pub(crate) stage: Scalar,
    pub(crate) row0: Scalar,
    pub(crate) col0: Scalar,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Row bound of the owning object.
    pub(crate) prows: usize,
    /// Column bound of the owning object.
    pub(crate) pcols: usize,
    /// Stage bound of the owning object (1 outside shared memory).
    pub(crate) stages: usize,
    /// The slice resolved at lowering time, when nothing about it depends
    /// on the launch: an empty prelude, three [`Scalar::Imm`] origins, and
    /// an origin [`BcSlice::at`] accepts. The engine returns it without
    /// evaluating anything. A constant origin that is *out of* bounds
    /// stays `None`, so the error is raised by the dynamic path when —
    /// and only if — the instruction executes, in operand order.
    pub(crate) fixed: Option<RSlice>,
}

impl BcSlice {
    /// The slice at an evaluated origin: the sign and bounds check every
    /// resolve performs, whether at lowering time (constant origins) or
    /// per invocation.
    pub(crate) fn at(&self, stage: i64, row0: i64, col0: i64) -> Result<RSlice, SimError> {
        if stage < 0 || row0 < 0 || col0 < 0 {
            return Err(SimError::OutOfBounds {
                what: format!(
                    "negative slice origin ({stage},{row0},{col0}) of {:?}",
                    self.mem
                ),
            });
        }
        let r = RSlice {
            mem: self.mem,
            stage: stage as usize,
            row0: row0 as usize,
            col0: col0 as usize,
            rows: self.rows,
            cols: self.cols,
        };
        if r.stage >= self.stages
            || r.row0
                .checked_add(r.rows)
                .is_none_or(|end| end > self.prows)
            || r.col0
                .checked_add(r.cols)
                .is_none_or(|end| end > self.pcols)
        {
            return Err(SimError::OutOfBounds {
                what: format!(
                    "slice of {:?}: stage {} origin ({},{}) extent ({}x{}) exceeds ({}x{} stages {})",
                    self.mem,
                    r.stage,
                    r.row0,
                    r.col0,
                    r.rows,
                    r.cols,
                    self.prows,
                    self.pcols,
                    self.stages
                ),
            });
        }
        Ok(r)
    }
}

/// The operand slices of one instruction: `len` consecutive entries of
/// its [`Program`]'s slice table from `first`, in operand order — a
/// copy's source and destination, a WGMMA's `a`, `b` and accumulator, a
/// SIMT operation's sources and then its destination, so never more than
/// [`MAX_OPERANDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Operands {
    first: u32,
    len: u32,
    /// Every slice resolves: lowering bounded each origin wherever the
    /// instruction can run, and every slice fits its object. The mark is
    /// the instruction's, not a slice's, because a slice's prelude may
    /// read a register an earlier slice's prelude wrote (value numbering
    /// is per instruction). A timing run issues a proven instruction
    /// without building its operands; a functional run resolves them like
    /// any other, and a failure there is a lowering bug, reported as such.
    pub(crate) proven: bool,
}

/// The most operand slices an instruction has.
pub(crate) const MAX_OPERANDS: usize = 3;

/// Pre-computed cost factors of a SIMT operation (all of it depends only
/// on static extents and address spaces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimtCost {
    pub(crate) elems: f64,
    pub(crate) sfu: bool,
    pub(crate) smem_bytes: f64,
    pub(crate) gl_read: f64,
    pub(crate) gl_write: f64,
}

/// A lowered device operation with its quantities pre-computed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BcOp {
    /// TMA global→shared copy of `operands` (source, destination)
    /// arriving `bar` on completion. `bar` is narrowed here, once, because
    /// the completion event carries it (see [`index32`]).
    TmaLoad {
        operands: Operands,
        bar: u32,
        bytes: f64,
    },
    /// `cp.async` global→shared copy arriving `bar` on completion.
    CpAsyncLoad {
        operands: Operands,
        bar: u32,
        bytes: f64,
    },
    /// TMA shared→global copy tracked by [`BcOp::TmaStoreWait`].
    TmaStore { operands: Operands, bytes: f64 },
    /// Block until outstanding TMA stores drain.
    TmaStoreWait,
    /// Arrive mbarrier `bar` once.
    MbarArrive { bar: usize },
    /// Wait for the next phase of mbarrier `bar`.
    MbarWait { bar: usize },
    /// Asynchronous Tensor Core MMA (`a`, `b`, accumulator) with
    /// pre-computed FLOPs and operand shared-memory traffic.
    Wgmma {
        operands: Operands,
        accumulate: bool,
        transpose_b: bool,
        flops: f64,
        smem_bytes: f64,
    },
    /// Wait until at most `pending` WGMMAs remain outstanding.
    WgmmaWait { pending: usize },
    /// Bulk SIMT operation. `op` is an owned clone so the engine's
    /// deferred apply can borrow it for the program's lifetime.
    Simt {
        op: Box<SimtOp>,
        operands: Operands,
        cost: SimtCost,
    },
    /// Named-barrier arrive-and-wait.
    NamedBarrier { id: usize, parties: usize },
    /// CTA-wide barrier.
    Syncthreads,
}

/// One bytecode position: a device operation, or the control flow a loop
/// or an `If` is laid out with (see the module documentation).
///
/// The engine fetches one per step, so it is kept small: an operation's
/// slices live in the [`Program`]'s table, which a timing run of a proven
/// operation never reads, and a SIMT operation's tree is boxed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BcInstr {
    /// A device operation.
    Op(BcOp),
    /// Loop header; `end` is the index just past the matching
    /// [`BcInstr::LoopEnd`].
    LoopStart { var: usize, count: SVal, end: usize },
    /// Loop back-edge (targets live in the executor's loop stack).
    LoopEnd,
    /// Conditional branch; `else_target` is taken when false.
    Branch { cond: BcCond, else_target: usize },
    /// Unconditional jump.
    Jump(usize),
    /// End of the role's program.
    End,
}

// The engine fetches an instruction per step (see the type's doc).
const _: () = assert!(std::mem::size_of::<BcInstr>() <= 72);

/// A kernel's functional body lowered once into flat bytecode.
///
/// Produced by [`lower`] for a structurally valid kernel only, cached by
/// the runtime alongside the compiled kernel, and executed by
/// `Simulator::run_functional_lowered` / `Simulator::run_timing_lowered`,
/// which check just the machine budgets ([`Kernel::validate`]). Executing
/// a program against a kernel other than the one it was lowered from is
/// rejected with a typed [`SimError::Internal`] (a structural hash of the
/// kernel is stored at lowering time).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) roles: Vec<Vec<BcInstr>>,
    /// Every instruction's operand slices (see [`Operands`]).
    slices: Vec<BcSlice>,
    pub(crate) num_regs: usize,
    pub(crate) shape_hash: u64,
    /// CTAs in the grid; lowering checked the product.
    pub(crate) ctas: usize,
    /// The kernel's per-CTA totals, for the L2 hit estimate and the
    /// report: every operation's bytes or FLOPs, a loop body's weighted
    /// by its trip count at CTA (0,0,0) and an `If` by its larger side.
    /// So it is not a bound: a kernel whose trip counts read the block
    /// index, or whose guards skip work, is over- or under-counted for
    /// its other CTAs.
    pub(crate) totals: StaticTotals,
    /// The per-CTA work every CTA is proven to do, for the timing floor
    /// and a bounded run's CTA-launch check: the same sums with an `If`
    /// weighed by its smaller side, each field on its own. `None` when a
    /// loop trip count reads the block index, where CTA (0,0,0)'s counts
    /// bound no other CTA's.
    pub(crate) floor: Option<StaticTotals>,
    /// The L2 hit rate a run charges every global load, estimated from
    /// the totals in place of an L2 simulation: loads beyond each
    /// parameter's unique bytes are assumed hits.
    pub(crate) l2_hit: f64,
    unproven: usize,
}

impl Program {
    /// How many slice-bearing instructions lowering could not prove in
    /// bounds (see the module documentation): the ones a timing run
    /// still evaluates and bounds-checks on every execution.
    #[must_use]
    pub fn unproven_ops(&self) -> usize {
        self.unproven
    }

    /// The slices of `operands`, in operand order.
    pub(crate) fn slices(&self, operands: Operands) -> &[BcSlice] {
        let first = operands.first as usize;
        &self.slices[first..first + operands.len as usize]
    }
}

/// FLOPs of one `Wgmma`: `2 · |A| · N`, left to right in `f64` (the
/// timing golden digests pin the bits the engine reserves).
fn wgmma_flops(a_elems: f64, n: f64) -> f64 {
    2.0 * a_elems * n
}

/// Per-CTA static totals of a kernel: what its instructions move and
/// compute, loops weighted by their trip counts. Every field sums whole
/// numbers, so it is exact in `f64` whatever the summation order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct StaticTotals {
    /// Global-memory bytes loaded per CTA through TMA.
    pub tma_load_bytes: f64,
    /// Global-memory bytes loaded per CTA through `cp.async`.
    pub cp_async_bytes: f64,
    /// Global-memory bytes stored per CTA (through TMA): the bytes of
    /// each store's destination.
    pub store_bytes: f64,
    /// Tensor Core FLOPs per CTA.
    pub tc_flops: f64,
    /// SIMT FLOPs per CTA: each operation's destination elements.
    pub simt_flops: f64,
}

impl StaticTotals {
    /// Global-memory bytes loaded per CTA, through either copy unit.
    #[must_use]
    pub(crate) fn load_bytes(&self) -> f64 {
        self.tma_load_bytes + self.cp_async_bytes
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

/// FNV-1a over the kernel's derived `Hash`: a cheap structural
/// fingerprint tying a [`Program`] to the kernel it was lowered from.
/// Every run recomputes it, so it hashes the fields themselves rather
/// than a rendering of them.
pub(crate) fn kernel_shape_hash(kernel: &Kernel) -> u64 {
    let mut h = Fnv64::new();
    kernel.hash(&mut h);
    h.finish()
}

/// Check `kernel`'s structure and lower its role bodies into a flat
/// [`Program`], summing its totals, their floor and its L2 hit estimate
/// in the same walk.
///
/// # Errors
///
/// Returns [`SimError::Kernel`] with the first structural fault, roles
/// and instructions in order: an empty grid or one whose CTA count
/// overflows `usize`; no roles, more than one DMA warp or a duplicate
/// role; a slice of an undeclared memory object, an empty slice, or one
/// in an address space its instruction cannot access; an undeclared
/// mbarrier; a copy whose extents differ; a DMA warp that computes; a
/// named barrier for more parties than there are roles; a loop trip count
/// that reads a loop variable. Returns [`SimError::Internal`] if a
/// pre-computed quantity (a copy's bytes, a store's destination bytes, a
/// WGMMA's or a SIMT operation's elements) overflows `usize` or an index
/// does not fit a `u32` (an mbarrier, or a slice of a program past 2³²
/// of them).
pub fn lower(kernel: &Kernel) -> Result<Program, SimError> {
    let ctas = launch_shape(kernel)?;
    let mut ctx = Lower::new(kernel);
    let roles = kernel
        .roles
        .iter()
        .map(|r| ctx.lower_role(r))
        .collect::<Result<Vec<_>, _>>()?;
    let totals = ctx.totals;
    let loads = totals.load_bytes() * ctas as f64;
    let unique: f64 = kernel.params.iter().map(|p| p.size_bytes() as f64).sum();
    let l2_hit = if loads > 0.0 {
        (1.0 - unique / loads).clamp(0.0, 0.995)
    } else {
        0.0
    };
    Ok(Program {
        roles,
        slices: ctx.slices,
        num_regs: ctx.max_regs as usize,
        shape_hash: kernel_shape_hash(kernel),
        ctas,
        totals,
        floor: (!ctx.reads_block).then_some(ctx.floor),
        l2_hit,
        unproven: ctx.unproven,
    })
}

/// The CTAs in `kernel`'s grid, once the grid and the roles check out.
fn launch_shape(kernel: &Kernel) -> Result<usize, KernelError> {
    if kernel.grid.contains(&0) {
        return Err(KernelError::EmptyGrid);
    }
    let ctas = kernel
        .grid
        .iter()
        .try_fold(1usize, |n, &g| n.checked_mul(g))
        .ok_or(KernelError::GridOverflow(kernel.grid))?;
    let roles = &kernel.roles;
    if roles.is_empty() {
        return Err(KernelError::NoRoles);
    }
    if roles.iter().filter(|r| r.kind == RoleKind::Dma).count() > 1 {
        return Err(KernelError::MultipleDmaWarps);
    }
    for (i, r) in roles.iter().enumerate() {
        if roles[..i].iter().any(|earlier| earlier.kind == r.kind) {
            return Err(KernelError::DuplicateRole(r.kind));
        }
    }
    Ok(ctas)
}

/// An index operation's kind: with its two lowered operands, the key
/// [`Lower`]'s value numbering looks an operation up by.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum OpKind {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl OpKind {
    /// `x op y` at lowering time, when it is exact: `None` on overflow
    /// (the runtime op wraps, `Expr::eval`'s release behavior) and for a
    /// zero divisor (the runtime op raises the error).
    fn fold(self, x: i64, y: i64) -> Option<i64> {
        match self {
            OpKind::Add => x.checked_add(y),
            OpKind::Sub => x.checked_sub(y),
            OpKind::Mul => x.checked_mul(y),
            OpKind::Div => x.checked_div_euclid(y),
            OpKind::Mod => x.checked_rem_euclid(y),
        }
    }

    /// The operation writing `a op b` to register `dst`.
    fn op(self, dst: u32, a: Scalar, b: Scalar) -> IdxOp {
        match self {
            OpKind::Add => IdxOp::Add { dst, a, b },
            OpKind::Sub => IdxOp::Sub { dst, a, b },
            OpKind::Mul => IdxOp::Mul { dst, a, b },
            OpKind::Div => IdxOp::Div { dst, a, b },
            OpKind::Mod => IdxOp::Mod { dst, a, b },
        }
    }
}

/// The closed interval `[lo, hi]` of values an index expression takes.
#[derive(Clone, Copy)]
struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The indices below `n`, `[0, n - 1]`; `None` when there are none.
    fn below(n: i64) -> Option<Self> {
        (n >= 1).then(|| Interval { lo: 0, hi: n - 1 })
    }

    /// `op` over every pair of values, by the four corners: exact for
    /// `+`, `-` and `*`, which are monotone or bilinear. `None` when a
    /// corner overflows, and so when some pair of values could.
    fn corners(self, other: Self, op: fn(i64, i64) -> Option<i64>) -> Option<Self> {
        let c = [
            op(self.lo, other.lo)?,
            op(self.lo, other.hi)?,
            op(self.hi, other.lo)?,
            op(self.hi, other.hi)?,
        ];
        Some(Interval {
            lo: c.into_iter().min()?,
            hi: c.into_iter().max()?,
        })
    }

    /// The values in both; `None` when there are none.
    fn meet(self, other: Self) -> Option<Self> {
        let i = Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        };
        (i.lo <= i.hi).then_some(i)
    }

    /// Whether every origin in `self`, plus `extent`, stays within
    /// `bound`: what [`BcSlice::at`] checks of one value, here of all.
    fn fits(self, extent: usize, bound: usize) -> bool {
        self.lo >= 0
            && usize::try_from(self.hi)
                .ok()
                .and_then(|hi| hi.checked_add(extent))
                .is_some_and(|end| end <= bound)
    }
}

/// What the engine's environment holds at the position being lowered,
/// as intervals.
#[derive(Default)]
struct Scope {
    /// The loop variables the role's program binds at more than one
    /// `LoopStart`. Such a variable may be rebound, or unbound by a
    /// nested loop's exit, under another loop over it, so nothing that
    /// reads it is proven.
    reused: HashSet<usize>,
    /// The values of each loop variable bound wherever the position
    /// runs: `[0, trips - 1]`. Absent are the variables that may be
    /// unbound there, the `reused` ones, and those whose loop's trip
    /// count lowering cannot bound above 0.
    vars: HashMap<usize, Interval>,
    /// What the condition of each enclosing then-block says of its
    /// left operand, innermost last; `None` when it says nothing
    /// lowering can use.
    facts: Vec<(Expr, Option<Interval>)>,
}

struct Lower<'a> {
    kernel: &'a Kernel,
    /// Whether the role being lowered is the DMA warp, which may only
    /// move data and synchronize.
    dma: bool,
    /// Per-instruction value numbering: the register of each operation
    /// already emitted in this instruction, by its kind and lowered
    /// operands. An operation with the same key reuses it, whichever
    /// tree it came from. Its first error cannot change: the reused
    /// operation ran earlier in the same instruction, on the same values.
    numbered: HashMap<(OpKind, Scalar, Scalar), u32>,
    /// The divisors already zero-checked in this instruction.
    checked: HashSet<Scalar>,
    next_reg: u32,
    max_regs: u32,
    /// The block indices' values, `[0, grid - 1]` per dimension.
    block: [Option<Interval>; 3],
    scope: Scope,
    /// Whether every slice of the instruction being lowered fits its
    /// object, so far.
    fits: bool,
    /// Slice-bearing instructions left unproven so far.
    unproven: usize,
    /// The program's slice table so far (see [`Operands`]).
    slices: Vec<BcSlice>,
    /// The product of the enclosing loops' trip counts at CTA (0,0,0).
    weight: f64,
    /// [`Program::totals`] and [`Program::floor`] so far (of the branch
    /// being lowered, inside an `If`).
    totals: StaticTotals,
    floor: StaticTotals,
    /// A loop trip count read the block index: the program has no floor.
    reads_block: bool,
}

impl<'a> Lower<'a> {
    fn new(kernel: &'a Kernel) -> Self {
        Lower {
            kernel,
            dma: false,
            numbered: HashMap::new(),
            checked: HashSet::new(),
            next_reg: 0,
            max_regs: 0,
            block: kernel
                .grid
                .map(|n| i64::try_from(n).ok().and_then(Interval::below)),
            scope: Scope::default(),
            fits: true,
            unproven: 0,
            slices: Vec::new(),
            weight: 1.0,
            totals: StaticTotals::default(),
            floor: StaticTotals::default(),
            reads_block: false,
        }
    }

    /// Count `amount` of one unit's work, weighted by the enclosing
    /// loops' trips, in the totals and the floor.
    fn count(&mut self, field: fn(&mut StaticTotals) -> &mut f64, amount: f64) {
        let weighted = self.weight * amount;
        *field(&mut self.totals) += weighted;
        *field(&mut self.floor) += weighted;
    }

    /// The values `e` takes wherever the position being lowered runs, or
    /// `None` when lowering cannot bound them without doubt that the
    /// evaluation succeeds: a variable out of scope, a possible `i64`
    /// overflow, or a divisor that is not a positive constant.
    fn interval(&self, e: &Expr) -> Option<Interval> {
        let mut i = match e {
            Expr::Lit(v) => Interval::point(*v),
            Expr::Var(id) => *self.scope.vars.get(id)?,
            Expr::BlockX => self.block[0]?,
            Expr::BlockY => self.block[1]?,
            Expr::BlockZ => self.block[2]?,
            Expr::Add(a, b) => self
                .interval(a)?
                .corners(self.interval(b)?, i64::checked_add)?,
            Expr::Sub(a, b) => self
                .interval(a)?
                .corners(self.interval(b)?, i64::checked_sub)?,
            Expr::Mul(a, b) => self
                .interval(a)?
                .corners(self.interval(b)?, i64::checked_mul)?,
            Expr::Div(a, b) | Expr::Mod(a, b) => {
                let d = self.interval(b).filter(|d| d.lo == d.hi && d.lo > 0)?.lo;
                let n = self.interval(a)?;
                if matches!(e, Expr::Div(..)) {
                    // Euclidean division by a positive divisor is monotone.
                    Interval {
                        lo: n.lo.div_euclid(d),
                        hi: n.hi.div_euclid(d),
                    }
                } else if n.lo >= 0 && n.hi < d {
                    n
                } else {
                    Interval { lo: 0, hi: d - 1 }
                }
            }
        };
        for (x, bound) in &self.scope.facts {
            if let Some(b) = bound.filter(|_| x == e) {
                i = i.meet(b)?;
            }
        }
        Some(i)
    }

    /// Enter the body of a loop over `var`.
    fn open_loop(&mut self, var: usize, count: &Expr) {
        // `count` is evaluated before `var` is bound.
        let range = self.interval(count).and_then(|c| Interval::below(c.hi));
        if let Some(r) = range.filter(|_| !self.scope.reused.contains(&var)) {
            self.scope.vars.insert(var, r);
        }
    }

    /// Enter the then-block of `cond`. Inside it the condition held when
    /// the branch was taken, and its left operand still has that value:
    /// an operand lowering can bound reads only variables one `LoopStart`
    /// binds, which is the enclosing loop's, not one inside the
    /// then-block. (Where that loop does not enclose the branch, the
    /// variable is unbound and the branch fails.)
    fn open_then(&mut self, cond: &Cond) {
        let (x, bound) = match cond {
            Cond::Lt(x, y) => (
                x,
                self.interval(y).and_then(|y| {
                    Some(Interval {
                        lo: i64::MIN,
                        hi: y.hi.checked_sub(1)?,
                    })
                }),
            ),
            Cond::Ge(x, y) => (
                x,
                self.interval(y).map(|y| Interval {
                    lo: y.lo,
                    hi: i64::MAX,
                }),
            ),
            Cond::Eq(x, y) => (x, self.interval(y)),
        };
        self.scope.facts.push((x.clone(), bound));
    }

    /// Reset the value-numbering scope; registers are reused across
    /// instructions (each instruction's prelude fully defines the
    /// registers it reads).
    fn begin_instr(&mut self) {
        self.numbered.clear();
        self.checked.clear();
        self.next_reg = 0;
        self.fits = true;
    }

    /// Append the instruction's `slices` to the table as its operands,
    /// proven if every one fits its object, and count the instruction
    /// unproven otherwise.
    fn seal(&mut self, slices: impl IntoIterator<Item = BcSlice>) -> Result<Operands, SimError> {
        let first = index32(self.slices.len(), "slice table index")?;
        self.slices.extend(slices);
        let len = self.slices.len() - first as usize;
        debug_assert!(len <= MAX_OPERANDS);
        if !self.fits {
            self.unproven += 1;
        }
        Ok(Operands {
            first,
            len: len as u32,
            proven: self.fits,
        })
    }

    fn alloc_reg(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_regs = self.max_regs.max(self.next_reg);
        r
    }

    /// Check and lower one role's body, ended by [`BcInstr::End`].
    fn lower_role(&mut self, role: &Role) -> Result<Vec<BcInstr>, SimError> {
        // Every role starts with no loop variable bound; `reused` is each
        // id a second loop binds.
        let mut vars = Vec::new();
        loop_vars(&role.body, &mut vars);
        let mut bound = HashSet::new();
        self.scope = Scope {
            reused: vars.into_iter().filter(|v| !bound.insert(*v)).collect(),
            ..Scope::default()
        };
        self.dma = role.kind == RoleKind::Dma;
        let mut out = Vec::new();
        self.lower_block(&role.body, &mut out)?;
        out.push(BcInstr::End);
        Ok(out)
    }

    /// Lower a loop over `var`: its `LoopStart`, the body with `var` in
    /// scope, and its `LoopEnd`.
    fn lower_loop(
        &mut self,
        var: usize,
        count: &Expr,
        body: &[Instr],
        out: &mut Vec<BcInstr>,
    ) -> Result<(), SimError> {
        if count.references_vars() {
            return Err(KernelError::DynamicTripCount.into());
        }
        let mut pre = Vec::new();
        let val = self.emit(count, &mut pre);
        self.open_loop(var, count);
        let start = out.len();
        out.push(BcInstr::LoopStart {
            var,
            count: SVal { pre, val },
            end: usize::MAX,
        });
        self.reads_block |= count.references_block();
        let trips = count.eval(&Env::for_block([0; 3])).unwrap_or(0).max(0) as f64;
        let outer = self.weight;
        self.weight *= trips;
        self.lower_block(body, out)?;
        self.weight = outer;
        // The engine unbinds a loop's variable when it exits.
        self.scope.vars.remove(&var);
        out.push(BcInstr::LoopEnd);
        patch(out, start);
        Ok(())
    }

    /// Lower an `If`: its `Branch`, the then-block under what `cond`
    /// says, a `Jump` over the else-block, and the else-block. The totals
    /// count its larger side, the floor its smaller one.
    fn lower_if(
        &mut self,
        cond: &Cond,
        then_: &[Instr],
        else_: &[Instr],
        out: &mut Vec<BcInstr>,
    ) -> Result<(), SimError> {
        let (kind, x, y) = match cond {
            Cond::Ge(x, y) => (CondKind::Ge, x, y),
            Cond::Lt(x, y) => (CondKind::Lt, x, y),
            Cond::Eq(x, y) => (CondKind::Eq, x, y),
        };
        let mut pre = Vec::new();
        let a = self.emit(x, &mut pre);
        let b = self.emit(y, &mut pre);
        self.open_then(cond);
        let branch = out.len();
        out.push(BcInstr::Branch {
            cond: BcCond { pre, kind, a, b },
            else_target: usize::MAX,
        });
        let outer = self.take_sums();
        self.lower_block(then_, out)?;
        let then_sums = self.take_sums();
        self.scope.facts.pop();
        let jump = out.len();
        out.push(BcInstr::Jump(usize::MAX));
        patch(out, branch);
        self.lower_block(else_, out)?;
        let else_sums = self.take_sums();
        (self.totals, self.floor) = outer;
        self.totals.add_branch(&then_sums.0, &else_sums.0, f64::max);
        self.floor.add_branch(&then_sums.1, &else_sums.1, f64::min);
        patch(out, jump);
        Ok(())
    }

    /// The totals and the floor so far, leaving both at zero.
    fn take_sums(&mut self) -> (StaticTotals, StaticTotals) {
        (
            std::mem::take(&mut self.totals),
            std::mem::take(&mut self.floor),
        )
    }

    /// Check and lower `block` onto `out`. An operation is checked as it
    /// is lowered, operand by operand, so an instruction with several
    /// faults reports the one its operand order meets first.
    fn lower_block(&mut self, block: &[Instr], out: &mut Vec<BcInstr>) -> Result<(), SimError> {
        for instr in block {
            self.begin_instr();
            let op = match instr {
                Instr::Loop { var, count, body } => {
                    self.lower_loop(*var, count, body, out)?;
                    continue;
                }
                Instr::If { cond, then_, else_ } => {
                    self.lower_if(cond, then_, else_, out)?;
                    continue;
                }
                Instr::TmaLoad { src, dst, bar } | Instr::CpAsyncLoad { src, dst, bar } => {
                    let spaces = [Space::Global, Space::Shared];
                    let (operands, bytes, _) = self.lower_copy(src, dst, spaces, Some(*bar))?;
                    let bar = index32(*bar, "mbarrier index")?;
                    if matches!(instr, Instr::TmaLoad { .. }) {
                        self.count(|t| &mut t.tma_load_bytes, bytes);
                        BcOp::TmaLoad {
                            operands,
                            bar,
                            bytes,
                        }
                    } else {
                        self.count(|t| &mut t.cp_async_bytes, bytes);
                        BcOp::CpAsyncLoad {
                            operands,
                            bar,
                            bytes,
                        }
                    }
                }
                Instr::TmaStore { src, dst } => {
                    let spaces = [Space::Shared, Space::Global];
                    let (operands, bytes, stored) = self.lower_copy(src, dst, spaces, None)?;
                    self.count(|t| &mut t.store_bytes, stored);
                    BcOp::TmaStore { operands, bytes }
                }
                Instr::TmaStoreWait => BcOp::TmaStoreWait,
                Instr::MbarArrive { bar } => BcOp::MbarArrive {
                    bar: self.mbar(*bar)?,
                },
                Instr::MbarWait { bar } => BcOp::MbarWait {
                    bar: self.mbar(*bar)?,
                },
                Instr::Wgmma {
                    a,
                    b,
                    acc,
                    accumulate,
                    transpose_b,
                } => self.lower_wgmma(a, b, acc, *accumulate, *transpose_b)?,
                Instr::WgmmaWait { pending } => {
                    self.computes()?;
                    BcOp::WgmmaWait { pending: *pending }
                }
                Instr::Simt(op) => self.lower_simt(op)?,
                &Instr::NamedBarrier { id, parties } => {
                    let roles = self.kernel.roles.len();
                    if parties > roles {
                        return Err(
                            KernelError::BarrierPartiesExceedRoles { parties, roles }.into()
                        );
                    }
                    BcOp::NamedBarrier { id, parties }
                }
                Instr::Syncthreads => BcOp::Syncthreads,
            };
            out.push(BcInstr::Op(op));
        }
        Ok(())
    }

    /// Check and lower a copy of `src` to `dst`, out of and into the two
    /// `spaces`, arriving on mbarrier `bar` if it has one: its slices, the
    /// bytes it moves (its source's; both extents must agree on the
    /// elements) and the bytes of its side in global memory, which differ
    /// from those where a store changes the element type.
    fn lower_copy(
        &mut self,
        src: &Slice,
        dst: &Slice,
        [from, to]: [Space; 2],
        bar: Option<usize>,
    ) -> Result<(Operands, f64, f64), SimError> {
        let lsrc = self.lower_slice(in_space(src, from)?)?;
        let ldst = self.lower_slice(in_space(dst, to)?)?;
        if let Some(bar) = bar {
            self.mbar(bar)?;
        }
        // Widen to u128 so two extents that wrap to the same usize in a
        // release build still compare unequal.
        if (src.rows as u128) * (src.cols as u128) != (dst.rows as u128) * (dst.cols as u128) {
            return Err(KernelError::CopyExtentMismatch {
                src: (src.rows, src.cols),
                dst: (dst.rows, dst.cols),
            }
            .into());
        }
        let bytes = self.slice_bytes(&lsrc)?;
        let global = if to == Space::Global {
            self.slice_bytes(&ldst)?
        } else {
            bytes
        };
        Ok((self.seal([lsrc, ldst])?, bytes, global))
    }

    fn lower_wgmma(
        &mut self,
        a: &Slice,
        b: &Slice,
        acc: &Slice,
        accumulate: bool,
        transpose_b: bool,
    ) -> Result<BcOp, SimError> {
        self.computes()?;
        if a.mem.space() == Space::Global || b.mem.space() != Space::Shared {
            return Err(KernelError::IllegalOperandSpace.into());
        }
        let a = self.lower_slice(a)?;
        let b = self.lower_slice(b)?;
        let acc = self.lower_slice(in_space(acc, Space::Register)?)?;
        let a_elems = a.rows.checked_mul(a.cols).ok_or_else(|| overflow(&a))?;
        let flops = wgmma_flops(a_elems as f64, acc.cols as f64);
        self.count(|t| &mut t.tc_flops, flops);
        let mut smem_bytes = self.slice_bytes(&b)?;
        if a.mem.space() == Space::Shared {
            smem_bytes += self.slice_bytes(&a)?;
        }
        Ok(BcOp::Wgmma {
            operands: self.seal([a, b, acc])?,
            accumulate,
            transpose_b,
            flops,
            smem_bytes,
        })
    }

    fn lower_simt(&mut self, op: &SimtOp) -> Result<BcOp, SimError> {
        let sources = op.sources();
        let in_registers = |s: &Slice| s.mem.space() == Space::Register;
        if self.dma && (in_registers(op.dst()) || sources.iter().any(|s| in_registers(s))) {
            return Err(KernelError::DmaWarpComputes.into());
        }
        // A bad destination is reported ahead of a bad source, though the
        // destination is lowered last.
        self.declared(op.dst())?;
        let srcs = sources
            .into_iter()
            .map(|s| self.lower_slice(s))
            .collect::<Result<Vec<_>, _>>()?;
        let dst = self.lower_slice(op.dst())?;
        let cost = self.simt_cost(op, &srcs, &dst)?;
        self.count(|t| &mut t.simt_flops, self.slice_elems(&dst)?);
        Ok(BcOp::Simt {
            op: Box::new(op.clone()),
            operands: self.seal(srcs.into_iter().chain([dst]))?,
            cost,
        })
    }

    /// Fail if the role being lowered is the DMA warp.
    fn computes(&self) -> Result<(), KernelError> {
        if self.dma {
            return Err(KernelError::DmaWarpComputes);
        }
        Ok(())
    }

    /// `bar`, if the kernel declares it.
    fn mbar(&self, bar: usize) -> Result<usize, KernelError> {
        if bar >= self.kernel.mbars.len() {
            return Err(KernelError::UnknownBarrier(bar));
        }
        Ok(bar)
    }

    /// The row, column and stage bounds of the object `s` slices, if the
    /// kernel declares it and `s` is not empty.
    fn declared(&self, s: &Slice) -> Result<(usize, usize, usize), KernelError> {
        let k = self.kernel;
        let bounds = match s.mem {
            MemRef::Param(i) => k.params.get(i).map(|p| (p.rows, p.cols, 1)),
            MemRef::Smem(i) => k.smem.get(i).map(|d| (d.rows, d.cols, d.stages)),
            MemRef::Frag(i) => k.frags.get(i).map(|f| (f.rows, f.cols, 1)),
        }
        .ok_or(KernelError::UnknownMemoryObject(s.mem))?;
        if s.rows == 0 || s.cols == 0 {
            return Err(KernelError::EmptySlice(s.mem));
        }
        Ok(bounds)
    }

    fn lower_slice(&mut self, s: &Slice) -> Result<BcSlice, KernelError> {
        let (prows, pcols, stages) = self.declared(s)?;
        let mut pre = Vec::new();
        // The engine reads the origin in this order: stage, then row,
        // then column.
        let stage = self.emit(&s.stage, &mut pre);
        let row0 = self.emit(&s.row0, &mut pre);
        let col0 = self.emit(&s.col0, &mut pre);
        let within =
            |e: &Expr, extent, bound| self.interval(e).is_some_and(|i| i.fits(extent, bound));
        self.fits &= within(&s.stage, 1, stages)
            && within(&s.row0, s.rows, prows)
            && within(&s.col0, s.cols, pcols);
        let mut lowered = BcSlice {
            mem: s.mem,
            pre,
            stage,
            row0,
            col0,
            rows: s.rows,
            cols: s.cols,
            prows,
            pcols,
            stages,
            fixed: None,
        };
        if let (true, Scalar::Imm(stage), Scalar::Imm(row0), Scalar::Imm(col0)) =
            (lowered.pre.is_empty(), stage, row0, col0)
        {
            lowered.fixed = lowered.at(stage, row0, col0).ok();
        }
        Ok(lowered)
    }

    fn slice_bytes(&self, s: &BcSlice) -> Result<f64, SimError> {
        let elem = match s.mem {
            MemRef::Param(i) => self.kernel.params[i].dtype.size_bytes(),
            MemRef::Smem(i) => self.kernel.smem[i].dtype.size_bytes(),
            MemRef::Frag(_) => 4,
        };
        s.rows
            .checked_mul(s.cols)
            .and_then(|e| e.checked_mul(elem))
            .map(|b| b as f64)
            .ok_or_else(|| overflow(s))
    }

    fn slice_elems(&self, s: &BcSlice) -> Result<f64, SimError> {
        s.rows
            .checked_mul(s.cols)
            .map(|e| e as f64)
            .ok_or_else(|| overflow(s))
    }

    fn simt_cost(
        &self,
        op: &SimtOp,
        srcs: &[BcSlice],
        dst: &BcSlice,
    ) -> Result<SimtCost, SimError> {
        let mut elems = self.slice_elems(dst)?;
        for s in srcs {
            elems = elems.max(self.slice_elems(s)?);
        }
        let mut smem_bytes = 0.0;
        let mut gl_read = 0.0;
        let mut gl_write = 0.0;
        for s in srcs {
            match s.mem.space() {
                Space::Shared => smem_bytes += self.slice_bytes(s)?,
                Space::Global => gl_read += self.slice_bytes(s)?,
                Space::Register => {}
            }
        }
        match dst.mem.space() {
            Space::Shared => smem_bytes += self.slice_bytes(dst)?,
            Space::Global => gl_write += self.slice_bytes(dst)?,
            Space::Register => {}
        }
        Ok(SimtCost {
            elems,
            sfu: op.uses_sfu(),
            smem_bytes,
            gl_read,
            gl_write,
        })
    }

    /// Lower `e` onto `pre`, children first, and return the operand
    /// holding its value.
    fn emit(&mut self, e: &Expr, pre: &mut Vec<IdxOp>) -> Scalar {
        match e {
            Expr::Lit(v) => Scalar::Imm(*v),
            Expr::Var(id) => Scalar::Var(*id),
            Expr::BlockX => Scalar::Block(0),
            Expr::BlockY => Scalar::Block(1),
            Expr::BlockZ => Scalar::Block(2),
            Expr::Add(a, b) => self.emit_arith(OpKind::Add, a, b, pre),
            Expr::Sub(a, b) => self.emit_arith(OpKind::Sub, a, b, pre),
            Expr::Mul(a, b) => self.emit_arith(OpKind::Mul, a, b, pre),
            Expr::Div(a, b) => self.emit_divmod(OpKind::Div, a, b, pre),
            Expr::Mod(a, b) => self.emit_divmod(OpKind::Mod, a, b, pre),
        }
    }

    fn emit_arith(&mut self, kind: OpKind, a: &Expr, b: &Expr, pre: &mut Vec<IdxOp>) -> Scalar {
        let sa = self.emit(a, pre);
        let sb = self.emit(b, pre);
        if let (Scalar::Imm(x), Scalar::Imm(y)) = (sa, sb) {
            if let Some(v) = kind.fold(x, y) {
                return Scalar::Imm(v);
            }
        }
        // `x·1`, `1·x`, `x+0`, `0+x` and `x−0` are `x` (two immediates
        // folded above) — unless `x` reads a variable: that read can raise
        // `UnboundVar`, and dropping the op that makes it would let a
        // later `CheckDiv` fire first.
        let identity = match (kind, sa, sb) {
            (OpKind::Mul, x, Scalar::Imm(1))
            | (OpKind::Mul, Scalar::Imm(1), x)
            | (OpKind::Add | OpKind::Sub, x, Scalar::Imm(0))
            | (OpKind::Add, Scalar::Imm(0), x) => Some(x),
            _ => None,
        };
        if let Some(x @ (Scalar::Block(_) | Scalar::Reg(_))) = identity {
            return x;
        }
        self.number(kind, sa, sb, pre)
    }

    fn emit_divmod(&mut self, kind: OpKind, a: &Expr, b: &Expr, pre: &mut Vec<IdxOp>) -> Scalar {
        // `Expr::eval` evaluates the divisor first and zero-checks it
        // before touching the dividend; replicate that order so a zero
        // divisor outranks an unbound variable in the dividend. A divisor
        // checked earlier in the instruction passed, or the instruction
        // failed there.
        let sb = self.emit(b, pre);
        let statically_nonzero = matches!(sb, Scalar::Imm(d) if d != 0);
        if !statically_nonzero && self.checked.insert(sb) {
            pre.push(IdxOp::CheckDiv { b: sb });
        }
        let sa = self.emit(a, pre);
        if let (Scalar::Imm(x), Scalar::Imm(d)) = (sa, sb) {
            if let Some(v) = kind.fold(x, d) {
                return Scalar::Imm(v);
            }
        }
        self.number(kind, sa, sb, pre)
    }

    /// The register holding `a kind b`: the one an identical operation
    /// of this instruction already wrote, or a fresh one written by a new
    /// operation on `pre`.
    fn number(&mut self, kind: OpKind, a: Scalar, b: Scalar, pre: &mut Vec<IdxOp>) -> Scalar {
        if let Some(&r) = self.numbered.get(&(kind, a, b)) {
            return Scalar::Reg(r);
        }
        let dst = self.alloc_reg();
        pre.push(kind.op(dst, a, b));
        self.numbered.insert((kind, a, b), dst);
        Scalar::Reg(dst)
    }
}

/// Push the variable of every loop in `block`, once per loop.
fn loop_vars(block: &[Instr], out: &mut Vec<usize>) {
    for instr in block {
        match instr {
            Instr::Loop { var, body, .. } => {
                out.push(*var);
                loop_vars(body, out);
            }
            Instr::If { then_, else_, .. } => {
                loop_vars(then_, out);
                loop_vars(else_, out);
            }
            _ => {}
        }
    }
}

/// Point the `LoopStart`, `Branch` or `Jump` at `at` just past the end
/// of `out`.
fn patch(out: &mut [BcInstr], at: usize) {
    let here = out.len();
    if let BcInstr::LoopStart { end: t, .. }
    | BcInstr::Branch { else_target: t, .. }
    | BcInstr::Jump(t) = &mut out[at]
    {
        *t = here;
    }
}

/// `s`, if it lives in `space`.
fn in_space(s: &Slice, space: Space) -> Result<&Slice, KernelError> {
    if s.mem.space() != space {
        return Err(KernelError::IllegalOperandSpace);
    }
    Ok(s)
}

/// `i` as event-queue elements and [`Operands`] store indices: they index
/// with `u32` to stay small, and a `what` that does not fit is a typed
/// error, never a truncation.
pub(crate) fn index32(i: usize, what: &str) -> Result<u32, SimError> {
    u32::try_from(i).map_err(|_| SimError::Internal {
        what: format!("{what} {i} exceeds the simulator's u32 indices"),
    })
}

fn overflow(s: &BcSlice) -> SimError {
    SimError::Internal {
        what: format!(
            "byte size of a {:?} slice ({}x{}) overflows usize",
            s.mem, s.rows, s.cols
        ),
    }
}

/// Read one operand against the executor's environment and registers.
#[inline]
pub(crate) fn read_scalar(regs: &[i64], env: &Env, s: Scalar) -> Result<i64, EvalError> {
    match s {
        Scalar::Imm(v) => Ok(v),
        Scalar::Block(i) => Ok(env.block[usize::from(i)]),
        Scalar::Var(id) => env.var(id).ok_or(EvalError::UnboundVar(id)),
        Scalar::Reg(r) => Ok(regs[r as usize]),
    }
}

/// Run an index-operation prelude over `regs`. Arithmetic wraps; division
/// by zero and unbound variables surface as [`EvalError`] in the same
/// order [`Expr::eval`] raises them.
pub(crate) fn run_pre(regs: &mut [i64], env: &Env, ops: &[IdxOp]) -> Result<(), EvalError> {
    for op in ops {
        match *op {
            IdxOp::Add { dst, a, b } => {
                let v = read_scalar(regs, env, a)?.wrapping_add(read_scalar(regs, env, b)?);
                regs[dst as usize] = v;
            }
            IdxOp::Sub { dst, a, b } => {
                let v = read_scalar(regs, env, a)?.wrapping_sub(read_scalar(regs, env, b)?);
                regs[dst as usize] = v;
            }
            IdxOp::Mul { dst, a, b } => {
                let v = read_scalar(regs, env, a)?.wrapping_mul(read_scalar(regs, env, b)?);
                regs[dst as usize] = v;
            }
            IdxOp::Div { dst, a, b } => {
                let d = read_scalar(regs, env, b)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                let n = read_scalar(regs, env, a)?;
                regs[dst as usize] = n.overflowing_div_euclid(d).0;
            }
            IdxOp::Mod { dst, a, b } => {
                let d = read_scalar(regs, env, b)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                let n = read_scalar(regs, env, a)?;
                regs[dst as usize] = n.overflowing_rem_euclid(d).0;
            }
            IdxOp::CheckDiv { b } => {
                if read_scalar(regs, env, b)? == 0 {
                    return Err(EvalError::DivisionByZero);
                }
            }
        }
    }
    Ok(())
}

/// Evaluate a lowered scalar expression.
pub(crate) fn eval_sval(regs: &mut [i64], env: &Env, s: &SVal) -> Result<i64, EvalError> {
    run_pre(regs, env, &s.pre)?;
    read_scalar(regs, env, s.val)
}

/// Evaluate a lowered branch condition.
pub(crate) fn eval_cond(regs: &mut [i64], env: &Env, c: &BcCond) -> Result<bool, EvalError> {
    run_pre(regs, env, &c.pre)?;
    let a = read_scalar(regs, env, c.a)?;
    let b = read_scalar(regs, env, c.b)?;
    Ok(match c.kind {
        CondKind::Ge => a >= b,
        CondKind::Lt => a < b,
        CondKind::Eq => a == b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, UnOp};
    use crate::kernel::RoleKind;
    use cypress_tensor::{DType, Tensor};

    /// Lower one expression as an SVal (fresh instruction scope).
    fn lower_expr(kernel: &Kernel, e: &Expr) -> (SVal, usize) {
        let mut ctx = Lower::new(kernel);
        ctx.begin_instr();
        let mut pre = Vec::new();
        let val = ctx.emit(e, &mut pre);
        (SVal { pre, val }, ctx.max_regs as usize)
    }

    fn empty_kernel() -> Kernel {
        crate::KernelBuilder::new("k", [1, 1, 1]).build()
    }

    fn eval_both(e: &Expr, env: &Env) -> (Result<i64, EvalError>, Result<i64, EvalError>) {
        let kernel = empty_kernel();
        let (sval, regs) = lower_expr(&kernel, e);
        let mut r = vec![0i64; regs];
        (e.eval(env), eval_sval(&mut r, env, &sval))
    }

    #[test]
    fn vm_matches_expr_eval_on_arithmetic() {
        let mut env = Env::for_block([3, 5, 7]);
        env.bind(0, 11);
        let exprs = [
            Expr::block_x() * 128 + Expr::var(0),
            (Expr::block_y() + 1) * (Expr::block_z() - 2),
            (Expr::var(0) * 64 + Expr::block_x()) % 48,
            (Expr::var(0) + Expr::block_y()) / 3,
            Expr::lit(-4) / 3,
            Expr::lit(-1) % 3,
        ];
        for e in exprs {
            let (eval, vm) = eval_both(&e, &env);
            assert_eq!(eval, vm, "{e}");
        }
    }

    #[test]
    fn vm_matches_expr_eval_on_errors() {
        let env = Env::for_block([0, 0, 0]);
        // Unbound loop variable.
        let (eval, vm) = eval_both(&(Expr::var(3) + 1), &env);
        assert_eq!(eval, vm);
        assert_eq!(vm, Err(EvalError::UnboundVar(3)));
        // Division by a statically-zero divisor fires *before* the
        // unbound dividend is touched — same precedence as `Expr::eval`.
        let (eval, vm) = eval_both(&(Expr::var(9) / 0), &env);
        assert_eq!(eval, vm);
        assert_eq!(vm, Err(EvalError::DivisionByZero));
        // Runtime-zero divisor.
        let mut env = Env::for_block([0, 0, 0]);
        env.bind(0, 0);
        let (eval, vm) = eval_both(&(Expr::lit(7) / Expr::var(0)), &env);
        assert_eq!(eval, vm);
        assert_eq!(vm, Err(EvalError::DivisionByZero));
    }

    #[test]
    fn constants_fold_to_immediates() {
        let kernel = empty_kernel();
        let (sval, regs) = lower_expr(&kernel, &((Expr::lit(6) * 7) + Expr::lit(0)));
        assert_eq!(regs, 0, "pure-literal expression needs no registers");
        assert!(sval.pre.is_empty());
        assert_eq!(sval.val, Scalar::Imm(42));
    }

    #[test]
    fn common_subexpressions_are_numbered_once() {
        let kernel = empty_kernel();
        let shared = Expr::block_x() * 128 + Expr::var(0);
        let e = shared.clone() * 2 + shared % 3;
        let (sval, _) = lower_expr(&kernel, &e);
        // shared (2 ops), *2, %3 (CheckDiv folded: literal divisor), +.
        let muls = sval
            .pre
            .iter()
            .filter(|op| matches!(op, IdxOp::Mul { .. }))
            .count();
        assert_eq!(muls, 2, "bx*128 emitted once, *2 once: {:?}", sval.pre);
    }

    /// The A tile of the compiled 4096³ GEMM, as the compiler writes its
    /// origin — `(0 + ((bx·1 + 0)·128)) + 0·128` rows, `(0 + 0·4096) +
    /// (i0·1 + 0)·64` columns — lowers to three operations, not nine.
    #[test]
    fn identities_fold_out_of_the_gemm_a_tile() {
        let kernel = pipelined_kernel();
        let (bx, i0, lit) = (Expr::block_x, || Expr::var(0), Expr::lit);
        let row0 = (lit(0) + (bx() * 1 + 0) * 128) + lit(0) * 128;
        let col0 = (lit(0) + lit(0) * 4096) + (i0() * 1 + 0) * 64;
        let tile = Slice::param(1).at(row0, col0).extent(32, 16);
        let s = Lower::new(&kernel).lower_slice(&tile).unwrap();
        assert_eq!(
            s.pre,
            [
                IdxOp::Mul {
                    dst: 0,
                    a: Scalar::Block(0),
                    b: Scalar::Imm(128)
                },
                // `i0·1` stays: it is the read that raises `UnboundVar`.
                IdxOp::Mul {
                    dst: 1,
                    a: Scalar::Var(0),
                    b: Scalar::Imm(1)
                },
                IdxOp::Mul {
                    dst: 2,
                    a: Scalar::Reg(1),
                    b: Scalar::Imm(64)
                },
            ]
        );
        assert_eq!((s.row0, s.col0), (Scalar::Reg(0), Scalar::Reg(2)));
    }

    /// Folding `i9·1` to a bare read of `i9` would let the divisor's
    /// check, emitted first, fire ahead of `Expr::eval`'s `UnboundVar`.
    #[test]
    fn identity_folds_keep_error_precedence() {
        let env = Env::for_block([0, 0, 0]);
        let e = Expr::var(9) * 1 + Expr::lit(5) / 0;
        let (eval, vm) = eval_both(&e, &env);
        assert_eq!(eval, Err(EvalError::UnboundVar(9)));
        assert_eq!(vm, eval);
    }

    /// `bx·128` and `(bx·1)·(64·2)` are two trees but one operation,
    /// `Mul { Block(0), Imm(128) }`: the second reuses the first's
    /// register, in one prelude and across an instruction's slices.
    #[test]
    fn distinct_trees_that_lower_to_one_operation_share_its_register() {
        let kernel = empty_kernel();
        let (bx, i0, lit) = (Expr::block_x, || Expr::var(0), Expr::lit);
        let e = (bx() * 128 + i0()) + (bx() * 1) * (lit(64) * 2);
        let (sval, regs) = lower_expr(&kernel, &e);
        assert_eq!(
            sval.pre,
            [
                IdxOp::Mul {
                    dst: 0,
                    a: Scalar::Block(0),
                    b: Scalar::Imm(128)
                },
                IdxOp::Add {
                    dst: 1,
                    a: Scalar::Reg(0),
                    b: Scalar::Var(0)
                },
                IdxOp::Add {
                    dst: 2,
                    a: Scalar::Reg(1),
                    b: Scalar::Reg(0)
                },
            ]
        );
        assert_eq!((sval.val, regs), (Scalar::Reg(2), 3));
        let kernel = pipelined_kernel();
        let mut ctx = Lower::new(&kernel);
        ctx.begin_instr();
        let a = ctx
            .lower_slice(&Slice::param(1).at(bx() * 32, lit(0)).extent(32, 16))
            .unwrap();
        let b = ctx
            .lower_slice(
                &Slice::param(1)
                    .at((bx() + 0) * (lit(16) * 2), lit(16))
                    .extent(32, 16),
            )
            .unwrap();
        assert_eq!(a.row0, Scalar::Reg(0));
        assert!(b.pre.is_empty(), "{:?}", b.pre);
        assert_eq!(b.row0, Scalar::Reg(0));
    }

    /// A divisor that is not a constant is zero-checked once per
    /// instruction, however many divisions read it.
    #[test]
    fn a_repeated_divisor_is_checked_once() {
        let kernel = empty_kernel();
        let (i0, i1) = (|| Expr::var(0), || Expr::var(1));
        let e = i0() / i1() + (i0() + 1) % i1() + (i0() * 2) / i1();
        let (sval, _) = lower_expr(&kernel, &e);
        let checks: Vec<_> = sval
            .pre
            .iter()
            .filter(|op| matches!(op, IdxOp::CheckDiv { .. }))
            .collect();
        assert_eq!(checks, [&IdxOp::CheckDiv { b: Scalar::Var(1) }]);
        // `i1·1` keeps its op (it reads a variable), so the third
        // division's divisor is a register, checked on its own.
        let e = i0() / i1() + (i0() * 2) / (i1() * 1) + i0() % (i1() * 1);
        let (sval, _) = lower_expr(&kernel, &e);
        let checks = sval
            .pre
            .iter()
            .filter(|op| matches!(op, IdxOp::CheckDiv { .. }))
            .count();
        assert_eq!(checks, 2, "{:?}", sval.pre);
    }

    /// Shared operations and checked divisors leave which error fires
    /// first where `Expr::eval` has it, over every binding of a zero or
    /// non-zero divisor and a bound or unbound dividend.
    #[test]
    fn shared_operations_keep_error_precedence() {
        let (i0, i1, i2) = (|| Expr::var(0), || Expr::var(1), || Expr::var(2));
        let exprs = [
            i0() / i1() + i2() / i1(),
            i2() * 3 + i0() % i1() + (i2() * 3) / i1(),
            (i0() + 1) / i1() + (i0() + 1) / (i1() + 0),
            i2() / (i1() * 1) + i0() % i1() + i2() / (i1() * 1),
            (i0() / i1()) / (i2() / i1()),
            i1() / (i0() - i0()) + i2() * 1,
        ];
        for e in &exprs {
            for i1_val in [None, Some(0), Some(3)] {
                for (i0_val, i2_val) in [
                    (None, None),
                    (Some(5), None),
                    (None, Some(7)),
                    (Some(5), Some(7)),
                ] {
                    let mut env = Env::for_block([0, 0, 0]);
                    for (var, val) in [(0, i0_val), (1, i1_val), (2, i2_val)] {
                        if let Some(v) = val {
                            env.bind(var, v);
                        }
                    }
                    let (eval, vm) = eval_both(e, &env);
                    assert_eq!(eval, vm, "{e} at i0={i0_val:?} i1={i1_val:?} i2={i2_val:?}");
                }
            }
        }
    }

    /// A small pipelined kernel exercising every control construct: a DMA
    /// role driving staged TMA loads in a loop, and a compute role with a
    /// branch, WGMMA, and SIMT tail.
    fn pipelined_kernel() -> Kernel {
        let mut b = crate::KernelBuilder::new("bc_test", [2, 1, 1]);
        let c = b.param("C", 64, 32, DType::F16);
        let a = b.param("A", 64, 32, DType::F16);
        let w = b.param("B", 32, 32, DType::F16);
        let sa = b.smem("sA", 32, 32, DType::F16, 2);
        let sb = b.smem("sB", 32, 32, DType::F16, 2);
        let acc = b.frag("acc", 32, 32);
        let ready = b.mbar(2);
        let k = b.fresh_var();
        b.role(
            RoleKind::Dma,
            vec![Instr::Loop {
                var: k,
                count: Expr::lit(2),
                body: vec![
                    Instr::TmaLoad {
                        src: Slice::param(a)
                            .at(Expr::block_x() * 32, Expr::var(k) * 16)
                            .extent(32, 16),
                        dst: Slice::smem(sa).stage(Expr::var(k) % 2).extent(32, 16),
                        bar: ready,
                    },
                    Instr::TmaLoad {
                        src: Slice::param(w).at(Expr::var(k) * 16, 0).extent(16, 32),
                        dst: Slice::smem(sb).stage(Expr::var(k) % 2).extent(16, 32),
                        bar: ready,
                    },
                ],
            }],
        );
        let j = b.fresh_var();
        b.role(
            RoleKind::Compute(0),
            vec![
                Instr::Simt(SimtOp::Fill {
                    dst: Slice::frag(acc).extent(32, 32),
                    value: 0.0,
                }),
                Instr::Loop {
                    var: j,
                    count: Expr::lit(2),
                    body: vec![
                        Instr::MbarWait { bar: ready },
                        Instr::If {
                            cond: Cond::Ge(Expr::var(j), Expr::lit(1)),
                            then_: vec![Instr::Simt(SimtOp::Map {
                                op: UnOp::Scale(0.5),
                                src: Slice::frag(acc).extent(32, 32),
                                dst: Slice::frag(acc).extent(32, 32),
                            })],
                            else_: vec![],
                        },
                        Instr::Wgmma {
                            a: Slice::smem(sa).stage(Expr::var(j) % 2).extent(32, 16),
                            b: Slice::smem(sb).stage(Expr::var(j) % 2).extent(16, 32),
                            acc: Slice::frag(acc).extent(32, 32),
                            accumulate: true,
                            transpose_b: false,
                        },
                        Instr::WgmmaWait { pending: 0 },
                    ],
                },
                Instr::Simt(SimtOp::Zip {
                    op: BinOp::Add,
                    a: Slice::frag(acc).extent(32, 32),
                    b: Slice::frag(acc).extent(32, 32),
                    dst: Slice::frag(acc).extent(32, 32),
                }),
                Instr::Simt(SimtOp::Copy {
                    src: Slice::frag(acc).extent(32, 32),
                    dst: Slice::param(c).at(Expr::block_x() * 32, 0).extent(32, 32),
                }),
            ],
        );
        b.build()
    }

    /// Each position of a role's program, with the target of a jump.
    fn layout(role: &[BcInstr]) -> Vec<String> {
        role.iter()
            .map(|bc| match bc {
                BcInstr::Op(_) => "op".to_string(),
                BcInstr::LoopStart { end, .. } => format!("loop, exit {end}"),
                BcInstr::LoopEnd => "loop end".into(),
                BcInstr::Branch { else_target, .. } => format!("branch, else {else_target}"),
                BcInstr::Jump(t) => format!("jump {t}"),
                BcInstr::End => "end".into(),
            })
            .collect()
    }

    fn one_role_layout(body: Vec<Instr>) -> Vec<String> {
        let mut b = crate::KernelBuilder::new("layout", [1, 1, 1]);
        b.role(RoleKind::Compute(0), body);
        layout(&lower(&b.build()).unwrap().roles[0])
    }

    #[test]
    fn flat_loop_targets() {
        let body = vec![Instr::Loop {
            var: 0,
            count: Expr::lit(3),
            body: vec![Instr::Syncthreads],
        }];
        assert_eq!(
            one_role_layout(body),
            ["loop, exit 3", "op", "loop end", "end"]
        );
    }

    #[test]
    fn flat_if_targets() {
        let body = vec![Instr::If {
            cond: Cond::Ge(Expr::var(0), Expr::lit(1)),
            then_: vec![Instr::Syncthreads],
            else_: vec![Instr::Syncthreads, Instr::Syncthreads],
        }];
        assert_eq!(
            one_role_layout(body),
            ["branch, else 3", "op", "jump 5", "op", "op", "end"]
        );
    }

    /// Program counters name these positions in error contexts and
    /// deadlock reports: a loop is its header, body and back-edge, an
    /// `If` its branch, then-block, jump and (here empty) else-block.
    #[test]
    fn lowered_program_mirrors_flat_shape() {
        let program = lower(&pipelined_kernel()).unwrap();
        assert_eq!(program.roles.len(), 2);
        assert_eq!(
            layout(&program.roles[0]),
            ["loop, exit 4", "op", "op", "loop end", "end"]
        );
        assert_eq!(
            layout(&program.roles[1]),
            [
                "op",
                "loop, exit 9",
                "op",
                "branch, else 6",
                "op",
                "jump 6",
                "op",
                "op",
                "loop end",
                "op",
                "op",
                "end"
            ]
        );
    }

    /// Only a slice that cannot fail is resolved at lowering time.
    #[test]
    fn launch_constant_slices_are_resolved_at_lowering() {
        let mut kernel = pipelined_kernel();
        let lower_slice = |kernel: &Kernel, s: &Slice| Lower::new(kernel).lower_slice(s).unwrap();
        let whole = lower_slice(&kernel, &Slice::frag(0).extent(32, 32));
        let r = whole.fixed.expect("literal origin, in bounds");
        assert_eq!((r.stage, r.row0, r.col0, r.rows, r.cols), (0, 0, 0, 32, 32));
        assert_eq!(Ok(r), whole.at(0, 0, 0));
        // Constant but out of bounds: left to the instruction that runs it.
        for bad in [
            Slice::smem(0).stage(2).extent(32, 16),
            Slice::frag(0).at(1, 0).extent(32, 32),
            Slice::frag(0).at(0, -1).extent(32, 32),
        ] {
            assert_eq!(lower_slice(&kernel, &bad).fixed, None, "{bad:?}");
        }
        // Launch-dependent origins.
        for dynamic in [
            Slice::param(1).at(Expr::block_x() * 32, 0).extent(32, 16),
            Slice::smem(0).stage(Expr::var(0) % 2).extent(32, 16),
        ] {
            assert_eq!(lower_slice(&kernel, &dynamic).fixed, None, "{dynamic:?}");
        }
        // The bound is the declaration's at lowering time.
        kernel.frags[0].rows = 16;
        let shrunk = lower_slice(&kernel, &Slice::frag(0).extent(32, 32));
        assert_eq!(shrunk.fixed, None);
    }

    /// One compute role over an 8 x 8 `A`, a two-stage `S` and `F`: fill
    /// `F`, then — under `cond` — `op(a, s, f)`.
    fn guarded(cond: Cond, op: impl FnOnce(usize, usize, usize) -> Instr) -> Kernel {
        let mut b = crate::KernelBuilder::new("static_slices", [1, 1, 1]);
        let a = b.param("A", 8, 8, DType::F16);
        let s = b.smem("S", 8, 8, DType::F16, 2);
        let f = b.frag("F", 8, 8);
        let fill = Instr::Simt(SimtOp::Fill {
            dst: Slice::frag(f).extent(8, 8),
            value: 1.0,
        });
        b.role(
            RoleKind::Compute(0),
            vec![fill, when(cond, vec![op(a, s, f)])],
        );
        b.build()
    }

    /// A constant-origin slice that is out of bounds is an error of the
    /// instruction that uses it, raised when (and only if) it executes —
    /// never of lowering — in both modes, with its exact text, in operand
    /// order.
    #[test]
    fn constant_out_of_bounds_slices_fail_when_they_execute() {
        let sim = crate::Simulator::new(crate::MachineConfig::test_gpu());
        // A timing and a functional run of `kernel`, which must fail
        // alike.
        let run_both = |kernel: &Kernel| {
            let timing = sim.run_timing(kernel);
            let params = vec![Tensor::zeros(DType::F16, &[8, 8])];
            let functional = sim.run_functional(kernel, params).err();
            assert_eq!(
                timing.as_ref().err(),
                functional.as_ref(),
                "the modes disagree"
            );
            timing
        };
        let never = || Cond::Ge(Expr::block_x(), Expr::lit(1));
        let always = || Cond::Ge(Expr::block_x(), Expr::lit(0));
        let frag = |f| Slice::frag(f).extent(8, 8);
        type Case = (fn(usize, usize) -> Slice, &'static str);
        let cases: [Case; 3] = [
            (
                |_, s| Slice::smem(s).stage(2).extent(8, 8),
                "slice of Smem(0): stage 2 origin (0,0) extent (8x8) exceeds (8x8 stages 2)",
            ),
            (
                |a, _| Slice::param(a).at(4, 0).extent(8, 8),
                "slice of Param(0): stage 0 origin (4,0) extent (8x8) exceeds (8x8 stages 1)",
            ),
            (
                |a, _| Slice::param(a).at(-1, 0).extent(8, 8),
                "negative slice origin (0,-1,0) of Param(0)",
            ),
        ];
        for (bad, text) in cases {
            let copy_in = |a, s, f| {
                Instr::Simt(SimtOp::Copy {
                    src: bad(a, s),
                    dst: frag(f),
                })
            };
            let clean = run_both(&guarded(never(), copy_in)).expect("untaken branch");
            assert!(clean.events > 0);
            let out_of_bounds = Err(SimError::OutOfBounds { what: text.into() });
            assert_eq!(run_both(&guarded(always(), copy_in)), out_of_bounds);
            // Operands resolve left to right: ahead of an unbound
            // variable the constant slice's error wins, behind it the
            // evaluation error (which names the pc) does.
            let unbound = |f| Slice::frag(f).at(Expr::var(7), 0).extent(8, 8);
            let first = run_both(&guarded(always(), |a, s, f| {
                Instr::Simt(SimtOp::Copy {
                    src: bad(a, s),
                    dst: unbound(f),
                })
            }));
            assert_eq!(first, out_of_bounds);
            let second = run_both(&guarded(always(), |a, s, f| {
                Instr::Simt(SimtOp::Zip {
                    op: BinOp::Add,
                    a: unbound(f),
                    b: bad(a, s),
                    dst: frag(f),
                })
            }));
            assert!(
                matches!(&second, Err(SimError::Eval { context, .. }) if context == "cta0/wg0 pc=2"),
                "{second:?}"
            );
        }
    }

    // ---- proofs ----------------------------------------------------------
    //
    // One role over a two-block grid, `A` (`T·R x C`), the two-stage `S`
    // and the fragment `F`; each test counts what lowering leaves
    // unproven.

    const R: i64 = 8;
    const T: i64 = 4;

    fn lowered(body: Vec<Instr>) -> Program {
        let mut b = crate::KernelBuilder::new("proofs", [2, 1, 1]);
        b.param("A", (T * R) as usize, 8, DType::F16);
        b.smem("S", R as usize, 8, DType::F16, 2);
        b.frag("F", R as usize, 8);
        b.role(RoleKind::Compute(0), body);
        lower(&b.build()).unwrap()
    }

    fn unproven(body: Vec<Instr>) -> usize {
        lowered(body).unproven_ops()
    }

    /// Copy the tile of `A` at row `origin` into `F`.
    fn load(origin: Expr) -> Instr {
        Instr::Simt(SimtOp::Copy {
            src: Slice::param(0).at(origin, 0).extent(R as usize, 8),
            dst: Slice::frag(0).extent(R as usize, 8),
        })
    }

    /// Copy stage `stage` of `S` into `F`.
    fn load_stage(stage: Expr) -> Instr {
        Instr::Simt(SimtOp::Copy {
            src: Slice::smem(0).stage(stage).extent(R as usize, 8),
            dst: Slice::frag(0).extent(R as usize, 8),
        })
    }

    fn repeat(var: usize, count: i64, body: Vec<Instr>) -> Instr {
        Instr::Loop {
            var,
            count: Expr::lit(count),
            body,
        }
    }

    fn when(cond: Cond, then_: Vec<Instr>) -> Instr {
        Instr::If {
            cond,
            then_,
            else_: vec![],
        }
    }

    #[test]
    fn origins_are_proven_up_to_the_bound_and_no_further() {
        let v = || Expr::var(0);
        for (off, want) in [(0, 0), (1, 1), (-1, 1)] {
            assert_eq!(
                unproven(vec![repeat(0, T, vec![load(v() * R + off)])]),
                want
            );
            // Blocks range over the grid: `bx <= 1`.
            assert_eq!(
                unproven(vec![load(Expr::block_x() * (T * R - R) + off)]),
                want
            );
        }
        assert_eq!(unproven(vec![repeat(0, T, vec![load_stage(v() % 2)])]), 0);
        assert_eq!(unproven(vec![repeat(0, T, vec![load_stage(v() % 3)])]), 1);
        // Proven or not, the mark is the instruction's: a slice's prelude
        // may read a register another slice's prelude wrote.
        let copy = |off| {
            repeat(
                0,
                T,
                vec![Instr::Simt(SimtOp::Copy {
                    src: Slice::frag(0).at(v() / T, 0).extent(R as usize, 8),
                    dst: Slice::param(0).at(v() * R + off, 0).extent(R as usize, 8),
                })],
            )
        };
        assert_eq!(unproven(vec![copy(0)]), 0);
        let program = lowered(vec![copy(1)]);
        let BcInstr::Op(BcOp::Simt { operands, .. }) = &program.roles[0][1] else {
            panic!("the copy follows the loop header");
        };
        assert!(!operands.proven);
        assert_eq!(program.slices(*operands).len(), 2);
        assert_eq!(program.unproven_ops(), 1);
        let program = lowered(vec![copy(0)]);
        let BcInstr::Op(BcOp::Simt { operands, .. }) = &program.roles[0][1] else {
            panic!("the copy follows the loop header");
        };
        assert!(operands.proven);
    }

    #[test]
    fn guards_bound_their_left_operand_inside_the_then_block() {
        let v = || Expr::var(0);
        for (past, want) in [(0, 0), (1, 1)] {
            let lt = when(
                Cond::Lt(v() + 1, Expr::lit(T + past)),
                vec![load((v() + 1) * R)],
            );
            let ge = when(
                Cond::Ge(v() - 1, Expr::lit(-past)),
                vec![load((v() - 1) * R)],
            );
            let eq = when(
                Cond::Eq(v(), Expr::lit(past)),
                vec![load((v() + T - 1) * R)],
            );
            for guarded in [lt, ge, eq] {
                assert_eq!(unproven(vec![repeat(0, T, vec![guarded])]), want);
            }
        }
        // Neither behind the then-block nor in the else-block.
        let behind = vec![
            when(Cond::Lt(v() + 1, Expr::lit(T)), vec![]),
            load((v() + 1) * R),
        ];
        let otherwise = Instr::If {
            cond: Cond::Lt(v() + 1, Expr::lit(T)),
            then_: vec![],
            else_: vec![load((v() + 1) * R)],
        };
        assert_eq!(unproven(vec![repeat(0, T, behind)]), 1);
        assert_eq!(unproven(vec![repeat(0, T, vec![otherwise])]), 1);
        // Nor over an operand reading a variable a nested loop rebinds.
        let rebound = when(
            Cond::Lt(v(), Expr::lit(1)),
            vec![repeat(0, T, vec![load(v() * R + (T - 1) * R)])],
        );
        assert_eq!(unproven(vec![repeat(0, T, vec![rebound])]), 1);
    }

    #[test]
    fn only_positive_constant_divisors_are_bounded() {
        let v = || Expr::var(0);
        for (d, want) in [(2, 0), (0, 1), (-2, 1)] {
            assert_eq!(
                unproven(vec![repeat(0, T, vec![load_stage(v() % d)])]),
                want
            );
            assert_eq!(
                unproven(vec![repeat(0, T, vec![load(v() * R * 2 / d)])]),
                want
            );
        }
        // In bounds — `-v·R + (T - 1)·R` — but not proven.
        let negated = v() * R * 2 / -2 + (T - 1) * R;
        assert_eq!(unproven(vec![repeat(0, T, vec![load(negated)])]), 1);
        assert_eq!(
            unproven(vec![repeat(0, T, vec![load_stage(v() % (v() + 2))])]),
            1
        );
    }

    #[test]
    fn zero_trip_loops_bind_nothing() {
        for (trips, want) in [(1, 0), (0, 1), (-1, 1)] {
            assert_eq!(
                unproven(vec![repeat(1, trips, vec![load(Expr::var(1) * R)])]),
                want
            );
        }
        // Skipped, a nested loop reusing `v` leaves it bound; lowering
        // proves nothing that reads a variable two loops bind.
        let after = vec![repeat(0, 0, vec![]), load(Expr::var(0) * R)];
        assert_eq!(unproven(vec![repeat(0, T, after)]), 1);
    }

    #[test]
    fn a_variable_two_loops_bind_is_never_bounded() {
        let read = || load(Expr::var(0) * R);
        for body in [
            // Behind a nested loop reusing `v`, `v` is unbound.
            vec![repeat(0, T, vec![repeat(0, 1, vec![]), read()])],
            // Ahead of it too, from the second iteration of a loop in
            // between.
            vec![repeat(
                0,
                T,
                vec![repeat(1, 2, vec![read(), repeat(0, 1, vec![])])],
            )],
            // And where a later loop over `v` cannot touch it.
            vec![repeat(0, T, vec![read()]), repeat(0, T, vec![])],
        ] {
            assert_eq!(unproven(body), 1);
        }
        assert_eq!(unproven(vec![repeat(0, T, vec![read()])]), 0);
    }

    #[test]
    fn unbound_and_overflowing_origins_are_not_proven() {
        assert_eq!(unproven(vec![load(Expr::var(5) * R)]), 1);
        // Behind its loop, a variable is unbound.
        let behind = vec![repeat(0, T, vec![]), load(Expr::var(0) * R)];
        assert_eq!(unproven(behind), 1);
        // In bounds once the VM wraps, but no interval says so.
        let wraps = (Expr::block_x() + i64::MAX) - i64::MAX;
        assert_eq!(unproven(vec![load(wraps)]), 1);
        assert_eq!(unproven(vec![load(Expr::block_x() * i64::MAX * 2)]), 1);
    }

    // ---- totals ----------------------------------------------------------

    /// One compute role running `body` over `A` (64 x 64 `F16`), the
    /// two-stage `sA` (64 x 64 `F16`), the fragment `acc`, one mbarrier
    /// and `sC` (64 x 64 `F32`).
    fn totals_kernel(body: Vec<Instr>) -> Kernel {
        let mut b = crate::KernelBuilder::new("totals", [1, 1, 1]);
        b.param("A", 64, 64, DType::F16);
        b.smem("sA", 64, 64, DType::F16, 2);
        b.frag("acc", 64, 64);
        b.mbar(1);
        b.smem("sC", 64, 64, DType::F32, 1);
        b.role(RoleKind::Compute(0), body);
        b.build()
    }

    /// A loop body counts once per trip. A store counts the bytes of its
    /// destination: 16 x 16 `F32` elements stored into `F16` reach global
    /// memory as 512 bytes, not the source's 1 024.
    #[test]
    fn static_totals_weight_loops() {
        let k = totals_kernel(vec![Instr::Loop {
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
                Instr::TmaStore {
                    src: Slice::smem(1).extent(16, 16),
                    dst: Slice::param(0).extent(16, 16),
                },
            ],
        }]);
        let program = lower(&k).unwrap();
        let t = program.totals;
        assert_eq!(t.load_bytes(), 4.0 * 256.0 * 2.0);
        assert_eq!(t.tc_flops, 4.0 * 2.0 * 64.0 * 64.0 * 16.0);
        assert_eq!(t.store_bytes, 4.0 * 256.0 * 2.0);
        assert_eq!(program.floor, Some(t));
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
        let program = lower(&totals_kernel(vec![Instr::If {
            cond: Cond::Eq(Expr::block_x(), Expr::lit(0)),
            then_: vec![load(tma, 16), load(cp, 4)],
            else_: vec![load(tma, 8), load(cp, 12)],
        }]))
        .unwrap();
        let estimate = program.totals;
        assert_eq!(
            (estimate.tma_load_bytes, estimate.cp_async_bytes),
            (512.0, 384.0)
        );
        let floor = program.floor.expect("no trip count reads the block");
        assert_eq!((floor.tma_load_bytes, floor.cp_async_bytes), (256.0, 128.0));

        let program = lower(&totals_kernel(vec![Instr::Loop {
            var: 0,
            count: Expr::block_y() + Expr::lit(1),
            body: vec![load(tma, 16)],
        }]))
        .unwrap();
        assert_eq!(program.totals.tma_load_bytes, 512.0);
        assert_eq!(program.floor, None);
    }

    /// A store whose destination's bytes overflow `usize` — a 2³¹ x 2³¹
    /// `F16` shared slice into an `F32` parameter: 2⁶³ bytes read, 2⁶⁴
    /// written — is a typed error of lowering, and so of a run, not an
    /// overflow panic (dev profile) or a wrapped total (release).
    #[test]
    fn an_overflowing_store_is_a_typed_error() {
        let n = 1usize << 31;
        let mut b = crate::KernelBuilder::new("huge-store", [1, 1, 1]);
        let out = b.param("out", n, n, DType::F32);
        let s = b.smem("s", n, n, DType::F16, 1);
        b.role(
            RoleKind::Compute(0),
            vec![Instr::TmaStore {
                src: Slice::smem(s).extent(n, n),
                dst: Slice::param(out).extent(n, n),
            }],
        );
        let kernel = b.build();
        let internal = |r: Result<(), SimError>| matches!(r, Err(SimError::Internal { .. }));
        assert!(internal(lower(&kernel).map(drop)));
        let sim = crate::Simulator::new(crate::MachineConfig::test_gpu());
        assert!(internal(sim.run_timing(&kernel).map(drop)));
    }

    #[test]
    fn shape_hash_distinguishes_kernels() {
        let k1 = pipelined_kernel();
        let mut renamed = k1.clone();
        renamed.name.push('x');
        // Float operands hash by their bits: `-0.0 == 0.0`, yet the fill
        // is a different instruction.
        let mut signed = k1.clone();
        let Instr::Simt(SimtOp::Fill { value, .. }) = &mut signed.roles[1].body[0] else {
            panic!("the compute role starts with its fill");
        };
        *value = -0.0;
        let mut rescaled = k1.clone();
        let Instr::Loop { body, .. } = &mut rescaled.roles[1].body[1] else {
            panic!("then the main loop");
        };
        let Instr::If { then_, .. } = &mut body[1] else {
            panic!("whose second instruction is the rescale branch");
        };
        let Instr::Simt(SimtOp::Map { op, .. }) = &mut then_[0] else {
            panic!("a scaling map");
        };
        *op = UnOp::Scale(0.25);
        for other in [renamed, signed, rescaled] {
            assert_ne!(kernel_shape_hash(&k1), kernel_shape_hash(&other));
        }
        assert_eq!(kernel_shape_hash(&k1.clone()), kernel_shape_hash(&k1));
        assert_eq!(lower(&k1).unwrap().shape_hash, kernel_shape_hash(&k1));
    }
}
