//! Flat bytecode for the execution engine.
//!
//! Every launch of a kernel used to re-walk the instruction tree produced
//! by [`crate::flatten`]: each slice origin re-evaluated its [`Expr`]
//! tree, each device operation re-derived its byte and FLOP quantities,
//! and each loop header re-interpreted its trip-count expression — per
//! CTA, per iteration. [`lower`] performs that work **once per compiled
//! kernel**, producing a [`Program`]: a flat instruction stream with
//!
//! - index arithmetic compiled to a small register machine (`IdxOp`
//!   preludes over virtual `i64` registers, constant-folded and
//!   common-subexpression-eliminated per instruction),
//! - slice bounds (`prows`/`pcols`/`stages`) resolved from the kernel's
//!   declarations at lowering time, and launch-constant slices (literal
//!   origin, no prelude, in bounds) resolved outright (see
//!   `BcSlice::fixed`),
//! - transfer bytes, WGMMA FLOPs and SIMT cost factors pre-computed with
//!   overflow-checked arithmetic.
//!
//! The engine's dispatch loop then executes bytecode positions one-to-one
//! with the walked program — same program counters, same evaluation
//! order, same error messages — so a bytecode run is **bit-identical** to
//! an IR-walk run in both data and simulated time. That contract is
//! pinned by the three-way differential suites (scalar oracle vs fast
//! IR-walk vs bytecode) and by the benchmark figures, which must
//! regenerate bit-identically.
//!
//! Index registers use wrapping arithmetic (the VM never panics on
//! overflow); division still reports [`EvalError::DivisionByZero`]
//! exactly where the tree walk would.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::apply::RSlice;
use crate::error::SimError;
use crate::expr::{Cond, Env, EvalError, Expr};
use crate::flatten::{flatten, Flat};
use crate::fnv::Fnv64;
use crate::instr::{Instr, SimtOp};
use crate::kernel::Kernel;
use crate::mem::{MemRef, Slice, Space};

/// Operand of an index instruction: an immediate, a block index, a loop
/// variable read from the executor's environment, or a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scalar {
    /// Constant, folded at lowering time.
    Imm(i64),
    /// Block index component (0 = x, 1 = y, 2 = z).
    Block(u8),
    /// Loop variable id, read through the executor's [`Env`] so unbound
    /// uses fail exactly like the tree walk.
    Var(usize),
    /// Virtual register written by an earlier [`IdxOp`] of the same
    /// instruction.
    Reg(u32),
}

/// One register-machine index operation. Arithmetic wraps (the walk's
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
    /// operations and a dividend's, replicating the tree walk's
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
/// per-instruction prelude) because the walk resolves operand slices one
/// at a time — evaluating, sign-checking and bounds-checking a source
/// completely before touching the destination's expressions. Keeping that
/// granularity preserves which error fires first when several would.
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
    /// and only if — the instruction executes, exactly like the walk.
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

/// Pre-computed cost factors of a SIMT operation, mirroring what the
/// walk's `simt_cost` derives from resolved slices (all of it depends
/// only on static extents and address spaces).
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
    /// TMA global→shared copy arriving `bar` on completion. `bar` is
    /// narrowed here, once, because the completion event carries it (see
    /// [`index32`]).
    TmaLoad {
        src: BcSlice,
        dst: BcSlice,
        bar: u32,
        bytes: f64,
    },
    /// `cp.async` global→shared copy arriving `bar` on completion.
    CpAsyncLoad {
        src: BcSlice,
        dst: BcSlice,
        bar: u32,
        bytes: f64,
    },
    /// TMA shared→global copy tracked by [`BcOp::TmaStoreWait`].
    TmaStore {
        src: BcSlice,
        dst: BcSlice,
        bytes: f64,
    },
    /// Block until outstanding TMA stores drain.
    TmaStoreWait,
    /// Arrive mbarrier `bar` once.
    MbarArrive { bar: usize },
    /// Wait for the next phase of mbarrier `bar`.
    MbarWait { bar: usize },
    /// Asynchronous Tensor Core MMA with pre-computed FLOPs and operand
    /// shared-memory traffic.
    Wgmma {
        a: BcSlice,
        b: BcSlice,
        acc: BcSlice,
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
        op: SimtOp,
        srcs: Vec<BcSlice>,
        dst: BcSlice,
        cost: SimtCost,
    },
    /// Named-barrier arrive-and-wait.
    NamedBarrier { id: usize, parties: usize },
    /// CTA-wide barrier.
    Syncthreads,
}

/// One bytecode position. Mirrors [`Flat`] one-to-one — same indices,
/// same jump targets — so program counters (and therefore error contexts
/// and deadlock descriptions) are identical across frontends.
///
/// Real instruction streams are dominated by [`BcInstr::Op`], so boxing
/// the large variant would put a pointer chase in the engine's hot
/// dispatch loop to shrink the few control-flow positions between ops.
#[allow(clippy::large_enum_variant)]
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

/// A kernel's functional body lowered once into flat bytecode.
///
/// Produced by [`lower`], cached by the runtime alongside the compiled
/// kernel, and executed by `Simulator::run_functional_lowered` /
/// `Simulator::run_timing_lowered`. Executing a program against a kernel
/// other than the one it was lowered from is rejected with a typed
/// [`SimError::Internal`] (a structural hash of the kernel is stored at
/// lowering time).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) roles: Vec<Vec<BcInstr>>,
    pub(crate) num_regs: usize,
    pub(crate) shape_hash: u64,
}

impl Program {
    /// Total bytecode positions across all role programs.
    #[must_use]
    pub fn num_instructions(&self) -> usize {
        self.roles.iter().map(Vec::len).sum()
    }
}

/// FNV-1a over the kernel's debug representation: a cheap structural
/// fingerprint tying a [`Program`] to the kernel it was lowered from.
/// Every run recomputes it, so the formatter streams into the hash
/// instead of building the string first.
pub(crate) fn kernel_shape_hash(kernel: &Kernel) -> u64 {
    let mut h = Fnv64::new();
    // The sink never fails, so neither does the formatter.
    let _ = write!(h, "{kernel:?}");
    h.finish()
}

/// Lower `kernel`'s role bodies into a flat [`Program`].
///
/// # Errors
///
/// Returns [`SimError::Internal`] if a slice references an undeclared
/// memory object or a pre-computed quantity overflows `usize` — typed
/// errors instead of the index/overflow panics unchecked lowering would
/// risk.
pub fn lower(kernel: &Kernel) -> Result<Program, SimError> {
    let mut ctx = Lower {
        kernel,
        cse: HashMap::new(),
        next_reg: 0,
        max_regs: 0,
    };
    let roles = kernel
        .roles
        .iter()
        .map(|r| {
            flatten(&r.body)
                .iter()
                .map(|f| ctx.lower_flat(f))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Program {
        roles,
        num_regs: ctx.max_regs as usize,
        shape_hash: kernel_shape_hash(kernel),
    })
}

#[derive(Clone, Copy)]
enum ArithKind {
    Add,
    Sub,
    Mul,
}

struct Lower<'a> {
    kernel: &'a Kernel,
    /// Per-instruction value numbering: an expression already lowered in
    /// this instruction reuses its operand instead of re-emitting ops.
    cse: HashMap<Expr, Scalar>,
    next_reg: u32,
    max_regs: u32,
}

impl Lower<'_> {
    /// Reset the value-numbering scope; registers are reused across
    /// instructions (each instruction's prelude fully defines the
    /// registers it reads).
    fn begin_instr(&mut self) {
        self.cse.clear();
        self.next_reg = 0;
    }

    fn alloc_reg(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_regs = self.max_regs.max(self.next_reg);
        r
    }

    fn lower_flat(&mut self, f: &Flat<'_>) -> Result<BcInstr, SimError> {
        Ok(match f {
            Flat::Op(instr) => BcInstr::Op(self.lower_op(instr)?),
            Flat::LoopStart { var, count, end } => {
                self.begin_instr();
                let mut pre = Vec::new();
                let val = self.emit(count, &mut pre);
                BcInstr::LoopStart {
                    var: *var,
                    count: SVal { pre, val },
                    end: *end,
                }
            }
            Flat::LoopEnd { .. } => BcInstr::LoopEnd,
            Flat::Branch { cond, else_target } => {
                self.begin_instr();
                let mut pre = Vec::new();
                let (kind, a, b) = match cond {
                    Cond::Ge(x, y) => {
                        let a = self.emit(x, &mut pre);
                        let b = self.emit(y, &mut pre);
                        (CondKind::Ge, a, b)
                    }
                    Cond::Lt(x, y) => {
                        let a = self.emit(x, &mut pre);
                        let b = self.emit(y, &mut pre);
                        (CondKind::Lt, a, b)
                    }
                    Cond::Eq(x, y) => {
                        let a = self.emit(x, &mut pre);
                        let b = self.emit(y, &mut pre);
                        (CondKind::Eq, a, b)
                    }
                };
                BcInstr::Branch {
                    cond: BcCond { pre, kind, a, b },
                    else_target: *else_target,
                }
            }
            Flat::Jump(t) => BcInstr::Jump(*t),
            Flat::End => BcInstr::End,
        })
    }

    fn lower_op(&mut self, instr: &Instr) -> Result<BcOp, SimError> {
        self.begin_instr();
        Ok(match instr {
            Instr::TmaLoad { src, dst, bar } => {
                let src = self.lower_slice(src)?;
                let dst = self.lower_slice(dst)?;
                let bytes = self.slice_bytes(&src)?;
                BcOp::TmaLoad {
                    src,
                    dst,
                    bar: index32(*bar, "mbarrier index")?,
                    bytes,
                }
            }
            Instr::CpAsyncLoad { src, dst, bar } => {
                let src = self.lower_slice(src)?;
                let dst = self.lower_slice(dst)?;
                let bytes = self.slice_bytes(&src)?;
                BcOp::CpAsyncLoad {
                    src,
                    dst,
                    bar: index32(*bar, "mbarrier index")?,
                    bytes,
                }
            }
            Instr::TmaStore { src, dst } => {
                let src = self.lower_slice(src)?;
                let dst = self.lower_slice(dst)?;
                let bytes = self.slice_bytes(&src)?;
                BcOp::TmaStore { src, dst, bytes }
            }
            Instr::TmaStoreWait => BcOp::TmaStoreWait,
            Instr::MbarArrive { bar } => BcOp::MbarArrive { bar: *bar },
            Instr::MbarWait { bar } => BcOp::MbarWait { bar: *bar },
            Instr::Wgmma {
                a,
                b,
                acc,
                accumulate,
                transpose_b,
            } => {
                let a = self.lower_slice(a)?;
                let b = self.lower_slice(b)?;
                let acc = self.lower_slice(acc)?;
                let a_elems = a.rows.checked_mul(a.cols).ok_or_else(|| overflow(&a))?;
                // Same expression shape as the walk: 2 * |A| * N, left to
                // right in f64, so the value is bit-identical.
                let flops = 2.0 * a_elems as f64 * acc.cols as f64;
                let mut smem_bytes = self.slice_bytes(&b)?;
                if a.mem.space() == Space::Shared {
                    smem_bytes += self.slice_bytes(&a)?;
                }
                BcOp::Wgmma {
                    a,
                    b,
                    acc,
                    accumulate: *accumulate,
                    transpose_b: *transpose_b,
                    flops,
                    smem_bytes,
                }
            }
            Instr::WgmmaWait { pending } => BcOp::WgmmaWait { pending: *pending },
            Instr::Simt(op) => {
                let mut srcs = Vec::new();
                for s in op.sources() {
                    srcs.push(self.lower_slice(s)?);
                }
                let dst = self.lower_slice(op.dst())?;
                let cost = self.simt_cost(op, &srcs, &dst)?;
                BcOp::Simt {
                    op: op.clone(),
                    srcs,
                    dst,
                    cost,
                }
            }
            Instr::NamedBarrier { id, parties } => BcOp::NamedBarrier {
                id: *id,
                parties: *parties,
            },
            Instr::Syncthreads => BcOp::Syncthreads,
            Instr::Loop { .. } | Instr::If { .. } => {
                return Err(SimError::Internal {
                    what: "control flow reached bytecode lowering unflattened".into(),
                })
            }
        })
    }

    fn lower_slice(&mut self, s: &Slice) -> Result<BcSlice, SimError> {
        let undeclared = || SimError::Internal {
            what: format!("bytecode lowering: slice references undeclared {:?}", s.mem),
        };
        let (prows, pcols, stages) = match s.mem {
            MemRef::Param(i) => {
                let p = self.kernel.params.get(i).ok_or_else(undeclared)?;
                (p.rows, p.cols, 1)
            }
            MemRef::Smem(i) => {
                let d = self.kernel.smem.get(i).ok_or_else(undeclared)?;
                (d.rows, d.cols, d.stages)
            }
            MemRef::Frag(i) => {
                let f = self.kernel.frags.get(i).ok_or_else(undeclared)?;
                (f.rows, f.cols, 1)
            }
        };
        let mut pre = Vec::new();
        // Same order the walk resolves in: stage, then row, then column.
        let stage = self.emit(&s.stage, &mut pre);
        let row0 = self.emit(&s.row0, &mut pre);
        let col0 = self.emit(&s.col0, &mut pre);
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

    fn emit(&mut self, e: &Expr, pre: &mut Vec<IdxOp>) -> Scalar {
        if let Some(&s) = self.cse.get(e) {
            return s;
        }
        let s = match e {
            Expr::Lit(v) => Scalar::Imm(*v),
            Expr::Var(id) => Scalar::Var(*id),
            Expr::BlockX => Scalar::Block(0),
            Expr::BlockY => Scalar::Block(1),
            Expr::BlockZ => Scalar::Block(2),
            Expr::Add(a, b) => self.emit_arith(ArithKind::Add, a, b, pre),
            Expr::Sub(a, b) => self.emit_arith(ArithKind::Sub, a, b, pre),
            Expr::Mul(a, b) => self.emit_arith(ArithKind::Mul, a, b, pre),
            Expr::Div(a, b) => self.emit_divmod(false, a, b, pre),
            Expr::Mod(a, b) => self.emit_divmod(true, a, b, pre),
        };
        self.cse.insert(e.clone(), s);
        s
    }

    fn emit_arith(&mut self, kind: ArithKind, a: &Expr, b: &Expr, pre: &mut Vec<IdxOp>) -> Scalar {
        let sa = self.emit(a, pre);
        let sb = self.emit(b, pre);
        if let (Scalar::Imm(x), Scalar::Imm(y)) = (sa, sb) {
            // Fold only when exact: on overflow fall back to the runtime
            // op (which wraps, the walk's release behavior).
            let folded = match kind {
                ArithKind::Add => x.checked_add(y),
                ArithKind::Sub => x.checked_sub(y),
                ArithKind::Mul => x.checked_mul(y),
            };
            if let Some(v) = folded {
                return Scalar::Imm(v);
            }
        }
        let dst = self.alloc_reg();
        pre.push(match kind {
            ArithKind::Add => IdxOp::Add { dst, a: sa, b: sb },
            ArithKind::Sub => IdxOp::Sub { dst, a: sa, b: sb },
            ArithKind::Mul => IdxOp::Mul { dst, a: sa, b: sb },
        });
        Scalar::Reg(dst)
    }

    fn emit_divmod(&mut self, is_mod: bool, a: &Expr, b: &Expr, pre: &mut Vec<IdxOp>) -> Scalar {
        // The walk evaluates the divisor first and zero-checks it before
        // touching the dividend; replicate that order so a zero divisor
        // outranks an unbound variable in the dividend.
        let sb = self.emit(b, pre);
        let statically_nonzero = matches!(sb, Scalar::Imm(d) if d != 0);
        if !statically_nonzero {
            pre.push(IdxOp::CheckDiv { b: sb });
        }
        let sa = self.emit(a, pre);
        if let (Scalar::Imm(x), Scalar::Imm(d)) = (sa, sb) {
            if d != 0 {
                let folded = if is_mod {
                    x.checked_rem_euclid(d)
                } else {
                    x.checked_div_euclid(d)
                };
                if let Some(v) = folded {
                    return Scalar::Imm(v);
                }
            }
        }
        let dst = self.alloc_reg();
        pre.push(if is_mod {
            IdxOp::Mod { dst, a: sa, b: sb }
        } else {
            IdxOp::Div { dst, a: sa, b: sb }
        });
        Scalar::Reg(dst)
    }
}

/// `i` as event-queue elements store indices: they index with `u32` to
/// stay small, and a `what` that does not fit is a typed error, never a
/// truncation.
pub(crate) fn index32(i: usize, what: &str) -> Result<u32, SimError> {
    u32::try_from(i).map_err(|_| SimError::Internal {
        what: format!("{what} {i} exceeds the event queue's u32 indices"),
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
/// order the tree walk raises them.
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

    /// Lower one expression as an SVal (fresh instruction scope).
    fn lower_expr(kernel: &Kernel, e: &Expr) -> (SVal, usize) {
        let mut ctx = Lower {
            kernel,
            cse: HashMap::new(),
            next_reg: 0,
            max_regs: 0,
        };
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
    fn vm_matches_tree_walk_on_arithmetic() {
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
            let (walk, vm) = eval_both(&e, &env);
            assert_eq!(walk, vm, "{e}");
        }
    }

    #[test]
    fn vm_matches_tree_walk_on_errors() {
        let env = Env::for_block([0, 0, 0]);
        // Unbound loop variable.
        let (walk, vm) = eval_both(&(Expr::var(3) + 1), &env);
        assert_eq!(walk, vm);
        assert_eq!(vm, Err(EvalError::UnboundVar(3)));
        // Division by a statically-zero divisor fires *before* the
        // unbound dividend is touched — same precedence as the walk.
        let (walk, vm) = eval_both(&(Expr::var(9) / 0), &env);
        assert_eq!(walk, vm);
        assert_eq!(vm, Err(EvalError::DivisionByZero));
        // Runtime-zero divisor.
        let mut env = Env::for_block([0, 0, 0]);
        env.bind(0, 0);
        let (walk, vm) = eval_both(&(Expr::lit(7) / Expr::var(0)), &env);
        assert_eq!(walk, vm);
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

    /// A small pipelined kernel exercising every control construct: a DMA
    /// role driving staged TMA loads in a loop, and a compute role with a
    /// branch, WGMMA, and SIMT tail.
    fn pipelined_kernel() -> Kernel {
        use crate::instr::{BinOp, UnOp};
        use crate::kernel::RoleKind;
        use cypress_tensor::DType;

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

    #[test]
    fn lowered_program_mirrors_flat_shape() {
        let kernel = pipelined_kernel();
        let program = lower(&kernel).unwrap();
        assert_eq!(program.roles.len(), kernel.roles.len());
        for (role, bc) in kernel.roles.iter().zip(&program.roles) {
            let flat = flatten(&role.body);
            assert_eq!(flat.len(), bc.len(), "one-to-one with the walked program");
            for (f, b) in flat.iter().zip(bc) {
                match (f, b) {
                    (Flat::Op(_), BcInstr::Op(_))
                    | (Flat::LoopEnd { .. }, BcInstr::LoopEnd)
                    | (Flat::End, BcInstr::End) => {}
                    (Flat::Jump(t), BcInstr::Jump(u)) => assert_eq!(t, u),
                    (Flat::LoopStart { end: t, .. }, BcInstr::LoopStart { end: u, .. }) => {
                        assert_eq!(t, u);
                    }
                    (
                        Flat::Branch { else_target: t, .. },
                        BcInstr::Branch { else_target: u, .. },
                    ) => assert_eq!(t, u),
                    other => panic!("frontends disagree on instruction shape: {other:?}"),
                }
            }
        }
        assert!(program.num_instructions() > 0);
    }

    /// Only a slice that cannot fail is resolved at lowering time.
    #[test]
    fn launch_constant_slices_are_resolved_at_lowering() {
        let mut kernel = pipelined_kernel();
        let lower_slice = |kernel: &Kernel, s: &Slice| {
            let mut ctx = Lower {
                kernel,
                cse: HashMap::new(),
                next_reg: 0,
                max_regs: 0,
            };
            ctx.lower_slice(s).unwrap()
        };
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

    #[test]
    fn shape_hash_distinguishes_kernels() {
        let k1 = pipelined_kernel();
        let mut k2 = k1.clone();
        k2.name.push('x');
        assert_ne!(kernel_shape_hash(&k1), kernel_shape_hash(&k2));
        assert_eq!(lower(&k1).unwrap().shape_hash, kernel_shape_hash(&k1));
    }
}
