//! Dependence analysis (paper §4.2.1).
//!
//! An in-order traversal of the instantiated task tree, starting at the
//! mapping's entrypoint. Scalars, tunables, shapes and partitions are all
//! evaluated statically (Cypress is "amenable to a fully static analysis",
//! §3). Each launch site follows the copy-in/copy-out discipline:
//!
//! 1. allocate a fresh tensor per argument in the callee's mapped memory,
//! 2. copy-in read arguments,
//! 3. recursively lower the callee variant,
//! 4. copy-out written arguments,
//!
//! with privilege-driven event chaining throughout. `srange` lowers to a
//! sequential `for`, `prange` to `pfor` loops whose iterations must not
//! perform aliasing writes — enforced here, which is what makes mapping
//! decisions unable to affect correctness (§3.3).
//!
//! The pass runs once per mapping candidate of a tuner sweep, so a launch
//! site costs what the IR it emits costs: variants, instances, bodies and
//! the names in them are borrowed from the registry and mapping for the
//! whole run, per-tensor state is indexed by `TensorId`, an access is
//! recorded in the innermost scope only, and MMA partitions are checked
//! against the shape rules without building their lane tables
//! (`tests/depan_allocs.rs` holds the allocation budget).

use crate::error::CompileError;
use crate::front::ast::{ArgExpr, LeafFn, Privilege, SExpr, Stmt};
use crate::front::machine::{MemLevel, ProcLevel};
use crate::front::mapping::{MappingSpec, TaskMapping};
use crate::front::task::{TaskRegistry, TaskVariant};
use crate::ir::{
    Block, EvIdx, EventId, EventRef, EventType, IdxExpr, IrProgram, Op, OpKind, PartId, PartKind,
    TensorId, TensorRef, VarId,
};
use cypress_tensor::partition::{check_mma_shape, MmaInstr, MmaLevel, MmaOperand};
use cypress_tensor::DType;
use std::collections::HashMap;

/// A global tensor bound to the entrypoint task.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryArg {
    /// Name (for diagnostics).
    pub name: String,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Element type.
    pub dtype: DType,
}

impl EntryArg {
    /// An f16 `rows x cols` entry tensor (every evaluation kernel's
    /// operands are f16).
    #[must_use]
    pub fn f16(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        EntryArg {
            name: name.into(),
            rows,
            cols,
            dtype: DType::F16,
        }
    }
}

/// Run dependence analysis: instantiate the task tree into event IR.
///
/// # Errors
///
/// Returns [`CompileError`] for unknown tasks/instances, privilege or
/// task-kind violations, aliasing parallel writes, arity mismatches,
/// unbound tunables, or partition failures.
pub fn analyze(
    registry: &TaskRegistry,
    mapping: &MappingSpec,
    name: &str,
    entry_args: &[EntryArg],
) -> Result<IrProgram, CompileError> {
    let entry = mapping.entry();
    let variant = registry.variant(&entry.variant)?;
    if variant.params.len() != entry_args.len() {
        return Err(CompileError::ArityMismatch {
            task: variant.task.clone(),
            expected: variant.params.len(),
            actual: entry_args.len(),
        });
    }
    let mut a = Analyzer {
        reg: registry,
        map: mapping,
        prog: IrProgram::new(name),
        tensors: Vec::new(),
        scope: Scope::opening_at(0),
        open_loops: Vec::new(),
        pending: Vec::new(),
    };
    let mut frame = Frame::new(entry, variant);
    for (i, (arg, p)) in entry_args.iter().zip(&variant.params).enumerate() {
        let mem = entry.mems.get(i).copied().unwrap_or(MemLevel::Global);
        let shape = (arg.rows, arg.cols);
        let id = a.add_tensor(
            arg.name.clone(),
            shape,
            arg.dtype,
            mem,
            Some(i),
            p.privilege,
        );
        frame.tensors.insert(&p.name, id);
    }
    let mut body = Block::default();
    a.lower_stmts(&mut frame, &variant.body, &mut body)?;
    a.prog.body = body;
    Ok(a.prog)
}

/// Affine scalar value `scale·var + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SVal {
    var: Option<VarId>,
    scale: i64,
    offset: i64,
}

impl SVal {
    fn constant(v: i64) -> Self {
        SVal {
            var: None,
            scale: 0,
            offset: v,
        }
    }

    fn var(v: VarId) -> Self {
        SVal {
            var: Some(v),
            scale: 1,
            offset: 0,
        }
    }

    fn as_const(&self) -> Option<i64> {
        if self.var.is_none() {
            Some(self.offset)
        } else {
            None
        }
    }

    fn to_idx(self) -> IdxExpr {
        IdxExpr {
            var: self.var,
            scale: self.scale,
            offset: self.offset,
        }
    }
}

/// Lexical frame of one task instance: what it runs and the names its
/// body has bound so far, keyed by the variant's own strings.
struct Frame<'a> {
    inst: &'a TaskMapping,
    variant: &'a TaskVariant,
    scalars: HashMap<&'a str, SVal>,
    tensors: HashMap<&'a str, TensorId>,
    parts: HashMap<&'a str, PartId>,
}

impl<'a> Frame<'a> {
    fn new(inst: &'a TaskMapping, variant: &'a TaskVariant) -> Self {
        Frame {
            inst,
            variant,
            scalars: HashMap::new(),
            tensors: HashMap::new(),
            parts: HashMap::new(),
        }
    }
}

/// The completion of an emitted op as later ops wait on it: a unit event
/// or, for a `pfor`, its whole event array (`[:]`). Dependence analysis
/// produces no other reference shape; point-wise indices come from
/// vectorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dep {
    event: EventId,
    all: bool,
}

impl Dep {
    fn unit(event: EventId) -> Self {
        Dep { event, all: false }
    }

    fn to_ref(self) -> EventRef {
        EventRef {
            event: self.event,
            idx: if self.all {
                vec![EvIdx::All]
            } else {
                Vec::new()
            },
        }
    }
}

/// What the analysis tracks per tensor, indexed by [`TensorId`] beside
/// `IrProgram::tensors`.
struct TensorState {
    /// What the task instance holding the tensor may do with it.
    privilege: Privilege,
    /// The loop whose body created the tensor (`None` outside every loop).
    home: Option<VarId>,
    last_write: Option<Dep>,
    /// Reads since the last write.
    readers: Vec<Dep>,
}

const READ: u8 = 1;
const WRITE: u8 = 2;

/// The entrypoint body or one loop body during lowering.
struct Scope {
    /// Events created at or after this id belong to the scope.
    first_event: EventId,
    /// Dependencies on events outside the scope, lifted to the loop op.
    lifted: Vec<Dep>,
    /// `READ`/`WRITE` flags of the tensors accessed inside the scope,
    /// indexed by [`TensorId`] (as long as the highest id touched).
    access: Vec<u8>,
}

impl Scope {
    fn opening_at(first_event: EventId) -> Self {
        Scope {
            first_event,
            lifted: Vec::new(),
            access: Vec::new(),
        }
    }

    fn mark(&mut self, t: TensorId, flag: u8) {
        if self.access.len() <= t {
            self.access.resize(t + 1, 0);
        }
        self.access[t] |= flag;
    }
}

struct Analyzer<'a> {
    reg: &'a TaskRegistry,
    map: &'a MappingSpec,
    prog: IrProgram,
    tensors: Vec<TensorState>,
    /// The innermost open scope. Accesses are recorded here only and
    /// merged into the enclosing scope when a loop closes; the enclosing
    /// scopes wait in the `lower_loop` calls that opened them.
    scope: Scope,
    /// Variable and parallelism of every open loop, outermost first.
    open_loops: Vec<(VarId, bool)>,
    /// Dependencies of the op about to be emitted, in `pre` order.
    pending: Vec<Dep>,
}

impl<'a> Analyzer<'a> {
    // ---- scalar evaluation ------------------------------------------------

    fn eval(&self, frame: &Frame, e: &SExpr) -> Result<SVal, CompileError> {
        let c = |v: Result<SVal, CompileError>| -> Result<i64, CompileError> {
            v?.as_const().ok_or_else(|| {
                CompileError::Scalar("loop variables may only appear affinely".into())
            })
        };
        Ok(match e {
            SExpr::Lit(v) => SVal::constant(*v),
            SExpr::Var(n) => *frame
                .scalars
                .get(n.as_str())
                .ok_or_else(|| CompileError::UnboundVariable(n.clone()))?,
            SExpr::ShapeDim(t, d) => {
                let id = self.resolve_tensor(frame, t)?;
                let decl = &self.prog.tensors[id];
                let v = match d {
                    0 => decl.rows,
                    1 => decl.cols,
                    _ => return Err(CompileError::Scalar(format!("shape dim {d} out of range"))),
                };
                SVal::constant(v as i64)
            }
            SExpr::Add(a, b) => {
                let (a, b) = (self.eval(frame, a)?, self.eval(frame, b)?);
                match (a.var, b.var) {
                    (_, None) => SVal {
                        var: a.var,
                        scale: a.scale,
                        offset: a.offset + b.offset,
                    },
                    (None, _) => SVal {
                        var: b.var,
                        scale: b.scale,
                        offset: a.offset + b.offset,
                    },
                    (Some(x), Some(y)) if x == y => SVal {
                        var: Some(x),
                        scale: a.scale + b.scale,
                        offset: a.offset + b.offset,
                    },
                    _ => return Err(CompileError::Scalar("sum of two loop variables".into())),
                }
            }
            SExpr::Sub(a, b) => {
                let (a, b) = (self.eval(frame, a)?, self.eval(frame, b)?);
                if b.var.is_some() && a.var != b.var {
                    return Err(CompileError::Scalar("difference of loop variables".into()));
                }
                if a.var == b.var {
                    SVal {
                        var: None,
                        scale: 0,
                        offset: a.offset - b.offset,
                    }
                } else {
                    SVal {
                        var: a.var,
                        scale: a.scale,
                        offset: a.offset - b.offset,
                    }
                }
            }
            SExpr::Mul(a, b) => {
                let (a, b) = (self.eval(frame, a)?, self.eval(frame, b)?);
                match (a.as_const(), b.as_const()) {
                    (Some(x), _) => SVal {
                        var: b.var,
                        scale: b.scale * x,
                        offset: b.offset * x,
                    },
                    (_, Some(y)) => SVal {
                        var: a.var,
                        scale: a.scale * y,
                        offset: a.offset * y,
                    },
                    _ => return Err(CompileError::Scalar("product of loop variables".into())),
                }
            }
            SExpr::Div(a, b) => {
                let d = c(self.eval(frame, b))?;
                let n = c(self.eval(frame, a))?;
                if d == 0 {
                    return Err(CompileError::Scalar("division by zero".into()));
                }
                if n % d != 0 {
                    return Err(CompileError::Scalar(format!("{n} not divisible by {d}")));
                }
                SVal::constant(n / d)
            }
            SExpr::CDiv(a, b) => {
                let d = c(self.eval(frame, b))?;
                let n = c(self.eval(frame, a))?;
                if d == 0 {
                    return Err(CompileError::Scalar("division by zero".into()));
                }
                SVal::constant(n.div_euclid(d) + i64::from(n.rem_euclid(d) != 0))
            }
            SExpr::Mod(a, b) => {
                let d = c(self.eval(frame, b))?;
                let n = c(self.eval(frame, a))?;
                if d == 0 {
                    return Err(CompileError::Scalar("modulo by zero".into()));
                }
                SVal::constant(n.rem_euclid(d))
            }
        })
    }

    fn resolve_tensor(&self, frame: &Frame, name: &str) -> Result<TensorId, CompileError> {
        frame
            .tensors
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::UnboundName(name.to_string()))
    }

    fn resolve_arg(&self, frame: &Frame, arg: &ArgExpr) -> Result<TensorRef, CompileError> {
        match arg {
            ArgExpr::Tensor(n) => Ok(TensorRef::whole(self.resolve_tensor(frame, n)?)),
            ArgExpr::Piece { partition, indices } => {
                let pid = *frame
                    .parts
                    .get(partition.as_str())
                    .ok_or_else(|| CompileError::UnboundName(partition.clone()))?;
                let idx: Vec<IdxExpr> = indices
                    .iter()
                    .map(|e| self.eval(frame, e).map(SVal::to_idx))
                    .collect::<Result<_, _>>()?;
                Ok(TensorRef::piece(self.prog.parts[pid].parent, pid, idx))
            }
            ArgExpr::Scalar(_) => Err(CompileError::Unsupported("scalar task arguments".into())),
        }
    }

    /// Shape of a reference (folds piece shapes along the path).
    fn ref_shape(&self, r: &TensorRef) -> (usize, usize) {
        match r.path.last() {
            None => {
                let t = &self.prog.tensors[r.tensor];
                (t.rows, t.cols)
            }
            Some((p, _)) => self.prog.parts[*p].piece_shape(),
        }
    }

    /// Declare a tensor created in the innermost open loop.
    fn add_tensor(
        &mut self,
        name: String,
        (rows, cols): (usize, usize),
        dtype: DType,
        mem: MemLevel,
        param: Option<usize>,
        privilege: Privilege,
    ) -> TensorId {
        self.tensors.push(TensorState {
            privilege,
            home: self.open_loops.last().map(|&(var, _)| var),
            last_write: None,
            readers: Vec::new(),
        });
        self.prog.add_tensor(name, rows, cols, dtype, mem, param)
    }

    // ---- event bookkeeping ------------------------------------------------

    fn register_read(&mut self, t: TensorId, ev: Dep) {
        self.tensors[t].readers.push(ev);
        self.scope.mark(t, READ);
    }

    fn register_write(&mut self, t: TensorId, ev: Dep) {
        let state = &mut self.tensors[t];
        state.last_write = Some(ev);
        state.readers.clear();
        self.scope.mark(t, WRITE);
    }

    /// The next op reads `t`: it waits for the last write.
    fn after_write(&mut self, t: TensorId) {
        self.pending.extend(self.tensors[t].last_write);
    }

    /// The next op overwrites `t`: it waits for the last write and for
    /// every read since.
    fn after_accesses(&mut self, t: TensorId) {
        self.after_write(t);
        self.pending.extend(&self.tensors[t].readers);
    }

    /// Allocate the next op's event and turn the pending dependencies
    /// into its preconditions, routing those defined outside the current
    /// scope to the scope's lifted set (they become the enclosing loop's
    /// preconditions, as in Fig. 8b).
    fn begin_op(&mut self) -> (EventId, Vec<EventRef>) {
        let mut pre = Vec::new();
        for d in self.pending.drain(..) {
            if d.event >= self.scope.first_event {
                pre.push(d.to_ref());
            } else if !self.scope.lifted.contains(&d) {
                self.scope.lifted.push(d);
            }
        }
        (self.prog.fresh_event(), pre)
    }

    /// Emit `copy(src, dst)` into `block` after the last write of the
    /// source and every access of the destination (none yet, for a
    /// copy-in's fresh tensor).
    fn emit_copy(&mut self, block: &mut Block, src: TensorRef, dst: TensorRef) {
        let (read, written) = (src.tensor, dst.tensor);
        self.after_write(read);
        self.after_accesses(written);
        let (result, pre) = self.begin_op();
        block.ops.push(Op {
            result,
            ty: EventType::Unit,
            pre,
            kind: OpKind::Copy { src, dst },
        });
        self.register_read(read, Dep::unit(result));
        self.register_write(written, Dep::unit(result));
    }

    /// Check the prange aliasing-write rule for a write to `r` under every
    /// enclosing pfor.
    fn check_parallel_write(&self, variant: &str, r: &TensorRef) -> Result<(), CompileError> {
        let home = self.tensors[r.tensor].home;
        for (i, &(v, parallel)) in self.open_loops.iter().enumerate() {
            if !parallel {
                continue;
            }
            // Created in this loop or one open below it => private per
            // iteration.
            if home.is_some_and(|h| self.open_loops[i..].iter().any(|&(l, _)| l == h)) {
                continue;
            }
            // Otherwise the write must target a piece of a disjoint
            // partition indexed by the pfor variable.
            let indexed_disjoint = r
                .path
                .iter()
                .any(|(p, idx)| self.prog.parts[*p].is_disjoint() && idx.iter().any(|e| e.uses(v)));
            if !indexed_disjoint {
                return Err(CompileError::AliasingWrites {
                    variant: variant.to_string(),
                    tensor: self.prog.tensors[r.tensor].name.clone(),
                });
            }
        }
        Ok(())
    }

    // ---- statement lowering -----------------------------------------------

    fn lower_stmts(
        &mut self,
        frame: &mut Frame<'a>,
        stmts: &'a [Stmt],
        block: &mut Block,
    ) -> Result<(), CompileError> {
        for stmt in stmts {
            self.lower_stmt(frame, stmt, block)?;
        }
        Ok(())
    }

    fn lower_stmt(
        &mut self,
        frame: &mut Frame<'a>,
        stmt: &'a Stmt,
        block: &mut Block,
    ) -> Result<(), CompileError> {
        match stmt {
            Stmt::Let { name, value } => {
                let v = self.eval(frame, value)?;
                frame.scalars.insert(name, v);
            }
            Stmt::Tunable { name } => {
                let Some(&v) = frame.inst.tunables.get(name) else {
                    return Err(CompileError::UnboundTunable {
                        variant: frame.variant.name.clone(),
                        tunable: name.clone(),
                    });
                };
                frame.scalars.insert(name, SVal::constant(v));
            }
            Stmt::MakeTensor {
                name,
                rows,
                cols,
                dtype,
            } => {
                let r = self.eval(frame, rows)?.as_const().ok_or_else(|| {
                    CompileError::Scalar("tensor extents must be loop-invariant".into())
                })?;
                let c = self.eval(frame, cols)?.as_const().ok_or_else(|| {
                    CompileError::Scalar("tensor extents must be loop-invariant".into())
                })?;
                if r <= 0 || c <= 0 {
                    return Err(CompileError::Scalar(format!("degenerate tensor {r}x{c}")));
                }
                let id = self.add_tensor(
                    [frame.inst.instance.as_str(), ".", name].concat(),
                    (r as usize, c as usize),
                    *dtype,
                    MemLevel::None,
                    None,
                    Privilege::ReadWrite,
                );
                // Block-local tensors may fall back to a shared-memory
                // home when copy elimination cannot identify them with
                // one existing allocation (fused kernels re-tile a
                // producer phase's result for the consumer phase).
                self.prog.tensors[id].promotable = true;
                frame.tensors.insert(name, id);
            }
            Stmt::PartitionBlocks {
                name,
                tensor,
                tile_rows,
                tile_cols,
            } => {
                let t = self.resolve_tensor(frame, tensor)?;
                let decl = &self.prog.tensors[t];
                let (rows, cols) = (decl.rows, decl.cols);
                let tr = self.eval(frame, tile_rows)?.as_const().unwrap_or(0);
                let tc = self.eval(frame, tile_cols)?.as_const().unwrap_or(0);
                if tr <= 0 || tc <= 0 {
                    return Err(CompileError::Partition(format!("bad tile {tr}x{tc}")));
                }
                let (tr, tc) = (tr as usize, tc as usize);
                if rows % tr != 0 || cols % tc != 0 {
                    return Err(CompileError::Partition(format!(
                        "tile {tr}x{tc} does not divide {rows}x{cols} (tensor {})",
                        self.prog.tensors[t].name
                    )));
                }
                let kind = PartKind::Blocks {
                    tile_rows: tr,
                    tile_cols: tc,
                    grid_rows: rows / tr,
                    grid_cols: cols / tc,
                };
                let pid = self.prog.add_part(name.clone(), t, kind);
                frame.parts.insert(name, pid);
            }
            Stmt::PartitionMma {
                name,
                tensor,
                level,
                operand,
            } => {
                let t = self.resolve_tensor(frame, tensor)?;
                let decl = &self.prog.tensors[t];
                let (rows, cols) = (decl.rows, decl.cols);
                // Validate against the architected WGMMA partition rules;
                // the IR records piece shapes, not per-lane gather tables.
                check_mma_shape(&[rows, cols], MmaInstr::wgmma_64x256x16(), *level, *operand)
                    .map_err(|e| CompileError::Partition(e.to_string()))?;
                let (pieces, proc) = match level {
                    MmaLevel::Warp => (4, ProcLevel::Warp),
                    MmaLevel::Thread => (32, ProcLevel::Thread),
                };
                // B is replicated; A and C split into 16-row warp groups,
                // then into the per-lane fragments of Fig. 4.
                let (piece_rows, piece_cols) = match (operand, level) {
                    (MmaOperand::B, _) => (rows, cols),
                    (_, MmaLevel::Warp) => (rows / 4, cols),
                    (_, MmaLevel::Thread) => (2, cols / 4),
                };
                let kind = PartKind::Mma {
                    pieces,
                    piece_rows,
                    piece_cols,
                    replicated: *operand == MmaOperand::B,
                    level: proc,
                };
                let pid = self.prog.add_part(name.clone(), t, kind);
                frame.parts.insert(name, pid);
            }
            Stmt::Launch { task, args } => self.lower_launch(frame, task, args, block)?,
            Stmt::SRange { var, extent, body } => {
                let n = self
                    .eval(frame, extent)?
                    .as_const()
                    .ok_or_else(|| CompileError::Scalar("srange extent must be constant".into()))?;
                self.lower_loop(frame, var, n, None, block, |a, frame, inner| {
                    a.lower_stmts(frame, body, inner)
                })?;
            }
            Stmt::PRange {
                vars,
                extents,
                body,
            } => {
                if vars.len() != extents.len() || vars.is_empty() || vars.len() > 3 {
                    return Err(CompileError::Scalar("prange takes 1-3 variables".into()));
                }
                // Determine the processor level from the dispatched launch.
                let proc = self.prange_proc(frame.inst, body)?;
                self.lower_prange(frame, vars, extents, body, proc, block)?;
            }
            Stmt::CallExternal { f, args } => self.lower_call_external(frame, *f, args, block)?,
        }
        Ok(())
    }

    fn prange_proc(&self, inst: &TaskMapping, body: &[Stmt]) -> Result<ProcLevel, CompileError> {
        for s in body {
            if let Stmt::Launch { task, .. } = s {
                return Ok(self.dispatch(inst, task)?.0.proc);
            }
        }
        Err(CompileError::Unsupported(
            "prange body must contain a launch".into(),
        ))
    }

    /// One nested `pfor` per prange variable, outermost first, around the
    /// body.
    fn lower_prange(
        &mut self,
        frame: &mut Frame<'a>,
        vars: &'a [String],
        extents: &'a [SExpr],
        body: &'a [Stmt],
        proc: ProcLevel,
        block: &mut Block,
    ) -> Result<(), CompileError> {
        let (Some((var, vars)), Some((extent, extents))) =
            (vars.split_first(), extents.split_first())
        else {
            return self.lower_stmts(frame, body, block);
        };
        let n = self
            .eval(frame, extent)?
            .as_const()
            .ok_or_else(|| CompileError::Scalar("prange extent must be constant".into()))?;
        self.lower_loop(frame, var, n, Some(proc), block, |a, frame, inner| {
            a.lower_prange(frame, vars, extents, body, proc, inner)
        })
    }

    /// Lower a loop over `name` into `block`: open a scope, let `body`
    /// fill the loop's block, close the scope and emit the loop op,
    /// propagating event state. The enclosing scope waits here, so every
    /// opened scope is closed and the innermost one always exists.
    fn lower_loop(
        &mut self,
        frame: &mut Frame<'a>,
        name: &'a str,
        extent: i64,
        pfor: Option<ProcLevel>,
        block: &mut Block,
        body: impl FnOnce(&mut Self, &mut Frame<'a>, &mut Block) -> Result<(), CompileError>,
    ) -> Result<(), CompileError> {
        let var = self.prog.fresh_var();
        frame.scalars.insert(name, SVal::var(var));
        self.open_loops.push((var, pfor.is_some()));
        let opened = Scope::opening_at(self.prog.next_event);
        let enclosing = std::mem::replace(&mut self.scope, opened);
        let mut inner = Block::default();
        body(self, frame, &mut inner)?;
        let closed = std::mem::replace(&mut self.scope, enclosing);
        self.open_loops.pop();
        frame.scalars.remove(name);

        // Loop preconditions: the dependencies lifted out of the body,
        // themselves routed through the now-current scope.
        self.pending.extend(closed.lifted);
        let (result, pre) = self.begin_op();
        let (ty, kind) = match pfor {
            Some(proc) => (
                EventType::Array(vec![(extent as usize, proc)]),
                OpKind::Pfor {
                    var,
                    extent,
                    proc,
                    body: inner,
                },
            ),
            None => (
                EventType::Unit,
                OpKind::For {
                    var,
                    extent,
                    body: inner,
                },
            ),
        };
        block.ops.push(Op {
            result,
            ty,
            pre,
            kind,
        });
        // Tensors written in the loop now depend on the whole loop, as do
        // later writers of tensors it only read; the accesses become the
        // enclosing scope's.
        let whole_loop = Dep {
            event: result,
            all: pfor.is_some(),
        };
        for (t, flags) in closed.access.into_iter().enumerate() {
            if flags & WRITE != 0 {
                self.register_write(t, whole_loop);
            } else if flags & READ != 0 {
                self.register_read(t, whole_loop);
            }
        }
        Ok(())
    }

    /// The instance (and its variant) `inst` dispatches launches of `task`
    /// to.
    fn dispatch(
        &self,
        inst: &TaskMapping,
        task: &str,
    ) -> Result<(&'a TaskMapping, &'a TaskVariant), CompileError> {
        for c in &inst.calls {
            let cand = self.map.instance(c)?;
            let v = self.reg.variant(&cand.variant)?;
            if v.task == task {
                return Ok((cand, v));
            }
        }
        Err(CompileError::NoDispatch {
            from: inst.instance.clone(),
            task: task.to_string(),
        })
    }

    fn lower_launch(
        &mut self,
        frame: &mut Frame<'a>,
        task: &str,
        args: &[ArgExpr],
        block: &mut Block,
    ) -> Result<(), CompileError> {
        let (callee, callee_var) = self.dispatch(frame.inst, task)?;
        if callee_var.params.len() != args.len() {
            return Err(CompileError::ArityMismatch {
                task: task.to_string(),
                expected: callee_var.params.len(),
                actual: args.len(),
            });
        }

        // Resolve arguments and check privileges against the caller's.
        let mut resolved = Vec::with_capacity(args.len());
        for (arg, p) in args.iter().zip(&callee_var.params) {
            let r = self.resolve_arg(frame, arg)?;
            let caller_priv = self.tensors[r.tensor].privilege;
            if !caller_priv.covers(p.privilege) {
                return Err(CompileError::PrivilegeViolation {
                    variant: frame.variant.name.clone(),
                    param: p.name.clone(),
                    detail: format!(
                        "caller holds {caller_priv} but launch of `{task}` requires {}",
                        p.privilege
                    ),
                });
            }
            resolved.push(r);
        }

        // Copy-in/copy-out discipline (§4.2.1 steps 1-4).
        let mut callee_frame = Frame::new(callee, callee_var);
        let mut copy_outs = Vec::new();
        for (i, (outer, p)) in resolved.into_iter().zip(&callee_var.params).enumerate() {
            let fresh = self.add_tensor(
                [callee.instance.as_str(), ".", p.name.as_str()].concat(),
                self.ref_shape(&outer),
                p.dtype,
                callee.mems.get(i).copied().unwrap_or(MemLevel::None),
                None,
                p.privilege,
            );
            callee_frame.tensors.insert(&p.name, fresh);
            let (copy_in, copy_out) = match p.privilege {
                Privilege::Read => (Some(outer), None),
                Privilege::Write => (None, Some(outer)),
                Privilege::ReadWrite => (Some(outer.clone()), Some(outer)),
            };
            if let Some(src) = copy_in {
                self.emit_copy(block, src, TensorRef::whole(fresh));
            }
            copy_outs.extend(copy_out.map(|dst| (fresh, dst)));
        }

        self.lower_stmts(&mut callee_frame, &callee_var.body, block)?;

        for (fresh, dst) in copy_outs {
            self.check_parallel_write(&frame.variant.name, &dst)?;
            self.emit_copy(block, TensorRef::whole(fresh), dst);
        }
        Ok(())
    }

    fn lower_call_external(
        &mut self,
        frame: &Frame<'a>,
        f: LeafFn,
        args: &[ArgExpr],
        block: &mut Block,
    ) -> Result<(), CompileError> {
        let refs: Vec<TensorRef> = args
            .iter()
            .map(|a| self.resolve_arg(frame, a))
            .collect::<Result<_, _>>()?;
        // The destination is always the last argument; the rest are read.
        let Some((dst, srcs)) = refs.split_last() else {
            return Err(CompileError::Unsupported(
                "call-external with no arguments".into(),
            ));
        };
        if refs.len() != f.arity() {
            return Err(CompileError::ArityMismatch {
                task: format!("{f:?}"),
                expected: f.arity(),
                actual: refs.len(),
            });
        }

        // Privilege enforcement: the leaf may only write parameters its
        // task declared writable, and only read readable ones.
        let violation = |t: TensorId, detail: &str| CompileError::PrivilegeViolation {
            variant: frame.variant.name.clone(),
            param: self.prog.tensors[t].name.clone(),
            detail: detail.into(),
        };
        if !self.tensors[dst.tensor].privilege.can_write() {
            return Err(violation(
                dst.tensor,
                "leaf writes a tensor without write privilege",
            ));
        }
        for s in srcs {
            if !self.tensors[s.tensor].privilege.can_read() {
                return Err(violation(
                    s.tensor,
                    "leaf reads a tensor without read privilege",
                ));
            }
        }
        self.check_parallel_write(&frame.variant.name, dst)?;

        for s in srcs {
            self.after_write(s.tensor);
        }
        self.after_accesses(dst.tensor);
        if f.dst_reads() {
            self.after_write(dst.tensor);
        }
        let (result, pre) = self.begin_op();
        let ev = Dep::unit(result);
        for s in srcs {
            self.register_read(s.tensor, ev);
        }
        self.register_write(dst.tensor, ev);
        block.ops.push(Op {
            result,
            ty: EventType::Unit,
            pre,
            kind: OpKind::Call { f, args: refs },
        });
        Ok(())
    }
}
