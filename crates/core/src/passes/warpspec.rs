//! Warp specialization, pipelining, and code generation
//! (paper §4.2.5 and §4.2.6).
//!
//! This pass consumes the optimized IR and produces a
//! [`cypress_sim::Kernel`]. It performs, in one walk:
//!
//! - **grid extraction**: the outer BLOCK-level `pfor` nest becomes the
//!   kernel grid, its variables become block indices;
//! - **warp specialization**: the dependence graph is partitioned — every
//!   global→shared copy goes to the DMA warp, everything else to the
//!   compute warpgroups (the partition of Fig. 12); dependence edges that
//!   cross the partition become mbarrier pairs;
//! - **pipelining**: loops containing DMA loads are software-pipelined to
//!   the mapping's depth: pipelined buffers gain a stage dimension indexed
//!   `k % PIPE`, and backwards (write-after-read) dependencies become the
//!   consumer barriers the DMA warp waits on from iteration `PIPE` onward
//!   (the dashed edges of Fig. 12, the `PIPE` logic of Fig. 1b);
//! - **event lowering** (§4.2.6): TMA completion events become mbarrier
//!   arrivals, Tensor Core events become `wgmma` group waits, cross-warp
//!   events become shared-memory barriers, and point-wise event-array
//!   dependencies dissolve into program order;
//! - **fragment re-aggregation**: warp- and thread-level MMA partition
//!   path entries are dropped, so the 128 per-thread pieces of Fig. 4
//!   become one warpgroup-granular instruction (the simulator computes on
//!   whole warpgroup fragments, not per thread: `cypress_sim::SimtOp`).

#![deny(clippy::too_many_lines)]

use crate::error::CompileError;
use crate::front::ast::LeafFn;
use crate::front::machine::{MemLevel, ProcLevel};
use crate::ir::{Block, EventType, IdxExpr, IrProgram, Op, OpKind, PartKind, TensorId, VarId};
use cypress_sim::{BinOp, Cond, Expr, Instr, Kernel, KernelBuilder, RedOp, RoleKind, Slice, UnOp};
use std::collections::{HashMap, HashSet};

/// Scheduling options extracted from the mapping specification.
#[derive(Debug, Clone, Copy)]
pub struct SchedOptions {
    /// Split a DMA warp from the compute warpgroups.
    pub warpspecialize: bool,
    /// Software-pipeline depth for loops containing DMA loads.
    pub pipeline: usize,
}

/// Lower the optimized IR to a device kernel.
///
/// # Errors
///
/// Returns [`CompileError::Unsupported`] for program shapes outside the
/// prototype's lowering (the paper's compiler has analogous limits), and
/// propagates backend validation failures.
pub fn lower(prog: &IrProgram, opts: SchedOptions) -> Result<Kernel, CompileError> {
    Scheduler::new(prog, opts)?.build()
}

struct Scheduler<'a> {
    prog: &'a IrProgram,
    opts: SchedOptions,
    /// Block-level pfor vars -> grid dimension (0 = x, 1 = y, 2 = z).
    block_vars: HashMap<VarId, usize>,
    /// CTA-level body.
    body: &'a Block,
    n_wgs: usize,
    builder: KernelBuilder,
    param_of: HashMap<TensorId, usize>,
    region_of: HashMap<TensorId, usize>,
    frag_of: HashMap<TensorId, usize>,
    /// Pipelined tensors and their stage count.
    stages_of: HashMap<TensorId, usize>,
    /// Producer/consumer mbarriers per DMA-loaded smem tensor.
    prod_bar: HashMap<TensorId, usize>,
    cons_bar: HashMap<TensorId, usize>,
    copyout_bar: Option<usize>,
    /// IR loop var -> sim loop var.
    var_map: HashMap<VarId, usize>,
    /// The innermost pipelined loop's variable (stage index source).
    stage_var: Option<VarId>,
    /// Enclosing `For` nest at the current emission point, outermost
    /// first, with trip counts. Pipeline stage indices and consumer-wait
    /// guards linearize over this nest, so a main loop that is re-entered
    /// by an outer loop (fused kernels walk chunk loops around their
    /// reduction loops) keeps the producer/consumer skew bounded by the
    /// pipeline depth globally, not merely per entry.
    loop_stack: Vec<(VarId, i64)>,
}

/// Classification of one IR op for the warp-specialization partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    DmaLoad,
    DmaStore,
    Compute,
    Loop,
}

fn classify(prog: &IrProgram, op: &Op) -> Class {
    match &op.kind {
        OpKind::Copy { src, dst } => {
            let sm = prog.tensors[src.tensor].mem;
            let dm = prog.tensors[dst.tensor].mem;
            match (sm, dm) {
                (MemLevel::Global, MemLevel::Shared) => Class::DmaLoad,
                (MemLevel::Shared, MemLevel::Global) => Class::DmaStore,
                _ => Class::Compute,
            }
        }
        OpKind::Call { .. } => Class::Compute,
        OpKind::For { .. } | OpKind::Pfor { .. } => Class::Loop,
    }
}

impl<'a> Scheduler<'a> {
    /// Grid extraction: unwrap the outer BLOCK `pfor` nest into the
    /// kernel grid and count the warpgroups of the CTA-level body.
    fn new(prog: &'a IrProgram, opts: SchedOptions) -> Result<Self, CompileError> {
        let mut block_vars = HashMap::new();
        let mut grid = [1usize; 3];
        let mut cur: &Block = &prog.body;
        let mut dim = 0;
        loop {
            if cur.ops.len() == 1 {
                if let OpKind::Pfor {
                    var,
                    extent,
                    proc: ProcLevel::Block,
                    body,
                } = &cur.ops[0].kind
                {
                    if dim >= 3 {
                        return Err(CompileError::Unsupported(
                            "more than 3 grid dimensions".into(),
                        ));
                    }
                    block_vars.insert(*var, dim);
                    grid[dim] = *extent as usize;
                    dim += 1;
                    cur = body;
                    continue;
                }
            }
            break;
        }
        if dim == 0 {
            return Err(CompileError::Unsupported(
                "entrypoint must launch a parallel grid of BLOCK-level tasks".into(),
            ));
        }
        // Number of warpgroups: widest WARPGROUP event dimension.
        let mut n_wgs = 1usize;
        fn scan_wgs(b: &Block, n: &mut usize) {
            for op in &b.ops {
                if let EventType::Array(dims) = &op.ty {
                    for (e, p) in dims {
                        if *p == ProcLevel::Warpgroup {
                            *n = (*n).max(*e);
                        }
                    }
                }
                match &op.kind {
                    OpKind::For { body, .. } | OpKind::Pfor { body, .. } => scan_wgs(body, n),
                    _ => {}
                }
            }
        }
        scan_wgs(cur, &mut n_wgs);

        Ok(Scheduler {
            prog,
            opts,
            block_vars,
            body: cur,
            n_wgs,
            builder: KernelBuilder::new(prog.name.clone(), grid),
            param_of: HashMap::new(),
            region_of: HashMap::new(),
            frag_of: HashMap::new(),
            stages_of: HashMap::new(),
            prod_bar: HashMap::new(),
            cons_bar: HashMap::new(),
            copyout_bar: None,
            var_map: HashMap::new(),
            stage_var: None,
            loop_stack: Vec::new(),
        })
    }

    fn build(mut self) -> Result<Kernel, CompileError> {
        // DMA-loaded tensors, per loop or prologue: they size the stages
        // and own the producer/consumer barriers.
        let mut loaded_in_loop = HashSet::new();
        let mut loaded_outside = HashSet::new();
        scan_loads(
            self.prog,
            self.body,
            false,
            &mut loaded_in_loop,
            &mut loaded_outside,
        );
        self.declare_memory(&loaded_in_loop)?;
        self.declare_barriers(&loaded_in_loop, &loaded_outside)?;

        // Pre-allocate sim loop vars for every IR For var.
        let mut fors = Vec::new();
        scan_fors(self.body, &mut fors);
        for v in fors {
            let sv = self.builder.fresh_var();
            self.var_map.insert(v, sv);
        }

        // Emit roles. Bulk-synchronous: no DMA role, warpgroup 0 issues
        // the data movement inline.
        let warpspec = self.opts.warpspecialize;
        if warpspec {
            let dma = self.emit_dma(self.body)?;
            self.builder.role(RoleKind::Dma, dma);
        }
        for wg in 0..self.n_wgs {
            let body = self.emit_compute(self.body, wg, warpspec)?;
            self.builder.role(RoleKind::Compute(wg), body);
        }
        Ok(self.builder.build())
    }

    /// Declare parameters in declaration order, then shared regions and
    /// register fragments for every tensor that survives in the body.
    fn declare_memory(&mut self, loaded_in_loop: &HashSet<TensorId>) -> Result<(), CompileError> {
        let mut params: Vec<&crate::ir::TensorDecl> = self
            .prog
            .tensors
            .iter()
            .filter(|t| t.param.is_some())
            .collect();
        params.sort_by_key(|t| t.param);
        for t in params {
            let idx = self.builder.param(t.name.clone(), t.rows, t.cols, t.dtype);
            self.param_of.insert(t.id, idx);
        }

        let mut used = HashSet::new();
        collect_touched(self.body, &mut used);
        let mut used: Vec<TensorId> = used.into_iter().collect();
        used.sort_unstable();
        let pipe = self.opts.pipeline.max(1);
        for &t in &used {
            let d = &self.prog.tensors[t];
            match d.mem {
                MemLevel::Shared => {
                    let stages = if loaded_in_loop.contains(&t) { pipe } else { 1 };
                    let r = self
                        .builder
                        .smem(d.name.clone(), d.rows, d.cols, d.dtype, stages);
                    self.region_of.insert(t, r);
                    self.stages_of.insert(t, stages);
                }
                MemLevel::Register => {
                    let f = self.builder.frag(d.name.clone(), d.rows, d.cols);
                    self.frag_of.insert(t, f);
                }
                MemLevel::Global => {
                    if !self.param_of.contains_key(&t) {
                        return Err(CompileError::Unsupported(format!(
                            "non-parameter global tensor `{}` survives lowering",
                            d.name
                        )));
                    }
                }
                MemLevel::None => {
                    return Err(CompileError::NoneMemoryMaterialized {
                        tensor: d.name.clone(),
                    })
                }
            }
        }
        Ok(())
    }

    /// Barriers: one prod/cons pair per DMA-loaded smem tensor, plus a
    /// copyout barrier if there is a DMA store fed by compute results.
    ///
    /// Every DMA store is terminal: compute arrives at the copyout barrier
    /// after all of its work, and the DMA warp waits on it once before
    /// its first store. A DMA load that follows a DMA store in program
    /// order (a round trip through global memory) has no handshake and is
    /// [`CompileError::Unsupported`] with or without warp specialization.
    fn declare_barriers(
        &mut self,
        loaded_in_loop: &HashSet<TensorId>,
        loaded_outside: &HashSet<TensorId>,
    ) -> Result<(), CompileError> {
        let mut class_stream = Vec::new();
        scan_classes(self.prog, self.body, &mut class_stream);
        let last_load = class_stream.iter().rposition(|c| *c == Class::DmaLoad);
        let first_store = class_stream.iter().position(|c| *c == Class::DmaStore);
        if matches!((first_store, last_load), (Some(s), Some(l)) if s < l) {
            return Err(CompileError::Unsupported(
                "a DMA load follows a DMA store (global-memory round trip)".into(),
            ));
        }
        let mut all_loaded: Vec<TensorId> = loaded_in_loop.union(loaded_outside).copied().collect();
        all_loaded.sort_unstable();
        for t in all_loaded {
            let p = self.builder.mbar(1);
            self.prod_bar.insert(t, p);
        }
        let mut in_loop_sorted: Vec<TensorId> = loaded_in_loop.iter().copied().collect();
        in_loop_sorted.sort_unstable();
        for t in in_loop_sorted {
            let c = self.builder.mbar(self.n_wgs);
            self.cons_bar.insert(t, c);
        }
        if first_store.is_some() {
            self.copyout_bar = Some(self.builder.mbar(self.n_wgs));
        }
        Ok(())
    }

    // ---- DMA role ---------------------------------------------------------

    /// The DMA role's instructions for `block`: each load arrives at its
    /// tensor's producer barrier, and the stores wait once on the copyout
    /// barrier before the first of them and drain after the last
    /// ([`Scheduler::declare_barriers`] guarantees no load follows).
    fn emit_dma(&mut self, block: &Block) -> Result<Vec<Instr>, CompileError> {
        let mut out = Vec::new();
        let mut pending_store = false;
        for op in &block.ops {
            match (classify(self.prog, op), &op.kind) {
                (Class::DmaLoad, OpKind::Copy { src, dst }) => {
                    out.push(Instr::tma_load(
                        self.slice(src, 0)?,
                        self.slice(dst, 0)?,
                        self.prod_bar[&dst.tensor],
                    ));
                }
                (Class::DmaStore, OpKind::Copy { src, dst }) => {
                    if let Some(co) = self.copyout_bar {
                        if !pending_store {
                            out.push(Instr::mbar_wait(co));
                            pending_store = true;
                        }
                    }
                    out.push(Instr::tma_store(self.slice(src, 0)?, self.slice(dst, 0)?));
                }
                (Class::Loop, OpKind::For { var, extent, body }) => {
                    out.extend(self.dma_loop(*var, *extent, body)?);
                }
                (Class::Loop, _) => return Err(nested_pfor()),
                _ => {}
            }
        }
        if pending_store {
            out.push(Instr::TmaStoreWait);
        }
        Ok(out)
    }

    /// A `For` of the DMA role: its body's DMA work, guarded by the
    /// pipeline's backwards (write-after-read) dependencies; `None` if
    /// the body moves no data.
    fn dma_loop(
        &mut self,
        var: VarId,
        extent: i64,
        body: &Block,
    ) -> Result<Option<Instr>, CompileError> {
        // Loads anywhere below pick the innermost loop as the pipeline
        // stage index; the WAR guard belongs to the loop whose body
        // issues the loads directly.
        let direct = direct_loads(self.prog, body);
        let prev_stage = self.stage_var;
        if has_loads(self.prog, body) {
            self.stage_var = Some(var);
        }
        self.loop_stack.push((var, extent));
        let inner = self.emit_dma(body)?;
        // From the `stages`-th global iteration of the nest onward, wait
        // for the consumer to free each buffer. The ordinal (not the
        // bare loop variable) keeps the skew bounded when an outer loop
        // re-enters this one.
        let guard_ord = self.stage_ordinal(var);
        self.loop_stack.pop();
        self.stage_var = prev_stage;
        if inner.is_empty() {
            return Ok(None);
        }
        let waits: Vec<Instr> = direct
            .iter()
            .filter_map(|t| self.cons_bar.get(t))
            .map(|c| Instr::mbar_wait(*c))
            .collect();
        let mut guarded = Vec::new();
        if !waits.is_empty() {
            let ord = guard_ord.expect("the loop was on the stack during emission");
            let pipe = self.opts.pipeline.max(1) as i64;
            guarded.push(Instr::when(Cond::Ge(ord, Expr::lit(pipe)), waits));
        }
        guarded.extend(inner);
        Ok(Some(Instr::repeat(self.var_map[&var], extent, guarded)))
    }

    // ---- compute roles ----------------------------------------------------

    fn emit_compute(
        &mut self,
        block: &Block,
        wg: usize,
        warpspec: bool,
    ) -> Result<Vec<Instr>, CompileError> {
        let mut st = ComputeState::default();
        // Prologue loads (outside any loop) must also be awaited.
        for op in &block.ops {
            if classify(self.prog, op) == Class::DmaLoad {
                if let OpKind::Copy { dst, .. } = &op.kind {
                    st.dma_loaded.insert(dst.tensor);
                }
            }
        }
        let mut out = self.emit_compute_block(block, wg, warpspec, &mut st)?;
        // Final arrivals: release the copyout barrier after all work.
        if let Some(co) = self.copyout_bar {
            flush_wgmma(&mut out, &mut st, 0);
            out.push(Instr::mbar_arrive(co));
        }
        Ok(out)
    }

    fn emit_compute_block(
        &mut self,
        block: &Block,
        wg: usize,
        warpspec: bool,
        st: &mut ComputeState,
    ) -> Result<Vec<Instr>, CompileError> {
        let mut out = Vec::new();
        // Bulk-synchronous mode: warpgroup 0 moves the data inline.
        let moves_data = !warpspec && wg == 0;
        for op in &block.ops {
            match (classify(self.prog, op), &op.kind) {
                (Class::DmaLoad, OpKind::Copy { src, dst }) if moves_data => {
                    out.push(Instr::tma_load(
                        self.slice(src, wg)?,
                        self.slice(dst, wg)?,
                        self.prod_bar[&dst.tensor],
                    ));
                }
                (Class::DmaStore, OpKind::Copy { src, dst }) if moves_data => {
                    flush_wgmma(&mut out, st, 0);
                    out.push(Instr::tma_store(self.slice(src, wg)?, self.slice(dst, wg)?));
                    out.push(Instr::TmaStoreWait);
                }
                (Class::Compute, _) => {
                    // Skip ops that belong to other warpgroups.
                    if !self.op_on_wg(op, wg) {
                        continue;
                    }
                    self.compute_op(op, wg, &mut out, st)?;
                }
                (Class::Loop, OpKind::For { var, extent, body }) => {
                    let nest = (*var, *extent, body);
                    let inner = self.compute_loop(nest, wg, warpspec, &mut out, st)?;
                    out.extend(inner);
                }
                (Class::Loop, _) => return Err(nested_pfor()),
                _ => {}
            }
        }
        Ok(out)
    }

    /// One compute op of this warpgroup: producer waits, Tensor Core
    /// hazards, then the op itself.
    fn compute_op(
        &self,
        op: &Op,
        wg: usize,
        out: &mut Vec<Instr>,
        st: &mut ComputeState,
    ) -> Result<(), CompileError> {
        let (reads, writes) = op_data(op);
        // Producer waits: first touch of a DMA-loaded buffer.
        for t in reads.iter().chain(writes.iter()) {
            self.wait_prod(out, st, *t);
        }
        // Tensor Core hazards (a wgmma issues asynchronously; a
        // subsequent conflicting op must group-wait first).
        let is_mma = matches!(
            &op.kind,
            OpKind::Call {
                f: LeafFn::MmaAccum | LeafFn::MmaAccumBT,
                ..
            }
        );
        if !is_mma {
            if let Some(i) = st.last_conflict(&writes, &reads) {
                let pending = st.outstanding.len() - 1 - i;
                flush_wgmma(out, st, pending);
            }
        }
        self.emit_op(op, wg, out, st)
    }

    /// A `For` of a compute role. A loop is a main (pipelined) loop when
    /// its body issues loads directly; loops that only contain deeper
    /// load loops must not duplicate the per-iteration consumer handshake.
    fn compute_loop(
        &mut self,
        (var, extent, body): (VarId, i64, &Block),
        wg: usize,
        warpspec: bool,
        out: &mut Vec<Instr>,
        st: &mut ComputeState,
    ) -> Result<Option<Instr>, CompileError> {
        let direct = direct_loads(self.prog, body);
        let is_main = !direct.is_empty();
        let prev_stage = self.stage_var;
        if has_loads(self.prog, body) {
            self.stage_var = Some(var);
        }
        let mut inner_st = ComputeState::default();
        if is_main {
            // Buffers loaded this iteration need prod waits.
            inner_st.dma_loaded = direct.iter().copied().collect();
        } else {
            // Hoist producer waits out of the inner loop — a wait inside
            // would consume one phase per inner iteration.
            let mut touched = HashSet::new();
            collect_touched(body, &mut touched);
            let mut need: Vec<TensorId> = touched
                .iter()
                .filter(|t| st.dma_loaded.contains(t) && !st.waited.contains(*t))
                .copied()
                .collect();
            need.sort_unstable();
            for t in need {
                self.wait_prod(out, st, t);
            }
            inner_st.dma_loaded = st.dma_loaded.clone();
            inner_st.waited = st.waited.clone();
            inner_st.outstanding = std::mem::take(&mut st.outstanding);
        }
        self.loop_stack.push((var, extent));
        let mut inner = self.emit_compute_block(body, wg, warpspec, &mut inner_st)?;
        self.loop_stack.pop();
        if is_main {
            // End of iteration: retire Tensor Core work that reads
            // pipelined buffers, then release them to the DMA warp.
            if let Some(i) = inner_st.last_conflict(&direct, &[]) {
                let pending = inner_st.outstanding.len() - 1 - i;
                flush_wgmma(&mut inner, &mut inner_st, pending);
            }
            let freed = direct.iter().filter_map(|t| self.cons_bar.get(t));
            inner.extend(freed.map(|c| Instr::mbar_arrive(*c)));
        } else {
            // Propagate hazards out of the inner loop.
            st.outstanding = std::mem::take(&mut inner_st.outstanding);
            st.waited = inner_st.waited;
        }
        self.stage_var = prev_stage;
        Ok((!inner.is_empty()).then(|| Instr::repeat(self.var_map[&var], extent, inner)))
    }

    /// Does this op execute on warpgroup `wg`? Ops without a warpgroup
    /// event dimension run on warpgroup 0.
    fn op_on_wg(&self, op: &Op, wg: usize) -> bool {
        match &op.ty {
            EventType::Array(dims) => {
                for (e, p) in dims {
                    if *p == ProcLevel::Warpgroup {
                        return wg < *e;
                    }
                }
                wg == 0
            }
            EventType::Unit => wg == 0,
        }
    }

    fn wait_prod(&self, out: &mut Vec<Instr>, st: &mut ComputeState, t: TensorId) {
        if st.dma_loaded.contains(&t) && !st.waited.contains(&t) {
            if let Some(p) = self.prod_bar.get(&t) {
                out.push(Instr::mbar_wait(*p));
                st.waited.insert(t);
            }
        }
    }

    fn emit_op(
        &self,
        op: &Op,
        wg: usize,
        out: &mut Vec<Instr>,
        st: &mut ComputeState,
    ) -> Result<(), CompileError> {
        use LeafFn as L;
        let (f, args) = match &op.kind {
            OpKind::Copy { src, dst } => {
                out.push(Instr::copy(self.slice(src, wg)?, self.slice(dst, wg)?));
                return Ok(());
            }
            OpKind::Call { f, args } => (f, args),
            _ => unreachable!("loops handled by the caller"),
        };
        let sl = |i: usize| self.slice(&args[i], wg);
        out.push(match f {
            L::MmaAccum | L::MmaAccumBT => {
                let mma = if matches!(f, L::MmaAccumBT) {
                    Instr::wgmma_bt
                } else {
                    Instr::wgmma
                };
                let instr = mma(sl(0)?, sl(1)?, sl(2)?);
                st.outstanding.push(WgmmaHazard {
                    reads: vec![args[0].tensor, args[1].tensor],
                    writes: vec![args[2].tensor],
                });
                instr
            }
            L::Fill(v) => Instr::fill(sl(0)?, *v),
            L::CopyExt => Instr::copy(sl(0)?, sl(1)?),
            L::Exp => Instr::map(UnOp::Exp, sl(0)?, sl(1)?),
            L::Scale(c) => Instr::map(UnOp::Scale(*c), sl(0)?, sl(1)?),
            L::AddExt => Instr::zip(BinOp::Add, sl(0)?, sl(1)?, sl(2)?),
            L::MaxExt => Instr::zip(BinOp::Max, sl(0)?, sl(1)?, sl(2)?),
            L::RowMaxAccum => Instr::row_reduce(RedOp::Max, sl(0)?, sl(1)?),
            L::RowSumAccum => Instr::row_reduce(RedOp::Sum, sl(0)?, sl(1)?),
            L::SubRow => Instr::row_zip(BinOp::Sub, sl(0)?, sl(1)?, sl(2)?),
            L::MulRow => Instr::row_zip(BinOp::Mul, sl(0)?, sl(1)?, sl(2)?),
            L::DivRow => Instr::row_zip(BinOp::Div, sl(0)?, sl(1)?, sl(2)?),
        });
        Ok(())
    }

    /// The global iteration ordinal of the loop nest down to (and
    /// including) the loop of `upto`: outer vars weighted by inner trip
    /// counts. For a single non-nested main loop this is just the loop
    /// variable — the classic pipeline index — and nesting generalizes
    /// it so stage rotation and consumer-wait guards survive loop
    /// re-entry.
    fn stage_ordinal(&self, upto: VarId) -> Option<Expr> {
        let pos = self.loop_stack.iter().rposition(|(v, _)| *v == upto)?;
        let mut expr: Option<Expr> = None;
        for (v, e) in &self.loop_stack[..=pos] {
            let sv = self.var_map[v];
            expr = Some(match expr {
                None => Expr::var(sv),
                Some(x) => x * *e + Expr::var(sv),
            });
        }
        expr
    }

    // ---- slices -----------------------------------------------------------

    /// Translate a tensor reference into a simulator slice, truncating the
    /// path at the first warp/thread-level MMA entry (fragment
    /// re-aggregation) and accumulating affine offsets.
    fn slice(&self, r: &crate::ir::TensorRef, wg: usize) -> Result<Slice, CompileError> {
        let decl = &self.prog.tensors[r.tensor];
        let mut row0 = Expr::lit(0);
        let mut col0 = Expr::lit(0);
        let mut rows = decl.rows;
        let mut cols = decl.cols;
        for (pid, idx) in &r.path {
            let part = &self.prog.parts[*pid];
            match &part.kind {
                PartKind::Blocks {
                    tile_rows,
                    tile_cols,
                    ..
                } => {
                    if idx.len() != 2 {
                        return Err(CompileError::Unsupported(
                            "blocks partitions are indexed with 2 coordinates".into(),
                        ));
                    }
                    let ri = self.tr_idx(&idx[0], wg)?;
                    let ci = self.tr_idx(&idx[1], wg)?;
                    row0 = row0 + ri * (*tile_rows as i64);
                    col0 = col0 + ci * (*tile_cols as i64);
                    rows = *tile_rows;
                    cols = *tile_cols;
                }
                PartKind::Mma {
                    level: ProcLevel::Warp | ProcLevel::Thread,
                    ..
                } => {
                    // Fragment re-aggregation: the collective warpgroup
                    // operation covers all warp/thread pieces.
                    break;
                }
                PartKind::Mma { .. } => {
                    return Err(CompileError::Unsupported(
                        "mma partitions above the warp level".into(),
                    ));
                }
            }
        }
        let mut s = if let Some(p) = self.param_of.get(&r.tensor) {
            Slice::param(*p)
        } else if let Some(reg) = self.region_of.get(&r.tensor) {
            let mut s = Slice::smem(*reg);
            if self.stages_of.get(&r.tensor).copied().unwrap_or(1) > 1 {
                let ord = self
                    .stage_var
                    .and_then(|v| self.stage_ordinal(v))
                    .ok_or_else(|| {
                        CompileError::Unsupported("pipelined buffer used outside its loop".into())
                    })?;
                let pipe = self.opts.pipeline.max(1) as i64;
                s = s.stage(ord % pipe);
            }
            s
        } else if let Some(f) = self.frag_of.get(&r.tensor) {
            Slice::frag(*f)
        } else {
            return Err(CompileError::Unsupported(format!(
                "tensor `{}` has no physical home",
                decl.name
            )));
        };
        s = s.at(row0, col0).extent(rows, cols);
        Ok(s)
    }

    fn tr_idx(&self, i: &IdxExpr, wg: usize) -> Result<Expr, CompileError> {
        let base: Expr = match i.var {
            None => return Ok(Expr::lit(i.offset)),
            Some(v) => {
                if let Some(dim) = self.block_vars.get(&v) {
                    match dim {
                        0 => Expr::block_x(),
                        1 => Expr::block_y(),
                        _ => Expr::block_z(),
                    }
                } else if let Some(level) = self.prog.proc_vars.get(&v) {
                    match level {
                        ProcLevel::Warpgroup => Expr::lit(wg as i64),
                        other => {
                            return Err(CompileError::Unsupported(format!(
                                "{other}-level index survives fragment re-aggregation"
                            )))
                        }
                    }
                } else if let Some(sv) = self.var_map.get(&v) {
                    Expr::var(*sv)
                } else {
                    return Err(CompileError::Unsupported(format!(
                        "unmapped loop variable i{v}"
                    )));
                }
            }
        };
        Ok(base * i.scale + i.offset)
    }
}

fn nested_pfor() -> CompileError {
    CompileError::Unsupported("nested non-BLOCK pfor survived vectorization".into())
}

/// DMA-loaded shared tensors, split by whether the load sits inside a
/// `For` (`il`: pipelined, multi-stage) or in the prologue (`ol`).
fn scan_loads(
    prog: &IrProgram,
    b: &Block,
    in_loop: bool,
    il: &mut HashSet<TensorId>,
    ol: &mut HashSet<TensorId>,
) {
    for op in &b.ops {
        match &op.kind {
            OpKind::Copy { dst, .. } if classify(prog, op) == Class::DmaLoad => {
                if in_loop {
                    il.insert(dst.tensor);
                } else {
                    ol.insert(dst.tensor);
                }
            }
            OpKind::For { body, .. } => scan_loads(prog, body, true, il, ol),
            OpKind::Pfor { body, .. } => scan_loads(prog, body, in_loop, il, ol),
            _ => {}
        }
    }
}

/// Does this subtree issue any DMA load?
fn has_loads(prog: &IrProgram, b: &Block) -> bool {
    b.ops.iter().any(|op| match &op.kind {
        OpKind::For { body, .. } | OpKind::Pfor { body, .. } => has_loads(prog, body),
        _ => classify(prog, op) == Class::DmaLoad,
    })
}

/// The partition classes of the body's copies and calls, in program order.
fn scan_classes(prog: &IrProgram, b: &Block, out: &mut Vec<Class>) {
    for op in &b.ops {
        match &op.kind {
            OpKind::For { body, .. } | OpKind::Pfor { body, .. } => scan_classes(prog, body, out),
            _ => out.push(classify(prog, op)),
        }
    }
}

/// Every IR `For` variable of the subtree, outermost first.
fn scan_fors(b: &Block, vars: &mut Vec<VarId>) {
    for op in &b.ops {
        match &op.kind {
            OpKind::For { var, body, .. } => {
                vars.push(*var);
                scan_fors(body, vars);
            }
            OpKind::Pfor { body, .. } => scan_fors(body, vars),
            _ => {}
        }
    }
}

/// Base tensors an op reads and writes.
fn op_data(op: &Op) -> (Vec<TensorId>, Vec<TensorId>) {
    match &op.kind {
        OpKind::Copy { src, dst } => (vec![src.tensor], vec![dst.tensor]),
        OpKind::Call { f, args } => {
            let dst = args.last().expect("call has destination").tensor;
            let mut reads: Vec<TensorId> =
                args[..args.len() - 1].iter().map(|r| r.tensor).collect();
            if f.dst_reads() {
                reads.push(dst);
            }
            (reads, vec![dst])
        }
        _ => (vec![], vec![]),
    }
}

/// Tensors DMA-loaded directly in this block's op list (not nested in a
/// deeper `For`), sorted: the set a loop's per-iteration pipeline
/// handshake covers.
fn direct_loads(prog: &IrProgram, b: &Block) -> Vec<TensorId> {
    let mut out: Vec<TensorId> = b
        .ops
        .iter()
        .filter_map(|op| match &op.kind {
            OpKind::Copy { dst, .. } if classify(prog, op) == Class::DmaLoad => Some(dst.tensor),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Tensor Core hazard: an outstanding `wgmma`'s read/write sets.
#[derive(Debug, Clone)]
struct WgmmaHazard {
    reads: Vec<TensorId>,
    writes: Vec<TensorId>,
}

#[derive(Debug, Default)]
struct ComputeState {
    outstanding: Vec<WgmmaHazard>,
    dma_loaded: HashSet<TensorId>,
    waited: HashSet<TensorId>,
}

impl ComputeState {
    /// Index of the most recent outstanding `wgmma` conflicting with an op
    /// that reads `reads` and writes `writes`.
    fn last_conflict(&self, writes: &[TensorId], reads: &[TensorId]) -> Option<usize> {
        for (i, h) in self.outstanding.iter().enumerate().rev() {
            let raw = reads.iter().any(|t| h.writes.contains(t));
            let war = writes
                .iter()
                .any(|t| h.reads.contains(t) || h.writes.contains(t));
            if raw || war {
                return Some(i);
            }
        }
        None
    }
}

/// Emit a `wgmma` group wait leaving at most `pending` outstanding.
fn flush_wgmma(out: &mut Vec<Instr>, st: &mut ComputeState, pending: usize) {
    if st.outstanding.len() > pending {
        out.push(Instr::WgmmaWait { pending });
        let keep_from = st.outstanding.len() - pending;
        st.outstanding = st.outstanding.split_off(keep_from);
    }
}

/// Base tensors referenced anywhere in a block subtree.
fn collect_touched(b: &Block, out: &mut HashSet<TensorId>) {
    for op in &b.ops {
        match &op.kind {
            OpKind::Copy { src, dst } => {
                out.insert(src.tensor);
                out.insert(dst.tensor);
            }
            OpKind::Call { args, .. } => {
                for a in args {
                    out.insert(a.tensor);
                }
            }
            OpKind::For { body, .. } | OpKind::Pfor { body, .. } => collect_touched(body, out),
        }
    }
}
