//! Copy elimination (paper §4.2.3, Fig. 10).
//!
//! The copy-in/copy-out discipline of dependence analysis introduces a
//! fresh allocation and a pair of copies at every launch site; this pass
//! removes the ones that imply no real data movement, leaving exactly the
//! copies that cross memory levels (which code generation turns into TMA
//! transfers and register↔shared staging). Six rewrite patterns run, in
//! this order each round:
//!
//! - **copy propagation** (the engine behind Fig. 10a spill elimination):
//!   `copy(a, X); copy(X, b)` forwards to `copy(a, b)`,
//! - **allocation forwarding** (Fig. 10a generalized): a fresh
//!   allocation whose only external partner is a single reference `r`
//!   — via copy-ins, copy-outs, or both — is replaced by `r` everywhere,
//!   provided the forwarding implies no memory-level change (`none`-mapped
//!   tensors, or equal memories),
//! - **piece identification**: a `none`-mapped parent tensor used only
//!   through structurally identical per-processor pieces is identified
//!   with the (register) allocation those pieces are copied to/from —
//!   this is how the block-level accumulator of Fig. 5 ends up existing
//!   only as per-warpgroup register fragments,
//! - **self-copy elimination** (Fig. 10d): `copy(t, t)` is erased,
//! - **duplicate elimination** (Fig. 10c): a repeated identical copy with
//!   no intervening write is erased,
//! - **dead-copy elimination**: copies into tensors never read again.
//!
//! A `none`-mapped tensor used only through whole-tensor copies needs no
//! pattern of its own: allocation forwarding (or piece identification)
//! makes that rewrite in the same round. Fig. 10b's loop-invariant
//! hoist is not implemented: the task trees already issue every
//! loop-invariant load (attention's Q tile) before the loop, so there is
//! nothing for it to move. Each of the six patterns is load-bearing —
//! skipping any one of them changes the emitted IR of the golden corpus.
//!
//! Per §4.2.3, event-eliminating (spill-style) patterns run before
//! dependence-preserving ones. Here the order changes only how many
//! rounds the fixpoint takes: on every case of the golden corpus the
//! reverse order emits the same program and removes the same copies.
//!
//! The fixpoint never copies the program. Patterns that ask "how is
//! tensor `t` used?" share one `Uses` summary, built in a single walk
//! and rebuilt only after a rewrite; canonical equality is decided in
//! place on the references themselves.

#![deny(clippy::too_many_lines)]

use crate::error::CompileError;
use crate::front::machine::MemLevel;
use crate::ir::{
    Block, EventId, EventRef, IdxExpr, IrProgram, Op, OpKind, PartId, PartKind, TensorId, TensorRef,
};
use std::collections::HashSet;

/// Fixpoint rounds before the pass gives up (safety bound; the golden
/// corpus needs at most 67).
const MAX_ROUNDS: usize = 512;

/// Statistics for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Copies removed.
    pub removed_copies: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
}

type Pattern<'p> = fn(&mut Pass<'p>) -> bool;

/// Run copy elimination to fixpoint.
///
/// # Errors
///
/// Returns [`CompileError::NoneMemoryMaterialized`] if a `none`-mapped
/// tensor survives (§3.3 requires the user to adjust the mapping), naming
/// the surviving tensor with the lowest id, and
/// [`CompileError::CopyElimDiverged`] if the patterns are still rewriting
/// after a fixed bound of 512 rounds.
pub fn run(prog: &mut IrProgram) -> Result<Stats, CompileError> {
    run_bounded(prog, MAX_ROUNDS)
}

/// [`run`] with at most `max_rounds` fixpoint rounds.
fn run_bounded(prog: &mut IrProgram, max_rounds: usize) -> Result<Stats, CompileError> {
    let mut pass = Pass::new(prog);
    // Event-eliminating (spill-style) patterns first, then the
    // dependence-preserving ones, each in application order.
    let patterns: [Pattern<'_>; 6] = [
        Pass::copy_propagation,
        Pass::forward_allocations,
        Pass::identify_pieces,
        Pass::self_copies,
        Pass::duplicate_copies,
        Pass::dead_copies,
    ];
    let mut rounds = 0;
    let mut changed = false;
    while rounds < max_rounds {
        rounds += 1;
        changed = false;
        for pattern in &patterns {
            changed |= pattern(&mut pass);
        }
        if !changed {
            break;
        }
    }
    if changed {
        return Err(CompileError::CopyElimDiverged { rounds });
    }
    pass.check_none_memory()?;
    Ok(Stats {
        removed_copies: pass.removed,
        rounds,
    })
}

// ---- canonical equality -----------------------------------------------------

/// Canonical index equality: processor-level variables of the same level
/// compare equal (two warpgroup-level `pfor` variables denote the same
/// processor index after vectorization); constants compare by value.
fn idx_eq(prog: &IrProgram, a: &IdxExpr, b: &IdxExpr) -> bool {
    if a == b {
        return true;
    }
    match (a.var, b.var) {
        (None, None) => a.offset == b.offset,
        // Distinct variables: equal only as processor indices of one level.
        (Some(va), Some(vb)) => {
            (a.scale, a.offset) == (b.scale, b.offset)
                && matches!(
                    (prog.proc_vars.get(&va), prog.proc_vars.get(&vb)),
                    (Some(pa), Some(pb)) if pa == pb
                )
        }
        _ => false,
    }
}

/// Partitions compare structurally: two partitions with the same
/// decomposition (piece shape, and for `mma` the piece count and
/// replication) are the same partition.
fn part_eq(prog: &IrProgram, p: PartId, q: PartId) -> bool {
    let key = |id: PartId| {
        let part = &prog.parts[id];
        let mma = match part.kind {
            PartKind::Blocks { .. } => None,
            PartKind::Mma {
                pieces, replicated, ..
            } => Some((pieces, replicated)),
        };
        (part.piece_shape(), mma)
    };
    p == q || key(p) == key(q)
}

type PathEntry = (PartId, Vec<IdxExpr>);

fn entry_eq(prog: &IrProgram, a: &PathEntry, b: &PathEntry) -> bool {
    part_eq(prog, a.0, b.0)
        && a.1.len() == b.1.len()
        && a.1.iter().zip(&b.1).all(|(x, y)| idx_eq(prog, x, y))
}

/// Do `a` and `b` denote the same data under canonical equality?
fn canon_eq(prog: &IrProgram, a: &TensorRef, b: &TensorRef) -> bool {
    a.tensor == b.tensor
        && a.path.len() == b.path.len()
        && a.path
            .iter()
            .zip(&b.path)
            .all(|(x, y)| entry_eq(prog, x, y))
}

// ---- traversal helpers ------------------------------------------------------

fn for_each_op<'b>(block: &'b Block, f: &mut impl FnMut(&'b Op)) {
    for op in &block.ops {
        f(op);
        if let OpKind::For { body, .. } | OpKind::Pfor { body, .. } = &op.kind {
            for_each_op(body, f);
        }
    }
}

fn for_each_op_mut(block: &mut Block, f: &mut impl FnMut(&mut Op)) {
    for op in &mut block.ops {
        f(op);
        if let OpKind::For { body, .. } | OpKind::Pfor { body, .. } = &mut op.kind {
            for_each_op_mut(body, f);
        }
    }
}

/// All tensor references of an op (reads and writes), excluding loop bodies.
fn op_refs(op: &Op) -> impl Iterator<Item = &TensorRef> {
    let (pair, args): ([Option<&TensorRef>; 2], &[TensorRef]) = match &op.kind {
        OpKind::Copy { src, dst } => ([Some(src), Some(dst)], &[]),
        OpKind::Call { args, .. } => ([None, None], args),
        _ => ([None, None], &[]),
    };
    pair.into_iter().flatten().chain(args)
}

fn op_refs_mut(op: &mut Op) -> impl Iterator<Item = &mut TensorRef> {
    let (pair, args): ([Option<&mut TensorRef>; 2], &mut [TensorRef]) = match &mut op.kind {
        OpKind::Copy { src, dst } => ([Some(src), Some(dst)], &mut []),
        OpKind::Call { args, .. } => ([None, None], args),
        _ => ([None, None], &mut []),
    };
    pair.into_iter().flatten().chain(args)
}

/// The base tensor an op writes: a copy's destination, a call's last
/// argument (a call without arguments writes nothing).
fn op_write(op: &Op) -> Option<TensorId> {
    match &op.kind {
        OpKind::Copy { dst, .. } => Some(dst.tensor),
        OpKind::Call { args, .. } => args.last().map(|r| r.tensor),
        _ => None,
    }
}

/// Visit the base tensors an op reads.
fn for_each_read(op: &Op, mut f: impl FnMut(TensorId)) {
    match &op.kind {
        OpKind::Copy { src, .. } => f(src.tensor),
        OpKind::Call { f: leaf, args } => {
            if let Some((dst, inputs)) = args.split_last() {
                inputs.iter().for_each(|r| f(r.tensor));
                if leaf.dst_reads() {
                    f(dst.tensor);
                }
            }
        }
        _ => {}
    }
}

/// Does `op` end a forward scan for copies equivalent to `copy(a, b)`: a
/// nested loop, or a write to either tensor?
fn ends_scan(op: &Op, a: &TensorRef, b: &TensorRef) -> bool {
    matches!(op.kind, OpKind::For { .. } | OpKind::Pfor { .. })
        || op_write(op).is_some_and(|w| w == a.tensor || w == b.tensor)
}

// ---- removing ops -----------------------------------------------------------

/// Order-preserving deduplication, linear in the list length.
fn dedup(pre: &mut Vec<EventRef>) {
    if pre.len() > 1 {
        let mut seen = HashSet::with_capacity(pre.len());
        pre.retain(|e| seen.insert(e.clone()));
    }
}

/// Resolve the substitution `remove[i] -> subst[i]` to a fixed point, so
/// that no list names a removed event. An op waits only on events that
/// exist before it, so removed events form a DAG and `subst.len()` sweeps
/// always suffice (one, when event ids ascend in program order).
fn close_substitution(remove: &[EventId], subst: &mut [Vec<EventRef>]) {
    let slot = |e: &EventRef| remove.binary_search(&e.event).ok();
    for _ in 0..subst.len() {
        let mut settled = true;
        for i in 0..subst.len() {
            if subst[i].iter().all(|e| slot(e).is_none()) {
                continue;
            }
            settled = false;
            let mut closed = Vec::new();
            for e in std::mem::take(&mut subst[i]) {
                match slot(&e) {
                    None => closed.push(e),
                    Some(j) => closed.extend(subst[j].iter().cloned()),
                }
            }
            dedup(&mut closed);
            subst[i] = closed;
        }
        if settled {
            return;
        }
    }
    debug_assert!(false, "removed events wait on each other in a cycle");
}

/// Drop the ops in `remove` (sorted) from `block` and rewire the
/// survivors' preconditions through the closed substitution. Returns the
/// number of ops dropped.
fn filter_and_rewire(
    block: &mut Block,
    remove: &[EventId],
    subst: &[Vec<EventRef>],
    dedup_all: bool,
) -> usize {
    let before = block.ops.len();
    block
        .ops
        .retain(|op| remove.binary_search(&op.result).is_err());
    let mut dropped = before - block.ops.len();
    for op in &mut block.ops {
        let rewire = op
            .pre
            .iter()
            .any(|e| remove.binary_search(&e.event).is_ok());
        if rewire {
            for e in std::mem::take(&mut op.pre) {
                match remove.binary_search(&e.event) {
                    Err(_) => op.pre.push(e),
                    Ok(i) => op.pre.extend(subst[i].iter().cloned()),
                }
            }
        }
        if rewire || dedup_all {
            dedup(&mut op.pre);
        }
        if let OpKind::For { body, .. } | OpKind::Pfor { body, .. } = &mut op.kind {
            dropped += filter_and_rewire(body, remove, subst, dedup_all);
        }
    }
    dropped
}

// ---- the per-round summary --------------------------------------------------

/// How the program uses one tensor.
#[derive(Clone, Copy, Default)]
struct TensorUse {
    /// References to the tensor or a piece of it, over all ops.
    refs: u32,
    /// Ops reading it (base tensor).
    reads: u32,
}

/// What one walk learns about tensor `t`, while the walk still borrows
/// the program.
#[derive(Clone, Copy, Default)]
struct Facts<'a> {
    /// References to the whole tensor / to a piece of it.
    whole: u32,
    pieces: u32,
    reads: u32,
    /// Whole-tensor copies of `t` onto itself.
    self_copies: u32,
    /// First *upstream* copy partner of the whole tensor — the reference a
    /// launch site's copy-in/copy-out named, which belongs to the caller's
    /// frame and was therefore created before `t` — and whether a later
    /// upstream partner differs from it. Copies where `t` feeds a later
    /// child allocation are downstream and collapse on later rounds.
    upstream: Option<&'a TensorRef>,
    upstream_mixed: bool,
    /// First materialized whole tensor copied to/from a single-level
    /// piece of `t`.
    piece_partner: Option<&'a TensorRef>,
    /// First path entry of the first piece reference, and whether a later
    /// piece reference starts differently. Only the first entry must be
    /// the per-processor piece; deeper entries ride along.
    first_piece: Option<&'a PathEntry>,
    pieces_mixed: bool,
}

/// Per-tensor use summary plus the rewrite each summary-driven pattern
/// would make, valid until the next rewrite. Each pattern rewrites at
/// most one tensor per round — the lowest id that qualifies — because a
/// rewrite invalidates the partner references the others were chosen by.
#[derive(Default)]
struct Uses {
    valid: bool,
    tensors: Vec<TensorUse>,
    /// Allocation forwarding: `(t, r)`, replace `t` by `r`.
    forward: Option<(TensorId, TensorRef)>,
    /// Piece identification: `(t, r)`, replace `t`'s pieces by `r`.
    identify: Option<(TensorId, TensorRef)>,
}

impl Uses {
    fn build(prog: &IrProgram) -> Uses {
        let decls = &prog.tensors;
        // `none`-mapped temporaries: the only tensors identification
        // applies to.
        let ghost = |t: TensorId| decls[t].mem == MemLevel::None && decls[t].param.is_none();
        let mut facts = vec![Facts::default(); decls.len()];
        for_each_op(&prog.body, &mut |op| {
            for r in op_refs(op) {
                let f = &mut facts[r.tensor];
                match r.path.first() {
                    None => f.whole += 1,
                    Some(entry) => {
                        f.pieces += 1;
                        match f.first_piece {
                            _ if !ghost(r.tensor) => {}
                            None => f.first_piece = Some(entry),
                            Some(first) => {
                                f.pieces_mixed = f.pieces_mixed || !entry_eq(prog, first, entry);
                            }
                        }
                    }
                }
            }
            for_each_read(op, |t| facts[t].reads += 1);
            let OpKind::Copy { src, dst } = &op.kind else {
                return;
            };
            for (this, other) in [(dst, src), (src, dst)] {
                let (t, o) = (this.tensor, other.tensor);
                let f = &mut facts[t];
                if this.path.is_empty() && o == t {
                    f.self_copies += 1;
                } else if this.path.is_empty() && o < t {
                    match f.upstream {
                        None => f.upstream = Some(other),
                        Some(first) => {
                            f.upstream_mixed = f.upstream_mixed || !canon_eq(prog, first, other);
                        }
                    }
                }
                if ghost(t)
                    && o != t
                    && other.path.is_empty()
                    && decls[o].mem != MemLevel::None
                    && this.path.len() == 1
                    && f.piece_partner.is_none()
                {
                    f.piece_partner = Some(other);
                }
            }
        });
        let summary = |f: &Facts| TensorUse {
            refs: f.whole + f.pieces,
            reads: f.reads,
        };
        Uses {
            valid: true,
            tensors: facts.iter().map(summary).collect(),
            forward: (0..decls.len()).find_map(|t| {
                let (f, r) = (&facts[t], facts[t].upstream?);
                // Forwarding must imply no memory-level change.
                let same_mem =
                    decls[t].mem == MemLevel::None || decls[t].mem == decls[r.tensor].mem;
                (decls[t].param.is_none() && f.self_copies == 0 && !f.upstream_mixed && same_mem)
                    .then(|| (t, r.clone()))
            }),
            identify: (0..decls.len()).find_map(|t| {
                let (f, r) = (&facts[t], facts[t].piece_partner?);
                (f.whole == 0 && !f.pieces_mixed).then(|| (t, r.clone()))
            }),
        }
    }
}

// ---- patterns ---------------------------------------------------------------

/// The program being rewritten plus what the fixpoint carries across
/// patterns and rounds.
struct Pass<'p> {
    prog: &'p mut IrProgram,
    uses: Uses,
    /// Ops removed so far (all of them copies).
    removed: usize,
    /// Precondition lists have been deduplicated once (dependence analysis
    /// may name an event twice); from then on only rewired lists can gain
    /// duplicates.
    pre_deduped: bool,
}

impl<'p> Pass<'p> {
    fn new(prog: &'p mut IrProgram) -> Self {
        Pass {
            prog,
            uses: Uses::default(),
            removed: 0,
            pre_deduped: false,
        }
    }

    /// The summary of the current program, rebuilt if a rewrite happened
    /// since it was last built.
    fn uses(&mut self) -> &mut Uses {
        if !self.uses.valid {
            self.uses = Uses::build(self.prog);
        }
        &mut self.uses
    }

    /// Remove ops whose result event is listed, substituting references to
    /// their events with each op's own preconditions.
    fn remove_ops(&mut self, mut remove: Vec<EventId>) -> bool {
        if remove.is_empty() {
            return false;
        }
        self.uses.valid = false;
        remove.sort_unstable();
        remove.dedup();
        // The removed ops go away, so take their preconditions.
        let mut subst = vec![Vec::new(); remove.len()];
        for_each_op_mut(&mut self.prog.body, &mut |op| {
            if let Ok(i) = remove.binary_search(&op.result) {
                subst[i] = std::mem::take(&mut op.pre);
            }
        });
        close_substitution(&remove, &mut subst);
        let dedup_all = !std::mem::replace(&mut self.pre_deduped, true);
        self.removed += filter_and_rewire(&mut self.prog.body, &remove, &subst, dedup_all);
        true
    }

    /// Rewrite every reference with base tensor `t` to compose with `r`,
    /// after dropping the reference's first `strip` path entries.
    fn rewrite_base(&mut self, t: TensorId, r: &TensorRef, strip: usize) {
        self.uses.valid = false;
        for_each_op_mut(&mut self.prog.body, &mut |op| {
            for rf in op_refs_mut(op).filter(|rf| rf.tensor == t) {
                let suffix = std::mem::replace(&mut rf.path, r.path.clone());
                rf.tensor = r.tensor;
                rf.path.extend(suffix.into_iter().skip(strip));
            }
        });
    }

    /// Fig. 10d: `copy(t, t)` (canonically equal references) is erased.
    fn self_copies(&mut self) -> bool {
        let prog = &*self.prog;
        let mut remove = Vec::new();
        for_each_op(&prog.body, &mut |op| {
            if let OpKind::Copy { src, dst } = &op.kind {
                if canon_eq(prog, src, dst) {
                    remove.push(op.result);
                }
            }
        });
        self.remove_ops(remove)
    }

    /// Fig. 10c: duplicate copies within one block with no intervening write.
    fn duplicate_copies(&mut self) -> bool {
        fn scan(prog: &IrProgram, block: &Block, remove: &mut Vec<EventId>) {
            for (i, op) in block.ops.iter().enumerate() {
                match &op.kind {
                    OpKind::Copy { src, dst } => {
                        for later in &block.ops[i + 1..] {
                            if let OpKind::Copy { src: s2, dst: d2 } = &later.kind {
                                if canon_eq(prog, s2, src) && canon_eq(prog, d2, dst) {
                                    remove.push(later.result);
                                    continue;
                                }
                            }
                            if ends_scan(later, src, dst) {
                                break;
                            }
                        }
                    }
                    OpKind::For { body, .. } | OpKind::Pfor { body, .. } => {
                        scan(prog, body, remove);
                    }
                    OpKind::Call { .. } => {}
                }
            }
        }
        let mut remove = Vec::new();
        scan(self.prog, &self.prog.body, &mut remove);
        self.remove_ops(remove)
    }

    /// `copy(a, X); ...; copy(X, b)` with no intervening write to `X` or `a`
    /// forwards the second copy's source to `a` (the spill-elimination engine).
    fn copy_propagation(&mut self) -> bool {
        fn scan(prog: &IrProgram, block: &mut Block, changed: &mut bool) {
            for i in 0..block.ops.len() {
                let (head, tail) = block.ops.split_at_mut(i + 1);
                match &mut head[i].kind {
                    OpKind::Copy { src: a, dst: x } if !canon_eq(prog, a, x) => {
                        for later in tail {
                            if let OpKind::Copy { src, .. } = &mut later.kind {
                                if canon_eq(prog, src, x) {
                                    *src = a.clone();
                                    *changed = true;
                                    continue;
                                }
                            }
                            if ends_scan(later, x, a) {
                                break;
                            }
                        }
                    }
                    OpKind::For { body, .. } | OpKind::Pfor { body, .. } => {
                        scan(prog, body, changed);
                    }
                    _ => {}
                }
            }
        }
        let mut changed = false;
        let mut body = std::mem::take(&mut self.prog.body);
        scan(self.prog, &mut body, &mut changed);
        self.prog.body = body;
        self.uses.valid &= !changed;
        changed
    }

    /// Allocation forwarding: a fresh tensor whose upstream copy partners
    /// all name the same external reference `r` is replaced by `r` when no
    /// memory-level change is implied. The partner copies become
    /// self-copies, removed on the next self-copy sweep.
    fn forward_allocations(&mut self) -> bool {
        let Some((t, r)) = self.uses().forward.take() else {
            return false;
        };
        self.rewrite_base(t, &r, 0);
        true
    }

    /// Piece identification: a `none`-mapped parent used exclusively
    /// through canonically identical per-processor pieces is identified
    /// with the materialized tensor those pieces are copied to/from, by
    /// stripping the leading piece entry. Several distinct partners are
    /// fine — the remaining ones collapse into the chosen one by
    /// allocation forwarding on later rounds.
    fn identify_pieces(&mut self) -> bool {
        let Some((t, r)) = self.uses().identify.take() else {
            return false;
        };
        self.rewrite_base(t, &r, 1);
        true
    }

    /// Remove copies into tensors that are never read and are not parameters.
    fn dead_copies(&mut self) -> bool {
        self.uses();
        let (prog, tensors) = (&*self.prog, &self.uses.tensors);
        let mut remove = Vec::new();
        for_each_op(&prog.body, &mut |op| {
            if let OpKind::Copy { dst, .. } = &op.kind {
                if prog.tensors[dst.tensor].param.is_none() && tensors[dst.tensor].reads == 0 {
                    remove.push(op.result);
                }
            }
        });
        self.remove_ops(remove)
    }

    /// §3.3: every tensor mapped to the `none` memory must have been
    /// eliminated entirely — except promotable block-local tensors
    /// (`make_tensor`), which fall back to a shared-memory home when no
    /// identification applies. That is the fused-kernel shape: a producer
    /// phase writes the tensor through one partition and a consumer phase
    /// re-tiles it through another, so no single existing allocation can
    /// stand in for it, and materializing it on-chip (rather than erroring)
    /// is exactly the intermediate-stays-in-shared-memory behavior fusion
    /// exists for. Writes into the shared home round to the tensor's
    /// declared dtype, which is also what keeps fused results bitwise equal
    /// to the unfused chain.
    fn check_none_memory(&mut self) -> Result<(), CompileError> {
        self.uses();
        for (decl, uses) in self.prog.tensors.iter_mut().zip(&self.uses.tensors) {
            if uses.refs > 0 && decl.mem == MemLevel::None {
                if !decl.promotable {
                    return Err(CompileError::NoneMemoryMaterialized {
                        tensor: decl.name.clone(),
                    });
                }
                decl.mem = MemLevel::Shared;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::ast::LeafFn;
    use crate::ir::EventType;
    use cypress_tensor::DType;

    fn tensor(prog: &mut IrProgram, name: &str, mem: MemLevel, param: Option<usize>) -> TensorRef {
        TensorRef::whole(prog.add_tensor(name, 8, 8, DType::F16, mem, param))
    }

    fn op(result: EventId, pre: &[EventId], kind: OpKind) -> Op {
        Op {
            result,
            ty: EventType::Unit,
            pre: pre.iter().map(|&e| EventRef::unit(e)).collect(),
            kind,
        }
    }

    fn copy(result: EventId, pre: &[EventId], src: &TensorRef, dst: &TensorRef) -> Op {
        let (src, dst) = (src.clone(), dst.clone());
        op(result, pre, OpKind::Copy { src, dst })
    }

    fn results(block: &Block) -> Vec<EventId> {
        block.ops.iter().map(|o| o.result).collect()
    }

    /// `head; c1 <- head; c2 <- c1; ...; survivor <- c200`, with the chain's
    /// event ids assigned by `id`.
    fn chain_program(id: impl Fn(usize) -> EventId) -> (IrProgram, Vec<EventId>) {
        let mut prog = IrProgram::new("chain");
        let a = tensor(&mut prog, "a", MemLevel::Global, Some(0));
        let b = tensor(&mut prog, "b", MemLevel::Shared, None);
        // The head waits on the same event twice: the rewired list must
        // come out deduplicated, in order.
        let mut ops = vec![copy(id(1), &[7, 3, 7], &a, &b)];
        ops.extend((2..=200).map(|i| copy(id(i), &[id(i - 1)], &a, &b)));
        ops.push(copy(5000, &[id(200)], &b, &a));
        prog.body = Block { ops };
        (prog, (1..=200).map(id).collect())
    }

    #[test]
    fn removing_a_long_copy_chain_rewires_the_survivor_to_the_head() {
        // Ascending ids close in one sweep; descending ids are the worst
        // case for the sweep order. Neither may drop the dependence.
        for id in [|i| 1000 + i, |i| 2000 - i] {
            let (mut prog, chain) = chain_program(id);
            let mut pass = Pass::new(&mut prog);
            assert!(pass.remove_ops(chain));
            assert_eq!(pass.removed, 200);
            assert_eq!(results(&prog.body), [5000]);
            assert_eq!(prog.body.ops[0].pre, [EventRef::unit(7), EventRef::unit(3)]);
        }
    }

    #[test]
    fn a_call_without_arguments_reads_and_writes_nothing() {
        let mut prog = IrProgram::new("bare-call");
        let a = tensor(&mut prog, "a", MemLevel::Global, Some(0));
        let b = tensor(&mut prog, "b", MemLevel::Global, Some(1));
        let call = OpKind::Call {
            f: LeafFn::MmaAccum,
            args: Vec::new(),
        };
        prog.body = Block {
            ops: vec![copy(0, &[], &a, &b), op(1, &[0], call)],
        };
        let stats = run(&mut prog).expect("no panic, no error");
        assert_eq!(stats.removed_copies, 0);
        assert_eq!(results(&prog.body), [0, 1]);
    }

    #[test]
    fn duplicate_scan_stops_at_a_write_or_a_nested_loop() {
        let mut prog = IrProgram::new("dups");
        let a = tensor(&mut prog, "a", MemLevel::Global, Some(0));
        let b = tensor(&mut prog, "b", MemLevel::Shared, None);
        let c = tensor(&mut prog, "c", MemLevel::Shared, None);
        let var = prog.fresh_var();
        let nested = OpKind::For {
            var,
            extent: 2,
            body: Block::default(),
        };
        prog.body = Block {
            ops: vec![
                copy(0, &[], &a, &b),
                copy(1, &[0], &a, &b), // duplicate of 0
                copy(2, &[], &c, &a),  // writes the source
                copy(3, &[2], &a, &b), // not a duplicate of 0 any more...
                op(4, &[], nested),
                copy(5, &[], &a, &b), // ...and 3 cannot see past the loop
            ],
        };
        assert!(Pass::new(&mut prog).duplicate_copies());
        assert_eq!(results(&prog.body), [0, 2, 3, 4, 5]);
    }

    #[test]
    fn running_out_of_rounds_is_an_error_not_a_half_eliminated_program() {
        let machine = cypress_sim::MachineConfig::test_gpu();
        let (reg, mapping, args) = crate::kernels::gemm::build(128, 128, 64, &machine).unwrap();
        let mut prog = crate::passes::depan::analyze(&reg, &mapping, "gemm", &args).unwrap();
        crate::passes::vectorize::run(&mut prog);
        crate::passes::vectorize::normalize_ranks(&mut prog);
        assert_eq!(
            run_bounded(&mut prog, 1),
            Err(CompileError::CopyElimDiverged { rounds: 1 })
        );
    }
}
