//! Vectorization (paper §4.2.2, Fig. 9).
//!
//! Flattens the `pfor` loops that are implicit in the GPU programming model
//! — warpgroups, warps, and threads — leaving the flattened loop variable
//! in place as a *processor index*. Event arrays produced inside a
//! flattened loop are promoted with a new dimension; point-wise
//! dependencies become indexed references (`e3[j]`), and post-loop
//! synchronization becomes broadcast indexing (`e4[:]`), exactly as in
//! Fig. 9b/9c.
//!
//! `pfor` loops at the BLOCK level are *not* flattened: they map onto the
//! kernel grid during code generation.

#![deny(clippy::too_many_lines)]

use crate::ir::{Block, EvIdx, EventRef, EventType, IrProgram, Op, OpKind};
use std::collections::{HashMap, HashSet};

/// Run vectorization in place.
pub fn run(prog: &mut IrProgram) {
    let mut body = std::mem::take(&mut prog.body);
    let mut promos: HashMap<usize, (usize, Vec<EvIdx>)> = HashMap::new();
    vectorize_block(prog, &mut body, &mut promos);
    prog.body = body;
}

/// Recursively vectorize a block. `promos` maps a flattened loop's event id
/// to the substitute (the body's yield event) plus the index prefix to
/// prepend when rewriting references.
fn vectorize_block(
    prog: &mut IrProgram,
    block: &mut Block,
    promos: &mut HashMap<usize, (usize, Vec<EvIdx>)>,
) {
    let mut out: Vec<Op> = Vec::new();
    for mut op in std::mem::take(&mut block.ops) {
        // Rewrite preconditions against earlier flattenings first.
        for pre in &mut op.pre {
            rewrite_ref(pre, promos);
        }
        match op.kind {
            OpKind::Pfor {
                var,
                extent,
                proc,
                mut body,
            } if proc.is_intra_block() => {
                // Innermost first.
                vectorize_block(prog, &mut body, promos);
                prog.proc_vars.insert(var, proc);
                let loop_pre = op.pre;
                // Every event defined anywhere inside the flattened loop is
                // promoted with the new dimension, and intra-subtree
                // references become point-wise.
                let mut subtree_events = HashSet::new();
                collect_events(&body, &mut subtree_events);
                promote_subtree(&mut body, extent as usize, proc, var, &subtree_events);
                let yield_event = body.ops.last().map(|o| o.result);
                for mut b in body.ops {
                    // The loop's lifted preconditions apply to every body op
                    // that had no intra-body predecessor.
                    if b.pre.is_empty() {
                        b.pre = loop_pre.clone();
                    }
                    out.push(b);
                }
                // References to the loop event become references to the
                // yield event with the same indices (the promoted dimension
                // aligns with the loop's).
                if let Some(y) = yield_event {
                    promos.insert(op.result, (y, Vec::new()));
                }
            }
            OpKind::Pfor {
                var,
                extent,
                proc,
                mut body,
            } => {
                vectorize_block(prog, &mut body, promos);
                op.kind = OpKind::Pfor {
                    var,
                    extent,
                    proc,
                    body,
                };
                out.push(op);
            }
            OpKind::For {
                var,
                extent,
                mut body,
            } => {
                vectorize_block(prog, &mut body, promos);
                op.kind = OpKind::For { var, extent, body };
                out.push(op);
            }
            _ => out.push(op),
        }
    }
    block.ops = out;
}

fn collect_events(block: &Block, out: &mut HashSet<usize>) {
    for op in &block.ops {
        out.insert(op.result);
        match &op.kind {
            OpKind::For { body, .. } | OpKind::Pfor { body, .. } => collect_events(body, out),
            _ => {}
        }
    }
}

fn promote_subtree(
    block: &mut Block,
    extent: usize,
    proc: crate::front::machine::ProcLevel,
    var: usize,
    subtree: &HashSet<usize>,
) {
    for op in &mut block.ops {
        op.ty = op.ty.promoted(extent, proc);
        for pre in &mut op.pre {
            if subtree.contains(&pre.event) {
                pre.idx.insert(0, EvIdx::Var(var));
            }
        }
        match &mut op.kind {
            OpKind::For { body, .. } | OpKind::Pfor { body, .. } => {
                promote_subtree(body, extent, proc, var, subtree);
            }
            _ => {}
        }
    }
}

fn rewrite_ref(r: &mut EventRef, promos: &HashMap<usize, (usize, Vec<EvIdx>)>) {
    // Chase substitutions (a loop may yield another flattened loop's op).
    while let Some((target, prefix)) = promos.get(&r.event) {
        r.event = *target;
        let mut idx = prefix.clone();
        idx.extend(r.idx.iter().copied());
        r.idx = idx;
    }
}

/// Pad every event reference's index list to the rank of the referenced
/// event's type with broadcasts. Called after vectorization so later passes
/// can rely on full-rank indices.
pub fn normalize_ranks(prog: &mut IrProgram) {
    let mut types: HashMap<usize, usize> = HashMap::new();
    collect_ranks(&prog.body, &mut types);
    let mut body = std::mem::take(&mut prog.body);
    pad_block(&mut body, &types);
    prog.body = body;
}

fn collect_ranks(block: &Block, types: &mut HashMap<usize, usize>) {
    for op in &block.ops {
        let rank = match &op.ty {
            EventType::Unit => 0,
            EventType::Array(d) => d.len(),
        };
        types.insert(op.result, rank);
        match &op.kind {
            OpKind::For { body, .. } | OpKind::Pfor { body, .. } => collect_ranks(body, types),
            _ => {}
        }
    }
}

fn pad_block(block: &mut Block, types: &HashMap<usize, usize>) {
    for op in &mut block.ops {
        for pre in &mut op.pre {
            let rank = types.get(&pre.event).copied().unwrap_or(0);
            while pre.idx.len() < rank {
                pre.idx.push(EvIdx::All);
            }
        }
        match &mut op.kind {
            OpKind::For { body, .. } | OpKind::Pfor { body, .. } => pad_block(body, types),
            _ => {}
        }
    }
}
