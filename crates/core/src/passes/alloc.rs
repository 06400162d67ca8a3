//! Shared-memory resource allocation (paper §4.2.4, Fig. 11).
//!
//! Tensors mapped to shared memory must be bound to physical allocations.
//! The trade-off is memory pressure versus parallelism: aliasing two
//! logical tensors onto one allocation saves space but serializes their
//! live ranges. Following the paper (and Knight et al.), the allocator
//! starts from the *complete* interference graph — every tensor in its own
//! allocation — and removes auxiliary edges (allowing aliasing) only until
//! the footprint fits the user's budget, thereby aliasing as little as
//! possible. Pairs that end up aliased get write-after-read event
//! dependencies so their live ranges cannot overlap.
//!
//! The compiler uses the result as the shared-memory budget check only:
//! warp specialization declares one region per surviving shared tensor
//! and reads neither `region_of` nor `war_pairs`.

use crate::error::CompileError;
use crate::front::machine::MemLevel;
use crate::ir::{Block, IrProgram, OpKind, TensorId};
use std::collections::{HashMap, HashSet};

/// Result of allocation: which region each shared tensor occupies.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Region index per shared tensor.
    pub region_of: HashMap<TensorId, usize>,
    /// Size in bytes of each region (maximum of its tenants, before
    /// pipeline staging multiplies it).
    pub region_bytes: Vec<usize>,
    /// Pairs `(earlier, later)` that alias and therefore require a
    /// write-after-read dependency between their live ranges.
    pub war_pairs: Vec<(TensorId, TensorId)>,
}

impl Allocation {
    /// Total bytes across regions.
    #[must_use]
    fn total_bytes(&self) -> usize {
        self.region_bytes.iter().sum()
    }
}

/// Live range of a tensor in a linearized op order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Range {
    first: usize,
    last: usize,
}

/// Run allocation for all `Shared`-mapped tensors against `limit` bytes.
///
/// # Errors
///
/// Returns [`CompileError::OutOfSharedMemory`] if even full aliasing of
/// non-interfering tensors cannot fit the budget.
pub fn run(prog: &IrProgram, limit: usize) -> Result<Allocation, CompileError> {
    // 1. Linearize ops and collect live ranges of shared tensors. Uses
    //    inside a loop extend to the whole loop (the loop repeats).
    let mut ranges: HashMap<TensorId, Range> = HashMap::new();
    let mut counter = 0usize;
    collect(prog, &prog.body, &mut counter, &mut ranges, None);
    let shared: Vec<TensorId> = (0..prog.tensors.len())
        .filter(|&t| prog.tensors[t].mem == MemLevel::Shared && ranges.contains_key(&t))
        .collect();
    if shared.is_empty() {
        return Ok(Allocation::default());
    }

    // 2. Real interference edges: overlapping live ranges.
    let interferes = |a: TensorId, b: TensorId| -> bool {
        let (ra, rb) = (ranges[&a], ranges[&b]);
        ra.first <= rb.last && rb.first <= ra.last
    };

    // 3. Start from the complete graph (all auxiliary edges present) and
    //    remove auxiliary (non-interfering) edges, largest-savings first,
    //    until the allocation fits.
    let mut aux: HashSet<(TensorId, TensorId)> = HashSet::new();
    for (i, &a) in shared.iter().enumerate() {
        for &b in &shared[i + 1..] {
            if !interferes(a, b) {
                aux.insert((a, b));
            }
        }
    }
    let mut removable: Vec<(TensorId, TensorId)> = aux.iter().copied().collect();
    removable.sort_by_key(|&(a, b)| {
        std::cmp::Reverse(
            prog.tensors[a]
                .size_bytes()
                .min(prog.tensors[b].size_bytes()),
        )
    });

    loop {
        let alloc = build_allocation(prog, &shared, &aux, &ranges);
        if alloc.total_bytes() <= limit {
            return Ok(alloc);
        }
        // Remove the next auxiliary edge (allow one more aliasing).
        match removable.pop() {
            Some(edge) => {
                aux.remove(&edge);
            }
            None => {
                let alloc = build_allocation(prog, &shared, &aux, &ranges);
                return Err(CompileError::OutOfSharedMemory {
                    required: alloc.total_bytes(),
                    limit,
                });
            }
        }
    }
}

#[allow(clippy::only_used_in_recursion)]
fn collect(
    prog: &IrProgram,
    block: &Block,
    counter: &mut usize,
    ranges: &mut HashMap<TensorId, Range>,
    enclosing: Option<(usize, usize)>,
) {
    for op in &block.ops {
        *counter += 1;
        let at = *counter;
        match &op.kind {
            OpKind::For { body, .. } | OpKind::Pfor { body, .. } => {
                // Conservatively reserve the loop's whole span.
                let start = at;
                let mut probe = *counter;
                count_ops(body, &mut probe);
                let end = probe + 1;
                collect(prog, body, counter, ranges, Some((start, end)));
                *counter += 1;
            }
            _ => {
                let (lo, hi) = enclosing.unwrap_or((at, at));
                let span = if enclosing.is_some() {
                    (lo, hi)
                } else {
                    (at, at)
                };
                for r in op_tensors(op) {
                    let e = ranges.entry(r).or_insert(Range {
                        first: span.0,
                        last: span.1,
                    });
                    e.first = e.first.min(span.0);
                    e.last = e.last.max(span.1);
                }
            }
        }
    }
}

fn count_ops(block: &Block, counter: &mut usize) {
    for op in &block.ops {
        *counter += 1;
        match &op.kind {
            OpKind::For { body, .. } | OpKind::Pfor { body, .. } => {
                count_ops(body, counter);
                *counter += 1;
            }
            _ => {}
        }
    }
}

fn op_tensors(op: &crate::ir::Op) -> Vec<TensorId> {
    match &op.kind {
        OpKind::Copy { src, dst } => vec![src.tensor, dst.tensor],
        OpKind::Call { args, .. } => args.iter().map(|r| r.tensor).collect(),
        _ => vec![],
    }
}

/// Greedy region assignment honoring both real and auxiliary edges.
fn build_allocation(
    prog: &IrProgram,
    shared: &[TensorId],
    aux: &HashSet<(TensorId, TensorId)>,
    ranges: &HashMap<TensorId, Range>,
) -> Allocation {
    let edge = |a: TensorId, b: TensorId| -> bool {
        let (ra, rb) = (ranges[&a], ranges[&b]);
        let real = ra.first <= rb.last && rb.first <= ra.last;
        real || aux.contains(&(a.min(b), a.max(b)))
            || aux.contains(&(a, b))
            || aux.contains(&(b, a))
    };
    let mut region_of: HashMap<TensorId, usize> = HashMap::new();
    let mut regions: Vec<Vec<TensorId>> = Vec::new();
    for &t in shared {
        let mut placed = false;
        for (i, tenants) in regions.iter_mut().enumerate() {
            if tenants.iter().all(|&o| !edge(t, o)) {
                tenants.push(t);
                region_of.insert(t, i);
                placed = true;
                break;
            }
        }
        if !placed {
            regions.push(vec![t]);
            region_of.insert(t, regions.len() - 1);
        }
    }
    let region_bytes: Vec<usize> = regions
        .iter()
        .map(|ts| {
            ts.iter()
                .map(|&t| prog.tensors[t].size_bytes())
                .max()
                .unwrap_or(0)
        })
        .collect();
    // WAR pairs: aliased tenants ordered by live range.
    let mut war_pairs = Vec::new();
    for tenants in &regions {
        if tenants.len() > 1 {
            let mut sorted = tenants.clone();
            sorted.sort_by_key(|t| ranges[t].first);
            for w in sorted.windows(2) {
                war_pairs.push((w[0], w[1]));
            }
        }
    }
    Allocation {
        region_of,
        region_bytes,
        war_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::ast::LeafFn;
    use crate::ir::{Block, EventType, Op, OpKind, TensorRef};
    use cypress_tensor::DType;

    /// Build a program with `n` shared tensors used by consecutive calls
    /// (disjoint live ranges when `sequential`, overlapping otherwise).
    fn program(n: usize, sequential: bool, bytes_each: usize) -> IrProgram {
        let mut p = IrProgram::new("alloc");
        let elems = bytes_each / 2; // f16
        let ids: Vec<_> = (0..n)
            .map(|i| {
                p.add_tensor(
                    format!("s{i}"),
                    1,
                    elems,
                    DType::F16,
                    MemLevel::Shared,
                    None,
                )
            })
            .collect();
        let mut ops = Vec::new();
        if sequential {
            // t_i written then read, never live together.
            for &t in &ids {
                let e = p.fresh_event();
                ops.push(Op {
                    result: e,
                    ty: EventType::Unit,
                    pre: vec![],
                    kind: OpKind::Call {
                        f: LeafFn::Fill(0.0),
                        args: vec![TensorRef::whole(t)],
                    },
                });
            }
        } else {
            // One call uses all of them: fully interfering.
            let e = p.fresh_event();
            let mut args: Vec<TensorRef> = ids.iter().map(|&t| TensorRef::whole(t)).collect();
            args.push(TensorRef::whole(ids[0]));
            ops.push(Op {
                result: e,
                ty: EventType::Unit,
                pre: vec![],
                kind: OpKind::Call {
                    f: LeafFn::Fill(0.0),
                    args,
                },
            });
        }
        p.body = Block { ops };
        p
    }

    #[test]
    fn no_aliasing_when_memory_is_plentiful() {
        // With room for all tensors the complete interference graph stays:
        // every tensor gets its own region (minimal aliasing, §4.2.4).
        let p = program(3, true, 1024);
        let a = run(&p, 16 * 1024).unwrap();
        assert_eq!(a.region_bytes.len(), 3);
        assert_eq!(a.total_bytes(), 3 * 1024);
        assert!(a.war_pairs.is_empty());
    }

    #[test]
    fn relaxation_aliases_only_under_pressure() {
        // Three 1 KiB tensors with disjoint live ranges and a 2 KiB budget:
        // at least one auxiliary edge must be removed (aliasing), and the
        // aliased pair gets a write-after-read dependency.
        let p = program(3, true, 1024);
        let a = run(&p, 2 * 1024).unwrap();
        assert!(a.total_bytes() <= 2 * 1024, "{}", a.total_bytes());
        assert!(!a.war_pairs.is_empty());
    }

    #[test]
    fn truly_interfering_tensors_cannot_alias() {
        // Live ranges overlap: no amount of relaxation helps; the §4.2.4
        // out-of-memory diagnostic fires.
        let p = program(3, false, 1024);
        let err = run(&p, 2 * 1024);
        assert!(
            matches!(err, Err(CompileError::OutOfSharedMemory { required, .. }) if required == 3 * 1024)
        );
    }

    #[test]
    fn empty_program_allocates_nothing() {
        let p = IrProgram::new("empty");
        let a = run(&p, 1024).unwrap();
        assert_eq!(a.total_bytes(), 0);
        assert!(a.region_of.is_empty());
    }
}
