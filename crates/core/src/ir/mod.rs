//! Cypress's event-based intermediate representation (paper §4.1, Fig. 7).
//!
//! The IR is a tree of blocks containing *operations* — copies, leaf-task
//! calls, and sequential/parallel loops — linked by *events*. Every
//! potentially asynchronous operation produces an event; operations carry
//! precondition event sets. Parallel loops produce *event arrays* whose
//! dimensions are annotated with processor levels; indexing an array with a
//! variable expresses point-wise dependence, and broadcast indexing `[:]`
//! expresses synchronization of the whole processor dimension (§4.1).
//!
//! Events are an intermediate construct only: code generation lowers them
//! to hardware synchronization and no dynamic tracking survives (§4.2.6).

pub mod printer;

use crate::front::ast::LeafFn;
use crate::front::machine::{MemLevel, ProcLevel};
use cypress_tensor::DType;
use std::collections::HashMap;

/// Identifier of an event (SSA value).
pub type EventId = usize;
/// Identifier of a logical tensor allocation.
pub type TensorId = usize;
/// Identifier of a partition.
pub type PartId = usize;
/// Identifier of a loop variable.
pub type VarId = usize;

/// A logical tensor allocation in the IR.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDecl {
    /// Identifier.
    pub id: TensorId,
    /// Debug name.
    pub name: String,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Element type.
    pub dtype: DType,
    /// Mapped memory. `None`-mapped tensors must be eliminated (§3.3)
    /// or, for promotable block-local tensors, given a shared-memory
    /// home by copy elimination.
    pub mem: MemLevel,
    /// `Some(i)` if this is the `i`-th kernel parameter.
    pub param: Option<usize>,
    /// Block-local tensor (from `make_tensor`) that may be materialized
    /// in shared memory when copy elimination cannot identify it with a
    /// single existing allocation — how fused kernels keep a producer
    /// phase's result on-chip for a consumer phase that re-tiles it.
    pub promotable: bool,
}

/// How a partition decomposes its parent (IR-level record of the paper's
/// two partitioning operators).
#[derive(Debug, Clone, PartialEq)]
pub enum PartKind {
    /// Tiling into `tile_rows × tile_cols` boxes over a `grid_rows ×
    /// grid_cols` grid.
    Blocks {
        /// Tile rows.
        tile_rows: usize,
        /// Tile columns.
        tile_cols: usize,
        /// Grid rows.
        grid_rows: usize,
        /// Grid columns.
        grid_cols: usize,
    },
    /// Tensor-Core-mandated partition: `pieces` views with shape
    /// `piece_rows × piece_cols`; `replicated` for the collective `B`
    /// operand.
    Mma {
        /// Number of pieces.
        pieces: usize,
        /// Rows of one piece.
        piece_rows: usize,
        /// Columns of one piece.
        piece_cols: usize,
        /// `true` if every piece aliases the whole parent (operand B).
        replicated: bool,
        /// Processor level of the pieces.
        level: ProcLevel,
    },
}

/// A partition declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct PartDecl {
    /// Identifier.
    pub id: PartId,
    /// Debug name.
    pub name: String,
    /// Partitioned tensor.
    pub parent: TensorId,
    /// Decomposition.
    pub kind: PartKind,
}

impl PartDecl {
    /// Shape of one piece.
    #[must_use]
    pub(crate) fn piece_shape(&self) -> (usize, usize) {
        match &self.kind {
            PartKind::Blocks {
                tile_rows,
                tile_cols,
                ..
            } => (*tile_rows, *tile_cols),
            PartKind::Mma {
                piece_rows,
                piece_cols,
                ..
            } => (*piece_rows, *piece_cols),
        }
    }

    /// `true` if distinct pieces never overlap (writes cannot race).
    #[must_use]
    pub(crate) fn is_disjoint(&self) -> bool {
        match &self.kind {
            PartKind::Blocks { .. } => true,
            PartKind::Mma { replicated, .. } => !replicated,
        }
    }
}

/// An affine index `scale·var + offset` (var optional).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdxExpr {
    /// The variable, if any.
    pub var: Option<VarId>,
    /// Coefficient of the variable.
    pub scale: i64,
    /// Constant offset.
    pub offset: i64,
}

impl IdxExpr {
    /// A constant index.
    #[must_use]
    pub fn constant(v: i64) -> Self {
        IdxExpr {
            var: None,
            scale: 0,
            offset: v,
        }
    }

    /// A bare variable.
    #[must_use]
    pub fn var(v: VarId) -> Self {
        IdxExpr {
            var: Some(v),
            scale: 1,
            offset: 0,
        }
    }

    /// `true` if the index mentions `v`.
    #[must_use]
    pub(crate) fn uses(&self, v: VarId) -> bool {
        self.var == Some(v)
    }
}

/// Reference to a tensor or a (possibly nested) partition piece of it.
///
/// The `path` applies partitions successively: `%t0.%p1[i].%p2[j]` selects
/// piece `j` of partition `p2` *within* piece `i` of partition `p1` of the
/// base tensor. Nested paths arise when copy elimination forwards a child
/// task's fresh allocation into a piece of its parent (§4.2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorRef {
    /// The referenced base tensor.
    pub tensor: TensorId,
    /// Successive partition selections, outermost first.
    pub path: Vec<(PartId, Vec<IdxExpr>)>,
}

impl TensorRef {
    /// Reference to the whole tensor.
    #[must_use]
    pub fn whole(tensor: TensorId) -> Self {
        TensorRef {
            tensor,
            path: Vec::new(),
        }
    }

    /// Reference to a single partition piece.
    #[must_use]
    pub fn piece(tensor: TensorId, part: PartId, idx: Vec<IdxExpr>) -> Self {
        TensorRef {
            tensor,
            path: vec![(part, idx)],
        }
    }
}

/// Event types (Fig. 7: `et`): unit or a processor-annotated array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventType {
    /// A single completion event.
    Unit,
    /// An array of events, one dimension per flattened parallel loop.
    Array(Vec<(usize, ProcLevel)>),
}

impl EventType {
    /// Promote by prepending a dimension (vectorization, §4.2.2).
    #[must_use]
    pub(crate) fn promoted(&self, extent: usize, proc: ProcLevel) -> EventType {
        match self {
            EventType::Unit => EventType::Array(vec![(extent, proc)]),
            EventType::Array(dims) => {
                let mut d = vec![(extent, proc)];
                d.extend(dims.iter().copied());
                EventType::Array(d)
            }
        }
    }
}

/// One index of an event-array reference (Fig. 7: `ei`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvIdx {
    /// Broadcast `[:]`: all events of the dimension must complete.
    All,
    /// Point-wise: the event of iteration/processor `var`.
    Var(VarId),
}

/// Reference to an event, possibly indexing an event array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventRef {
    /// The referenced event.
    pub event: EventId,
    /// One entry per array dimension (empty for unit events).
    pub idx: Vec<EvIdx>,
}

impl EventRef {
    /// Reference to a unit event.
    #[must_use]
    pub fn unit(event: EventId) -> Self {
        EventRef {
            event,
            idx: Vec::new(),
        }
    }
}

/// Operation kinds (Fig. 7: `o`).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Explicit copy between tensors (`copy(src, dst)`).
    Copy {
        /// Source reference.
        src: TensorRef,
        /// Destination reference.
        dst: TensorRef,
    },
    /// Leaf-task invocation (`call(f, args)`); destination argument last.
    Call {
        /// External function.
        f: LeafFn,
        /// Arguments, destination last.
        args: Vec<TensorRef>,
    },
    /// Sequential loop.
    For {
        /// Loop variable.
        var: VarId,
        /// Trip count (concrete: sizes are known at compile time).
        extent: i64,
        /// Body.
        body: Block,
    },
    /// Parallel loop over processors at `proc`.
    Pfor {
        /// Loop variable.
        var: VarId,
        /// Extent.
        extent: i64,
        /// Processor level of the iterations.
        proc: ProcLevel,
        /// Body.
        body: Block,
    },
}

/// One IR operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The completion event this operation produces.
    pub result: EventId,
    /// Type of the produced event.
    pub ty: EventType,
    /// Precondition events.
    pub pre: Vec<EventRef>,
    /// The operation.
    pub kind: OpKind,
}

/// A straight-line block of operations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Operations in program order.
    pub ops: Vec<Op>,
}

/// A complete IR program.
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// Program name.
    pub name: String,
    /// Tensor declarations, indexed by [`TensorId`].
    pub tensors: Vec<TensorDecl>,
    /// Partition declarations, indexed by [`PartId`].
    pub parts: Vec<PartDecl>,
    /// Top-level block (the entrypoint task's body).
    pub body: Block,
    /// Loop variables that became processor indices after vectorization.
    pub proc_vars: HashMap<VarId, ProcLevel>,
    /// Next fresh event id.
    pub next_event: usize,
    /// Next fresh variable id.
    pub next_var: usize,
}

impl IrProgram {
    /// An empty program.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        IrProgram {
            name: name.into(),
            tensors: Vec::new(),
            parts: Vec::new(),
            body: Block::default(),
            proc_vars: HashMap::new(),
            next_event: 0,
            next_var: 0,
        }
    }

    /// Allocate a fresh event id.
    pub fn fresh_event(&mut self) -> EventId {
        self.next_event += 1;
        self.next_event - 1
    }

    /// Allocate a fresh loop variable.
    pub fn fresh_var(&mut self) -> VarId {
        self.next_var += 1;
        self.next_var - 1
    }

    /// Declare a tensor.
    pub fn add_tensor(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        dtype: DType,
        mem: MemLevel,
        param: Option<usize>,
    ) -> TensorId {
        let id = self.tensors.len();
        self.tensors.push(TensorDecl {
            id,
            name: name.into(),
            rows,
            cols,
            dtype,
            mem,
            param,
            promotable: false,
        });
        id
    }

    /// Declare a partition.
    pub(crate) fn add_part(
        &mut self,
        name: impl Into<String>,
        parent: TensorId,
        kind: PartKind,
    ) -> PartId {
        let id = self.parts.len();
        self.parts.push(PartDecl {
            id,
            name: name.into(),
            parent,
            kind,
        });
        id
    }

    /// Count operations recursively (used by tests and pass statistics).
    #[must_use]
    pub fn op_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.ops
                .iter()
                .map(|o| match &o.kind {
                    OpKind::For { body, .. } | OpKind::Pfor { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Count copies recursively.
    #[must_use]
    pub fn copy_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.ops
                .iter()
                .map(|o| match &o.kind {
                    OpKind::Copy { .. } => 1,
                    OpKind::For { body, .. } | OpKind::Pfor { body, .. } => count(body),
                    _ => 0,
                })
                .sum()
        }
        count(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_type_promotion() {
        let t = EventType::Unit.promoted(32, ProcLevel::Thread);
        assert_eq!(t, EventType::Array(vec![(32, ProcLevel::Thread)]));
        let t2 = t.promoted(4, ProcLevel::Warp);
        assert_eq!(
            t2,
            EventType::Array(vec![(4, ProcLevel::Warp), (32, ProcLevel::Thread)])
        );
    }

    #[test]
    fn idx_expr_uses() {
        assert!(IdxExpr::var(3).uses(3));
        assert!(!IdxExpr::var(3).uses(2));
        assert!(!IdxExpr::constant(5).uses(5));
    }

    #[test]
    fn program_counters() {
        let mut p = IrProgram::new("t");
        assert_eq!(p.fresh_event(), 0);
        assert_eq!(p.fresh_event(), 1);
        assert_eq!(p.fresh_var(), 0);
        let t = p.add_tensor("A", 4, 4, DType::F16, MemLevel::Global, Some(0));
        assert_eq!(t, 0);
        assert_eq!((p.tensors[t].rows, p.tensors[t].cols), (4, 4));
        assert_eq!(p.op_count(), 0);
    }
}
