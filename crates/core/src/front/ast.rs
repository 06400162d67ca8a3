//! Abstract syntax of the Cypress logical description (paper Fig. 3).
//!
//! A Cypress program is a set of task variants whose bodies are built from
//! these statements. The concrete embedding is Rust constructors instead of
//! the paper's Python eDSL; the grammar is the same: scalar expressions,
//! tunables, tensor creation, the two partitioning operators, sub-task
//! launches (inline, `srange`, `prange`), and `call-external` in leaves.

use cypress_tensor::partition::{MmaLevel, MmaOperand};
use cypress_tensor::DType;
use std::fmt;

/// Scalar expressions (`e` in Fig. 3, restricted to integers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SExpr {
    /// Integer literal.
    Lit(i64),
    /// Scalar variable, tunable, or loop variable.
    Var(String),
    /// Dimension `dim` of tensor `name`'s shape (`C.shape[0]`).
    ShapeDim(String, usize),
    /// Sum.
    Add(Box<SExpr>, Box<SExpr>),
    /// Difference.
    Sub(Box<SExpr>, Box<SExpr>),
    /// Product.
    Mul(Box<SExpr>, Box<SExpr>),
    /// Exact division (errors if inexact — tile sizes must divide).
    Div(Box<SExpr>, Box<SExpr>),
    /// Ceiling division (`cdiv` in the paper's examples).
    CDiv(Box<SExpr>, Box<SExpr>),
    /// Remainder.
    Mod(Box<SExpr>, Box<SExpr>),
}

impl SExpr {
    /// Literal.
    #[must_use]
    pub fn lit(v: i64) -> Self {
        SExpr::Lit(v)
    }

    /// Variable reference.
    #[must_use]
    pub fn var(name: impl Into<String>) -> Self {
        SExpr::Var(name.into())
    }

    /// `tensor.shape[dim]`.
    #[must_use]
    pub fn shape(tensor: impl Into<String>, dim: usize) -> Self {
        SExpr::ShapeDim(tensor.into(), dim)
    }

    /// Ceiling division helper.
    #[must_use]
    pub fn cdiv(a: SExpr, b: SExpr) -> Self {
        SExpr::CDiv(Box::new(a), Box::new(b))
    }
}

macro_rules! sexpr_binop {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl std::ops::$trait for SExpr {
            type Output = SExpr;
            fn $method(self, rhs: SExpr) -> SExpr {
                SExpr::$variant(Box::new(self), Box::new(rhs))
            }
        }
    };
}
sexpr_binop!(Add, add, Add);
sexpr_binop!(Sub, sub, Sub);
sexpr_binop!(Mul, mul, Mul);
sexpr_binop!(Div, div, Div);
sexpr_binop!(Rem, rem, Mod);

impl fmt::Display for SExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Lit(v) => write!(f, "{v}"),
            SExpr::Var(n) => write!(f, "{n}"),
            SExpr::ShapeDim(t, d) => write!(f, "{t}.shape[{d}]"),
            SExpr::Add(a, b) => write!(f, "({a} + {b})"),
            SExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            SExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            SExpr::Div(a, b) => write!(f, "({a} / {b})"),
            SExpr::CDiv(a, b) => write!(f, "cdiv({a}, {b})"),
            SExpr::Mod(a, b) => write!(f, "({a} % {b})"),
        }
    }
}

/// Privileges a task declares on its tensor parameters (Fig. 3: `pr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// Read-only.
    Read,
    /// Write-only (contents need not be preserved).
    Write,
    /// Read and write.
    ReadWrite,
}

impl Privilege {
    /// `true` if the privilege permits reading.
    #[must_use]
    pub(crate) fn can_read(self) -> bool {
        matches!(self, Privilege::Read | Privilege::ReadWrite)
    }

    /// `true` if the privilege permits writing.
    #[must_use]
    pub(crate) fn can_write(self) -> bool {
        matches!(self, Privilege::Write | Privilege::ReadWrite)
    }

    /// `true` if `child` does not exceed `self` (a task may not launch a
    /// sub-task requesting more than it holds, §3.2).
    #[must_use]
    pub fn covers(self, child: Privilege) -> bool {
        (!child.can_read() || self.can_read()) && (!child.can_write() || self.can_write())
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Privilege::Read => "read",
            Privilege::Write => "write",
            Privilege::ReadWrite => "read-write",
        };
        f.write_str(s)
    }
}

/// An argument at a launch or `call-external` site.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgExpr {
    /// A whole tensor by name.
    Tensor(String),
    /// A piece of a partition: `P[i, j]`.
    Piece {
        /// Partition name.
        partition: String,
        /// Piece indices.
        indices: Vec<SExpr>,
    },
    /// A scalar value.
    Scalar(SExpr),
}

impl ArgExpr {
    /// Whole-tensor argument.
    #[must_use]
    pub fn tensor(name: impl Into<String>) -> Self {
        ArgExpr::Tensor(name.into())
    }

    /// Partition-piece argument.
    #[must_use]
    pub fn piece(partition: impl Into<String>, indices: Vec<SExpr>) -> Self {
        ArgExpr::Piece {
            partition: partition.into(),
            indices,
        }
    }
}

/// External functions a leaf task may call (`call-external` in Fig. 3).
///
/// The paper's leaves invoke arbitrary CUDA C++ (CuTe dispatch to WGMMA,
/// elementwise math); this reproduction enumerates the external functions
/// the evaluation kernels need, each mapped by code generation onto the
/// simulator's Tensor Core or SIMT instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeafFn {
    /// `CuTe_warpgroup_gemm`: `acc += a @ b` on the Tensor Core.
    MmaAccum,
    /// `acc += a @ bᵀ` on the Tensor Core (attention `Q Kᵀ`).
    MmaAccumBT,
    /// Set every element to a constant.
    Fill(f32),
    /// Element-wise copy (data-movement leaf; placement decides the engine).
    CopyExt,
    /// Element-wise `exp`.
    Exp,
    /// Element-wise scale by a constant.
    Scale(f32),
    /// Element-wise sum: `dst = a + b`.
    AddExt,
    /// Element-wise max: `dst = max(a, b)`.
    MaxExt,
    /// Row-wise running max: `dst[i,0] = max(dst[i,0], max_j src[i,j])`.
    RowMaxAccum,
    /// Row-wise running sum: `dst[i,0] += Σ_j src[i,j]`.
    RowSumAccum,
    /// Subtract a broadcast column: `dst[i,j] = src[i,j] - col[i,0]`.
    SubRow,
    /// Multiply by a broadcast column.
    MulRow,
    /// Divide by a broadcast column.
    DivRow,
}

impl LeafFn {
    /// Number of arguments (destination last).
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            LeafFn::Fill(_) => 1,
            LeafFn::CopyExt | LeafFn::Exp | LeafFn::Scale(_) => 2,
            LeafFn::RowMaxAccum | LeafFn::RowSumAccum => 2,
            LeafFn::MmaAccum | LeafFn::MmaAccumBT => 3,
            LeafFn::AddExt | LeafFn::MaxExt => 3,
            LeafFn::SubRow | LeafFn::MulRow | LeafFn::DivRow => 3,
        }
    }

    /// `true` if the destination is also read (accumulators).
    #[must_use]
    pub(crate) fn dst_reads(self) -> bool {
        matches!(
            self,
            LeafFn::MmaAccum | LeafFn::MmaAccumBT | LeafFn::RowMaxAccum | LeafFn::RowSumAccum
        )
    }
}

/// Statements of a task-variant body (Fig. 3: `s`).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `x = e` — bind a scalar.
    Let {
        /// Variable name.
        name: String,
        /// Value.
        value: SExpr,
    },
    /// `x = tunable(int)` — bound by the mapping specification.
    Tunable {
        /// Tunable name.
        name: String,
    },
    /// Create a fresh tensor (`make_tensor`); its memory comes from the
    /// mapping of the task instance.
    MakeTensor {
        /// Tensor name.
        name: String,
        /// Rows.
        rows: SExpr,
        /// Columns.
        cols: SExpr,
        /// Element type.
        dtype: DType,
    },
    /// `Xp = partition_by_blocks(X, (r, c))`.
    PartitionBlocks {
        /// Partition name.
        name: String,
        /// Partitioned tensor.
        tensor: String,
        /// Tile rows.
        tile_rows: SExpr,
        /// Tile columns.
        tile_cols: SExpr,
    },
    /// `Xp = partition_by_mma(X, instr, PROC, operand)`.
    PartitionMma {
        /// Partition name.
        name: String,
        /// Partitioned tensor.
        tensor: String,
        /// Target level (typically a `processor` tunable; here fixed per
        /// variant instantiation).
        level: MmaLevel,
        /// Operand role.
        operand: MmaOperand,
    },
    /// Inline launch of a sub-task.
    Launch {
        /// Task name (dispatch resolved by the mapping).
        task: String,
        /// Arguments.
        args: Vec<ArgExpr>,
    },
    /// `for x in srange(e): launch(...)` — sequential task group.
    SRange {
        /// Loop variable.
        var: String,
        /// Extent.
        extent: SExpr,
        /// Body (launches and scalar statements).
        body: Vec<Stmt>,
    },
    /// `for x, y in prange(e1, e2): launch(...)` — parallel task group.
    PRange {
        /// Loop variables (1-3).
        vars: Vec<String>,
        /// Extents, same length as `vars`.
        extents: Vec<SExpr>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `call-external(f, args)` — leaf variants only.
    CallExternal {
        /// External function.
        f: LeafFn,
        /// Arguments; the destination is last.
        args: Vec<ArgExpr>,
    },
}

impl Stmt {
    /// `name = value`.
    #[must_use]
    pub fn let_(name: impl Into<String>, value: SExpr) -> Self {
        Stmt::Let {
            name: name.into(),
            value,
        }
    }

    /// `name = tunable(int)`.
    #[must_use]
    pub fn tunable(name: impl Into<String>) -> Self {
        Stmt::Tunable { name: name.into() }
    }

    /// `name = make_tensor(rows, cols, dtype)`.
    #[must_use]
    pub fn make_tensor(name: impl Into<String>, rows: SExpr, cols: SExpr, dtype: DType) -> Self {
        Stmt::MakeTensor {
            name: name.into(),
            rows,
            cols,
            dtype,
        }
    }

    /// `name = partition_by_blocks(tensor, (tile_rows, tile_cols))`.
    #[must_use]
    pub fn blocks(
        name: impl Into<String>,
        tensor: impl Into<String>,
        tile_rows: SExpr,
        tile_cols: SExpr,
    ) -> Self {
        Stmt::PartitionBlocks {
            name: name.into(),
            tensor: tensor.into(),
            tile_rows,
            tile_cols,
        }
    }

    /// `name = partition_by_mma(tensor, level, operand)`.
    #[must_use]
    pub fn mma(
        name: impl Into<String>,
        tensor: impl Into<String>,
        level: MmaLevel,
        operand: MmaOperand,
    ) -> Self {
        Stmt::PartitionMma {
            name: name.into(),
            tensor: tensor.into(),
            level,
            operand,
        }
    }

    /// `launch(task, args)`.
    #[must_use]
    pub fn launch(task: impl Into<String>, args: Vec<ArgExpr>) -> Self {
        Stmt::Launch {
            task: task.into(),
            args,
        }
    }

    /// `launch(task, tensors...)` with every argument a whole tensor.
    #[must_use]
    pub fn launch_whole(task: impl Into<String>, tensors: &[&str]) -> Self {
        Stmt::launch(task, tensors.iter().map(|t| ArgExpr::tensor(*t)).collect())
    }

    /// `for var in srange(extent): body`.
    #[must_use]
    pub fn srange(var: impl Into<String>, extent: SExpr, body: Vec<Stmt>) -> Self {
        Stmt::SRange {
            var: var.into(),
            extent,
            body,
        }
    }

    /// `for vars in prange(extents): body`.
    #[must_use]
    pub fn prange(vars: &[&str], extents: Vec<SExpr>, body: Vec<Stmt>) -> Self {
        Stmt::PRange {
            vars: vars.iter().map(|v| (*v).to_string()).collect(),
            extents,
            body,
        }
    }

    /// `call-external(f, tensors...)`, destination last.
    #[must_use]
    pub fn call_external(f: LeafFn, tensors: &[&str]) -> Self {
        Stmt::CallExternal {
            f,
            args: tensors.iter().map(|t| ArgExpr::tensor(*t)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privilege_covering() {
        assert!(Privilege::ReadWrite.covers(Privilege::Read));
        assert!(Privilege::ReadWrite.covers(Privilege::Write));
        assert!(!Privilege::Read.covers(Privilege::Write));
        assert!(!Privilege::Write.covers(Privilege::Read));
        assert!(Privilege::Read.covers(Privilege::Read));
    }

    #[test]
    fn sexpr_operators_build_trees() {
        let e = SExpr::var("M") * SExpr::lit(2) + SExpr::shape("C", 1);
        assert_eq!(e.to_string(), "((M * 2) + C.shape[1])");
        assert_eq!(
            SExpr::cdiv(SExpr::var("K"), SExpr::var("W")).to_string(),
            "cdiv(K, W)"
        );
    }

    #[test]
    fn privilege_display() {
        assert_eq!(Privilege::ReadWrite.to_string(), "read-write");
    }
}
