//! The Cypress frontend: logical description and mapping specification.

pub(crate) mod ast;
pub mod machine;
pub mod mapping;
pub mod task;

pub use ast::{ArgExpr, LeafFn, Privilege, SExpr, Stmt};
pub use machine::{MemLevel, ProcLevel};
pub use mapping::{MappingSpec, TaskMapping};
pub use task::{ParamSig, TaskRegistry, TaskVariant, VariantKind};
