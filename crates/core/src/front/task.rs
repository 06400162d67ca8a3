//! Tasks, variants, and the task registry (paper §3.2).
//!
//! A *task* is a named function with one or more *variants* — different
//! implementations targeting different processor levels or algorithms. All
//! variants of a task share a signature (parameter names, dtypes, and
//! privileges). Inner variants decompose; leaf variants compute.

use crate::error::CompileError;
use crate::front::ast::{Privilege, Stmt};
use cypress_tensor::DType;
use std::collections::HashMap;

/// Inner or leaf (Fig. 3: `k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantKind {
    /// May partition tensors and launch sub-tasks; may not touch elements.
    Inner,
    /// May access tensor data and call external functions; may not launch.
    Leaf,
}

/// One tensor parameter of a task signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSig {
    /// Parameter name (used by mapping memories and privilege messages).
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Declared privilege.
    pub privilege: Privilege,
}

/// A task variant: implementation of a task for some processor level.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskVariant {
    /// The task this variant implements.
    pub task: String,
    /// The variant's own name (referenced by the mapping).
    pub name: String,
    /// Inner or leaf.
    pub kind: VariantKind,
    /// Shared task signature.
    pub params: Vec<ParamSig>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl TaskVariant {
    /// Check the §3.2 kind restrictions: inner variants may not call
    /// external functions; leaf variants may not launch sub-tasks or
    /// create partitions.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::KindViolation`] on the first violation.
    fn check_kind(&self) -> Result<(), CompileError> {
        fn walk(v: &TaskVariant, body: &[Stmt]) -> Result<(), CompileError> {
            for s in body {
                match s {
                    Stmt::CallExternal { .. } if v.kind == VariantKind::Inner => {
                        return Err(CompileError::KindViolation {
                            variant: v.name.clone(),
                            detail: "inner variants may not call external functions".into(),
                        });
                    }
                    Stmt::Launch { .. } | Stmt::SRange { .. } | Stmt::PRange { .. }
                        if v.kind == VariantKind::Leaf =>
                    {
                        return Err(CompileError::KindViolation {
                            variant: v.name.clone(),
                            detail: "leaf variants may not launch sub-tasks".into(),
                        });
                    }
                    Stmt::PartitionBlocks { .. } | Stmt::PartitionMma { .. }
                        if v.kind == VariantKind::Leaf =>
                    {
                        return Err(CompileError::KindViolation {
                            variant: v.name.clone(),
                            detail: "leaf variants may not partition tensors".into(),
                        });
                    }
                    Stmt::SRange { body, .. } | Stmt::PRange { body, .. } => walk(v, body)?,
                    _ => {}
                }
            }
            Ok(())
        }
        walk(self, &self.body)
    }

    /// The privilege of parameter `name`, if it exists.
    #[must_use]
    pub fn param_privilege(&self, name: &str) -> Option<Privilege> {
        self.params
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.privilege)
    }
}

/// Registry of all task variants of a program. Two registries are equal
/// when they hold the same variants, whatever order they were registered
/// in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskRegistry {
    variants: HashMap<String, TaskVariant>,
}

impl TaskRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        TaskRegistry::default()
    }

    /// Register a variant (name must be unique).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::KindViolation`] if the body violates the
    /// variant's kind, or [`CompileError::UnknownTask`] if a variant of the
    /// same name exists with a different signature.
    pub fn register(&mut self, variant: TaskVariant) -> Result<(), CompileError> {
        variant.check_kind()?;
        // All variants of one task must share the signature (§3.2).
        if let Some(existing) = self
            .variants
            .values()
            .find(|v| v.task == variant.task && v.params != variant.params)
        {
            return Err(CompileError::KindViolation {
                variant: variant.name.clone(),
                detail: format!(
                    "signature differs from variant `{}` of task `{}`",
                    existing.name, variant.task
                ),
            });
        }
        self.variants.insert(variant.name.clone(), variant);
        Ok(())
    }

    /// Look up a variant by name.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnknownTask`] if absent.
    pub fn variant(&self, name: &str) -> Result<&TaskVariant, CompileError> {
        self.variants
            .get(name)
            .ok_or_else(|| CompileError::UnknownTask(name.to_string()))
    }

    /// Iterate all registered variants.
    pub fn iter(&self) -> impl Iterator<Item = &TaskVariant> {
        self.variants.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::ast::{LeafFn, SExpr};

    fn sig() -> Vec<ParamSig> {
        vec![ParamSig {
            name: "C".into(),
            dtype: DType::F16,
            privilege: Privilege::Write,
        }]
    }

    #[test]
    fn inner_cannot_call_external() {
        let v = TaskVariant {
            task: "clear".into(),
            name: "clear_inner".into(),
            kind: VariantKind::Inner,
            params: sig(),
            body: vec![Stmt::call_external(LeafFn::Fill(0.0), &["C"])],
        };
        assert!(matches!(
            v.check_kind(),
            Err(CompileError::KindViolation { .. })
        ));
    }

    #[test]
    fn leaf_cannot_launch() {
        let v = TaskVariant {
            task: "clear".into(),
            name: "clear_leaf".into(),
            kind: VariantKind::Leaf,
            params: sig(),
            body: vec![Stmt::launch_whole("clear", &["C"])],
        };
        assert!(matches!(
            v.check_kind(),
            Err(CompileError::KindViolation { .. })
        ));
        let nested = TaskVariant {
            task: "clear".into(),
            name: "clear_leaf2".into(),
            kind: VariantKind::Leaf,
            params: sig(),
            body: vec![Stmt::srange(
                "i",
                SExpr::lit(2),
                vec![Stmt::launch_whole("clear", &["C"])],
            )],
        };
        assert!(nested.check_kind().is_err());
    }

    #[test]
    fn registry_rejects_signature_mismatch() {
        let mut r = TaskRegistry::new();
        r.register(TaskVariant {
            task: "clear".into(),
            name: "a".into(),
            kind: VariantKind::Leaf,
            params: sig(),
            body: vec![],
        })
        .unwrap();
        let bad = TaskVariant {
            task: "clear".into(),
            name: "b".into(),
            kind: VariantKind::Leaf,
            params: vec![ParamSig {
                name: "C".into(),
                dtype: DType::F16,
                privilege: Privilege::Read,
            }],
            body: vec![],
        };
        assert!(r.register(bad).is_err());
        assert!(r.variant("a").is_ok());
        assert!(r.variant("missing").is_err());
    }
}
