//! The mapping specification (paper §3.3, Fig. 5b).
//!
//! A mapping statically instantiates the task tree: each
//! [`TaskMapping`] *instance* selects a task variant, a processor level,
//! per-parameter memories, tunable bindings, and the instances child
//! launches dispatch to. Instances also carry the processor-specific
//! controls the paper describes: `warpspecialize` and `pipeline` depth.
//! The shared-memory budget is the target machine's, not the mapping's.

use crate::error::CompileError;
use crate::front::machine::{MemLevel, ProcLevel};
use std::collections::HashMap;

/// One task-mapping instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMapping {
    /// Instance name (referenced by other instances' `calls`).
    pub instance: String,
    /// Task variant executed by this instance.
    pub variant: String,
    /// Processor level the variant runs on.
    pub proc: ProcLevel,
    /// Memory for each tensor parameter, in signature order.
    pub mems: Vec<MemLevel>,
    /// Tunable bindings.
    pub tunables: HashMap<String, i64>,
    /// Instances child task launches dispatch to (one per child task name).
    pub calls: Vec<String>,
    /// Request warp specialization of this instance's body (§4.2.5).
    pub warpspecialize: bool,
    /// Software pipeline depth for this instance's sequential loop (0 = no
    /// pipelining; the paper's GEMM uses 3).
    pub pipeline: usize,
    /// `true` for the root of the task tree.
    pub entrypoint: bool,
}

impl TaskMapping {
    /// A builder-style constructor with no tunables or calls.
    #[must_use]
    pub fn new(instance: &str, variant: &str, proc: ProcLevel, mems: Vec<MemLevel>) -> Self {
        TaskMapping {
            instance: instance.to_string(),
            variant: variant.to_string(),
            proc,
            mems,
            tunables: HashMap::new(),
            calls: Vec::new(),
            warpspecialize: false,
            pipeline: 0,
            entrypoint: false,
        }
    }

    /// An instance named after the variant it runs — the common case: a
    /// variant bound at one point of the machine needs no second name.
    #[must_use]
    pub(crate) fn for_variant(variant: &str, proc: ProcLevel, mems: Vec<MemLevel>) -> Self {
        TaskMapping::new(variant, variant, proc, mems)
    }

    /// Bind a tunable.
    #[must_use]
    pub fn tunable(mut self, name: &str, value: i64) -> Self {
        self.tunables.insert(name.to_string(), value);
        self
    }

    /// Add child dispatch targets.
    #[must_use]
    pub fn calls(mut self, instances: &[&str]) -> Self {
        self.calls = instances.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Request warp specialization.
    #[must_use]
    pub fn warpspecialize(mut self) -> Self {
        self.warpspecialize = true;
        self
    }

    /// Set the pipeline depth.
    #[must_use]
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.pipeline = depth;
        self
    }

    /// Mark as the entrypoint.
    #[must_use]
    pub fn entrypoint(mut self) -> Self {
        self.entrypoint = true;
        self
    }
}

/// A full mapping specification: a set of uniquely named instances,
/// exactly one of which is the entrypoint.
#[derive(Debug, Clone)]
pub struct MappingSpec {
    /// The entrypoint, held apart from the rest so "exactly one" is a
    /// property of the type.
    entry: TaskMapping,
    /// Every other instance, by name.
    others: HashMap<String, TaskMapping>,
}

impl MappingSpec {
    /// Build from a list of instances.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::BadEntrypoint`] unless exactly one instance
    /// is marked `entrypoint`, [`CompileError::DuplicateInstance`] if two
    /// instances share a name, or [`CompileError::UnknownInstance`] if a
    /// `calls` target is missing.
    pub fn new(instances: Vec<TaskMapping>) -> Result<Self, CompileError> {
        let mut entry = None;
        let mut others = HashMap::new();
        for i in instances {
            if i.entrypoint {
                if entry.replace(i).is_some() {
                    return Err(CompileError::BadEntrypoint);
                }
            } else if let Some(dup) = others.insert(i.instance.clone(), i) {
                return Err(CompileError::DuplicateInstance(dup.instance));
            }
        }
        let entry = entry.ok_or(CompileError::BadEntrypoint)?;
        if others.contains_key(&entry.instance) {
            return Err(CompileError::DuplicateInstance(entry.instance));
        }
        let spec = MappingSpec { entry, others };
        for inst in spec.iter() {
            if let Some(missing) = inst.calls.iter().find(|c| spec.instance(c).is_err()) {
                return Err(CompileError::UnknownInstance(missing.clone()));
            }
        }
        Ok(spec)
    }

    /// The entrypoint instance.
    #[must_use]
    pub fn entry(&self) -> &TaskMapping {
        &self.entry
    }

    /// Look up an instance by name.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnknownInstance`] if absent.
    pub fn instance(&self, name: &str) -> Result<&TaskMapping, CompileError> {
        if name == self.entry.instance {
            return Ok(&self.entry);
        }
        self.others
            .get(name)
            .ok_or_else(|| CompileError::UnknownInstance(name.to_string()))
    }

    /// Iterate all instances.
    pub fn iter(&self) -> impl Iterator<Item = &TaskMapping> {
        std::iter::once(&self.entry).chain(self.others.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(name: &str, entry: bool) -> TaskMapping {
        let m = TaskMapping::new(name, "v", ProcLevel::Block, vec![MemLevel::Global]);
        if entry {
            m.entrypoint()
        } else {
            m
        }
    }

    #[test]
    fn exactly_one_entrypoint() {
        assert!(MappingSpec::new(vec![inst("a", false)]).is_err());
        assert!(MappingSpec::new(vec![inst("a", true), inst("b", true)]).is_err());
        let ok = MappingSpec::new(vec![inst("a", true), inst("b", false)]).unwrap();
        assert_eq!(ok.entry().instance, "a");
    }

    #[test]
    fn instance_names_are_unique() {
        // An entrypoint and a plain instance under one name used to pass
        // validation with the entrypoint overwritten; `entry()` then
        // panicked.
        for (first, second) in [(true, false), (false, true)] {
            assert_eq!(
                MappingSpec::new(vec![inst("x", first), inst("x", second)]).err(),
                Some(CompileError::DuplicateInstance("x".into()))
            );
        }
        assert_eq!(
            MappingSpec::new(vec![inst("a", true), inst("x", false), inst("x", false)]).err(),
            Some(CompileError::DuplicateInstance("x".into()))
        );
        let ok = MappingSpec::new(vec![inst("b", false), inst("a", true)]).unwrap();
        assert_eq!(ok.entry().instance, "a");
        assert_eq!(ok.instance("a").unwrap().instance, "a");
        assert_eq!(ok.instance("b").unwrap().instance, "b");
        assert_eq!(ok.iter().count(), 2);
    }

    #[test]
    fn calls_must_resolve() {
        let a = inst("a", true).calls(&["missing"]);
        assert!(matches!(
            MappingSpec::new(vec![a]),
            Err(CompileError::UnknownInstance(_))
        ));
    }

    #[test]
    fn builder_setters() {
        let m = TaskMapping::new("i", "v", ProcLevel::Block, vec![])
            .tunable("W", 64)
            .warpspecialize()
            .pipeline(3);
        assert_eq!(m.tunables["W"], 64);
        assert!(m.warpspecialize);
        assert_eq!(m.pipeline, 3);
    }
}
