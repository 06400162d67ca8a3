//! Fluent construction of device programs.
//!
//! Used by the Cypress compiler's code generator and by the hand-written
//! baseline kernels. The builder hands out indices for memory objects and
//! fresh loop-variable ids, then assembles a validated [`Kernel`].

use crate::instr::Instr;
use crate::kernel::{Kernel, MbarDecl, Role, RoleKind};
use crate::mem::{FragDecl, ParamDecl, SmemDecl};
use cypress_tensor::DType;

/// Builder for [`Kernel`].
///
/// # Example
///
/// ```
/// use cypress_sim::{KernelBuilder, RoleKind, Instr, Slice};
///
/// let mut b = KernelBuilder::new("copy", [1, 1, 1]);
/// let a = b.param("A", 64, 64, cypress_tensor::DType::F16);
/// let sa = b.smem("sA", 64, 64, cypress_tensor::DType::F16, 1);
/// let bar = b.mbar(1);
/// b.role(RoleKind::Compute(0), vec![
///     Instr::TmaLoad {
///         src: Slice::param(a).extent(64, 64),
///         dst: Slice::smem(sa).extent(64, 64),
///         bar,
///     },
///     Instr::MbarWait { bar },
/// ]);
/// let kernel = b.build();
/// assert_eq!(kernel.grid, [1, 1, 1]);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    grid: [usize; 3],
    params: Vec<ParamDecl>,
    smem: Vec<SmemDecl>,
    frags: Vec<FragDecl>,
    mbars: Vec<MbarDecl>,
    roles: Vec<Role>,
    persistent: bool,
    vars: usize,
}

impl KernelBuilder {
    /// Start a kernel named `name` with the given CTA grid.
    #[must_use]
    pub fn new(name: impl Into<String>, grid: [usize; 3]) -> Self {
        KernelBuilder {
            name: name.into(),
            grid,
            params: Vec::new(),
            smem: Vec::new(),
            frags: Vec::new(),
            mbars: Vec::new(),
            roles: Vec::new(),
            persistent: false,
            vars: 0,
        }
    }

    /// Declare a global parameter; returns its index.
    pub fn param(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        dtype: DType,
    ) -> usize {
        self.params.push(ParamDecl {
            name: name.into(),
            rows,
            cols,
            dtype,
        });
        self.params.len() - 1
    }

    /// Declare a shared-memory region; returns its index.
    pub fn smem(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        dtype: DType,
        stages: usize,
    ) -> usize {
        self.smem.push(SmemDecl {
            name: name.into(),
            rows,
            cols,
            dtype,
            stages,
        });
        self.smem.len() - 1
    }

    /// Declare a per-warpgroup register fragment; returns its index.
    pub fn frag(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> usize {
        self.frags.push(FragDecl {
            name: name.into(),
            rows,
            cols,
        });
        self.frags.len() - 1
    }

    /// Declare an mbarrier completing a phase after `expected` arrivals;
    /// returns its index.
    pub fn mbar(&mut self, expected: usize) -> usize {
        self.mbars.push(MbarDecl { expected });
        self.mbars.len() - 1
    }

    /// A fresh loop-variable id, unique within this kernel.
    pub fn fresh_var(&mut self) -> usize {
        self.vars += 1;
        self.vars - 1
    }

    /// Add a role with its instruction stream.
    pub fn role(&mut self, kind: RoleKind, body: Vec<Instr>) -> &mut Self {
        self.roles.push(Role { kind, body });
        self
    }

    /// Mark the kernel persistent (§5.3 persistent-kernel optimization).
    pub fn persistent(&mut self, yes: bool) -> &mut Self {
        self.persistent = yes;
        self
    }

    /// Assemble the kernel. Call [`Kernel::validate`] (or launch it through
    /// [`crate::Simulator`], which validates) before trusting it.
    #[must_use]
    pub fn build(self) -> Kernel {
        Kernel {
            name: self.name,
            grid: self.grid,
            params: self.params,
            smem: self.smem,
            frags: self.frags,
            mbars: self.mbars,
            roles: self.roles,
            persistent: self.persistent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    #[test]
    fn builder_indices_are_sequential() {
        let mut b = KernelBuilder::new("k", [2, 2, 1]);
        assert_eq!(b.param("A", 4, 4, DType::F16), 0);
        assert_eq!(b.param("B", 4, 4, DType::F16), 1);
        assert_eq!(b.smem("sA", 4, 4, DType::F16, 2), 0);
        assert_eq!(b.frag("acc", 4, 4), 0);
        assert_eq!(b.mbar(1), 0);
        assert_eq!(b.mbar(2), 1);
        assert_eq!(b.fresh_var(), 0);
        assert_eq!(b.fresh_var(), 1);
        b.role(RoleKind::Compute(0), vec![]);
        let k = b.build();
        assert_eq!(crate::bytecode::lower(&k).unwrap().ctas, 4);
        k.validate(&MachineConfig::test_gpu()).unwrap();
    }
}
