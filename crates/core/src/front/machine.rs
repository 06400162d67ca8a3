//! The hierarchical logical machine model (paper §3.1, Fig. 2).
//!
//! A machine is described by processor levels and memories with visibility.
//! The model is deliberately open-ended: the paper argues new levels (e.g.
//! Blackwell's paired-SM tensor cores) are added by extending these enums
//! and the description, not the programming model.

use std::fmt;

/// Processor levels of the Hopper machine description.
///
/// Ordered from outermost to innermost; `Ord` follows the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcLevel {
    /// The host CPU that launches kernels.
    Host,
    /// A thread block (CTA) on one SM.
    Block,
    /// A group of four warps that can collectively issue Tensor Core work.
    Warpgroup,
    /// 32 hardware threads.
    Warp,
    /// A single thread.
    Thread,
}

impl ProcLevel {
    /// `true` for the levels whose parallelism is implicit in the GPU
    /// programming model and flattened by the vectorization pass (§4.2.2).
    #[must_use]
    pub(crate) fn is_intra_block(self) -> bool {
        matches!(
            self,
            ProcLevel::Warpgroup | ProcLevel::Warp | ProcLevel::Thread
        )
    }
}

impl fmt::Display for ProcLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcLevel::Host => "HOST",
            ProcLevel::Block => "BLOCK",
            ProcLevel::Warpgroup => "WARPGROUP",
            ProcLevel::Warp => "WARP",
            ProcLevel::Thread => "THREAD",
        };
        f.write_str(s)
    }
}

/// Memory levels a tensor can be mapped to (paper Fig. 3: `m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// Never materialized at this task's level; must be eliminated by the
    /// compiler or compilation fails (§3.3).
    None,
    /// Device global memory.
    Global,
    /// Per-CTA shared memory.
    Shared,
    /// Per-thread register file (held at warpgroup granularity).
    Register,
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemLevel::None => "none",
            MemLevel::Global => "global",
            MemLevel::Shared => "shared",
            MemLevel::Register => "register",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_ordering() {
        assert!(ProcLevel::Host < ProcLevel::Block);
        assert!(ProcLevel::Block < ProcLevel::Warpgroup);
        assert!(ProcLevel::Warpgroup < ProcLevel::Warp);
        assert!(ProcLevel::Warp < ProcLevel::Thread);
    }

    #[test]
    fn intra_block_levels() {
        assert!(!ProcLevel::Host.is_intra_block());
        assert!(!ProcLevel::Block.is_intra_block());
        assert!(ProcLevel::Warpgroup.is_intra_block());
        assert!(ProcLevel::Warp.is_intra_block());
        assert!(ProcLevel::Thread.is_intra_block());
    }
}
