//! The compiled-kernel cache.
//!
//! Keys are the stable fingerprints of [`cypress_core::fingerprint()`]: a
//! fingerprint covers the task registry, mapping specification, entry
//! name, entry argument shapes, target machine, and codegen-affecting
//! compiler options — everything that determines the compiled kernel. A
//! hit therefore returns the *identical* [`Compiled`] (shared via `Arc`)
//! and skips the Fig. 6 pass pipeline entirely, which is what makes
//! repeated launches of a steady-state serving workload cheap.
//!
//! The cache is unbounded: every kernel a session compiles stays
//! resident until [`KernelCache::clear`].

use cypress_core::{CompileError, Compiled};
use std::collections::HashMap;
use std::sync::Arc;

/// Hit/miss counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the compiler.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Fingerprint-keyed store of compiled kernels.
#[derive(Debug, Default)]
pub(crate) struct KernelCache {
    entries: HashMap<u64, Arc<Compiled>>,
    hits: u64,
    misses: u64,
}

impl KernelCache {
    /// An empty cache.
    #[must_use]
    pub(crate) fn new() -> Self {
        KernelCache::default()
    }

    /// Look up `fingerprint`, running `compile` only on a miss.
    ///
    /// # Errors
    ///
    /// Propagates the compiler's [`CompileError`] (failures are not
    /// cached; a later retry recompiles).
    pub(crate) fn get_or_compile(
        &mut self,
        fingerprint: u64,
        compile: impl FnOnce() -> Result<Compiled, CompileError>,
    ) -> Result<Arc<Compiled>, CompileError> {
        if let Some(hit) = self.entries.get(&fingerprint) {
            self.hits += 1;
            return Ok(Arc::clone(hit));
        }
        self.misses += 1;
        let compiled = Arc::new(compile()?);
        self.entries.insert(fingerprint, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Peek without counting or compiling.
    #[must_use]
    pub(crate) fn peek(&self, fingerprint: u64) -> Option<Arc<Compiled>> {
        self.entries.get(&fingerprint).map(Arc::clone)
    }

    /// Counters and occupancy.
    #[must_use]
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
        }
    }

    /// Drop every entry (counters are kept).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_core::kernels::gemm;
    use cypress_core::{CompilerOptions, CypressCompiler};
    use cypress_sim::MachineConfig;

    fn compiler_and_program() -> (
        CypressCompiler,
        (
            cypress_core::TaskRegistry,
            cypress_core::MappingSpec,
            Vec<cypress_core::EntryArg>,
        ),
    ) {
        let machine = MachineConfig::test_gpu();
        let parts = gemm::build(64, 64, 64, &machine).unwrap();
        let compiler = CypressCompiler::new(CompilerOptions {
            machine,
            ..Default::default()
        });
        (compiler, parts)
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_kernel() {
        let (compiler, (reg, mapping, args)) = compiler_and_program();
        let fp = compiler.fingerprint(&reg, &mapping, "gemm", &args);

        let mut cache = KernelCache::new();
        let mut pipeline_runs = 0;
        let first = cache
            .get_or_compile(fp, || {
                pipeline_runs += 1;
                compiler.compile(&reg, &mapping, "gemm", &args)
            })
            .unwrap();
        let second = cache
            .get_or_compile(fp, || {
                pipeline_runs += 1;
                compiler.compile(&reg, &mapping, "gemm", &args)
            })
            .unwrap();
        assert_eq!(
            pipeline_runs, 1,
            "cache hit must not re-run the pass pipeline"
        );
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit returns the identical kernel"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        let peeked = cache.peek(fp).expect("resident after the miss");
        assert!(Arc::ptr_eq(&peeked, &first), "peek returns the same kernel");
        assert_eq!(cache.stats(), stats, "peek counts nothing");
    }

    #[test]
    fn failures_are_not_cached() {
        let mut cache = KernelCache::new();
        let err = cache.get_or_compile(7, || {
            Err(cypress_core::CompileError::Backend("boom".into()))
        });
        assert!(err.is_err());
        assert_eq!(cache.stats().entries, 0);
        // A later success under the same key still compiles.
        let (compiler, (reg, mapping, args)) = compiler_and_program();
        cache
            .get_or_compile(7, || compiler.compile(&reg, &mapping, "gemm", &args))
            .unwrap();
        assert_eq!(cache.stats().entries, 1);
    }
}
