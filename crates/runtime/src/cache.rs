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
//! The cache is unbounded by default. Autotuning multiplies the number
//! of compiled variants per session (every candidate of a mapping space
//! passes through here), so `KernelCache::set_capacity` installs an
//! LRU bound: when an insert exceeds the capacity, least-recently-used
//! entries are evicted — never the entry the in-flight
//! `KernelCache::get_or_compile` just produced, which is pinned until
//! it has been returned to the caller.

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
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// One resident kernel plus its recency stamp.
#[derive(Debug)]
struct Entry {
    compiled: Arc<Compiled>,
    last_used: u64,
}

/// Fingerprint-keyed store of compiled kernels with an optional LRU
/// capacity.
#[derive(Debug, Default)]
pub struct KernelCache {
    entries: HashMap<u64, Entry>,
    capacity: Option<usize>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl KernelCache {
    /// An empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        KernelCache::default()
    }

    /// An empty cache holding at most `capacity` kernels (clamped to at
    /// least 1 — a cache that cannot hold the kernel it just compiled
    /// would thrash every lookup).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut cache = KernelCache::new();
        cache.set_capacity(Some(capacity));
        cache
    }

    /// Install (or remove, with `None`) the LRU bound. Shrinking below
    /// the current occupancy evicts least-recently-used entries
    /// immediately.
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity.map(|c| c.max(1));
        self.evict_over_capacity(None);
    }

    /// The current LRU bound, if any.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Evict LRU entries until the bound holds, never touching `pin`.
    fn evict_over_capacity(&mut self, pin: Option<u64>) {
        let Some(cap) = self.capacity else { return };
        while self.entries.len() > cap {
            let victim = self
                .entries
                .iter()
                .filter(|(fp, _)| Some(**fp) != pin)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| *fp);
            match victim {
                Some(fp) => {
                    self.entries.remove(&fp);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Look up `fingerprint`, running `compile` only on a miss. The
    /// produced entry is pinned against eviction for the duration of the
    /// call, so a bounded cache always returns a resident kernel.
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
        self.clock += 1;
        if let Some(hit) = self.entries.get_mut(&fingerprint) {
            hit.last_used = self.clock;
            self.hits += 1;
            return Ok(Arc::clone(&hit.compiled));
        }
        self.misses += 1;
        let compiled = Arc::new(compile()?);
        self.entries.insert(
            fingerprint,
            Entry {
                compiled: Arc::clone(&compiled),
                last_used: self.clock,
            },
        );
        self.evict_over_capacity(Some(fingerprint));
        Ok(compiled)
    }

    /// Peek without counting, compiling, or refreshing recency.
    #[must_use]
    pub fn peek(&self, fingerprint: u64) -> Option<Arc<Compiled>> {
        self.entries
            .get(&fingerprint)
            .map(|e| Arc::clone(&e.compiled))
    }

    /// Counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&mut self) {
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
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.entries),
            (1, 1, 0, 1)
        );
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

    #[test]
    fn lru_eviction_never_evicts_the_in_flight_compile() {
        let (compiler, (reg, mapping, args)) = compiler_and_program();
        let compile = || compiler.compile(&reg, &mapping, "gemm", &args);

        // Capacity 1: every new key must evict the *old* entry, never the
        // one just compiled (the pinned in-flight insert).
        let mut cache = KernelCache::with_capacity(1);
        cache.get_or_compile(1, compile).unwrap();
        let b = cache.get_or_compile(2, compile).unwrap();
        assert!(cache.peek(1).is_none(), "LRU entry evicted");
        let resident = cache.peek(2).expect("in-flight compile survives");
        assert!(Arc::ptr_eq(&b, &resident));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 1));
        // And the survivor is a genuine hit afterwards.
        cache.get_or_compile(2, compile).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lru_order_follows_use_not_insertion() {
        let (compiler, (reg, mapping, args)) = compiler_and_program();
        let compile = || compiler.compile(&reg, &mapping, "gemm", &args);

        let mut cache = KernelCache::with_capacity(2);
        cache.get_or_compile(1, compile).unwrap();
        cache.get_or_compile(2, compile).unwrap();
        // Touch 1 so 2 becomes least recently used.
        cache.get_or_compile(1, compile).unwrap();
        cache.get_or_compile(3, compile).unwrap();
        assert!(cache.peek(1).is_some(), "recently used entry survives");
        assert!(cache.peek(2).is_none(), "LRU entry evicted");
        assert!(cache.peek(3).is_some());
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_zero_clamps_to_one() {
        let (compiler, (reg, mapping, args)) = compiler_and_program();
        let compile = || compiler.compile(&reg, &mapping, "gemm", &args);

        let mut cache = KernelCache::new();
        for fp in 0..4u64 {
            cache.get_or_compile(fp, compile).unwrap();
        }
        assert_eq!(cache.stats().entries, 4);
        cache.set_capacity(Some(0));
        assert_eq!(cache.capacity(), Some(1), "zero clamps to one");
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 3);
        assert!(cache.peek(3).is_some(), "most recent survives the shrink");
    }
}
