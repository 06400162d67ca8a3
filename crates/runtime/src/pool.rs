//! Buffer pool for intermediate tensors.
//!
//! Graph execution allocates one buffer per `Zeros` binding per launch;
//! a serving workload launches the same graph over and over, so those
//! allocations dominate steady-state churn. The pool keeps released
//! buffers keyed by `(dtype, element count)` and hands them back zeroed,
//! turning per-launch allocation into reuse.
//!
//! By default the pool is unbounded, which is right for a server that
//! launches one graph shape forever — but a session serving
//! *shape-diverse* graphs would otherwise park one buffer per distinct
//! `(dtype, element count)` it ever sees. `BufferPool::set_capacity`
//! bounds the number of parked buffers: when a release would exceed the
//! bound, the least-recently-released buffer is dropped, and
//! [`PoolStats::evicted`] counts how many were let go.

use cypress_tensor::{DType, Tensor};
use std::collections::HashMap;

/// Allocation counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out in total.
    pub acquired: u64,
    /// Acquisitions served by reuse instead of fresh allocation.
    pub reused: u64,
    /// Buffers currently parked in the pool.
    pub free: usize,
    /// Buffers dropped to keep the pool within its capacity.
    pub evicted: u64,
    /// The configured bound on parked buffers (`None` = unbounded).
    pub capacity: Option<usize>,
}

/// A free-list of tensors keyed by `(dtype, element count)`, optionally
/// bounded with least-recently-released eviction.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    /// Parked buffers per size class, tagged with their release stamp.
    free: HashMap<(DType, usize), Vec<(u64, Tensor)>>,
    /// Monotonic release counter (the LRU clock).
    stamp: u64,
    capacity: Option<usize>,
    acquired: u64,
    reused: u64,
    evicted: u64,
}

impl BufferPool {
    /// An empty, unbounded pool.
    #[must_use]
    pub(crate) fn new() -> Self {
        BufferPool::default()
    }

    /// Bound the pool to at most `capacity` parked buffers (`None`
    /// removes the bound). Shrinking below the current occupancy evicts
    /// the least-recently-released buffers immediately.
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        if let Some(cap) = capacity {
            while self.free_len() > cap {
                self.evict_oldest();
            }
        }
    }

    fn free_len(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    /// Drop the parked buffer with the smallest release stamp.
    fn evict_oldest(&mut self) {
        let oldest_key = self
            .free
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .min_by_key(|(_, v)| v.first().map_or(u64::MAX, |(s, _)| *s))
            .map(|(k, _)| *k);
        if let Some(key) = oldest_key {
            if let Some(bucket) = self.free.get_mut(&key) {
                if !bucket.is_empty() {
                    bucket.remove(0);
                    self.evicted += 1;
                }
                if bucket.is_empty() {
                    self.free.remove(&key);
                }
            }
        }
    }

    /// A zeroed `rows x cols` tensor of `dtype`, reusing a released
    /// buffer when one of the right size exists.
    pub(crate) fn acquire(&mut self, dtype: DType, rows: usize, cols: usize) -> Tensor {
        self.acquired += 1;
        let key = (dtype, rows * cols);
        if let Some((_, mut t)) = self.free.get_mut(&key).and_then(Vec::pop) {
            self.reused += 1;
            // Zero is exact in every dtype, so a buffer of the right shape
            // is zeroed in place without a second quantizing pass.
            if t.shape() == [rows, cols] {
                t.data_mut().fill(0.0);
                return t;
            }
            let mut data = t.into_data();
            data.fill(0.0);
            // Same element count, so the reshape reuses the storage; a
            // mismatch (impossible by the free-list key) falls back to a
            // fresh allocation rather than panicking.
            return Tensor::from_data(dtype, &[rows, cols], data)
                .unwrap_or_else(|_| Tensor::zeros(dtype, &[rows, cols]));
        }
        Tensor::zeros(dtype, &[rows, cols])
    }

    /// Return a buffer to the pool for later reuse, evicting the
    /// least-recently-released buffer when the pool is at capacity.
    pub(crate) fn release(&mut self, t: Tensor) {
        if self.capacity == Some(0) {
            self.evicted += 1;
            return;
        }
        if let Some(cap) = self.capacity {
            while self.free_len() >= cap {
                self.evict_oldest();
            }
        }
        let key = (t.dtype(), t.num_elements());
        self.stamp += 1;
        self.free.entry(key).or_default().push((self.stamp, t));
    }

    /// Counters and occupancy.
    #[must_use]
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            acquired: self.acquired,
            reused: self.reused,
            free: self.free_len(),
            evicted: self.evicted,
            capacity: self.capacity,
        }
    }

    /// Drop all parked buffers (counters and the capacity are kept).
    pub(crate) fn clear(&mut self) {
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn released_buffers_are_reused_and_zeroed() {
        let mut pool = BufferPool::new();
        let mut t = pool.acquire(DType::F16, 8, 8);
        t.data_mut()[0] = 5.0;
        pool.release(t);
        // Same element count, different shape: still reusable.
        let t2 = pool.acquire(DType::F16, 4, 16);
        assert_eq!(t2.shape(), &[4, 16]);
        assert!(
            t2.data().iter().all(|&v| v == 0.0),
            "reused buffers are zeroed"
        );
        let stats = pool.stats();
        assert_eq!((stats.acquired, stats.reused, stats.free), (2, 1, 0));
    }

    #[test]
    fn same_shape_reuse_zeroes_in_place() {
        let mut pool = BufferPool::new();
        let mut t = pool.acquire(DType::BF16, 4, 8);
        t.data_mut().fill(3.0);
        let storage = t.data().as_ptr();
        pool.release(t);
        let t2 = pool.acquire(DType::BF16, 4, 8);
        assert_eq!(t2.data().as_ptr(), storage, "the parked storage is reused");
        assert!(t2.data().iter().all(|&v| v == 0.0));
        assert_eq!((t2.dtype(), t2.shape()), (DType::BF16, &[4, 8][..]));
    }

    #[test]
    fn mismatched_sizes_allocate_fresh() {
        let mut pool = BufferPool::new();
        let t = pool.acquire(DType::F32, 4, 4);
        pool.release(t);
        let _big = pool.acquire(DType::F32, 8, 8);
        assert_eq!(pool.stats().reused, 0);
        assert_eq!(pool.stats().free, 1);
    }

    #[test]
    fn bounded_pool_evicts_least_recently_released() {
        let mut pool = BufferPool::new();
        pool.set_capacity(Some(2));
        // Three distinct size classes: the first released gets evicted.
        for size in [4usize, 8, 16] {
            let t = pool.acquire(DType::F16, size, 1);
            pool.release(t);
        }
        let stats = pool.stats();
        assert_eq!(stats.free, 2);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.capacity, Some(2));
        // The 4-element class is gone; the other two still serve reuse.
        assert_eq!(pool.acquire(DType::F16, 8, 1).num_elements(), 8);
        assert_eq!(pool.stats().reused, 1);
        let before = pool.stats().reused;
        let _fresh = pool.acquire(DType::F16, 4, 1);
        assert_eq!(pool.stats().reused, before, "evicted class allocates fresh");
    }

    #[test]
    fn zero_capacity_parks_nothing() {
        let mut pool = BufferPool::new();
        pool.set_capacity(Some(0));
        let t = pool.acquire(DType::F16, 4, 4);
        pool.release(t);
        assert_eq!(pool.stats().free, 0);
        assert_eq!(pool.stats().evicted, 1);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let mut pool = BufferPool::new();
        for size in [4usize, 8, 16, 32] {
            let t = pool.acquire(DType::F16, size, 1);
            pool.release(t);
        }
        assert_eq!(pool.stats().free, 4);
        pool.set_capacity(Some(1));
        assert_eq!(pool.stats().free, 1);
        assert_eq!(pool.stats().evicted, 3);
    }
}
