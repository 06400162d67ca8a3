//! Allocation budget of dependence analysis.
//!
//! `depan::analyze` should cost what the IR it emits costs: a few
//! allocations per op, tensor and partition (names, `pre` lists, piece
//! paths), nothing per lane of an MMA partition and nothing per scope a
//! tensor access passes through. The count below is exact and repeats
//! run to run (the analyzer is deterministic and single-threaded, and
//! the counter is per thread: libtest's main thread allocates now and
//! then while it waits for the test's), so it can gate where a timing
//! could not. The analyzer this replaced
//! made 19 329 allocations on the GEMM.

use cypress_core::kernels::attention::{self, Algorithm};
use cypress_core::kernels::gemm;
use cypress_core::passes::depan;
use cypress_sim::MachineConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every `alloc` and `realloc` each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A thread past its TLS teardown still allocates; it is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn analyze_stays_within_its_allocation_budget() {
    let machine = MachineConfig::h100_sxm5();
    let programs = [
        (
            "gemm",
            gemm::build(4096, 4096, 4096, &machine).expect("paper kernel builds"),
            400,
        ),
        (
            "fa",
            attention::build(Algorithm::Fa3, 16, 4096, 128, &machine).expect("paper kernel builds"),
            900,
        ),
    ];
    for (entry, (reg, mapping, args), budget) in &programs {
        let count = || {
            let before = ALLOCATIONS.get();
            let prog = depan::analyze(reg, mapping, entry, args).expect("paper kernel analyzes");
            let after = ALLOCATIONS.get();
            (after - before, prog.op_count())
        };
        let (first, ops) = count();
        let (second, _) = count();
        assert_eq!(first, second, "{entry}: the count must repeat exactly");
        println!("{entry}: {first} allocations for {ops} ops");
        assert!(
            first <= *budget,
            "{entry}: depan::analyze made {first} allocations for {ops} ops, budget {budget}"
        );
    }
}
