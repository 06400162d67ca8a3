//! A timing run's events own no heap memory (see the engine's module
//! header): what a run allocates depends on its grid and its kernel's
//! declarations, never on how many events it processes. The counter is
//! per thread, so libtest's main thread, which allocates now and then
//! while it waits for the test's, does not disturb the count.

use cypress_sim::{bytecode, MachineConfig, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common {
    pub mod gemm;
}
use common::gemm::build_gemm;

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

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// The same GEMM grid at `K` and at `4·K`: four times the main-loop
/// trips, and so about four times the events, for the same allocations.
#[test]
fn a_timing_run_allocates_the_same_at_four_times_the_events() {
    const M: usize = 512;
    const K: usize = 512;
    let sim = Simulator::new(MachineConfig::h100_sxm5());
    let timed = |k| {
        let kernel = build_gemm(M, M, k, 3, true);
        let program = bytecode::lower(&kernel).expect("the GEMM lowers");
        let before = allocations();
        let report = sim
            .run_timing_lowered(&kernel, &program)
            .expect("the GEMM runs");
        (allocations() - before, report.events)
    };
    let (short, short_events) = timed(K);
    let (long, long_events) = timed(4 * K);
    assert!(
        long_events > 3 * short_events,
        "{short_events} -> {long_events} events"
    );
    assert!(short > 0, "a run allocates its executors");
    assert_eq!(
        short, long,
        "{short_events} events made {short} allocations, {long_events} made {long}"
    );
}
