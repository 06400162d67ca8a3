//! A timing run's events own no heap memory (see the engine's module
//! header): what a run allocates depends on its grid and its kernel's
//! declarations, never on how many events it processes. And lowering a
//! kernel allocates what its program holds, not a copy of each index
//! expression it value-numbers. The counter is per thread, so libtest's
//! main thread, which allocates now and then while it waits for the
//! test's, does not disturb the count.

use cypress_core::kernels::attention::{self, Algorithm};
use cypress_core::kernels::gemm;
use cypress_core::{CompilerOptions, CypressCompiler};
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

/// `bytecode::lower` of the default 4096³ GEMM and of FA3 makes exactly
/// these allocations: the program's instruction streams, slice table and
/// preludes, and its per-instruction value-numbering tables, which are
/// cleared, not rebuilt, between instructions. The count is exact and
/// repeats run to run (lowering is deterministic), so it gates where a
/// timing could not. Keying the value numbering on cloned expression
/// trees made 347 on the GEMM and 777 on FA3.
#[test]
fn lowering_allocates_exactly_what_its_program_holds() {
    let machine = MachineConfig::h100_sxm5();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        dump_ir: false,
    });
    let kernels = [
        (
            "gemm",
            gemm::build(4096, 4096, 4096, &machine).expect("paper kernel builds"),
            65,
        ),
        (
            "fa",
            attention::build(Algorithm::Fa3, 16, 4096, 128, &machine).expect("paper kernel builds"),
            221,
        ),
    ];
    for (entry, (registry, mapping, args), expected) in &kernels {
        let kernel = compiler
            .compile(registry, mapping, entry, args)
            .expect("paper kernel compiles")
            .kernel;
        let count = || {
            let before = allocations();
            bytecode::lower(&kernel).expect("paper kernel lowers");
            allocations() - before
        };
        let first = count();
        assert_eq!(first, count(), "{entry}: the count must repeat exactly");
        assert_eq!(
            first, *expected,
            "{entry}: bytecode::lower made {first} allocations"
        );
    }
}
