//! A functional run keeps one CTA in flight and hands a retired CTA's
//! shared-memory and fragment buffers to the next one, so the per-CTA
//! buffers it allocates are one CTA's set whatever the grid size; and a
//! retired CTA keeps its buffers while a copy it issued is still in
//! flight. The allocation counter is per thread and counts only the
//! byte sizes of the GEMM's per-CTA buffers, so the executors, events
//! and operand boxes a larger grid allocates do not disturb it.

use cypress_sim::{Expr, Instr, KernelBuilder, MachineConfig, RoleKind, SimtOp, Simulator, Slice};
use cypress_tensor::{DType, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common {
    pub mod gemm;
}
use common::gemm::{build_gemm, T_M};

/// Counts the `alloc`s and `realloc`s of each thread whose size is one of
/// the two it watches.
struct Counting;

thread_local! {
    static WATCHED: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // A thread past its TLS teardown still allocates; it is not counted.
    if WATCHED.try_with(|w| w.get().contains(&size)) == Ok(true) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The GEMM's per-CTA buffers at a pipeline depth of four: `sA` and `sB`
/// (64 x 32 and 32 x 64 `f32` elements, four stages), then `sC` and the
/// accumulator fragment (64 x 64).
const PIPE: usize = 4;
const BUFFER_BYTES: [usize; 2] = [64 * 32 * PIPE * 4, 64 * 64 * 4];

/// One functional GEMM grid of `ctas` CTAs on a fresh simulator: the
/// per-CTA buffers it allocated.
fn buffers_allocated(ctas: usize) -> usize {
    const K: usize = 128;
    let (m, n) = (T_M * ctas / 4, T_M * 4);
    let kernel = build_gemm(m, n, K, PIPE, true);
    let params = vec![
        Tensor::full(DType::F16, &[m, K], 0.5),
        Tensor::full(DType::F16, &[K, n], 0.25),
        Tensor::zeros(DType::F16, &[m, n]),
    ];
    let sim = Simulator::new(MachineConfig::test_gpu());
    WATCHED.with(|w| w.set(BUFFER_BYTES));
    ALLOCATIONS.with(|n| n.set(0));
    let run = sim.run_functional(&kernel, params).expect("the GEMM runs");
    WATCHED.with(|w| w.set([0; 2]));
    assert!(
        run.params[2].data().iter().all(|&x| x == 16.0),
        "{ctas} CTAs: C = 128 x 0.5 x 0.25"
    );
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_functional_grid_allocates_one_ctas_buffers_at_any_size() {
    assert_eq!(buffers_allocated(64), 4, "sA, sB, sC and acc, once");
    assert_eq!(buffers_allocated(256), 4);
}

/// Each CTA copies its 64 rows of `input` into shared memory and stores
/// them to `out` with a TMA store, then retires without waiting for the
/// store: the store reads the CTA's shared memory after the next CTA
/// has started. Had the CTA's buffers gone to the next one when it
/// retired, the store would find no tile of its CTA to read.
#[test]
fn a_store_in_flight_at_retirement_still_writes_its_tile() {
    const CTAS: usize = 4;
    const ROWS: usize = 64;
    const COLS: usize = 32;
    let mut b = KernelBuilder::new("store-and-retire", [CTAS, 1, 1]);
    let input = b.param("input", CTAS * ROWS, COLS, DType::F16);
    let out = b.param("out", CTAS * ROWS, COLS, DType::F16);
    let tile = b.smem("tile", ROWS, COLS, DType::F16, 1);
    let rows = || Expr::block_x() * ROWS as i64;
    b.role(
        RoleKind::Compute(0),
        vec![
            Instr::Simt(SimtOp::Copy {
                src: Slice::param(input).at(rows(), 0).extent(ROWS, COLS),
                dst: Slice::smem(tile).extent(ROWS, COLS),
            }),
            Instr::TmaStore {
                src: Slice::smem(tile).extent(ROWS, COLS),
                dst: Slice::param(out).at(rows(), 0).extent(ROWS, COLS),
            },
        ],
    );
    let kernel = b.build();
    let values: Vec<f32> = (0..CTAS * ROWS * COLS).map(|i| (i % 2048) as f32).collect();
    let sim = Simulator::new(MachineConfig::test_gpu());
    // The second run recycles the first's parked buffers as well.
    for _ in 0..2 {
        let input = Tensor::from_data(DType::F16, &[CTAS * ROWS, COLS], values.clone())
            .expect("shape matches data");
        let run = sim
            .run_functional(
                &kernel,
                vec![input, Tensor::zeros(DType::F16, &[CTAS * ROWS, COLS])],
            )
            .expect("the kernel runs");
        assert_eq!(run.params[1].data(), values.as_slice());
    }
}
