//! The contract of `Simulator::run_timing_bounded`, checked against a
//! kernel's whole timing run. Shared by `differential.rs` (random
//! kernels) and the bench crate's `timing_golden.rs` (the 544-kernel
//! corpus), which includes this file by path.

use cypress_sim::{bytecode, Kernel, Simulator, TimingOutcome, TimingReport};

/// A run bounded at `report`'s own cycles is `report` bit for bit, and
/// one bounded just below them or at half of them stops, at a bound past
/// its cutoff and no later than the cycles.
pub fn assert_bounded_runs_keep_their_contract(
    sim: &Simulator,
    kernel: &Kernel,
    program: &bytecode::Program,
    report: &TimingReport,
    label: &str,
) {
    let cycles = report.cycles;
    match sim.run_timing_bounded(kernel, program, cycles) {
        Ok(TimingOutcome::Done(done)) => assert_eq!(
            format!("{done:?}"),
            format!("{report:?}"),
            "{label}: a run bounded at its cycles differs from the whole run"
        ),
        other => panic!("{label}: a run bounded at its {cycles} cycles ended {other:?}"),
    }
    for cutoff in [cycles.next_down(), 0.5 * cycles] {
        assert_bounded_run_stops(sim, kernel, program, cycles, cutoff, label);
    }
}

/// A run of `cycles` bounded at `cutoff < cycles` stops at a bound past
/// `cutoff` and no later than `cycles`.
pub fn assert_bounded_run_stops(
    sim: &Simulator,
    kernel: &Kernel,
    program: &bytecode::Program,
    cycles: f64,
    cutoff: f64,
    label: &str,
) {
    match sim.run_timing_bounded(kernel, program, cutoff) {
        Ok(TimingOutcome::Exceeded { bound }) => assert!(
            cutoff < bound && bound <= cycles,
            "{label}: bounded at {cutoff}, stopped at {bound} of {cycles} cycles"
        ),
        other => panic!("{label}: a run of {cycles} cycles bounded at {cutoff} ended {other:?}"),
    }
}
