//! Timing reports produced by simulation runs.

use cypress_tensor::DType;
use std::fmt;

/// Bytes moved by the functional data path, broken down by element type.
///
/// Counted at the *apply* level: every functional copy, WGMMA, and SIMT
/// operation adds the bytes of each slice it reads or writes to the
/// bucket of that slice's element type (fragments are unrounded `f32`).
/// Timing runs move no data, so their counters stay zero — the
/// discrete-event schedule and every cycle count are untouched by this
/// accounting. The counters are a deterministic function of the kernel
/// and grid, so they are bit-identical across runs and host parallelism
/// levels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyBytes {
    /// Bytes of `f16` slices touched by functional applies.
    pub f16: u64,
    /// Bytes of `bf16` slices touched by functional applies.
    pub bf16: u64,
    /// Bytes of `f32` slices (including fragments) touched by
    /// functional applies.
    pub f32: u64,
}

impl ApplyBytes {
    /// Add `bytes` to the bucket of `dtype`.
    pub fn add(&mut self, dtype: DType, bytes: u64) {
        match dtype {
            DType::F16 => self.f16 += bytes,
            DType::BF16 => self.bf16 += bytes,
            DType::F32 => self.f32 += bytes,
        }
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: ApplyBytes) {
        self.f16 += other.f16;
        self.bf16 += other.bf16;
        self.f32 += other.f32;
    }

    /// Total bytes across every element type.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.f16 + self.bf16 + self.f32
    }
}

impl fmt::Display for ApplyBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f16 {} B | bf16 {} B | f32 {} B | total {} B",
            self.f16,
            self.bf16,
            self.f32,
            self.total()
        )
    }
}

/// Result of a timing (or functional) simulation of one kernel launch.
///
/// Utilization figures refer to the simulated (busiest) SM; the benchmark
/// harness uses [`TimingReport::seconds`] and computes figure-specific
/// TFLOP/s from the workload's algorithmic FLOP count.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Kernel name.
    pub kernel: String,
    /// Makespan in cycles, including launch overheads.
    pub cycles: f64,
    /// Makespan in seconds at the machine clock.
    pub seconds: f64,
    /// Tensor Core FLOPs executed across the whole launch.
    pub tc_flops: f64,
    /// SIMT FLOPs executed across the whole launch.
    pub simt_flops: f64,
    /// `(tc_flops + simt_flops) / seconds / 1e12`.
    pub achieved_tflops: f64,
    /// Tensor Core busy fraction on the simulated SM.
    pub tc_utilization: f64,
    /// TMA unit busy fraction on the simulated SM.
    pub tma_utilization: f64,
    /// SIMT ALU busy fraction on the simulated SM.
    pub simt_utilization: f64,
    /// Logical CTAs launched.
    pub ctas: usize,
    /// CTAs actually simulated (the busiest SM's share).
    pub simulated_ctas: usize,
    /// SMs with at least one CTA.
    pub active_sms: usize,
    /// Resident CTAs per SM (occupancy).
    pub ctas_per_sm: usize,
    /// Global bytes loaded across the launch.
    pub load_bytes: f64,
    /// Global bytes stored across the launch.
    pub store_bytes: f64,
    /// Estimated L2 hit fraction applied to loads.
    pub l2_hit: f64,
    /// Discrete events processed.
    pub events: u64,
}

impl TimingReport {
    /// TFLOP/s for an externally supplied algorithmic FLOP count (the
    /// number a paper figure reports, e.g. `2·M·N·K` for GEMM).
    #[must_use]
    pub fn tflops_for(&self, algorithmic_flops: f64) -> f64 {
        algorithmic_flops / self.seconds / 1e12
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel {:<24} {:>12.0} cycles  {:>9.3} us",
            self.kernel,
            self.cycles,
            self.seconds * 1e6
        )?;
        writeln!(
            f,
            "  {:.1} TFLOP/s | util tc {:.2} tma {:.2} simt {:.2} | l2 hit {:.2}",
            self.achieved_tflops,
            self.tc_utilization,
            self.tma_utilization,
            self.simt_utilization,
            self.l2_hit
        )?;
        write!(
            f,
            "  ctas {} (sim {}) on {} sms x{} | {:.1} MB loaded, {:.1} MB stored | {} events",
            self.ctas,
            self.simulated_ctas,
            self.active_sms,
            self.ctas_per_sm,
            self.load_bytes / 1e6,
            self.store_bytes / 1e6,
            self.events
        )
    }
}

/// How a bounded timing run ended (see
/// `Simulator::run_timing_bounded`).
#[derive(Debug, Clone, PartialEq)]
pub enum TimingOutcome {
    /// The run ended at or before the cutoff: the report an unbounded
    /// run returns, bit for bit.
    Done(TimingReport),
    /// The run stopped once it was proven to end past the cutoff.
    Exceeded {
        /// A proven lower bound on the cycles the whole run would
        /// report, above the cutoff.
        bound: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimingReport {
        TimingReport {
            kernel: "gemm".into(),
            cycles: 1000.0,
            seconds: 1e-6,
            tc_flops: 2e9,
            simt_flops: 0.0,
            achieved_tflops: 2000.0,
            tc_utilization: 0.9,
            tma_utilization: 0.5,
            simt_utilization: 0.1,
            ctas: 64,
            simulated_ctas: 4,
            active_sms: 16,
            ctas_per_sm: 1,
            load_bytes: 1e6,
            store_bytes: 1e5,
            l2_hit: 0.9,
            events: 1234,
        }
    }

    #[test]
    fn tflops_for_uses_seconds() {
        let r = sample();
        assert!((r.tflops_for(1e12) - 1e6).abs() < 1e-6);
    }

    #[test]
    fn display_mentions_kernel() {
        assert!(sample().to_string().contains("gemm"));
    }
}
