//! End-to-end engine tests: a hand-built warp-specialized, software-pipelined
//! GEMM kernel with the exact structure of the paper's Fig. 1b — DMA warp
//! issuing TMA loads into a multi-stage shared-memory pipeline, a compute
//! warpgroup issuing `wgmma`, producer/consumer mbarriers, and a TMA
//! store-out of the staged result.

use cypress_sim::{bytecode, Instr, MachineConfig, SimError, SimtOp, Simulator};
use cypress_tensor::{tensor::reference, DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common {
    pub mod gemm;
}
use common::gemm::{build_gemm, T_M};

fn random_operands(m: usize, n: usize, k: usize) -> (Tensor, Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(42);
    let a = Tensor::random(DType::F16, &[m, k], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[k, n], &mut rng, -1.0, 1.0);
    let c = Tensor::zeros(DType::F16, &[m, n]);
    (a, b, c)
}

#[test]
fn functional_gemm_matches_reference() {
    let (m, n, k) = (128, 128, 64);
    let kernel = build_gemm(m, n, k, 2, true);
    let (a, b, c) = random_operands(m, n, k);
    let reference = reference::matmul(&a, &b, DType::F16).unwrap();

    let sim = Simulator::new(MachineConfig::test_gpu());
    let run = sim.run_functional(&kernel, vec![a, b, c]).unwrap();
    let err = run.params[2].relative_error(&reference).unwrap();
    assert!(err < 1e-2, "relative error {err}");
}

#[test]
fn functional_gemm_multi_tile_k() {
    let (m, n, k) = (64, 64, 128);
    let kernel = build_gemm(m, n, k, 2, true);
    let (a, b, c) = random_operands(m, n, k);
    let reference = reference::matmul(&a, &b, DType::F16).unwrap();

    let sim = Simulator::new(MachineConfig::test_gpu());
    let run = sim.run_functional(&kernel, vec![a, b, c]).unwrap();
    let err = run.params[2].relative_error(&reference).unwrap();
    assert!(err < 1e-2, "relative error {err}");
}

#[test]
fn pipelining_reduces_makespan() {
    // Same problem, pipeline depth 1 vs 3: with depth 1 the DMA warp must
    // wait for the consumer each iteration, exposing TMA latency.
    let (m, n, k) = (64, 64, 2048);
    let sim = Simulator::new(MachineConfig::test_gpu());
    let shallow = sim.run_timing(&build_gemm(m, n, k, 1, true)).unwrap();
    let deep = sim.run_timing(&build_gemm(m, n, k, 3, true)).unwrap();
    assert!(
        deep.cycles < shallow.cycles * 0.8,
        "deep {} vs shallow {}",
        deep.cycles,
        shallow.cycles
    );
    assert!(deep.tc_utilization > shallow.tc_utilization);
}

#[test]
fn deep_pipeline_saturates_tensor_core() {
    let (m, n, k) = (64, 64, 4096);
    let sim = Simulator::new(MachineConfig::test_gpu());
    let r = sim.run_timing(&build_gemm(m, n, k, 3, true)).unwrap();
    assert!(
        r.tc_utilization > 0.55,
        "tc utilization {}",
        r.tc_utilization
    );
}

#[test]
fn missing_consumer_arrive_deadlocks() {
    let kernel = build_gemm(64, 64, 512, 2, false);
    let sim = Simulator::new(MachineConfig::test_gpu());
    match sim.run_timing(&kernel) {
        Err(SimError::Deadlock { blocked }) => {
            assert!(!blocked.is_empty());
            let all = blocked.join(" ");
            assert!(all.contains("mbar"), "diagnostic: {all}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn timing_report_is_deterministic() {
    let kernel = build_gemm(128, 128, 256, 2, true);
    let sim = Simulator::new(MachineConfig::test_gpu());
    let a = sim.run_timing(&kernel).unwrap();
    let b = sim.run_timing(&kernel).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.events, b.events);
}

#[test]
fn grid_scales_waves() {
    // 16 CTAs on a 4-SM machine: 4 per SM, simulated as the busiest SM's 4.
    let kernel = build_gemm(256, 256, 128, 2, true);
    let sim = Simulator::new(MachineConfig::test_gpu());
    let r = sim.run_timing(&kernel).unwrap();
    assert_eq!(r.ctas, 16);
    assert_eq!(r.active_sms, 4);
    assert_eq!(r.simulated_ctas, 4);
    // More CTAs than one wave: makespan exceeds a single CTA's time.
    let single = sim.run_timing(&build_gemm(64, 64, 128, 2, true)).unwrap();
    assert!(r.cycles > single.cycles);
}

#[test]
fn functional_and_timing_agree_on_schedule_length() {
    let kernel = build_gemm(64, 64, 128, 2, true);
    let sim = Simulator::new(MachineConfig::test_gpu());
    let (a, b, c) = random_operands(64, 64, 128);
    let f = sim.run_functional(&kernel, vec![a, b, c]).unwrap();
    let t = sim.run_timing(&kernel).unwrap();
    // One CTA only: functional (all CTAs) and timing (busiest SM) simulate
    // the same work, event for event.
    assert_eq!(f.events, t.events);
}

/// A pre-lowered program is accepted for the kernel it was lowered from
/// (or a clone of it) and rejected, in both modes, for a kernel that
/// differs in as little as one slice extent.
#[test]
fn a_program_runs_only_the_kernel_it_was_lowered_from() {
    let kernel = build_gemm(64, 64, 128, 2, true);
    let program = bytecode::lower(&kernel).unwrap();
    let mut other = kernel.clone();
    match &mut other.roles[1].body[0] {
        Instr::Simt(SimtOp::Fill { dst, .. }) => dst.rows = T_M / 2,
        first => panic!("the compute role starts with its accumulator fill, not {first:?}"),
    }
    let sim = Simulator::new(MachineConfig::test_gpu());
    let operands = || {
        let (a, b, c) = random_operands(64, 64, 128);
        vec![a, b, c]
    };

    let rejected = |e: SimError| match e {
        SimError::Internal { what } => {
            assert!(what.contains("lowered from a different kernel"), "{what}");
        }
        other => panic!("expected the lowered-program guard, got {other:?}"),
    };
    rejected(sim.run_timing_lowered(&other, &program).unwrap_err());
    rejected(
        sim.run_functional_lowered(&other, &program, operands())
            .unwrap_err(),
    );

    let clone = kernel.clone();
    let timed = sim.run_timing_lowered(&clone, &program).unwrap();
    assert_eq!(timed, sim.run_timing(&kernel).unwrap());
    let ran = sim
        .run_functional_lowered(&clone, &program, operands())
        .unwrap();
    let direct = sim.run_functional(&kernel, operands()).unwrap();
    assert_eq!(ran.params[2].data(), direct.params[2].data());
}
