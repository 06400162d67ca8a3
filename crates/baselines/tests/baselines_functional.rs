//! Functional correctness of the baseline kernels: each hand-scheduled
//! device program must compute the same results as the host oracles (they
//! share the simulator with the Cypress compiler's output, so this also
//! guards the comparison's fairness).

use cypress_baselines::hand::{attention_kernel, gemm_kernel, AttentionSchedule, GemmSchedule};
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::{tensor::reference, DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_gemm_schedule(warpspec: bool) -> GemmSchedule {
    GemmSchedule {
        tm: 64,
        tn: 64,
        tk: 32,
        wgs: 1,
        pipe: 2,
        warpspec,
        dual: false,
        serialize_dual: !warpspec,
        reduction: false,
        smem_reduction: !warpspec,
    }
}

#[test]
fn expert_gemm_matches_reference() {
    let machine = MachineConfig::test_gpu();
    let k = gemm_kernel("t", 1, 128, 64, 96, small_gemm_schedule(true));
    let mut rng = StdRng::seed_from_u64(31);
    let a = Tensor::random(DType::F16, &[128, 96], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[96, 64], &mut rng, -1.0, 1.0);
    let c = Tensor::zeros(DType::F16, &[128, 64]);
    let want = reference::matmul(&a, &b, DType::F16).unwrap();
    let run = Simulator::new(machine)
        .run_functional(&k, vec![c, a, b])
        .unwrap();
    assert!(run.params[0].relative_error(&want).unwrap() < 2e-2);
}

#[test]
fn bulk_sync_gemm_matches_reference() {
    let machine = MachineConfig::test_gpu();
    let k = gemm_kernel("t", 1, 64, 64, 128, small_gemm_schedule(false));
    let mut rng = StdRng::seed_from_u64(32);
    let a = Tensor::random(DType::F16, &[64, 128], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[128, 64], &mut rng, -1.0, 1.0);
    let c = Tensor::zeros(DType::F16, &[64, 64]);
    let want = reference::matmul(&a, &b, DType::F16).unwrap();
    let run = Simulator::new(machine)
        .run_functional(&k, vec![c, a, b])
        .unwrap();
    assert!(run.params[0].relative_error(&want).unwrap() < 2e-2);
}

#[test]
fn dual_gemm_matches_reference() {
    let machine = MachineConfig::test_gpu();
    let s = GemmSchedule {
        dual: true,
        ..small_gemm_schedule(true)
    };
    let k = gemm_kernel("t", 1, 64, 64, 64, s);
    let mut rng = StdRng::seed_from_u64(33);
    let a = Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7);
    let b1 = Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7);
    let b2 = Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7);
    let c = Tensor::zeros(DType::F16, &[64, 64]);
    let c1 = reference::matmul(&a, &b1, DType::F32).unwrap();
    let c2 = reference::matmul(&a, &b2, DType::F32).unwrap();
    let mut want = Tensor::zeros(DType::F16, &[64, 64]);
    for i in 0..64 * 64 {
        want.data_mut()[i] = DType::F16.quantize(c1.data()[i] + c2.data()[i]);
    }
    let run = Simulator::new(machine)
        .run_functional(&k, vec![c, a, b1, b2])
        .unwrap();
    assert!(run.params[0].relative_error(&want).unwrap() < 2e-2);
}

#[test]
fn gemm_reduction_matches_reference() {
    let machine = MachineConfig::test_gpu();
    let s = GemmSchedule {
        reduction: true,
        ..small_gemm_schedule(true)
    };
    let k = gemm_kernel("t", 1, 64, 64, 64, s);
    let mut rng = StdRng::seed_from_u64(34);
    let a = Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7);
    let b = Tensor::random(DType::F16, &[64, 64], &mut rng, -0.7, 0.7);
    let c = Tensor::zeros(DType::F16, &[64, 64]);
    let y = Tensor::zeros(DType::F16, &[64, 1]);
    let want_c = reference::matmul(&a, &b, DType::F16).unwrap();
    let want_y = reference::row_sum(&a, DType::F16).unwrap();
    let run = Simulator::new(machine)
        .run_functional(&k, vec![c, a, b, y])
        .unwrap();
    assert!(run.params[0].relative_error(&want_c).unwrap() < 2e-2);
    assert!(run.params[3].relative_error(&want_y).unwrap() < 2e-2);
}

fn attention_schedule(pingpong: bool, persistent: bool, bulk_sync: bool) -> AttentionSchedule {
    AttentionSchedule {
        br: 128,
        bc: 64,
        wgs: 2,
        pipe: 1,
        pingpong,
        persistent,
        bulk_sync,
    }
}

fn check_attention(s: AttentionSchedule, heads: usize, seq: usize, d: usize) {
    let machine = MachineConfig::test_gpu();
    let k = attention_kernel("t", heads, seq, d, machine.sms, s);
    let mut rng = StdRng::seed_from_u64(35);
    let rows = heads * seq;
    let q = Tensor::random(DType::F16, &[rows, d], &mut rng, -1.0, 1.0);
    let kk = Tensor::random(DType::F16, &[rows, d], &mut rng, -1.0, 1.0);
    let v = Tensor::random(DType::F16, &[rows, d], &mut rng, -1.0, 1.0);
    let o = Tensor::zeros(DType::F16, &[rows, d]);
    let run = Simulator::new(machine)
        .run_functional(&k, vec![o, q.clone(), kk.clone(), v.clone()])
        .unwrap();
    for h in 0..heads {
        let sl = |t: &Tensor| {
            Tensor::from_data(
                DType::F16,
                &[seq, d],
                t.data()[h * seq * d..(h + 1) * seq * d].to_vec(),
            )
            .unwrap()
        };
        let want = reference::attention(&sl(&q), &sl(&kk), &sl(&v), DType::F16).unwrap();
        let err = sl(&run.params[0]).relative_error(&want).unwrap();
        assert!(err < 3e-2, "head {h} relative error {err}");
    }
}

#[test]
fn warp_specialized_fa2_matches_reference() {
    check_attention(attention_schedule(false, false, false), 1, 256, 64);
}

#[test]
fn pingpong_fa3_matches_reference() {
    check_attention(attention_schedule(true, false, false), 1, 256, 64);
}

#[test]
fn persistent_fa3_matches_reference() {
    check_attention(attention_schedule(true, true, false), 2, 256, 64);
}

#[test]
fn bulk_sync_attention_matches_reference() {
    check_attention(attention_schedule(false, false, true), 1, 256, 64);
}

#[test]
fn bulk_sync_pingpong_attention_matches_reference() {
    check_attention(attention_schedule(true, false, true), 1, 256, 64);
}
