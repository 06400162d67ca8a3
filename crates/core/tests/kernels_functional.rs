//! Functional correctness of every evaluation kernel: each compiled
//! Cypress program is executed on the simulator and checked against the
//! host reference oracle.

use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::{attention, batched, comm, dual_gemm, gemm, gemm_reduction};
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::{tensor::reference, DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn compile_and_run(
    reg: &cypress_core::TaskRegistry,
    mapping: &cypress_core::MappingSpec,
    name: &str,
    args: &[cypress_core::EntryArg],
    params: Vec<Tensor>,
) -> Vec<Tensor> {
    let machine = MachineConfig::test_gpu();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let compiled = compiler.compile(reg, mapping, name, args).unwrap();
    let sim = Simulator::new(machine);
    sim.run_functional(&compiled.kernel, params).unwrap().params
}

#[test]
fn batched_gemm_matches_reference() {
    let machine = MachineConfig::test_gpu();
    let (l, m, n, k) = (2, 64, 64, 64);
    let (reg, mapping, args) = batched::build(l, m, n, k, &machine).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let a = Tensor::random(DType::F16, &[l * m, k], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[l * k, n], &mut rng, -1.0, 1.0);
    let c = Tensor::zeros(DType::F16, &[l * m, n]);

    let out = compile_and_run(
        &reg,
        &mapping,
        "bgemm",
        &args,
        vec![c, a.clone(), b.clone()],
    );
    // Check each batch element against its own reference GEMM.
    for li in 0..l {
        let al = Tensor::from_data(
            DType::F16,
            &[m, k],
            a.data()[li * m * k..(li + 1) * m * k].to_vec(),
        )
        .unwrap();
        let bl = Tensor::from_data(
            DType::F16,
            &[k, n],
            b.data()[li * k * n..(li + 1) * k * n].to_vec(),
        )
        .unwrap();
        let want = reference::matmul(&al, &bl, DType::F16).unwrap();
        let got = Tensor::from_data(
            DType::F16,
            &[m, n],
            out[0].data()[li * m * n..(li + 1) * m * n].to_vec(),
        )
        .unwrap();
        let err = got.relative_error(&want).unwrap();
        assert!(err < 2e-2, "batch {li}: relative error {err}");
    }
}

#[test]
fn dual_gemm_matches_reference() {
    let machine = MachineConfig::test_gpu();
    let (m, n, k) = (64, 64, 128);
    let (reg, mapping, args) = dual_gemm::build(m, n, k, &machine).unwrap();
    let mut rng = StdRng::seed_from_u64(22);
    let a = Tensor::random(DType::F16, &[m, k], &mut rng, -0.7, 0.7);
    let b1 = Tensor::random(DType::F16, &[k, n], &mut rng, -0.7, 0.7);
    let b2 = Tensor::random(DType::F16, &[k, n], &mut rng, -0.7, 0.7);
    let c = Tensor::zeros(DType::F16, &[m, n]);

    let c1 = reference::matmul(&a, &b1, DType::F32).unwrap();
    let c2 = reference::matmul(&a, &b2, DType::F32).unwrap();
    let mut want = Tensor::zeros(DType::F16, &[m, n]);
    for i in 0..m * n {
        want.data_mut()[i] = DType::F16.quantize(c1.data()[i] + c2.data()[i]);
    }

    let out = compile_and_run(&reg, &mapping, "dual", &args, vec![c, a, b1, b2]);
    let err = out[0].relative_error(&want).unwrap();
    assert!(err < 2e-2, "relative error {err}");
}

#[test]
fn gemm_reduction_matches_reference() {
    let machine = MachineConfig::test_gpu();
    let (m, n, k) = (64, 64, 128);
    let cfg = gemm::GemmConfig::test();
    let (reg, mapping, args) = gemm_reduction::build(m, n, k, &machine).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let a = Tensor::random(DType::F16, &[m, k], &mut rng, -0.7, 0.7);
    let b = Tensor::random(DType::F16, &[k, n], &mut rng, -0.7, 0.7);
    let c = Tensor::zeros(DType::F16, &[m, n]);
    let y = Tensor::zeros(DType::F16, &[m, n / cfg.v]);

    let want_c = reference::matmul(&a, &b, DType::F16).unwrap();
    let want_y = reference::row_sum(&a, DType::F16).unwrap();

    let out = compile_and_run(&reg, &mapping, "gr", &args, vec![c, y, a, b]);
    let err_c = out[0].relative_error(&want_c).unwrap();
    assert!(err_c < 2e-2, "C relative error {err_c}");
    // Sum the per-block-column partials of Y.
    let nv = n / cfg.v;
    let mut y_total = Tensor::zeros(DType::F32, &[m, 1]);
    for i in 0..m {
        let s: f32 = (0..nv).map(|j| out[1].data()[i * nv + j]).sum();
        y_total.data_mut()[i] = s;
    }
    let err_y = y_total.relative_error(&want_y).unwrap();
    assert!(err_y < 2e-2, "Y relative error {err_y}");
}

fn attention_case(alg: attention::Algorithm, heads: usize, seq: usize, d: usize) {
    let machine = MachineConfig::test_gpu();
    let (reg, mapping, args) = attention::build(alg, heads, seq, d, &machine).unwrap();
    let mut rng = StdRng::seed_from_u64(24);
    let rows = heads * seq;
    let q = Tensor::random(DType::F16, &[rows, d], &mut rng, -1.0, 1.0);
    let k = Tensor::random(DType::F16, &[rows, d], &mut rng, -1.0, 1.0);
    let v = Tensor::random(DType::F16, &[rows, d], &mut rng, -1.0, 1.0);
    let o = Tensor::zeros(DType::F16, &[rows, d]);

    let out = compile_and_run(
        &reg,
        &mapping,
        "fa",
        &args,
        vec![o, q.clone(), k.clone(), v.clone()],
    );

    for h in 0..heads {
        let sl = |t: &Tensor| {
            Tensor::from_data(
                DType::F16,
                &[seq, d],
                t.data()[h * seq * d..(h + 1) * seq * d].to_vec(),
            )
            .unwrap()
        };
        let want = reference::attention(&sl(&q), &sl(&k), &sl(&v), DType::F16).unwrap();
        let got = sl(&out[0]);
        let err = got.relative_error(&want).unwrap();
        assert!(err < 3e-2, "head {h}: relative error {err}");
    }
}

#[test]
fn all_reduce_matches_elementwise_sum() {
    let machine = MachineConfig::test_gpu();
    let (ways, m, n) = (3, 64, 64);
    let (reg, mapping, args) = comm::build_all_reduce(ways, m, n, &machine).unwrap();
    let mut rng = StdRng::seed_from_u64(27);
    let xs: Vec<Tensor> = (0..ways)
        .map(|_| Tensor::random(DType::F16, &[m, n], &mut rng, -1.0, 1.0))
        .collect();
    let y = Tensor::zeros(DType::F16, &[m, n]);

    let mut want = Tensor::zeros(DType::F16, &[m, n]);
    for i in 0..m * n {
        let s: f32 = xs.iter().map(|x| x.data()[i]).sum();
        want.data_mut()[i] = DType::F16.quantize(s);
    }

    let mut params = vec![y];
    params.extend(xs);
    let out = compile_and_run(&reg, &mapping, "allred", &args, params);
    assert_eq!(out[0].data(), want.data(), "all-reduce must sum exactly");
}

#[test]
fn fa2_matches_reference() {
    attention_case(attention::Algorithm::Fa2, 1, 128, 64);
}

#[test]
fn fa2_multi_head_multi_tile() {
    attention_case(attention::Algorithm::Fa2, 2, 256, 64);
}

#[test]
fn fa3_matches_reference() {
    attention_case(attention::Algorithm::Fa3, 1, 256, 64);
}
