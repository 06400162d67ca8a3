//! Host-side throughput of the functional engine: the fast resolved-view
//! data path against the retained scalar reference interpreter
//! (`--features scalar-oracle` path of `cypress-sim`), and the graph
//! executor at the available worker count against one worker. The
//! `--smoke` CI run proves both data paths still execute; full runs
//! track the speedups the data-path rewrite is responsible for.

use criterion::{criterion_group, criterion_main, Criterion};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::gemm;
use cypress_runtime::{Binding, Program, Session, TaskGraph};
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const D: usize = 128;
const WIDTH: usize = 8;

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::test_gpu();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let (reg, mapping, args) = gemm::build(D, D, D, &machine).expect("gemm builds");
    let kernel = compiler
        .compile(&reg, &mapping, "gemm", &args)
        .expect("gemm compiles")
        .kernel;
    let sim = Simulator::new(machine.clone());
    let mut rng = StdRng::seed_from_u64(11);
    let a = Tensor::random(DType::F16, &[D, D], &mut rng, -1.0, 1.0);
    let b = Tensor::random(DType::F16, &[D, D], &mut rng, -1.0, 1.0);
    let out = Tensor::zeros(DType::F16, &[D, D]);

    let mut g = c.benchmark_group("functional_throughput");
    g.sample_size(10);

    g.bench_function(format!("gemm_{D}_fast"), |bch| {
        bch.iter(|| {
            sim.run_functional(&kernel, vec![out.clone(), a.clone(), b.clone()])
                .expect("functional gemm runs")
        })
    });
    g.bench_function(format!("gemm_{D}_scalar_oracle"), |bch| {
        bch.iter(|| {
            sim.run_functional_scalar(&kernel, vec![out.clone(), a.clone(), b.clone()])
                .expect("scalar functional gemm runs")
        })
    });

    // A fan-out graph of independent GEMMs: the executor at one worker
    // vs the scoped worker pool.
    let program = Program::from_parts(gemm::build(D, D, D, &machine).expect("gemm builds"), "gemm");
    let mut graph = TaskGraph::new();
    let mut inputs = HashMap::new();
    for i in 0..WIDTH {
        graph
            .add_node(
                &format!("gemm{i}"),
                program.clone(),
                vec![
                    Binding::Zeros,
                    Binding::External(format!("A{i}")),
                    Binding::External(format!("B{i}")),
                ],
            )
            .expect("independent nodes insert");
        for name in [format!("A{i}"), format!("B{i}")] {
            inputs.insert(
                name,
                Tensor::random(DType::F16, &[D, D], &mut rng, -1.0, 1.0),
            );
        }
    }
    let mut serial = Session::new(machine.clone()).with_parallelism(1);
    g.bench_function(format!("graph_{WIDTH}x{D}_serial"), |bch| {
        bch.iter(|| {
            serial
                .launch_functional(&graph, &inputs)
                .expect("serial graph runs")
        })
    });
    let workers = cypress_sim::par::available();
    let mut parallel = Session::new(machine.clone()).with_parallelism(workers);
    g.bench_function(format!("graph_{WIDTH}x{D}_parallel_{workers}w"), |bch| {
        bch.iter(|| {
            parallel
                .launch_functional(&graph, &inputs)
                .expect("parallel graph runs")
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
