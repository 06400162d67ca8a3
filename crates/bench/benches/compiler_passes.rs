//! Criterion benches for the compiler itself: per-pass cost on the GEMM
//! program and on FlashAttention-3 at sequence length 4096 — the largest
//! IR the paper kernels produce, where copy elimination dominates the
//! compile (the paper's compiler is offline, but pass cost still matters
//! for the mapping-exploration workflow of §5.4).

use criterion::{criterion_group, criterion_main, Criterion};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::attention::{self, Algorithm};
use cypress_core::kernels::gemm;
use cypress_core::passes::{copyelim, depan, vectorize};
use cypress_sim::MachineConfig;

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::h100_sxm5();
    let programs = [
        (
            "gemm",
            gemm::build(8192, 8192, 8192, &machine).expect("paper kernel builds"),
        ),
        (
            "fa",
            attention::build(Algorithm::Fa3, 16, 4096, 128, &machine).expect("paper kernel builds"),
        ),
    ];
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    for (entry, (reg, mapping, args)) in &programs {
        let mut g = c.benchmark_group(&format!("compiler/{entry}"));
        let vectorized = || {
            let mut p = depan::analyze(reg, mapping, entry, args).unwrap();
            vectorize::run(&mut p);
            vectorize::normalize_ranks(&mut p);
            p
        };
        g.bench_function("depan", |b| {
            b.iter(|| depan::analyze(reg, mapping, entry, args).unwrap())
        });
        g.bench_function("depan_vectorize", |b| b.iter(&vectorized));
        g.bench_function("depan_vectorize_copyelim", |b| {
            b.iter(|| {
                let mut p = vectorized();
                copyelim::run(&mut p, copyelim::Options::default()).unwrap()
            })
        });
        g.bench_function("full_compile", |b| {
            b.iter(|| compiler.compile(reg, mapping, entry, args).unwrap())
        });
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
