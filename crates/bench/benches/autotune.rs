//! Host-side cost of mapping autotuning, and proof that a tuned session
//! amortizes: the first `autotune` call compiles and times every
//! candidate of the kernel's mapping space; every later call (and every
//! `MappingPolicy::Autotune` launch) is served from the session's
//! tuning table and the fingerprint-keyed kernel cache. The `--smoke`
//! CI run exercises the full sweep once at a small problem size.

use criterion::{criterion_group, criterion_main, Criterion};
use cypress_core::kernels::gemm;
use cypress_core::kernels::space::Shape;
use cypress_runtime::{MappingPolicy, Program, Session, TunerBudget};
use cypress_sim::MachineConfig;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::h100_sxm5();
    // Small enough for a smoke sweep, big enough that the H100 default
    // mapping (128x256 tiles) applies.
    let program = Program::from_space(
        Arc::new(gemm::GemmSpace),
        Shape::of(&[512, 512, 512]),
        &machine,
    )
    .expect("gemm builds at the hand-tuned default");

    let mut g = c.benchmark_group("autotune");
    g.sample_size(10);

    // Cold: a fresh session per iteration sweeps the whole space on one
    // worker.
    g.bench_function("gemm_512_cold_sweep", |b| {
        b.iter(|| {
            let mut session = Session::new(machine.clone()).with_parallelism(1);
            session
                .autotune(&program)
                .expect("space candidates compile")
        })
    });

    // Cold, parallel: the same sweep with candidates compiled and timed
    // on the session's worker pool (the winner is identical — picked by
    // candidate index, not completion order).
    let workers = cypress_sim::par::available();
    g.bench_function(format!("gemm_512_cold_sweep_parallel_{workers}w"), |b| {
        b.iter(|| {
            let mut session = Session::new(machine.clone()).with_parallelism(workers);
            session
                .autotune(&program)
                .expect("space candidates compile")
        })
    });

    let mut warm = Session::new(machine.clone()).with_mapping_policy(MappingPolicy::Autotune);
    let tuned = warm.autotune(&program).expect("space candidates compile");

    // Cold, guided: the analytical cost model ranks the space first and
    // only the predicted top half is compiled and timed
    // (`TunerBudget::TopK`; the winner stays within 5% of exhaustive —
    // gated in `check_figures`).
    let top_k = (tuned.candidates / 2).max(1);
    g.bench_function(format!("gemm_512_cold_sweep_guided_top{top_k}"), |b| {
        b.iter(|| {
            let mut session = Session::new(machine.clone()).with_parallelism(1);
            session
                .autotune_with(&program, TunerBudget::TopK(top_k))
                .expect("guided candidates compile")
        })
    });

    // Warm: the tuning table answers without touching the compiler.
    g.bench_function("gemm_512_table_hit", |b| {
        b.iter(|| warm.autotune(&program).expect("served from the table"))
    });

    // Tuned launch: compile is a cache hit, timing reuses the winner.
    g.bench_function("gemm_512_tuned_launch", |b| {
        b.iter(|| warm.run_timing(&program).expect("tuned launch times"))
    });

    println!(
        "  tuned mapping: {} ({} candidates, {:.2}x over hand-tuned)",
        tuned.config.label(),
        tuned.candidates,
        tuned.speedup()
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
