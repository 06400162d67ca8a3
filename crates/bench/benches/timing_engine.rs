//! Host cost of the discrete-event timing engine: one
//! `Simulator::run_timing_lowered` of the paper's largest GEMM (8192^3)
//! and longest attention (FA3, sequence length 16384), each compiled and
//! lowered once outside the timed loop. Prints the run's event count and
//! nanoseconds per event beside the ns/iter row — the ROADMAP item 1
//! host-time row for this layer (every reported cycle count and every
//! tuner candidate is one such run).

use criterion::{criterion_group, criterion_main, Criterion};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::attention::{self, Algorithm};
use cypress_core::kernels::gemm;
use cypress_sim::{bytecode, MachineConfig, Simulator};
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::h100_sxm5();
    let programs = [
        (
            "gemm",
            "gemm_8192",
            gemm::build(8192, 8192, 8192, &machine).expect("paper kernel builds"),
        ),
        (
            "fa",
            "fa3_16384",
            attention::build(Algorithm::Fa3, 16, 16384, 128, &machine)
                .expect("paper kernel builds"),
        ),
    ];
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let sim = Simulator::new(machine.clone());
    let mut g = c.benchmark_group("timing_engine");
    for (entry, label, (reg, mapping, args)) in &programs {
        let kernel = compiler
            .compile(reg, mapping, entry, args)
            .expect("paper kernel compiles")
            .kernel;
        let program = bytecode::lower(&kernel).expect("paper kernel lowers");
        let events = sim.run_timing_lowered(&kernel, &program).unwrap().events;
        let mut ns_per_run = 0.0;
        g.bench_function(*label, |b| {
            let start = Instant::now();
            let mut runs = 0u32;
            b.iter(|| {
                runs += 1;
                sim.run_timing_lowered(&kernel, &program).unwrap()
            });
            ns_per_run = start.elapsed().as_nanos() as f64 / f64::from(runs);
        });
        println!(
            "  {label}: {events} events, {:.1} ns/event",
            ns_per_run / events as f64
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
