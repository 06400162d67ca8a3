//! Regenerate every evaluation figure of the paper as text tables, with
//! the paper's reported ratio bands printed next to the measured ratios
//! and every CI gate of `cypress_bench::gates` next to the rows it
//! bounds. Alongside the tables, writes `BENCH_figures.json` — one
//! `{figure, system, size, tflops, unit}` row per measurement, all on
//! the simulated clock — so the perf trajectory can be tracked across
//! PRs by machines, not eyeballs.
//!
//! Run with `cargo run --release -p cypress-bench --bin figures`.

use cypress_bench::{
    fig13a, fig13b, fig13c, fig13d, fig14, fig_autotune, fig_fault_tolerance, fig_fusion,
    fig_graph_overlap, fig_multi_gpu, gates, overlap_concurrent_system, ratio, value, FigureFile,
    Row, Unit, GEMM_SIZES, OVERLAP_SERIAL_SYSTEM, OVERLAP_SIZES, OVERLAP_WIDTH, SEQ_LENS,
};
use cypress_sim::MachineConfig;
use std::process::ExitCode;

/// Print one figure's rows as a `system x size` table, each series with
/// its unit, then every gate on the figure with the values it compared.
fn print_rows(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    let mut series: Vec<&Row> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for r in rows {
        if !series.iter().any(|s| s.system == r.system) {
            series.push(r);
        }
        if !sizes.contains(&r.size) {
            sizes.push(r.size);
        }
    }
    let width = series.iter().map(|s| s.system.len()).max().unwrap_or(0) + 2;
    print!("{:>width$}", "size");
    for s in &sizes {
        print!("{s:>10}");
    }
    println!();
    for first in series {
        print!("{:>width$}", first.system);
        let digits = if first.unit == Unit::Ratio { 3 } else { 0 };
        for &s in &sizes {
            let v = value(rows, &first.system, s).unwrap_or(f64::NAN);
            print!("{v:>10.digits$}");
        }
        println!("  {}", first.unit.label());
    }
    let figure = rows.first().map(|r| r.figure.as_str());
    for gate in gates().iter().filter(|g| Some(g.figure) == figure) {
        match gate.check(rows) {
            Ok(held) => println!("  gated in CI: {held}"),
            Err(failed) => println!("  GATE FAILS: {failed}"),
        }
    }
}

fn main() -> ExitCode {
    let machine = MachineConfig::h100_sxm5();
    println!(
        "Cypress evaluation on simulated {} ({:.0} TFLOP/s FP16 peak)",
        machine.name,
        machine.peak_tflops()
    );

    let a = fig13a(&machine);
    print_rows("Fig. 13a: GEMM (FP16, M=N=K)", &a);
    for s in GEMM_SIZES {
        println!(
            "  size {s}: Cypress/cuBLAS = {:.2} (paper band 0.88-1.06), Cypress/Triton = {:.2} (paper band 1.05-1.11)",
            ratio(&a, "Cypress", "cuBLAS", s),
            ratio(&a, "Cypress", "Triton", s)
        );
    }

    let b = fig13b(&machine);
    print_rows("Fig. 13b: Batched-GEMM (L=4)", &b);
    println!(
        "  largest size: Cypress/cuBLAS = {:.2} (paper: Cypress slightly ahead at the largest size)",
        ratio(&b, "Cypress", "cuBLAS", 8192)
    );

    let c = fig13c(&machine);
    print_rows("Fig. 13c: Dual-GEMM", &c);
    for s in GEMM_SIZES {
        println!(
            "  size {s}: Cypress/Triton = {:.2} (paper band 1.36-1.40)",
            ratio(&c, "Cypress", "Triton", s)
        );
    }

    let d = fig13d(&machine);
    print_rows("Fig. 13d: GEMM+Reduction", &d);
    for s in GEMM_SIZES {
        println!(
            "  size {s}: Cypress/Triton = {:.2} (paper band 2.02-2.18)",
            ratio(&d, "Cypress", "Triton", s)
        );
    }

    let f = fig14(&machine);
    print_rows("Fig. 14: FlashAttention (FP16, head dim 128)", &f);
    for s in SEQ_LENS {
        println!(
            "  seq {s}: CypressFA3/FA3ref = {:.2} (paper band 0.80-0.98), CypressFA2/TK = {:.2} (paper band 0.87-1.06)",
            ratio(&f, "Cypress (FA3)", "Flash Attention 3", s),
            ratio(&f, "Cypress (FA2)", "ThunderKittens (FA2)", s)
        );
    }

    let g = fig_graph_overlap(&machine);
    print_rows(
        &format!(
            "Graph overlap: {OVERLAP_WIDTH} independent GEMMs, serial vs {OVERLAP_WIDTH} streams"
        ),
        &g,
    );
    for s in OVERLAP_SIZES {
        println!(
            "  size {s}: {OVERLAP_WIDTH} streams / serial = {:.2}x makespan speedup",
            ratio(&g, &overlap_concurrent_system(), OVERLAP_SERIAL_SYSTEM, s)
        );
    }

    let mg = fig_multi_gpu(&machine);
    print_rows(
        "Multi-GPU: the same graphs sharded across 1/2/4 devices; transfer cycles hidden under compute",
        &mg,
    );

    let fu = fig_fusion(&machine);
    print_rows(
        "Graph fusion: producer->consumer pairs, unfused vs FusionPolicy::Auto",
        &fu,
    );

    let t = fig_autotune(&machine);
    print_rows("Mapping autotune: hand-tuned H100 vs tuned vs guided", &t);

    let ft = fig_fault_tolerance(&machine);
    print_rows(
        "Fault tolerance: recovery overhead (faulted/clean makespan; device loss at 50%)",
        &ft,
    );

    let file = FigureFile {
        machine: machine.name.into(),
        peak_tflops: machine.peak_tflops(),
        rows: [a, b, c, d, f, g, mg, fu, t, ft].concat(),
    };
    let written = file
        .to_json()
        .and_then(|json| std::fs::write("BENCH_figures.json", json).map_err(|e| e.to_string()));
    match written {
        Ok(()) => {
            println!("\nwrote BENCH_figures.json ({} rows)", file.rows.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("\nfailed to write BENCH_figures.json: {e}");
            ExitCode::FAILURE
        }
    }
}
