//! A transformer layer as ONE task graph: attention → dual-GEMM (the GLU
//! up-projection, Fig. 13c) → GEMM+Reduction (down-projection fused with a
//! row statistic, Fig. 13d) — the repo's first multi-kernel scenario.
//!
//! The `cypress::runtime` session compiles each distinct program once
//! (fingerprint-keyed kernel cache), threads attention's output buffer
//! into the dual-GEMM's `A` slot and that result into the projection's
//! `A` slot (tensor-buffer edges), and checks every stage against the
//! host oracle. A second launch of the same graph hits the cache for all
//! three kernels.
//!
//! Run with `cargo run --release --example transformer_layer`.

use cypress::core::kernels::{attention, dual_gemm, gemm_reduction};
use cypress::runtime::{Binding, Program, SchedulePolicy, Session, TaskGraph};
use cypress::sim::MachineConfig;
use cypress::tensor::{tensor::reference, DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::test_gpu();
    let (seq, d) = (128usize, 64usize);

    // --- Build the three programs -------------------------------------
    let attn = Program::from_parts(
        attention::build(attention::Algorithm::Fa2, 1, seq, d, &machine)?,
        "fa",
    );
    // GLU up-projection: G = O·W1 + O·W2 in one kernel.
    let glu = Program::from_parts(dual_gemm::build(seq, d, d, &machine)?, "dual");
    // Down-projection fused with the row reduction: P = G·W3, y = Σ_k G.
    let proj = Program::from_parts(gemm_reduction::build(seq, d, d, &machine)?, "gr");
    let y_cols = proj.args[1].cols;

    // --- Wire them into one graph with tensor-buffer edges ------------
    let mut graph = TaskGraph::new();
    let n_attn = graph.add_node(
        "attention",
        attn,
        vec![
            Binding::Zeros, // O
            Binding::external("Q"),
            Binding::external("K"),
            Binding::external("V"),
        ],
    )?;
    let n_glu = graph.add_node(
        "glu_dual_gemm",
        glu,
        vec![
            Binding::Zeros,             // G
            Binding::output(n_attn, 0), // A := attention's O buffer
            Binding::external("W1"),
            Binding::external("W2"),
        ],
    )?;
    let n_proj = graph.add_node(
        "proj_gemm_reduction",
        proj,
        vec![
            Binding::Zeros,            // P
            Binding::Zeros,            // y partials
            Binding::output(n_glu, 0), // A := the GLU's G buffer
            Binding::external("W3"),
        ],
    )?;
    // Keep the intermediates so we can check them against the oracle.
    graph.retain(n_attn)?;
    graph.retain(n_glu)?;

    // --- Inputs --------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(2025);
    let mut t = |r: usize, c: usize, s: f32| Tensor::random(DType::F16, &[r, c], &mut rng, -s, s);
    let inputs = HashMap::from([
        ("Q".to_string(), t(seq, d, 1.0)),
        ("K".to_string(), t(seq, d, 1.0)),
        ("V".to_string(), t(seq, d, 1.0)),
        ("W1".to_string(), t(d, d, 0.5)),
        ("W2".to_string(), t(d, d, 0.5)),
        ("W3".to_string(), t(d, d, 0.5)),
    ]);

    // --- Launch and verify against the host oracle ---------------------
    let mut session = Session::new(machine.clone());
    let run = session.launch_functional(&graph, &inputs)?;

    let o_want = reference::attention(&inputs["Q"], &inputs["K"], &inputs["V"], DType::F16)?;
    let o_got = run.tensor(n_attn, 0).expect("attention output retained");
    let err_o = o_got.relative_error(&o_want)?;
    assert!(err_o < 3e-2, "attention relative error {err_o}");

    let g1 = reference::matmul(&o_want, &inputs["W1"], DType::F32)?;
    let g2 = reference::matmul(&o_want, &inputs["W2"], DType::F32)?;
    let mut g_want = Tensor::zeros(DType::F16, &[seq, d]);
    for i in 0..seq * d {
        g_want.data_mut()[i] = DType::F16.quantize(g1.data()[i] + g2.data()[i]);
    }
    let g_got = run.tensor(n_glu, 0).expect("GLU output retained");
    let err_g = g_got.relative_error(&g_want)?;
    assert!(err_g < 3e-2, "dual-GEMM relative error {err_g}");

    let p_want = reference::matmul(&g_want, &inputs["W3"], DType::F16)?;
    let p_got = run.tensor(n_proj, 0).expect("projection is a sink");
    let err_p = p_got.relative_error(&p_want)?;
    assert!(err_p < 3e-2, "projection relative error {err_p}");

    // The reduction output is per-block-column partials; sum them.
    let y_want = reference::row_sum(&g_want, DType::F32)?;
    let y_got = run.tensor(n_proj, 1).expect("reduction is a sink");
    let mut y_total = Tensor::zeros(DType::F32, &[seq, 1]);
    for i in 0..seq {
        y_total.data_mut()[i] = (0..y_cols).map(|j| y_got.data()[i * y_cols + j]).sum();
    }
    let err_y = y_total.relative_error(&y_want)?;
    assert!(err_y < 3e-2, "reduction relative error {err_y}");

    println!("transformer layer graph: 3 nodes, all stages match the host oracle");
    println!("  attention   relative error {err_o:.4}");
    println!("  dual-GEMM   relative error {err_g:.4}");
    println!("  projection  relative error {err_p:.4} (row-sum {err_y:.4})");
    println!("\nper-node timing breakdown:\n{}", run.report.breakdown());

    // --- Schedule policies: a linear chain has nothing to overlap -------
    // attention → dual-GEMM → projection is a dependency chain, so the
    // concurrent scheduler runs one node at a time and the makespan
    // stays pinned to the critical path (= the serial sum). Contrast
    // with `examples/graph_overlap.rs`, where a fan-out graph overlaps.
    // The functional launch's report is the serial timing schedule.
    let serial_timing = &run.report;
    session = session.with_policy(SchedulePolicy::Concurrent { streams: 2 });
    let conc_timing = session.launch_timing(&graph)?;
    session = session.with_policy(SchedulePolicy::Serial);
    assert_eq!(
        conc_timing.makespan, serial_timing.makespan,
        "a chain gains nothing from streams"
    );
    assert_eq!(conc_timing.makespan, conc_timing.critical_path);
    println!(
        "chain timing: serial {:.0} cycles == concurrent {:.0} (critical path {:.0})",
        serial_timing.makespan, conc_timing.makespan, conc_timing.critical_path
    );

    // --- Second launch: every kernel comes from the cache ---------------
    let cold = session.metrics().cache;
    session.launch_functional(&graph, &inputs)?;
    let warm = session.metrics().cache;
    println!(
        "kernel cache: {} misses cold, {} hits on relaunch (entries {})",
        cold.misses,
        warm.hits - cold.hits,
        warm.entries
    );
    assert_eq!(cold.misses, 3, "three distinct programs compile once each");
    assert_eq!(warm.hits - cold.hits, 3, "relaunch compiles nothing");

    // --- Steady-state serving: same programs, no retained intermediates.
    // The new graph's fingerprints match the verification graph's, so it
    // compiles nothing, and dead intermediates recycle through the pool.
    let mut serving = TaskGraph::new();
    let attn2 = Program::from_parts(
        attention::build(attention::Algorithm::Fa2, 1, seq, d, &machine)?,
        "fa",
    );
    let glu2 = Program::from_parts(dual_gemm::build(seq, d, d, &machine)?, "dual");
    let proj2 = Program::from_parts(gemm_reduction::build(seq, d, d, &machine)?, "gr");
    let s_attn = serving.add_node(
        "attention",
        attn2,
        vec![
            Binding::Zeros,
            Binding::external("Q"),
            Binding::external("K"),
            Binding::external("V"),
        ],
    )?;
    let s_glu = serving.add_node(
        "glu_dual_gemm",
        glu2,
        vec![
            Binding::Zeros,
            Binding::output(s_attn, 0),
            Binding::external("W1"),
            Binding::external("W2"),
        ],
    )?;
    serving.add_node(
        "proj_gemm_reduction",
        proj2,
        vec![
            Binding::Zeros,
            Binding::Zeros,
            Binding::output(s_glu, 0),
            Binding::external("W3"),
        ],
    )?;
    let before = session.metrics().cache;
    for _ in 0..3 {
        let served = session.launch_functional(&serving, &inputs)?;
        let p = served
            .tensor_of("proj_gemm_reduction", 0)
            .expect("sink kept");
        assert!(p.relative_error(&p_want)? < 3e-2);
    }
    let after = session.metrics().cache;
    assert_eq!(
        after.misses, before.misses,
        "serving graph compiles nothing new"
    );
    let pool = session.metrics().pool;
    println!(
        "serving x3: 0 new compiles; buffer pool {} acquisitions, {} served by reuse",
        pool.acquired, pool.reused
    );
    assert!(
        pool.reused > 0,
        "steady-state launches reuse pooled buffers"
    );

    // --- Automatic fusion: write primitives, get the fused kernels -----
    // The same layer written naively from primitive nodes: attention,
    // two chained GEMMs (an MLP without its hand-fused kernel), and a
    // projection next to a standalone row statistic. Under
    // `FusionPolicy::Auto` the session rewrites the GEMM→GEMM chain into
    // the chained dual-GEMM kernel and the GEMM + row-reduction pair
    // into the Fig. 13d GEMM+Reduction kernel — five written launches
    // become three, bitwise identical.
    use cypress::core::kernels::{gemm, reduction};
    use cypress::runtime::FusionPolicy;
    let mut naive = TaskGraph::new();
    let p_attn = naive.add_node(
        "attention",
        Program::from_parts(
            attention::build(attention::Algorithm::Fa2, 1, seq, d, &machine)?,
            "fa",
        ),
        vec![
            Binding::Zeros,
            Binding::external("Q"),
            Binding::external("K"),
            Binding::external("V"),
        ],
    )?;
    let p_up = naive.add_node(
        "mlp_up",
        Program::from_parts(gemm::build(seq, d, d, &machine)?, "gemm"),
        vec![
            Binding::Zeros,
            Binding::output(p_attn, 0),
            Binding::external("W1"),
        ],
    )?;
    let p_down = naive.add_node(
        "mlp_down",
        Program::from_parts(gemm::build(seq, d, d, &machine)?, "gemm"),
        vec![
            Binding::Zeros,
            Binding::output(p_up, 0),
            Binding::external("W2"),
        ],
    )?;
    let p_proj = naive.add_node(
        "proj",
        Program::from_parts(gemm::build(seq, d, d, &machine)?, "gemm"),
        vec![
            Binding::Zeros,
            Binding::output(p_down, 0),
            Binding::external("W3"),
        ],
    )?;
    let p_stat = naive.add_node(
        "row_stat",
        Program::from_parts(reduction::build(seq, d, &machine)?, "reduce"),
        vec![Binding::Zeros, Binding::output(p_down, 0)],
    )?;

    let mut unfused = Session::new(machine.clone());
    let unfused_run = unfused.launch_functional(&naive, &inputs)?;
    let unfused_timing = unfused.launch_timing(&naive)?;

    let mut fusing = Session::new(machine.clone()).with_fusion_policy(FusionPolicy::Auto);
    let fused_run = fusing.launch_functional(&naive, &inputs)?;
    let fused_timing = fusing.launch_timing(&naive)?;

    for (node, param, label) in [(p_proj, 0, "projection"), (p_stat, 0, "row statistic")] {
        let want = unfused_run.tensor(node, param).expect("sink kept");
        let got = fused_run.tensor(node, param).expect("kept under fusion");
        assert_eq!(got.data(), want.data(), "{label} must be bitwise identical");
    }
    assert_eq!(unfused_timing.nodes.len(), 5, "written as five launches");
    assert_eq!(fused_timing.nodes.len(), 3, "fused down to three launches");
    assert!(fused_timing.makespan < unfused_timing.makespan);
    println!(
        "\nfusion: {} written launches -> {} ({}), makespan {:.0} -> {:.0} cycles ({:.2}x)",
        unfused_timing.nodes.len(),
        fused_timing.nodes.len(),
        fused_timing
            .nodes
            .iter()
            .filter(|n| !n.replaced.is_empty())
            .map(|n| format!("{} replaces [{}]", n.node, n.replaced.join(", ")))
            .collect::<Vec<_>>()
            .join("; "),
        unfused_timing.makespan,
        fused_timing.makespan,
        unfused_timing.makespan / fused_timing.makespan
    );
    // Dead intermediates vanish under fusion; the `mlp_down` output is
    // still consumed by two fused launches, so it survives.
    assert!(fused_run.tensor(p_up, 0).is_none());
    println!("fused timeline:\n{}", fused_timing.breakdown());
    Ok(())
}
