//! Multi-stream concurrent scheduling on a fan-out graph: four
//! independent GEMMs feed a two-level reduction (two dual-GEMM combiners
//! and a GEMM+Reduction sink).
//!
//! Serial scheduling pays the sum of the seven launches. Under
//! `SchedulePolicy::Concurrent` the ready-queue scheduler puts the four
//! GEMMs on four simulated streams at cycle 0; they contend for SMs and
//! bandwidth under the simulator's fluid contention model, the combiners
//! launch as their producers retire, and the makespan lands between the
//! critical path (the lower bound no schedule can beat) and the serial
//! sum. Functional results are identical under both policies.
//!
//! A [`TraceLog`] recorder rides along, and the concurrent timeline is
//! exported as Chrome-trace JSON — load the file at
//! <https://ui.perfetto.dev> to see the streams.
//!
//! Run with `cargo run --release --example graph_overlap [trace.json]`
//! (the trace defaults to `target/graph_overlap_trace.json`).

use cypress::core::kernels::{dual_gemm, gemm, gemm_reduction};
use cypress::runtime::telemetry::TraceLog;
use cypress::runtime::{Binding, Program, SchedulePolicy, Session, TaskGraph, TraceSink};
use cypress::sim::MachineConfig;
use cypress::tensor::{tensor::reference, DType, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::test_gpu();
    let d = 64usize;

    let gemm_p = Program::from_parts(gemm::build(d, d, d, &machine)?, "gemm");
    let dual_p = Program::from_parts(dual_gemm::build(d, d, d, &machine)?, "dual");
    let gr_p = Program::from_parts(gemm_reduction::build(d, d, d, &machine)?, "gr");

    // --- Fan out: four independent GEMMs ------------------------------
    let mut graph = TaskGraph::new();
    let mut gemms = Vec::new();
    for i in 0..4 {
        gemms.push(graph.add_node(
            &format!("gemm{i}"),
            gemm_p.clone(),
            vec![
                Binding::Zeros,
                Binding::External(format!("A{i}")),
                Binding::External(format!("B{i}")),
            ],
        )?);
    }
    // --- Fan in: two dual-GEMM combiners, then the reduction sink -----
    let comb0 = graph.add_node(
        "combine01",
        dual_p.clone(),
        vec![
            Binding::Zeros,
            Binding::external("X"),
            Binding::output(gemms[0], 0),
            Binding::output(gemms[1], 0),
        ],
    )?;
    let comb1 = graph.add_node(
        "combine23",
        dual_p,
        vec![
            Binding::Zeros,
            Binding::external("X"),
            Binding::output(gemms[2], 0),
            Binding::output(gemms[3], 0),
        ],
    )?;
    let sink = graph.add_node(
        "reduce",
        gr_p,
        vec![
            Binding::Zeros,
            Binding::Zeros,
            Binding::output(comb0, 0),
            Binding::output(comb1, 0),
        ],
    )?;

    // --- Inputs --------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(7);
    let mut t = |s: f32| Tensor::random(DType::F16, &[d, d], &mut rng, -s, s);
    let mut inputs = HashMap::from([("X".to_string(), t(0.5))]);
    for i in 0..4 {
        inputs.insert(format!("A{i}"), t(0.5));
        inputs.insert(format!("B{i}"), t(0.5));
    }

    // --- Serial timing: the makespan is the sum of the launches --------
    let log = TraceLog::new();
    let mut session = Session::new(machine.clone()).with_recorder(log.clone());
    let serial = session.launch_timing(&graph)?;
    assert_eq!(serial.makespan, serial.serial_sum());

    // --- Concurrent timing: four streams, overlap observable -----------
    session = session.with_policy(SchedulePolicy::Concurrent { streams: 4 });
    let conc = session.launch_timing(&graph)?;
    println!("concurrent timeline (4 streams):\n{}", conc.breakdown());
    assert!(
        conc.makespan < serial.serial_sum(),
        "fan-out overlaps: {} < {}",
        conc.makespan,
        serial.serial_sum()
    );
    assert!(conc.makespan >= conc.critical_path);
    println!(
        "serial {: >10.0} cycles\nconcurrent {: >6.0} cycles ({:.2}x overlap, critical path {:.0})",
        serial.makespan,
        conc.makespan,
        conc.overlap_speedup(),
        conc.critical_path
    );

    // --- Functional results are policy-independent ---------------------
    let run = session.launch_functional(&graph, &inputs)?;
    let p_got = run.tensor(sink, 0).expect("sink kept");
    // Host oracle for the whole fan-in: P = (X·(C0+C1)) · (X·(C2+C3)).
    let c: Vec<Tensor> = (0..4)
        .map(|i| {
            reference::matmul(
                &inputs[&format!("A{i}")],
                &inputs[&format!("B{i}")],
                DType::F16,
            )
        })
        .collect::<Result<_, _>>()?;
    let dual_sum = |a: &Tensor, b: &Tensor| -> Result<Tensor, Box<dyn std::error::Error>> {
        let g1 = reference::matmul(&inputs["X"], a, DType::F32)?;
        let g2 = reference::matmul(&inputs["X"], b, DType::F32)?;
        let mut g = Tensor::zeros(DType::F16, &[d, d]);
        for i in 0..d * d {
            g.data_mut()[i] = DType::F16.quantize(g1.data()[i] + g2.data()[i]);
        }
        Ok(g)
    };
    let g0 = dual_sum(&c[0], &c[1])?;
    let g1 = dual_sum(&c[2], &c[3])?;
    let p_want = reference::matmul(&g0, &g1, DType::F16)?;
    let err = p_got.relative_error(&p_want)?;
    assert!(err < 3e-2, "fan-out graph relative error {err}");
    println!("\nfunctional check vs host oracle: relative error {err:.4}");

    // --- Host-side executor parallelism --------------------------------
    // Independent ready nodes (the four GEMMs) run concurrently on a
    // scoped worker pool; results join in ascending node order, so
    // tensors are bit-identical at any worker count — only wall time
    // changes.
    let workers = cypress::sim::par::available();
    let mut parallel = Session::new(machine).with_parallelism(workers);
    let prun = parallel.launch_functional(&graph, &inputs)?;
    let p_par = prun.tensor(sink, 0).expect("sink kept");
    assert_eq!(
        p_got.data(),
        p_par.data(),
        "parallel executor must be bit-identical"
    );
    println!("parallel executor ({workers} workers): bit-identical to serial");

    // --- Chrome-trace export of the concurrent timeline ----------------
    // One "X" span per node in sim cycles; the file loads directly in
    // Perfetto or chrome://tracing.
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/graph_overlap_trace.json".to_string());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let json = TraceSink::chrome_json(&conc);
    std::fs::write(&out, &json)?;
    // The export round-trips through the bundled parser and matches the
    // report timeline span for span.
    let trace = TraceSink::parse_chrome_json(&json)?;
    assert_eq!(trace.streams, Some(conc.streams));
    assert_eq!(trace.spans.len(), conc.nodes.len());
    for span in &trace.spans {
        let node = conc.timeline(&span.name).expect("span names a report node");
        assert_eq!(span.tid, node.stream, "{}: stream mismatch", span.name);
        assert_eq!(span.ts.to_bits(), node.start.to_bits());
        assert_eq!(span.dur.to_bits(), (node.end - node.start).to_bits());
    }
    println!(
        "\nchrome trace: {out} ({} spans — open at https://ui.perfetto.dev)",
        trace.spans.len()
    );

    // --- Unified session metrics + the deterministic event stream ------
    println!("\nsession metrics:\n{}", session.metrics());
    println!(
        "recorded {} events (bit-identical across repeat runs; see \
         cypress_runtime::telemetry)",
        log.len()
    );
    Ok(())
}
