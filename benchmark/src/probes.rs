//! Layer probes: the per-layer metrics of the traced run.
//!
//! Each probe drives one layer through the adapter on a small fixed
//! input (no seed: the numbers must compare across seeds and
//! workloads) and reads times off the adapter's own spans, so a layer
//! metric and the trace can never disagree about what was measured.
//! Counts are exact and repeat; times are medians over a few
//! repetitions. A traced run of one workload reports every probe next
//! to the workload's own `trace.*` and `harness.*` rows (the driver
//! wants every per-layer metric from every traced run); the suite runs
//! the probes once.

use crate::adapter::{self, Baseline, Counters, Family, Faults, KernelSpec, Policy, Runtime, Sim};
use crate::harness::Metric;
use crate::spec;
use crate::stats::median;
use crate::trace::{self, Span};
use crate::workloads::graph_functional::{fan_out_nodes, transformer_nodes, Served};
use crate::workloads::graph_schedule::Dag;
use crate::workloads::sim_timing::{figure_kernels, FigureKernel};
use crate::workloads::tune_sweep::{cold_sweep, guided_budget, Sweep};
use crate::workloads::workers;
use std::time::Instant;

/// Repetitions behind every time metric.
const REPS: usize = 5;

/// The paper's printed ratio bands (Cypress throughput over the
/// baseline's) for Fig. 13/14.
const BANDS: [(Family, Baseline, f64, f64); 6] = [
    (Family::Gemm, Baseline::Cublas, 0.88, 1.06),
    (Family::Gemm, Baseline::Triton, 1.05, 1.11),
    (Family::Dual, Baseline::Triton, 1.36, 1.40),
    (Family::GemmReduction, Baseline::Triton, 2.02, 2.18),
    (Family::Fa3, Baseline::Fa3, 0.80, 0.98),
    (Family::Fa2, Baseline::ThunderKittens, 0.87, 1.06),
];

/// Run `f` with tracing on; hand back its value and its spans.
fn spans_of<T>(f: impl FnOnce() -> T) -> (T, Vec<Span>) {
    trace::begin();
    let value = f();
    (value, trace::end())
}

/// Microseconds of every span called `name`.
fn each_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

fn total_us(spans: &[Span], name: &str) -> f64 {
    each_us(spans, name).iter().sum()
}

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// Per-layer metrics under construction; units come from
/// [`spec::PER_LAYER`].
pub struct Out(Vec<Metric>);

impl Out {
    pub fn new() -> Out {
        Out(Vec::new())
    }

    fn put(&mut self, name: &str, value: f64, samples: usize) {
        let unit = spec::layer_unit(name).expect("every layer metric is listed in spec::PER_LAYER");
        self.0.push(Metric::new(name, value, unit, samples));
    }

    /// The median of `samples`.
    pub fn time(&mut self, name: &str, samples: &[f64]) {
        self.put(name, median(samples), samples.len());
    }

    /// One value: a count, or a figure derived from medians.
    pub fn exact(&mut self, name: &str, value: f64) {
        self.put(name, value, 1);
    }

    /// The metrics `wanted` picks, in `spec::PER_LAYER` order; an
    /// error names what is missing.
    pub fn finish(self, wanted: impl Fn(&str) -> bool) -> Result<Vec<Metric>, String> {
        spec::PER_LAYER
            .iter()
            .filter(|(name, _, _)| wanted(name))
            .map(|(name, _, _)| {
                self.0
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .ok_or_else(|| format!("layer metric `{name}` was not measured"))
            })
            .collect()
    }
}

/// Run every probe into `out`. A probe that errors is a failure of
/// the run, counted like a failed op.
pub fn run(out: &mut Out, failures: &mut Vec<String>, attempted: &mut u64) {
    let sim = adapter::simulator();
    type Probe = fn(&Sim, &mut Out) -> Result<(), String>;
    let probes: [(&str, Probe); 6] = [
        ("core", core),
        ("sim.engine + baselines", engine_and_baselines),
        ("tensor", tensor),
        ("functional", functional),
        ("schedule", schedule),
        ("tuner + cache", tuner_and_cache),
    ];
    let t0 = Instant::now();
    for (name, probe) in probes {
        *attempted += 1;
        if let Err(e) = probe(&sim, out) {
            failures.push(format!("probe {name}: {e}"));
        }
    }
    out.exact("probes.wall_s", t0.elapsed().as_secs_f64());
}

/// The compiler on four programs of the paper: front end, fingerprint,
/// every Fig. 6 pass (read from the compiler's own `pass_nanos`),
/// copy-elimination work, generated-code size, the cost model, and
/// bytecode lowering.
fn core(_sim: &Sim, out: &mut Out) -> Result<(), String> {
    let set = [
        KernelSpec::new(Family::Gemm, &[4096, 4096, 4096]),
        KernelSpec::new(Family::GemmReduction, &[4096, 4096, 4096]),
        KernelSpec::new(Family::Fa2, &[16, 4096, 128]),
        KernelSpec::new(Family::Fa3, &[16, 4096, 128]),
    ];
    const PASSES: [&str; 7] = [
        "depan",
        "vectorize",
        "copyelim",
        "alloc",
        "warpspec",
        "codegen",
        "lower",
    ];
    let mut build_us = Vec::new();
    let mut fingerprint_us = Vec::new();
    let mut lower_us = Vec::new();
    let mut pass_us: Vec<Vec<f64>> = vec![Vec::new(); PASSES.len()];
    let mut share = Vec::new();
    let mut exact = [0usize; 4];
    for rep in 0..REPS {
        let (result, spans) = spans_of(|| -> Result<_, String> {
            let mut binaries = Vec::new();
            for spec in &set {
                let source = adapter::build_default(spec)?;
                adapter::fingerprint(&source);
                let binary = adapter::compile(&source)?;
                adapter::relower(&binary.launchable())?;
                binaries.push(binary);
            }
            Ok(binaries)
        });
        let binaries = result?;
        build_us.push(total_us(&spans, "core.front.build"));
        fingerprint_us.push(total_us(&spans, "core.fingerprint"));
        lower_us.push(total_us(&spans, "sim.lower"));
        let mut by_pass = [0.0f64; PASSES.len()];
        for b in &binaries {
            for (pass, ns) in b.pass_nanos() {
                if let Some(i) = PASSES.iter().position(|p| p == pass) {
                    by_pass[i] += *ns as f64 / 1e3;
                }
            }
        }
        let all_passes: f64 = by_pass.iter().sum();
        if all_passes > total_us(&spans, "core.compile") {
            return Err("the passes took longer than the compile that ran them".into());
        }
        for (i, us) in by_pass.iter().enumerate() {
            pass_us[i].push(*us);
        }
        share.push(by_pass[2] / all_passes);
        if rep == 0 {
            for b in &binaries {
                exact[0] += b.removed_copies();
                exact[1] += b.copyelim_rounds();
                exact[2] += b.smem_bytes();
                exact[3] += b.cuda_bytes();
            }
        }
    }
    out.time("core.front.build_us", &build_us);
    out.time("core.fingerprint_us", &fingerprint_us);
    for (pass, us) in PASSES.iter().zip(&pass_us) {
        out.time(&format!("core.pass.{pass}_us"), us);
    }
    out.time("core.copyelim.share", &share);
    out.exact("core.copyelim.removed_copies", exact[0] as f64);
    out.exact("core.copyelim.rounds", exact[1] as f64);
    out.exact("core.kernel.smem_bytes", exact[2] as f64);
    out.exact("core.kernel.cuda_bytes", exact[3] as f64);
    out.time("sim.lower_us", &lower_us);

    // The cost model over one whole mapping space.
    let spec = &set[0];
    let space = adapter::candidates(spec);
    let estimate_us: Vec<f64> = (0..REPS)
        .map(|_| {
            let ((), spans) = spans_of(|| {
                for m in &space {
                    adapter::estimate(spec, m);
                }
            });
            total_us(&spans, "core.cost.estimate")
        })
        .collect();
    out.time("core.cost.estimate_us", &estimate_us);
    Ok(())
}

/// The timing engine over the whole Fig. 13/14 kernel set, and what
/// the baselines cost to build, how many cycles they simulate to, and
/// how the Cypress-to-baseline ratios sit against the paper's bands.
fn engine_and_baselines(sim: &Sim, out: &mut Out) -> Result<(), String> {
    let (kernels, spans) = spans_of(|| figure_kernels(sim));
    let kernels: Vec<FigureKernel> = kernels?;
    out.time("baselines.build_us", &each_us(&spans, "baselines.build"));

    let events: u64 = kernels.iter().map(|k| k.reference.events).sum();
    let ns_per_event: Vec<f64> = (0..3)
        .map(|_| {
            let (result, s) = seconds(|| {
                kernels
                    .iter()
                    .try_for_each(|k| adapter::time(sim, &k.kernel).map(drop))
            });
            result.map(|()| s * 1e9 / events as f64)
        })
        .collect::<Result<_, _>>()?;
    out.exact("sim.engine.events", events as f64);
    out.time("sim.engine.ns_per_event", &ns_per_event);
    out.exact("sim.engine.events_per_s", 1e9 / median(&ns_per_event));

    let mut baseline_cycles: Vec<f64> = kernels
        .iter()
        .filter(|k| k.system.is_some())
        .map(|k| k.reference.cycles)
        .collect();
    baseline_cycles.sort_by(f64::total_cmp);
    out.exact("baselines.sim_cycles", baseline_cycles.iter().sum());

    let mut miss = 0u32;
    let mut excess = 0.0f64;
    for cypress in kernels.iter().filter(|k| k.system.is_none()) {
        for (family, system, lo, hi) in BANDS {
            if cypress.spec.family != family {
                continue;
            }
            let Some(other) = kernels
                .iter()
                .find(|k| k.system == Some(system) && k.spec == cypress.spec)
            else {
                continue;
            };
            // Same algorithmic FLOPs on both sides, so the throughput
            // ratio is the inverse cycle ratio.
            let ratio = other.reference.cycles / cypress.reference.cycles;
            let outside = ((lo - ratio) / lo).max((ratio - hi) / hi);
            if outside > 0.0 {
                miss += 1;
                excess = excess.max(outside);
            }
        }
    }
    out.exact("baselines.band_miss", f64::from(miss));
    out.exact("baselines.band_excess_max", excess);
    Ok(())
}

/// Input generation and the host oracle.
fn tensor(_sim: &Sim, out: &mut Out) -> Result<(), String> {
    let mut rng = adapter::rng(0x7e45);
    let mut random_ms = Vec::new();
    let mut reference_ms = Vec::new();
    for _ in 0..3 {
        let (a, s) = seconds(|| adapter::random_f16(&mut rng, 256, 256, 1.0));
        random_ms.push(s * 1e3);
        let (result, s) = seconds(|| adapter::ref_matmul(&a, &a));
        result?;
        reference_ms.push(s * 1e3);
    }
    out.time("tensor.random_ms", &random_ms);
    out.time("tensor.reference_ms", &reference_ms);
    Ok(())
}

/// The functional data path under the two serving graphs: the bare
/// kernels, the graph launch around them, the worker pool.
fn functional(sim: &Sim, out: &mut Out) -> Result<(), String> {
    let mut rng = adapter::rng(0xf00d);
    let mut rt = Runtime::new(&Policy::plain(1));
    let (graphs, spans) = spans_of(|| -> Result<_, String> {
        Ok([
            Served::prepare("transformer", transformer_nodes(), &mut rt, &mut rng, 1)?,
            Served::prepare("fan_out", fan_out_nodes(), &mut rt, &mut rng, 1)?,
        ])
    });
    let graphs = graphs?;
    out.exact(
        "runtime.compile_graph_ms",
        total_us(&spans, "runtime.compile_graph") / 1e3,
    );

    // Multiply-accumulates of one launch of each graph: attention is
    // two seq x seq x d products, the dual-GEMM two GEMMs.
    let macs = |spec: &KernelSpec| -> f64 {
        let d: Vec<f64> = spec.dims.iter().map(|&x| x as f64).collect();
        match spec.family {
            Family::Fa2 | Family::Fa3 => 2.0 * d[0] * d[1] * d[1] * d[2],
            Family::Dual => 2.0 * d[0] * d[1] * d[2],
            Family::Batched => d[0] * d[1] * d[2] * d[3],
            _ => d[0] * d[1] * d[2],
        }
    };
    let total_macs: f64 = graphs
        .iter()
        .flat_map(|g| g.unrolled.nodes.iter())
        .map(|n| macs(&n.kernel))
        .sum();

    let before = rt.counters();
    let mut kernel_ms = Vec::new();
    let mut launch_ms = Vec::new();
    let mut parallel_ms = Vec::new();
    let mut fan_serial_ms = Vec::new();
    let mut apply_bytes = 0u64;
    for rep in 0..3 {
        let mut bare = 0.0;
        let mut launched = 0.0;
        for g in &graphs {
            let (result, s) = seconds(|| g.unrolled.run(sim, &g.inputs[0]));
            result?;
            bare += s;
            rt.configure(&Policy::plain(1));
            let (result, s) = seconds(|| rt.launch_compiled(&g.frozen, &g.inputs[0]));
            let run = result?;
            launched += s;
            if rep == 0 {
                apply_bytes += run.apply_bytes();
            }
            if g.name == "fan_out" {
                fan_serial_ms.push(s * 1e3);
                rt.configure(&Policy::plain(workers()));
                let (result, s) = seconds(|| rt.launch_compiled(&g.frozen, &g.inputs[0]));
                result?;
                parallel_ms.push(s * 1e3);
            }
        }
        kernel_ms.push(bare * 1e3);
        launch_ms.push(launched * 1e3);
    }
    let after = rt.counters();
    let kernel = median(&kernel_ms);
    out.time("sim.functional.kernel_ms", &kernel_ms);
    out.exact("sim.apply.bytes", apply_bytes as f64);
    out.exact("sim.apply.gb_per_s", apply_bytes as f64 / (kernel * 1e6));
    out.exact("sim.apply.mmac_per_s", total_macs / (kernel * 1e3));
    out.exact(
        "sim.par.speedup",
        median(&fan_serial_ms) / median(&parallel_ms),
    );
    out.exact(
        "runtime.executor.functional_overhead_pct",
        100.0 * (median(&launch_ms) - kernel) / median(&launch_ms),
    );
    let acquired = after.pool_acquired - before.pool_acquired;
    out.exact("runtime.pool.acquired", acquired as f64);
    out.exact(
        "runtime.pool.reuse_ratio",
        (after.pool_reused - before.pool_reused) as f64 / acquired.max(1) as f64,
    );
    Ok(())
}

/// Graph scheduling on one 1024-sized DAG: the scheduler's own cost
/// over the solo timing runs, the contention engine driven directly,
/// fusion and sharding counts, fault recovery, the event recorder.
fn schedule(sim: &Sim, out: &mut Out) -> Result<(), String> {
    let busy = Policy {
        parallelism: 1,
        streams: 8,
        devices: 2,
        fusion: true,
        faults: Faults::None,
    };
    let mut rt = Runtime::new(&busy);
    let mut logged = Runtime::with_event_log(&busy);
    let dag = Dag::prepare(0xD3, 1024, &mut rt)?;
    // Warm both sessions, and learn the clean makespan.
    let clean = rt.launch_timing(&dag.graph)?;
    logged.launch_timing(&dag.graph)?;
    let events_before = logged.logged_events();
    logged.launch_timing(&dag.graph)?;
    out.exact(
        "runtime.telemetry.events",
        (logged.logged_events() - events_before) as f64,
    );

    let transients = Policy {
        faults: Faults::Transients(2),
        ..busy
    };
    let loss = Policy {
        faults: Faults::DeviceLoss {
            at: clean.makespan * 0.5,
        },
        ..busy
    };
    let mut clean_us = Vec::new();
    let mut logged_us = Vec::new();
    let mut faulted_us = Vec::new();
    let mut solo_us = Vec::new();
    let mut step_us = Vec::new();
    let mut driven = None;
    let mut recovered = Vec::new();
    for rep in 0..REPS {
        rt.configure(&busy);
        let (result, s) = seconds(|| rt.launch_timing(&dag.graph));
        result?;
        clean_us.push(s * 1e6);
        let (result, s) = seconds(|| logged.launch_timing(&dag.graph));
        result?;
        logged_us.push(s * 1e6);
        let mut faulted = 0.0;
        for policy in [&transients, &loss] {
            rt.configure(policy);
            let (result, s) = seconds(|| rt.launch_timing(&dag.graph));
            let schedule = result?;
            faulted += s;
            if rep == 0 {
                recovered.push(schedule);
            }
        }
        faulted_us.push(faulted * 1e6 / 2.0);

        let (solo, s) = seconds(|| {
            dag.kernels
                .iter()
                .map(|k| adapter::time(sim, k))
                .collect::<Result<Vec<_>, _>>()
        });
        let solo = solo?;
        solo_us.push(s * 1e6);
        let profiles: Vec<_> = dag.kernel_of.iter().map(|&k| solo[k].clone()).collect();
        let (run, s) = seconds(|| adapter::drive_concurrent(&profiles, 2, 2));
        step_us.push(s * 1e6 / run.steps as f64);
        driven = Some(run);
    }
    let driven = driven.expect("REPS > 0");
    out.exact("sim.concurrent.steps", driven.steps as f64);
    out.time("sim.concurrent.us_per_step", &step_us);
    out.exact("sim.fault.injected", driven.faulted as f64);
    out.exact(
        "runtime.executor.schedule_us",
        median(&clean_us) - median(&solo_us),
    );
    out.exact(
        "runtime.recovery.retries",
        recovered.iter().map(|s| s.retries).sum::<u64>() as f64,
    );
    out.exact(
        "runtime.recovery.resharded",
        recovered.iter().map(|s| s.resharded).sum::<usize>() as f64,
    );
    out.exact(
        "runtime.recovery.overhead_cycles",
        recovered.iter().map(|s| s.overhead_cycles).sum(),
    );
    out.exact(
        "runtime.recovery.host_ratio",
        median(&faulted_us) / median(&clean_us),
    );
    out.exact(
        "runtime.telemetry.recorder_overhead_pct",
        100.0 * (median(&logged_us) / median(&clean_us) - 1.0),
    );
    // Fusion only pays below the device-filling sizes: one launch of
    // the 512-sized DAG puts applied rewrites beside the declined ones.
    rt.configure(&busy);
    let small = Dag::prepare(0xD2, 512, &mut rt)?;
    rt.launch_timing(&small.graph)?;
    let c: Counters = rt.counters();
    out.exact("runtime.fuse.applied", c.fusion_applied as f64);
    out.exact("runtime.fuse.declined", c.fusion_declined as f64);
    out.exact("runtime.shard.transfers", c.shard_transfers as f64);
    out.exact("runtime.shard.link_bytes", c.link_bytes as f64);
    out.exact("runtime.cache.hits", c.cache_hits as f64);
    out.exact("runtime.cache.misses", c.cache_misses as f64);
    Ok(())
}

/// The tuner on one mapping space (GEMM 512³, 36 candidates), and the
/// kernel cache under it.
fn tuner_and_cache(_sim: &Sim, out: &mut Out) -> Result<(), String> {
    let spec = KernelSpec::new(Family::Gemm, &[512, 512, 512]);
    let guided = Sweep {
        spec: spec.clone(),
        top_k: Some(guided_budget(&spec)),
    };
    let exhaustive = Sweep {
        spec: spec.clone(),
        top_k: None,
    };
    let mut exhaustive_ms = Vec::new();
    let mut guided_ms = Vec::new();
    let mut picks = None;
    for _ in 0..2 {
        let (e, s) = seconds(|| cold_sweep(&exhaustive));
        exhaustive_ms.push(s * 1e3);
        let (g, s) = seconds(|| cold_sweep(&guided));
        guided_ms.push(s * 1e3);
        picks = Some((e?, g?));
    }
    let (e, g) = picks.expect("two rounds ran");
    out.time("runtime.tuner.sweep_ms.exhaustive", &exhaustive_ms);
    out.time("runtime.tuner.sweep_ms.guided", &guided_ms);
    out.exact("runtime.tuner.candidates_timed", (e.timed + g.timed) as f64);
    out.exact(
        "runtime.tuner.guided_quality",
        e.tuned_cycles / g.tuned_cycles,
    );

    // One session, tuned once: table hits, the table's text format,
    // kernel-cache hits and misses.
    let mut rt = Runtime::new(&Policy::plain(workers()));
    rt.autotune(&spec, guided.top_k)?;
    out.exact("runtime.tuner.pruned", rt.counters().tuner_pruned as f64);
    let mut hit_us = Vec::new();
    let mut round_trip_us = Vec::new();
    for _ in 0..REPS {
        let (result, s) = seconds(|| rt.autotune(&spec, guided.top_k));
        result?;
        hit_us.push(s * 1e6);
        let (result, s) = seconds(|| rt.tuning_round_trip());
        if result? != 1 {
            return Err("the tuning table lost its entry in the text round trip".into());
        }
        round_trip_us.push(s * 1e6);
    }
    out.time("runtime.tuner.table_hit_us", &hit_us);
    out.time("runtime.tuner.table_roundtrip_us", &round_trip_us);

    let source = adapter::build_default(&spec)?;
    let mut cache_hit_us = Vec::new();
    let mut cache_miss_ms = Vec::new();
    for _ in 0..REPS {
        let mut cold = Runtime::new(&Policy::plain(1));
        let (result, s) = seconds(|| cold.compile(&source));
        result?;
        cache_miss_ms.push(s * 1e3);
        let (result, s) = seconds(|| cold.compile(&source));
        result?;
        cache_hit_us.push(s * 1e6);
    }
    out.time("runtime.cache.hit_us", &cache_hit_us);
    out.time("runtime.cache.miss_ms", &cache_miss_ms);
    Ok(())
}
