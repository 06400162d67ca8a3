//! The closed loop: one client, one process per workload run.
//!
//! An untraced run runs whole passes of its op list — *blocks* — a
//! number of times fixed by `--seconds` alone ([`blocks_for`]), sets the
//! workload up afresh at [`SETUPS`] points spread evenly over them
//! (`setup_s` is the fastest), then runs the output checks. A traced
//! run times a few untraced and traced blocks for the tracing overhead,
//! replays composite ops decomposed, writes the Chrome trace, and
//! (unless told not to) runs the layer probes.

use crate::json::Value;
use crate::workloads::{self, OpResult, Workload};
use crate::{adapter, probes, spec, stats, trace};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run. `setup_s` is the fastest of them, for the
/// reason the op times are per-op minima ([`best_op_ms`]): between a
/// quiet and a slow quarter of an hour of the reference box the median
/// of a run's set-ups moved by up to 24 %, against the 25 % the metric
/// may move at all.
const SETUPS: usize = 9;
/// Fewest blocks an untraced run measures, however short `--seconds`.
const MIN_BLOCKS: usize = 3;

/// Blocks an untraced run of `workload` measures: `seconds` divided by
/// what one block takes on the reference box ([`spec::WORKLOADS`]).
///
/// The count depends on `--seconds` and nothing measured, so the two
/// sides of an A/B repeat every op the same number of times and the
/// per-op minimum below is the same estimator on both. A run lasts
/// about `--seconds` on the reference box and proportionally less for
/// faster code.
pub fn blocks_for(workload: &str, seconds: f64) -> Result<usize, String> {
    let (_, _, block_s) = spec::WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    Ok(((seconds / block_s).round() as usize).max(MIN_BLOCKS))
}

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One block of a quarter of the ops; checks still on.
    pub quick: bool,
    /// Whether a traced run also runs the workload-independent layer
    /// probes (the suite runs them once, not once per workload).
    pub probes: bool,
    /// Where traces go.
    pub out_dir: PathBuf,
}

/// What one run found.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The run's own noise, for the reader and for `compare`; not part
    /// of the gated result.
    pub info: Vec<Metric>,
}

impl RunResult {
    /// The contract's result line.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

/// `{name: {"value": v, "unit": u}}`.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Value::obj([
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.into())),
            ]),
        )
    }))
}

/// One workload's entry in `results.json`: its result line, the
/// `#info` line of the same run, and the metrics of its traced run as
/// `layers`.
pub fn stored_run(
    result: Value,
    info: Option<Value>,
    traced: Option<&Value>,
) -> Result<Value, String> {
    let Value::Obj(mut run) = result else {
        return Err("a run result must be an object".into());
    };
    run.extend(info.map(|i| ("info".to_string(), i)));
    run.extend(
        traced
            .and_then(|t| t.get("metrics"))
            .cloned()
            .map(|m| ("layers".to_string(), m)),
    );
    Ok(Value::Obj(run))
}

/// One pass of the op list.
struct Block {
    seconds: f64,
    op_ms: Vec<f64>,
    results: Vec<OpResult>,
    failures: Vec<String>,
}

fn run_block(w: &mut dyn Workload, traced: bool) -> Block {
    let n = w.ops();
    let mut block = Block {
        seconds: 0.0,
        op_ms: Vec::with_capacity(n),
        results: Vec::with_capacity(n),
        failures: Vec::new(),
    };
    for i in 0..n {
        trace::set_op(i as u32);
        let t0 = Instant::now();
        let result = {
            let _op = trace::span(trace::OP_ROOT);
            w.run_op(i)
        };
        let elapsed = t0.elapsed().as_secs_f64();
        block.seconds += elapsed;
        block.op_ms.push(elapsed * 1e3);
        match result {
            Ok(r) => block.results.push(r),
            Err(e) => {
                block
                    .failures
                    .push(format!("op {i} ({}): {e}", w.op_label(i)));
                block.results.push(OpResult {
                    sim_cycles: f64::NAN,
                    digest: 0,
                });
            }
        }
        if traced {
            let _replay = trace::span(trace::REPLAY_ROOT);
            if let Err(e) = w.replay_op(i) {
                block.failures.push(format!("replay of op {i}: {e}"));
            }
        }
    }
    block
}

/// Each op's fastest time over the blocks.
///
/// The host this runs on slows down by 10–30 % for seconds at a time
/// (a shared 2-core VM), always in one direction, so the fastest of an
/// op's repetitions is the steadiest estimate of what the op costs:
/// over ten runs the spread of throughput built from per-op minima was
/// a third to a half of that built from block medians (README,
/// "Steadiness"). The block count is fixed ([`blocks_for`]), so the
/// minimum is over the same number of repetitions on both sides of an
/// A/B. A minimum cannot see a slowdown that hits only some
/// repetitions; the block median and the median over all op samples
/// are printed beside it (`#info`) and judged by `compare` too.
fn best_op_ms(blocks: &[Block]) -> Vec<f64> {
    (0..blocks[0].op_ms.len())
        .map(|i| {
            blocks
                .iter()
                .map(|b| b.op_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Ops of `block` whose exact outputs differ from the first block's.
fn drifted(first: &Block, block: &Block, w: &dyn Workload) -> Vec<String> {
    first
        .results
        .iter()
        .zip(&block.results)
        .enumerate()
        .filter(|(_, (a, b))| {
            a.digest != b.digest || a.sim_cycles.to_bits() != b.sim_cycles.to_bits()
        })
        .map(|(i, _)| format!("op {i} ({}) did not repeat exactly", w.op_label(i)))
        .collect()
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run `cfg` and report.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &RunConfig) -> Result<RunResult, String> {
    let (count, setups) = if cfg.quick {
        (1, 1)
    } else {
        (blocks_for(&cfg.workload, cfg.seconds)?, SETUPS)
    };
    // The set-ups are spread evenly through the run, each replacing
    // the workload the blocks run on, so a slow moment of the host
    // lands on one of them, not on all.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut blocks: Vec<Block> = Vec::with_capacity(count);
    for b in 0..count {
        if b == 0 || b * setups / count != (b - 1) * setups / count {
            drop(workload.take());
            let t0 = Instant::now();
            workload = Some(workloads::setup(&cfg.workload, cfg.seed, cfg.quick)?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let w = workload.as_mut().expect("block 0 sets up");
        blocks.push(run_block(w.as_mut(), false));
    }
    let mut w = workload.expect("at least one block ran");

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    for b in &blocks {
        attempted += b.results.len() as u64;
        failures.extend(b.failures.iter().cloned());
    }
    for b in &blocks[1..] {
        failures.extend(drifted(&blocks[0], b, w.as_ref()));
    }
    let checks = w.check();
    attempted += checks.attempted;
    failures.extend(checks.failures);

    let ops = w.ops();
    let rates: Vec<f64> = blocks.iter().map(|b| ops as f64 / b.seconds).collect();
    let op_ms: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.op_ms.iter().copied())
        .collect();
    let best_ms = best_op_ms(&blocks);
    let metrics = vec![
        Metric::new(
            "ops_per_s",
            ops as f64 / (best_ms.iter().sum::<f64>() / 1e3),
            "1/s",
            op_ms.len(),
        ),
        Metric::new("op_p50_ms", stats::median(&best_ms), "ms", op_ms.len()),
        Metric::new(
            "sim_cycles",
            workloads::total_cycles(&blocks[0].results),
            "cycles",
            1,
        ),
        Metric::new(
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
            setup_s.len(),
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    let info = vec![
        Metric::new("blocks", blocks.len() as f64, "count", 1),
        Metric::new("ops", ops as f64, "count", 1),
        Metric::new(
            "block_ops_per_s_p50",
            stats::median(&rates),
            "1/s",
            rates.len(),
        ),
        Metric::new(
            "block_spread_pct",
            100.0 * stats::iqr_share(&rates),
            "%",
            rates.len(),
        ),
        Metric::new(
            "setup_spread_pct",
            100.0 * stats::iqr_share(&setup_s),
            "%",
            setup_s.len(),
        ),
        Metric::new("op_all_p50_ms", stats::median(&op_ms), "ms", op_ms.len()),
        Metric::new(
            "op_all_p95_ms",
            stats::quantile(&op_ms, 0.95),
            "ms",
            op_ms.len(),
        ),
    ];
    Ok(RunResult {
        attempted,
        failed: failures.len() as u64,
        failures,
        metrics,
        info,
    })
}

/// Blocks of each kind the traced run times.
const TRACE_ROUNDS: usize = 2;

fn run_traced(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut w = workloads::setup(&cfg.workload, cfg.seed, cfg.quick)?;
    let ops = w.ops();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // Untraced and traced blocks alternate so drift lands on both.
    let mut plain: Vec<Block> = Vec::new();
    let mut traced: Vec<Block> = Vec::new();
    let mut spans = Vec::new();
    for _ in 0..if cfg.quick { 1 } else { TRACE_ROUNDS } {
        plain.push(run_block(w.as_mut(), false));
        trace::begin();
        traced.push(run_block(w.as_mut(), true));
        spans = trace::end();
    }
    for b in plain.iter().chain(&traced) {
        attempted += b.results.len() as u64;
        failures.extend(b.failures.iter().cloned());
        failures.extend(drifted(&plain[0], b, w.as_ref()));
    }

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let path = trace_path(&cfg.out_dir, &cfg.workload);
    std::fs::write(&path, trace::chrome_json(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let breakdown = trace::breakdown(&spans);
    let plain_rates: Vec<f64> = plain.iter().map(|b| ops as f64 / b.seconds).collect();
    let traced_rates: Vec<f64> = traced.iter().map(|b| ops as f64 / b.seconds).collect();
    let op_ms: Vec<f64> = plain.iter().flat_map(|b| b.op_ms.iter().copied()).collect();

    let mut out = probes::Out::new();
    if cfg.probes {
        probes::run(&mut out, &mut failures, &mut attempted);
    }
    for layer in trace::LAYERS {
        out.exact(&format!("trace.share.{layer}"), breakdown.share(layer));
    }
    out.exact("trace.accounted_pct", breakdown.accounted_pct());
    out.exact("trace.spans", spans.len() as f64);
    out.exact("harness.op_p95_ms", stats::quantile(&op_ms, 0.95));
    out.exact(
        "harness.block_spread_pct",
        100.0 * stats::iqr_share(&plain_rates),
    );
    out.exact(
        "harness.trace_overhead_pct",
        100.0 * (stats::median(&plain_rates) / stats::median(&traced_rates) - 1.0),
    );
    out.exact("harness.ops", ops as f64);
    out.exact("harness.nproc", adapter::nproc() as f64);
    out.exact(
        "harness.failed_share",
        failures.len() as f64 / attempted.max(1) as f64,
    );
    let metrics = out.finish(|name| cfg.probes || spec::is_per_workload(name))?;
    Ok(RunResult {
        attempted,
        failed: failures.len() as u64,
        failures,
        metrics,
        info: Vec::new(),
    })
}

/// The layer probes alone: the workload-independent per-layer metrics.
pub fn run_probes() -> Result<RunResult, String> {
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut out = probes::Out::new();
    probes::run(&mut out, &mut failures, &mut attempted);
    let metrics = out.finish(|name| !spec::is_per_workload(name))?;
    Ok(RunResult {
        attempted,
        failed: failures.len() as u64,
        failures,
        metrics,
        info: Vec::new(),
    })
}

/// Where the Chrome trace of `workload` is written.
pub fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("trace.{workload}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_block_count_follows_the_seconds_asked_for_and_nothing_else() {
        for (name, _, block_s) in spec::WORKLOADS {
            let at_15 = blocks_for(name, 15.0).unwrap();
            assert_eq!(at_15, (15.0 / block_s).round() as usize, "{name}");
            assert_eq!(blocks_for(name, 15.0).unwrap(), at_15, "{name}: repeats");
            assert!(blocks_for(name, 30.0).unwrap() >= 2 * at_15 - 1, "{name}");
            assert_eq!(blocks_for(name, 0.1).unwrap(), MIN_BLOCKS, "{name}");
        }
        assert!(blocks_for("no_such_workload", 15.0).is_err());
    }
}
