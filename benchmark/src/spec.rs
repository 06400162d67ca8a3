//! The benchmark's contract as data: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is this file rendered (`cypress-benchmark spec`), and a
//! self-test keeps the two equal.

use crate::json::Value;

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 15;

/// `(name, why it exists, seconds one block — one pass of the op
/// list — takes on the 2-core reference box)`. The last fixes how many
/// blocks a run of `--seconds` measures (`harness::blocks_for`): it is
/// part of the benchmark's definition, not a measurement, and changing
/// it changes what `ops_per_s` and `op_p50_ms` mean.
pub const WORKLOADS: [(&str, &str, f64); 5] = [
    (
        "compile_cold",
        "fresh Fig. 6 compile of every kernel family at several mapping points, then one timing run: the compiler does the work",
        1.25,
    ),
    (
        "sim_timing",
        "timing-mode runs of the pre-lowered Fig. 13/14 kernel set, Cypress and baselines: the discrete-event engine does the work, the compiler none",
        0.7,
    ),
    (
        "graph_functional",
        "functional launches of a compiled transformer layer and an 8-wide GEMM fan-out: the apply data path, executor and buffer pool do the work",
        0.55,
    ),
    (
        "graph_schedule",
        "warm timing launches of random DAGs across streams x devices x faults x fusion: sharding, stream scheduling and fault recovery do the work",
        0.75,
    ),
    (
        "tune_sweep",
        "cold exhaustive and cost-model-guided autotune sweeps: the same passes and engine, driven through the tuner, kernel cache and worker pool",
        0.7,
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// One end-to-end metric: `bound` is the share of the parent's median
/// it may worsen by before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Simulated-clock metrics must repeat exactly: `compare` demands
    /// equality, and the bound the driver is given (1e-9, less than
    /// one cycle of any workload's total) is zero in all but name.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: Lower,
        bound: 1e-9,
        exact: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        exact: false,
    },
];

/// `(name, unit, better)` of every per-layer metric, in print order.
/// Units `count`, `bytes` and `cycles` mark exact metrics: they must
/// repeat bit for bit between two runs of one commit.
pub const PER_LAYER: [(&str, &str, Better); 74] = [
    ("core.front.build_us", "us", Lower),
    ("core.fingerprint_us", "us", Lower),
    ("core.pass.depan_us", "us", Lower),
    ("core.pass.vectorize_us", "us", Lower),
    ("core.pass.copyelim_us", "us", Lower),
    ("core.pass.alloc_us", "us", Lower),
    ("core.pass.warpspec_us", "us", Lower),
    ("core.pass.codegen_us", "us", Lower),
    ("core.pass.lower_us", "us", Lower),
    ("core.copyelim.share", "ratio", Lower),
    ("core.copyelim.removed_copies", "count", Higher),
    ("core.copyelim.rounds", "count", Lower),
    ("core.kernel.smem_bytes", "bytes", Lower),
    ("core.kernel.cuda_bytes", "bytes", Lower),
    ("sim.lower_us", "us", Lower),
    ("core.cost.estimate_us", "us", Lower),
    ("baselines.build_us", "us", Lower),
    ("sim.engine.events", "count", Lower),
    ("sim.engine.ns_per_event", "ns", Lower),
    ("sim.engine.events_per_s", "1/s", Higher),
    ("baselines.sim_cycles", "cycles", Lower),
    ("baselines.band_miss", "count", Lower),
    ("baselines.band_excess_max", "ratio", Lower),
    ("tensor.random_ms", "ms", Lower),
    ("tensor.reference_ms", "ms", Lower),
    ("runtime.compile_graph_ms", "ms", Lower),
    ("sim.functional.kernel_ms", "ms", Lower),
    ("sim.apply.bytes", "bytes", Lower),
    ("sim.apply.gb_per_s", "GB/s", Higher),
    ("sim.apply.mmac_per_s", "1e6/s", Higher),
    ("sim.par.speedup", "ratio", Higher),
    ("runtime.executor.functional_overhead_pct", "%", Lower),
    ("runtime.pool.acquired", "count", Lower),
    ("runtime.pool.reuse_ratio", "ratio", Higher),
    ("runtime.telemetry.events", "count", Lower),
    ("sim.concurrent.steps", "count", Lower),
    ("sim.concurrent.us_per_step", "us", Lower),
    ("sim.fault.injected", "count", Higher),
    ("runtime.executor.schedule_us", "us", Lower),
    ("runtime.recovery.retries", "count", Lower),
    ("runtime.recovery.resharded", "count", Lower),
    ("runtime.recovery.overhead_cycles", "cycles", Lower),
    ("runtime.recovery.host_ratio", "ratio", Lower),
    ("runtime.telemetry.recorder_overhead_pct", "%", Lower),
    ("runtime.fuse.applied", "count", Higher),
    ("runtime.fuse.declined", "count", Lower),
    ("runtime.shard.transfers", "count", Lower),
    ("runtime.shard.link_bytes", "bytes", Lower),
    ("runtime.cache.hits", "count", Higher),
    ("runtime.cache.misses", "count", Lower),
    ("runtime.tuner.sweep_ms.exhaustive", "ms", Lower),
    ("runtime.tuner.sweep_ms.guided", "ms", Lower),
    ("runtime.tuner.candidates_timed", "count", Lower),
    ("runtime.tuner.guided_quality", "ratio", Higher),
    ("runtime.tuner.pruned", "count", Higher),
    ("runtime.tuner.table_hit_us", "us", Lower),
    ("runtime.tuner.table_roundtrip_us", "us", Lower),
    ("runtime.cache.hit_us", "us", Lower),
    ("runtime.cache.miss_ms", "ms", Lower),
    ("trace.share.core", "ratio", Lower),
    ("trace.share.sim.engine", "ratio", Lower),
    ("trace.share.sim.functional", "ratio", Lower),
    ("trace.share.sim.concurrent", "ratio", Lower),
    ("trace.share.runtime", "ratio", Lower),
    ("trace.share.harness", "ratio", Lower),
    ("trace.accounted_pct", "%", Higher),
    ("trace.spans", "count", Lower),
    ("harness.op_p95_ms", "ms", Lower),
    ("harness.block_spread_pct", "%", Lower),
    ("harness.trace_overhead_pct", "%", Lower),
    ("harness.ops", "count", Higher),
    ("harness.nproc", "count", Higher),
    ("harness.failed_share", "ratio", Lower),
    ("probes.wall_s", "s", Lower),
];

/// The unit of per-layer metric `name`.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
}

/// Whether layer metric `name` describes the traced workload (its
/// trace breakdown, the run's own noise) rather than a fixed-input
/// layer probe, which reads the same whatever the workload.
pub fn is_per_workload(name: &str) -> bool {
    name.starts_with("trace.") || name.starts_with("harness.")
}

/// Whether a unit marks a metric that must repeat exactly.
pub fn is_exact_unit(unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "cycles")
}

/// `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let s = |x: &str| Value::Str(x.to_string());
    Value::obj([
        (
            "command",
            Value::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why, _)| Value::obj([("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.word())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Value::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let on_disk = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        // `assert!`, not `assert_eq!`: the two documents are pages long.
        assert!(
            on_disk == benchmark_json(),
            "regenerate with `benchmark/run.sh spec | python3 -m json.tool --indent 2 > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_table_meets_the_contract_limits() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for (_, why, _) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(
            WORKLOADS.map(|w| w.0),
            crate::workloads::NAMES,
            "the table and the set-up dispatch name the same workloads"
        );
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(PER_LAYER.len() <= 128);
        assert!(benchmark_json().render().len() < 64 * 1024);
    }
}
