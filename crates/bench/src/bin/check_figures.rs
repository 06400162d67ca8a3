//! CI gate over `BENCH_figures.json`: every figure must be present with
//! its full row count, every measured `tflops` value must be a finite,
//! positive number, and the autotune figure's tuned series must never
//! lose to the hand-tuned H100 mappings (`tuned_speedup >= 1.0` on
//! every paper kernel — the tuner's contract, since the hand-tuned
//! mapping is one of its candidates). A refactor that silently drops a
//! series, produces NaN, or regresses the tuner fails the build instead
//! of the perf trajectory.
//!
//! Run with `cargo run --release -p cypress-bench --bin check_figures`
//! (after the `figures` binary has written the file).

use std::process::ExitCode;

/// `(figure id, expected row count)` — sizes x systems per figure.
const EXPECTED: [(&str, usize); 11] = [
    ("13a_gemm", 9),             // 3 sizes x {Cypress, Triton, cuBLAS}
    ("13b_batched_gemm", 9),     // 3 sizes x {Cypress, Triton, cuBLAS}
    ("13c_dual_gemm", 6),        // 3 sizes x {Cypress, Triton}
    ("13d_gemm_reduction", 6),   // 3 sizes x {Cypress, Triton}
    ("14_attention", 24),        // 4 seqs x 6 systems
    ("graph_overlap", 6),        // 3 sizes x {serial, 8 streams}
    ("fig_multi_gpu", 12),       // 3 sizes x {1, 2, 4 devices, comm overlap}
    ("fig_fusion", 12),          // 3 sizes x 2 workloads x {unfused, fused}
    ("fig_autotune", 50), // 5 paper kernels x 2 sizes x {hand, tuned, guided, 2 timed counts}
    ("fig_functional", 7), // {GEMM, attention, fan-out graph} x {fast/parallel, scalar/serial} + GEMM bytecode
    ("fig_fault_tolerance", 11), // 3 device counts x 3 transient rates + device loss at 2 and 4
];

/// The functional data-path gates: `(winner, loser, minimum ratio)` per
/// measured size. GEMM must beat the retained scalar interpreter by at
/// least 3x (the acceptance bar of the data-path rewrite), the
/// pre-lowered bytecode frontend must never lose to the fast-apply IR
/// walk it replaced (it runs the same apply kernels and skips the
/// per-launch flatten, so it is structurally never slower); the rest
/// must never lose. The bytecode and graph gates carry a small
/// tolerance because their rows are independent wall-clock
/// measurements on a possibly contended runner, so the slack only
/// absorbs scheduler jitter, never a real regression (the graph rows
/// run one executor at two worker counts, and the bytecode VM replays
/// the exact applies the walk issues).
const FUNCTIONAL_GATES: [(&str, &str, f64); 4] = [
    ("GEMM functional (fast)", "GEMM functional (scalar)", 3.0),
    ("GEMM functional (bytecode)", "GEMM functional (fast)", 0.95),
    (
        "Attention functional (fast)",
        "Attention functional (scalar)",
        1.0,
    ),
    ("Fan-out graph (parallel)", "Fan-out graph (serial)", 0.95),
];

/// The fused workloads of the fusion figure.
const FUSION_WORKLOADS: [&str; 2] = ["Chained GEMM", "GEMM+Reduction pair"];

/// The sharded series of the multi-GPU figure (labels from
/// `cypress_bench::multi_gpu_system`).
const MULTI_GPU_SYSTEMS: [&str; 3] = [
    "Sharded (1 device)",
    "Sharded (2 devices)",
    "Sharded (4 devices)",
];

/// The comm-overlap series of the multi-GPU figure.
const MULTI_GPU_OVERLAP: &str = "Comm overlap (2 devices)";

/// Minimum `guided / autotuned` throughput ratio of the autotune
/// figure: the cost-model-guided sweep times only the predicted top
/// half, so its winner may trail the exhaustive winner by at most 5%.
const GUIDED_QUALITY_FLOOR: f64 = 0.95;

/// The five paper kernels of the autotune figure.
const AUTOTUNE_KERNELS: [&str; 5] = [
    "gemm",
    "batched_gemm",
    "dual_gemm",
    "gemm_reduction",
    "attention_fa3",
];

/// Ceiling on every fault-tolerance recovery ratio: retrying a couple
/// of transients or losing one of the devices halfway may cost up to —
/// but never reach — this factor of the clean makespan.
const FAULT_OVERHEAD_CEILING: f64 = 4.0;

/// Row label of the fault figure's transient-retry series (mirrors
/// `cypress_bench::fault_retry_system`).
fn fault_retry_label(devices: usize, transients: usize) -> String {
    let dev = if devices == 1 { "device" } else { "devices" };
    let tr = if transients == 1 {
        "transient"
    } else {
        "transients"
    };
    format!("Retry ({devices} {dev}, {transients} {tr})")
}

/// The fault-tolerance gate: the zero-fault control costs *exactly*
/// nothing (the fault machinery must be bit-free when no fault fires),
/// transient retries cost something but stay bounded, and device-loss
/// recovery completes within the overhead ceiling.
fn check_fault_tolerance(json: &str) -> Result<(), String> {
    let rows = figure_rows(json, "fig_fault_tolerance");
    if rows.is_empty() {
        return Err("fig_fault_tolerance: no rows found".to_string());
    }
    let find = |system: &str| {
        rows.iter()
            .find(|(s, _, _)| s == system)
            .map(|(_, _, t)| *t)
            .ok_or_else(|| format!("fig_fault_tolerance: missing series `{system}`"))
    };
    for devices in [1usize, 2, 4] {
        for transients in [0usize, 1, 2] {
            let label = fault_retry_label(devices, transients);
            let v = find(&label)?;
            if transients == 0 {
                if v != 1.0 {
                    return Err(format!(
                        "fig_fault_tolerance: `{label}` is {v:.3} (gate: exactly 1.0) — \
                         an attached-but-silent fault plan must not change the schedule \
                         by a single bit"
                    ));
                }
            } else if v <= 1.0 || v > FAULT_OVERHEAD_CEILING {
                return Err(format!(
                    "fig_fault_tolerance: `{label}` is {v:.3} (gate: within \
                     (1.0, {FAULT_OVERHEAD_CEILING:.1}]) — a retried transient must cost \
                     something and recovery must stay bounded"
                ));
            }
        }
        if devices > 1 {
            let label = format!("Device loss ({devices} devices)");
            let v = find(&label)?;
            if !(1.0..FAULT_OVERHEAD_CEILING).contains(&v) {
                return Err(format!(
                    "fig_fault_tolerance: `{label}` is {v:.3} (gate: within \
                     [1.0, {FAULT_OVERHEAD_CEILING:.1})) — re-sharding onto survivors \
                     must complete without blowing the overhead ceiling"
                ));
            }
        }
    }
    Ok(())
}

/// Extract `(system, size, tflops)` triples of one figure's rows.
fn figure_rows(json: &str, figure: &str) -> Vec<(String, u64, f64)> {
    let needle = format!("\"figure\": \"{figure}\"");
    json.split('{')
        .filter(|chunk| chunk.contains(&needle))
        .filter_map(|chunk| {
            let system = chunk.split("\"system\": \"").nth(1)?.split('"').next()?;
            let size = chunk
                .split("\"size\": ")
                .nth(1)?
                .split(['}', ','])
                .next()?
                .trim()
                .parse()
                .ok()?;
            let tflops = chunk
                .split("\"tflops\": ")
                .nth(1)?
                .split(['}', ','])
                .next()?
                .trim()
                .parse()
                .ok()?;
            Some((system.to_string(), size, tflops))
        })
        .collect()
}

/// The autotune gate: for every paper kernel at every measured size,
/// `autotuned >= hand-tuned`.
fn check_autotune(json: &str) -> Result<(), String> {
    let rows = figure_rows(json, "fig_autotune");
    let sizes: std::collections::BTreeSet<u64> = rows.iter().map(|(_, s, _)| *s).collect();
    if sizes.is_empty() {
        return Err("fig_autotune: no rows found".to_string());
    }
    for &size in &sizes {
        for kernel in AUTOTUNE_KERNELS {
            let find = |suffix: &str| {
                let system = format!("{kernel} {suffix}");
                rows.iter()
                    .find(|(s, sz, _)| *s == system && *sz == size)
                    .map(|(_, _, t)| *t)
                    .ok_or_else(|| {
                        format!("fig_autotune: missing series `{system}` at size {size}")
                    })
            };
            let hand = find("hand-tuned")?;
            let tuned = find("autotuned")?;
            if tuned < hand {
                return Err(format!(
                    "fig_autotune: `{kernel}` at size {size} has tuned_speedup {:.4} < 1.0 \
                     ({tuned:.3} vs hand-tuned {hand:.3} TFLOP/s) — the tuner must never \
                     lose, the hand-tuned mapping is one of its candidates",
                    tuned / hand
                ));
            }
            let guided = find("guided")?;
            if guided < GUIDED_QUALITY_FLOOR * tuned {
                return Err(format!(
                    "fig_autotune: `{kernel}` at size {size} has guided_quality {:.4} < \
                     {GUIDED_QUALITY_FLOOR} ({guided:.3} vs autotuned {tuned:.3} TFLOP/s) — \
                     the cost model's top half no longer contains a near-best candidate",
                    guided / tuned
                ));
            }
            let timed_guided = find("candidates timed (guided)")?;
            let timed_exhaustive = find("candidates timed (exhaustive)")?;
            if timed_guided >= timed_exhaustive {
                return Err(format!(
                    "fig_autotune: `{kernel}` at size {size} timed {timed_guided:.0} candidates \
                     under the guided budget but {timed_exhaustive:.0} exhaustively — the guided \
                     sweep must simulate strictly fewer candidates"
                ));
            }
        }
    }
    Ok(())
}

/// The multi-GPU gate: at every measured size the 2-device shard
/// strictly beats the 1-device control on the 8-wide fan-out graph (the
/// roots are independent, so splitting them across devices must shorten
/// the makespan), and the comm-overlap series stays a valid fraction.
fn check_multi_gpu(json: &str) -> Result<(), String> {
    let rows = figure_rows(json, "fig_multi_gpu");
    let sizes: std::collections::BTreeSet<u64> = rows.iter().map(|(_, s, _)| *s).collect();
    if sizes.is_empty() {
        return Err("fig_multi_gpu: no rows found".to_string());
    }
    for &size in &sizes {
        let find = |system: &str| {
            rows.iter()
                .find(|(s, sz, _)| s == system && *sz == size)
                .map(|(_, _, t)| *t)
                .ok_or_else(|| format!("fig_multi_gpu: missing series `{system}` at size {size}"))
        };
        let [one, two, four] = MULTI_GPU_SYSTEMS.map(&find);
        let (one, two) = (one?, two?);
        four?;
        if two <= one {
            return Err(format!(
                "fig_multi_gpu: `{}` at size {size} does not beat `{}` \
                 ({two:.3} vs {one:.3} TFLOP/s, gate: strictly greater) — sharding the \
                 independent fan-out across two devices must shorten the makespan",
                MULTI_GPU_SYSTEMS[1], MULTI_GPU_SYSTEMS[0]
            ));
        }
        let overlap = find(MULTI_GPU_OVERLAP)?;
        if overlap > 1.0 {
            return Err(format!(
                "fig_multi_gpu: `{MULTI_GPU_OVERLAP}` at size {size} is {overlap:.3} — \
                 the hidden fraction of transfer cycles cannot exceed 1"
            ));
        }
    }
    Ok(())
}

/// The fusion gate: for every workload at every measured size, the
/// fused series never loses to the unfused one — the session's
/// simulator gate only applies rewrites that win, so a regression here
/// means the gate (or a fused kernel) broke.
fn check_fusion(json: &str) -> Result<(), String> {
    let rows = figure_rows(json, "fig_fusion");
    let sizes: std::collections::BTreeSet<u64> = rows.iter().map(|(_, s, _)| *s).collect();
    if sizes.is_empty() {
        return Err("fig_fusion: no rows found".to_string());
    }
    for &size in &sizes {
        for workload in FUSION_WORKLOADS {
            let find = |suffix: &str| {
                let system = format!("{workload} ({suffix})");
                rows.iter()
                    .find(|(s, sz, _)| *s == system && *sz == size)
                    .map(|(_, _, t)| *t)
                    .ok_or_else(|| format!("fig_fusion: missing series `{system}` at size {size}"))
            };
            let unfused = find("unfused")?;
            let fused = find("fused")?;
            if fused < unfused {
                return Err(format!(
                    "fig_fusion: `{workload}` at size {size} lost under fusion \
                     ({fused:.3} vs {unfused:.3} TFLOP/s, gate: fused >= unfused) — \
                     the simulator gate must leave losing rewrites unfused"
                ));
            }
        }
    }
    Ok(())
}

/// The functional gate: the fast data path and the parallel executor
/// never lose to the scalar/serial baselines they replaced, and GEMM
/// clears the 3x acceptance bar.
fn check_functional(json: &str) -> Result<(), String> {
    let rows = figure_rows(json, "fig_functional");
    let sizes: std::collections::BTreeSet<u64> = rows.iter().map(|(_, s, _)| *s).collect();
    if sizes.is_empty() {
        return Err("fig_functional: no rows found".to_string());
    }
    for &size in &sizes {
        for (winner, loser, floor) in FUNCTIONAL_GATES {
            let find = |system: &str| {
                rows.iter()
                    .find(|(s, sz, _)| s == system && *sz == size)
                    .map(|(_, _, t)| *t)
                    .ok_or_else(|| {
                        format!("fig_functional: missing series `{system}` at size {size}")
                    })
            };
            let won = find(winner)?;
            let lost = find(loser)?;
            if won < floor * lost {
                return Err(format!(
                    "fig_functional: `{winner}` at size {size} is only {:.2}x of \
                     `{loser}` ({won:.1} vs {lost:.1}), below the {floor:.1}x gate",
                    won / lost
                ));
            }
        }
    }
    Ok(())
}

fn check(json: &str) -> Result<usize, String> {
    let mut total = 0;
    for (figure, expected) in EXPECTED {
        let needle = format!("\"figure\": \"{figure}\"");
        let count = json.matches(&needle).count();
        if count != expected {
            return Err(format!(
                "figure `{figure}`: expected {expected} rows, found {count}"
            ));
        }
        total += count;
    }
    let rows = json.matches("\"figure\"").count();
    if rows != total {
        return Err(format!(
            "{rows} rows in file but only {total} accounted for by known figures"
        ));
    }
    // Every tflops value must parse as a finite, positive number. NaN and
    // infinity are not valid JSON numbers, so they would also corrupt the
    // file — catch them by name, and name the offending row so the CI log
    // says *which* measurement went bad, not just that one did.
    let field = |chunk: &str, key: &str| {
        chunk
            .split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|rest| rest.split(['}', ',']).next())
            .unwrap_or("?")
            .trim()
            .trim_matches('"')
            .to_string()
    };
    let mut values = 0;
    for chunk in json.split('{').filter(|c| c.contains("\"tflops\": ")) {
        let raw = field(chunk, "tflops");
        let row = format!(
            "row {{figure: {}, system: {}, size: {}}}",
            field(chunk, "figure"),
            field(chunk, "system"),
            field(chunk, "size")
        );
        let v: f64 = raw
            .parse()
            .map_err(|e| format!("{row}: tflops `{raw}` does not parse: {e}"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "{row}: tflops `{raw}` is not a finite positive number \
                 (gate: finite and > 0)"
            ));
        }
        values += 1;
    }
    if values != rows {
        return Err(format!("{rows} rows but {values} tflops values"));
    }
    check_autotune(json)?;
    check_multi_gpu(json)?;
    check_fusion(json)?;
    check_functional(json)?;
    check_fault_tolerance(json)?;
    Ok(rows)
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_figures.json".to_string());
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("check_figures: cannot read {path}: {e} (run the `figures` binary first)");
            return ExitCode::FAILURE;
        }
    };
    match check(&json) {
        Ok(rows) => {
            println!("check_figures: {path} ok ({rows} rows, all figures present, no NaN)");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("check_figures: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{check, AUTOTUNE_KERNELS};

    fn row_with_system(figure: &str, system: &str, size: usize, tflops: &str) -> String {
        format!(
            "    {{\"figure\": \"{figure}\", \"system\": \"{system}\", \"size\": {size}, \"tflops\": {tflops}}}"
        )
    }

    fn row(figure: &str, tflops: &str) -> String {
        row_with_system(figure, "s", 1, tflops)
    }

    fn full_file(overrides: &[(usize, &str)]) -> String {
        let mut rows = Vec::new();
        for (figure, count) in super::EXPECTED {
            if figure == "fig_autotune" {
                for size in [512, 4096] {
                    for kernel in AUTOTUNE_KERNELS {
                        for (suffix, tflops) in [
                            ("hand-tuned", "100.0"),
                            ("autotuned", "110.0"),
                            ("guided", "110.0"),
                            ("candidates timed (guided)", "6.0"),
                            ("candidates timed (exhaustive)", "12.0"),
                        ] {
                            rows.push(row_with_system(
                                figure,
                                &format!("{kernel} {suffix}"),
                                size,
                                tflops,
                            ));
                        }
                    }
                }
            } else if figure == "fig_fusion" {
                for size in [256, 512, 1024] {
                    for workload in super::FUSION_WORKLOADS {
                        rows.push(row_with_system(
                            figure,
                            &format!("{workload} (unfused)"),
                            size,
                            "50.0",
                        ));
                        rows.push(row_with_system(
                            figure,
                            &format!("{workload} (fused)"),
                            size,
                            "75.0",
                        ));
                    }
                }
            } else if figure == "fig_multi_gpu" {
                for size in [256, 512, 1024] {
                    for (system, tflops) in [
                        ("Sharded (1 device)", "50.0"),
                        ("Sharded (2 devices)", "90.0"),
                        ("Sharded (4 devices)", "150.0"),
                        ("Comm overlap (2 devices)", "0.8"),
                    ] {
                        rows.push(row_with_system(figure, system, size, tflops));
                    }
                }
            } else if figure == "fig_fault_tolerance" {
                for devices in [1usize, 2, 4] {
                    for (transients, tflops) in [(0, "1.000"), (1, "1.150"), (2, "1.300")] {
                        rows.push(row_with_system(
                            figure,
                            &super::fault_retry_label(devices, transients),
                            1024,
                            tflops,
                        ));
                    }
                    if devices > 1 {
                        rows.push(row_with_system(
                            figure,
                            &format!("Device loss ({devices} devices)"),
                            1024,
                            "1.800",
                        ));
                    }
                }
            } else if figure == "fig_functional" {
                // One row per distinct system ("GEMM functional (fast)"
                // appears in two gates); values satisfy every gate:
                // bytecode >= fast >= 3x scalar, parallel >= serial.
                for (system, tflops) in [
                    ("GEMM functional (bytecode)", "410.0"),
                    ("GEMM functional (fast)", "400.0"),
                    ("GEMM functional (scalar)", "100.0"),
                    ("Attention functional (fast)", "400.0"),
                    ("Attention functional (scalar)", "100.0"),
                    ("Fan-out graph (parallel)", "400.0"),
                    ("Fan-out graph (serial)", "100.0"),
                ] {
                    rows.push(row_with_system(figure, system, 256, tflops));
                }
            } else {
                for _ in 0..count {
                    rows.push(row(figure, "123.456"));
                }
            }
        }
        for &(i, tflops) in overrides {
            rows[i] = row(super::EXPECTED[0].0, tflops);
        }
        format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }

    #[test]
    fn complete_file_passes() {
        assert_eq!(check(&full_file(&[])), Ok(152));
    }

    #[test]
    fn nonfree_zero_fault_control_fails() {
        // 1.001: a silent fault plan that perturbs the schedule at all.
        let json = full_file(&[]).replacen(
            "\"system\": \"Retry (2 devices, 0 transients)\", \"size\": 1024, \"tflops\": 1.000",
            "\"system\": \"Retry (2 devices, 0 transients)\", \"size\": 1024, \"tflops\": 1.001",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("Retry (2 devices, 0 transients)"), "{err}");
        assert!(err.contains("exactly 1.0"), "{err}");
    }

    #[test]
    fn free_transient_retry_fails() {
        // A retried transient consumes its failed attempt's cycles, so
        // a ratio of exactly 1.0 means the fault never fired.
        let json = full_file(&[]).replacen(
            "\"system\": \"Retry (1 device, 1 transient)\", \"size\": 1024, \"tflops\": 1.150",
            "\"system\": \"Retry (1 device, 1 transient)\", \"size\": 1024, \"tflops\": 1.000",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("Retry (1 device, 1 transient)"), "{err}");
        assert!(err.contains("must cost something"), "{err}");
    }

    #[test]
    fn unbounded_device_loss_recovery_fails() {
        let json = full_file(&[]).replacen(
            "\"system\": \"Device loss (4 devices)\", \"size\": 1024, \"tflops\": 1.800",
            "\"system\": \"Device loss (4 devices)\", \"size\": 1024, \"tflops\": 4.500",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("Device loss (4 devices)"), "{err}");
        assert!(err.contains("overhead ceiling"), "{err}");
    }

    #[test]
    fn two_device_shard_not_beating_one_fails() {
        // A tie is already a failure: the gate is strictly greater.
        let json = full_file(&[]).replacen(
            "\"system\": \"Sharded (2 devices)\", \"size\": 512, \"tflops\": 90.0",
            "\"system\": \"Sharded (2 devices)\", \"size\": 512, \"tflops\": 50.0",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("Sharded (2 devices)"), "{err}");
        assert!(err.contains("512"), "{err}");
        assert!(err.contains("strictly greater"), "{err}");
    }

    #[test]
    fn comm_overlap_above_one_fails() {
        let json = full_file(&[]).replacen(
            "\"system\": \"Comm overlap (2 devices)\", \"size\": 1024, \"tflops\": 0.8",
            "\"system\": \"Comm overlap (2 devices)\", \"size\": 1024, \"tflops\": 1.2",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("Comm overlap"), "{err}");
        assert!(err.contains("cannot exceed 1"), "{err}");
    }

    #[test]
    fn missing_multi_gpu_series_fails() {
        let json = full_file(&[]).replacen(
            "\"system\": \"Sharded (4 devices)\", \"size\": 256",
            "\"system\": \"Sharded (5 devices)\", \"size\": 256",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(
            err.contains("missing series `Sharded (4 devices)`"),
            "{err}"
        );
    }

    #[test]
    fn guided_quality_below_floor_fails() {
        // 0.90x of the exhaustive winner: below the 0.95 gate.
        let json = full_file(&[]).replacen(
            "\"system\": \"gemm guided\", \"size\": 4096, \"tflops\": 110.0",
            "\"system\": \"gemm guided\", \"size\": 4096, \"tflops\": 99.0",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("guided_quality"), "{err}");
        assert!(err.contains("`gemm`"), "{err}");
    }

    #[test]
    fn guided_quality_at_floor_passes() {
        let json = full_file(&[]).replacen(
            "\"system\": \"gemm guided\", \"size\": 4096, \"tflops\": 110.0",
            "\"system\": \"gemm guided\", \"size\": 4096, \"tflops\": 104.5",
            1,
        );
        assert!(check(&json).is_ok());
    }

    #[test]
    fn guided_timing_as_many_candidates_fails() {
        // Equal counts mean the guided sweep saved nothing.
        let json = full_file(&[]).replacen(
            "\"system\": \"dual_gemm candidates timed (guided)\", \"size\": 512, \"tflops\": 6.0",
            "\"system\": \"dual_gemm candidates timed (guided)\", \"size\": 512, \"tflops\": 12.0",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("strictly fewer"), "{err}");
        assert!(err.contains("`dual_gemm`"), "{err}");
    }

    #[test]
    fn functional_gemm_below_3x_fails() {
        // 2.5x over the scalar path: above 1 but below the 3x gate.
        let json = full_file(&[]).replacen(
            "\"system\": \"GEMM functional (fast)\", \"size\": 256, \"tflops\": 400.0",
            "\"system\": \"GEMM functional (fast)\", \"size\": 256, \"tflops\": 250.0",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("below the 3.0x gate"), "{err}");
    }

    #[test]
    fn functional_bytecode_regression_fails() {
        // Bytecode dipping below the fast-apply walk it replaced (past
        // the jitter slack) fails.
        let json = full_file(&[]).replacen(
            "\"system\": \"GEMM functional (bytecode)\", \"size\": 256, \"tflops\": 410.0",
            "\"system\": \"GEMM functional (bytecode)\", \"size\": 256, \"tflops\": 360.0",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("GEMM functional (bytecode)"), "{err}");
        assert!(err.contains("gate"), "{err}");
    }

    #[test]
    fn parallel_graph_regression_fails() {
        let json = full_file(&[]).replacen(
            "\"system\": \"Fan-out graph (parallel)\", \"size\": 256, \"tflops\": 400.0",
            "\"system\": \"Fan-out graph (parallel)\", \"size\": 256, \"tflops\": 90.0",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("Fan-out graph (parallel)"), "{err}");
    }

    #[test]
    fn fusion_regression_fails() {
        // Flip one workload's fused row below its unfused row.
        let json = full_file(&[]).replacen(
            "\"system\": \"Chained GEMM (fused)\", \"size\": 512, \"tflops\": 75.0",
            "\"system\": \"Chained GEMM (fused)\", \"size\": 512, \"tflops\": 40.0",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("lost under fusion"), "{err}");
        assert!(err.contains("512"), "{err}");
    }

    #[test]
    fn missing_rows_fail() {
        let json = full_file(&[]).replacen("\"figure\": \"13a_gemm\"", "\"figure\": \"gone\"", 1);
        assert!(check(&json).unwrap_err().contains("13a_gemm"));
    }

    #[test]
    fn nan_fails_and_names_the_row() {
        let json = full_file(&[(0, "NaN")]);
        let err = check(&json).unwrap_err();
        assert!(err.contains("NaN"), "{err}");
        assert!(err.contains("figure: 13a_gemm"), "{err}");
        assert!(err.contains("system: s"), "{err}");
    }

    #[test]
    fn zero_fails() {
        let json = full_file(&[(1, "0.000")]);
        assert!(check(&json).is_err());
    }

    #[test]
    fn tuned_regression_fails() {
        // Flip one kernel's tuned row below its hand-tuned row.
        let json = full_file(&[]).replacen(
            "\"system\": \"gemm autotuned\", \"size\": 4096, \"tflops\": 110.0",
            "\"system\": \"gemm autotuned\", \"size\": 4096, \"tflops\": 90.0",
            1,
        );
        let err = check(&json).unwrap_err();
        assert!(err.contains("tuned_speedup"), "{err}");
        assert!(err.contains("`gemm`"), "{err}");
        assert!(err.contains("4096"), "{err}");
    }

    #[test]
    fn tuned_tie_passes() {
        // Hand-tuned already optimal: equal rows are fine.
        let json = full_file(&[]).replacen(
            "\"system\": \"gemm autotuned\", \"size\": 4096, \"tflops\": 110.0",
            "\"system\": \"gemm autotuned\", \"size\": 4096, \"tflops\": 100.0",
            1,
        );
        assert!(check(&json).is_ok());
    }
}
