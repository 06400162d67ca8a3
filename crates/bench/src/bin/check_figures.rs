//! CI gate over `BENCH_figures.json`: the file must parse, hold every
//! row of `cypress_bench::expected_rows` exactly once with a finite,
//! positive value and nothing else, and satisfy every relation of
//! `cypress_bench::gates`. A refactor that silently drops a series,
//! produces NaN, or regresses the tuner, the sharder, fusion or fault
//! recovery fails the build instead of the perf trajectory.
//!
//! Run with `cargo run --release -p cypress-bench --bin check_figures`
//! (after the `figures` binary has written the file).

use cypress_bench::{expected_rows, gates, FigureFile};
use std::process::ExitCode;

fn check(json: &str) -> Result<usize, String> {
    let rows = FigureFile::parse(json)?.rows;
    let expected = expected_rows();
    for (figure, system, size) in &expected {
        let found = rows
            .iter()
            .filter(|r| (r.figure.as_str(), &r.system, r.size) == (*figure, system, *size));
        match found.count() {
            1 => {}
            0 => {
                return Err(format!(
                    "{figure}: missing series `{system}` at size {size}"
                ))
            }
            n => return Err(format!("{figure}: `{system}` @ {size} appears {n} times")),
        }
    }
    for row in &rows {
        let known = |(figure, system, size): &(&str, String, usize)| {
            (row.figure.as_str(), &row.system, row.size) == (*figure, system, *size)
        };
        if !expected.iter().any(known) {
            return Err(format!("{row} is not a row any figure emits"));
        }
        if !row.value.is_finite() || row.value <= 0.0 {
            let value = row.value;
            return Err(format!("{row} is {value:.3} (gate: finite and > 0)"));
        }
    }
    for gate in gates() {
        gate.check(&rows)?;
    }
    Ok(rows.len())
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
            println!(
                "check_figures: {path} ok ({rows} rows, all figures present, every gate holds)"
            );
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
    use super::check;
    use cypress_bench::{expected_rows, gates, value, FigureFile, Rel, Row, Unit};

    /// Every expected row, with values that satisfy every gate.
    fn passing_rows() -> Vec<Row> {
        let values = [
            ("candidates timed (guided)", 6.0),
            ("candidates timed (exhaustive)", 12.0),
            ("hand-tuned", 100.0),
            ("autotuned", 110.0),
            ("guided", 110.0),
            ("(unfused)", 50.0),
            ("(fused)", 75.0),
            ("Comm overlap (2 devices)", 0.8),
            ("Sharded (1 device)", 50.0),
            ("Sharded (2 devices)", 90.0),
            ("Sharded (4 devices)", 150.0),
            ("0 transients)", 1.0),
            ("1 transient)", 1.15),
            ("2 transients)", 1.3),
            ("Device loss", 1.8),
        ];
        let value_of = |system: &str| {
            let hit = values.iter().find(|(part, _)| system.contains(part));
            hit.map_or(123.456, |(_, v)| *v)
        };
        let row = |(figure, system, size): (&str, String, usize)| {
            Row::new(figure, &system, size, value_of(&system), Unit::Tflops)
        };
        expected_rows().into_iter().map(row).collect()
    }

    fn render(rows: Vec<Row>) -> String {
        let file = FigureFile {
            machine: "test".into(),
            peak_tflops: 1.0,
            rows,
        };
        file.to_json().unwrap()
    }

    /// The passing file with the `(system, size)` rows of `edits` set
    /// to new values (every figure's, where figures share the label).
    fn file_with(edits: &[(&str, usize, f64)]) -> String {
        let mut rows = passing_rows();
        for &(system, size, value) in edits {
            let mut hits = rows
                .iter_mut()
                .filter(|r| r.system == system && r.size == size)
                .peekable();
            assert!(hits.peek().is_some(), "no row `{system}` @ {size}");
            hits.for_each(|r| r.value = value);
        }
        render(rows)
    }

    /// `json` must fail the check with an error holding every needle.
    fn assert_fails(json: &str, needles: &[&str]) {
        let err = check(json).unwrap_err();
        for needle in needles {
            assert!(err.contains(needle), "no `{needle}` in: {err}");
        }
    }

    /// The passing file with one row set to `value` must fail likewise.
    fn edit_fails(system: &str, size: usize, value: f64, needles: &[&str]) {
        assert_fails(&file_with(&[(system, size, value)]), needles);
    }

    #[test]
    fn complete_file_passes() {
        assert_eq!(check(&file_with(&[])), Ok(145));
    }

    #[test]
    fn committed_file_passes_every_gate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json");
        assert_eq!(check(&std::fs::read_to_string(path).unwrap()), Ok(145));
    }

    /// Each gate of the table, on its own: pushing its row just past
    /// the bound (the file keeps three decimals) fails the passing file
    /// with an error naming the row, the row it is bounded by and the
    /// gate's `why`.
    #[test]
    fn every_gate_fails_just_past_its_bound() {
        let (table, rows) = (gates(), passing_rows());
        assert!(table.len() > 50, "{}", table.len());
        for gate in table {
            let figure = rows.iter().filter(|r| r.figure == gate.figure);
            let of = gate.of.as_deref();
            let bound = gate.factor * of.map_or(1.0, |of| value(figure, of, gate.size).unwrap());
            let past = match gate.rel {
                Rel::Ge => bound - 0.002,
                Rel::Gt | Rel::Lt => bound,
                Rel::Le | Rel::Eq => bound + 0.002,
            };
            let row = format!("`{}` @ {}", gate.system, gate.size);
            let needles = [&row, gate.why, of.unwrap_or("")];
            edit_fails(&gate.system, gate.size, past, &needles);
        }
    }

    #[test]
    fn nonfree_zero_fault_control_fails() {
        // 1.001: a silent fault plan that perturbs the schedule at all.
        let system = "Retry (2 devices, 0 transients)";
        edit_fails(system, 1024, 1.001, &[system, "exactly 1.0"]);
    }

    #[test]
    fn free_transient_retry_fails() {
        // A retried transient consumes its failed attempt's cycles, so
        // a ratio of exactly 1.0 means the fault never fired.
        let system = "Retry (1 device, 1 transient)";
        edit_fails(system, 1024, 1.0, &[system, "must cost something"]);
    }

    #[test]
    fn unbounded_device_loss_recovery_fails() {
        let system = "Device loss (4 devices)";
        edit_fails(system, 1024, 4.5, &[system, "overhead ceiling"]);
    }

    #[test]
    fn two_device_shard_not_beating_one_fails() {
        // A tie is already a failure: the gate is strictly greater.
        let system = "Sharded (2 devices)";
        edit_fails(system, 2048, 50.0, &[system, "2048", "strictly greater"]);
    }

    #[test]
    fn comm_overlap_above_one_fails() {
        edit_fails(
            "Comm overlap (2 devices)",
            1024,
            1.2,
            &["Comm overlap", "cannot exceed 1"],
        );
    }

    #[test]
    fn missing_multi_gpu_series_fails() {
        let json = file_with(&[]).replacen("Sharded (4 devices)", "Sharded (5 devices)", 1);
        assert_fails(&json, &["missing series `Sharded (4 devices)`"]);
    }

    /// Nine `13a_gemm` rows, as expected — but one series twice and
    /// another absent.
    #[test]
    fn duplicate_row_fails_and_names_the_key() {
        let json = file_with(&[]).replacen(
            "\"cuBLAS\", \"size\": 4096",
            "\"Cypress\", \"size\": 4096",
            1,
        );
        assert_fails(&json, &["13a_gemm: `Cypress` @ 4096 appears 2 times"]);
    }

    #[test]
    fn missing_row_fails_and_names_the_key() {
        let mut rows = passing_rows();
        rows.retain(|r| (r.figure.as_str(), r.system.as_str()) != ("13a_gemm", "cuBLAS"));
        assert_fails(
            &render(rows),
            &["13a_gemm: missing series `cuBLAS` at size 4096"],
        );
    }

    #[test]
    fn guided_quality_below_floor_fails() {
        // 0.90x of the exhaustive winner: below the 0.95 gate.
        edit_fails(
            "gemm guided",
            4096,
            99.0,
            &["guided_quality", "`gemm guided`"],
        );
    }

    #[test]
    fn guided_quality_at_floor_passes() {
        assert!(check(&file_with(&[("gemm guided", 4096, 104.5)])).is_ok());
    }

    #[test]
    fn guided_timing_as_many_candidates_fails() {
        // Equal counts mean the guided sweep saved nothing.
        let system = "dual_gemm candidates timed (guided)";
        edit_fails(system, 512, 12.0, &["strictly fewer", system]);
    }

    #[test]
    fn fusion_regression_fails() {
        // Flip one workload's fused row below its unfused row.
        edit_fails(
            "Chained GEMM (fused)",
            512,
            40.0,
            &["lost under fusion", "512"],
        );
    }

    #[test]
    fn missing_rows_fail() {
        let json = file_with(&[]).replacen("\"figure\": \"13a_gemm\"", "\"figure\": \"gone\"", 1);
        assert_fails(&json, &["13a_gemm"]);
    }

    #[test]
    fn nan_fails_and_names_the_row() {
        // `NaN` is not JSON: the file does not parse, and the error
        // quotes the offending line — the file's fifth.
        let json = file_with(&[]).replacen("\"tflops\": 123.456", "\"tflops\": NaN", 1);
        let line = "line 5";
        assert_fails(
            &json,
            &[
                "NaN",
                line,
                "\"figure\": \"13a_gemm\"",
                "\"system\": \"Cypress\"",
            ],
        );
    }

    #[test]
    fn zero_fails() {
        edit_fails("Triton", 4096, 0.0, &["`Triton` @ 4096 is 0.000"]);
    }

    #[test]
    fn bad_value_names_a_label_with_commas_in_full() {
        let system = "Retry (2 devices, 0 transients)";
        let row = format!("fig_fault_tolerance: `{system}` @ 1024");
        edit_fails(system, 1024, 0.0, &[&row]);
    }

    #[test]
    fn tuned_regression_fails() {
        // Flip one kernel's tuned row below its hand-tuned row.
        edit_fails(
            "gemm autotuned",
            4096,
            90.0,
            &["tuned_speedup", "`gemm autotuned`", "4096"],
        );
    }

    #[test]
    fn tuned_tie_passes() {
        // Hand-tuned already optimal: equal rows are fine.
        assert!(check(&file_with(&[("gemm autotuned", 4096, 100.0)])).is_ok());
    }
}
