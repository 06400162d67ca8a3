//! `compare A.json B.json`: does result set B (the change) agree with
//! result set A (the parent)?
//!
//! One row per workload × metric. Simulated-clock totals, failure
//! counts and every count-like layer metric must be *equal*; each
//! host-time end-to-end metric may be worse in B by at most its bound.
//! The median block rate each run prints beside its gated numbers
//! (`info.block_ops_per_s_p50`) is judged by the bound of `ops_per_s`,
//! so a slowdown that the per-op minimum cannot see still shows. Where a
//! side's own spread — of its block throughputs, or of its set-up
//! times for `setup_s` — is wider than the bound the row reads
//! `unresolved` rather than `ok`. Host-time layer metrics are
//! printed for orientation and never gate. The layer probes read the
//! same for every workload and are compared once, as workload
//! `(probes)`.

use crate::json::Value;
use crate::spec::{self, Better};

/// What one row concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The run-to-run spread is wider than the bound: no conclusion.
    Unresolved,
    Differs,
    /// Shown, not judged.
    Info,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// The workload column of the suite-level layer probes.
pub const PROBES: &str = "(probes)";

/// `(info metric, the end-to-end metric whose bound judges it)`: the
/// median block rate beside the rate built from per-op minima.
const SHADOW: (&str, &str) = ("block_ops_per_s_p50", "ops_per_s");
/// Shown beside it without a verdict: the median over all op samples
/// of a mixed op list sits between two modes and jumps by 30 % between
/// runs of one commit.
const SHOWN: &str = "op_all_p50_ms";

fn metric(run: &Value, section: &str, name: &str) -> Option<f64> {
    run.get(section)?.get(name)?.get("value")?.as_f64()
}

/// `metric` on both sides, or an error naming what is missing where.
fn both(
    workload: &str,
    run_a: &Value,
    run_b: &Value,
    section: &str,
    name: &str,
) -> Result<(f64, f64), String> {
    match (metric(run_a, section, name), metric(run_b, section, name)) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(format!(
            "{workload}: `{section}.{name}` is missing on one side"
        )),
    }
}

/// By how much of `a` is `b` worse (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

fn equal(a: f64, b: f64) -> Verdict {
    if a.to_bits() == b.to_bits() {
        Verdict::Ok
    } else {
        Verdict::Differs
    }
}

/// Rows for the layer metrics `wanted` picks, read from the `layers`
/// object of both sides; none when either side has no traced run.
fn layer_rows(
    workload: &str,
    a: &Value,
    b: &Value,
    wanted: impl Fn(&str) -> bool,
) -> Result<Vec<Row>, String> {
    if a.get("layers").is_none() || b.get("layers").is_none() {
        return Ok(Vec::new());
    }
    spec::PER_LAYER
        .iter()
        .filter(|(name, _, _)| wanted(name))
        .map(|(name, unit, _)| {
            let (va, vb) = both(workload, a, b, "layers", name)?;
            Ok(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                a: va,
                b: vb,
                verdict: if spec::is_exact_unit(unit) {
                    equal(va, vb)
                } else {
                    Verdict::Info
                },
            })
        })
        .collect()
}

/// Compare two parsed `results.json` documents.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads_a = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("A has no `workloads` object")?;
    let mut rows = layer_rows(PROBES, a, b, |name| !spec::is_per_workload(name))?;
    for (workload, run_a) in workloads_a {
        let run_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("B has no workload `{workload}`"))?;
        let mut row = |metric: String, a: f64, b: f64, verdict: Verdict| {
            rows.push(Row {
                workload: workload.clone(),
                metric,
                a,
                b,
                verdict,
            });
        };

        let failed = |run: &Value| {
            run.get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (fa, fb) = (failed(run_a), failed(run_b));
        let clean = fa == 0.0 && fb == 0.0;
        row(
            "failed".into(),
            fa,
            fb,
            if clean { Verdict::Ok } else { Verdict::Differs },
        );

        // A run that does not say how noisy it was cannot be judged.
        let noise = |name: &str| -> Result<f64, String> {
            let (a, b) = both(workload, run_a, run_b, "info", name)?;
            Ok(a.max(b) / 100.0)
        };
        let block_noise = noise("block_spread_pct")?;
        let setup_noise = noise("setup_spread_pct")?;
        let within = |m: &spec::EndToEnd, va: f64, vb: f64| {
            let noise = match m.name {
                // Its own spread, over the run's set-ups.
                "setup_s" => setup_noise,
                // One reading per process, and host noise does not
                // reach it: under 3 % from run to run on any day.
                "peak_rss_mb" => 0.0,
                _ => block_noise,
            };
            if noise > m.bound {
                Verdict::Unresolved
            } else if worse_by(va, vb, m.better) <= m.bound {
                Verdict::Ok
            } else {
                Verdict::Differs
            }
        };
        for m in &spec::END_TO_END {
            let (va, vb) = both(workload, run_a, run_b, "metrics", m.name)?;
            let verdict = if m.exact {
                equal(va, vb)
            } else {
                within(m, va, vb)
            };
            row(m.name.into(), va, vb, verdict);
        }
        let (name, shadowed) = SHADOW;
        let m = spec::END_TO_END
            .iter()
            .find(|m| m.name == shadowed)
            .expect("SHADOW names an end-to-end metric");
        let (va, vb) = both(workload, run_a, run_b, "info", name)?;
        row(format!("info.{name}"), va, vb, within(m, va, vb));
        let (va, vb) = both(workload, run_a, run_b, "info", SHOWN)?;
        row(format!("info.{SHOWN}"), va, vb, Verdict::Info);

        rows.extend(layer_rows(workload, run_a, run_b, spec::is_per_workload)?);
    }
    Ok(rows)
}

/// Print the rows; `true` when nothing differs.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<42} {:>18} {:>18} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A"
    );
    for r in rows {
        let change = if r.a == 0.0 {
            String::new()
        } else {
            format!("{:+.2} %", 100.0 * (r.b - r.a) / r.a)
        };
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "",
        };
        println!(
            "{:<18} {:<42} {:>18.6} {:>18.6} {:>9}  {}",
            r.workload, r.metric, r.a, r.b, change, verdict
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} differ",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Differs)
    );
    count(Verdict::Differs) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{self, Metric, RunResult};
    use crate::json;

    /// A suite document built the way `suite()` builds one: `RunResult`s
    /// rendered to their printed lines, parsed back, and stored with
    /// `harness::stored_run` — so the fixture has the on-disk shape.
    fn results(ops_per_s: f64, sim_cycles: f64, spread_pct: f64, events: f64) -> Value {
        let untraced = RunResult {
            attempted: 100,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![
                Metric::new("ops_per_s", ops_per_s, "1/s", 100),
                Metric::new("op_p50_ms", 2.0, "ms", 100),
                Metric::new("sim_cycles", sim_cycles, "cycles", 1),
                Metric::new("setup_s", 1.0, "s", 5),
                Metric::new("peak_rss_mb", 8.0, "MB", 1),
            ],
            info: vec![
                Metric::new("block_ops_per_s_p50", 0.9 * ops_per_s, "1/s", 5),
                Metric::new("block_spread_pct", spread_pct, "%", 5),
                Metric::new("setup_spread_pct", 3.0, "%", 5),
                Metric::new("op_all_p50_ms", 2.2, "ms", 100),
            ],
        };
        let layers = |wanted: &dyn Fn(&str) -> bool| RunResult {
            attempted: 1,
            failed: 0,
            failures: Vec::new(),
            metrics: spec::PER_LAYER
                .iter()
                .filter(|(name, _, _)| wanted(name))
                .map(|(name, unit, _)| {
                    let value = if *name == "sim.engine.events" {
                        events
                    } else {
                        1.5
                    };
                    Metric::new(name, value, unit, 1)
                })
                .collect(),
            info: Vec::new(),
        };
        let printed = |r: &RunResult| json::parse(&r.to_json().render()).unwrap();
        let run = harness::stored_run(
            printed(&untraced),
            Some(json::parse(&harness::metrics_json(&untraced.info).render()).unwrap()),
            Some(&printed(&layers(&spec::is_per_workload))),
        )
        .unwrap();
        Value::obj([
            (
                "layers",
                printed(&layers(&|name| !spec::is_per_workload(name)))
                    .get("metrics")
                    .unwrap()
                    .clone(),
            ),
            ("workloads", Value::obj([("sim_timing", run)])),
        ])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn equal_results_agree() {
        let a = results(100.0, 5e6, 2.0, 1000.0);
        let rows = compare(&a, &a).unwrap();
        assert!(rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Ok | Verdict::Info)));
        // Every layer metric once: the probes for the suite, the rest
        // for the workload.
        assert_eq!(
            rows.len(),
            1 + spec::END_TO_END.len() + 2 + spec::PER_LAYER.len()
        );
        assert_eq!(
            rows.iter().filter(|r| r.workload == PROBES).count(),
            spec::PER_LAYER
                .iter()
                .filter(|(name, _, _)| !spec::is_per_workload(name))
                .count()
        );
    }

    #[test]
    fn host_time_may_worsen_up_to_its_bound_and_may_always_improve() {
        let bound = spec::END_TO_END[0].bound;
        assert_eq!(spec::END_TO_END[0].name, "ops_per_s");
        let a = results(100.0, 5e6, 2.0, 1000.0);
        let within = compare(&a, &results(100.0 * (1.0 - bound) + 1.0, 5e6, 2.0, 1000.0)).unwrap();
        assert_eq!(verdict_of(&within, "ops_per_s"), Verdict::Ok);
        assert_eq!(verdict_of(&within, "info.block_ops_per_s_p50"), Verdict::Ok);
        let beyond = compare(&a, &results(100.0 * (1.0 - bound) - 1.0, 5e6, 2.0, 1000.0)).unwrap();
        assert_eq!(verdict_of(&beyond, "ops_per_s"), Verdict::Differs);
        assert_eq!(
            verdict_of(&beyond, "info.block_ops_per_s_p50"),
            Verdict::Differs
        );
        let faster = compare(&a, &results(150.0, 5e6, 2.0, 1000.0)).unwrap();
        assert_eq!(verdict_of(&faster, "ops_per_s"), Verdict::Ok);
    }

    #[test]
    fn simulated_cycles_and_counts_must_be_equal() {
        let a = results(100.0, 5e6, 2.0, 1000.0);
        let rows = compare(&a, &results(100.0, 5e6 + 1.0, 2.0, 1001.0)).unwrap();
        assert_eq!(verdict_of(&rows, "sim_cycles"), Verdict::Differs);
        assert_eq!(verdict_of(&rows, "sim.engine.events"), Verdict::Differs);
        assert_eq!(verdict_of(&rows, "sim.engine.ns_per_event"), Verdict::Info);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        let ops_bound = spec::END_TO_END[0].bound;
        let a = results(100.0, 5e6, 2.0, 1000.0);
        // Blocks of B spread, but by less than the bound: judged.
        let rows = compare(&a, &results(60.0, 5e6, 100.0 * ops_bound - 1.0, 1000.0)).unwrap();
        assert_eq!(verdict_of(&rows, "ops_per_s"), Verdict::Differs);
        let noisy = compare(&a, &results(60.0, 5e6, 100.0 * ops_bound + 1.0, 1000.0)).unwrap();
        assert_eq!(verdict_of(&noisy, "ops_per_s"), Verdict::Unresolved);
        assert_eq!(verdict_of(&noisy, "op_p50_ms"), Verdict::Unresolved);
        assert_eq!(
            verdict_of(&noisy, "info.block_ops_per_s_p50"),
            Verdict::Unresolved
        );
        // What block noise does not reach is still judged.
        assert_eq!(verdict_of(&noisy, "sim_cycles"), Verdict::Ok);
        assert_eq!(verdict_of(&noisy, "peak_rss_mb"), Verdict::Ok);
        assert_eq!(verdict_of(&noisy, "setup_s"), Verdict::Ok);
        assert_eq!(verdict_of(&noisy, "info.op_all_p50_ms"), Verdict::Info);
        // The noisy side may be A just as well.
        let noisy_parent = compare(&noisy_side(), &a).unwrap();
        assert_eq!(verdict_of(&noisy_parent, "ops_per_s"), Verdict::Unresolved);
    }

    fn noisy_side() -> Value {
        results(100.0, 5e6, 100.0 * spec::END_TO_END[0].bound + 1.0, 1000.0)
    }

    #[test]
    fn set_up_time_goes_by_the_spread_of_the_set_ups() {
        let a = results(100.0, 5e6, 2.0, 1000.0);
        let slow_setup = |spread: &str| {
            let text = a
                .render()
                .replace(r#""setup_s": {"value": 1,"#, r#""setup_s": {"value": 2,"#)
                .replace(
                    r#""setup_spread_pct": {"value": 3,"#,
                    &format!(r#""setup_spread_pct": {{"value": {spread},"#),
                );
            assert_ne!(text, a.render(), "the fixture renders as the test expects");
            json::parse(&text).unwrap()
        };
        let steady = compare(&a, &slow_setup("3")).unwrap();
        assert_eq!(verdict_of(&steady, "setup_s"), Verdict::Differs);
        let bursty = compare(&a, &slow_setup("60")).unwrap();
        assert_eq!(verdict_of(&bursty, "setup_s"), Verdict::Unresolved);
        assert_eq!(verdict_of(&bursty, "ops_per_s"), Verdict::Ok);
    }

    #[test]
    fn a_run_that_does_not_report_its_spread_is_an_error() {
        let a = results(100.0, 5e6, 2.0, 1000.0);
        let stripped = json::parse(&a.render().replace("block_spread_pct", "renamed")).unwrap();
        let err = compare(&a, &stripped).unwrap_err();
        assert!(err.contains("info.block_spread_pct"), "{err}");
    }
}
