//! The repo benchmark: five closed-loop workloads over compiler,
//! simulator and runtime, on both clocks, with an outside-in layer
//! trace. See `README.md` beside this package.

mod adapter;
mod compare;
mod digest;
mod harness;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{Metric, RunConfig, RunResult};
use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  run.sh [--seed N] [--seconds S] [--trace] [--quick]      all workloads; writes out/results.json
  run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--no-probes]
                                                           one run; the last line is its result object
                                                           (--no-probes: a traced run leaves the layer probes out)
  run.sh probes                                            the layer probes alone, same last line
  run.sh compare A.json B.json                             do two result sets agree?
  run.sh spec                                              print BENCHMARK.json
workloads: compile_cold sim_timing graph_functional graph_schedule tune_sweep";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    probes: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 11,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        quick: false,
        probes: true,
        out_dir: PathBuf::from("out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value("a directory")?),
            "--quick" => parsed.quick = true,
            // The suite's traced runs: it runs the probes once itself.
            "--no-probes" => parsed.probes = false,
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "#   {:<44} {:>20.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// One workload, one process: the driver's entry point.
fn run_one(args: &Args, workload: &str) -> Result<RunResult, String> {
    let result = harness::run(&RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        probes: args.probes,
        out_dir: args.out_dir.clone(),
    })?;
    let kind = if args.trace {
        "layer metrics"
    } else {
        "end-to-end metrics"
    };
    print_metrics(
        &format!("{workload} (seed {}): {kind}", args.seed),
        &result.metrics,
    );
    if !result.info.is_empty() {
        print_metrics("this run's own noise", &result.info);
        println!("#info {}", harness::metrics_json(&result.info).render());
    }
    for f in &result.failures {
        println!("# FAILED {f}");
    }
    if args.trace {
        println!(
            "# trace written to {}",
            harness::trace_path(&args.out_dir, workload).display()
        );
    }
    Ok(result)
}

/// Run this program again in a child process (peak RSS is per process)
/// with `child_args`; echo what it printed, parse its result line and
/// its `#info` line.
fn spawn(child_args: &[String]) -> Result<(Value, Option<Value>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output` waits for the child to end.
    let output = Command::new(exe)
        .args(child_args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, rest) = lines.split_last().ok_or("the run printed nothing")?;
    for line in rest {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "`{}` exited with {}: {}",
            child_args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let info = rest
        .iter()
        .find_map(|l| l.strip_prefix("#info "))
        .map(json::parse)
        .transpose()?;
    Ok((json::parse(last)?, info))
}

/// One run of `workload` as the driver would start it, except that a
/// traced run leaves the probes to the suite.
fn spawn_run(args: &Args, workload: &str, trace: bool) -> Result<(Value, Option<Value>), String> {
    let mut child_args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
        "--no-probes",
        "--out-dir",
    ]
    .map(String::from)
    .to_vec();
    child_args.push(args.out_dir.display().to_string());
    if args.quick {
        child_args.push("--quick".into());
    }
    spawn(&child_args)
}

fn is_correct(result: &Value) -> bool {
    result.get("correct") == Some(&Value::Bool(true))
}

/// All five workloads, one after the other, each in a process of its
/// own exactly as the driver runs them; with `--trace` also one traced
/// run per workload and the layer probes once. Writes `results.json`.
fn suite(args: &Args) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let (result, info) = spawn_run(args, name, false)?;
        all_correct &= is_correct(&result);
        let traced = if args.trace {
            let (traced, _) = spawn_run(args, name, true)?;
            all_correct &= is_correct(&traced);
            Some(traced)
        } else {
            None
        };
        let run = harness::stored_run(result, info, traced.as_ref())?;
        runs.push((name.to_string(), run));
    }
    let mut results = vec![
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("quick".to_string(), Value::Bool(args.quick)),
        ("nproc".to_string(), Value::Num(adapter::nproc() as f64)),
    ];
    if args.trace {
        let (probes, _) = spawn(&["probes".to_string()])?;
        all_correct &= is_correct(&probes);
        results.extend(
            probes
                .get("metrics")
                .cloned()
                .map(|m| ("layers".to_string(), m)),
        );
    }
    results.push(("workloads".to_string(), Value::Obj(runs)));
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, Value::Obj(results).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    println!(
        "# output checks: {}",
        if all_correct { "all passed" } else { "FAILED" }
    );
    Ok(all_correct)
}

fn read_results(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare needs two result files".into());
            };
            let rows = compare::compare(&read_results(a)?, &read_results(b)?)?;
            Ok(compare::report(&rows))
        }
        Some("probes") => {
            let result = harness::run_probes()?;
            print_metrics("layer probes", &result.metrics);
            for f in &result.failures {
                println!("# FAILED {f}");
            }
            println!("{}", result.to_json().render());
            Ok(true)
        }
        Some("spec") => {
            println!("{}", spec::benchmark_json().render());
            Ok(true)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            let args = parse_args(args)?;
            match &args.workload {
                None => suite(&args),
                Some(workload) => {
                    let result = run_one(&args, workload)?;
                    // The contract: the result object is the last
                    // line, and a run that measured exits 0 even when
                    // an output check failed (`correct` says so).
                    println!("{}", result.to_json().render());
                    Ok(true)
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_form_and_the_short_form_both_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "sim_timing",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_timing"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 3.0, false, false)
        );
        let b = parse_args(&strings(&["--trace", "--quick"])).unwrap();
        assert!(b.trace && b.quick && b.probes && b.workload.is_none());
        assert!(
            !parse_args(&strings(&["--trace", "1", "--no-probes"]))
                .unwrap()
                .probes
        );
        assert!(
            parse_args(&strings(&["--trace", "1", "--seed", "2"]))
                .unwrap()
                .trace
        );
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn a_run_result_parses_back() {
        let result = RunResult {
            attempted: 1200,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![
                Metric::new("ops_per_s", 151.234_567_891_234, "1/s", 12),
                Metric::new("setup_s", 0.812_7, "s", 3),
            ],
            info: Vec::new(),
        };
        let line = result.to_json().render();
        let back = json::parse(&line).unwrap();
        assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Value::as_f64), Some(1200.0));
        let keys: Vec<&str> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let ops = back.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(
            ops.get("value").and_then(Value::as_f64),
            Some(151.234_567_891_234)
        );
        assert_eq!(ops.get("unit"), Some(&Value::Str("1/s".into())));
    }
}
