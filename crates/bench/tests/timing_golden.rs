//! Golden digests of what the timing engine reports.
//!
//! `tests/golden/timing.digests` pins — for every kernel family × every
//! `MappingSpace::candidates` point at two shapes, and for every
//! `cypress-baselines` hand kernel at the Fig. 13/14 sizes — an FNV-64
//! of the timing report's `cycles` bits, `events`, and the bits of the
//! three utilization fields. The file was generated by the engine it
//! guards against (the parent of the payload-free event queue), so a
//! change to the event path that reorders one pop anywhere shows up as
//! a diff here, naming the kernel.
//!
//! After an *intentional* change to the machine model, regenerate with
//!
//! ```sh
//! cargo test --release -p cypress-bench --test timing_golden -- --ignored regenerate
//! ```
//!
//! and review the diff like any other golden file.
//!
//! The same corpus, its families compiled for the H100 and for the
//! unit-test machine, plus the Cypress kernels of Fig. 13/14, holds
//! bytecode lowering to proving every slice in bounds
//! (`lowering_proves_every_slice_in_bounds`): a timing run then
//! evaluates no slice origin at all. Its whole timing runs hold
//! `Simulator::timing_floor` under the cycles and
//! `Simulator::run_timing_bounded` to its contract
//! (`timing_floor_never_exceeds_simulated_cycles`).

use cypress_baselines::{cublas, cudnn, fa3, thunderkittens, triton};
use cypress_bench::{GEMM_SIZES, HEADS, HEAD_DIM, SEQ_LENS};
use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::fingerprint::Fnv64;
use cypress_core::kernels::attention::{self, Algorithm};
use cypress_core::kernels::{batched, dual_gemm, gemm, gemm_reduction};
use cypress_core::CompileError;
use cypress_sim::{bytecode, par, Kernel, MachineConfig, Simulator};
use std::fmt::Write as _;
use std::sync::OnceLock;

#[path = "../../sim/tests/common/bounded.rs"]
mod bounded;
#[path = "../../core/tests/golden/shared.rs"]
mod shared;
use bounded::{assert_bounded_run_stops, assert_bounded_runs_keep_their_contract};
use shared::{assert_matches_golden, families};

const GOLDEN: &str = include_str!("golden/timing.digests");

/// Kernels of the corpus that bytecode lowering cannot prove in bounds,
/// each labelled as its golden line is and with the reason why. The
/// coverage test fails on an unproven kernel missing here, and on an
/// entry that lowering does prove.
const UNPROVABLE: &[(&str, &str)] = &[];

/// Families with no candidate on the unit-test machine at either pinned
/// shape, and why; every other space is non-empty on both machines.
const UNFIT_ON_TEST_GPU: &[(&str, &str)] = &[
    (
        "chain",
        "no tiling fits 64 KiB of shared memory (the default needs 104 KiB)",
    ),
    (
        "fa3",
        "no tiling fits 64 KiB of shared memory (the default needs 128 KiB)",
    ),
];

/// Every family × shape × candidate compiled for `machine`, labelled
/// `family shape config`. A space is empty only where
/// [`UNFIT_ON_TEST_GPU`] says so.
fn family_kernels(machine: &MachineConfig) -> Vec<(String, Result<Kernel, CompileError>)> {
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    let mut out = Vec::new();
    for (family, space, shapes) in families() {
        for shape in &shapes {
            let candidates = space.candidates(machine, shape);
            let unfit = machine.name == MachineConfig::test_gpu().name
                && UNFIT_ON_TEST_GPU.iter().any(|(name, _)| *name == family);
            assert_eq!(
                candidates.is_empty(),
                unfit,
                "{} {family} {shape}: {} candidates",
                machine.name,
                candidates.len()
            );
            for cfg in candidates {
                let (reg, mapping, args) = space.build(shape, &cfg).expect("candidates build");
                let compiled = compiler.compile(&reg, &mapping, space.entry(), &args);
                out.push((
                    format!("{family} {shape} {}", cfg.encode()),
                    compiled.map(|c| c.kernel),
                ));
            }
        }
    }
    out
}

/// Every hand kernel at the Fig. 13/14 sizes, tuned (where the library
/// tunes) on `sim`, labelled `hand name size`.
fn hand_kernels(sim: &Simulator) -> Vec<(String, Kernel)> {
    let mut out = Vec::new();
    for s in GEMM_SIZES {
        let hand = [
            cublas::gemm_with(s, s, s, sim),
            cublas::batched_gemm(4, s, s, s),
            triton::gemm(s, s, s),
            triton::batched_gemm(4, s, s, s),
            triton::dual_gemm(s, s, s),
            triton::gemm_reduction(s, s, s),
        ];
        out.extend(hand.map(|k| (format!("hand {} {s}", k.name), k)));
    }
    let sms = sim.machine().sms;
    for seq in SEQ_LENS {
        let hand = [
            triton::attention(HEADS, seq, HEAD_DIM, sms),
            thunderkittens::attention(HEADS, seq, HEAD_DIM, sms),
            fa3::attention(HEADS, seq, HEAD_DIM, sms),
            cudnn::attention_with(HEADS, seq, HEAD_DIM, sim),
        ];
        out.extend(hand.map(|k| (format!("hand {} {seq}", k.name), k)));
    }
    out
}

/// The Cypress kernels of Fig. 13/14 — each family's default mapping at
/// the paper's sizes — labelled `cypress family size`.
fn cypress_figure_kernels(machine: &MachineConfig) -> Vec<(String, Kernel)> {
    let mut built = Vec::new();
    for s in GEMM_SIZES {
        built.push(("gemm", "gemm", s, gemm::build(s, s, s, machine)));
        built.push(("batched", "bgemm", s, batched::build(4, s, s, s, machine)));
        built.push(("dual_gemm", "dual", s, dual_gemm::build(s, s, s, machine)));
        built.push((
            "gemm_reduction",
            "gr",
            s,
            gemm_reduction::build(s, s, s, machine),
        ));
    }
    for seq in SEQ_LENS {
        for (family, algorithm) in [("fa2", Algorithm::Fa2), ("fa3", Algorithm::Fa3)] {
            let b = attention::build(algorithm, HEADS, seq, HEAD_DIM, machine);
            built.push((family, "fa", seq, b));
        }
    }
    let compiler = CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    });
    built
        .into_iter()
        .map(|(family, entry, size, b)| {
            let label = format!("cypress {family} {size}");
            let kernel = b
                .and_then(|(reg, mapping, args)| compiler.compile(&reg, &mapping, entry, &args))
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .kernel;
            (label, kernel)
        })
        .collect()
}

/// Time `kernel` and append its digest (or its typed error) to `out`.
fn digest_line(out: &mut String, sim: &Simulator, kernel: &Kernel) {
    match sim.run_timing(kernel) {
        Ok(r) => {
            let mut h = Fnv64::new();
            h.write(&r.cycles.to_bits().to_le_bytes());
            h.write(&r.events.to_le_bytes());
            for u in [r.tc_utilization, r.tma_utilization, r.simt_utilization] {
                h.write(&u.to_bits().to_le_bytes());
            }
            let _ = writeln!(out, "{:016x} events={}", h.finish(), r.events);
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
}

/// One line per family × shape × candidate, then one per hand kernel.
fn digests() -> String {
    let machine = MachineConfig::h100_sxm5();
    let sim = Simulator::new(machine.clone());
    let mut out = String::new();
    for (label, kernel) in family_kernels(&machine) {
        let _ = write!(out, "{label} ");
        match kernel {
            Ok(kernel) => digest_line(&mut out, &sim, &kernel),
            Err(e) => {
                let _ = writeln!(out, "compile error: {e}");
            }
        }
    }
    for (label, kernel) in hand_kernels(&sim) {
        let _ = write!(out, "{label} ");
        digest_line(&mut out, &sim, &kernel);
    }
    out
}

#[test]
fn timing_reports_match_golden_digests() {
    assert_matches_golden(
        GOLDEN,
        &digests(),
        "the timing engine no longer reproduces tests/golden/timing.digests",
    );
}

/// The 544-kernel corpus, each kernel with the machine it was built
/// for: the hand kernels and Cypress kernels of Fig. 13/14 on the H100,
/// and every family candidate at both pinned shapes on the H100 and the
/// unit-test machine. Compiled once for the tests that share it.
fn corpus() -> &'static [(String, MachineConfig, Kernel)] {
    static CORPUS: OnceLock<Vec<(String, MachineConfig, Kernel)>> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<(String, MachineConfig, Kernel)> {
    let h100 = MachineConfig::h100_sxm5();
    let sim = Simulator::new(h100.clone());
    let mut corpus: Vec<_> = hand_kernels(&sim)
        .into_iter()
        .chain(cypress_figure_kernels(&h100))
        .map(|(label, kernel)| (label, h100.clone(), kernel))
        .collect();
    for machine in [h100, MachineConfig::test_gpu()] {
        for (label, kernel) in family_kernels(&machine) {
            let label = format!("{} {label}", machine.name);
            let kernel =
                kernel.unwrap_or_else(|e| panic!("{label}: a candidate fails to compile: {e}"));
            corpus.push((label, machine.clone(), kernel));
        }
    }
    corpus
}

/// `Program::unproven_ops` is 0 for every kernel of [`corpus`] bar the
/// kernels [`UNPROVABLE`] lists.
#[test]
fn lowering_proves_every_slice_in_bounds() {
    let corpus = corpus();
    let mut unproven = Vec::new();
    for (label, _, kernel) in corpus {
        let program = bytecode::lower(kernel).unwrap_or_else(|e| panic!("{label}: {e}"));
        let listed = UNPROVABLE.iter().any(|(name, _)| name == label);
        match (program.unproven_ops(), listed) {
            (0, false) => {}
            (0, true) => unproven.push(format!("{label}: listed as unprovable, yet proven")),
            (n, false) => unproven.push(format!("{label}: {n} unproven instruction(s)")),
            (_, true) => {}
        }
    }
    assert!(
        unproven.is_empty(),
        "{} of {} kernels disagree with UNPROVABLE:\n{}",
        unproven.len(),
        corpus.len(),
        unproven.join("\n")
    );
}

/// Kernels of [`corpus`] whose whole timing run takes more events than
/// this (60 test-machine candidates at the larger pinned shape, ≈ 85 %
/// of the corpus's simulation time) are bounded at half their cycles
/// only in tier-1; `bounded_runs_keep_their_contract_over_the_whole_corpus`
/// bounds them at all three cutoffs.
const LONG_RUN_EVENTS: u64 = 400_000;

/// `Simulator::timing_floor` is a lower bound on the simulated cycles of
/// every kernel of [`corpus`] on its own machine, and not a vacuous one:
/// on some kernel its unit term reaches 80 % of the cycles past the
/// launch. The same whole run holds `Simulator::run_timing_bounded` to
/// its contract (see [`floor_and_bounded_runs_hold`]).
#[test]
fn timing_floor_never_exceeds_simulated_cycles() {
    floor_and_bounded_runs_hold(LONG_RUN_EVENTS);
}

/// [`timing_floor_never_exceeds_simulated_cycles`] with every kernel of
/// the corpus bounded at all three cutoffs (≈ 3× the simulation).
#[test]
#[ignore = "bounds the longest runs of the corpus at every cutoff (slow)"]
fn bounded_runs_keep_their_contract_over_the_whole_corpus() {
    floor_and_bounded_runs_hold(u64::MAX);
}

/// Time every kernel of [`corpus`] whole, hold its floor under the
/// cycles, and hold runs bounded at its cycles, just below them and at
/// half of them to their contract — only the last for a kernel whose
/// run takes more than `long_run_events` events.
fn floor_and_bounded_runs_hold(long_run_events: u64) {
    let shares = par::parallel_map(par::available(), corpus().iter().collect(), |entry| {
        let (label, machine, kernel) = entry;
        let sim = Simulator::new(machine.clone());
        let program = bytecode::lower(kernel).unwrap_or_else(|e| panic!("{label}: {e}"));
        let report = sim
            .run_timing_lowered(kernel, &program)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let cycles = report.cycles;
        if report.events <= long_run_events {
            assert_bounded_runs_keep_their_contract(&sim, kernel, &program, &report, label);
        } else {
            assert_bounded_run_stops(&sim, kernel, &program, cycles, 0.5 * cycles, label);
        }
        let floor = sim.timing_floor(&program);
        assert!(
            floor <= cycles,
            "{label}: floor {floor} above the simulated {cycles} cycles"
        );
        let launch = machine.kernel_launch_cycles + machine.cta_launch_cycles;
        (floor - launch) / (cycles - launch)
    });
    let tightest = shares.into_iter().fold(0.0, f64::max);
    assert!(
        tightest >= 0.8,
        "the floor's unit term reaches at most {tightest} of the cycles past the launch"
    );
}

/// Rewrites the golden file from the current engine (see the module
/// header for when that is legitimate).
#[test]
#[ignore = "regenerates tests/golden/timing.digests"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timing.digests");
    std::fs::write(path, digests()).expect("write golden file");
}
