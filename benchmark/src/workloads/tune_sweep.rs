//! `tune_sweep` — the compiler and the timing engine again, but
//! through `runtime::{tuner, cache}` and the worker pool.
//!
//! Op = one cold `Session::autotune_with` (fresh session: empty kernel
//! cache, empty tuning table) of one of the five paper mapping spaces
//! at 512 or 4096, at host parallelism `min(nproc, 2)`. Half the
//! (space, size) pairs sweep exhaustively, the other half under the
//! cost-model-guided budget `TopK(candidates / 2)`. Many near-identical
//! candidates through the kernel cache is a different use of the same
//! passes than `compile_cold`: cross-candidate memoisation or a better
//! parallelised sweep moves this workload and leaves that one flat.
//!
//! `sim_cycles` is the sum of the winners' cycles, so a worse pick
//! raises it.

use super::{digest_of, seeded_order, workers, Checks, OpResult, Workload};
use crate::adapter::{self, Family, KernelSpec, Policy, Runtime, Sim, Tuned};
use crate::digest::Digest;

const SIZES: [usize; 2] = [512, 4096];

/// One sweep: a space at a shape, under a budget.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub spec: KernelSpec,
    /// `None` sweeps exhaustively.
    pub top_k: Option<usize>,
}

/// The five paper spaces at `size` (batched GEMM at L = 4, attention
/// at 16 heads of dimension 128).
pub fn paper_spaces(size: usize) -> [KernelSpec; 5] {
    [
        KernelSpec::new(Family::Gemm, &[size, size, size]),
        KernelSpec::new(Family::Batched, &[4, size, size, size]),
        KernelSpec::new(Family::Dual, &[size, size, size]),
        KernelSpec::new(Family::GemmReduction, &[size, size, size]),
        KernelSpec::new(Family::Fa3, &[16, size, 128]),
    ]
}

/// The guided budget of `spec`: half its candidates.
pub fn guided_budget(spec: &KernelSpec) -> usize {
    (adapter::candidates(spec).len() / 2).max(1)
}

/// A cold sweep on a fresh session.
pub fn cold_sweep(sweep: &Sweep) -> Result<Tuned, String> {
    Runtime::new(&Policy::plain(workers())).autotune(&sweep.spec, sweep.top_k)
}

/// The same work as [`cold_sweep`] through the bare compiler and
/// simulator, one candidate after the other: price every candidate
/// when the budget is guided, then build, compile and time the ones
/// the budget keeps.
pub fn replay_sweep(sim: &Sim, sweep: &Sweep) -> Result<(), String> {
    let mut kept = adapter::candidates(&sweep.spec);
    if let Some(k) = sweep.top_k {
        let mut priced: Vec<(f64, usize)> = kept
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (
                    adapter::estimate(&sweep.spec, m).unwrap_or(f64::INFINITY),
                    i,
                )
            })
            .collect();
        priced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut keep: Vec<usize> = priced.iter().take(k).map(|&(_, i)| i).collect();
        keep.sort_unstable();
        kept = keep.into_iter().map(|i| kept[i]).collect();
    }
    for mapping in &kept {
        let binary = adapter::compile(&adapter::build(&sweep.spec, mapping)?)?;
        adapter::time(sim, &binary.launchable())?;
    }
    Ok(())
}

pub struct TuneSweep {
    sim: Sim,
    ops: Vec<Sweep>,
}

impl TuneSweep {
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let mut ops = Vec::new();
        for (s, size) in SIZES.into_iter().enumerate() {
            for (f, spec) in paper_spaces(size).into_iter().enumerate() {
                let top_k = ((s + f) % 2 == 1).then(|| guided_budget(&spec));
                ops.push(Sweep { spec, top_k });
            }
        }
        let this = TuneSweep {
            sim: adapter::simulator(),
            ops: seeded_order(ops, seed, quick),
        };
        // Page in the tuner, the compiler and the worker pool.
        for family in [Family::GemmReduction, Family::Gemm] {
            cold_sweep(&Sweep {
                spec: KernelSpec::new(family, &[512, 512, 512]),
                top_k: None,
            })?;
        }
        Ok(this)
    }
}

impl Workload for TuneSweep {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn op_label(&self, i: usize) -> String {
        let op = &self.ops[i];
        match op.top_k {
            None => format!("{} exhaustive", op.spec.label()),
            Some(k) => format!("{} top-{k}", op.spec.label()),
        }
    }

    fn run_op(&mut self, i: usize) -> Result<OpResult, String> {
        let tuned = cold_sweep(&self.ops[i])?;
        Ok(OpResult {
            sim_cycles: tuned.tuned_cycles,
            digest: digest_of(
                &[
                    Digest::new().text(&tuned.winner.label()).finish(),
                    tuned.candidates as u64,
                    tuned.timed,
                ],
                &[tuned.tuned_cycles, tuned.default_cycles],
            ),
        })
    }

    fn replay_op(&mut self, i: usize) -> Result<(), String> {
        replay_sweep(&self.sim, &self.ops[i])
    }

    /// Both budgets on every (space, size) of the op list: the tuner
    /// never loses to the hand-tuned mapping, the guided winner is
    /// within 5 % of the exhaustive one, and guidance times fewer
    /// candidates.
    fn check(&mut self) -> Checks {
        let mut checks = Checks::default();
        for op in &self.ops {
            let what = op.spec.label();
            let exhaustive = checks.step(
                &what,
                cold_sweep(&Sweep {
                    spec: op.spec.clone(),
                    top_k: None,
                }),
            );
            let guided = checks.step(
                &what,
                cold_sweep(&Sweep {
                    spec: op.spec.clone(),
                    top_k: Some(guided_budget(&op.spec)),
                }),
            );
            let (Some(e), Some(g)) = (exhaustive, guided) else {
                continue;
            };
            checks.expect(e.tuned_cycles <= e.default_cycles, || {
                format!(
                    "{what}: tuned {} > default {}",
                    e.tuned_cycles, e.default_cycles
                )
            });
            checks.expect(g.tuned_cycles <= e.tuned_cycles * 1.05, || {
                format!(
                    "{what}: guided {} vs exhaustive {}",
                    g.tuned_cycles, e.tuned_cycles
                )
            });
            checks.expect(g.timed < e.timed, || {
                format!("{what}: guided timed {} of {}", g.timed, e.timed)
            });
        }
        checks
    }
}
