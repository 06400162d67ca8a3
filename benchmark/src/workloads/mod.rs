//! The five closed-loop workloads.
//!
//! Each workload is a *fixed multiset of ops*: the seed shuffles the
//! order the ops run in and draws every tensor value, but never which
//! work is done. So throughput, latency and `sim_cycles` are comparable
//! across seeds (and across the two sides of an A/B), while a second
//! seed still hands the program a different input sequence.

use crate::adapter::{self, Input, Inputs, KernelSpec, Launchable, NodeSpec, Sim, Source, Tensor};
use crate::digest::Digest;
use rand::Rng as _;

pub mod compile_cold;
pub mod graph_functional;
pub mod graph_schedule;
pub mod sim_timing;
pub mod tune_sweep;

/// Stable workload names, in reporting order.
pub const NAMES: [&str; 5] = [
    "compile_cold",
    "sim_timing",
    "graph_functional",
    "graph_schedule",
    "tune_sweep",
];

/// The exact outputs of one op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpResult {
    /// What this op adds to the workload's simulated-clock total.
    pub sim_cycles: f64,
    /// Digest of everything about the op's output that must repeat
    /// exactly (cycles, event counts, fingerprints, timelines).
    pub digest: u64,
}

/// Output checks run outside the timed region.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Count a fallible step as one check; hands back its value.
    pub fn step<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// One workload, set up and warm.
pub trait Workload {
    /// Ops in one pass of the op list (one block).
    fn ops(&self) -> usize;
    /// What op `i` is, for humans and for the op-list self-test.
    fn op_label(&self, i: usize) -> String;
    /// Run op `i` through the layers' public functions.
    fn run_op(&mut self, i: usize) -> Result<OpResult, String>;
    /// Redo op `i`'s work through direct compiler / simulator calls,
    /// for ops whose span is a composite runtime call.
    fn replay_op(&mut self, _i: usize) -> Result<(), String> {
        Ok(())
    }
    /// Check the program's outputs against the host oracle and the
    /// workload's invariants.
    fn check(&mut self) -> Checks;
}

/// Untimed preparation of `name` from `seed`: generate inputs,
/// precompile, warm caches. `quick` keeps every fourth op of the list.
pub fn setup(name: &str, seed: u64, quick: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "compile_cold" => Box::new(compile_cold::CompileCold::setup(seed, quick)?),
        "sim_timing" => Box::new(sim_timing::SimTiming::setup(seed, quick)?),
        "graph_functional" => Box::new(graph_functional::GraphFunctional::setup(seed, quick)?),
        "graph_schedule" => Box::new(graph_schedule::GraphSchedule::setup(seed, quick)?),
        "tune_sweep" => Box::new(tune_sweep::TuneSweep::setup(seed, quick)?),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}

/// Host workers of the parallel ops: never more than two, so the
/// numbers mean the same on the 2-core reference box and a larger one.
pub fn workers() -> usize {
    adapter::nproc().min(2)
}

/// The op list in seeded order (Fisher–Yates). `quick` first keeps
/// every fourth op, so the quick multiset is seed-independent too.
fn seeded_order<T>(mut items: Vec<T>, seed: u64, quick: bool) -> Vec<T> {
    if quick {
        items = items.into_iter().step_by(4).collect();
    }
    let mut rng = adapter::rng(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
    items
}

/// Sum of per-op simulated cycles, independent of op order (floating
/// point addition is not associative, the seed permutes the ops).
pub fn total_cycles(results: &[OpResult]) -> f64 {
    let mut cycles: Vec<f64> = results.iter().map(|r| r.sim_cycles).collect();
    cycles.sort_by(f64::total_cmp);
    cycles.iter().sum()
}

/// `k` indices spread evenly over `0..n` (all of them when `n <= k`).
fn spread(n: usize, k: usize) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    (0..k).map(|i| i * (n - 1) / (k - 1).max(1)).collect()
}

/// How many leading parameters of a family's entry task are outputs.
fn outputs_of(spec: &KernelSpec) -> usize {
    match spec.family {
        adapter::Family::GemmReduction => 2,
        _ => 1,
    }
}

/// Parameters for one functional launch of `source`: zeroed outputs,
/// random f16 inputs.
fn random_params(spec: &KernelSpec, source: &Source, rng: &mut adapter::Rng) -> Vec<Tensor> {
    let outputs = outputs_of(spec);
    source
        .arg_shapes()
        .iter()
        .enumerate()
        .map(|(i, &(rows, cols))| {
            if i < outputs {
                source.zero_param(i)
            } else {
                adapter::random_f16(rng, rows, cols, 0.5)
            }
        })
        .collect()
}

/// The examples' tolerance against the f32-accumulating host oracle.
const TOLERANCE: f32 = 3e-2;

/// Worst relative error of `got` (the parameters after a functional
/// launch of `spec`) against the host oracle applied to `given` (the
/// parameters before it). The oracle is `cypress_tensor::reference`,
/// which shares no code with the compiler or the simulator.
fn oracle_error(spec: &KernelSpec, given: &[Tensor], got: &[Tensor]) -> Result<f32, String> {
    use adapter::Family::*;
    let d = &spec.dims;
    match spec.family {
        Gemm => got[0].relative_error(&adapter::ref_matmul(&given[1], &given[2])?),
        Batched => {
            let (l, m, k) = (d[0], d[1], d[3]);
            let mut worst = 0.0f32;
            for b in 0..l {
                let want = adapter::ref_matmul(&given[1].rows(b * m, m), &given[2].rows(b * k, k))?;
                worst = worst.max(got[0].rows(b * m, m).relative_error(&want)?);
            }
            Ok(worst)
        }
        Dual => got[0].relative_error(&adapter::ref_dual_matmul(&given[1], &given[2], &given[3])?),
        GemmReduction => {
            let p = got[0].relative_error(&adapter::ref_matmul(&given[2], &given[3])?)?;
            // The kernel leaves per-block-column partial sums.
            let y = got[1]
                .fold_columns()
                .relative_error(&adapter::ref_row_sum(&given[2])?)?;
            Ok(p.max(y))
        }
        Chain => {
            let mid = adapter::ref_matmul(&given[1], &given[2])?;
            got[0].relative_error(&adapter::ref_matmul(&mid, &given[3])?)
        }
        Fa2 | Fa3 => {
            let (heads, seq) = (d[0], d[1]);
            let mut worst = 0.0f32;
            for h in 0..heads {
                let part = |t: &Tensor| t.rows(h * seq, seq);
                let want =
                    adapter::ref_attention(&part(&given[1]), &part(&given[2]), &part(&given[3]))?;
                worst = worst.max(part(&got[0]).relative_error(&want)?);
            }
            Ok(worst)
        }
    }
}

/// Launch `kernel` functionally on seeded inputs and compare with the
/// host oracle.
fn oracle_check(
    sim: &Sim,
    spec: &KernelSpec,
    source: &Source,
    kernel: &Launchable,
    rng: &mut adapter::Rng,
) -> Result<(), String> {
    let given = random_params(spec, source, rng);
    let got = adapter::run_functional(sim, kernel, given.clone())?;
    let error = oracle_error(spec, &given, &got)?;
    if error < TOLERANCE {
        Ok(())
    } else {
        Err(format!("relative error {error} against the host oracle"))
    }
}

/// A graph as the decomposed replay sees it: every node's program and
/// compiled kernel, launched one by one with tensors threaded by hand.
pub struct Unrolled {
    pub nodes: Vec<NodeSpec>,
    pub sources: Vec<Source>,
    pub kernels: Vec<Launchable>,
}

impl Unrolled {
    /// Run every node functionally in declaration order; returns each
    /// node's final parameters.
    pub fn run(&self, sim: &Sim, inputs: &Inputs) -> Result<Vec<Vec<Tensor>>, String> {
        let mut done: Vec<Vec<Tensor>> = Vec::with_capacity(self.nodes.len());
        for (n, node) in self.nodes.iter().enumerate() {
            let params = node
                .inputs
                .iter()
                .enumerate()
                .map(|(i, input)| match input {
                    Input::Zeros => Ok(self.sources[n].zero_param(i)),
                    Input::External(name) => inputs
                        .get(name)
                        .ok_or_else(|| format!("missing input `{name}`")),
                    Input::Node { node, param } => Ok(done[*node][*param].clone()),
                })
                .collect::<Result<Vec<_>, String>>()?;
            done.push(adapter::run_functional(sim, &self.kernels[n], params)?);
        }
        Ok(done)
    }
}

/// Digest of an op's exact outputs.
fn digest_of(words: &[u64], floats: &[f64]) -> u64 {
    let d = words.iter().fold(Digest::new(), |d, &w| d.word(w));
    floats.iter().fold(d, |d, &f| d.float(f)).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_picks_evenly_and_keeps_small_sets_whole() {
        assert_eq!(spread(36, 3), vec![0, 17, 35]);
        assert_eq!(spread(4, 2), vec![0, 3]);
        assert_eq!(spread(2, 3), vec![0, 1]);
        assert_eq!(spread(0, 3), Vec::<usize>::new());
    }

    #[test]
    fn seeded_order_is_a_permutation_that_depends_on_the_seed() {
        let items: Vec<u32> = (0..40).collect();
        let a = seeded_order(items.clone(), 11, false);
        let b = seeded_order(items.clone(), 11, false);
        let c = seeded_order(items.clone(), 12, false);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed, another order");
        let mut sorted = c.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items, "the multiset of ops never changes");
        assert_eq!(seeded_order(items, 11, true).len(), 10);
    }

    /// Same seed ⇒ identical op list and identical exact outputs across
    /// two in-process runs; another seed ⇒ another op list over the same
    /// multiset, with the same simulated total.
    #[test]
    fn workloads_repeat_exactly_and_follow_the_seed() {
        for name in ["sim_timing", "graph_schedule"] {
            let run = |seed: u64| {
                let mut w = setup(name, seed, true).unwrap();
                let labels: Vec<String> = (0..w.ops()).map(|i| w.op_label(i)).collect();
                let results: Vec<OpResult> = (0..w.ops()).map(|i| w.run_op(i).unwrap()).collect();
                (labels, results)
            };
            let (labels_a, results_a) = run(11);
            let (labels_b, results_b) = run(11);
            assert_eq!(labels_a, labels_b, "{name}: same seed, same op list");
            assert_eq!(results_a, results_b, "{name}: exact outputs repeat");
            let (labels_c, results_c) = run(12);
            assert_ne!(labels_a, labels_c, "{name}: another seed, another op list");
            assert_eq!(
                total_cycles(&results_a).to_bits(),
                total_cycles(&results_c).to_bits(),
                "{name}: the simulated total does not depend on the seed"
            );
        }
    }
}
