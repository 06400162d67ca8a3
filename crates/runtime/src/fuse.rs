//! Automatic graph-level kernel fusion: rewrite producer→consumer
//! patterns in a [`TaskGraph`] into the paper's fused kernels.
//!
//! The paper's headline kernels are *fusions* of primitive tasks —
//! Dual-GEMM (Fig. 13c) and GEMM+Reduction (Fig. 13d) exist precisely
//! to avoid an intermediate HBM round trip and a second kernel launch.
//! This module closes the loop at the graph level: a `TaskGraph` built
//! from primitive nodes is pattern-matched and rewritten so those fused
//! kernels fire automatically under [`FusionPolicy::Auto`], while
//! [`FusionPolicy::Off`] (the default) leaves every launch exactly as
//! written.
//!
//! # Rewrite rules
//!
//! Both rules are *semantics-preserving to the bit*: the functional
//! simulator accumulates GEMM elements in ascending-`k` order in
//! unrounded f32 fragments and rounds only at f16 materializations, and
//! each fused kernel keeps exactly the same rounding points as the
//! launches it replaces (see the kernel docs of
//! [`cypress_core::kernels::chain`] and the policy-product property in
//! `tests/policy_product.rs`).
//!
//! 1. **GEMM→GEMM (chained dual-GEMM)** — a `gemm` node whose `C`
//!    output feeds exactly one consumer: the `A` slot of another `gemm`
//!    node, with the producer unretained (the intermediate is dead).
//!    The pair rewrites to one [`cypress_core::kernels::chain`] launch
//!    `C = (A·B1)·B2` that keeps the intermediate band in shared
//!    memory.
//! 2. **GEMM + row-reduction (GEMM+Reduction)** — a `gemm` node and a
//!    [`cypress_core::kernels::reduction`] node reading the *same* `A`
//!    tensor (the Fig. 13d dataflow: project a tensor while reducing
//!    it). The pair rewrites to one `gr` launch with `V` pinned to `N`
//!    so the fused partial-sum output keeps the standalone reduction's
//!    `M x 1` shape.
//!
//! # The simulator gates every rewrite
//!
//! Fusion is not always a win: the chain kernel recomputes intermediate
//! row bands once per output-column CTA, which is free while the device
//! is underfilled (the launch-bound regime fusion exists for) but a
//! loss for device-filling shapes. Mirroring the mapping autotuner, the
//! session compiles both sides through the kernel cache, solo-times
//! them with the simulator, and applies a rewrite only when the fused
//! kernel beats the launches it replaces. A candidate whose fused
//! kernel does not compile on the session's machine is skipped, never
//! an error. This makes `makespan(Auto) <= serial_sum(Off)` structural:
//! every applied rewrite strictly helps, and everything else is left
//! alone.
//!
//! Everything the gate and the matcher derive is a pure function of
//! data that does not change under them, so it is computed once and
//! looked up on every later launch:
//!
//! - **Fused programs**, per `FusedKernel` — the rule plus the shape
//!   the fused kernel is fitted at (`[m, n, k, mid]` for the chain,
//!   `[m, n, k]` with `V = N` for GEMM+Reduction), which determines its
//!   mapping space completely. With the session's machine, which never
//!   changes, that is everything `Program::fitted` reads, so the
//!   session's memo hands back the program — and its already-hashed
//!   identity — a fresh build would reproduce bit for bit. A kernel with
//!   no valid mapping is memoized as a negative entry and skipped as
//!   before.
//! - **Solo verdicts**, per compiled-kernel fingerprint: the session's
//!   solo cycles of a program, or that it could not be compiled or timed
//!   — compile and simulation are deterministic in the fingerprint, so a
//!   rejected fused kernel is compiled once per session, not once per
//!   launch.
//! - **Member classification**, per program: whether a node *is* the
//!   library GEMM or row-reduction is memoized beside the program's
//!   identity — never by entry name, arity or shape, which look-alikes
//!   share — since it reads nothing but the program's own parts.
//!
//! The memos remove work, not decisions: the gate consults the same
//! numbers in the same order, so every applied and declined rewrite,
//! every kernel-cache lookup of a program that compiles, and every
//! recorded event is what rebuilding from scratch produces.
//! `Session::clear` drops the session's two memos with its kernels.
//!
//! Fused nodes flow through the rest of the runtime like any node: they
//! get stable fingerprints in the kernel cache, carry a
//! [`cypress_core::MappingSpace`] so `MappingPolicy::Autotune` tunes
//! them, schedule under any [`crate::SchedulePolicy`], and their
//! [`crate::NodeTiming::replaced`] lists the original node names so
//! timelines stay explainable.

use crate::error::RuntimeError;
use crate::graph::{Binding, NodeId, TaskGraph};
use crate::program::Program;
use cypress_core::kernels::gemm::{self, GemmConfig};
use cypress_core::kernels::{chain, gemm_reduction, reduction};
use cypress_core::{CompileError, MappingConfig, MappingSpace, Shape, TaskRegistry};
use cypress_sim::MachineConfig;
use std::sync::{Arc, OnceLock};

/// Whether a [`crate::Session`] rewrites graphs before launching them
/// (mirrors [`crate::SchedulePolicy`] and [`crate::MappingPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionPolicy {
    /// Launch the graph exactly as written — bit-for-bit identical to a
    /// session without a fusion rewriter.
    #[default]
    Off,
    /// Rewrite producer→consumer patterns into the paper's fused
    /// kernels when the simulator confirms the fused launch is faster.
    /// Functional results are bitwise identical to [`FusionPolicy::Off`];
    /// only launch count and timeline change.
    Auto,
}

/// What the simulator gate measured for one matched candidate. It
/// applies when `fused_cycles <= unfused_cycles` and is declined
/// otherwise. Candidates the gate could not evaluate at all (the fused
/// kernel does not compile here) get no verdict.
#[derive(Debug, Clone)]
pub(crate) struct FusionVerdict {
    /// The rewrite rule that matched (`"dual_chain"` or
    /// `"gemm_reduction"`).
    pub rule: &'static str,
    /// Names of the original nodes the fused launch replaces.
    pub replaced: Vec<String>,
    /// Solo sim cycles of the fused launch.
    pub fused_cycles: f64,
    /// Summed solo sim cycles of the launches it replaces.
    pub unfused_cycles: f64,
}

/// One applied rewrite: the fused node and the verdict that justified
/// it.
#[derive(Debug, Clone)]
pub(crate) struct FusionRewrite {
    /// The fused node in the rewritten graph.
    pub fused: NodeId,
    /// What the gate measured for it (`fused_cycles <= unfused_cycles`).
    pub verdict: FusionVerdict,
}

/// A fusion rewrite of a graph — at least one rule fired: the rewritten
/// graph plus the bookkeeping to map results back to the original
/// addressing. Nodes no rewrite touched share their [`Program`] with the
/// source graph's.
#[derive(Debug)]
pub(crate) struct FusionPlan {
    /// The rewritten graph (never built when nothing fused).
    pub graph: TaskGraph,
    /// Per original node, per parameter: where that parameter's buffer
    /// lives in the rewritten graph (`None` for parameters a fused node
    /// no longer materializes, e.g. a dead intermediate).
    param_map: Vec<Vec<Option<(usize, usize)>>>,
    /// The rewrites that fired, in application order (never empty).
    pub rewrites: Vec<FusionRewrite>,
}

impl FusionPlan {
    /// Where original `(node, param)` lives in the rewritten graph.
    #[must_use]
    pub(crate) fn target(&self, node: usize, param: usize) -> Option<(usize, usize)> {
        *self.param_map.get(node)?.get(param)?
    }

    /// Original node names each rewritten node replaced (empty for
    /// nodes that were not fused), indexed by rewritten-graph node.
    #[must_use]
    pub(crate) fn replaced_by_node(&self) -> Vec<Vec<String>> {
        let mut out = vec![Vec::new(); self.graph.len()];
        for r in &self.rewrites {
            out[r.fused.index()] = r.verdict.replaced.clone();
        }
        out
    }
}

/// A fused kernel a rewrite rule inserts, as plain data: the rule plus
/// the shape the kernel is fitted at, which together determine its
/// mapping space and problem shape completely — the key the session
/// memoizes built fused programs by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FusedKernel {
    /// Rule 1's [`chain`] kernel `C = (A·B1)·B2` at `[m, n, k, mid]`.
    Chain {
        m: usize,
        n: usize,
        k: usize,
        mid: usize,
    },
    /// Rule 2's `gr` kernel at `[m, n, k]` with its structural `V`
    /// pinned to `n`.
    GemmReduction { m: usize, n: usize, k: usize },
}

impl FusedKernel {
    /// The rewrite rule that inserts this kernel.
    fn rule(self) -> &'static str {
        match self {
            FusedKernel::Chain { .. } => "dual_chain",
            FusedKernel::GemmReduction { .. } => "gemm_reduction",
        }
    }

    /// The bound program for `machine`, fitted as [`Program::fitted`]
    /// fits it.
    ///
    /// # Errors
    ///
    /// The space's [`CompileError`] when no mapping of it is valid for
    /// this shape on `machine`.
    pub(crate) fn build(self, machine: &MachineConfig) -> Result<Program, CompileError> {
        match self {
            FusedKernel::Chain { m, n, k, mid } => Program::fitted(
                Arc::new(chain::ChainSpace),
                Shape::of(&[m, n, k, mid]),
                machine,
            ),
            FusedKernel::GemmReduction { m, n, k } => Program::fitted(
                Arc::new(gemm_reduction::PinnedVSpace { v: n }),
                Shape::of(&[m, n, k]),
                machine,
            ),
        }
    }
}

/// A candidate rewrite found by pattern matching, before the simulator
/// gate has decided whether it pays.
struct Candidate {
    kernel: FusedKernel,
    /// Original node indices replaced (sorted ascending).
    members: Vec<usize>,
    /// Insertion position in the original order (the latest member).
    position: usize,
    /// The fused program, as the gate built it for `kernel`.
    program: Program,
    /// Fused-node bindings, expressed against *original* node ids.
    bindings: Vec<Binding>,
    /// Full member-parameter correspondence:
    /// `(member node, member param) -> fused param`. Every member
    /// parameter that still has a buffer in the fused launch appears
    /// here — outputs *and* operands — so a retained member exposes the
    /// same tensors under `Auto` as under `Off`; the only slot with no
    /// entry is one bound to a fused-away intermediate, which is never
    /// materialized.
    param_remap: Vec<(usize, usize, usize)>,
}

/// How the simulator judges one candidate: solo cycles of the fused
/// program vs. the summed solo cycles of the programs it replaces.
/// `None` means "could not evaluate" (e.g. the fused kernel does not
/// compile here) and vetoes the rewrite. The gate also builds the
/// fused programs, for the machine it judges them on.
pub(crate) trait FusionGate {
    /// Solo makespan of `program` on the gate's machine, or `None` when
    /// it cannot be compiled or timed.
    fn solo_cycles(&mut self, program: &Program) -> Option<f64>;

    /// `kernel`'s program on the gate's machine ([`FusedKernel::build`]),
    /// or `None` when no mapping of its space fits there.
    fn fused_program(&mut self, kernel: FusedKernel) -> Option<Program>;
}

/// Plan fusion over `graph` on `gate`'s machine: match candidates, let
/// `gate` veto the ones that do not pay, and rebuild the graph with the
/// survivors applied. Returns the rewrite — `None` when nothing fused,
/// in which case no graph is built — and the verdicts of the candidates
/// the gate measured and rejected, in match order.
pub(crate) fn plan(
    graph: &TaskGraph,
    gate: &mut dyn FusionGate,
) -> Result<(Option<FusionPlan>, Vec<FusionVerdict>), RuntimeError> {
    let candidates = match_candidates(graph, gate);
    let mut accepted = Vec::new();
    let mut declined = Vec::new();
    let mut used = vec![false; graph.len()];
    for cand in candidates {
        if cand.members.iter().any(|&m| used[m]) {
            continue;
        }
        let Some(fused_cycles) = gate.solo_cycles(&cand.program) else {
            continue;
        };
        let members = cand.members.iter().map(|&m| &graph.nodes()[m]);
        let unfused: Option<f64> = members.clone().map(|n| gate.solo_cycles(&n.program)).sum();
        let Some(unfused_cycles) = unfused else {
            continue;
        };
        let verdict = FusionVerdict {
            rule: cand.kernel.rule(),
            replaced: members.map(|n| n.name.clone()).collect(),
            fused_cycles,
            unfused_cycles,
        };
        if fused_cycles > unfused_cycles {
            // Measured and lost: worth reporting, unlike candidates the
            // gate could not evaluate at all.
            declined.push(verdict);
            continue;
        }
        for &m in &cand.members {
            used[m] = true;
        }
        accepted.push((cand, verdict));
    }
    let plan = if accepted.is_empty() {
        None
    } else {
        Some(apply(graph, accepted)?)
    };
    Ok((plan, declined))
}

/// A library kernel a rewrite rule takes as a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LibraryKernel {
    /// [`gemm`], `C = A·B`.
    Gemm,
    /// [`reduction`], the standalone row-reduction.
    Reduction,
}

/// Which library kernel `program` *is*, if any, not merely which it is
/// named and shaped like: the rewrite replaces the member by a kernel
/// built from the library's definition, so a look-alike (`C = A·B + 1`
/// under the entry name `gemm`) must not match. A library kernel's task
/// registry depends on neither shape nor mapping, so one canonical copy,
/// built once, identifies a member by comparison; name and arity go
/// first because they settle almost every miss for free. Read through
/// [`Program::library_kernel`], which memoizes it beside the identity.
pub(crate) fn classify(program: &Program) -> Option<LibraryKernel> {
    static LIBRARY: [OnceLock<Option<TaskRegistry>>; 2] = [OnceLock::new(), OnceLock::new()];
    [LibraryKernel::Gemm, LibraryKernel::Reduction]
        .into_iter()
        .find(|&kind| {
            let (entry, arity, space, shape): (_, _, &dyn MappingSpace, &[usize]) = match kind {
                LibraryKernel::Gemm => ("gemm", 3, &gemm::GemmSpace, &[64, 64, 64]),
                LibraryKernel::Reduction => ("reduce", 2, &reduction::ReductionSpace, &[64, 64]),
            };
            let library = || {
                let cfg = MappingConfig::Gemm(GemmConfig::test());
                let parts = space.build(&Shape::of(shape), &cfg);
                parts.ok().map(|(registry, ..)| registry)
            };
            program.entry == entry
                && program.args.len() == arity
                && LIBRARY[kind as usize].get_or_init(library).as_ref() == Some(&program.registry)
        })
}

/// Pattern-match all fusion candidates, deterministically (ascending
/// consumer node order, chain rule before reduction rule).
fn match_candidates(graph: &TaskGraph, gate: &mut dyn FusionGate) -> Vec<Candidate> {
    let mut out = Vec::new();
    // A node joins at most one candidate.
    let mut claimed = vec![false; graph.len()];
    // One classification per program, ever: the program memoizes it.
    let kinds: Vec<Option<LibraryKernel>> = graph
        .nodes()
        .iter()
        .map(|n| n.program.library_kernel())
        .collect();
    match_chains(graph, gate, &kinds, &mut claimed, &mut out);
    match_gemm_reductions(graph, gate, &kinds, &mut claimed, &mut out);
    // Candidates apply in insertion-position order.
    out.sort_by_key(|c| c.position);
    out
}

/// Rule 1: gemm -> gemm chains (consumer order).
fn match_chains(
    graph: &TaskGraph,
    gate: &mut dyn FusionGate,
    kinds: &[Option<LibraryKernel>],
    claimed: &mut [bool],
    out: &mut Vec<Candidate>,
) {
    let is_gemm = |i: usize| kinds[i] == Some(LibraryKernel::Gemm);
    let consumers = graph.consumer_counts();
    let total_consumers: Vec<usize> = consumers.iter().map(|c| c.iter().sum()).collect();
    for j in 0..graph.len() {
        if claimed[j] {
            continue;
        }
        let nj = &graph.nodes()[j];
        if !is_gemm(j) {
            continue;
        }
        let Binding::Output {
            node: src,
            param: 0,
        } = nj.bindings[1]
        else {
            continue;
        };
        let i = src.index();
        if claimed[i] {
            continue;
        }
        let ni = &graph.nodes()[i];
        // The producer must be a GEMM whose only observable output is
        // the edge into `j`: unretained, and its C consumed exactly by
        // this one edge (the intermediate is dead after fusion).
        if !is_gemm(i) || ni.retain || total_consumers[i] != 1 || consumers[i][0] != 1 {
            continue;
        }
        // Shapes: C1[m,mid] = A[m,k]·B1[k,mid]; C[m,n] = C1·B2[mid,n].
        let (m, mid) = (ni.program.args[0].rows, ni.program.args[0].cols);
        let k = ni.program.args[1].cols;
        let n = nj.program.args[0].cols;
        let kernel = FusedKernel::Chain { m, n, k, mid };
        // No valid chain mapping for this shape on this machine: the
        // chain simply stays unfused.
        let Some(program) = gate.fused_program(kernel) else {
            continue;
        };
        // chain(C, A, B1, B2): C from the consumer, A/B1 from the
        // producer, B2 from the consumer.
        let bindings = vec![
            nj.bindings[0].clone(),
            ni.bindings[1].clone(),
            ni.bindings[2].clone(),
            nj.bindings[2].clone(),
        ];
        claimed[i] = true;
        claimed[j] = true;
        out.push(Candidate {
            kernel,
            members: vec![i, j],
            position: j,
            program,
            bindings,
            // The consumer's A slot (the dead intermediate) is the one
            // parameter the fused launch no longer materializes.
            param_remap: vec![(j, 0, 0), (i, 1, 1), (i, 2, 2), (j, 2, 3)],
        });
    }
}

/// Rule 2: gemm + row-reduction over the same A source.
fn match_gemm_reductions(
    graph: &TaskGraph,
    gate: &mut dyn FusionGate,
    kinds: &[Option<LibraryKernel>],
    claimed: &mut [bool],
    out: &mut Vec<Candidate>,
) {
    for r in 0..graph.len() {
        if claimed[r] {
            continue;
        }
        let nr = &graph.nodes()[r];
        if kinds[r] != Some(LibraryKernel::Reduction) {
            continue;
        }
        for g in 0..graph.len() {
            if g == r || claimed[g] || claimed[r] {
                continue;
            }
            let ng = &graph.nodes()[g];
            if kinds[g] != Some(LibraryKernel::Gemm) {
                continue;
            }
            // Both must read the same A (the reduction of a GEMM's
            // *output* is a different dataflow and stays unfused); two
            // `Zeros` are two fresh buffers, not one source.
            if ng.bindings[1] == Binding::Zeros || ng.bindings[1] != nr.bindings[1] {
                continue;
            }
            let (m, n) = (ng.program.args[0].rows, ng.program.args[0].cols);
            let k = ng.program.args[1].cols;
            if nr.program.args[0].rows != m || nr.program.args[1].cols != k {
                continue;
            }
            let position = g.max(r);
            // Every consumer of either member must come after the fused
            // node's position, or the rebuilt graph would reference a
            // node that does not exist yet.
            let early_consumer = graph.nodes().iter().enumerate().any(|(c, node)| {
                c <= position
                    && c != g
                    && c != r
                    && node.bindings.iter().any(|b| {
                        matches!(b, Binding::Output { node, .. } if node.index() == g || node.index() == r)
                    })
            });
            if early_consumer {
                continue;
            }
            // The standalone reduction's output is `M x 1`, which pins
            // the fused kernel's structural `V` to `N`.
            let kernel = FusedKernel::GemmReduction { m, n, k };
            let Some(program) = gate.fused_program(kernel) else {
                continue;
            };
            // gr(C, Y, A, B): C/B from the GEMM, Y from the reduction,
            // A from the shared source.
            let bindings = vec![
                ng.bindings[0].clone(),
                nr.bindings[0].clone(),
                ng.bindings[1].clone(),
                ng.bindings[2].clone(),
            ];
            claimed[g] = true;
            claimed[r] = true;
            let mut members = vec![g, r];
            members.sort_unstable();
            out.push(Candidate {
                kernel,
                members,
                position,
                program,
                bindings,
                param_remap: vec![(g, 0, 0), (g, 1, 2), (g, 2, 3), (r, 0, 1), (r, 1, 2)],
            });
            break;
        }
    }
}

/// Rebuild the graph with `accepted` rewrites applied, producing the
/// original→rewritten parameter map.
fn apply(
    graph: &TaskGraph,
    accepted: Vec<(Candidate, FusionVerdict)>,
) -> Result<FusionPlan, RuntimeError> {
    let mut member = vec![false; graph.len()];
    for (cand, _) in &accepted {
        for &m in &cand.members {
            member[m] = true;
        }
    }
    // A fused node must be retained whenever any of its members' buffers
    // outlived the unfused launch, or fusing could drop a result the
    // unfused graph returns (a member that was a sink can stop being one
    // once its partner's consumers hang off the fused node).
    let kept = graph.kept();

    let mut fused = TaskGraph::new();
    let mut param_map: Vec<Vec<Option<(usize, usize)>>> = graph
        .nodes()
        .iter()
        .map(|n| vec![None; n.program.args.len()])
        .collect();
    let mut rewrites = Vec::new();

    let remap =
        |param_map: &[Vec<Option<(usize, usize)>>], b: &Binding| -> Result<Binding, RuntimeError> {
            Ok(match b {
                Binding::Output { node, param } => {
                    let (nn, np) =
                        param_map[node.index()][*param].ok_or_else(|| RuntimeError::Internal {
                            what: format!(
                                "fusion dropped a buffer that node {} still consumes",
                                node.index()
                            ),
                        })?;
                    Binding::Output {
                        node: NodeId(nn),
                        param: np,
                    }
                }
                other => other.clone(),
            })
        };

    // Accepted candidates are in position order, one per position.
    let mut accepted = accepted.into_iter().peekable();
    for idx in 0..graph.len() {
        if let Some((cand, verdict)) = accepted.next_if(|(cand, _)| cand.position == idx) {
            let bindings = cand
                .bindings
                .iter()
                .map(|b| remap(&param_map, b))
                .collect::<Result<Vec<_>, _>>()?;
            let id = fused.add_node(&verdict.replaced.join("+"), cand.program, bindings)?;
            if cand.members.iter().any(|&m| kept[m]) {
                fused.retain(id)?;
            }
            for &(member, member_param, fused_param) in &cand.param_remap {
                param_map[member][member_param] = Some((id.index(), fused_param));
            }
            rewrites.push(FusionRewrite { fused: id, verdict });
        } else if !member[idx] {
            let node = &graph.nodes()[idx];
            let bindings = node
                .bindings
                .iter()
                .map(|b| remap(&param_map, b))
                .collect::<Result<Vec<_>, _>>()?;
            let id = fused.add_node(&node.name, node.program.clone(), bindings)?;
            if node.retain {
                fused.retain(id)?;
            }
            for (p, slot) in param_map[idx].iter_mut().enumerate() {
                *slot = Some((id.index(), p));
            }
        }
        // Members that are not the insertion position vanish: their
        // parameters stay mapped through the fused node (set when it
        // was added); only a slot bound to a fused-away intermediate
        // maps to nothing.
    }

    Ok(FusionPlan {
        graph: fused,
        param_map,
        rewrites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_core::kernels::{gemm, reduction};

    /// A gate on the unit-test machine that scores programs with its
    /// function and builds every fused program afresh.
    struct Scored(fn(&Program) -> Option<f64>);
    impl FusionGate for Scored {
        fn solo_cycles(&mut self, program: &Program) -> Option<f64> {
            (self.0)(program)
        }

        fn fused_program(&mut self, kernel: FusedKernel) -> Option<Program> {
            kernel.build(&MachineConfig::test_gpu()).ok()
        }
    }

    fn always_fuse() -> Scored {
        Scored(|_| Some(1.0))
    }

    fn never_fuse() -> Scored {
        Scored(|_| None)
    }

    /// Scores fused kernels slower than the launches they replace.
    fn prefer_unfused() -> Scored {
        Scored(|program| {
            Some(if program.entry == "chain" || program.entry == "gr" {
                10.0
            } else {
                1.0
            })
        })
    }

    fn gemm_program(m: usize, n: usize, k: usize) -> Program {
        Program::from_parts(
            gemm::build(m, n, k, &MachineConfig::test_gpu()).unwrap(),
            "gemm",
        )
    }

    fn chain_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g
            .add_node(
                "up",
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::external("X"),
                    Binding::external("W1"),
                ],
            )
            .unwrap();
        g.add_node(
            "down",
            gemm_program(64, 64, 64),
            vec![
                Binding::Zeros,
                Binding::output(a, 0),
                Binding::external("W2"),
            ],
        )
        .unwrap();
        g
    }

    #[test]
    fn chain_pattern_fuses_to_one_node() {
        let g = chain_graph();
        let (plan, declined) = plan(&g, &mut always_fuse()).unwrap();
        let plan = plan.expect("the chain fuses");
        assert_eq!(plan.graph.len(), 1);
        assert_eq!(plan.rewrites.len(), 1);
        assert_eq!(plan.rewrites[0].verdict.rule, "dual_chain");
        assert_eq!(plan.rewrites[0].verdict.replaced, vec!["up", "down"]);
        // AlwaysFuse scores every program 1.0: fused 1.0 vs 2 members.
        assert_eq!(plan.rewrites[0].verdict.fused_cycles, 1.0);
        assert_eq!(plan.rewrites[0].verdict.unfused_cycles, 2.0);
        assert!(declined.is_empty());
        assert_eq!(plan.graph.nodes()[0].name, "up+down");
        // The consumer's C maps to the fused C; the dead intermediate
        // maps nowhere.
        assert_eq!(plan.target(1, 0), Some((0, 0)));
        assert_eq!(plan.target(0, 0), None);
    }

    #[test]
    fn untouched_nodes_share_their_programs_with_the_source_graph() {
        let mut g = chain_graph();
        for name in ["side", "tail"] {
            g.add_node(
                name,
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::external("X"),
                    Binding::external("W1"),
                ],
            )
            .unwrap();
        }
        let (plan, _) = plan(&g, &mut always_fuse()).unwrap();
        let plan = plan.expect("the chain fuses");
        assert_eq!(plan.graph.len(), 3);
        for (orig, node) in g.nodes().iter().enumerate().skip(2) {
            let (idx, _) = plan.target(orig, 0).unwrap();
            let rebuilt = &plan.graph.nodes()[idx];
            assert_eq!(rebuilt.name, node.name);
            assert!(
                rebuilt.program.shares_parts_with(&node.program),
                "`{}` was copied, not shared",
                node.name
            );
        }
    }

    #[test]
    fn gate_vetoes_everything_when_it_cannot_evaluate() {
        let g = chain_graph();
        let (plan, declined) = plan(&g, &mut never_fuse()).unwrap();
        assert!(plan.is_none(), "nothing fused, so no graph is built");
        // Unevaluable candidates are skipped, not declined.
        assert!(declined.is_empty());
    }

    #[test]
    fn measured_losers_are_declined_with_margins() {
        let g = chain_graph();
        let (plan, declined) = plan(&g, &mut prefer_unfused()).unwrap();
        assert!(plan.is_none());
        assert_eq!(declined.len(), 1);
        let d = &declined[0];
        assert_eq!(d.rule, "dual_chain");
        assert_eq!(d.replaced, vec!["up", "down"]);
        assert_eq!(d.fused_cycles, 10.0);
        assert_eq!(d.unfused_cycles, 2.0);
    }

    #[test]
    fn retained_intermediate_stays_unfused() {
        let mut g = chain_graph();
        g.retain(NodeId(0)).unwrap();
        let (plan, _) = plan(&g, &mut always_fuse()).unwrap();
        assert!(plan.is_none());
    }

    #[test]
    fn gemm_and_reduction_over_same_source_fuse() {
        let machine = MachineConfig::test_gpu();
        let mut g = TaskGraph::new();
        g.add_node(
            "proj",
            gemm_program(64, 64, 64),
            vec![
                Binding::Zeros,
                Binding::external("X"),
                Binding::external("W"),
            ],
        )
        .unwrap();
        g.add_node(
            "stat",
            Program::from_parts(reduction::build(64, 64, &machine).unwrap(), "reduce"),
            vec![Binding::Zeros, Binding::external("X")],
        )
        .unwrap();
        let (plan, _) = plan(&g, &mut always_fuse()).unwrap();
        let plan = plan.expect("the pair fuses");
        assert_eq!(plan.graph.len(), 1);
        assert_eq!(plan.rewrites[0].verdict.rule, "gemm_reduction");
        assert_eq!(plan.target(0, 0), Some((0, 0)), "gemm C -> gr C");
        assert_eq!(plan.target(1, 0), Some((0, 1)), "reduction Y -> gr Y");
    }

    #[test]
    fn reduction_of_gemm_output_stays_unfused() {
        let machine = MachineConfig::test_gpu();
        let mut g = TaskGraph::new();
        let a = g
            .add_node(
                "proj",
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::external("X"),
                    Binding::external("W"),
                ],
            )
            .unwrap();
        g.add_node(
            "stat",
            Program::from_parts(reduction::build(64, 64, &machine).unwrap(), "reduce"),
            vec![Binding::Zeros, Binding::output(a, 0)],
        )
        .unwrap();
        let (plan, _) = plan(&g, &mut always_fuse()).unwrap();
        assert!(plan.is_none());
    }
}
