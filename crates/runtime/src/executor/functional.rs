//! The functional executor: real tensors move along the graph's
//! tensor-buffer edges one ready wave at a time. It times nothing: a
//! launch's report is its timing schedule, which the session assembles
//! before any data moves.

use super::NodeLaunch;
use crate::error::RuntimeError;
use crate::fuse::FusionPlan;
use crate::graph::{Binding, NodeId, TaskGraph};
use crate::pool::BufferPool;
use crate::report::GraphReport;
use crate::telemetry::{Event, TraceLog};
use cypress_core::Compiled;
use cypress_sim::{ApplyBytes, Simulator};
use cypress_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

/// The result of a functional graph launch: final parameter tensors of
/// every retained node plus the whole-graph timing schedule of the
/// launch.
#[derive(Debug)]
pub struct GraphRun {
    names: Vec<String>,
    /// Per node: final parameter tensors in declaration order (`None` for
    /// nodes whose buffers were recycled into the pool).
    results: Vec<Option<Vec<Option<Tensor>>>>,
    /// The launch's timing schedule: what
    /// [`crate::Session::launch_timing`] reports for the same graph on
    /// the same session, bit for bit.
    pub report: GraphReport,
    /// Per-dtype bytes the functional data path moved across every node
    /// launch of this run — a deterministic function of the graph and
    /// its kernels, bit-identical across policies and worker counts.
    pub apply_bytes: ApplyBytes,
}

impl GraphRun {
    /// The final tensor of `param` of node `id`, if retained.
    #[must_use]
    pub fn tensor(&self, id: NodeId, param: usize) -> Option<&Tensor> {
        self.results.get(id.index())?.as_ref()?.get(param)?.as_ref()
    }

    /// Like [`GraphRun::tensor`], addressing the node by name.
    #[must_use]
    pub fn tensor_of(&self, node: &str, param: usize) -> Option<&Tensor> {
        let idx = self.names.iter().position(|n| n == node)?;
        self.tensor(NodeId(idx), param)
    }
}

/// `true` if `node`'s buffers survive the launch: sinks (nothing consumes
/// them) and explicitly retained nodes.
fn keeps_buffers(graph: &TaskGraph, node: usize, total_consumers: &[usize]) -> bool {
    graph.nodes()[node].retain || total_consumers[node] == 0
}

/// Tensor-buffer edge bookkeeping of the functional executor: which
/// producer slots still have pending consumers, when a buffer's last use
/// lets it move instead of clone, and when a drained producer's pooled
/// buffers recycle into the pool.
struct EdgeBuffers {
    /// Pending consumers per `(node, param)`.
    per_param: Vec<Vec<usize>>,
    /// Total consumers each node started with.
    total_initial: Vec<usize>,
    /// Total consumers each node still has.
    total_remaining: Vec<usize>,
    /// Produced tensors per node (`None` until the node ran, entries
    /// taken by last uses or recycled into the pool).
    slots: Vec<Option<Vec<Option<Tensor>>>>,
    /// Per `(node, param)`: whether the tensor in that slot is a buffer
    /// the pool handed out (a `Zeros` acquisition, possibly moved
    /// downstream on its last use). Only those go back into the pool
    /// when their node drains; clones of external inputs and of shared
    /// upstream buffers are not the pool's (they share the original's
    /// copy-on-write storage until written) and are dropped, so a
    /// serving loop never parks more than the pool handed out.
    pooled: Vec<Vec<bool>>,
}

impl EdgeBuffers {
    fn new(graph: &TaskGraph) -> Self {
        let per_param = graph.consumer_counts();
        let total_initial: Vec<usize> = per_param.iter().map(|c| c.iter().sum()).collect();
        EdgeBuffers {
            total_remaining: total_initial.clone(),
            per_param,
            total_initial,
            slots: vec![None; graph.len()],
            pooled: vec![Vec::new(); graph.len()],
        }
    }

    /// Assemble the launch-parameter tensors of `id` from its bindings:
    /// externals are validated and cloned, upstream buffers are moved on
    /// their last use and cloned otherwise, `Zeros` come from the pool.
    /// A clone shares the caller's (or producer's) storage, copy-on-write:
    /// an input the kernel only reads is never copied, and one it stores
    /// to is copied once, at its first write, leaving the original intact.
    fn materialize(
        &mut self,
        graph: &TaskGraph,
        id: NodeId,
        inputs: &HashMap<String, Tensor>,
        pool: &mut BufferPool,
        recorder: Option<&TraceLog>,
    ) -> Result<Vec<Tensor>, RuntimeError> {
        let node = &graph.nodes()[id.index()];
        let mut params = Vec::with_capacity(node.bindings.len());
        let mut pooled = Vec::with_capacity(node.bindings.len());
        for (i, binding) in node.bindings.iter().enumerate() {
            let arg = &node.program.args[i];
            let (tensor, from_pool) = match binding {
                Binding::External(name) => {
                    let t = inputs
                        .get(name)
                        .ok_or_else(|| RuntimeError::MissingInput { name: name.clone() })?;
                    if t.shape() != [arg.rows, arg.cols] {
                        return Err(RuntimeError::BadInput {
                            name: name.clone(),
                            reason: format!(
                                "has shape {:?}, parameter `{}` of `{}` needs {}x{}",
                                t.shape(),
                                arg.name,
                                node.name,
                                arg.rows,
                                arg.cols
                            ),
                        });
                    }
                    if t.dtype() != arg.dtype {
                        return Err(RuntimeError::BadInput {
                            name: name.clone(),
                            reason: format!(
                                "has dtype {:?}, parameter `{}` of `{}` is {:?}",
                                t.dtype(),
                                arg.name,
                                node.name,
                                arg.dtype
                            ),
                        });
                    }
                    (t.clone(), false)
                }
                Binding::Output { node: src, param } => {
                    self.per_param[src.0][*param] -= 1;
                    self.total_remaining[src.0] -= 1;
                    let missing = || RuntimeError::Internal {
                        what: format!(
                            "edge buffer ({}, {param}) was not produced before its consumer \
                             (the schedule is topological, so this is a runtime bug)",
                            src.0
                        ),
                    };
                    let slot = self.slots[src.0]
                        .as_mut()
                        .and_then(|s| s.get_mut(*param))
                        .ok_or_else(missing)?;
                    let last_use = self.per_param[src.0][*param] == 0
                        && !keeps_buffers(graph, src.0, &self.total_initial);
                    if last_use {
                        (slot.take().ok_or_else(missing)?, self.pooled[src.0][*param])
                    } else {
                        (slot.as_ref().ok_or_else(missing)?.clone(), false)
                    }
                }
                Binding::Zeros => {
                    // The reuse flag comes from the pool's own counter
                    // delta, so the event agrees with `PoolStats`.
                    let before = recorder.map(|log| (log, pool.stats()));
                    let t = pool.acquire(arg.dtype, arg.rows, arg.cols);
                    if let Some((log, before)) = before {
                        log.record(Event::PoolAcquire {
                            dtype: arg.dtype,
                            rows: arg.rows,
                            cols: arg.cols,
                            reused: pool.stats().reused > before.reused,
                        });
                    }
                    (t, true)
                }
            };
            params.push(tensor);
            pooled.push(from_pool);
        }
        self.pooled[id.index()] = pooled;
        Ok(params)
    }

    /// Record the tensors `id` produced.
    fn store(&mut self, id: NodeId, tensors: Vec<Tensor>) {
        self.slots[id.index()] = Some(tensors.into_iter().map(Some).collect());
    }

    /// Recycle any producer that `id` (just finished) drained: the pool's
    /// own buffers are released, every other leftover tensor is dropped.
    fn recycle_drained(
        &mut self,
        graph: &TaskGraph,
        id: NodeId,
        pool: &mut BufferPool,
        recorder: Option<&TraceLog>,
    ) {
        for dep in graph.dependencies(id) {
            if self.total_remaining[dep.0] == 0 && !keeps_buffers(graph, dep.0, &self.total_initial)
            {
                if let Some(rest) = self.slots[dep.0].take() {
                    for (t, &pooled) in rest.into_iter().zip(&self.pooled[dep.0]) {
                        let Some(t) = t.filter(|_| pooled) else {
                            continue;
                        };
                        let before = recorder.map(|log| (log, pool.stats()));
                        let dtype = t.dtype();
                        let elements = t.shape().iter().product();
                        pool.release(t);
                        if let Some((log, before)) = before {
                            log.record(Event::PoolRelease {
                                dtype,
                                elements,
                                evictions: pool.stats().evicted - before.evicted,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Move `graph`'s data and return it with `report`, the launch's timing
/// schedule. `nodes` is indexed by `NodeId::index()` (one entry per
/// graph node). The graph runs as written on any placement: a consumer
/// on another device reads its producer's buffer directly, since the
/// transfer between them would be a bitwise copy. Each *ready wave* of
/// nodes (all dependencies satisfied) runs on the scoped worker pool;
/// inputs are materialized, results joined and drained producers
/// recycled serially, in ascending node order per wave. That order — and
/// with it the buffer pool's traffic and the `WaveScheduled` /
/// `PoolAcquire` / `PoolRelease` events — is a function of the graph
/// alone: the simulator's worker count changes wall time only (one
/// worker runs each wave inline, see [`cypress_sim::par`]). Each launch
/// is a deterministic function of its input tensors (and pooled buffers
/// are handed out zeroed), so tensors are bit-identical at every
/// parallelism level.
pub(crate) fn run_functional(
    simulator: &Simulator,
    graph: &TaskGraph,
    nodes: &[NodeLaunch],
    inputs: &HashMap<String, Tensor>,
    pool: &mut BufferPool,
    recorder: Option<&TraceLog>,
    report: GraphReport,
) -> Result<GraphRun, RuntimeError> {
    let mut edges = EdgeBuffers::new(graph);
    let mut apply_bytes = ApplyBytes::default();

    let (mut indegree, consumers) = graph.dependency_edges();
    let mut wave: Vec<usize> = (0..graph.len()).filter(|&i| indegree[i] == 0).collect();
    let mut wave_index = 0usize;
    while !wave.is_empty() {
        if let Some(log) = recorder {
            log.record(Event::WaveScheduled {
                wave: wave_index,
                nodes: wave.clone(),
            });
        }
        wave_index += 1;
        // Materialize inputs serially in ascending node order (the
        // take-vs-clone bookkeeping is order-sensitive), then run the
        // whole wave on the worker pool.
        let mut jobs = Vec::with_capacity(wave.len());
        for &idx in &wave {
            let id = NodeId(idx);
            let params = edges.materialize(graph, id, inputs, pool, recorder)?;
            jobs.push((idx, Arc::clone(&nodes[idx].compiled), params));
        }
        let runs = cypress_sim::par::parallel_map(
            simulator.parallelism(),
            jobs,
            |(idx, compiled, params): (usize, Arc<Compiled>, Vec<Tensor>)| {
                (
                    idx,
                    simulator.run_functional_lowered(&compiled.kernel, &compiled.lowered, params),
                )
            },
        );
        // Join in input (ascending node) order.
        for (idx, run) in runs {
            let run = run?;
            apply_bytes.merge(run.apply_bytes);
            edges.store(NodeId(idx), run.params);
        }
        for &idx in &wave {
            edges.recycle_drained(graph, NodeId(idx), pool, recorder);
        }
        let mut next = Vec::new();
        for &idx in &wave {
            for &c in &consumers[idx] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    next.push(c);
                }
            }
        }
        next.sort_unstable();
        wave = next;
    }
    Ok(GraphRun {
        names: graph.nodes().iter().map(|n| n.name.clone()).collect(),
        results: edges.slots,
        report,
        apply_bytes,
    })
}

/// Re-address a fused graph's [`GraphRun`] to the *original* graph: the
/// result's node ids and names are the original ones, each parameter's
/// tensor pulled from wherever `plan` placed its buffer, while the
/// timing report keeps the fused launches (with their `replaced`
/// annotations) so the timeline shows what actually ran.
pub(crate) fn remap_run(run: GraphRun, original: &TaskGraph, plan: &FusionPlan) -> GraphRun {
    // Clone (a reference-count bump: tensor storage is copy-on-write)
    // rather than move: several original slots can share one rewritten
    // buffer (two fused members reading the same operand).
    let rewritten_results = run.results;
    let results = original
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let params: Vec<Option<Tensor>> = (0..node.program.args.len())
                .map(|p| {
                    let (fi, fp) = plan.target(i, p)?;
                    rewritten_results.get(fi)?.as_ref()?.get(fp)?.clone()
                })
                .collect();
            params.iter().any(Option::is_some).then_some(params)
        })
        .collect();
    GraphRun {
        names: original.nodes().iter().map(|n| n.name.clone()).collect(),
        results,
        report: run.report,
        apply_bytes: run.apply_bytes,
    }
}
