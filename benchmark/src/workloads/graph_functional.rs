//! `graph_functional` — the same engine used the other way: data
//! moves, so `sim::apply`, the executor and the buffer pool do the
//! work.
//!
//! Set-up builds two graphs — the transformer layer (attention →
//! dual-GEMM → GEMM+Reduction at sequence length 256) and an 8-wide
//! fan-out of 256³ GEMMs, the small-batched-GEMM regime where launch
//! handling rather than one kernel dominates — compiles each once with
//! `Session::compile_graph`, and draws seeded f16 inputs. Op =
//! `Session::launch_compiled` with one of the input sets, at host
//! parallelism 1 or `min(nproc, 2)`. A timing-engine speed-up that
//! slows the functional mode, or a pool / worker-pool change, shows
//! here and not in `sim_timing`.
//!
//! `sim_cycles` is the sum of the launches' simulated makespans.

use super::{
    digest_of, oracle_error, seeded_order, workers, Checks, OpResult, Unrolled, Workload, TOLERANCE,
};
use crate::adapter::{
    self, Family, FrozenGraph, Graph, Input, Inputs, KernelSpec, NodeSpec, Policy, Runtime, Sim,
    Tensor,
};

/// Sequence length of the transformer layer and edge of the fan-out
/// GEMMs.
const SIZE: usize = 256;
const HEAD_DIM: usize = 128;
pub const FAN_OUT: usize = 8;
/// Seeded input sets of the transformer layer and of the fan-out;
/// every op launches with one of them. Unequal on purpose: with the
/// two graphs' ops in equal number the median op would sit in the gap
/// between their latencies and jump from run to run.
const INPUT_SETS: [usize; 2] = [5, 3];

fn ext(name: &str) -> Input {
    Input::External(name.to_string())
}

/// attention(Q, K, V) → O; dual-GEMM: G = O·W1 + O·W2; GEMM+Reduction:
/// P = G·W3 with y = Σ_k G.
pub fn transformer_nodes() -> Vec<NodeSpec> {
    vec![
        NodeSpec {
            name: "attention".into(),
            kernel: KernelSpec::new(Family::Fa2, &[1, SIZE, HEAD_DIM]),
            inputs: vec![Input::Zeros, ext("Q"), ext("K"), ext("V")],
            retain: false,
        },
        NodeSpec {
            name: "glu_dual_gemm".into(),
            kernel: KernelSpec::new(Family::Dual, &[SIZE, SIZE, HEAD_DIM]),
            inputs: vec![
                Input::Zeros,
                Input::Node { node: 0, param: 0 },
                ext("W1"),
                ext("W2"),
            ],
            retain: false,
        },
        NodeSpec {
            name: "proj_gemm_reduction".into(),
            kernel: KernelSpec::new(Family::GemmReduction, &[SIZE, SIZE, SIZE]),
            inputs: vec![
                Input::Zeros,
                Input::Zeros,
                Input::Node { node: 1, param: 0 },
                ext("W3"),
            ],
            retain: false,
        },
    ]
}

/// `FAN_OUT` independent GEMMs.
pub fn fan_out_nodes() -> Vec<NodeSpec> {
    (0..FAN_OUT)
        .map(|i| NodeSpec {
            name: format!("gemm{i}"),
            kernel: KernelSpec::new(Family::Gemm, &[SIZE, SIZE, SIZE]),
            inputs: vec![Input::Zeros, ext(&format!("A{i}")), ext(&format!("B{i}"))],
            retain: false,
        })
        .collect()
}

/// One graph, compiled, with its seeded inputs and its unrolled form.
pub struct Served {
    pub name: &'static str,
    pub graph: Graph,
    pub frozen: FrozenGraph,
    pub unrolled: Unrolled,
    pub inputs: Vec<Inputs>,
}

impl Served {
    pub fn prepare(
        name: &'static str,
        nodes: Vec<NodeSpec>,
        rt: &mut Runtime,
        rng: &mut adapter::Rng,
        input_sets: usize,
    ) -> Result<Served, String> {
        let graph = adapter::build_graph(&nodes)?;
        let frozen = rt.compile_graph(&graph)?;
        let mut sources = Vec::new();
        let mut kernels = Vec::new();
        for node in &nodes {
            let source = adapter::build_default(&node.kernel)?;
            // A hit in the session's kernel cache: the graph compile
            // above already paid for it.
            kernels.push(rt.compile(&source)?);
            sources.push(source);
        }
        let inputs = (0..input_sets)
            .map(|_| {
                let mut set = Inputs::default();
                for (name, rows, cols) in graph.external_inputs() {
                    set.insert(&name, adapter::random_f16(rng, rows, cols, 0.5));
                }
                set
            })
            .collect();
        Ok(Served {
            name,
            graph,
            frozen,
            unrolled: Unrolled {
                nodes,
                sources,
                kernels,
            },
            inputs,
        })
    }

    /// The sink tensors of one launch: `(node, param, tensor)`.
    fn sinks(&self, out: &adapter::GraphOutputs) -> Vec<(usize, usize, Tensor)> {
        let mut sinks = Vec::new();
        for (n, node) in self.unrolled.nodes.iter().enumerate() {
            let outputs = node.inputs.iter().filter(|i| **i == Input::Zeros).count();
            for p in 0..outputs {
                if let Some(t) = out.tensor(&self.graph, n, p) {
                    sinks.push((n, p, t));
                }
            }
        }
        sinks
    }
}

struct Op {
    graph: usize,
    inputs: usize,
    parallelism: usize,
}

pub struct GraphFunctional {
    rt: Runtime,
    sim: Sim,
    graphs: Vec<Served>,
    ops: Vec<Op>,
}

impl GraphFunctional {
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let mut rng = adapter::rng(seed);
        let mut rt = Runtime::new(&Policy::plain(1));
        let graphs = vec![
            Served::prepare(
                "transformer",
                transformer_nodes(),
                &mut rt,
                &mut rng,
                INPUT_SETS[0],
            )?,
            Served::prepare("fan_out", fan_out_nodes(), &mut rt, &mut rng, INPUT_SETS[1])?,
        ];
        let mut ops = Vec::new();
        for (graph, sets) in INPUT_SETS.into_iter().enumerate() {
            for inputs in 0..sets {
                for parallelism in [1, workers()] {
                    ops.push(Op {
                        graph,
                        inputs,
                        parallelism,
                    });
                }
            }
        }
        // Fill the buffer pool and start the worker threads: one launch
        // of each graph at each parallelism, whatever the seed.
        for served in &graphs {
            for parallelism in [1, workers()] {
                rt.configure(&Policy::plain(parallelism));
                rt.launch_compiled(&served.frozen, &served.inputs[0])?;
            }
        }
        Ok(GraphFunctional {
            rt,
            sim: adapter::simulator(),
            graphs,
            ops: seeded_order(ops, seed, quick),
        })
    }
}

impl Workload for GraphFunctional {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn op_label(&self, i: usize) -> String {
        let op = &self.ops[i];
        format!(
            "{} inputs#{} parallelism {}",
            self.graphs[op.graph].name, op.inputs, op.parallelism
        )
    }

    fn run_op(&mut self, i: usize) -> Result<OpResult, String> {
        let op = &self.ops[i];
        let served = &self.graphs[op.graph];
        self.rt.configure(&Policy::plain(op.parallelism));
        let out = self
            .rt
            .launch_compiled(&served.frozen, &served.inputs[op.inputs])?;
        Ok(OpResult {
            sim_cycles: out.makespan(),
            digest: digest_of(&[out.apply_bytes()], &[out.makespan()]),
        })
    }

    fn replay_op(&mut self, i: usize) -> Result<(), String> {
        let op = &self.ops[i];
        let served = &self.graphs[op.graph];
        served
            .unrolled
            .run(&self.sim, &served.inputs[op.inputs])
            .map(drop)
    }

    /// Every input set of every graph: the sinks of a parallelism-1
    /// launch match the host oracle, a parallel launch matches the
    /// serial one bit for bit, and both match the node-by-node replay
    /// through the bare simulator bit for bit.
    fn check(&mut self) -> Checks {
        let mut checks = Checks::default();
        for served in &self.graphs {
            for (set, inputs) in served.inputs.iter().enumerate() {
                let what = format!("{} inputs#{set}", served.name);
                self.rt.configure(&Policy::plain(1));
                let serial = checks.step(&what, self.rt.launch_compiled(&served.frozen, inputs));
                self.rt.configure(&Policy::plain(workers()));
                let parallel = checks.step(&what, self.rt.launch_compiled(&served.frozen, inputs));
                let bare = checks.step(&what, served.unrolled.run(&self.sim, inputs));
                let (Some(serial), Some(parallel), Some(bare)) = (serial, parallel, bare) else {
                    continue;
                };
                let serial = served.sinks(&serial);
                let parallel = served.sinks(&parallel);
                checks.expect(
                    !serial.is_empty()
                        && serial.len() == parallel.len()
                        && serial
                            .iter()
                            .zip(&parallel)
                            .all(|(a, b)| (a.0, a.1) == (b.0, b.1) && a.2.same_bits(&b.2)),
                    || format!("{what}: parallel launch differs from the serial one"),
                );
                checks.expect(
                    serial.iter().all(|(n, p, t)| t.same_bits(&bare[*n][*p])),
                    || format!("{what}: graph launch differs from the bare simulator"),
                );
                // The host oracle, node by node, on the values each
                // node actually consumed.
                for (n, node) in served.unrolled.nodes.iter().enumerate() {
                    let given: Vec<Tensor> = node
                        .inputs
                        .iter()
                        .enumerate()
                        .map(|(i, input)| match input {
                            Input::Zeros => served.unrolled.sources[n].zero_param(i),
                            Input::External(name) => {
                                inputs.get(name).expect("inputs cover every external")
                            }
                            Input::Node { node, param } => bare[*node][*param].clone(),
                        })
                        .collect();
                    let error = checks.step(&what, oracle_error(&node.kernel, &given, &bare[n]));
                    checks.expect(error.is_some_and(|e| e < TOLERANCE), || {
                        format!(
                            "{what}: node {} is {error:?} off the host oracle",
                            node.name
                        )
                    });
                }
            }
        }
        checks
    }
}
