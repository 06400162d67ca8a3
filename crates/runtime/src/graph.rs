//! DAG programs of compiled kernels with explicit tensor-buffer edges.
//!
//! A [`TaskGraph`] is a list of nodes, each holding a [`Program`] and one
//! [`Binding`] per entry parameter. A binding names where the parameter's
//! buffer comes from: an external tensor supplied at launch, the buffer of
//! an earlier node's parameter (a tensor-buffer *edge*), or a fresh zeroed
//! buffer from the session's pool. Because a binding can only reference a
//! node that already exists, graphs are acyclic by construction and
//! insertion order is a topological schedule.

use crate::error::RuntimeError;
use crate::program::Program;

/// Handle to a node in a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's position in insertion order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Where one entry parameter's buffer comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// Supplied by the caller at launch, keyed by name.
    External(String),
    /// The buffer of `param` of an earlier node — a tensor-buffer edge.
    Output {
        /// Producer node.
        node: NodeId,
        /// Producer parameter index (declaration order).
        param: usize,
    },
    /// A zero-initialized buffer leased from the session's pool (the
    /// typical binding for a node's output parameters).
    Zeros,
}

impl Binding {
    /// Shorthand for [`Binding::External`].
    #[must_use]
    pub fn external(name: &str) -> Self {
        Binding::External(name.to_string())
    }

    /// Shorthand for [`Binding::Output`].
    #[must_use]
    pub fn output(node: NodeId, param: usize) -> Self {
        Binding::Output { node, param }
    }
}

/// One kernel launch in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Display name (unique within the graph).
    pub name: String,
    /// The program this node launches.
    pub program: Program,
    /// One binding per entry parameter, in declaration order.
    pub bindings: Vec<Binding>,
    /// Keep this node's buffers in the launch result even if consumed
    /// downstream (sinks are always kept).
    pub retain: bool,
}

/// A DAG of kernel launches connected by tensor-buffer edges.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
}

impl TaskGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Add a node launching `program` with `bindings` (one per entry
    /// parameter, declaration order). Returns the node's handle.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if the name repeats, the binding count
    /// doesn't match the program's parameter count, an `Output` binding
    /// references a missing node/parameter, or an edge connects
    /// parameters of different shapes.
    pub fn add_node(
        &mut self,
        name: &str,
        program: Program,
        bindings: Vec<Binding>,
    ) -> Result<NodeId, RuntimeError> {
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(RuntimeError::DuplicateNode {
                name: name.to_string(),
            });
        }
        if bindings.len() != program.args.len() {
            return Err(RuntimeError::ArityMismatch {
                node: name.to_string(),
                expected: program.args.len(),
                actual: bindings.len(),
            });
        }
        for (i, b) in bindings.iter().enumerate() {
            if let Binding::Output { node, param } = b {
                let producer = self
                    .nodes
                    .get(node.0)
                    .ok_or(RuntimeError::UnknownNode { id: node.0 })?;
                let src = producer.program.args.get(*param).ok_or_else(|| {
                    RuntimeError::BadOutputIndex {
                        node: producer.name.clone(),
                        param: *param,
                    }
                })?;
                let dst = &program.args[i];
                if (src.rows, src.cols) != (dst.rows, dst.cols) {
                    return Err(RuntimeError::ShapeMismatch {
                        node: name.to_string(),
                        param: dst.name.clone(),
                        expected: (dst.rows, dst.cols),
                        actual: (src.rows, src.cols),
                    });
                }
                if src.dtype != dst.dtype {
                    return Err(RuntimeError::DtypeMismatch {
                        node: name.to_string(),
                        param: dst.name.clone(),
                        expected: dst.dtype,
                        actual: src.dtype,
                    });
                }
            }
        }
        self.nodes.push(Node {
            name: name.to_string(),
            program,
            bindings,
            retain: false,
        });
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Keep `id`'s buffers in the launch result even when consumed
    /// downstream.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownNode`] for a stale handle.
    pub fn retain(&mut self, id: NodeId) -> Result<(), RuntimeError> {
        let n = self
            .nodes
            .get_mut(id.0)
            .ok_or(RuntimeError::UnknownNode { id: id.0 })?;
        n.retain = true;
        Ok(())
    }

    /// All nodes, in insertion order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The direct producers of `id` (deduplicated, ascending).
    #[must_use]
    pub(crate) fn dependencies(&self, id: NodeId) -> Vec<NodeId> {
        let mut deps: Vec<usize> = self.nodes[id.0]
            .bindings
            .iter()
            .filter_map(|b| match b {
                Binding::Output { node, .. } => Some(node.0),
                _ => None,
            })
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps.into_iter().map(NodeId).collect()
    }

    /// The launch order: insertion order. An `Output` binding may only
    /// name a node already in the graph, so every node comes after its
    /// producers and insertion order is already topological.
    #[must_use]
    pub fn schedule(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).map(NodeId).collect()
    }

    /// Per node: whether its buffers outlive a launch — it is retained,
    /// or nothing consumes it (a sink).
    #[must_use]
    pub(crate) fn kept(&self) -> Vec<bool> {
        self.nodes
            .iter()
            .zip(self.consumer_counts())
            .map(|(n, counts)| n.retain || counts.iter().all(|&c| c == 0))
            .collect()
    }

    /// How many edges consume each `(node, param)` buffer — what the
    /// executor uses to recycle buffers into the pool after the last
    /// consumer has run.
    #[must_use]
    pub fn consumer_counts(&self) -> Vec<Vec<usize>> {
        let mut counts: Vec<Vec<usize>> = self
            .nodes
            .iter()
            .map(|n| vec![0; n.program.args.len()])
            .collect();
        for node in &self.nodes {
            for b in &node.bindings {
                if let Binding::Output { node: src, param } = b {
                    counts[src.0][*param] += 1;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_core::kernels::gemm;
    use cypress_sim::MachineConfig;

    fn gemm_program(m: usize, n: usize, k: usize) -> Program {
        Program::from_parts(
            gemm::build(m, n, k, &MachineConfig::test_gpu()).unwrap(),
            "gemm",
        )
    }

    #[test]
    fn edges_validate_shapes() {
        let mut g = TaskGraph::new();
        let a = g
            .add_node(
                "first",
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::external("A"),
                    Binding::external("B"),
                ],
            )
            .unwrap();
        // 64x64 output feeds a 64x64 input: fine.
        g.add_node(
            "second",
            gemm_program(64, 64, 64),
            vec![
                Binding::Zeros,
                Binding::output(a, 0),
                Binding::external("B2"),
            ],
        )
        .unwrap();
        // 64x64 output feeding a 128x64 input: rejected.
        let err = g
            .add_node(
                "bad",
                gemm_program(128, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::output(a, 0),
                    Binding::external("B3"),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn edges_validate_dtypes() {
        use cypress_tensor::DType;
        let mut g = TaskGraph::new();
        let (registry, mapping, mut args) =
            gemm::build(64, 64, 64, &MachineConfig::test_gpu()).unwrap();
        args[0].dtype = DType::F32;
        let f32_producer = Program::new(registry, mapping, "gemm", args);
        let a = g
            .add_node(
                "first",
                f32_producer,
                vec![
                    Binding::Zeros,
                    Binding::external("A"),
                    Binding::external("B"),
                ],
            )
            .unwrap();
        // F32 output feeding an F16 input slot: rejected.
        let err = g
            .add_node(
                "second",
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::output(a, 0),
                    Binding::external("B2"),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DtypeMismatch { .. }), "{err}");
    }

    #[test]
    fn schedule_is_topological_and_deterministic() {
        let mut g = TaskGraph::new();
        let a = g
            .add_node(
                "a",
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::external("A"),
                    Binding::external("B"),
                ],
            )
            .unwrap();
        let b = g
            .add_node(
                "b",
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::external("A"),
                    Binding::external("B"),
                ],
            )
            .unwrap();
        let c = g
            .add_node(
                "c",
                gemm_program(64, 64, 64),
                vec![Binding::Zeros, Binding::output(a, 0), Binding::output(b, 0)],
            )
            .unwrap();
        assert_eq!(g.schedule(), vec![a, b, c]);
        assert_eq!(g.dependencies(c), vec![a, b]);
        assert_eq!(g.consumer_counts()[a.index()][0], 1);
    }

    #[test]
    fn an_edge_from_a_node_not_yet_added_is_rejected() {
        let operands = || {
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ]
        };
        let mut larger = TaskGraph::new();
        larger
            .add_node("a", gemm_program(64, 64, 64), operands())
            .unwrap();
        let foreign = larger
            .add_node("b", gemm_program(64, 64, 64), operands())
            .unwrap();
        let mut g = TaskGraph::new();
        g.add_node("a", gemm_program(64, 64, 64), operands())
            .unwrap();
        let err = g
            .add_node(
                "c",
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::output(foreign, 0),
                    Binding::external("B"),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownNode { id: 1 }), "{err}");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn arity_and_duplicates_are_rejected() {
        let mut g = TaskGraph::new();
        let err = g
            .add_node("x", gemm_program(64, 64, 64), vec![Binding::Zeros])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ArityMismatch { .. }));
        g.add_node(
            "x",
            gemm_program(64, 64, 64),
            vec![
                Binding::Zeros,
                Binding::external("A"),
                Binding::external("B"),
            ],
        )
        .unwrap();
        let err = g
            .add_node(
                "x",
                gemm_program(64, 64, 64),
                vec![
                    Binding::Zeros,
                    Binding::external("A"),
                    Binding::external("B"),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DuplicateNode { .. }));
    }
}
