//! Pass-level IR tests mirroring the paper's Fig. 8/9/10: dependence
//! analysis emits the copy-in/copy-out structure, vectorization flattens
//! implicit parallelism into event arrays, and the copy-elimination
//! patterns remove exactly the copies that imply no data movement.

use cypress_core::ir::printer::print_program;
use cypress_core::ir::{
    Block, EventType, IdxExpr, IrProgram, Op, OpKind, PartDecl, PartKind, TensorRef,
};
use cypress_core::kernels::gemm;
use cypress_core::passes::{copyelim, depan, vectorize};
use cypress_core::{LeafFn, MemLevel, ProcLevel};
use cypress_sim::MachineConfig;
use cypress_tensor::DType;

fn analyzed() -> cypress_core::ir::IrProgram {
    let machine = MachineConfig::test_gpu();
    let (reg, mapping, args) = gemm::build(128, 128, 64, &machine).unwrap();
    depan::analyze(&reg, &mapping, "gemm", &args).unwrap()
}

#[test]
fn depan_emits_copy_in_copy_out_structure() {
    let prog = analyzed();
    let text = print_program(&prog);
    // Fig. 8b structure: pfor over blocks, for over K, copies everywhere.
    assert!(text.contains("pfor i0 in [0, 2) @BLOCK"), "{text}");
    assert!(text.contains("@WARPGROUP"), "{text}");
    assert!(text.contains("@THREAD"), "{text}");
    assert!(text.contains("for "), "{text}");
    // The copy-in/copy-out discipline introduces many copies before
    // elimination.
    assert!(prog.copy_count() > 15, "only {} copies", prog.copy_count());
    // None-memory tensors exist at this stage (the accumulator).
    assert!(prog
        .tensors
        .iter()
        .any(|t| t.mem == cypress_core::MemLevel::None && t.name.contains("Cacc")));
}

#[test]
fn vectorization_flattens_intra_block_parallelism() {
    let mut prog = analyzed();
    vectorize::run(&mut prog);
    vectorize::normalize_ranks(&mut prog);
    let text = print_program(&prog);
    // No WARPGROUP/WARP/THREAD pfors survive; BLOCK pfors remain.
    assert!(!text.contains("@WARPGROUP,"), "{text}");
    assert!(text.contains("@BLOCK"), "{text}");
    // Event arrays carry the flattened dimensions (Fig. 9c).
    assert!(text.contains("(4, WARP)"), "{text}");
    assert!(text.contains("(32, THREAD)"), "{text}");
    // Flattened loop variables became processor indices.
    assert!(!prog.proc_vars.is_empty());
}

#[test]
fn copy_elimination_leaves_only_real_data_movement() {
    let mut prog = analyzed();
    vectorize::run(&mut prog);
    vectorize::normalize_ranks(&mut prog);
    let before = prog.copy_count();
    let stats = copyelim::run(&mut prog).unwrap();
    let after = prog.copy_count();
    assert!(stats.removed_copies > 0);
    assert!(after < before / 2, "{before} -> {after}");
    // The surviving copies are exactly the memory-level crossings:
    // global->shared loads (A and B) and shared->global store (C).
    let mut crossings = 0;
    fn count(prog: &cypress_core::ir::IrProgram, b: &cypress_core::ir::Block, n: &mut usize) {
        for op in &b.ops {
            match &op.kind {
                OpKind::Copy { src, dst } => {
                    let sm = prog.tensors[src.tensor].mem;
                    let dm = prog.tensors[dst.tensor].mem;
                    assert_ne!(sm, dm, "same-memory copy survived: {sm} -> {dm}");
                    *n += 1;
                }
                OpKind::For { body, .. } | OpKind::Pfor { body, .. } => count(prog, body, n),
                _ => {}
            }
        }
    }
    count(&prog, &prog.body, &mut crossings);
    assert_eq!(crossings, 3, "expected loads of A and B plus the C store");
}

#[test]
fn bad_none_mapping_is_rejected_not_miscompiled() {
    // §3.3: mapping decisions affect performance, never correctness. A
    // mapping that puts the Tensor Core operands in the `none` memory
    // cannot be realized (wgmma needs shared-memory operands); the
    // compiler must reject it rather than emit a wrong kernel.
    use cypress_core::compile::{CompilerOptions, CypressCompiler};
    let machine = MachineConfig::test_gpu();
    let (reg, mapping, args) = gemm::build(128, 128, 64, &machine).unwrap();
    let mut instances: Vec<_> = mapping.iter().cloned().collect();
    for i in &mut instances {
        // Deny shared memory to the whole gemm chain: the Tensor Core
        // operands then have no legal home.
        if i.instance.starts_with("gemm_")
            && i.instance != "gemm_host"
            && i.instance != "gemm_block"
        {
            i.mems = vec![
                cypress_core::MemLevel::None,
                cypress_core::MemLevel::None,
                cypress_core::MemLevel::None,
            ];
        }
    }
    let broken = cypress_core::MappingSpec::new(instances).unwrap();
    let compiler = CypressCompiler::new(CompilerOptions {
        machine,
        ..Default::default()
    });
    let err = compiler.compile(&reg, &broken, "gemm", &args);
    assert!(err.is_err(), "broken mapping must be rejected, got {err:?}");
}

#[test]
fn none_memory_survivor_is_reported() {
    // A `none`-mapped tensor that survives every elimination pattern is
    // reported with the §3.3 diagnostic. Construct two synthetically: leaf
    // calls write and read them directly, so no copy exists to forward or
    // identify them through. The diagnostic names the survivor with the
    // lowest tensor id, whatever order the program uses them in.
    use cypress_core::front::machine::MemLevel;
    use cypress_core::ir::{EventRef, EventType, IrProgram, Op, OpKind, TensorRef};
    use cypress_core::{CompileError, LeafFn};
    use cypress_tensor::DType;
    let mut prog = IrProgram::new("synthetic");
    let mut tensor = |name: &str, mem, param| {
        TensorRef::whole(prog.add_tensor(name, 8, 8, DType::F16, mem, param))
    };
    let src = tensor("src", MemLevel::Global, Some(0));
    let ghost = tensor("ghost", MemLevel::None, None);
    let wraith = tensor("wraith", MemLevel::None, None);
    let dst = tensor("dst", MemLevel::Global, Some(1));
    let mut pre = Vec::new();
    let mut exp = |from: &TensorRef, to: &TensorRef| {
        let result = prog.fresh_event();
        let op = Op {
            result,
            ty: EventType::Unit,
            pre: std::mem::replace(&mut pre, vec![EventRef::unit(result)]),
            kind: OpKind::Call {
                f: LeafFn::Exp,
                args: vec![from.clone(), to.clone()],
            },
        };
        prog.body.ops.push(op);
    };
    // The higher id is touched first.
    exp(&src, &wraith);
    exp(&wraith, &ghost);
    exp(&ghost, &dst);
    for _ in 0..32 {
        let err = copyelim::run(&mut prog.clone());
        assert_eq!(
            err,
            Err(CompileError::NoneMemoryMaterialized {
                tensor: "ghost".into()
            })
        );
    }
}

/// A hand-built program for `warpspec::lower`: 8×8 F16 tensors, unit
/// events without preconditions.
struct Hand(IrProgram);

impl Hand {
    fn tensor(&mut self, name: &str, mem: MemLevel, param: Option<usize>) -> TensorRef {
        TensorRef::whole(self.0.add_tensor(name, 8, 8, DType::F16, mem, param))
    }

    /// A one-entry piece of `t` through a new partition of `kind`.
    fn piece(&mut self, t: &TensorRef, kind: PartKind, idx: Vec<IdxExpr>) -> TensorRef {
        let id = self.0.parts.len();
        self.0.parts.push(PartDecl {
            id,
            name: format!("p{id}"),
            parent: t.tensor,
            kind,
        });
        TensorRef::piece(t.tensor, id, idx)
    }

    fn op(&mut self, kind: OpKind) -> Op {
        Op {
            result: self.0.fresh_event(),
            ty: EventType::Unit,
            pre: Vec::new(),
            kind,
        }
    }

    fn copy(&mut self, src: &TensorRef, dst: &TensorRef) -> Op {
        let (src, dst) = (src.clone(), dst.clone());
        self.op(OpKind::Copy { src, dst })
    }

    fn exp(&mut self, src: &TensorRef, dst: &TensorRef) -> Op {
        let args = vec![src.clone(), dst.clone()];
        self.op(OpKind::Call {
            f: LeafFn::Exp,
            args,
        })
    }

    fn pfor(&mut self, proc: ProcLevel, ops: Vec<Op>) -> Op {
        let var = self.0.fresh_var();
        let body = Block { ops };
        self.op(OpKind::Pfor {
            var,
            extent: 1,
            proc,
            body,
        })
    }

    /// One BLOCK-level `pfor` around `ops`: the kernel grid.
    fn grid(&mut self, ops: Vec<Op>) -> Vec<Op> {
        vec![self.pfor(ProcLevel::Block, ops)]
    }
}

const BLOCKS: PartKind = PartKind::Blocks {
    tile_rows: 4,
    tile_cols: 4,
    grid_rows: 2,
    grid_cols: 2,
};

/// One program per `CompileError::Unsupported` branch of `warpspec` that
/// a hand-built `IrProgram` reaches, with the text each must report. The
/// body builder gets the two parameters `x` and `y`.
type UnsupportedCase = (&'static str, fn(&mut Hand, TensorRef, TensorRef) -> Vec<Op>);

const UNSUPPORTED: [UnsupportedCase; 10] = [
    ("more than 3 grid dimensions", |h, x, y| {
        let mut ops = vec![h.exp(&x, &y)];
        for _ in 0..4 {
            ops = h.grid(ops);
        }
        ops
    }),
    (
        "must launch a parallel grid of BLOCK-level tasks",
        |h, x, y| vec![h.exp(&x, &y)],
    ),
    ("non-parameter global tensor `g`", |h, x, _| {
        let g = h.tensor("g", MemLevel::Global, None);
        let ops = vec![h.exp(&x, &g)];
        h.grid(ops)
    }),
    ("a DMA load follows a DMA store", |h, x, y| {
        let s = h.tensor("s", MemLevel::Shared, None);
        let t = h.tensor("t", MemLevel::Shared, None);
        let ops = vec![
            h.copy(&x, &s),
            h.exp(&s, &s),
            h.copy(&s, &y),
            h.copy(&y, &t),
            h.exp(&t, &t),
            h.copy(&t, &x),
        ];
        h.grid(ops)
    }),
    (
        "blocks partitions are indexed with 2 coordinates",
        |h, x, y| {
            let piece = h.piece(&x, BLOCKS, vec![IdxExpr::constant(0)]);
            let ops = vec![h.exp(&piece, &y)];
            h.grid(ops)
        },
    ),
    ("mma partitions above the warp level", |h, x, y| {
        let mma = PartKind::Mma {
            pieces: 1,
            piece_rows: 8,
            piece_cols: 8,
            replicated: false,
            level: ProcLevel::Warpgroup,
        };
        let piece = h.piece(&x, mma, vec![IdxExpr::constant(0)]);
        let ops = vec![h.exp(&piece, &y)];
        h.grid(ops)
    }),
    ("pipelined buffer used outside its loop", |h, x, y| {
        let s = h.tensor("s", MemLevel::Shared, None);
        let var = h.0.fresh_var();
        let body = Block {
            ops: vec![h.copy(&x, &s)],
        };
        let ops = vec![
            h.op(OpKind::For {
                var,
                extent: 2,
                body,
            }),
            h.exp(&s, &y),
        ];
        h.grid(ops)
    }),
    (
        "WARP-level index survives fragment re-aggregation",
        |h, x, y| {
            let w = h.0.fresh_var();
            h.0.proc_vars.insert(w, ProcLevel::Warp);
            let idx = vec![IdxExpr::var(w), IdxExpr::constant(0)];
            let piece = h.piece(&x, BLOCKS, idx);
            let ops = vec![h.exp(&piece, &y)];
            h.grid(ops)
        },
    ),
    ("unmapped loop variable", |h, x, y| {
        let v = h.0.fresh_var();
        let idx = vec![IdxExpr::var(v), IdxExpr::constant(0)];
        let piece = h.piece(&x, BLOCKS, idx);
        let ops = vec![h.exp(&piece, &y)];
        h.grid(ops)
    }),
    ("nested non-BLOCK pfor survived vectorization", |h, x, y| {
        let ops = vec![h.exp(&x, &y)];
        let ops = vec![h.pfor(ProcLevel::Warpgroup, ops)];
        h.grid(ops)
    }),
];

#[test]
fn unsupported_program_shapes_are_typed_errors_in_both_schedules() {
    // A program shape warp specialization cannot lower is rejected the
    // same way whether or not the mapping asks for a DMA warp: §3.3, a
    // mapping changes performance, never what compiles.
    use cypress_core::passes::warpspec::{self, SchedOptions};
    use cypress_core::CompileError;
    for (expected, body) in UNSUPPORTED {
        let mut h = Hand(IrProgram::new("hand"));
        let x = h.tensor("x", MemLevel::Global, Some(0));
        let y = h.tensor("y", MemLevel::Global, Some(1));
        h.0.body.ops = body(&mut h, x, y);
        for warpspecialize in [true, false] {
            let opts = SchedOptions {
                warpspecialize,
                pipeline: 2,
            };
            match warpspec::lower(&h.0, opts) {
                Err(CompileError::Unsupported(msg)) => assert!(
                    msg.contains(expected),
                    "warpspecialize={warpspecialize}: expected `{expected}`, got `{msg}`"
                ),
                other => panic!("warpspecialize={warpspecialize}, `{expected}`: got {other:?}"),
            }
        }
    }
}

#[test]
fn scalar_task_arguments_are_unsupported() {
    use cypress_core::{
        ArgExpr, CompileError, EntryArg, LeafFn, MappingSpec, ParamSig, Privilege, SExpr, Stmt,
        TaskMapping, TaskRegistry, TaskVariant, VariantKind,
    };
    use cypress_tensor::DType;
    let x = |privilege| ParamSig {
        name: "X".into(),
        dtype: DType::F16,
        privilege,
    };
    let mut reg = TaskRegistry::new();
    reg.register(TaskVariant {
        task: "top".into(),
        name: "top_host".into(),
        kind: VariantKind::Inner,
        params: vec![x(Privilege::ReadWrite)],
        body: vec![Stmt::Launch {
            task: "work".into(),
            args: vec![ArgExpr::Scalar(SExpr::lit(1))],
        }],
    })
    .unwrap();
    reg.register(TaskVariant {
        task: "work".into(),
        name: "work_leaf".into(),
        kind: VariantKind::Leaf,
        params: vec![x(Privilege::Write)],
        body: vec![Stmt::CallExternal {
            f: LeafFn::Fill(0.0),
            args: vec![ArgExpr::tensor("X")],
        }],
    })
    .unwrap();
    let top = TaskMapping::new(
        "top_host",
        "top_host",
        ProcLevel::Host,
        vec![MemLevel::Global],
    );
    let leaf = TaskMapping::new(
        "work_leaf",
        "work_leaf",
        ProcLevel::Block,
        vec![MemLevel::Global],
    );
    let mapping = MappingSpec::new(vec![top.calls(&["work_leaf"]).entrypoint(), leaf]).unwrap();
    let args = [EntryArg {
        name: "X".into(),
        rows: 8,
        cols: 8,
        dtype: DType::F16,
    }];
    assert_eq!(
        depan::analyze(&reg, &mapping, "scalar", &args),
        Err(CompileError::Unsupported("scalar task arguments".into()))
    );
}
