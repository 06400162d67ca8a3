//! Pass-level IR tests mirroring the paper's Fig. 8/9/10: dependence
//! analysis emits the copy-in/copy-out structure, vectorization flattens
//! implicit parallelism into event arrays, and the copy-elimination
//! patterns remove exactly the copies that imply no data movement.

use cypress_core::ir::printer::print_program;
use cypress_core::ir::OpKind;
use cypress_core::kernels::gemm;
use cypress_core::passes::{copyelim, depan, vectorize};
use cypress_sim::MachineConfig;

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
