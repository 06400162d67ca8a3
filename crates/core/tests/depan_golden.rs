//! Golden digests of the IR dependence analysis emits.
//!
//! `tests/golden/depan.digests` pins — for every kernel family × every
//! `MappingSpace::candidates` point at two shapes — an FNV-64 of
//! `print_program(depan::analyze(..))` continued with the `Debug`
//! rendering of the tensor and partition declarations (their names are
//! not in the printed form) and the event/variable counters, followed by
//! a set of rejected programs compared as rendered errors. The file was
//! generated by the analyzer this suite guards against (the parent of
//! the clone-free rewrite), so a change to op order, event ids, names,
//! `pre` lists or an error message shows up as a diff here, naming the
//! case.
//!
//! After an *intentional* IR change, regenerate the file with
//!
//! ```sh
//! cargo test --release -p cypress-core --test depan_golden -- --ignored regenerate
//! ```
//!
//! and review the diff like any other golden file.

use cypress_core::fingerprint::Fnv64;
use cypress_core::ir::printer::print_program;
use cypress_core::ir::IrProgram;
use cypress_core::kernels::gemm::{GemmConfig, GemmSpace};
use cypress_core::passes::depan;
use cypress_core::{
    ArgExpr, CompileError, EntryArg, LeafFn, MappingConfig, MappingSpace, MappingSpec, MemLevel,
    ParamSig, Privilege, ProcLevel, SExpr, Shape, Stmt, TaskMapping, TaskRegistry, TaskVariant,
    VariantKind,
};
use cypress_sim::MachineConfig;
use cypress_tensor::partition::{MmaLevel, MmaOperand};
use cypress_tensor::DType;
use std::fmt::Write as _;

#[path = "golden/shared.rs"]
mod shared;
use shared::{assert_matches_golden, families};

const GOLDEN: &str = include_str!("golden/depan.digests");

/// Digest of everything `analyze` decides, or the error it raised.
fn render(result: &Result<IrProgram, CompileError>) -> String {
    match result {
        Ok(prog) => {
            let mut h = Fnv64::new();
            h.write_str(&print_program(prog));
            h.write_args(format_args!(
                "{:?} {:?} {} {}",
                prog.tensors, prog.parts, prog.next_event, prog.next_var
            ));
            format!(
                "{:016x} ops={} tensors={} parts={}",
                h.finish(),
                prog.op_count(),
                prog.tensors.len(),
                prog.parts.len()
            )
        }
        Err(e) => format!("error: {e} / {e:?}"),
    }
}

fn param(name: &str, privilege: Privilege) -> ParamSig {
    ParamSig {
        name: name.into(),
        dtype: DType::F16,
        privilege,
    }
}

fn arg(name: &str, rows: usize, cols: usize) -> EntryArg {
    EntryArg {
        name: name.into(),
        rows,
        cols,
        dtype: DType::F16,
    }
}

fn v(name: &str) -> SExpr {
    SExpr::var(name)
}

fn launch(task: &str, args: Vec<ArgExpr>) -> Stmt {
    Stmt::Launch {
        task: task.into(),
        args,
    }
}

fn prange(vars: &[&str], extents: Vec<SExpr>, body: Vec<Stmt>) -> Stmt {
    Stmt::PRange {
        vars: vars.iter().map(|s| (*s).to_string()).collect(),
        extents,
        body,
    }
}

fn blocks(name: &str, tensor: &str, tile_rows: SExpr, tile_cols: SExpr) -> Stmt {
    Stmt::PartitionBlocks {
        name: name.into(),
        tensor: tensor.into(),
        tile_rows,
        tile_cols,
    }
}

/// A two-level program: the `top` task (one inner variant over `C` and
/// `A`, body given) dispatching to a `work` task whose single leaf
/// variant has `leaf_params` and `leaf_body`. `tunables` bind on the
/// entry instance.
struct Tiny {
    top_privileges: [Privilege; 2],
    top_body: Vec<Stmt>,
    leaf_params: Vec<ParamSig>,
    leaf_body: Vec<Stmt>,
    tunables: Vec<(&'static str, i64)>,
    entry_args: Vec<EntryArg>,
}

impl Default for Tiny {
    fn default() -> Self {
        Tiny {
            top_privileges: [Privilege::ReadWrite, Privilege::Read],
            top_body: Vec::new(),
            leaf_params: vec![param("X", Privilege::Write)],
            leaf_body: vec![Stmt::CallExternal {
                f: LeafFn::Fill(0.0),
                args: vec![ArgExpr::tensor("X")],
            }],
            tunables: vec![("T", 4)],
            entry_args: vec![arg("C", 64, 64), arg("A", 64, 64)],
        }
    }
}

impl Tiny {
    fn analyze(self) -> Result<IrProgram, CompileError> {
        let mut reg = TaskRegistry::new();
        reg.register(TaskVariant {
            task: "top".into(),
            name: "top_host".into(),
            kind: VariantKind::Inner,
            params: vec![
                param("C", self.top_privileges[0]),
                param("A", self.top_privileges[1]),
            ],
            body: self.top_body,
        })?;
        let leaf_mems = vec![MemLevel::Global; self.leaf_params.len()];
        reg.register(TaskVariant {
            task: "work".into(),
            name: "work_leaf".into(),
            kind: VariantKind::Leaf,
            params: self.leaf_params,
            body: self.leaf_body,
        })?;
        let mut top = TaskMapping::new(
            "top_host",
            "top_host",
            ProcLevel::Host,
            vec![MemLevel::Global; 2],
        )
        .calls(&["work_leaf"])
        .entrypoint();
        for (name, value) in self.tunables {
            top = top.tunable(name, value);
        }
        let mapping = MappingSpec::new(vec![
            top,
            TaskMapping::new("work_leaf", "work_leaf", ProcLevel::Block, leaf_mems),
        ])?;
        depan::analyze(&reg, &mapping, "tiny", &self.entry_args)
    }
}

/// `Cp` = `C` in `T` row bands; the tunable `T` first.
fn banded() -> Vec<Stmt> {
    vec![
        Stmt::Tunable { name: "T".into() },
        blocks(
            "Cp",
            "C",
            SExpr::shape("C", 0) / v("T"),
            SExpr::shape("C", 1),
        ),
    ]
}

fn with(mut head: Vec<Stmt>, tail: Vec<Stmt>) -> Vec<Stmt> {
    head.extend(tail);
    head
}

fn band(i: &str) -> ArgExpr {
    ArgExpr::piece("Cp", vec![v(i), SExpr::lit(0)])
}

/// The hand-built programs: one that analyzes, then one per rejection.
fn tiny_cases() -> Vec<(&'static str, Result<IrProgram, CompileError>)> {
    let copy_leaf = || {
        (
            vec![param("S", Privilege::Read), param("D", Privilege::Write)],
            vec![Stmt::CallExternal {
                f: LeafFn::CopyExt,
                args: vec![ArgExpr::tensor("S"), ArgExpr::tensor("D")],
            }],
        )
    };
    let mut cases = Vec::new();
    let mut case = |name, tiny: Tiny| cases.push((name, tiny.analyze()));

    case(
        "ok_banded_fill",
        Tiny {
            top_body: with(
                banded(),
                vec![prange(
                    &["i"],
                    vec![v("T")],
                    vec![launch("work", vec![band("i")])],
                )],
            ),
            ..Tiny::default()
        },
    );
    // A scratch tensor refilled on every sequential step and fanned out
    // by a two-variable prange: nested scopes, dependencies lifted out
    // of two loop levels, loop-carried state.
    let (leaf_params, leaf_body) = copy_leaf();
    let tile = |t: &str| SExpr::shape(t, 0) / v("T");
    case(
        "ok_nested_scratch",
        Tiny {
            top_body: vec![
                Stmt::Tunable { name: "T".into() },
                blocks("Ap", "A", tile("A"), SExpr::lit(32)),
                blocks("Cq", "C", tile("C"), SExpr::lit(32)),
                Stmt::MakeTensor {
                    name: "S".into(),
                    rows: tile("C"),
                    cols: SExpr::lit(32),
                    dtype: DType::F16,
                },
                Stmt::SRange {
                    var: "k".into(),
                    extent: SExpr::lit(2),
                    body: vec![
                        launch(
                            "work",
                            vec![
                                ArgExpr::piece("Ap", vec![SExpr::lit(0), v("k")]),
                                ArgExpr::tensor("S"),
                            ],
                        ),
                        prange(
                            &["i", "j"],
                            vec![v("T"), SExpr::lit(2)],
                            vec![launch(
                                "work",
                                vec![
                                    ArgExpr::tensor("S"),
                                    ArgExpr::piece("Cq", vec![v("i"), v("j")]),
                                ],
                            )],
                        ),
                    ],
                },
                launch(
                    "work",
                    vec![
                        ArgExpr::piece("Cq", vec![SExpr::lit(1), SExpr::lit(1)]),
                        ArgExpr::tensor("S"),
                    ],
                ),
            ],
            leaf_params,
            leaf_body,
            ..Tiny::default()
        },
    );
    case(
        "aliasing_whole_tensor",
        Tiny {
            top_body: with(
                banded(),
                vec![prange(
                    &["i"],
                    vec![v("T")],
                    vec![launch("work", vec![ArgExpr::tensor("C")])],
                )],
            ),
            ..Tiny::default()
        },
    );
    case(
        "aliasing_inner_variable_unused",
        Tiny {
            top_body: with(
                banded(),
                vec![prange(
                    &["i", "j"],
                    vec![v("T"), SExpr::lit(2)],
                    vec![launch("work", vec![band("i")])],
                )],
            ),
            ..Tiny::default()
        },
    );
    // A tensor made inside a loop that has closed is not private to a
    // later prange's iterations.
    case(
        "aliasing_made_in_closed_loop",
        Tiny {
            top_body: with(
                banded(),
                vec![
                    Stmt::SRange {
                        var: "k".into(),
                        extent: SExpr::lit(2),
                        body: vec![
                            Stmt::MakeTensor {
                                name: "S".into(),
                                rows: SExpr::lit(16),
                                cols: SExpr::lit(16),
                                dtype: DType::F16,
                            },
                            launch("work", vec![ArgExpr::tensor("S")]),
                        ],
                    },
                    prange(
                        &["i"],
                        vec![v("T")],
                        vec![launch("work", vec![ArgExpr::tensor("S")])],
                    ),
                ],
            ),
            ..Tiny::default()
        },
    );
    case(
        "privilege_launch_exceeds_caller",
        Tiny {
            top_body: vec![launch("work", vec![ArgExpr::tensor("A")])],
            ..Tiny::default()
        },
    );
    case(
        "privilege_leaf_writes_read_only",
        Tiny {
            top_body: vec![launch("work", vec![ArgExpr::tensor("A")])],
            leaf_params: vec![param("X", Privilege::Read)],
            ..Tiny::default()
        },
    );
    case(
        "privilege_leaf_reads_write_only",
        Tiny {
            top_body: vec![launch(
                "work",
                vec![ArgExpr::tensor("C"), ArgExpr::tensor("C")],
            )],
            leaf_params: vec![param("S", Privilege::Write), param("D", Privilege::Write)],
            leaf_body: copy_leaf().1,
            ..Tiny::default()
        },
    );
    case(
        "arity_entry",
        Tiny {
            entry_args: vec![arg("C", 64, 64)],
            ..Tiny::default()
        },
    );
    case(
        "arity_launch",
        Tiny {
            top_body: vec![launch(
                "work",
                vec![ArgExpr::tensor("C"), ArgExpr::tensor("A")],
            )],
            ..Tiny::default()
        },
    );
    case(
        "arity_leaf",
        Tiny {
            top_body: vec![launch("work", vec![ArgExpr::tensor("C")])],
            leaf_body: vec![Stmt::CallExternal {
                f: LeafFn::Fill(0.0),
                args: vec![ArgExpr::tensor("X"), ArgExpr::tensor("X")],
            }],
            ..Tiny::default()
        },
    );
    case(
        "leaf_without_arguments",
        Tiny {
            top_body: vec![launch("work", vec![ArgExpr::tensor("C")])],
            leaf_body: vec![Stmt::CallExternal {
                f: LeafFn::Fill(0.0),
                args: Vec::new(),
            }],
            ..Tiny::default()
        },
    );
    case(
        "unbound_tunable",
        Tiny {
            top_body: banded(),
            tunables: Vec::new(),
            ..Tiny::default()
        },
    );
    case(
        "partition_tile_does_not_divide",
        Tiny {
            top_body: vec![blocks("Cp", "C", SExpr::lit(48), SExpr::lit(64))],
            ..Tiny::default()
        },
    );
    case(
        "partition_bad_tile",
        Tiny {
            top_body: vec![blocks("Cp", "C", SExpr::lit(0), SExpr::lit(64))],
            ..Tiny::default()
        },
    );
    for (name, rows, cols, level, operand) in [
        (
            "partition_mma_warp_rows",
            48,
            64,
            MmaLevel::Warp,
            MmaOperand::C,
        ),
        (
            "partition_mma_thread_rows",
            64,
            64,
            MmaLevel::Thread,
            MmaOperand::A,
        ),
        (
            "partition_mma_thread_cols",
            16,
            12,
            MmaLevel::Thread,
            MmaOperand::C,
        ),
        (
            "partition_mma_b_rows",
            24,
            64,
            MmaLevel::Warp,
            MmaOperand::B,
        ),
    ] {
        case(
            name,
            Tiny {
                top_body: vec![Stmt::PartitionMma {
                    name: "Cp".into(),
                    tensor: "C".into(),
                    level,
                    operand,
                }],
                entry_args: vec![arg("C", rows, cols), arg("A", 64, 64)],
                ..Tiny::default()
            },
        );
    }
    case(
        "no_dispatch",
        Tiny {
            top_body: vec![launch("other", vec![ArgExpr::tensor("C")])],
            ..Tiny::default()
        },
    );
    case(
        "unbound_tensor",
        Tiny {
            top_body: vec![launch("work", vec![ArgExpr::tensor("Z")])],
            ..Tiny::default()
        },
    );
    case(
        "unbound_partition",
        Tiny {
            top_body: vec![launch("work", vec![band("i")])],
            ..Tiny::default()
        },
    );
    case(
        "unbound_variable",
        Tiny {
            top_body: with(banded(), vec![launch("work", vec![band("i")])]),
            ..Tiny::default()
        },
    );
    case(
        "loop_variable_after_its_loop",
        Tiny {
            top_body: with(
                banded(),
                vec![
                    prange(&["i"], vec![v("T")], vec![launch("work", vec![band("i")])]),
                    launch("work", vec![band("i")]),
                ],
            ),
            ..Tiny::default()
        },
    );
    case(
        "scalar_product_of_loop_variables",
        Tiny {
            top_body: with(
                banded(),
                vec![prange(
                    &["i", "j"],
                    vec![v("T"), SExpr::lit(2)],
                    vec![launch(
                        "work",
                        vec![ArgExpr::piece("Cp", vec![v("i") * v("j"), SExpr::lit(0)])],
                    )],
                )],
            ),
            ..Tiny::default()
        },
    );
    case(
        "prange_without_launch",
        Tiny {
            top_body: with(banded(), vec![prange(&["i"], vec![v("T")], Vec::new())]),
            ..Tiny::default()
        },
    );
    case(
        "prange_arity",
        Tiny {
            top_body: with(
                banded(),
                vec![prange(
                    &["i", "j"],
                    vec![v("T")],
                    vec![launch("work", vec![band("i")])],
                )],
            ),
            ..Tiny::default()
        },
    );
    cases
}

/// GEMM programs the mapping spaces never enumerate, rejected deep in
/// the real task tree.
fn gemm_cases() -> Vec<(&'static str, Result<IrProgram, CompileError>)> {
    let analyze = |m, n, k, cfg: GemmConfig, strip: Option<(&str, &str)>, drop_arg: bool| {
        let (reg, mut mapping, mut args) =
            GemmSpace.build(&Shape::of(&[m, n, k]), &MappingConfig::Gemm(cfg))?;
        if let Some((instance, tunable)) = strip {
            let mut instances: Vec<TaskMapping> = mapping.iter().cloned().collect();
            for i in &mut instances {
                if i.instance == instance {
                    i.tunables.remove(tunable);
                }
            }
            mapping = MappingSpec::new(instances)?;
        }
        if drop_arg {
            args.pop();
        }
        depan::analyze(&reg, &mapping, "gemm", &args)
    };
    let h100 = GemmConfig::h100();
    vec![
        (
            "gemm_unbound_w",
            analyze(512, 512, 512, h100, Some(("gemm_block", "W")), false),
        ),
        (
            "gemm_unbound_wgs_in_store",
            analyze(512, 512, 512, h100, Some(("store_tile", "WGS")), false),
        ),
        ("gemm_entry_arity", analyze(512, 512, 512, h100, None, true)),
        (
            "gemm_block_tile_does_not_divide",
            analyze(500, 512, 512, h100, None, false),
        ),
        (
            "gemm_k_tile_does_not_divide",
            analyze(512, 512, 96, h100, None, false),
        ),
        (
            "gemm_warpgroup_rows_not_64",
            analyze(512, 512, 512, GemmConfig { wgs: 1, ..h100 }, None, false),
        ),
        (
            "gemm_k_tile_not_multiple_of_16",
            analyze(512, 512, 520, GemmConfig { w: 8, ..h100 }, None, false),
        ),
    ]
}

/// One line per family × shape × candidate, then the hand-built cases.
fn digests() -> String {
    let machine = MachineConfig::h100_sxm5();
    let mut out = String::new();
    for (family, space, shapes) in families() {
        for shape in &shapes {
            let candidates = space.candidates(&machine, shape);
            assert!(!candidates.is_empty(), "{family} {shape}: empty space");
            for cfg in candidates {
                let (reg, mapping, args) = space.build(shape, &cfg).expect("candidates build");
                let analyzed = depan::analyze(&reg, &mapping, space.entry(), &args);
                let _ = writeln!(
                    out,
                    "{family} {shape} {} {}",
                    cfg.encode(),
                    render(&analyzed)
                );
            }
        }
    }
    for (name, result) in tiny_cases().into_iter().chain(gemm_cases()) {
        let _ = writeln!(out, "case {name} {}", render(&result));
    }
    out
}

#[test]
fn depan_output_matches_golden_digests() {
    assert_matches_golden(
        GOLDEN,
        &digests(),
        "dependence analysis no longer reproduces tests/golden/depan.digests",
    );
}

/// Rewrites the golden file from the current implementation (see the
/// module header for when that is legitimate).
#[test]
#[ignore = "regenerates tests/golden/depan.digests"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/depan.digests");
    std::fs::write(path, digests()).expect("write golden file");
}
