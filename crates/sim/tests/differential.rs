//! Bitwise differential over randomized kernels: the fast resolved-view
//! apply path (the default), the retained scalar reference interpreter
//! on the same bytecode, and a run of a program lowered ahead of time
//! must produce bit-identical tensors *and* bit-identical simulated
//! cycles on the same kernel — across random shapes, dtypes, sub-slices,
//! pipeline depths, and SIMT op mixes. A timing run bounded at three
//! cutoffs keeps `Simulator::run_timing_bounded`'s contract on the same
//! kernels.
//!
//! Requires the `scalar-oracle` feature: a workspace `cargo test`
//! enables it through the facade crate's dev-dependencies, and
//! `cargo test -p cypress-sim --features scalar-oracle` runs this crate
//! alone with it.
#![cfg(feature = "scalar-oracle")]

use cypress_sim::expr::EvalError;
use cypress_sim::{
    bytecode, BinOp, Cond, Expr, Instr, KernelBuilder, MachineConfig, RedOp, RoleKind, SimError,
    SimtOp, Simulator, Slice, UnOp,
};
use cypress_tensor::{DType, Tensor};
use proptest::prelude::*;

mod common {
    pub mod bounded;
}
use common::bounded::assert_bounded_runs_keep_their_contract;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DTYPES: [DType; 3] = [DType::F16, DType::BF16, DType::F32];

/// What a hazard may touch of the random kernel: the input `pa`
/// (`rows * trips` rows), the output `po` (`rows` per block), the staged
/// buffer `s` (`pipe` stages), the fragment `f`, and the main loop's
/// variable `v` (`trips` iterations), in whose body hazards run.
struct Hazards {
    pa: usize,
    po: usize,
    s: usize,
    f: usize,
    v: usize,
    rows: usize,
    cols: usize,
    trips: i64,
    pipe: usize,
}

impl Hazards {
    /// Copy the `rows x cols` tile of parameter `p` at row `origin` into
    /// the fragment.
    fn load(&self, p: usize, origin: Expr) -> Instr {
        Instr::Simt(SimtOp::Copy {
            src: Slice::param(p).at(origin, 0).extent(self.rows, self.cols),
            dst: Slice::frag(self.f).extent(self.rows, self.cols),
        })
    }

    /// An instruction no kernel may hold, which lowering rejects: a slice
    /// of an undeclared fragment, a copy into the wrong address space, a
    /// wait on an undeclared mbarrier, unequal copy extents, or a nested
    /// loop whose trip count reads `v`.
    fn malformed(&self, rng: &mut StdRng, b: &mut KernelBuilder) -> Instr {
        let tile = |s: Slice| s.extent(self.rows, self.cols);
        match rng.gen_range(0usize..5) {
            0 => Instr::Simt(SimtOp::Copy {
                src: tile(Slice::frag(7)),
                dst: tile(Slice::frag(self.f)),
            }),
            1 => Instr::TmaStore {
                src: tile(Slice::smem(self.s)),
                dst: tile(Slice::smem(self.s)),
            },
            2 => Instr::MbarWait { bar: 7 },
            3 => Instr::TmaStore {
                src: tile(Slice::smem(self.s)),
                dst: Slice::param(self.po).extent(self.rows, self.cols + 1),
            },
            _ => Instr::Loop {
                var: b.fresh_var(),
                count: Expr::var(self.v) + 1,
                body: vec![],
            },
        }
    }

    /// One construct bytecode lowering must bound exactly or decline to
    /// prove: an origin at its object's bound, one past it or negative; a
    /// guard at the bound or one past it; a zero, negative or positive
    /// divisor; a zero-trip loop; a nested loop reusing the main loop's
    /// variable; a read behind a loop, or behind a guard, that the read
    /// needs; or a [`Hazards::malformed`] instruction. Some fail at run
    /// time, the malformed ones at lowering, and every run must fail
    /// alike.
    fn draw(&self, rng: &mut StdRng, b: &mut KernelBuilder) -> Vec<Instr> {
        let (v, rows, trips) = (Expr::var(self.v), self.rows as i64, self.trips);
        let off = rng.gen_range(-1i64..2);
        let past = rng.gen_range(0i64..2);
        let zero_trip = rng.gen_range(-1i64..2);
        match rng.gen_range(0usize..12) {
            11 => vec![self.malformed(rng, b)],
            0 => vec![self.load(self.pa, v * rows + off)],
            1 => vec![self.load(self.po, Expr::block_x() * rows + off)],
            2 => vec![Instr::If {
                cond: Cond::Lt(v.clone() + 1, Expr::lit(trips + past)),
                then_: vec![self.load(self.pa, (v + 1) * rows)],
                else_: vec![],
            }],
            3 => vec![Instr::If {
                cond: Cond::Ge(v.clone() - 1, Expr::lit(-past)),
                then_: vec![self.load(self.pa, (v - 1) * rows)],
                else_: vec![],
            }],
            4 => vec![Instr::If {
                cond: Cond::Eq(v.clone(), Expr::lit(0)),
                then_: vec![self.load(self.pa, (v + trips - 1 + past) * rows)],
                else_: vec![],
            }],
            5 => {
                let pipe = self.pipe as i64;
                let divisor = [0, -pipe, pipe][rng.gen_range(0usize..3)];
                vec![
                    Instr::Simt(SimtOp::Copy {
                        src: Slice::smem(self.s)
                            .stage(v.clone() % divisor)
                            .extent(self.rows, self.cols),
                        dst: Slice::frag(self.f).extent(self.rows, self.cols),
                    }),
                    self.load(
                        self.pa,
                        (v * rows * 2) / [0, -2, 2][rng.gen_range(0usize..3)],
                    ),
                ]
            }
            6 => {
                let w = b.fresh_var();
                vec![Instr::Loop {
                    var: w,
                    count: Expr::lit(zero_trip),
                    body: vec![self.load(self.pa, Expr::var(w) * rows)],
                }]
            }
            // Reusing `v` unbinds it on exit — unless the loop never ran.
            7 => vec![
                Instr::Loop {
                    var: self.v,
                    count: Expr::lit(zero_trip),
                    body: vec![self.load(self.pa, v.clone() * rows)],
                },
                self.load(self.pa, v * rows),
            ],
            // A loop's variable is unbound behind it.
            8 => {
                let w = b.fresh_var();
                vec![
                    Instr::Loop {
                        var: w,
                        count: Expr::lit(1),
                        body: vec![],
                    },
                    self.load(self.pa, Expr::var(w) * rows),
                ]
            }
            // A guard says nothing behind its then-block.
            9 => vec![
                Instr::If {
                    cond: Cond::Lt(v.clone() + 1, Expr::lit(trips)),
                    then_: vec![],
                    else_: vec![],
                },
                self.load(self.pa, (v + 1) * rows),
            ],
            // ... and from the second iteration of an enclosing loop on,
            // also ahead of the nested loop.
            _ => vec![Instr::Loop {
                var: b.fresh_var(),
                count: Expr::lit(2),
                body: vec![
                    self.load(self.pa, v * rows),
                    Instr::Loop {
                        var: self.v,
                        count: Expr::lit(zero_trip),
                        body: vec![],
                    },
                ],
            }],
        }
    }
}

/// Build a random single-role kernel: a pipelined TMA load loop feeding a
/// random SIMT op mix (map/zip/row-reduce/row-broadcast over random
/// sub-slices of shared memory and fragments), a data-dependent `If`, and
/// a final copy-out into a per-block band of the output parameter. With
/// `hazard`, the loop body also carries one of the [`Hazards`].
fn random_kernel_and_params(seed: u64, hazard: bool) -> (cypress_sim::Kernel, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = rng.gen_range(1usize..13);
    let cols = rng.gen_range(1usize..13);
    let trips = rng.gen_range(1i64..5);
    let pipe = rng.gen_range(1usize..4);
    let gx = rng.gen_range(1usize..3);
    let dt_in = DTYPES[rng.gen_range(0usize..3)];
    let dt_out = DTYPES[rng.gen_range(0usize..3)];

    let mut b = KernelBuilder::new("differential", [gx, 1, 1]);
    let src_rows = rows * trips as usize;
    let pa = b.param("A", src_rows, cols, dt_in);
    let po = b.param("O", rows * gx, cols, dt_out);
    let s = b.smem("S", rows, cols, dt_in, pipe);
    let f = b.frag("F", rows, cols);
    let r = b.frag("R", rows, 1);
    let bar = b.mbar(1);
    let v = b.fresh_var();

    // Random sub-slice of the fragment: both the op and its operands see
    // an interior window, exercising resolved-view row striding.
    let sub_rows = rng.gen_range(1usize..rows + 1);
    let sub_cols = rng.gen_range(1usize..cols + 1);
    let row0 = rng.gen_range(0usize..rows - sub_rows + 1);
    let col0 = rng.gen_range(0usize..cols - sub_cols + 1);
    let fsub = || {
        Slice::frag(f)
            .at(row0 as i64, col0 as i64)
            .extent(sub_rows, sub_cols)
    };
    let rsub = || Slice::frag(r).at(row0 as i64, 0).extent(sub_rows, 1);
    let stage = |vv: usize, p: usize| {
        Slice::smem(s)
            .stage(Expr::var(vv) % p as i64)
            .at(row0 as i64, col0 as i64)
            .extent(sub_rows, sub_cols)
    };

    let mut body = vec![
        Instr::TmaLoad {
            src: Slice::param(pa)
                .at(Expr::var(v) * rows as i64, 0)
                .extent(rows, cols),
            dst: Slice::smem(s)
                .stage(Expr::var(v) % pipe as i64)
                .extent(rows, cols),
            bar,
        },
        Instr::MbarWait { bar },
        Instr::Simt(SimtOp::Copy {
            src: Slice::smem(s)
                .stage(Expr::var(v) % pipe as i64)
                .extent(rows, cols),
            dst: Slice::frag(f).extent(rows, cols),
        }),
    ];
    // Drawn from its own stream, so a seed's kernel is otherwise the one
    // it is without the hazard.
    if hazard {
        let mut hazard_rng = StdRng::seed_from_u64(seed ^ 0x4A7A_4D5E);
        let h = Hazards {
            pa,
            po,
            s,
            f,
            v,
            rows,
            cols,
            trips,
            pipe,
        };
        body.extend(h.draw(&mut hazard_rng, &mut b));
    }
    for _ in 0..rng.gen_range(1usize..4) {
        let op = match rng.gen_range(0usize..5) {
            0 => SimtOp::Map {
                op: [UnOp::Exp, UnOp::Neg, UnOp::Scale(0.5), UnOp::Recip][rng.gen_range(0usize..4)],
                src: fsub(),
                dst: fsub(),
            },
            1 => SimtOp::Zip {
                op: [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Max][rng.gen_range(0usize..4)],
                a: fsub(),
                b: stage(v, pipe),
                dst: fsub(),
            },
            2 => SimtOp::RowReduce {
                op: [RedOp::Sum, RedOp::Max][rng.gen_range(0usize..2)],
                src: fsub(),
                dst: rsub(),
                include_dst: rng.gen_bool(0.5),
            },
            3 => SimtOp::RowZip {
                op: [BinOp::Add, BinOp::Max][rng.gen_range(0usize..2)],
                src: fsub(),
                row: rsub(),
                dst: fsub(),
            },
            _ => SimtOp::Fill {
                dst: rsub(),
                value: rng.gen_range(-2.0f32..2.0),
            },
        };
        // Half the ops run under a loop-variant branch so the bytecode
        // Branch/Jump encoding is exercised, not just straight-line code.
        if rng.gen_bool(0.5) {
            body.push(Instr::If {
                cond: Cond::Ge(Expr::var(v), Expr::lit(trips / 2)),
                then_: vec![Instr::Simt(op)],
                else_: vec![],
            });
        } else {
            body.push(Instr::Simt(op));
        }
    }

    b.role(
        RoleKind::Compute(0),
        vec![
            Instr::Simt(SimtOp::Fill {
                dst: Slice::frag(r).extent(rows, 1),
                value: 0.0,
            }),
            Instr::Loop {
                var: v,
                count: Expr::lit(trips),
                body,
            },
            Instr::Simt(SimtOp::Copy {
                src: Slice::frag(f).extent(rows, cols),
                dst: Slice::param(po)
                    .at(Expr::block_x() * rows as i64, 0)
                    .extent(rows, cols),
            }),
        ],
    );
    let kernel = b.build();

    let a = Tensor::random(dt_in, &[src_rows, cols], &mut rng, -1.0, 1.0);
    let o = Tensor::zeros(dt_out, &[rows * gx, cols]);
    (kernel, vec![a, o])
}

/// Run a kernel through the three functional paths and assert the
/// tensors and the simulated cycle count are bit-identical, or that all
/// fail with the same error. A kernel lowering rejects must be rejected
/// as a [`SimError::Kernel`] by every path. No run, timing runs
/// included, may fail with [`SimError::Internal`]: a functional run
/// reports that way a slice that lowering proved in bounds — so that a
/// timing run skips resolving it — but that failed to resolve. A timing
/// run that finishes holds `Simulator::run_timing_bounded` to its
/// contract. Returns the functional outcome.
fn assert_paths_agree(kernel: &cypress_sim::Kernel, params: Vec<Tensor>) -> Result<(), SimError> {
    let sim = Simulator::new(MachineConfig::test_gpu());
    let program = match bytecode::lower(kernel) {
        Ok(program) => program,
        Err(e) => {
            assert!(matches!(e, SimError::Kernel(_)), "lowering: {e:?}");
            let scalar = sim.run_functional_scalar(kernel, params.clone()).err();
            assert_eq!(scalar.as_ref(), Some(&e), "scalar");
            assert_eq!(sim.run_timing(kernel).err().as_ref(), Some(&e), "timing");
            assert_eq!(sim.run_functional(kernel, params).err(), Some(e.clone()));
            return Err(e);
        }
    };
    let byte = sim.run_functional(kernel, params.clone());
    let others = [
        ("scalar", sim.run_functional_scalar(kernel, params.clone())),
        // The pre-lowered artifact path (what the runtime's kernel cache
        // replays) must match the internal lowering exactly.
        (
            "cached",
            sim.run_functional_lowered(kernel, &program, params),
        ),
    ];
    let timing = sim.run_timing_lowered(kernel, &program);
    let internal = |e: &SimError| matches!(e, SimError::Internal { .. });
    assert!(!byte.as_ref().is_err_and(internal), "bytecode: {byte:?}");
    assert!(!timing.as_ref().is_err_and(internal), "timing: {timing:?}");

    for (which, other) in &others {
        assert!(!other.as_ref().is_err_and(internal), "{which}: {other:?}");
        let (byte, other) = match (&byte, other) {
            (Ok(byte), Ok(other)) => (byte, other),
            (Err(x), Err(y)) => {
                assert_eq!(x, y, "bytecode vs {which}: errors diverge");
                continue;
            }
            (x, y) => panic!(
                "bytecode vs {which}: {:?} vs {:?}",
                x.as_ref().err(),
                y.as_ref().err()
            ),
        };
        assert_eq!(
            byte.report.cycles.to_bits(),
            other.report.cycles.to_bits(),
            "bytecode vs {which}: cycles diverge"
        );
        for (p, (x, y)) in byte.params.iter().zip(&other.params).enumerate() {
            assert_eq!(x.shape(), y.shape(), "bytecode vs {which}: param {p} shape");
            for (i, (a, b)) in x.data().iter().zip(y.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "bytecode vs {which}: param {p} elem {i}"
                );
            }
        }
    }
    // A timing run simulates a subset of the CTAs a functional run does.
    if byte.is_ok() {
        assert!(timing.is_ok(), "times: {timing:?}");
    }
    if let Ok(report) = &timing {
        assert_bounded_runs_keep_their_contract(&sim, kernel, &program, report, &kernel.name);
    }
    byte.map(drop)
}

proptest! {
    /// The fast path, the scalar oracle and the pre-lowered program agree
    /// bitwise on random kernels over random shapes, dtypes, and
    /// sub-slices.
    #[test]
    fn three_paths_agree_bitwise_on_random_kernels(seed in 0u64..1_000_000) {
        let (kernel, params) = random_kernel_and_params(seed, false);
        assert_paths_agree(&kernel, params).unwrap();
    }

    /// The same kernels with a hazard spliced in agree bitwise where they
    /// run, and fail alike — never with `SimError::Internal` — where they
    /// do not.
    #[test]
    fn paths_fail_alike_on_hazards(seed in 0u64..1_000_000) {
        let (kernel, params) = random_kernel_and_params(seed, true);
        let _ = assert_paths_agree(&kernel, params);
    }
}

/// The hazards do what they are there for: over a fixed run of seeds,
/// kernels run clean and fail with each error they can raise.
#[test]
fn hazards_fail_every_way_they_can() {
    let mut seen = [false; 6];
    for seed in 0..256 {
        let (kernel, params) = random_kernel_and_params(seed, true);
        let i = match assert_paths_agree(&kernel, params) {
            Ok(()) => 0,
            Err(SimError::OutOfBounds { what }) if what.starts_with("negative") => 1,
            Err(SimError::OutOfBounds { .. }) => 2,
            Err(SimError::Eval {
                source: EvalError::DivisionByZero,
                ..
            }) => 3,
            Err(SimError::Eval {
                source: EvalError::UnboundVar(_),
                ..
            }) => 4,
            Err(SimError::Kernel(_)) => 5,
            Err(e) => panic!("seed {seed}: {e}"),
        };
        seen[i] = true;
    }
    assert_eq!(
        seen, [true; 6],
        "ok, negative, past the bound, /0, unbound, malformed"
    );
}
