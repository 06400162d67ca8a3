//! The IR-walk frontend: the reference implementation the bytecode
//! engine is compared against.
//!
//! Production builds execute one instruction set — the [`Program`]
//! bytecode `bytecode::lower` produces once per kernel (see the parent
//! module's `resume`). This module keeps what lowering replaced: a
//! per-invocation walk of the flattened [`Instr`] tree that re-evaluates
//! every slice-origin [`Expr`] and re-derives every byte, FLOP and SIMT
//! cost quantity from the resolved slices. It compiles only under
//! `cfg(any(test, feature = "scalar-oracle"))` and is entered through
//! [`Engine::set_walk`]; the three-way differential suites (bytecode vs
//! walk vs walk + scalar data path) pin the two frontends to
//! bit-identical schedules, tensors and error messages.
//!
//! Everything timed is shared with the bytecode frontend: both call the
//! engine's `issue_*` / `step_*` helpers in the same order, so the fluid
//! reservations — and therefore every cycle count — cannot diverge.
//!
//! [`Program`]: crate::bytecode::Program
//! [`Expr`]: crate::expr::Expr

use super::{Engine, RSlice, SimError, SimtCost, SYNCTHREADS_ID};
use crate::bytecode::index32;
use crate::flatten::{flatten, Flat};
use crate::instr::{Instr, SimtOp};
use crate::mem::{MemRef, Slice, Space};

/// Every role's body flattened to a linear program, position for
/// position the bytecode's mirror.
pub(super) type Flattened<'k> = Vec<Vec<Flat<'k>>>;

impl<'k> Engine<'k> {
    /// Execute the kernel through the IR walk instead of the bytecode
    /// program (the fast resolved-view data path stays on).
    pub(crate) fn set_walk(&mut self) {
        self.walk = Some(self.kernel.roles.iter().map(|r| flatten(&r.body)).collect());
    }

    /// Route all functional applies through the scalar reference
    /// interpreter (the pre-optimization data path).
    pub(crate) fn set_scalar(&mut self) {
        self.scalar = true;
    }

    /// The walk's half of `resume`: step through flattened control flow
    /// and execute until the next timed/blocking point.
    pub(super) fn resume_walk(&mut self, exec_id: usize) -> Result<(), SimError> {
        loop {
            let e = &self.execs[exec_id];
            if e.done {
                return Ok(());
            }
            let Some(flat) = &self.walk else {
                return Err(SimError::Internal {
                    what: "the walk frontend was entered without `set_walk`".into(),
                });
            };
            // Cloning the position copies its `'k` references out of the
            // `&self` borrow, so execution is free to mutate the engine.
            match flat[e.role][e.pc].clone() {
                Flat::End => {
                    self.finish_role(exec_id);
                    return Ok(());
                }
                Flat::Jump(t) => {
                    self.execs[exec_id].pc = t;
                }
                Flat::Branch { cond, else_target } => {
                    let taken = cond
                        .eval(&self.execs[exec_id].env)
                        .map_err(|e| self.eval_err(exec_id, e))?;
                    self.take_branch(exec_id, taken, else_target);
                }
                Flat::LoopStart { var, count, end } => {
                    let trips = count
                        .eval(&self.execs[exec_id].env)
                        .map_err(|e| self.eval_err(exec_id, e))?;
                    self.enter_loop(exec_id, var, trips, end);
                }
                Flat::LoopEnd { .. } => self.loop_back_edge(exec_id)?,
                Flat::Op(instr) => {
                    if self.execute_walk(exec_id, instr)? {
                        return Ok(());
                    }
                    // Instruction completed inline; pc already advanced.
                }
            }
        }
    }

    /// Execute one walked instruction. Returns `true` if the executor
    /// yielded (scheduled a resume or blocked); `false` if it completed
    /// inline. Byte counts, flop counts, and SIMT costs are derived from
    /// the resolved slices here; the bytecode frontend precomputes the
    /// identical values at lowering time.
    fn execute_walk(&mut self, exec_id: usize, instr: &'k Instr) -> Result<bool, SimError> {
        match instr {
            Instr::TmaLoad { src, dst, bar } => {
                let rsrc = self.resolve_walk(exec_id, src)?;
                let rdst = self.resolve_walk(exec_id, dst)?;
                let bytes = self.slice_bytes(&rsrc);
                self.issue_tma_load(exec_id, rsrc, rdst, index32(*bar, "mbarrier index")?, bytes);
                Ok(true)
            }
            Instr::CpAsyncLoad { src, dst, bar } => {
                let rsrc = self.resolve_walk(exec_id, src)?;
                let rdst = self.resolve_walk(exec_id, dst)?;
                let bytes = self.slice_bytes(&rsrc);
                self.issue_cp_async_load(
                    exec_id,
                    rsrc,
                    rdst,
                    index32(*bar, "mbarrier index")?,
                    bytes,
                );
                Ok(true)
            }
            Instr::TmaStore { src, dst } => {
                let rsrc = self.resolve_walk(exec_id, src)?;
                let rdst = self.resolve_walk(exec_id, dst)?;
                let bytes = self.slice_bytes(&rsrc);
                self.issue_tma_store(exec_id, rsrc, rdst, bytes);
                Ok(true)
            }
            Instr::TmaStoreWait => self.step_tma_store_wait(exec_id),
            Instr::MbarArrive { bar } => self.step_mbar_arrive(exec_id, *bar),
            Instr::MbarWait { bar } => self.step_mbar_wait(exec_id, *bar),
            Instr::Wgmma {
                a,
                b,
                acc,
                accumulate,
                transpose_b,
            } => {
                let ra = self.resolve_walk(exec_id, a)?;
                let rb = self.resolve_walk(exec_id, b)?;
                let racc = self.resolve_walk(exec_id, acc)?;
                let flops = 2.0 * (ra.rows * ra.cols) as f64 * racc.cols as f64;
                // Operands stream from shared memory through the Tensor Core.
                let smem_bytes = self.slice_bytes(&rb)
                    + if ra.mem.space() == Space::Shared {
                        self.slice_bytes(&ra)
                    } else {
                        0.0
                    };
                self.issue_wgmma(
                    exec_id,
                    ra,
                    rb,
                    racc,
                    *accumulate,
                    *transpose_b,
                    flops,
                    smem_bytes,
                );
                Ok(true)
            }
            Instr::WgmmaWait { pending } => self.step_wgmma_wait(exec_id, *pending),
            Instr::Simt(op) => {
                let mut srcs = Vec::new();
                for s in op.sources() {
                    srcs.push(self.resolve_walk(exec_id, s)?);
                }
                let dst = self.resolve_walk(exec_id, op.dst())?;
                let cost = self.simt_cost_dyn(op, &srcs, &dst);
                self.issue_simt(exec_id, op, srcs, dst, &cost);
                Ok(true)
            }
            Instr::NamedBarrier { id, parties } => self.named_barrier(exec_id, *id, *parties),
            Instr::Syncthreads => {
                let parties = self.kernel.roles.len();
                self.named_barrier(exec_id, SYNCTHREADS_ID, parties)
            }
            Instr::Loop { .. } | Instr::If { .. } => Err(SimError::Internal {
                what: "control flow reached the execute stage unflattened".into(),
            }),
        }
    }

    /// Derive a SIMT operation's cost factors from its resolved slices
    /// (walk frontend); the bytecode frontend computes the identical
    /// value once at lowering time.
    fn simt_cost_dyn(&self, op: &SimtOp, srcs: &[RSlice], dst: &RSlice) -> SimtCost {
        let elems: f64 = srcs
            .iter()
            .map(|s| (s.rows * s.cols) as f64)
            .fold((dst.rows * dst.cols) as f64, f64::max);
        let mut smem_bytes = 0.0;
        let mut gl_read = 0.0;
        let mut gl_write = 0.0;
        for s in srcs {
            match s.mem.space() {
                Space::Shared => smem_bytes += self.slice_bytes(s),
                Space::Global => gl_read += self.slice_bytes(s),
                Space::Register => {}
            }
        }
        match dst.mem.space() {
            Space::Shared => smem_bytes += self.slice_bytes(dst),
            Space::Global => gl_write += self.slice_bytes(dst),
            Space::Register => {}
        }
        SimtCost {
            elems,
            sfu: op.uses_sfu(),
            smem_bytes,
            gl_read,
            gl_write,
        }
    }

    /// Bytes a resolved slice covers, from the kernel's declarations.
    fn slice_bytes(&self, s: &RSlice) -> f64 {
        let elem = match s.mem {
            MemRef::Param(i) => self.kernel.params[i].dtype.size_bytes(),
            MemRef::Smem(i) => self.kernel.smem[i].dtype.size_bytes(),
            MemRef::Frag(_) => 4,
        };
        (s.rows * s.cols * elem) as f64
    }

    /// Resolve a walked slice: evaluate its origin expression trees and
    /// bounds-check against the kernel's declarations. Error messages
    /// match [`Engine::resolve`] exactly.
    fn resolve_walk(&self, exec_id: usize, s: &Slice) -> Result<RSlice, SimError> {
        let env = &self.execs[exec_id].env;
        let ev = |e: &crate::expr::Expr| e.eval(env).map_err(|er| self.eval_err(exec_id, er));
        let stage = ev(&s.stage)?;
        let row0 = ev(&s.row0)?;
        let col0 = ev(&s.col0)?;
        if stage < 0 || row0 < 0 || col0 < 0 {
            return Err(SimError::OutOfBounds {
                what: format!(
                    "negative slice origin ({stage},{row0},{col0}) of {:?}",
                    s.mem
                ),
            });
        }
        let r = RSlice {
            mem: s.mem,
            stage: stage as usize,
            row0: row0 as usize,
            col0: col0 as usize,
            rows: s.rows,
            cols: s.cols,
        };
        let (prows, pcols, stages) = match s.mem {
            MemRef::Param(i) => {
                let p = &self.kernel.params[i];
                (p.rows, p.cols, 1)
            }
            MemRef::Smem(i) => {
                let d = &self.kernel.smem[i];
                (d.rows, d.cols, d.stages)
            }
            MemRef::Frag(i) => {
                let f = &self.kernel.frags[i];
                (f.rows, f.cols, 1)
            }
        };
        if r.stage >= stages
            || r.row0.checked_add(r.rows).is_none_or(|end| end > prows)
            || r.col0.checked_add(r.cols).is_none_or(|end| end > pcols)
        {
            return Err(SimError::OutOfBounds {
                what: format!(
                    "slice of {:?}: stage {} origin ({},{}) extent ({}x{}) exceeds ({}x{} stages {})",
                    s.mem, r.stage, r.row0, r.col0, r.rows, r.cols, prows, pcols, stages
                ),
            });
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, Mode};
    use crate::{
        bytecode, BinOp, Cond, Expr, Instr, Kernel, KernelBuilder, MachineConfig, RoleKind, SimtOp,
        Slice, TimingReport,
    };
    use cypress_tensor::{DType, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ROWS: usize = 8;
    const COLS: usize = 8;
    const TRIPS: i64 = 3;

    /// A two-block kernel with every control-flow position the frontends
    /// encode: a pipelined TMA-load loop, a loop-variant branch around a
    /// SIMT op, and a per-block copy-out.
    fn kernel() -> Kernel {
        let mut b = KernelBuilder::new("walk_vs_bytecode", [2, 1, 1]);
        let a = b.param("A", ROWS * TRIPS as usize, COLS, DType::F16);
        let o = b.param("O", ROWS * 2, COLS, DType::F32);
        let s = b.smem("S", ROWS, COLS, DType::F16, 2);
        let f = b.frag("F", ROWS, COLS);
        let bar = b.mbar(1);
        let v = b.fresh_var();
        let stage = || Slice::smem(s).stage(Expr::var(v) % 2).extent(ROWS, COLS);
        let frag = || Slice::frag(f).extent(ROWS, COLS);
        let accumulate = Instr::Simt(SimtOp::Zip {
            op: BinOp::Add,
            a: frag(),
            b: stage(),
            dst: frag(),
        });
        b.role(
            RoleKind::Compute(0),
            vec![
                Instr::Simt(SimtOp::Fill {
                    dst: frag(),
                    value: 1.0,
                }),
                Instr::Loop {
                    var: v,
                    count: Expr::lit(TRIPS),
                    body: vec![
                        Instr::TmaLoad {
                            src: Slice::param(a)
                                .at(Expr::var(v) * ROWS as i64, 0)
                                .extent(ROWS, COLS),
                            dst: stage(),
                            bar,
                        },
                        Instr::MbarWait { bar },
                        Instr::If {
                            cond: Cond::Ge(Expr::var(v), Expr::lit(1)),
                            then_: vec![accumulate],
                            else_: vec![],
                        },
                    ],
                },
                Instr::Simt(SimtOp::Copy {
                    src: frag(),
                    dst: Slice::param(o)
                        .at(Expr::block_x() * ROWS as i64, 0)
                        .extent(ROWS, COLS),
                }),
            ],
        );
        b.build()
    }

    fn run(
        kernel: &Kernel,
        params: Vec<Tensor>,
        walk: bool,
        scalar: bool,
    ) -> (TimingReport, Vec<Tensor>) {
        let machine = MachineConfig::test_gpu();
        let program = bytecode::lower(kernel).unwrap();
        let mut engine =
            Engine::new(kernel, &machine, Mode::Functional, Some(params), &program).unwrap();
        if walk {
            engine.set_walk();
        }
        if scalar {
            engine.set_scalar();
        }
        let (report, params, _) = engine.run().unwrap();
        (report, params.unwrap())
    }

    /// The walk (with either data path) reproduces the bytecode engine's
    /// schedule and tensors bit for bit.
    #[test]
    fn walk_matches_bytecode_bit_for_bit() {
        let kernel = kernel();
        let mut rng = StdRng::seed_from_u64(5);
        let params = vec![
            Tensor::random(
                DType::F16,
                &[ROWS * TRIPS as usize, COLS],
                &mut rng,
                -1.0,
                1.0,
            ),
            Tensor::zeros(DType::F32, &[ROWS * 2, COLS]),
        ];
        let (want_report, want) = run(&kernel, params.clone(), false, false);
        assert!(want[1].data().iter().any(|&x| x != 1.0), "the loop ran");
        for (walk, scalar) in [(true, false), (true, true)] {
            let (report, got) = run(&kernel, params.clone(), walk, scalar);
            assert_eq!(report.cycles.to_bits(), want_report.cycles.to_bits());
            assert_eq!(report.events, want_report.events);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.data(), w.data(), "scalar data path: {scalar}");
            }
        }
    }

    /// One compute role: fill the fragment, then — under `cond` — `op`.
    fn guarded(cond: Cond, op: impl FnOnce(usize, usize, usize) -> Instr) -> Kernel {
        let mut b = KernelBuilder::new("static_slices", [1, 1, 1]);
        let a = b.param("A", ROWS, COLS, DType::F16);
        let s = b.smem("S", ROWS, COLS, DType::F16, 2);
        let f = b.frag("F", ROWS, COLS);
        b.role(
            RoleKind::Compute(0),
            vec![
                Instr::Simt(SimtOp::Fill {
                    dst: Slice::frag(f).extent(ROWS, COLS),
                    value: 1.0,
                }),
                Instr::If {
                    cond,
                    then_: vec![op(a, s, f)],
                    else_: vec![],
                },
            ],
        );
        b.build()
    }

    /// Both frontends, both modes; every run must agree.
    fn run_all(kernel: &Kernel) -> Result<TimingReport, crate::SimError> {
        let machine = MachineConfig::test_gpu();
        let program = bytecode::lower(kernel).unwrap();
        let mut outcomes = Vec::new();
        for mode in [Mode::Timing, Mode::Functional] {
            for walk in [false, true] {
                let params = (mode == Mode::Functional)
                    .then(|| vec![Tensor::zeros(DType::F16, &[ROWS, COLS])]);
                let mut engine = Engine::new(kernel, &machine, mode, params, &program).unwrap();
                if walk {
                    engine.set_walk();
                }
                outcomes.push(engine.run().map(|(report, _, _)| report));
            }
        }
        for o in &outcomes[1..] {
            assert_eq!(o, &outcomes[0], "frontends or modes disagree");
        }
        outcomes.swap_remove(0)
    }

    /// A constant-origin slice that is out of bounds is an error of the
    /// instruction that uses it, raised when (and only if) it executes —
    /// never of lowering — with the walk's exact text and operand order.
    #[test]
    fn constant_out_of_bounds_slices_fail_where_the_walk_fails() {
        let never = || Cond::Ge(Expr::block_x(), Expr::lit(1));
        let always = || Cond::Ge(Expr::block_x(), Expr::lit(0));
        let frag = |f| Slice::frag(f).extent(ROWS, COLS);
        type Case = (fn(usize, usize) -> Slice, &'static str);
        let cases: [Case; 3] = [
            (
                |_, s| Slice::smem(s).stage(2).extent(ROWS, COLS),
                "slice of Smem(0): stage 2 origin (0,0) extent (8x8) exceeds (8x8 stages 2)",
            ),
            (
                |a, _| Slice::param(a).at(4, 0).extent(ROWS, COLS),
                "slice of Param(0): stage 0 origin (4,0) extent (8x8) exceeds (8x8 stages 1)",
            ),
            (
                |a, _| Slice::param(a).at(-1, 0).extent(ROWS, COLS),
                "negative slice origin (0,-1,0) of Param(0)",
            ),
        ];
        for (bad, text) in cases {
            let copy_in = |a, s, f| {
                Instr::Simt(SimtOp::Copy {
                    src: bad(a, s),
                    dst: frag(f),
                })
            };
            let clean = run_all(&guarded(never(), copy_in)).expect("untaken branch");
            assert!(clean.events > 0);
            match run_all(&guarded(always(), copy_in)) {
                Err(crate::SimError::OutOfBounds { what }) => assert_eq!(what, text),
                other => panic!("expected `{text}`, got {other:?}"),
            }
            // Operands resolve left to right: ahead of an unbound
            // variable the constant slice's error wins, behind it the
            // evaluation error (which names the pc) does.
            let unbound = |f| Slice::frag(f).at(Expr::var(7), 0).extent(ROWS, COLS);
            let first = run_all(&guarded(always(), |a, s, f| {
                Instr::Simt(SimtOp::Copy {
                    src: bad(a, s),
                    dst: unbound(f),
                })
            }));
            assert!(
                matches!(&first, Err(crate::SimError::OutOfBounds { what }) if what == text),
                "{first:?}"
            );
            let second = run_all(&guarded(always(), |a, s, f| {
                Instr::Simt(SimtOp::Zip {
                    op: BinOp::Add,
                    a: unbound(f),
                    b: bad(a, s),
                    dst: frag(f),
                })
            }));
            assert!(
                matches!(&second, Err(crate::SimError::Eval { context, .. }) if context == "cta0/wg0 pc=2"),
                "{second:?}"
            );
        }
    }
}
