//! Hand-scheduled device-program generators.
//!
//! These play the role of the expert-written kernels of the paper's
//! evaluation (cuBLAS, cuDNN, CUTLASS-style references, ThunderKittens,
//! FlashAttention-3): warp-specialized, deeply pipelined programs written
//! directly against the simulator's device API, with explicit
//! communication and synchronization — everything Cypress automates.
//!
//! The same generators, with the heuristic knobs flipped, produce the
//! Triton-like baselines: bulk-synchronous scheduling, `cp.async` instead
//! of TMA, block-wide barriers between phases, shared-memory reduction
//! accumulators, and no load/compute overlap inside fused loop bodies
//! (§5.2's observed behaviours).

use cypress_sim::{BinOp, Cond, Expr, Instr, Kernel, KernelBuilder, RedOp, RoleKind, Slice, UnOp};
use cypress_tensor::DType;

/// Configuration for the GEMM-family generator.
#[derive(Debug, Clone, Copy)]
pub struct GemmSchedule {
    /// Block tile rows.
    pub tm: usize,
    /// Block tile columns.
    pub tn: usize,
    /// K tile.
    pub tk: usize,
    /// Consumer warpgroups.
    pub wgs: usize,
    /// Pipeline stages.
    pub pipe: usize,
    /// Warp-specialize (dedicated DMA warp + TMA); `false` = bulk-
    /// synchronous with `cp.async` issued by warpgroup 0 (Triton's
    /// default data path).
    pub warpspec: bool,
    /// Dual GEMM: a second B operand accumulated into the same tile.
    pub dual: bool,
    /// Serialize the second GEMM's load behind the first GEMM (the Triton
    /// Dual-GEMM behaviour: no partial overlap of the B2 load).
    pub serialize_dual: bool,
    /// Fused row-sum reduction of A.
    pub reduction: bool,
    /// Keep the reduction accumulator in shared memory and only reduce
    /// after waiting on the Tensor Core (the Triton GEMM+Reduction
    /// behaviour).
    pub smem_reduction: bool,
}

impl GemmSchedule {
    /// A cuBLAS-class schedule.
    #[must_use]
    pub fn expert() -> Self {
        GemmSchedule {
            tm: 128,
            tn: 256,
            tk: 64,
            wgs: 2,
            pipe: 3,
            warpspec: true,
            dual: false,
            serialize_dual: false,
            reduction: false,
            smem_reduction: false,
        }
    }

    /// A Triton-class schedule.
    #[must_use]
    pub fn triton() -> Self {
        GemmSchedule {
            warpspec: false,
            serialize_dual: true,
            smem_reduction: true,
            ..GemmSchedule::expert()
        }
    }
}

/// `Instr::tma_load` or `Instr::cp_async_load`: the unit that moves a tile.
type Load = fn(Slice, Slice, usize) -> Instr;

/// A tile streamed global→shared: the three names Fig. 1b declares per
/// operand (parameter, staged buffer, arrival mbarrier) and its extent.
#[derive(Clone, Copy)]
struct Operand {
    param: usize,
    smem: usize,
    mbar: usize,
    tile: (usize, usize),
}

impl Operand {
    /// Declare region `s<name>` and the mbarrier that stream `tile`-sized
    /// pieces of global parameter `param` through `stages` stages.
    fn stream(
        b: &mut KernelBuilder,
        param: usize,
        name: &str,
        tile: (usize, usize),
        stages: usize,
    ) -> Self {
        Operand {
            param,
            smem: b.smem(format!("s{name}"), tile.0, tile.1, DType::F16, stages),
            mbar: b.mbar(1),
            tile,
        }
    }

    /// The tile held in pipeline stage `stage`.
    fn staged(self, stage: Expr) -> Slice {
        let (rows, cols) = self.tile;
        Slice::smem(self.smem).stage(stage).extent(rows, cols)
    }

    /// Move the tile at global `(row, col)` into pipeline stage `stage`.
    fn load(self, (row, col): (Expr, Expr), stage: Expr, kind: Load) -> Instr {
        let (rows, cols) = self.tile;
        let src = Slice::param(self.param).at(row, col).extent(rows, cols);
        kind(src, self.staged(stage), self.mbar)
    }
}

/// A result tile staged in shared memory and written out by one TMA store.
#[derive(Clone, Copy)]
struct Output {
    param: usize,
    smem: usize,
    tile: (usize, usize),
}

impl Output {
    /// Store the staged tile to global `(row, col)`.
    fn store(self, (row, col): (Expr, Expr)) -> Instr {
        let (rows, cols) = self.tile;
        Instr::tma_store(
            Slice::smem(self.smem).extent(rows, cols),
            Slice::param(self.param).at(row, col).extent(rows, cols),
        )
    }
}

/// Where the fused row-sum of A accumulates between k-steps.
#[derive(Clone, Copy)]
enum RowSum {
    /// A per-warpgroup fragment, reduced while the Tensor Core computes.
    Frag(usize),
    /// A CTA-wide shared-memory vector (the Triton behaviour).
    Smem(usize),
}

/// What `gemm_kernel` declares; its methods are the phases of Fig. 1b.
struct Gemm {
    s: GemmSchedule,
    m: usize,
    k: usize,
    trips: i64,
    wg_rows: usize,
    kvar: usize,
    a: Operand,
    b1: Operand,
    b2: Option<Operand>,
    c: Output,
    acc: usize,
    /// The fused reduction's output and its accumulator.
    y: Option<(Output, RowSum)>,
    cons: usize,
    copyout: usize,
}

impl Gemm {
    /// Global row origin of this CTA's A, C and Y tiles; folds the batch:
    /// `bz*M + bx*TM`.
    fn a_row(&self) -> Expr {
        Expr::block_z() * self.m as i64 + Expr::block_x() * self.s.tm as i64
    }

    /// The pipeline stage k-step `k` occupies.
    fn stage(&self, k: Expr) -> Expr {
        let pipe = self.s.pipe as i64;
        match k {
            Expr::Lit(p) => Expr::lit(p % pipe),
            k => k % pipe,
        }
    }

    /// Load `op`'s tile of k-step `k`: A walks its columns with `k`,
    /// B1/B2 their rows.
    fn load(&self, op: Operand, k: Expr, kind: Load) -> Instr {
        let step = k.clone() * self.s.tk as i64;
        let origin = if op.param == self.a.param {
            (self.a_row(), step)
        } else {
            let row = Expr::block_z() * self.k as i64 + step;
            (row, Expr::block_y() * self.s.tn as i64)
        };
        op.load(origin, self.stage(k), kind)
    }

    /// The pipelined loads of k-step `k`. Triton's serialized Dual-GEMM
    /// leaves B2 out: it is loaded in the loop body, behind the first GEMM.
    fn loads(&self, k: &Expr, kind: Load) -> Vec<Instr> {
        let pipelined_b2 = self.s.warpspec || !self.s.serialize_dual;
        [
            Some(self.a),
            Some(self.b1),
            self.b2.filter(|_| pipelined_b2),
        ]
        .into_iter()
        .flatten()
        .map(|op| self.load(op, k.clone(), kind))
        .collect()
    }

    /// TMA the staged C tile (and Y column) out and wait for the stores.
    fn store_out(&self) -> Vec<Instr> {
        let col = Expr::block_y() * self.s.tn as i64;
        let mut out = vec![self.c.store((self.a_row(), col))];
        if let Some((y, _)) = self.y {
            out.push(y.store((self.a_row(), Expr::block_y())));
        }
        out.push(Instr::TmaStoreWait);
        out
    }

    /// Bulk-synchronous schedules have no DMA warp: warpgroup 0 issues
    /// the `cp.async` loads and the final store itself.
    fn moves_data(&self, wg: usize) -> bool {
        !self.s.warpspec && wg == 0
    }

    fn acc_tile(&self) -> Slice {
        Slice::frag(self.acc).extent(self.wg_rows, self.s.tn)
    }

    /// DMA warp: Fig. 1b lines 6-19.
    fn dma_role(&self) -> Vec<Instr> {
        let k = Expr::var(self.kvar);
        let mut step = vec![Instr::when(
            Cond::Ge(k.clone(), Expr::lit(self.s.pipe as i64)),
            vec![Instr::mbar_wait(self.cons)],
        )];
        step.extend(self.loads(&k, Instr::tma_load));
        let mut dma = vec![
            Instr::repeat(self.kvar, self.trips, step),
            Instr::mbar_wait(self.copyout),
        ];
        dma.extend(self.store_out());
        dma
    }

    /// Before the main loop: a bulk-synchronous schedule fills the first
    /// `pipe - 1` stages; every schedule zeroes its accumulators.
    fn prologue(&self, wg: usize) -> Vec<Instr> {
        let mut out = Vec::new();
        if self.moves_data(wg) {
            for p in 0..(self.s.pipe - 1).min(self.trips as usize) {
                out.extend(self.loads(&Expr::lit(p as i64), Instr::cp_async_load));
            }
        }
        out.push(Instr::fill(self.acc_tile(), 0.0));
        match self.y {
            Some((_, RowSum::Frag(y))) => {
                out.push(Instr::fill(Slice::frag(y).extent(self.wg_rows, 1), 0.0));
            }
            Some((_, RowSum::Smem(y))) if wg == 0 => {
                out.push(Instr::fill(Slice::smem(y).extent(self.s.tm, 1), 0.0));
            }
            _ => {}
        }
        out
    }

    /// One k-step of warpgroup `wg`.
    fn main_loop(&self, wg: usize) -> Vec<Instr> {
        let s = &self.s;
        let k = Expr::var(self.kvar);
        let (row0, wg_rows) = (wg * self.wg_rows, self.wg_rows);
        let a_rows = self.a.staged(self.stage(k.clone()));
        let a_rows = a_rows.at(row0, 0).extent(wg_rows, s.tk);
        let gemm = |b: Operand| {
            let b = b.staged(self.stage(k.clone()));
            Instr::wgmma(a_rows.clone(), b, self.acc_tile())
        };
        let mut it = Vec::new();
        if self.moves_data(wg) {
            // Bulk-synchronous: warpgroup 0 issues cp.async with lookahead
            // (Triton's num_stages pipelining). Wait for outstanding Tensor
            // Core work before overwriting a stage.
            let ahead = k.clone() + (s.pipe as i64 - 1);
            let mut next = vec![Instr::WgmmaWait { pending: 0 }];
            next.extend(self.loads(&ahead, Instr::cp_async_load));
            it.push(Instr::when(Cond::Lt(ahead, Expr::lit(self.trips)), next));
        }
        it.push(Instr::mbar_wait(self.a.mbar));
        it.push(Instr::mbar_wait(self.b1.mbar));
        it.push(gemm(self.b1));
        if let Some(b2) = self.b2 {
            if s.serialize_dual {
                // Triton: wait for the first GEMM, only then load and run
                // the second — the §5.2 serialization.
                it.push(Instr::WgmmaWait { pending: 0 });
                if self.moves_data(wg) {
                    it.push(self.load(b2, k.clone(), Instr::cp_async_load));
                }
            }
            it.push(Instr::mbar_wait(b2.mbar));
            it.push(gemm(b2));
        }
        match self.y {
            Some((_, RowSum::Smem(y))) => {
                // Triton: wait on the Tensor Core, then reduce through the
                // shared-memory accumulator.
                it.push(Instr::WgmmaWait { pending: 0 });
                let dst = Slice::smem(y).at(row0, 0).extent(wg_rows, 1);
                it.push(Instr::row_reduce(RedOp::Sum, a_rows.clone(), dst));
            }
            Some((_, RowSum::Frag(y))) => {
                // Overlapped: the SIMT reduction runs while the Tensor Core
                // computes (no wait needed — different units).
                let dst = Slice::frag(y).extent(wg_rows, 1);
                it.push(Instr::row_reduce(RedOp::Sum, a_rows.clone(), dst));
            }
            None => {}
        }
        it.push(Instr::WgmmaWait { pending: 0 });
        it.push(Instr::mbar_arrive(self.cons));
        if !s.warpspec {
            // Bulk-synchronous lockstep: Triton's codegen separates phases
            // with block-wide barriers.
            it.push(Instr::Syncthreads);
        }
        it
    }

    /// Epilogue: stage the accumulators and hand off to the TMA.
    fn epilogue(&self, wg: usize) -> Vec<Instr> {
        let (row0, wg_rows, tm) = (wg * self.wg_rows, self.wg_rows, self.s.tm);
        let staged_c = Slice::smem(self.c.smem).at(row0, 0);
        let mut out = vec![Instr::copy(
            self.acc_tile(),
            staged_c.extent(wg_rows, self.s.tn),
        )];
        match self.y {
            Some((y, RowSum::Frag(acc))) => out.push(Instr::copy(
                Slice::frag(acc).extent(wg_rows, 1),
                Slice::smem(y.smem).at(row0, 0).extent(wg_rows, 1),
            )),
            Some((y, RowSum::Smem(acc))) if wg == 0 => out.push(Instr::copy(
                Slice::smem(acc).extent(tm, 1),
                Slice::smem(y.smem).extent(tm, 1),
            )),
            _ => {}
        }
        if self.s.warpspec {
            out.push(Instr::mbar_arrive(self.copyout));
        } else {
            out.push(Instr::Syncthreads);
            if wg == 0 {
                out.extend(self.store_out());
            }
        }
        out
    }
}

/// Build a GEMM-family kernel: `C[l] = A[l] (B1[l] + optionally B2[l])`
/// over `batch` folded batches, with optional fused row-sum into `Y`.
///
/// # Panics
///
/// Panics if tile sizes do not divide the problem.
#[must_use]
pub fn gemm_kernel(
    name: &str,
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    s: GemmSchedule,
) -> Kernel {
    assert!(
        m.is_multiple_of(s.tm) && n.is_multiple_of(s.tn) && k.is_multiple_of(s.tk),
        "tiles must divide the problem"
    );
    assert!(s.tm.is_multiple_of(s.wgs));
    let wg_rows = s.tm / s.wgs;
    let mut b = KernelBuilder::new(name, [m / s.tm, n / s.tn, batch]);
    // Declaration order fixes the indices: fields declare as evaluated.
    let gc = b.param("C", batch * m, n, DType::F16);
    let mut operand = |name: &str, rows: usize, cols: usize, tile: (usize, usize)| {
        let param = b.param(name, rows, cols, DType::F16);
        Operand::stream(&mut b, param, name, tile, s.pipe)
    };
    let g = Gemm {
        a: operand("A", batch * m, k, (s.tm, s.tk)),
        b1: operand("B1", batch * k, n, (s.tk, s.tn)),
        b2: s.dual.then(|| operand("B2", batch * k, n, (s.tk, s.tn))),
        c: Output {
            param: gc,
            smem: b.smem("sC", s.tm, s.tn, DType::F16, 1),
            tile: (s.tm, s.tn),
        },
        acc: b.frag("acc", wg_rows, s.tn),
        y: s.reduction.then(|| {
            let out = Output {
                param: b.param("Y", batch * m, n / s.tn, DType::F16),
                smem: b.smem("sY", s.tm, 1, DType::F32, 1),
                tile: (s.tm, 1),
            };
            let sum = if s.smem_reduction {
                RowSum::Smem(b.smem("sYacc", s.tm, 1, DType::F32, 1))
            } else {
                RowSum::Frag(b.frag("yacc", wg_rows, 1))
            };
            (out, sum)
        }),
        cons: b.mbar(s.wgs),
        copyout: b.mbar(s.wgs),
        kvar: b.fresh_var(),
        trips: (k / s.tk) as i64,
        s,
        m,
        k,
        wg_rows,
    };
    if s.warpspec {
        b.role(RoleKind::Dma, g.dma_role());
    }
    for wg in 0..s.wgs {
        let mut body = g.prologue(wg);
        body.push(Instr::repeat(g.kvar, g.trips, g.main_loop(wg)));
        body.extend(g.epilogue(wg));
        b.role(RoleKind::Compute(wg), body);
    }
    b.build()
}

/// Configuration for the attention generator.
#[derive(Debug, Clone, Copy)]
pub struct AttentionSchedule {
    /// Row tile per CTA.
    pub br: usize,
    /// K/V column tile.
    pub bc: usize,
    /// Consumer warpgroups.
    pub wgs: usize,
    /// Pipeline stages for K/V.
    pub pipe: usize,
    /// Process two K/V tiles per iteration with two score buffers
    /// (FlashAttention-3's pingpong).
    pub pingpong: bool,
    /// Persistent kernel: one CTA per SM iterating over work items (§5.3).
    pub persistent: bool,
    /// Bulk-synchronous Triton-style scheduling (no DMA warp, cp.async,
    /// block-wide barriers between phases).
    pub bulk_sync: bool,
}

/// One K/V tile of an iteration: its two operands and the score fragment
/// `Q Kᵀ` lands in. Pingpong schedules run two per iteration.
struct KvTile {
    k: Operand,
    v: Operand,
    scores: usize,
}

/// What `attention_kernel` declares; its methods are the kernel's phases.
struct Attention {
    s: AttentionSchedule,
    seq: usize,
    d: usize,
    bands: usize,
    total_work: usize,
    work_per_cta: usize,
    wg_rows: usize,
    kv_stage: usize,
    q: Operand,
    o: usize,
    tiles: Vec<KvTile>,
    out: Output,
    /// Running row maximum, running row sum, and a scratch column.
    cols: [usize; 3],
    cons: usize,
    copyout: usize,
    /// Work-item loop variable.
    wvar: usize,
    /// K/V tile loop variable.
    jvar: usize,
}

impl Attention {
    /// This CTA's current work item: `(head, band) = (wid / bands, wid % bands)`.
    fn wid(&self) -> Expr {
        if self.s.persistent {
            Expr::block_x() * self.work_per_cta as i64 + Expr::var(self.wvar)
        } else {
            Expr::block_x()
        }
    }

    /// Global origin of the work item's Q and O tiles.
    fn q_origin(&self) -> (Expr, Expr) {
        let (w, bands) = (self.wid(), self.bands as i64);
        let row = (w.clone() / bands) * self.seq as i64 + (w % bands) * self.s.br as i64;
        (row, Expr::lit(0))
    }

    fn stage(&self) -> Expr {
        Expr::var(self.jvar) % self.kv_stage as i64
    }

    fn o_tile(&self) -> Slice {
        Slice::frag(self.o).extent(self.wg_rows, self.d)
    }

    /// The K and V loads of every tile of iteration `jvar`.
    fn kv_loads(&self, kind: Load) -> Vec<Instr> {
        let head_row = (self.wid() / self.bands as i64) * self.seq as i64;
        let mut j = Expr::var(self.jvar);
        if self.s.pingpong {
            j = j * 2;
        }
        let mut out = Vec::new();
        for tile in &self.tiles {
            let row = head_row.clone() + j.clone() * self.s.bc as i64;
            for op in [tile.k, tile.v] {
                out.push(op.load((row.clone(), Expr::lit(0)), self.stage(), kind));
            }
            j = j + 1;
        }
        out
    }

    /// TMA the staged O tile out and wait for the store.
    fn store_out(&self) -> [Instr; 2] {
        [self.out.store(self.q_origin()), Instr::TmaStoreWait]
    }

    /// Bulk-synchronous schedules have no DMA warp: warpgroup 0 issues
    /// the `cp.async` loads and the final store itself.
    fn moves_data(&self, wg: usize) -> bool {
        self.s.bulk_sync && wg == 0
    }

    /// A role's program: `item` once per work item of this CTA. A
    /// persistent CTA's last trip may find no work item left.
    fn per_work_item(&self, item: Vec<Instr>) -> Vec<Instr> {
        let guarded = if self.s.persistent {
            let in_range = Cond::Lt(self.wid(), Expr::lit(self.total_work as i64));
            vec![Instr::when(in_range, item)]
        } else {
            item
        };
        vec![Instr::repeat(self.wvar, self.work_per_cta as i64, guarded)]
    }

    /// The K/V loop of one work item around `step`.
    fn kv_loop(&self, step: Vec<Instr>) -> Instr {
        let trips = self.seq / (self.tiles.len() * self.s.bc);
        Instr::repeat(self.jvar, trips as i64, step)
    }

    fn dma_role(&self) -> Vec<Instr> {
        let mut step = vec![Instr::when(
            Cond::Ge(Expr::var(self.jvar), Expr::lit(self.kv_stage as i64)),
            vec![Instr::mbar_wait(self.cons)],
        )];
        step.extend(self.kv_loads(Instr::tma_load));
        let mut item = vec![
            self.q.load(self.q_origin(), Expr::lit(0), Instr::tma_load),
            self.kv_loop(step),
            Instr::mbar_wait(self.copyout),
        ];
        item.extend(self.store_out());
        self.per_work_item(item)
    }

    fn compute_role(&self, wg: usize) -> Vec<Instr> {
        let col = |f: usize| Slice::frag(f).extent(self.wg_rows, 1);
        let [m, l, _] = self.cols;
        let mut item = vec![
            Instr::fill(self.o_tile(), 0.0),
            Instr::fill(col(m), -30000.0),
            Instr::fill(col(l), 0.0),
        ];
        if self.moves_data(wg) {
            let q = self.q_origin();
            item.push(self.q.load(q, Expr::lit(0), Instr::cp_async_load));
        }
        item.push(Instr::mbar_wait(self.q.mbar));
        item.push(self.kv_loop(self.main_loop(wg)));

        // Epilogue: O /= l, stage, store.
        let staged_o = Slice::smem(self.out.smem).at(wg * self.wg_rows, 0);
        item.push(Instr::row_zip(
            BinOp::Div,
            self.o_tile(),
            col(l),
            self.o_tile(),
        ));
        item.push(Instr::copy(
            self.o_tile(),
            staged_o.extent(self.wg_rows, self.d),
        ));
        if self.s.bulk_sync {
            item.push(Instr::Syncthreads);
            if wg == 0 {
                item.extend(self.store_out());
            }
        } else {
            item.push(Instr::mbar_arrive(self.copyout));
        }
        self.per_work_item(item)
    }

    /// One K/V iteration of warpgroup `wg`. Pingpong issues both `Q Kᵀ`
    /// GEMMs before either softmax: the first group-wait retires only the
    /// first GEMM, so the second overlaps with the first softmax.
    fn main_loop(&self, wg: usize) -> Vec<Instr> {
        let mut it = Vec::new();
        if self.moves_data(wg) {
            it.push(Instr::WgmmaWait { pending: 0 });
            it.extend(self.kv_loads(Instr::cp_async_load));
        }
        for tile in &self.tiles {
            it.extend(self.qk(tile, wg));
        }
        for (i, tile) in self.tiles.iter().enumerate() {
            let pending = self.tiles.len() - 1 - i;
            it.push(Instr::WgmmaWait { pending });
            it.extend(self.softmax_then_pv(tile));
        }
        it.push(Instr::WgmmaWait { pending: 0 });
        it.push(Instr::mbar_arrive(self.cons));
        if self.s.bulk_sync {
            it.push(Instr::Syncthreads);
        }
        it
    }

    /// Issue `scores = Q Kᵀ` for `tile` (asynchronous: not waited on).
    fn qk(&self, tile: &KvTile, wg: usize) -> [Instr; 3] {
        let scores = Slice::frag(tile.scores).extent(self.wg_rows, self.s.bc);
        let q_rows = Slice::smem(self.q.smem).at(wg * self.wg_rows, 0);
        [
            Instr::mbar_wait(tile.k.mbar),
            Instr::fill(scores.clone(), 0.0),
            Instr::wgmma_bt(
                q_rows.extent(self.wg_rows, self.d),
                tile.k.staged(self.stage()),
                scores,
            ),
        ]
    }

    /// Online softmax over `tile`'s retired scores, then `O += P V`.
    fn softmax_then_pv(&self, tile: &KvTile) -> Vec<Instr> {
        let scores = || Slice::frag(tile.scores).extent(self.wg_rows, self.s.bc);
        let [m, l, tm] = self
            .cols
            .map(|f| move || Slice::frag(f).extent(self.wg_rows, 1));
        let scale = 1.0 / (self.d as f32).sqrt();
        let mut v = vec![Instr::map(UnOp::Scale(scale), scores(), scores())];
        if self.s.bulk_sync {
            // Triton separates GEMM and reduction phases block-wide.
            v.push(Instr::Syncthreads);
        }
        v.extend([
            Instr::copy(m(), tm()),
            Instr::row_reduce(RedOp::Max, scores(), m()),
            Instr::zip(BinOp::Sub, tm(), m(), tm()),
            Instr::map(UnOp::Exp, tm(), tm()),
            Instr::row_zip(BinOp::Mul, l(), tm(), l()),
            Instr::row_zip(BinOp::Mul, self.o_tile(), tm(), self.o_tile()),
            Instr::row_zip(BinOp::Sub, scores(), m(), scores()),
            Instr::map(UnOp::Exp, scores(), scores()),
            Instr::row_reduce(RedOp::Sum, scores(), l()),
            Instr::mbar_wait(tile.v.mbar),
            Instr::wgmma(scores(), tile.v.staged(self.stage()), self.o_tile()),
        ]);
        v
    }
}

/// Build a FlashAttention-family kernel over `heads` heads of `seq × d`.
///
/// # Panics
///
/// Panics if tile sizes do not divide the sequence length.
#[must_use]
pub fn attention_kernel(
    name: &str,
    heads: usize,
    seq: usize,
    d: usize,
    sms: usize,
    s: AttentionSchedule,
) -> Kernel {
    assert!(seq.is_multiple_of(s.br) && seq.is_multiple_of(s.bc));
    assert!(s.br.is_multiple_of(s.wgs));
    let (wg_rows, bands, kv_stage) = (s.br / s.wgs, seq / s.br, s.pipe.max(1));
    let total_work = heads * bands;
    let (grid, work_per_cta) = if s.persistent {
        let ctas = sms.min(total_work);
        (ctas, total_work.div_ceil(ctas))
    } else {
        (total_work, 1)
    };
    let mut b = KernelBuilder::new(name, [grid, 1, 1]);
    b.persistent(s.persistent);
    // Declaration order fixes the indices: fields declare as evaluated.
    let [go, gq, gk, gv] = ["O", "Q", "K", "V"].map(|p| b.param(p, heads * seq, d, DType::F16));
    let a = Attention {
        q: Operand::stream(&mut b, gq, "Q", (s.br, d), 1),
        o: b.frag("o", wg_rows, d),
        tiles: (0..if s.pingpong { 2 } else { 1 })
            .map(|t| KvTile {
                k: Operand::stream(&mut b, gk, &format!("K{t}"), (s.bc, d), kv_stage),
                v: Operand::stream(&mut b, gv, &format!("V{t}"), (s.bc, d), kv_stage),
                scores: b.frag(format!("s{t}"), wg_rows, s.bc),
            })
            .collect(),
        out: Output {
            param: go,
            smem: b.smem("sO", s.br, d, DType::F16, 1),
            tile: (s.br, d),
        },
        cols: ["m", "l", "tm"].map(|f| b.frag(f, wg_rows, 1)),
        cons: b.mbar(s.wgs),
        copyout: b.mbar(s.wgs),
        wvar: b.fresh_var(),
        jvar: b.fresh_var(),
        s,
        seq,
        d,
        bands,
        total_work,
        work_per_cta,
        wg_rows,
        kv_stage,
    };
    if !s.bulk_sync {
        b.role(RoleKind::Dma, a.dma_role());
    }
    for wg in 0..s.wgs {
        b.role(RoleKind::Compute(wg), a.compute_role(wg));
    }
    b.build()
}
