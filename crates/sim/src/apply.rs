//! The functional data path: resolved flat-buffer views and bulk applies.
//!
//! Functional mode used to interpret every scalar element access through a
//! `match` on the memory object plus two-dimensional index arithmetic and a
//! per-element dtype conversion. This module is the fast replacement: each
//! resolved slice ([`RSlice`]) is turned **once per apply** into a [`View`]
//! — a flat buffer key plus base offset and row stride — and the applies
//! run as bulk operations over contiguous rows:
//!
//! - [`wgmma`] is one register-tiled microkernel: an `MR x NR` block of
//!   outputs accumulates in registers across the k-loop, so the adds of
//!   one k-step are independent of each other and only the next k-step
//!   waits on them. A `transpose_b` operand is packed k-major once per
//!   apply into [`Scratch`] and fed to the same tile. Each output
//!   element still starts from its own initial value and adds
//!   `a(i, k) * b(k, j)` — a multiply, then an add, never fused — in
//!   ascending `k`: exactly the scalar interpreter's operation sequence,
//!   so results are **bitwise identical**. The one source of that loop
//!   is compiled at three widths: 4 x 8 (eight 4-lane accumulators, every
//!   host), 4 x 16 (eight 8-lane ones) inside a
//!   `#[target_feature(enable = "avx2")]` wrapper, and 4 x 64 (sixteen
//!   16-lane ones) inside a `#[target_feature(enable = "avx512f")]` one.
//!   `wgmma_rows` enters the widest wrapper whose feature it detects on
//!   the running CPU — this module's one `unsafe` block. A wider vector
//!   holds more *outputs*; it never touches the order of the sum within
//!   one, and neither `fma` contraction nor `mul_add` happens anywhere,
//!   so the three widths agree in every bit (the oracle tests below run
//!   each one the host has).
//! - [`copy`] streams whole rows with [`DType::quantize_copy`] — no
//!   per-element division/modulo, one dtype dispatch per row (per slice
//!   when both sides are dense), and a branch-free quantizer the
//!   compiler vectorizes, at the same three widths.
//! - [`simt`] stages each source row once and writes each destination row
//!   through [`DType::quantize_slice`].
//!
//! Where operands live in different memory pools (params / shared / frags)
//! the borrows are split so source and destination views coexist without
//! copies; same-pool operands are staged through a reusable [`Scratch`]
//! buffer. Staging whole operands is equivalent to the scalar interleaving
//! for every program the kernel validator admits (sources are read before
//! the destination is written; exact in-place aliasing is processed
//! row-by-row in the same order as the scalar path).
//!
//! The pre-optimization scalar interpreter is retained verbatim in
//! [`scalar`] (tests and the `scalar-oracle` feature) as the reference
//! oracle: a property test below drives both paths over random shapes,
//! dtypes and slices and asserts bitwise equality.

use crate::error::SimError;
use crate::kernel::Kernel;
use crate::mem::MemRef;
use cypress_tensor::{DType, Tensor};

use crate::instr::SimtOp;

/// A slice with all expressions evaluated for a specific CTA/iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RSlice {
    pub(crate) mem: MemRef,
    pub(crate) stage: usize,
    pub(crate) row0: usize,
    pub(crate) col0: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

/// `[cta][region]` flat shared-memory buffers covering all stages.
type SmemPool = Vec<Vec<Vec<f32>>>;
/// `[cta][role][frag]` flat register-fragment buffers.
type FragPool = Vec<Vec<Vec<Vec<f32>>>>;

/// Functional memory state: the three memory pools of the machine model.
pub(crate) struct FuncData {
    /// Launch-bound parameter tensors (global memory).
    pub(crate) params: Vec<Tensor>,
    /// Per-CTA shared-memory regions.
    pub(crate) smem: SmemPool,
    /// Per-CTA, per-role register fragments.
    pub(crate) frags: FragPool,
}

/// Which flat buffer a resolved slice lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufKey {
    Param(usize),
    Smem {
        cta: usize,
        region: usize,
    },
    Frag {
        cta: usize,
        role: usize,
        frag: usize,
    },
}

/// A slice resolved to a flat buffer: base element offset of the slice
/// origin (stage folded in), the parent's row stride, the extent, and the
/// dtype quantization applied on stores.
#[derive(Debug, Clone, Copy)]
struct View {
    key: BufKey,
    base: usize,
    stride: usize,
    rows: usize,
    cols: usize,
    dtype: DType,
}

impl View {
    /// Resolve `s` against `kernel`'s declarations for the executor at
    /// `(cta, role)`. `s` has already been bounds-checked by the engine's
    /// slice resolution.
    fn of(kernel: &Kernel, cta: usize, role: usize, s: &RSlice) -> View {
        match s.mem {
            MemRef::Param(p) => {
                let d = &kernel.params[p];
                View {
                    key: BufKey::Param(p),
                    base: s.row0 * d.cols + s.col0,
                    stride: d.cols,
                    rows: s.rows,
                    cols: s.cols,
                    dtype: d.dtype,
                }
            }
            MemRef::Smem(r) => {
                let d = &kernel.smem[r];
                View {
                    key: BufKey::Smem { cta, region: r },
                    base: s.stage * d.rows * d.cols + s.row0 * d.cols + s.col0,
                    stride: d.cols,
                    rows: s.rows,
                    cols: s.cols,
                    dtype: d.dtype,
                }
            }
            MemRef::Frag(f) => {
                let d = &kernel.frags[f];
                View {
                    key: BufKey::Frag { cta, role, frag: f },
                    base: s.row0 * d.cols + s.col0,
                    stride: d.cols,
                    rows: s.rows,
                    cols: s.cols,
                    dtype: DType::F32,
                }
            }
        }
    }

    /// Element offset of `(i, 0)` of the slice.
    fn row(&self, i: usize) -> usize {
        self.base + i * self.stride
    }
}

impl FuncData {
    /// The flat buffer behind `key`, immutably.
    fn buf(&self, key: BufKey) -> &[f32] {
        match key {
            BufKey::Param(p) => self.params[p].data(),
            BufKey::Smem { cta, region } => &self.smem[cta][region],
            BufKey::Frag { cta, role, frag } => &self.frags[cta][role][frag],
        }
    }

    /// The flat buffer behind `key`, mutably.
    fn buf_mut(&mut self, key: BufKey) -> &mut [f32] {
        match key {
            BufKey::Param(p) => self.params[p].data_mut(),
            BufKey::Smem { cta, region } => &mut self.smem[cta][region],
            BufKey::Frag { cta, role, frag } => &mut self.frags[cta][role][frag],
        }
    }
}

/// Reusable staging buffers so applies never allocate in steady state.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

/// Append the slice's rows (row-major, contiguous) to `out`.
fn gather(out: &mut Vec<f32>, buf: &[f32], v: &View) {
    out.clear();
    out.reserve(v.rows * v.cols);
    for i in 0..v.rows {
        out.extend_from_slice(&buf[v.row(i)..v.row(i) + v.cols]);
    }
}

/// A borrow of `key`'s buffer out of the param or shared pools; `None`
/// for fragments (the caller holds the fragment pool mutably).
fn param_or_smem<'a>(params: &'a [Tensor], smem: &'a SmemPool, key: BufKey) -> Option<&'a [f32]> {
    match key {
        BufKey::Param(p) => Some(params[p].data()),
        BufKey::Smem { cta, region } => Some(&smem[cta][region]),
        BufKey::Frag { .. } => None,
    }
}

/// Like [`param_or_smem`], but out of the param or fragment pools
/// (`None` when the caller holds shared memory mutably).
fn param_or_frag<'a>(params: &'a [Tensor], frags: &'a FragPool, key: BufKey) -> Option<&'a [f32]> {
    match key {
        BufKey::Param(p) => Some(params[p].data()),
        BufKey::Frag { cta, role, frag } => Some(&frags[cta][role][frag]),
        BufKey::Smem { .. } => None,
    }
}

/// Like [`param_or_smem`], but out of the shared or fragment pools
/// (`None` when the caller holds a parameter mutably).
fn smem_or_frag<'a>(smem: &'a SmemPool, frags: &'a FragPool, key: BufKey) -> Option<&'a [f32]> {
    match key {
        BufKey::Smem { cta, region } => Some(&smem[cta][region]),
        BufKey::Frag { cta, role, frag } => Some(&frags[cta][role][frag]),
        BufKey::Param(_) => None,
    }
}

// ---- copy --------------------------------------------------------------

/// Bulk copy `src` into `dst`, reading the source linearly in the
/// destination's row-major order (the TMA/`cp.async` reshape semantics of
/// the scalar interpreter) and quantizing stores to the destination dtype.
pub(crate) fn copy(
    kernel: &Kernel,
    data: &mut FuncData,
    scratch: &mut Scratch,
    cta: usize,
    role: usize,
    src: &RSlice,
    dst: &RSlice,
) -> Result<(), SimError> {
    let sv = View::of(kernel, cta, role, src);
    let dv = View::of(kernel, cta, role, dst);
    // Cross-pool copies — every TMA/`cp.async` transfer (param ↔ smem)
    // and most SIMT copies — run zero-copy on split borrows.
    let FuncData {
        params,
        smem,
        frags,
    } = data;
    match dv.key {
        BufKey::Param(p) => {
            if let Some(sbuf) = smem_or_frag(smem, frags, sv.key) {
                return copy_rows(sbuf, &sv, params[p].data_mut(), &dv);
            }
        }
        BufKey::Smem { cta, region } => {
            if let Some(sbuf) = param_or_frag(params, frags, sv.key) {
                return copy_rows(sbuf, &sv, &mut smem[cta][region], &dv);
            }
        }
        BufKey::Frag { cta, role, frag } => {
            if let Some(sbuf) = param_or_smem(params, smem, sv.key) {
                return copy_rows(sbuf, &sv, &mut frags[cta][role][frag], &dv);
            }
        }
    }
    // Same-pool copy: stage the source linearly (slice-row-major,
    // matching the scalar `idx / src.cols` walk), then scatter whole
    // destination rows.
    let src_rows = (dv.rows * dv.cols).div_ceil(sv.cols.max(1));
    let stage_view = View {
        rows: src_rows,
        ..sv
    };
    gather(&mut scratch.a, data.buf(sv.key), &stage_view);
    let staged = View {
        base: 0,
        stride: sv.cols,
        rows: src_rows,
        ..sv
    };
    let out = data.buf_mut(dv.key);
    copy_rows(&scratch.a, &staged, out, &dv)
}

/// Stream `sv`'s elements (linearly, slice-row-major) into `dv`'s rows,
/// quantizing stores to the destination dtype. Same-width slices reduce
/// to one `quantize_copy` per row — one for the whole slice when both
/// sides are dense (rows back to back), the elementwise map being the
/// same either way; reshapes walk a `(row, col)` cursor over the source —
/// the bulk form of the scalar `idx / src.cols` walk.
fn copy_rows(sbuf: &[f32], sv: &View, dbuf: &mut [f32], dv: &View) -> Result<(), SimError> {
    if sv.cols == dv.cols && sv.stride == sv.cols && dv.stride == dv.cols {
        let len = dv.rows * dv.cols;
        dv.dtype.quantize_copy(
            &sbuf[sv.base..sv.base + len],
            &mut dbuf[dv.base..dv.base + len],
        );
    } else if sv.cols == dv.cols {
        for i in 0..dv.rows {
            let srow = &sbuf[sv.row(i)..sv.row(i) + dv.cols];
            let drow = &mut dbuf[dv.row(i)..dv.row(i) + dv.cols];
            dv.dtype.quantize_copy(srow, drow);
        }
    } else {
        let (mut si, mut sj) = (0usize, 0usize);
        for i in 0..dv.rows {
            let drow = &mut dbuf[dv.row(i)..dv.row(i) + dv.cols];
            let mut filled = 0;
            while filled < dv.cols {
                let take = (dv.cols - filled).min(sv.cols - sj);
                let off = sv.row(si) + sj;
                dv.dtype
                    .quantize_copy(&sbuf[off..off + take], &mut drow[filled..filled + take]);
                filled += take;
                sj += take;
                if sj == sv.cols {
                    sj = 0;
                    si += 1;
                }
            }
        }
    }
    Ok(())
}

// ---- wgmma -------------------------------------------------------------

/// Tile shape of the microkernel: an `MR x W` block of outputs stays in
/// registers across the k-loop, `W` being [`NR`], [`NR_AVX2`] or
/// [`NR_AVX512`] — eight 4-lane accumulator vectors on the portable path,
/// eight 8-lane ones under AVX2, sixteen 16-lane ones under AVX-512:
/// enough independent add chains to cover the latency of one add. The
/// width only decides which *outputs* share a vector; each lane is still
/// one output's own multiply-then-add in ascending `k`, so no two widths
/// can differ in a bit.
const MR: usize = 4;
/// Tile width of the portable instantiation: two 4-lane vectors a row.
const NR: usize = 8;
/// Tile width of the AVX2 instantiation: two 8-lane vectors a row.
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 2 * NR;
/// Tile width of the AVX-512 instantiation: four 16-lane vectors a row,
/// so each `b` row loaded feeds `MR` rows and 64 columns of outputs.
#[cfg(target_arch = "x86_64")]
const NR_AVX512: usize = 8 * NR;

/// The `lanes` cap the applies pass to [`wgmma_rows`]: none.
const WIDEST: usize = usize::MAX;

/// The register-tiled matrix-multiply microkernel over flat row-strided
/// operands, `b` k-major (`b(kk, j)` at `bbuf[bv.row(kk) + j]`):
/// [`wgmma_rows_at`] at the widest tile the running CPU holds in vectors
/// of at most `lanes` `f32` lanes — AVX-512F, else AVX2, else portable.
/// The applies pass [`WIDEST`]; the tests pass 4, 8 and 16 to run every
/// instantiation the CPU has.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn wgmma_rows(
    lanes: usize,
    abuf: &[f32],
    av: &View,
    bbuf: &[f32],
    bv: &View,
    out: &mut [f32],
    cv: &View,
    n: usize,
    accumulate: bool,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each wrapper is entered right after detecting its one
    // requirement on the running CPU: `avx512f` for `wgmma_rows_avx512`,
    // `avx2` for `wgmma_rows_avx2`.
    unsafe {
        if lanes >= 16 && std::arch::is_x86_feature_detected!("avx512f") {
            return wgmma_rows_avx512(abuf, av, bbuf, bv, out, cv, n, accumulate);
        }
        if lanes >= 8 && std::arch::is_x86_feature_detected!("avx2") {
            return wgmma_rows_avx2(abuf, av, bbuf, bv, out, cv, n, accumulate);
        }
    }
    wgmma_rows_at::<NR>(abuf, av, bbuf, bv, out, cv, n, accumulate);
}

/// [`wgmma_rows_at`] at [`NR_AVX512`], compiled with AVX-512F enabled: the
/// whole `#[inline(always)]` chain below is instantiated inside this
/// function, so its sixteen accumulators are ZMM registers. `avx512f`
/// implies `fma` (rustc enables the features it depends on), but nothing
/// contracts: rustc never sets LLVM's `contract` flag on a float
/// operation and the source never writes `mul_add`, so the multiply and
/// the add stay two roundings.
///
/// # Safety
///
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn wgmma_rows_avx512(
    abuf: &[f32],
    av: &View,
    bbuf: &[f32],
    bv: &View,
    out: &mut [f32],
    cv: &View,
    n: usize,
    accumulate: bool,
) {
    wgmma_rows_at::<NR_AVX512>(abuf, av, bbuf, bv, out, cv, n, accumulate);
}

/// [`wgmma_rows_at`] at [`NR_AVX2`], compiled with AVX2 enabled: the
/// accumulators are YMM registers. Only `avx2` is enabled — never `fma`,
/// and the source never writes `mul_add` — so the multiply and the add
/// stay two roundings.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn wgmma_rows_avx2(
    abuf: &[f32],
    av: &View,
    bbuf: &[f32],
    bv: &View,
    out: &mut [f32],
    cv: &View,
    n: usize,
    accumulate: bool,
) {
    wgmma_rows_at::<NR_AVX2>(abuf, av, bbuf, bv, out, cv, n, accumulate);
}

/// [`wgmma_rows`] at tile width `W`.
///
/// Rows are taken `MR` at a time and columns `W` at a time through
/// [`Strip::tile`]; the `m % MR` row tail runs as one-row tiles, and the
/// `n % W` column tail as `NR`-wide tiles, then one-column tiles (a
/// `1 x 1` tile is the scalar form). Whatever the tile, every output element
/// `(i, j)` starts from its own initial value and adds `a(i, k) * b(k, j)`
/// — a multiply, then an add — in ascending `k` order: exactly the scalar
/// interpreter's operation sequence, so results are bitwise identical.
/// Tiling only changes which *outputs* are in flight, never the order of
/// operations within one.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn wgmma_rows_at<const W: usize>(
    abuf: &[f32],
    av: &View,
    bbuf: &[f32],
    bv: &View,
    out: &mut [f32],
    cv: &View,
    n: usize,
    accumulate: bool,
) {
    let full = av.rows - av.rows % MR;
    for i0 in (0..full).step_by(MR) {
        row_block::<MR, W>(abuf, av, bbuf, bv, out, cv, n, accumulate, i0);
    }
    for i0 in full..av.rows {
        row_block::<1, W>(abuf, av, bbuf, bv, out, cv, n, accumulate, i0);
    }
}

/// Output rows `i0..i0 + R` of [`wgmma_rows_at`]: all `n` columns, then
/// the store quantization of the finished rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_block<const R: usize, const W: usize>(
    abuf: &[f32],
    av: &View,
    bbuf: &[f32],
    bv: &View,
    out: &mut [f32],
    cv: &View,
    n: usize,
    accumulate: bool,
    i0: usize,
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &abuf[av.row(i0 + r)..av.row(i0 + r) + av.cols]);
    let c: [usize; R] = std::array::from_fn(|r| cv.row(i0 + r));
    let strip = Strip {
        a,
        bbuf,
        bv,
        c,
        n,
        accumulate,
    };
    // A wide tile leaves up to `W - 1` columns: the WGMMA shapes (`n` a
    // multiple of 8) finish with portable-width tiles, not one-column ones.
    let mut j = strip.run::<W>(out, 0);
    if W > NR {
        j = strip.run::<NR>(out, j);
    }
    strip.run::<1>(out, j);
    // Each element was written exactly once after its (optional)
    // accumulate read, so quantizing the finished rows is identical to
    // quantizing each store.
    for c in c {
        cv.dtype.quantize_slice(&mut out[c..c + n]);
    }
}

/// The operands of one [`row_block`]: `R` rows of `a`, `b` k-major
/// (`b(k, j)` at `bbuf[bv.row(k) + j]`), and the offsets of the `R`
/// output rows, `n` columns each.
struct Strip<'a, const R: usize> {
    a: [&'a [f32]; R],
    bbuf: &'a [f32],
    bv: &'a View,
    c: [usize; R],
    n: usize,
    accumulate: bool,
}

impl<const R: usize> Strip<'_, R> {
    /// Run `R x C` tiles over columns `j..`, as many as fit in `n`, and
    /// return the first column left.
    #[inline(always)]
    fn run<const C: usize>(&self, out: &mut [f32], mut j: usize) -> usize {
        while self.n - j >= C {
            self.tile::<C>(out, j);
            j += C;
        }
        j
    }

    /// One `R x C` tile at column `j0`: `out[c[r] + j] (+)= Σ_k a[r][k] *
    /// b(k, j)` for `j` in `j0..j0 + C`. The accumulators are a local
    /// array the optimizer keeps in registers; each one sees its products
    /// in ascending `k` order.
    #[inline(always)]
    fn tile<const C: usize>(&self, out: &mut [f32], j0: usize) {
        let c = self.c.map(|c| c + j0);
        let mut acc = [[0.0f32; C]; R];
        if self.accumulate {
            for (acc, c) in acc.iter_mut().zip(c) {
                acc.copy_from_slice(&out[c..c + C]);
            }
        }
        // Equal, loop-invariant lengths let the row loads below go unchecked.
        let k = self.a[0].len();
        let a = self.a.map(|row| &row[..k]);
        for kk in 0..k {
            let b = &self.bbuf[self.bv.row(kk) + j0..][..C];
            for (acc, row) in acc.iter_mut().zip(a) {
                let a_ik = row[kk];
                for (slot, b_kj) in acc.iter_mut().zip(b) {
                    *slot += a_ik * b_kj;
                }
            }
        }
        for (acc, c) in acc.iter().zip(c) {
            out[c..c + C].copy_from_slice(acc);
        }
    }
}

/// Pack a `transpose_b` operand (stored j-major: `b(kk, j)` at
/// `buf[bv.row(j) + kk]`) k-major into `pack`, columns `0..n`, and return
/// the view [`wgmma_rows`] reads it through. One pass per apply moves the
/// operand once instead of striding it per output element.
fn pack_k_major(pack: &mut Vec<f32>, buf: &[f32], bv: &View, n: usize) -> View {
    let k = bv.cols;
    pack.clear();
    pack.reserve(k * n);
    for kk in 0..k {
        pack.extend((0..n).map(|j| buf[bv.row(j) + kk]));
    }
    View {
        base: 0,
        stride: n,
        rows: k,
        cols: n,
        ..*bv
    }
}

/// Bulk `acc += a @ b` (optionally `b` transposed, optionally overwriting
/// `acc`). The kernel validator guarantees `acc` is a register fragment
/// and `b` shared memory, so the common shapes run zero-copy on split
/// borrows; anything else stages operands through `scratch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn wgmma(
    kernel: &Kernel,
    data: &mut FuncData,
    scratch: &mut Scratch,
    cta: usize,
    role: usize,
    a: &RSlice,
    b: &RSlice,
    acc: &RSlice,
    accumulate: bool,
    transpose_b: bool,
) -> Result<(), SimError> {
    let (m, k) = (a.rows, a.cols);
    let n = acc.cols;
    let bk = if transpose_b { b.cols } else { b.rows };
    let bn = if transpose_b { b.rows } else { b.cols };
    if bk != k || bn < n || acc.rows != m {
        return Err(SimError::OutOfBounds {
            what: format!(
                "wgmma shape mismatch: a {}x{}, b {}x{} (transpose_b={transpose_b}), acc {}x{}",
                a.rows, a.cols, b.rows, b.cols, acc.rows, acc.cols
            ),
        });
    }
    let av = View::of(kernel, cta, role, a);
    let bv = View::of(kernel, cta, role, b);
    let cv = View::of(kernel, cta, role, acc);
    let FuncData {
        params,
        smem,
        frags,
    } = data;
    if let (
        BufKey::Frag {
            cta: fc,
            role: fr,
            frag: facc,
        },
        Some(bbuf),
    ) = (cv.key, param_or_smem(params, smem, bv.key))
    {
        // The microkernel reads `b` k-major: in place when it is stored
        // that way, through the pack buffer when it is transposed.
        let (bbuf, bv) = if transpose_b {
            let packed = pack_k_major(&mut scratch.b, bbuf, &bv, n);
            (scratch.b.as_slice(), packed)
        } else {
            (bbuf, bv)
        };
        // Accumulator in the register pool, operands elsewhere: all three
        // views coexist on split borrows.
        if let Some(abuf) = param_or_smem(params, smem, av.key) {
            let out = &mut frags[fc][fr][facc];
            wgmma_rows(WIDEST, abuf, &av, bbuf, &bv, out, &cv, n, accumulate);
            return Ok(());
        }
        // `a` is a sibling fragment of the same warpgroup (the FA2
        // register-operand path): split the fragment pool around the two
        // indices.
        if let BufKey::Frag {
            cta: ac,
            role: ar,
            frag: af,
        } = av.key
        {
            if (ac, ar) == (fc, fr) && af != facc {
                let pool = &mut frags[fc][fr];
                let (lo, hi) = pool.split_at_mut(af.max(facc));
                let (abuf, out): (&[f32], &mut [f32]) = if af < facc {
                    (&lo[af], &mut hi[0])
                } else {
                    (&hi[0], &mut lo[facc])
                };
                wgmma_rows(WIDEST, abuf, &av, bbuf, &bv, out, &cv, n, accumulate);
                return Ok(());
            }
        }
    }
    // Anything else (hand-built kernels the validator admits but the
    // compiler never emits): stage both operands, then write through the
    // accumulator's buffer alone.
    let (sa, sb) = stage_operands(scratch, data, &av, &bv, n, transpose_b);
    let out = data.buf_mut(cv.key);
    wgmma_rows(
        WIDEST, &scratch.a, &sa, &scratch.b, &sb, out, &cv, n, accumulate,
    );
    Ok(())
}

/// Stage both operands of a `wgmma` contiguously in `scratch` — `a`
/// row-major in `scratch.a`, `b` k-major in `scratch.b` whichever way it
/// is stored — and return the views that read them there.
fn stage_operands(
    scratch: &mut Scratch,
    data: &FuncData,
    av: &View,
    bv: &View,
    n: usize,
    transpose_b: bool,
) -> (View, View) {
    gather(&mut scratch.a, data.buf(av.key), av);
    let sa = View {
        base: 0,
        stride: av.cols,
        ..*av
    };
    let sb = if transpose_b {
        pack_k_major(&mut scratch.b, data.buf(bv.key), bv, n)
    } else {
        gather(&mut scratch.b, data.buf(bv.key), bv);
        View {
            base: 0,
            stride: bv.cols,
            ..*bv
        }
    };
    (sa, sb)
}

// ---- simt --------------------------------------------------------------

/// Bulk application of a resolved SIMT operation: each destination row is
/// produced from source rows staged once through `scratch`, then stored
/// with one dtype dispatch. Row-by-row processing preserves the scalar
/// interpreter's ordering even when an operation runs in place (the
/// destination slice aliasing a source slice exactly).
#[allow(clippy::too_many_arguments)]
pub(crate) fn simt(
    kernel: &Kernel,
    data: &mut FuncData,
    scratch: &mut Scratch,
    cta: usize,
    role: usize,
    op: &SimtOp,
    srcs: &[RSlice],
    dst: &RSlice,
) -> Result<(), SimError> {
    let dv = View::of(kernel, cta, role, dst);
    match op {
        SimtOp::Fill { value, .. } => {
            let q = dv.dtype.quantize(*value);
            let out = data.buf_mut(dv.key);
            for i in 0..dv.rows {
                out[dv.row(i)..dv.row(i) + dv.cols].fill(q);
            }
        }
        SimtOp::Copy { .. } => {
            copy(kernel, data, scratch, cta, role, &srcs[0], dst)?;
        }
        SimtOp::Map { op, .. } => {
            let sv = View::of(kernel, cta, role, &srcs[0]);
            for i in 0..dv.rows {
                stage_row(&mut scratch.a, data.buf(sv.key), &sv, i, dv.cols);
                let row = &mut data.buf_mut(dv.key)[dv.row(i)..dv.row(i) + dv.cols];
                for (d, s) in row.iter_mut().zip(&scratch.a) {
                    *d = op.apply(*s);
                }
                dv.dtype.quantize_slice(row);
            }
        }
        SimtOp::Zip { op, .. } => {
            let s0 = View::of(kernel, cta, role, &srcs[0]);
            let s1 = View::of(kernel, cta, role, &srcs[1]);
            for i in 0..dv.rows {
                stage_row(&mut scratch.a, data.buf(s0.key), &s0, i, dv.cols);
                stage_row(&mut scratch.b, data.buf(s1.key), &s1, i, dv.cols);
                let row = &mut data.buf_mut(dv.key)[dv.row(i)..dv.row(i) + dv.cols];
                for (j, d) in row.iter_mut().enumerate() {
                    *d = op.apply(scratch.a[j], scratch.b[j]);
                }
                dv.dtype.quantize_slice(row);
            }
        }
        SimtOp::RowReduce {
            op, include_dst, ..
        } => {
            let sv = View::of(kernel, cta, role, &srcs[0]);
            for i in 0..dv.rows {
                stage_row(&mut scratch.a, data.buf(sv.key), &sv, i, sv.cols);
                let out = data.buf_mut(dv.key);
                let mut acc = if *include_dst {
                    out[dv.row(i)]
                } else {
                    op.identity()
                };
                for &x in &scratch.a {
                    acc = op.apply(acc, x);
                }
                out[dv.row(i)] = dv.dtype.quantize(acc);
            }
        }
        SimtOp::RowZip { op, .. } => {
            let s0 = View::of(kernel, cta, role, &srcs[0]);
            let s1 = View::of(kernel, cta, role, &srcs[1]);
            for i in 0..dv.rows {
                let r = data.buf(s1.key)[s1.row(i)];
                stage_row(&mut scratch.a, data.buf(s0.key), &s0, i, dv.cols);
                let row = &mut data.buf_mut(dv.key)[dv.row(i)..dv.row(i) + dv.cols];
                for (d, s) in row.iter_mut().zip(&scratch.a) {
                    *d = op.apply(*s, r);
                }
                dv.dtype.quantize_slice(row);
            }
        }
    }
    Ok(())
}

/// Stage `width` elements of row `i` of `v` into `out`.
fn stage_row(out: &mut Vec<f32>, buf: &[f32], v: &View, i: usize, width: usize) {
    out.clear();
    out.extend_from_slice(&buf[v.row(i)..v.row(i) + width]);
}

// ---- scalar reference oracle -------------------------------------------

/// The pre-optimization scalar interpreter, retained verbatim as the
/// reference oracle: every element access is a `match` on the memory
/// object plus two-dimensional index arithmetic, every store a scalar
/// dtype conversion. Tests assert the fast path above is bitwise
/// identical; the `scalar-oracle` feature exposes it to the cross-crate
/// differential tests.
#[cfg(any(test, feature = "scalar-oracle"))]
pub(crate) mod scalar {
    use super::{FuncData, RSlice};
    use crate::error::SimError;
    use crate::instr::SimtOp;
    use crate::kernel::Kernel;
    use crate::mem::MemRef;

    fn read_elem(
        kernel: &Kernel,
        data: &FuncData,
        cta: usize,
        role: usize,
        s: &RSlice,
        i: usize,
        j: usize,
    ) -> f32 {
        match s.mem {
            MemRef::Param(p) => {
                let cols = kernel.params[p].cols;
                data.params[p].data()[(s.row0 + i) * cols + (s.col0 + j)]
            }
            MemRef::Smem(r) => {
                let d = &kernel.smem[r];
                let base = s.stage * d.rows * d.cols;
                data.smem[cta][r][base + (s.row0 + i) * d.cols + (s.col0 + j)]
            }
            MemRef::Frag(fr) => {
                let d = &kernel.frags[fr];
                data.frags[cta][role][fr][(s.row0 + i) * d.cols + (s.col0 + j)]
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn write_elem(
        kernel: &Kernel,
        data: &mut FuncData,
        cta: usize,
        role: usize,
        s: &RSlice,
        i: usize,
        j: usize,
        v: f32,
    ) {
        match s.mem {
            MemRef::Param(p) => {
                let cols = kernel.params[p].cols;
                let dt = kernel.params[p].dtype;
                data.params[p].data_mut()[(s.row0 + i) * cols + (s.col0 + j)] = dt.quantize(v);
            }
            MemRef::Smem(r) => {
                let d = &kernel.smem[r];
                let base = s.stage * d.rows * d.cols;
                data.smem[cta][r][base + (s.row0 + i) * d.cols + (s.col0 + j)] =
                    d.dtype.quantize(v);
            }
            MemRef::Frag(fr) => {
                let cols = kernel.frags[fr].cols;
                data.frags[cta][role][fr][(s.row0 + i) * cols + (s.col0 + j)] = v;
            }
        }
    }

    pub(crate) fn copy(
        kernel: &Kernel,
        data: &mut FuncData,
        cta: usize,
        role: usize,
        src: &RSlice,
        dst: &RSlice,
    ) -> Result<(), SimError> {
        // Extents were validated equal in element count; iterate in the
        // destination's shape, reading the source linearly.
        for idx in 0..dst.rows * dst.cols {
            let (di, dj) = (idx / dst.cols, idx % dst.cols);
            let (si, sj) = (idx / src.cols, idx % src.cols);
            let v = read_elem(kernel, data, cta, role, src, si, sj);
            write_elem(kernel, data, cta, role, dst, di, dj, v);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wgmma(
        kernel: &Kernel,
        data: &mut FuncData,
        cta: usize,
        role: usize,
        a: &RSlice,
        b: &RSlice,
        acc: &RSlice,
        accumulate: bool,
        transpose_b: bool,
    ) -> Result<(), SimError> {
        let (m, k) = (a.rows, a.cols);
        let n = acc.cols;
        let bk = if transpose_b { b.cols } else { b.rows };
        let bn = if transpose_b { b.rows } else { b.cols };
        if bk != k || bn < n || acc.rows != m {
            return Err(SimError::OutOfBounds {
                what: format!(
                    "wgmma shape mismatch: a {}x{}, b {}x{} (transpose_b={transpose_b}), acc {}x{}",
                    a.rows, a.cols, b.rows, b.cols, acc.rows, acc.cols
                ),
            });
        }
        for i in 0..m {
            for j in 0..n {
                let mut v = if accumulate {
                    read_elem(kernel, data, cta, role, acc, i, j)
                } else {
                    0.0
                };
                for kk in 0..k {
                    let av = read_elem(kernel, data, cta, role, a, i, kk);
                    let bv = if transpose_b {
                        read_elem(kernel, data, cta, role, b, j, kk)
                    } else {
                        read_elem(kernel, data, cta, role, b, kk, j)
                    };
                    v += av * bv;
                }
                write_elem(kernel, data, cta, role, acc, i, j, v);
            }
        }
        Ok(())
    }

    pub(crate) fn simt(
        kernel: &Kernel,
        data: &mut FuncData,
        cta: usize,
        role: usize,
        op: &SimtOp,
        srcs: &[RSlice],
        dst: &RSlice,
    ) -> Result<(), SimError> {
        match op {
            SimtOp::Fill { value, .. } => {
                for i in 0..dst.rows {
                    for j in 0..dst.cols {
                        write_elem(kernel, data, cta, role, dst, i, j, *value);
                    }
                }
            }
            SimtOp::Copy { .. } => {
                copy(kernel, data, cta, role, &srcs[0], dst)?;
            }
            SimtOp::Map { op, .. } => {
                for i in 0..dst.rows {
                    for j in 0..dst.cols {
                        let v = op.apply(read_elem(kernel, data, cta, role, &srcs[0], i, j));
                        write_elem(kernel, data, cta, role, dst, i, j, v);
                    }
                }
            }
            SimtOp::Zip { op, .. } => {
                for i in 0..dst.rows {
                    for j in 0..dst.cols {
                        let v = op.apply(
                            read_elem(kernel, data, cta, role, &srcs[0], i, j),
                            read_elem(kernel, data, cta, role, &srcs[1], i, j),
                        );
                        write_elem(kernel, data, cta, role, dst, i, j, v);
                    }
                }
            }
            SimtOp::RowReduce {
                op, include_dst, ..
            } => {
                for i in 0..dst.rows {
                    let mut acc = if *include_dst {
                        read_elem(kernel, data, cta, role, dst, i, 0)
                    } else {
                        op.identity()
                    };
                    for j in 0..srcs[0].cols {
                        acc = op.apply(acc, read_elem(kernel, data, cta, role, &srcs[0], i, j));
                    }
                    write_elem(kernel, data, cta, role, dst, i, 0, acc);
                }
            }
            SimtOp::RowZip { op, .. } => {
                for i in 0..dst.rows {
                    let r = read_elem(kernel, data, cta, role, &srcs[1], i, 0);
                    for j in 0..dst.cols {
                        let v = op.apply(read_elem(kernel, data, cta, role, &srcs[0], i, j), r);
                        write_elem(kernel, data, cta, role, dst, i, j, v);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, RedOp, SimtOp, UnOp};
    use crate::kernel::{Role, RoleKind};
    use crate::mem::{FragDecl, ParamDecl, Slice, SmemDecl};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DTYPES: [DType; 3] = [DType::F16, DType::BF16, DType::F32];

    /// A kernel whose declarations (not roles) drive the applies: one
    /// parameter, one multi-stage shared region, and three fragments per
    /// role, with randomized shapes and dtypes.
    fn random_kernel(rng: &mut StdRng) -> Kernel {
        let dims = |rng: &mut StdRng| (rng.gen_range(1..10usize), rng.gen_range(1..10usize));
        let (pr, pc) = dims(rng);
        let (sr, sc) = dims(rng);
        let frags = (0..3)
            .map(|i| {
                let (fr, fc) = dims(rng);
                FragDecl {
                    name: format!("f{i}"),
                    rows: fr,
                    cols: fc,
                }
            })
            .collect();
        Kernel {
            name: "apply-oracle".into(),
            grid: [1, 1, 1],
            params: vec![ParamDecl {
                name: "p".into(),
                rows: pr,
                cols: pc,
                dtype: DTYPES[rng.gen_range(0..3)],
            }],
            smem: vec![SmemDecl {
                name: "s".into(),
                rows: sr,
                cols: sc,
                dtype: DTYPES[rng.gen_range(0..3)],
                stages: rng.gen_range(1..4),
            }],
            frags,
            mbars: Vec::new(),
            roles: vec![Role {
                kind: RoleKind::Compute(0),
                body: Vec::new(),
            }],
            persistent: false,
        }
    }

    /// Randomly filled functional state for `kernel` (one CTA, one role).
    fn random_data(kernel: &Kernel, rng: &mut StdRng) -> FuncData {
        let fill = |n: usize, rng: &mut StdRng| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
        };
        let params = kernel
            .params
            .iter()
            .map(|p| {
                // Quantized contents, as stores through the engine leave them.
                Tensor::from_data(p.dtype, &[p.rows, p.cols], fill(p.rows * p.cols, rng))
                    .expect("shape matches data")
            })
            .collect();
        let smem = vec![kernel
            .smem
            .iter()
            .map(|d| fill(d.rows * d.cols * d.stages, rng))
            .collect()];
        let frags = vec![vec![kernel
            .frags
            .iter()
            .map(|f| fill(f.rows * f.cols, rng))
            .collect()]];
        FuncData {
            params,
            smem,
            frags,
        }
    }

    /// A random in-bounds `rows x cols` slice of the memory object.
    fn random_slice(
        kernel: &Kernel,
        mem: MemRef,
        rows: usize,
        cols: usize,
        rng: &mut StdRng,
    ) -> Option<RSlice> {
        let (pr, pc, stages) = match mem {
            MemRef::Param(i) => (kernel.params[i].rows, kernel.params[i].cols, 1),
            MemRef::Smem(i) => {
                let d = &kernel.smem[i];
                (d.rows, d.cols, d.stages)
            }
            MemRef::Frag(i) => (kernel.frags[i].rows, kernel.frags[i].cols, 1),
        };
        if rows > pr || cols > pc {
            return None;
        }
        Some(RSlice {
            mem,
            stage: rng.gen_range(0..stages),
            row0: rng.gen_range(0..pr - rows + 1),
            col0: rng.gen_range(0..pc - cols + 1),
            rows,
            cols,
        })
    }

    fn assert_bitwise_equal(fast: &FuncData, oracle: &FuncData, what: &str) {
        for (i, (a, b)) in fast.params.iter().zip(&oracle.params).enumerate() {
            for (j, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: param {i} elem {j}");
            }
        }
        for (a, b) in fast.smem[0].iter().zip(&oracle.smem[0]) {
            for (j, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: smem elem {j}");
            }
        }
        for (a, b) in fast.frags[0][0].iter().zip(&oracle.frags[0][0]) {
            for (j, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: frag elem {j}");
            }
        }
    }

    fn clone_data(d: &FuncData) -> FuncData {
        FuncData {
            params: d.params.clone(),
            smem: d.smem.clone(),
            frags: d.frags.clone(),
        }
    }

    fn random_mem(kernel: &Kernel, rng: &mut StdRng) -> MemRef {
        match rng.gen_range(0..3) {
            0 => MemRef::Param(0),
            1 => MemRef::Smem(0),
            _ => MemRef::Frag(rng.gen_range(0..kernel.frags.len())),
        }
    }

    #[test]
    fn copy_matches_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut cases = 0;
        while cases < 300 {
            let kernel = random_kernel(&mut rng);
            let data = random_data(&kernel, &mut rng);
            // Pick a destination slice, then any source slice with the
            // same element count (scalar copy streams the source
            // linearly, so shapes may differ).
            let (dm, sm) = (random_mem(&kernel, &mut rng), random_mem(&kernel, &mut rng));
            if sm == dm {
                continue; // overlapping same-object copies are not emitted
            }
            let Some(dst) = random_slice(
                &kernel,
                dm,
                rng.gen_range(1..5),
                rng.gen_range(1..5),
                &mut rng,
            ) else {
                continue;
            };
            let n = dst.rows * dst.cols;
            // Try a handful of factorizations of n for the source shape.
            let (sr, sc) = (1..=n)
                .filter(|c| n % c == 0)
                .map(|c| (n / c, c))
                .nth(rng.gen_range(0..4).min(n - 1))
                .unwrap_or((n, 1));
            let Some(src) = random_slice(&kernel, sm, sr, sc, &mut rng) else {
                continue;
            };
            assert_copy_matches_oracle(&kernel, &data, &src, &dst, "copy");
            cases += 1;
        }
        // The generator above rarely spans a declaration's full width:
        // one batched `quantize_copy` (both sides dense) and the per-row
        // loop (strided) explicitly, across and within a pool, at each
        // destination dtype.
        for (cols, dtype) in [80, 40].into_iter().flat_map(|c| DTYPES.map(|d| (c, d))) {
            let kernel = tile_kernel(dtype, &mut rng);
            let data = random_data(&kernel, &mut rng);
            for (sm, dm) in [
                (MemRef::Param(1), MemRef::Smem(0)),
                (MemRef::Frag(0), MemRef::Param(0)),
                (MemRef::Frag(0), MemRef::Frag(1)),
            ] {
                let src = random_slice(&kernel, sm, 5, cols, &mut rng).expect("fits 80 x 80");
                let dst = random_slice(&kernel, dm, 5, cols, &mut rng).expect("fits 80 x 80");
                let dense = View::of(&kernel, 0, 0, &dst).stride == cols;
                assert_eq!(dense, cols == 80);
                let what = format!("copy {cols} wide {sm:?} -> {dm:?}");
                assert_copy_matches_oracle(&kernel, &data, &src, &dst, &what);
            }
        }
    }

    /// Run one `copy` through the fast path and the scalar oracle on
    /// copies of `data` and compare every buffer bitwise.
    fn assert_copy_matches_oracle(
        kernel: &Kernel,
        data: &FuncData,
        src: &RSlice,
        dst: &RSlice,
        what: &str,
    ) {
        let mut fast = clone_data(data);
        let mut oracle = clone_data(data);
        let mut scratch = Scratch::default();
        copy(kernel, &mut fast, &mut scratch, 0, 0, src, dst).unwrap();
        scalar::copy(kernel, &mut oracle, 0, 0, src, dst).unwrap();
        assert_bitwise_equal(&fast, &oracle, what);
    }

    /// The `lanes` caps of [`wgmma_rows`] that select the portable, AVX2
    /// and AVX-512 instantiations; a cap the CPU lacks the feature for
    /// falls back to the next narrower one.
    const LANES: [usize; 3] = [4, 8, 16];

    /// Run one `wgmma` through the fast path — at the width the host
    /// dispatches to, and through each instantiation the host has called
    /// directly, which a wider host would otherwise never execute — and
    /// the scalar oracle on copies of `data`, and compare every buffer
    /// bitwise.
    fn assert_wgmma_matches_oracle(
        kernel: &Kernel,
        data: &FuncData,
        [a, b, acc]: [&RSlice; 3],
        accumulate: bool,
        transpose_b: bool,
        what: &str,
    ) {
        let mut fast = clone_data(data);
        let mut oracle = clone_data(data);
        let mut scratch = Scratch::default();
        wgmma(
            kernel,
            &mut fast,
            &mut scratch,
            0,
            0,
            a,
            b,
            acc,
            accumulate,
            transpose_b,
        )
        .unwrap();
        scalar::wgmma(
            kernel,
            &mut oracle,
            0,
            0,
            a,
            b,
            acc,
            accumulate,
            transpose_b,
        )
        .unwrap();
        assert_bitwise_equal(&fast, &oracle, what);

        let [av, bv, cv] = [a, b, acc].map(|s| View::of(kernel, 0, 0, s));
        let n = acc.cols;
        for lanes in LANES {
            let mut direct = clone_data(data);
            let (sa, sb) = stage_operands(&mut scratch, &direct, &av, &bv, n, transpose_b);
            let out = direct.buf_mut(cv.key);
            wgmma_rows(
                lanes, &scratch.a, &sa, &scratch.b, &sb, out, &cv, n, accumulate,
            );
            assert_bitwise_equal(&direct, &oracle, &format!("{what} ({lanes} lanes)"));
        }
    }

    #[test]
    fn wgmma_matches_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut cases = 0;
        while cases < 300 {
            let kernel = random_kernel(&mut rng);
            let data = random_data(&kernel, &mut rng);
            let (m, n, k) = (
                rng.gen_range(1..8),
                rng.gen_range(1..20),
                rng.gen_range(1..8),
            );
            let transpose_b = rng.gen_bool(0.5);
            let accumulate = rng.gen_bool(0.5);
            let am = random_mem(&kernel, &mut rng);
            let bm = random_mem(&kernel, &mut rng);
            let cm = random_mem(&kernel, &mut rng);
            // The accumulator must not alias an operand's buffer (the
            // validator's register-accumulator rule guarantees this for
            // compiled kernels; the scalar oracle interleaves otherwise).
            if cm == am || cm == bm {
                continue;
            }
            let Some(a) = random_slice(&kernel, am, m, k, &mut rng) else {
                continue;
            };
            let (br, bc) = if transpose_b { (n, k) } else { (k, n) };
            let Some(b) = random_slice(&kernel, bm, br, bc, &mut rng) else {
                continue;
            };
            let Some(acc) = random_slice(&kernel, cm, m, n, &mut rng) else {
                continue;
            };
            assert_wgmma_matches_oracle(
                &kernel,
                &data,
                [&a, &b, &acc],
                accumulate,
                transpose_b,
                "wgmma",
            );
            cases += 1;
        }
    }

    /// The second generator: every declaration `80 x 80` — two
    /// parameters, two three-stage shared regions, three fragments — so
    /// slices span several microkernel tiles and sit at non-zero
    /// `row0`/`col0`/`stage`. `dst` is the dtype of `Param(0)` and
    /// `Smem(0)`, where the cases below put a non-fragment accumulator.
    fn tile_kernel(dst: DType, rng: &mut StdRng) -> Kernel {
        const DIM: usize = 80;
        let mut kernel = random_kernel(rng);
        kernel.params = [dst, DTYPES[rng.gen_range(0..3)]]
            .into_iter()
            .enumerate()
            .map(|(i, dtype)| ParamDecl {
                name: format!("p{i}"),
                rows: DIM,
                cols: DIM,
                dtype,
            })
            .collect();
        kernel.smem = [dst, DTYPES[rng.gen_range(0..3)]]
            .into_iter()
            .enumerate()
            .map(|(i, dtype)| SmemDecl {
                name: format!("s{i}"),
                rows: DIM,
                cols: DIM,
                dtype,
                stages: 3,
            })
            .collect();
        for f in &mut kernel.frags {
            (f.rows, f.cols) = (DIM, DIM);
        }
        kernel
    }

    /// Where the operands of one tile case live.
    #[derive(Debug, Clone, Copy)]
    enum Placement {
        /// `a`, `b` in params / shared memory, `acc` a fragment: the
        /// zero-copy path of every compiled kernel.
        SplitBorrow,
        /// `a` a sibling fragment of `acc`, `b` in shared memory.
        SiblingFragment,
        /// `acc` in `Param(0)` / `Smem(0)` (stores quantize to the
        /// destination dtype): everything staged.
        QuantizedDestination,
        /// All three operands fragments: staged out of `acc`'s own pool.
        SamePool,
    }

    #[test]
    fn wgmma_tiles_match_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0x711E);
        // m and n at a multiple of the tile, one below and one above it —
        // of all three tile widths for n — plus wide tiles followed by
        // `NR`-wide tail tiles (24, 40, 48, 56, 72) and a tail of every
        // kind at once (63, 79).
        let ms = [MR - 1, MR, MR + 1, 2 * MR, 2 * MR + 1, 16 * MR];
        let ns = [
            7, 8, 9, 15, 16, 17, 24, 32, 33, 40, 48, 56, 63, 64, 65, 72, 79,
        ];
        let placements = [
            Placement::SplitBorrow,
            Placement::SiblingFragment,
            Placement::QuantizedDestination,
            Placement::SamePool,
        ];
        let mut case = 0usize;
        for (m, n) in ms.into_iter().flat_map(|m| ns.map(|n| (m, n))) {
            for (transpose_b, accumulate) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                for placement in placements {
                    case += 1;
                    let kernel = tile_kernel(DTYPES[case % 3], &mut rng);
                    let data = random_data(&kernel, &mut rng);
                    let k = [1, 3, 16, 64, 80][rng.gen_range(0..5)];
                    let elsewhere =
                        |rng: &mut StdRng| [MemRef::Param(1), MemRef::Smem(1)][rng.gen_range(0..2)];
                    let (am, bm, cm) = match placement {
                        Placement::SplitBorrow => {
                            (elsewhere(&mut rng), elsewhere(&mut rng), MemRef::Frag(0))
                        }
                        Placement::SiblingFragment => {
                            let (af, cf) = [(0, 1), (2, 1)][rng.gen_range(0..2)];
                            (MemRef::Frag(af), elsewhere(&mut rng), MemRef::Frag(cf))
                        }
                        Placement::QuantizedDestination => (
                            [elsewhere(&mut rng), MemRef::Frag(0)][rng.gen_range(0..2)],
                            [elsewhere(&mut rng), MemRef::Frag(1)][rng.gen_range(0..2)],
                            [MemRef::Param(0), MemRef::Smem(0)][rng.gen_range(0..2)],
                        ),
                        Placement::SamePool => (MemRef::Frag(0), MemRef::Frag(1), MemRef::Frag(2)),
                    };
                    let (br, bc) = if transpose_b { (n, k) } else { (k, n) };
                    let slice = |mem, rows, cols, rng: &mut StdRng| {
                        random_slice(&kernel, mem, rows, cols, rng).expect("fits 80 x 80")
                    };
                    let a = slice(am, m, k, &mut rng);
                    let b = slice(bm, br, bc, &mut rng);
                    let acc = slice(cm, m, n, &mut rng);
                    let what = format!(
                        "{m}x{n}x{k} transpose_b={transpose_b} accumulate={accumulate} {placement:?}"
                    );
                    assert_wgmma_matches_oracle(
                        &kernel,
                        &data,
                        [&a, &b, &acc],
                        accumulate,
                        transpose_b,
                        &what,
                    );
                }
            }
        }
    }

    #[test]
    fn wgmma_rejects_shape_mismatch_like_the_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        let kernel = random_kernel(&mut rng);
        let mut data = random_data(&kernel, &mut rng);
        let mut scratch = Scratch::default();
        let slice = |rows, cols| RSlice {
            mem: MemRef::Frag(0),
            stage: 0,
            row0: 0,
            col0: 0,
            rows,
            cols,
        };
        let err = wgmma(
            &kernel,
            &mut data,
            &mut scratch,
            0,
            0,
            &slice(1, 2),
            &slice(3, 1),
            &slice(1, 1),
            false,
            false,
        );
        assert!(matches!(err, Err(SimError::OutOfBounds { .. })));
    }

    #[test]
    fn simt_matches_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0xABAD_1DEA);
        let mut cases = 0;
        while cases < 400 {
            let kernel = random_kernel(&mut rng);
            let data = random_data(&kernel, &mut rng);
            let (rows, cols) = (rng.gen_range(1..6), rng.gen_range(1..6));
            let dm = random_mem(&kernel, &mut rng);
            let Some(dst) = random_slice(&kernel, dm, rows, cols, &mut rng) else {
                continue;
            };
            // Sources either live elsewhere or alias the destination
            // slice exactly (the in-place RowZip/Map the compiler emits).
            let source = |rng: &mut StdRng, rows: usize, cols: usize| -> Option<RSlice> {
                if rng.gen_bool(0.25) && rows == dst.rows && cols == dst.cols {
                    return Some(dst);
                }
                let sm = random_mem(&kernel, rng);
                if sm == dm {
                    return None;
                }
                random_slice(&kernel, sm, rows, cols, rng)
            };
            // Dummy embedded slices: the applies operate on the resolved
            // `srcs`/`dst` slices, not the op's own (unresolved) ones.
            let ph = || Slice::frag(0);
            let (op, srcs): (SimtOp, Vec<RSlice>) = match rng.gen_range(0..5) {
                0 => (
                    SimtOp::Fill {
                        dst: ph(),
                        value: rng.gen_range(-2.0..2.0),
                    },
                    Vec::new(),
                ),
                1 => {
                    let Some(s) = source(&mut rng, rows, cols) else {
                        continue;
                    };
                    (
                        SimtOp::Map {
                            op: [UnOp::Exp, UnOp::Neg, UnOp::Recip, UnOp::Scale(1.5)]
                                [rng.gen_range(0..4)],
                            src: ph(),
                            dst: ph(),
                        },
                        vec![s],
                    )
                }
                2 => {
                    let (Some(s0), Some(s1)) =
                        (source(&mut rng, rows, cols), source(&mut rng, rows, cols))
                    else {
                        continue;
                    };
                    (
                        SimtOp::Zip {
                            op: [BinOp::Add, BinOp::Mul, BinOp::Max][rng.gen_range(0..3)],
                            a: ph(),
                            b: ph(),
                            dst: ph(),
                        },
                        vec![s0, s1],
                    )
                }
                3 => {
                    if cols != 1 {
                        continue; // reductions write a column vector
                    }
                    let src_cols = rng.gen_range(1..6);
                    let Some(s) = source(&mut rng, rows, src_cols) else {
                        continue;
                    };
                    (
                        SimtOp::RowReduce {
                            op: [RedOp::Sum, RedOp::Max][rng.gen_range(0..2)],
                            src: ph(),
                            dst: ph(),
                            include_dst: rng.gen_bool(0.5),
                        },
                        vec![s],
                    )
                }
                _ => {
                    let (Some(s0), Some(s1)) =
                        (source(&mut rng, rows, cols), source(&mut rng, rows, 1))
                    else {
                        continue;
                    };
                    (
                        SimtOp::RowZip {
                            op: [BinOp::Mul, BinOp::Sub, BinOp::Div][rng.gen_range(0..3)],
                            src: ph(),
                            row: ph(),
                            dst: ph(),
                        },
                        vec![s0, s1],
                    )
                }
            };
            let mut fast = clone_data(&data);
            let mut oracle = clone_data(&data);
            let mut scratch = Scratch::default();
            simt(&kernel, &mut fast, &mut scratch, 0, 0, &op, &srcs, &dst).unwrap();
            scalar::simt(&kernel, &mut oracle, 0, 0, &op, &srcs, &dst).unwrap();
            assert_bitwise_equal(&fast, &oracle, "simt");
            cases += 1;
        }
    }
}
