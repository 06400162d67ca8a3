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
//!   `a(i, k) * b(k, j)` in ascending `k`: the scalar interpreter's
//!   sequence of roundings, so results are **bitwise identical**. The one
//!   source of that loop is compiled at three widths: 4 x 8 (eight 4-lane
//!   accumulators, every host), 4 x 16 (eight 8-lane ones) inside a
//!   `#[target_feature(enable = "avx2")]` wrapper, and 4 x 64 (sixteen
//!   16-lane ones) inside a `#[target_feature(enable = "avx512f")]` one.
//!   `wgmma_rows` enters the widest wrapper whose feature it detects on
//!   the running CPU — this module's one `unsafe` block. A wider vector
//!   holds more *outputs*; it never touches the order of the sum within
//!   one, so the widths agree in every bit (the oracle tests below run
//!   each one the host has).
//!
//!   The scalar oracle multiplies, then adds: two roundings. A fused
//!   multiply-add rounds once, and agrees with them exactly when the
//!   product is exact in `f32`. It is when both operands are `F16` shared
//!   memory ([`exact_products`]): every store into shared memory is
//!   quantized to its dtype, so its elements are exact halves, and the
//!   product of two finite halves has at most 22 significant bits and a
//!   magnitude of 0 or between 2⁻⁴⁸ and 65504², well inside `f32`'s
//!   normal range (`cypress-tensor`'s `exhaustive` test checks all
//!   63 488² pairs); an infinite factor gives ±∞ or NaN either way. So
//!   `fma(a, b, c)` rounds `c + a·b` exactly where the oracle's add does,
//!   for every `c`. For those operands the AVX-512F tile and the AVX2 one
//!   (where the CPU has FMA) use `mul_add`, one instruction instead of
//!   two; the portable tile, fragment operands (FA2's P·V), `BF16` (whose
//!   products can fall below `f32`'s normal range) and `F32` multiply,
//!   then add.
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
use crate::instr::SimtOp;
use crate::kernel::Kernel;
use crate::mem::MemRef;
use cypress_tensor::{DType, Tensor};

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

/// Where an apply runs: the kernel whose declarations shape its slices,
/// and the CTA and role whose shared memory and fragments it touches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At<'k> {
    pub(crate) kernel: &'k Kernel,
    pub(crate) cta: usize,
    pub(crate) role: usize,
}

impl At<'_> {
    /// Element type of `mem`'s storage (fragments are unrounded `f32`).
    pub(crate) fn dtype(self, mem: MemRef) -> DType {
        match mem {
            MemRef::Param(i) => self.kernel.params[i].dtype,
            MemRef::Smem(i) => self.kernel.smem[i].dtype,
            MemRef::Frag(_) => DType::F32,
        }
    }
}

/// Operands of a WGMMA: `acc (+)= a @ b`, `b` transposed under
/// `transpose_b`.
#[derive(Debug)]
pub(crate) struct MmaOperands {
    pub(crate) a: RSlice,
    pub(crate) b: RSlice,
    pub(crate) acc: RSlice,
    pub(crate) accumulate: bool,
    pub(crate) transpose_b: bool,
}

/// One functional apply: a retired copy, WGMMA or SIMT operation and its
/// resolved operands.
#[derive(Clone, Copy)]
pub(crate) enum Apply<'a> {
    Copy {
        src: &'a RSlice,
        dst: &'a RSlice,
    },
    Wgmma(&'a MmaOperands),
    Simt {
        op: &'a SimtOp,
        srcs: &'a [RSlice],
        dst: &'a RSlice,
    },
}

impl<'a> Apply<'a> {
    /// Every slice it reads or writes, in operand order.
    pub(crate) fn slices(self) -> impl Iterator<Item = &'a RSlice> {
        let (srcs, fixed): (&[RSlice], [Option<&RSlice>; 3]) = match self {
            Apply::Copy { src, dst } => (&[], [Some(src), Some(dst), None]),
            Apply::Wgmma(m) => (&[], [Some(&m.a), Some(&m.b), Some(&m.acc)]),
            Apply::Simt { srcs, dst, .. } => (srcs, [Some(dst), None, None]),
        };
        srcs.iter().chain(fixed.into_iter().flatten())
    }

    /// Apply it to `data` at `at` on the fast data path.
    pub(crate) fn run(
        self,
        at: At<'_>,
        data: &mut FuncData,
        scratch: &mut Scratch,
    ) -> Result<(), SimError> {
        match self {
            Apply::Copy { src, dst } => copy(at, data, scratch, src, dst),
            Apply::Wgmma(mma) => wgmma(at, data, scratch, mma),
            Apply::Simt { op, srcs, dst } => simt(at, data, scratch, op, srcs, dst),
        }
    }
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
    /// Resolve `s` against the kernel's declarations for the executor
    /// `at`. `s` has already been bounds-checked by the engine's slice
    /// resolution.
    fn of(at: At<'_>, s: &RSlice) -> View {
        let At { kernel, cta, role } = at;
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
fn copy(
    at: At<'_>,
    data: &mut FuncData,
    scratch: &mut Scratch,
    src: &RSlice,
    dst: &RSlice,
) -> Result<(), SimError> {
    let sv = View::of(at, src);
    let dv = View::of(at, dst);
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

/// Whether every product of `a`'s and `b`'s elements is exact in `f32`:
/// both are shared memory of dtype `F16` (see the module header).
/// Parameters do not qualify, whatever their dtype: `Tensor::data_mut`
/// stores unquantized values behind a half dtype.
fn exact_products(a: &View, b: &View) -> bool {
    let half_smem = |v: &View| matches!(v.key, BufKey::Smem { .. }) && v.dtype == DType::F16;
    half_smem(a) && half_smem(b)
}

/// The read-only operands of one run of the microkernel: `a` row-major
/// through `av`, `b` k-major (`b(kk, j)` at `bbuf[bv.row(kk) + j]`), the
/// view `cv` of the output the caller passes beside them, its `n`
/// columns, and whether the products add to what the output holds.
struct Gemm<'a> {
    abuf: &'a [f32],
    av: View,
    bbuf: &'a [f32],
    bv: View,
    cv: View,
    n: usize,
    accumulate: bool,
}

/// The register-tiled matrix-multiply microkernel over flat row-strided
/// operands: [`wgmma_rows_at`] at the widest tile the running CPU holds
/// in vectors of at most `lanes` `f32` lanes — AVX-512F, else AVX2, else
/// portable. The applies pass [`WIDEST`]; the tests pass 4, 8 and 16 to
/// run every instantiation the CPU has. Where the products are exact
/// ([`exact_products`]), the AVX-512F tile and the AVX2 one (where the
/// CPU has FMA) fuse each multiply and add (see the module header).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn wgmma_rows(lanes: usize, g: &Gemm<'_>, out: &mut [f32]) {
    let exact = exact_products(&g.av, &g.bv);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each wrapper is entered right after detecting its
    // requirements on the running CPU: `avx512f` for `wgmma_rows_avx512`,
    // `avx2` for `wgmma_rows_avx2`, `avx2` and `fma` for
    // `wgmma_rows_avx2_fma`.
    unsafe {
        if lanes >= 16 && std::arch::is_x86_feature_detected!("avx512f") {
            return if exact {
                wgmma_rows_avx512::<true>(g, out)
            } else {
                wgmma_rows_avx512::<false>(g, out)
            };
        }
        if lanes >= 8 && std::arch::is_x86_feature_detected!("avx2") {
            if exact && std::arch::is_x86_feature_detected!("fma") {
                return wgmma_rows_avx2_fma(g, out);
            }
            return wgmma_rows_avx2(g, out);
        }
    }
    wgmma_rows_at::<NR, false>(g, out);
}

/// [`wgmma_rows_at`] at [`NR_AVX512`], compiled with AVX-512F enabled: the
/// whole `#[inline(always)]` chain below is instantiated inside this
/// function, so its sixteen accumulators are ZMM registers. `avx512f`
/// implies `fma` (rustc enables the features it depends on), so under
/// `FUSED` each `mul_add` is one `vfmadd`. Nothing contracts otherwise:
/// rustc never sets LLVM's `contract` flag on a float operation, so the
/// unfused multiply and add stay two roundings.
///
/// # Safety
///
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn wgmma_rows_avx512<const FUSED: bool>(g: &Gemm<'_>, out: &mut [f32]) {
    wgmma_rows_at::<NR_AVX512, FUSED>(g, out);
}

/// [`wgmma_rows_at`] at [`NR_AVX2`], compiled with AVX2 enabled: the
/// accumulators are YMM registers. Only `avx2` is enabled — never `fma` —
/// so the multiply and the add stay two roundings.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn wgmma_rows_avx2(g: &Gemm<'_>, out: &mut [f32]) {
    wgmma_rows_at::<NR_AVX2, false>(g, out);
}

/// [`wgmma_rows_avx2`] with `fma` enabled too, for exact products only
/// (see [`wgmma_rows`]): each `mul_add` is one `vfmadd`.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn wgmma_rows_avx2_fma(g: &Gemm<'_>, out: &mut [f32]) {
    wgmma_rows_at::<NR_AVX2, true>(g, out);
}

/// [`wgmma_rows`] at tile width `W`, fused (`mul_add`) under `FUSED`.
///
/// Rows are taken `MR` at a time and columns `W` at a time through
/// [`Strip::tile`]; the `m % MR` row tail runs as one-row tiles, and the
/// `n % W` column tail as `NR`-wide tiles, then one-column tiles (a
/// `1 x 1` tile is the scalar form). Whatever the tile, every output element
/// `(i, j)` starts from its own initial value and adds `a(i, k) * b(k, j)`
/// in ascending `k` order — a multiply, then an add, or under `FUSED`
/// one `mul_add` of exact products, which rounds to the same value: the
/// scalar interpreter's sequence of results, so results are bitwise
/// identical. Tiling only changes which *outputs* are in flight, never
/// the order of operations within one.
#[inline(always)]
fn wgmma_rows_at<const W: usize, const FUSED: bool>(g: &Gemm<'_>, out: &mut [f32]) {
    let full = g.av.rows - g.av.rows % MR;
    for i0 in (0..full).step_by(MR) {
        row_block::<MR, W, FUSED>(g, out, i0);
    }
    for i0 in full..g.av.rows {
        row_block::<1, W, FUSED>(g, out, i0);
    }
}

/// Output rows `i0..i0 + R` of [`wgmma_rows_at`]: all `n` columns, then
/// the store quantization of the finished rows.
#[inline(always)]
fn row_block<const R: usize, const W: usize, const FUSED: bool>(
    g: &Gemm<'_>,
    out: &mut [f32],
    i0: usize,
) {
    let Gemm {
        abuf,
        ref av,
        bbuf,
        ref bv,
        ref cv,
        n,
        accumulate,
    } = *g;
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
    let mut j = strip.run::<W, FUSED>(out, 0);
    if W > NR {
        j = strip.run::<NR, FUSED>(out, j);
    }
    strip.run::<1, FUSED>(out, j);
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
    fn run<const C: usize, const FUSED: bool>(&self, out: &mut [f32], mut j: usize) -> usize {
        while self.n - j >= C {
            self.tile::<C, FUSED>(out, j);
            j += C;
        }
        j
    }

    /// One `R x C` tile at column `j0`: `out[c[r] + j] (+)= Σ_k a[r][k] *
    /// b(k, j)` for `j` in `j0..j0 + C`. The accumulators are a local
    /// array the optimizer keeps in registers; each one sees its products
    /// in ascending `k` order, fused under `FUSED`.
    #[inline(always)]
    fn tile<const C: usize, const FUSED: bool>(&self, out: &mut [f32], j0: usize) {
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
                    *slot = if FUSED {
                        a_ik.mul_add(*b_kj, *slot)
                    } else {
                        *slot + a_ik * b_kj
                    };
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
fn wgmma(
    at: At<'_>,
    data: &mut FuncData,
    scratch: &mut Scratch,
    mma: &MmaOperands,
) -> Result<(), SimError> {
    let MmaOperands {
        ref a,
        ref b,
        ref acc,
        accumulate,
        transpose_b,
    } = *mma;
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
    let av = View::of(at, a);
    let bv = View::of(at, b);
    let cv = View::of(at, acc);
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
        let g = Gemm {
            abuf: &[],
            av,
            bbuf,
            bv,
            cv,
            n,
            accumulate,
        };
        // Accumulator in the register pool, operands elsewhere: all three
        // views coexist on split borrows.
        if let Some(abuf) = param_or_smem(params, smem, av.key) {
            let out = &mut frags[fc][fr][facc];
            wgmma_rows(WIDEST, &Gemm { abuf, ..g }, out);
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
                wgmma_rows(WIDEST, &Gemm { abuf, ..g }, out);
                return Ok(());
            }
        }
    }
    // Anything else (hand-built kernels the validator admits but the
    // compiler never emits): stage both operands, then write through the
    // accumulator's buffer alone.
    let (av, bv) = stage_operands(scratch, data, &av, &bv, n, transpose_b);
    let g = Gemm {
        abuf: &scratch.a,
        av,
        bbuf: &scratch.b,
        bv,
        cv,
        n,
        accumulate,
    };
    wgmma_rows(WIDEST, &g, data.buf_mut(cv.key));
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
fn simt(
    at: At<'_>,
    data: &mut FuncData,
    scratch: &mut Scratch,
    op: &SimtOp,
    srcs: &[RSlice],
    dst: &RSlice,
) -> Result<(), SimError> {
    let dv = View::of(at, dst);
    match op {
        SimtOp::Fill { value, .. } => {
            let q = dv.dtype.quantize(*value);
            let out = data.buf_mut(dv.key);
            for i in 0..dv.rows {
                out[dv.row(i)..dv.row(i) + dv.cols].fill(q);
            }
        }
        SimtOp::Copy { .. } => {
            copy(at, data, scratch, &srcs[0], dst)?;
        }
        SimtOp::Map { op, .. } => {
            let sv = View::of(at, &srcs[0]);
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
            let s0 = View::of(at, &srcs[0]);
            let s1 = View::of(at, &srcs[1]);
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
            let sv = View::of(at, &srcs[0]);
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
            let s0 = View::of(at, &srcs[0]);
            let s1 = View::of(at, &srcs[1]);
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
    #[cfg(feature = "scalar-oracle")]
    use super::Apply;
    use super::{At, FuncData, MmaOperands, RSlice};
    use crate::error::SimError;
    use crate::instr::SimtOp;
    use crate::mem::MemRef;

    /// Apply `apply` to `data` at `at`, element by element.
    #[cfg(feature = "scalar-oracle")]
    pub(crate) fn run(at: At<'_>, data: &mut FuncData, apply: Apply<'_>) -> Result<(), SimError> {
        match apply {
            Apply::Copy { src, dst } => copy(at, data, src, dst),
            Apply::Wgmma(mma) => wgmma(at, data, mma),
            Apply::Simt { op, srcs, dst } => simt(at, data, op, srcs, dst),
        }
    }

    fn read_elem(at: At<'_>, data: &FuncData, s: &RSlice, i: usize, j: usize) -> f32 {
        let At { kernel, cta, role } = at;
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

    fn write_elem(at: At<'_>, data: &mut FuncData, s: &RSlice, i: usize, j: usize, v: f32) {
        let At { kernel, cta, role } = at;
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
        at: At<'_>,
        data: &mut FuncData,
        src: &RSlice,
        dst: &RSlice,
    ) -> Result<(), SimError> {
        // Extents were validated equal in element count; iterate in the
        // destination's shape, reading the source linearly.
        for idx in 0..dst.rows * dst.cols {
            let (di, dj) = (idx / dst.cols, idx % dst.cols);
            let (si, sj) = (idx / src.cols, idx % src.cols);
            let v = read_elem(at, data, src, si, sj);
            write_elem(at, data, dst, di, dj, v);
        }
        Ok(())
    }

    pub(crate) fn wgmma(
        at: At<'_>,
        data: &mut FuncData,
        mma: &MmaOperands,
    ) -> Result<(), SimError> {
        let MmaOperands {
            ref a,
            ref b,
            ref acc,
            accumulate,
            transpose_b,
        } = *mma;
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
                    read_elem(at, data, acc, i, j)
                } else {
                    0.0
                };
                for kk in 0..k {
                    let av = read_elem(at, data, a, i, kk);
                    let bv = if transpose_b {
                        read_elem(at, data, b, j, kk)
                    } else {
                        read_elem(at, data, b, kk, j)
                    };
                    v += av * bv;
                }
                write_elem(at, data, acc, i, j, v);
            }
        }
        Ok(())
    }

    pub(crate) fn simt(
        at: At<'_>,
        data: &mut FuncData,
        op: &SimtOp,
        srcs: &[RSlice],
        dst: &RSlice,
    ) -> Result<(), SimError> {
        match op {
            SimtOp::Fill { value, .. } => {
                for i in 0..dst.rows {
                    for j in 0..dst.cols {
                        write_elem(at, data, dst, i, j, *value);
                    }
                }
            }
            SimtOp::Copy { .. } => {
                copy(at, data, &srcs[0], dst)?;
            }
            SimtOp::Map { op, .. } => {
                for i in 0..dst.rows {
                    for j in 0..dst.cols {
                        let v = op.apply(read_elem(at, data, &srcs[0], i, j));
                        write_elem(at, data, dst, i, j, v);
                    }
                }
            }
            SimtOp::Zip { op, .. } => {
                for i in 0..dst.rows {
                    for j in 0..dst.cols {
                        let v = op.apply(
                            read_elem(at, data, &srcs[0], i, j),
                            read_elem(at, data, &srcs[1], i, j),
                        );
                        write_elem(at, data, dst, i, j, v);
                    }
                }
            }
            SimtOp::RowReduce {
                op, include_dst, ..
            } => {
                for i in 0..dst.rows {
                    let mut acc = if *include_dst {
                        read_elem(at, data, dst, i, 0)
                    } else {
                        op.identity()
                    };
                    for j in 0..srcs[0].cols {
                        acc = op.apply(acc, read_elem(at, data, &srcs[0], i, j));
                    }
                    write_elem(at, data, dst, i, 0, acc);
                }
            }
            SimtOp::RowZip { op, .. } => {
                for i in 0..dst.rows {
                    let r = read_elem(at, data, &srcs[1], i, 0);
                    for j in 0..dst.cols {
                        let v = op.apply(read_elem(at, data, &srcs[0], i, j), r);
                        write_elem(at, data, dst, i, j, v);
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
    use crate::engine::Buffers;
    use crate::instr::{BinOp, RedOp, SimtOp, UnOp};
    use crate::kernel::{Role, RoleKind};
    use crate::mem::{FragDecl, ParamDecl, Slice, SmemDecl};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DTYPES: [DType; 3] = [DType::F16, DType::BF16, DType::F32];

    /// The one CTA and role the tests' data holds.
    fn at0(kernel: &Kernel) -> At<'_> {
        At {
            kernel,
            cta: 0,
            role: 0,
        }
    }

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
        // Quantized too: every store into shared memory is, and the fused
        // WGMMA path relies on it (see `exact_products`).
        let smem = vec![kernel
            .smem
            .iter()
            .map(|d| {
                let mut buf = fill(d.rows * d.cols * d.stages, rng);
                d.dtype.quantize_slice(&mut buf);
                buf
            })
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
                let dense = View::of(at0(&kernel), &dst).stride == cols;
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
        copy(at0(kernel), &mut fast, &mut scratch, src, dst).unwrap();
        scalar::copy(at0(kernel), &mut oracle, src, dst).unwrap();
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
        let mma = MmaOperands {
            a: *a,
            b: *b,
            acc: *acc,
            accumulate,
            transpose_b,
        };
        wgmma(at0(kernel), &mut fast, &mut scratch, &mma).unwrap();
        scalar::wgmma(at0(kernel), &mut oracle, &mma).unwrap();
        assert_bitwise_equal(&fast, &oracle, what);

        let [av, bv, cv] = [a, b, acc].map(|s| View::of(at0(kernel), s));
        let n = acc.cols;
        for lanes in LANES {
            let mut direct = clone_data(data);
            let (sa, sb) = stage_operands(&mut scratch, &direct, &av, &bv, n, transpose_b);
            let out = direct.buf_mut(cv.key);
            let g = Gemm {
                abuf: &scratch.a,
                av: sa,
                bbuf: &scratch.b,
                bv: sb,
                cv,
                n,
                accumulate,
            };
            wgmma_rows(lanes, &g, out);
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
        let mma = MmaOperands {
            a: slice(1, 2),
            b: slice(3, 1),
            acc: slice(1, 1),
            accumulate: false,
            transpose_b: false,
        };
        let err = wgmma(at0(&kernel), &mut data, &mut scratch, &mma);
        assert!(matches!(err, Err(SimError::OutOfBounds { .. })));
    }

    /// A random SIMT operation writing `dst` and its resolved sources,
    /// each in another memory object than `dst` or `dst` itself (the
    /// in-place `RowZip`/`Map` the compiler emits); `None` when the draw
    /// does not fit. Sources are drawn before the operator, both sources
    /// of a binary operation whether or not the first fits.
    fn random_simt(
        kernel: &Kernel,
        dst: RSlice,
        rng: &mut StdRng,
    ) -> Option<(SimtOp, Vec<RSlice>)> {
        let (rows, cols) = (dst.rows, dst.cols);
        let source = |rng: &mut StdRng, rows: usize, cols: usize| -> Option<RSlice> {
            if rng.gen_bool(0.25) && rows == dst.rows && cols == dst.cols {
                return Some(dst);
            }
            let sm = random_mem(kernel, rng);
            if sm == dst.mem {
                return None;
            }
            random_slice(kernel, sm, rows, cols, rng)
        };
        // Dummy embedded slices: the applies operate on the resolved
        // `srcs`/`dst` slices, not the op's own (unresolved) ones.
        let ph = || Slice::frag(0);
        Some(match rng.gen_range(0..5) {
            0 => (
                SimtOp::Fill {
                    dst: ph(),
                    value: rng.gen_range(-2.0..2.0),
                },
                Vec::new(),
            ),
            1 => {
                let s = source(rng, rows, cols)?;
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
                let (s0, s1) = (source(rng, rows, cols), source(rng, rows, cols));
                let (s0, s1) = (s0?, s1?);
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
                    return None; // reductions write a column vector
                }
                let src_cols = rng.gen_range(1..6);
                let s = source(rng, rows, src_cols)?;
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
                let (s0, s1) = (source(rng, rows, cols), source(rng, rows, 1));
                let (s0, s1) = (s0?, s1?);
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
        })
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
            let Some((op, srcs)) = random_simt(&kernel, dst, &mut rng) else {
                continue;
            };
            let mut fast = clone_data(&data);
            let mut oracle = clone_data(&data);
            let mut scratch = Scratch::default();
            simt(at0(&kernel), &mut fast, &mut scratch, &op, &srcs, &dst).unwrap();
            scalar::simt(at0(&kernel), &mut oracle, &op, &srcs, &dst).unwrap();
            assert_bitwise_equal(&fast, &oracle, "simt");
            cases += 1;
        }
    }

    /// Whether every element of `buf` is a value of `dtype`.
    fn quantized(dtype: DType, buf: &[f32]) -> bool {
        buf.iter()
            .all(|&x| dtype.quantize(x).to_bits() == x.to_bits())
    }

    /// The invariant [`exact_products`] rests on: half-precision shared
    /// memory holds only values of its dtype. It starts as the engine's
    /// zero fill, fresh or recycled from a dirty buffer, and stays so
    /// through copies and SIMT operations from unquantized fragments and
    /// from a parameter written through `Tensor::data_mut`. A copy into
    /// shared memory that skips the quantize fails it.
    #[test]
    fn half_shared_memory_holds_only_values_of_its_dtype() {
        let mut rng = StdRng::seed_from_u64(0x0A_F160);
        for case in 0..200 {
            let mut kernel = random_kernel(&mut rng);
            let dtype = [DType::F16, DType::BF16][case % 2];
            kernel.smem[0].dtype = dtype;
            let mut data = random_data(&kernel, &mut rng);
            for x in data.params[0].data_mut() {
                *x = rng.gen_range(-2.0f32..2.0);
            }
            let d = &kernel.smem[0];
            let n = d.rows * d.cols * d.stages;
            let mut spare = Buffers::default();
            if case % 4 >= 2 {
                spare.give(vec![rng.gen_range(-2.0f32..2.0); n]);
            }
            data.smem[0][0] = spare.zeroed(n);
            assert!(quantized(dtype, &data.smem[0][0]), "case {case}: zero fill");
            let mut scratch = Scratch::default();
            for step in 0..20 {
                let (rows, cols) = (rng.gen_range(1..6), rng.gen_range(1..6));
                let Some(dst) = random_slice(&kernel, MemRef::Smem(0), rows, cols, &mut rng) else {
                    continue;
                };
                if rng.gen_bool(0.5) {
                    let sm = [MemRef::Param(0), MemRef::Frag(0)][rng.gen_range(0..2)];
                    let Some(src) = random_slice(&kernel, sm, rows, cols, &mut rng) else {
                        continue;
                    };
                    copy(at0(&kernel), &mut data, &mut scratch, &src, &dst).unwrap();
                } else if let Some((op, srcs)) = random_simt(&kernel, dst, &mut rng) {
                    simt(at0(&kernel), &mut data, &mut scratch, &op, &srcs, &dst).unwrap();
                }
                assert!(
                    quantized(dtype, &data.smem[0][0]),
                    "case {case} step {step}: {dtype:?} shared memory"
                );
            }
        }
    }

    /// Half-precision operands at the edges of the format — ±65504,
    /// 2⁻²⁴ (the least subnormal), 2⁻¹⁴ (the least normal), ±0 and ±∞ —
    /// against `f32` accumulators near overflow, in the subnormal range
    /// and cancelling a product exactly: the fused tiles (both operands
    /// `F16` shared memory) agree with the scalar multiply-then-add in
    /// every bit, at every width the host has.
    #[test]
    fn fused_wgmma_matches_the_oracle_at_the_edges_of_half() {
        let mut rng = StdRng::seed_from_u64(0x0F16_ED6E);
        let edges = [65504.0f32, 2f32.powi(-24), 2f32.powi(-14), 0.0, 1.0, 1.5];
        let operand = |rng: &mut StdRng| -> f32 {
            let x = match rng.gen_range(0..40) {
                0 => f32::INFINITY,
                1..=16 => edges[rng.gen_range(0..edges.len())],
                _ => DType::F16.quantize(rng.gen_range(-2.0f32..2.0)),
            };
            if rng.gen_bool(0.5) {
                -x
            } else {
                x
            }
        };
        let accumulator = |rng: &mut StdRng| -> f32 {
            let x = match rng.gen_range(0..5) {
                0 => f32::MAX * [1.0, 0.999_999_9, 0.5][rng.gen_range(0..3)],
                1 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
                2 => f32::MIN_POSITIVE,
                3 => edges[rng.gen_range(0..edges.len())] * edges[rng.gen_range(0..edges.len())],
                _ => rng.gen_range(-2.0f32..2.0),
            };
            if rng.gen_bool(0.5) {
                -x
            } else {
                x
            }
        };
        let shapes = [1, 4, 5, 16]
            .into_iter()
            .flat_map(|m| [8, 17, 64, 79].map(|n| (m, n)));
        let flags = [(false, false), (false, true), (true, false), (true, true)];
        for ((m, n), (transpose_b, accumulate)) in
            shapes.flat_map(|shape| flags.map(|flag| (shape, flag)))
        {
            let mut kernel = tile_kernel(DType::F16, &mut rng);
            kernel.smem[1].dtype = DType::F16;
            let mut data = random_data(&kernel, &mut rng);
            for buf in &mut data.smem[0] {
                buf.iter_mut().for_each(|x| *x = operand(&mut rng));
            }
            for buf in &mut data.frags[0][0] {
                buf.iter_mut().for_each(|x| *x = accumulator(&mut rng));
            }
            let k = [1, 3, 16][rng.gen_range(0..3)];
            let (br, bc) = if transpose_b { (n, k) } else { (k, n) };
            let slice = |mem, rows, cols, rng: &mut StdRng| {
                random_slice(&kernel, mem, rows, cols, rng).expect("fits 80 x 80")
            };
            let a = slice(MemRef::Smem(0), m, k, &mut rng);
            let b = slice(MemRef::Smem(1), br, bc, &mut rng);
            let acc = slice(MemRef::Frag(0), m, n, &mut rng);
            assert!(exact_products(
                &View::of(at0(&kernel), &a),
                &View::of(at0(&kernel), &b)
            ));
            let what =
                format!("edges {m}x{n}x{k} transpose_b={transpose_b} accumulate={accumulate}");
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
