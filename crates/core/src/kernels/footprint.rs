//! What a kernel family stages and launches at one mapping point — the
//! one place a family's shared-memory bytes, divisibility rule and
//! traffic are written down.
//!
//! A [`MappingSpace`](crate::MappingSpace) names its [`Footprint`]; the
//! trait's provided `validate` holds the measured launch against
//! the machine's budgets, `candidates` filters its grid through that,
//! and `estimate` hands the same launch to the cost model
//! ([`crate::kernels::cost`]). All of it is checked arithmetic: a
//! mapping can come from a file (`MappingConfig::decode` ← a persisted
//! tuning table), and one whose products overflow `usize` is a typed
//! error, never a panic and never a small wrapped "requirement".

use crate::error::CompileError;
use crate::kernels::attention::Algorithm;
use crate::kernels::comm::{tensor_bytes, ELEM};
use crate::kernels::cost::{Launch, Pipeline, Work};
use crate::kernels::space::{MappingConfig, Shape};
use std::ops::{Add, Mul};

/// The five shapes a kernel family's working set takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// The Fig. 5a family over `[m, n, k]` (`[l, m, n, k]` when
    /// `batched`, the batch peeled at grid level): each pipeline stage
    /// holds one `U x W` row-operand tile and `b_tiles` `W x V`
    /// column-operand tiles and feeds `wgmmas` Tensor Core ops; the
    /// `U x V` store staging and `vec_accs` `U`-row vector stagings sit
    /// outside the loop.
    Gemm {
        /// Column operands (`B`-shaped tiles per stage).
        b_tiles: usize,
        /// Tensor Core ops per staged tile set.
        wgmmas: usize,
        /// Row-vector accumulators staged on store.
        vec_accs: usize,
        /// Whether the shape leads with a batch extent.
        batched: bool,
    },
    /// FlashAttention over `[heads, seq, head_dim]`: FA2 stages one K/V
    /// pair per stage and steps one `Bc` tile per iteration, FA3 two.
    Attention(Algorithm),
    /// `Y = X0 + X1 + …` elementwise over `[ways, m, n]`: the sum of
    /// `ways >= 2` inputs.
    Fold,
    /// The chained dual-GEMM over `[m, n, k, mid]`: the `U x mid`
    /// intermediate band stays resident beside both phases' pipelined
    /// operand tiles.
    Chain,
    /// The row reduction over `[m, k]`: one `U x W` tile per stage.
    RowReduce,
}

/// A `usize` under checked `+` and `*`: once a step overflows, every
/// later result is the overflow.
#[derive(Debug, Clone, Copy)]
struct Checked(Option<usize>);

impl Checked {
    /// The value, or the typed error `kernel`'s mapping gets for
    /// describing more bytes than `usize` counts.
    fn get(self, kernel: &str) -> Result<usize, CompileError> {
        self.0.ok_or_else(|| {
            CompileError::Unsupported(format!(
                "`{kernel}` mapping overflows the footprint arithmetic"
            ))
        })
    }
}

impl<T: Into<Checked>> Mul<T> for Checked {
    type Output = Checked;
    fn mul(self, rhs: T) -> Checked {
        Checked(self.0.zip(rhs.into().0).and_then(|(a, b)| a.checked_mul(b)))
    }
}

impl<T: Into<Checked>> Add<T> for Checked {
    type Output = Checked;
    fn add(self, rhs: T) -> Checked {
        Checked(self.0.zip(rhs.into().0).and_then(|(a, b)| a.checked_add(b)))
    }
}

impl From<usize> for Checked {
    fn from(value: usize) -> Checked {
        Checked(Some(value))
    }
}

/// `outer * inner` rows of an entry argument that folds an outer extent
/// (batch, heads) into its rows: a shape whose rows overflow `usize` is
/// the same typed error as a footprint that does.
pub(crate) fn folded_rows(kernel: &str, outer: usize, inner: usize) -> Result<usize, CompileError> {
    (Checked::from(outer) * inner).get(kernel)
}

/// The most inputs one fold sums: an all-reduce takes one per device,
/// and each is an entry argument and a launch in the task tree, so the
/// bound is what keeps a hostile extent from sizing those lists.
const MAX_FOLD_INPUTS: usize = 1 << 10;

/// `2 <= inputs <= MAX_FOLD_INPUTS`, for the input count of a fold.
pub(crate) fn fold_inputs(kernel: &str, inputs: usize) -> Result<(), CompileError> {
    at_least(kernel, "inputs", inputs, 2)?;
    if inputs <= MAX_FOLD_INPUTS {
        return Ok(());
    }
    Err(CompileError::Unsupported(format!(
        "`{kernel}` folds at most {MAX_FOLD_INPUTS} inputs, got {inputs}"
    )))
}

/// `value >= min`, for the extents that count things (batch, heads,
/// all-reduce inputs).
fn at_least(kernel: &str, what: &str, value: usize, min: usize) -> Result<(), CompileError> {
    if value >= min {
        return Ok(());
    }
    Err(CompileError::Unsupported(format!(
        "`{kernel}` needs {what} >= {min}, got {value}"
    )))
}

/// The warpgroup row split every family shares: `wgs >= 1` warpgroups,
/// `pipeline >= 1` stages, and `rows` block-tile rows that are `band`
/// rows per warpgroup (64: one wgmma row band) — any equal split when
/// the kernel issues no wgmma.
fn check_split(
    kernel: &str,
    rows: usize,
    wgs: usize,
    pipeline: usize,
    band: Option<usize>,
) -> Result<(), CompileError> {
    if wgs == 0 || pipeline == 0 {
        return Err(CompileError::Unsupported(format!(
            "`{kernel}` mapping needs wgs >= 1 and pipeline >= 1"
        )));
    }
    let splits = match band {
        Some(band) => band.checked_mul(wgs) == Some(rows),
        None => rows != 0 && rows.is_multiple_of(wgs),
    };
    if splits {
        return Ok(());
    }
    let bands = band.map_or("equal bands".into(), |band| format!("{band}-row bands"));
    Err(CompileError::Partition(format!(
        "`{kernel}` block tile rows {rows} must split into {wgs} warpgroups' {bands}"
    )))
}

/// Every `(extent, its name, tile, its name)`: the tile is non-zero and
/// divides the extent.
fn check_tiles(kernel: &str, tiles: &[(usize, &str, usize, &str)]) -> Result<(), CompileError> {
    for &(dim, name, tile, tname) in tiles {
        if tile == 0 || !dim.is_multiple_of(tile) {
            return Err(CompileError::Partition(format!(
                "`{kernel}` tile {tname}={tile} does not divide {name}={dim}"
            )));
        }
    }
    Ok(())
}

impl Footprint {
    /// Check `cfg` against `shape` — rank, mapping kind, warpgroup
    /// split, tile divisibility — and measure what it launches.
    ///
    /// # Errors
    ///
    /// [`CompileError::Partition`] for tiles that do not divide the
    /// problem or rows that do not split across the warpgroups,
    /// [`CompileError::Unsupported`] for malformed shapes, mappings of
    /// the wrong kind, and mappings whose byte counts overflow.
    pub(crate) fn measure(
        &self,
        kernel: &str,
        shape: &Shape,
        cfg: &MappingConfig,
    ) -> Result<Launch, CompileError> {
        match *self {
            Footprint::Gemm {
                b_tiles,
                wgmmas,
                vec_accs,
                batched,
            } => {
                let [l, m, n, k] = if batched {
                    shape.expect_dims::<4>(kernel)?
                } else {
                    let [m, n, k] = shape.expect_dims::<3>(kernel)?;
                    [1, m, n, k]
                };
                at_least(kernel, "a batch", l, 1)?;
                let c = cfg.as_gemm(kernel)?;
                check_split(kernel, c.u, c.wgs, c.pipeline, Some(64))?;
                check_tiles(
                    kernel,
                    &[(m, "M", c.u, "U"), (n, "N", c.v, "V"), (k, "K", c.w, "W")],
                )?;
                let [u, v, w] = [c.u, c.v, c.w].map(Checked::from);
                let staged = (u * w + w * v * b_tiles) * c.pipeline * ELEM;
                let tile = u * v;
                // Per CTA the A panel (u x k) plus `b_tiles` B panels
                // (k x v) stream in and the C tile streams out; distinct
                // bytes are A once and each B panel once, per batch.
                let loads = (u + v * b_tiles) * k * ELEM;
                let unique = (Checked::from(m) * k + Checked::from(k) * n * b_tiles) * ELEM;
                let warps = (Checked::from(c.wgs) + usize::from(c.warpspecialize)) * 4;
                let tc_flops = 2.0 * wgmmas as f64 * (c.u as f64) * (c.v as f64) * k as f64;
                Ok(Launch {
                    ctas: (Checked::from(m / c.u) * (n / c.v) * l).get(kernel)?,
                    smem_bytes: (staged + tile * ELEM + u * vec_accs * ELEM).get(kernel)?,
                    regs_per_thread: 0,
                    work: Some(Work::Pipelined(Pipeline {
                        warps_per_cta: warps.get(kernel)?,
                        tc_flops_per_cta: tc_flops,
                        load_bytes_per_cta: loads.get(kernel)? as f64,
                        store_bytes_per_cta: (tile * ELEM).get(kernel)? as f64,
                        // Epilogue clear + accumulate of the C tile.
                        simt_flops_per_cta: (tile * wgmmas).get(kernel)? as f64,
                        sfu_ops_per_cta: 0.0,
                        unique_load_bytes: unique.get(kernel)? as f64 * l as f64,
                        iters: (k / c.w) as f64,
                        pipeline: c.pipeline,
                        warpspecialize: c.warpspecialize,
                    })),
                })
            }
            Footprint::Attention(algorithm) => {
                let [heads, seq, head_dim] = shape.expect_dims::<3>(kernel)?;
                at_least(kernel, "heads", heads, 1)?;
                let c = cfg.as_attention(kernel)?;
                check_split(kernel, c.br, c.wgs, c.pipeline, Some(64))?;
                if c.bc == 0 || c.bc % 16 != 0 {
                    return Err(CompileError::Partition(format!(
                        "`{kernel}` K/V tile Bc={} must be a positive multiple of 16",
                        c.bc
                    )));
                }
                // FA3 keeps two K/V pairs in flight per stage and steps
                // over two `Bc` tiles per iteration.
                let pairs = match algorithm {
                    Algorithm::Fa2 => 1,
                    Algorithm::Fa3 => 2,
                };
                let [br, bc] = [c.br, c.bc].map(Checked::from);
                let kv_step = (bc * pairs).get(kernel)?;
                check_tiles(
                    kernel,
                    &[
                        (seq, "seq", c.br, "Br"),
                        (seq, "seq", kv_step, "Bc per iteration"),
                    ],
                )?;
                // Per stage the K/V tiles plus the Q tile, which is
                // reloaded per iteration of the K/V loop; the output
                // store staging sits outside the loop.
                let staged = (bc * (2 * pairs) + br) * c.pipeline + br;
                // Q tile once, the full K and V streams per CTA; O tile
                // out.
                let loads = (br + Checked::from(seq) * 2) * head_dim * ELEM;
                let unique = Checked::from(heads) * 3 * seq * head_dim * ELEM;
                // Online softmax: row-max, exp, two rescales over the
                // br x seq score matrix (SIMT), one exp per score (SFU).
                let scores = (c.br as f64) * seq as f64;
                Ok(Launch {
                    ctas: (Checked::from(heads) * (seq / c.br)).get(kernel)?,
                    smem_bytes: (staged * head_dim * ELEM).get(kernel)?,
                    regs_per_thread: 0,
                    work: Some(Work::Pipelined(Pipeline {
                        // The FA kernels always run a producer warpgroup.
                        warps_per_cta: ((Checked::from(c.wgs) + 1) * 4).get(kernel)?,
                        // QK^T and PV: two br x seq x d contractions per
                        // row band.
                        tc_flops_per_cta: 4.0 * (c.br as f64) * seq as f64 * head_dim as f64,
                        load_bytes_per_cta: loads.get(kernel)? as f64,
                        store_bytes_per_cta: (br * head_dim * ELEM).get(kernel)? as f64,
                        simt_flops_per_cta: 6.0 * scores,
                        sfu_ops_per_cta: scores,
                        unique_load_bytes: unique.get(kernel)? as f64,
                        iters: (seq / kv_step) as f64,
                        pipeline: c.pipeline,
                        warpspecialize: true,
                    })),
                })
            }
            Footprint::Fold => {
                let [inputs, m, n] = shape.expect_dims::<3>(kernel)?;
                fold_inputs(kernel, inputs)?;
                let c = cfg.as_gemm(kernel)?;
                check_split(kernel, c.u, c.wgs, c.pipeline, None)?;
                check_tiles(kernel, &[(m, "M", c.u, "U"), (n, "N", c.v, "V")])?;
                // Staged at once, each in its own region: the inbound
                // tile of `X0`, one tile per input folded in, and the
                // accumulator's outbound staging.
                Ok(Launch {
                    ctas: (Checked::from(m / c.u) * (n / c.v)).get(kernel)?,
                    smem_bytes: (Checked::from(c.u) * c.v * (inputs + 1) * ELEM).get(kernel)?,
                    regs_per_thread: 0,
                    // Every input streams in once, the output out once.
                    work: Some(Work::Streamed {
                        hbm_bytes: tensor_bytes(m, n) * (inputs as f64 + 1.0),
                    }),
                })
            }
            Footprint::Chain => {
                let [m, n, k, mid] = shape.expect_dims::<4>(kernel)?;
                let c = cfg.as_gemm(kernel)?;
                check_split(kernel, c.u, c.wgs, c.pipeline, Some(64))?;
                check_tiles(
                    kernel,
                    &[
                        (m, "M", c.u, "U"),
                        (k, "K", c.w, "W"),
                        (mid, "MID", c.w, "W"),
                        (mid, "MID", c.v, "V"),
                        (n, "N", c.v, "V"),
                    ],
                )?;
                let [u, v, w] = [c.u, c.v, c.w].map(Checked::from);
                // Resident at once: the shared-memory intermediate band
                // (u x mid), both phases' pipelined operand tiles, and
                // one chunk store staging. Unlike the other arms this is
                // not the compiled kernel's byte count: it misses some
                // mappings' stagings and over-counts others.
                let staged = (u * w + w * v) * c.pipeline * 2;
                // Both phases' 64 x V chunk accumulators live in
                // registers at once, spread over a warpgroup's 128
                // threads: V registers each, beside ~64 for the rest.
                let regs = v + 64;
                Ok(Launch {
                    ctas: (Checked::from(m / c.u) * (n / c.v)).get(kernel)?,
                    smem_bytes: ((u * mid + staged + u * v) * ELEM).get(kernel)?,
                    regs_per_thread: regs.get(kernel)?,
                    work: None,
                })
            }
            Footprint::RowReduce => {
                let [m, k] = shape.expect_dims::<2>(kernel)?;
                let c = cfg.as_gemm(kernel)?;
                check_split(kernel, c.u, c.wgs, c.pipeline, Some(64))?;
                check_tiles(kernel, &[(m, "M", c.u, "U"), (k, "K", c.w, "W")])?;
                let u = Checked::from(c.u);
                // Per stage one A tile; plus the Y staging.
                Ok(Launch {
                    ctas: m / c.u,
                    smem_bytes: ((u * c.w * c.pipeline + u) * ELEM).get(kernel)?,
                    regs_per_thread: 0,
                    work: None,
                })
            }
        }
    }
}
