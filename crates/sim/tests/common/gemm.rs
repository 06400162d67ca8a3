//! The Fig. 1b GEMM kernel, hand-built against the simulator's own
//! builder: shared by `gemm_pipeline.rs` and `timing_allocs.rs`.

use cypress_sim::{Cond, Expr, Instr, KernelBuilder, RoleKind, SimtOp, Slice};
use cypress_tensor::DType;

pub const T_M: usize = 64;
const T_N: usize = 64;
const T_K: usize = 32;

/// Build the Fig. 1b GEMM kernel for `C[M,N] = A[M,K] @ B[K,N]`.
///
/// `pipe` is the software pipeline depth; `arrive_cons` lets tests omit the
/// consumer barrier to demonstrate deadlock detection.
pub fn build_gemm(
    m: usize,
    n: usize,
    k: usize,
    pipe: usize,
    arrive_cons: bool,
) -> cypress_sim::Kernel {
    assert!(m.is_multiple_of(T_M) && n.is_multiple_of(T_N) && k.is_multiple_of(T_K));
    let mut b = KernelBuilder::new("gemm_fig1b", [m / T_M, n / T_N, 1]);
    let ga = b.param("A", m, k, DType::F16);
    let gb = b.param("B", k, n, DType::F16);
    let gc = b.param("C", m, n, DType::F16);
    let sa = b.smem("sA", T_M, T_K, DType::F16, pipe);
    let sb = b.smem("sB", T_K, T_N, DType::F16, pipe);
    let sc = b.smem("sC", T_M, T_N, DType::F16, 1);
    let acc = b.frag("acc", T_M, T_N);
    let prod = b.mbar(2); // A and B tile loads complete one phase
    let cons = b.mbar(1); // the single consumer warpgroup frees a stage
    let copyout = b.mbar(1); // accumulator staged to shared memory

    let trips = (k / T_K) as i64;

    // DMA warp: prefetch loop + store-out (Fig. 1b lines 6-19).
    let kv = b.fresh_var();
    let dma_loop = Instr::Loop {
        var: kv,
        count: Expr::lit(trips),
        body: vec![
            Instr::If {
                cond: Cond::Ge(Expr::var(kv), Expr::lit(pipe as i64)),
                then_: vec![Instr::MbarWait { bar: cons }],
                else_: vec![],
            },
            Instr::TmaLoad {
                src: Slice::param(ga)
                    .at(Expr::block_x() * T_M as i64, Expr::var(kv) * T_K as i64)
                    .extent(T_M, T_K),
                dst: Slice::smem(sa)
                    .stage(Expr::var(kv) % pipe as i64)
                    .extent(T_M, T_K),
                bar: prod,
            },
            Instr::TmaLoad {
                src: Slice::param(gb)
                    .at(Expr::var(kv) * T_K as i64, Expr::block_y() * T_N as i64)
                    .extent(T_K, T_N),
                dst: Slice::smem(sb)
                    .stage(Expr::var(kv) % pipe as i64)
                    .extent(T_K, T_N),
                bar: prod,
            },
        ],
    };
    b.role(
        RoleKind::Dma,
        vec![
            dma_loop,
            Instr::MbarWait { bar: copyout },
            Instr::TmaStore {
                src: Slice::smem(sc).extent(T_M, T_N),
                dst: Slice::param(gc)
                    .at(Expr::block_x() * T_M as i64, Expr::block_y() * T_N as i64)
                    .extent(T_M, T_N),
            },
            Instr::TmaStoreWait,
        ],
    );

    // Compute warpgroup: wait for tiles, run the Tensor Core, free stages
    // (Fig. 1b lines 21-33).
    let kc = b.fresh_var();
    let mut loop_body = vec![Instr::MbarWait { bar: prod }];
    for step in 0..T_K / 16 {
        loop_body.push(Instr::Wgmma {
            a: Slice::smem(sa)
                .stage(Expr::var(kc) % pipe as i64)
                .at(0, step * 16)
                .extent(T_M, 16),
            b: Slice::smem(sb)
                .stage(Expr::var(kc) % pipe as i64)
                .at(step * 16, 0)
                .extent(16, T_N),
            acc: Slice::frag(acc).extent(T_M, T_N),
            accumulate: true,
            transpose_b: false,
        });
    }
    loop_body.push(Instr::WgmmaWait { pending: 0 });
    if arrive_cons {
        loop_body.push(Instr::MbarArrive { bar: cons });
    }
    b.role(
        RoleKind::Compute(0),
        vec![
            Instr::Simt(SimtOp::Fill {
                dst: Slice::frag(acc).extent(T_M, T_N),
                value: 0.0,
            }),
            Instr::Loop {
                var: kc,
                count: Expr::lit(trips),
                body: loop_body,
            },
            Instr::Simt(SimtOp::Copy {
                src: Slice::frag(acc).extent(T_M, T_N),
                dst: Slice::smem(sc).extent(T_M, T_N),
            }),
            Instr::MbarArrive { bar: copyout },
        ],
    );
    b.build()
}
