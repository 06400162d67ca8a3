//! Pseudo-CUDA pretty printer.
//!
//! The paper's prototype emits CUDA C++ (§4); this reproduction targets the
//! simulator, but renders each compiled kernel as warp-specialized
//! pseudo-CUDA so the generated structure can be inspected and
//! golden-tested against the shape of Fig. 1b.

use cypress_sim::{Cond, Expr, Instr, Kernel, RoleKind, SimtOp};
use std::fmt::Write as _;

/// Render `kernel` as pseudo-CUDA.
#[must_use]
pub(crate) fn render(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "__global__ void {}(", kernel.name);
    for (i, p) in kernel.params.iter().enumerate() {
        let comma = if i + 1 == kernel.params.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {}* {} /* {}x{} */{comma}",
            p.dtype, p.name, p.rows, p.cols
        );
    }
    let _ = writeln!(
        out,
        ") {{  // grid ({}, {}, {})",
        kernel.grid[0], kernel.grid[1], kernel.grid[2]
    );
    for s in &kernel.smem {
        let _ = writeln!(
            out,
            "  __shared__ {} {}[{}][{}][{}];",
            s.dtype, s.name, s.stages, s.rows, s.cols
        );
    }
    for (i, m) in kernel.mbars.iter().enumerate() {
        let _ = writeln!(
            out,
            "  __shared__ barrier bar{i};  // expects {}",
            m.expected
        );
    }
    for f in &kernel.frags {
        let _ = writeln!(
            out,
            "  float {}[{}][{}];  // registers, per warpgroup",
            f.name, f.rows, f.cols
        );
    }
    for role in &kernel.roles {
        match role.kind {
            RoleKind::Dma => {
                let _ = writeln!(
                    out,
                    "  if (warp_id() == {}) {{  // DMA warp",
                    kernel.num_compute_warpgroups() * 4
                );
            }
            RoleKind::Compute(i) => {
                let _ = writeln!(
                    out,
                    "  if (warpgroup_id() == {i}) {{  // compute warpgroup {i}"
                );
            }
        }
        for instr in &role.body {
            render_instr(kernel, instr, 2, &mut out);
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

fn render_instr(k: &Kernel, instr: &Instr, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match instr {
        Instr::TmaLoad { src, dst, bar } => {
            let _ = writeln!(
                out,
                "{pad}TMA_load({} -> {}, bar{bar});",
                slice(k, src),
                slice(k, dst)
            );
        }
        Instr::TmaStore { src, dst } => {
            let _ = writeln!(
                out,
                "{pad}TMA_store({} -> {});",
                slice(k, src),
                slice(k, dst)
            );
        }
        Instr::TmaStoreWait => {
            let _ = writeln!(out, "{pad}tma_store_wait();");
        }
        Instr::CpAsyncLoad { src, dst, bar } => {
            let _ = writeln!(
                out,
                "{pad}cp_async({} -> {}, bar{bar});",
                slice(k, src),
                slice(k, dst)
            );
        }
        Instr::MbarArrive { bar } => {
            let _ = writeln!(out, "{pad}arrive(bar{bar});");
        }
        Instr::MbarWait { bar } => {
            let _ = writeln!(out, "{pad}wait(bar{bar});");
        }
        Instr::Wgmma {
            a,
            b,
            acc,
            transpose_b,
            ..
        } => {
            let t = if *transpose_b {
                ", /*transpose B*/"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{pad}wgmma({} , {} -> {}{t});",
                slice(k, a),
                slice(k, b),
                slice(k, acc)
            );
        }
        Instr::WgmmaWait { pending } => {
            let _ = writeln!(out, "{pad}warpgroup_wait<{pending}>();");
        }
        Instr::Simt(op) => render_simt(k, op, &pad, out),
        Instr::NamedBarrier { id, parties } => {
            let _ = writeln!(out, "{pad}bar.sync({id}, {parties});");
        }
        Instr::Syncthreads => {
            let _ = writeln!(out, "{pad}__syncthreads();");
        }
        Instr::Loop { var, count, body } => {
            let _ = writeln!(
                out,
                "{pad}for (int i{var} = 0; i{var} < {count}; ++i{var}) {{"
            );
            for i in body {
                render_instr(k, i, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Instr::If { cond, then_, else_ } => {
            let c = match cond {
                Cond::Ge(a, b) => format!("{a} >= {b}"),
                Cond::Lt(a, b) => format!("{a} < {b}"),
                Cond::Eq(a, b) => format!("{a} == {b}"),
            };
            let _ = writeln!(out, "{pad}if ({c}) {{");
            for i in then_ {
                render_instr(k, i, depth + 1, out);
            }
            if else_.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for i in else_ {
                    render_instr(k, i, depth + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

fn render_simt(k: &Kernel, op: &SimtOp, pad: &str, out: &mut String) {
    match op {
        SimtOp::Fill { dst, value } => {
            let _ = writeln!(out, "{pad}fill({}, {value});", slice(k, dst));
        }
        SimtOp::Copy { src, dst } => {
            let _ = writeln!(out, "{pad}copy({} -> {});", slice(k, src), slice(k, dst));
        }
        SimtOp::Map { op, src, dst } => {
            let _ = writeln!(
                out,
                "{pad}map({op:?}, {} -> {});",
                slice(k, src),
                slice(k, dst)
            );
        }
        SimtOp::Zip { op, a, b, dst } => {
            let _ = writeln!(
                out,
                "{pad}zip({op:?}, {}, {} -> {});",
                slice(k, a),
                slice(k, b),
                slice(k, dst)
            );
        }
        SimtOp::RowReduce {
            op,
            src,
            dst,
            include_dst,
        } => {
            let _ = writeln!(
                out,
                "{pad}row_reduce({op:?}, {} -> {}, running={include_dst});",
                slice(k, src),
                slice(k, dst)
            );
        }
        SimtOp::RowZip { op, src, row, dst } => {
            let _ = writeln!(
                out,
                "{pad}row_zip({op:?}, {}, {} -> {});",
                slice(k, src),
                slice(k, row),
                slice(k, dst)
            );
        }
    }
}

fn slice(k: &Kernel, s: &cypress_sim::Slice) -> String {
    let name = match s.mem {
        cypress_sim::MemRef::Param(i) => k.params[i].name.clone(),
        cypress_sim::MemRef::Smem(i) => k.smem[i].name.clone(),
        cypress_sim::MemRef::Frag(i) => k.frags[i].name.clone(),
    };
    let stage = if matches!(s.stage, Expr::Lit(0)) {
        String::new()
    } else {
        format!("[{}]", s.stage)
    };
    format!(
        "{name}{stage}[{}:{}x{}][{}:{}x1]",
        s.row0, s.rows, 1, s.col0, s.cols
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_sim::{KernelBuilder, RoleKind, Slice};
    use cypress_tensor::DType;

    #[test]
    fn renders_structure() {
        let mut b = KernelBuilder::new("k", [2, 1, 1]);
        let a = b.param("A", 8, 8, DType::F16);
        let sa = b.smem("sA", 8, 8, DType::F16, 2);
        let bar = b.mbar(1);
        b.role(
            RoleKind::Dma,
            vec![Instr::TmaLoad {
                src: Slice::param(a).extent(8, 8),
                dst: Slice::smem(sa).extent(8, 8),
                bar,
            }],
        );
        b.role(RoleKind::Compute(0), vec![Instr::MbarWait { bar }]);
        let k = b.build();
        let s = render(&k);
        assert!(s.contains("__global__ void k("));
        assert!(s.contains("TMA_load"));
        assert!(s.contains("// DMA warp"));
        assert!(s.contains("wait(bar0)"));
        assert!(s.contains("__shared__ f16 sA[2][8][8];"));
    }
}
