//! Textual form of the IR, mirroring the notation of the paper's Fig. 8/9.
//!
//! Used by golden tests and the `compiler_pipeline` example to show the IR
//! after each pass.

use super::{Block, EvIdx, EventRef, EventType, IdxExpr, IrProgram, OpKind, TensorRef};
use std::fmt::Write as _;

/// Render a whole program.
#[must_use]
pub fn print_program(p: &IrProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {} {{", p.name);
    for t in &p.tensors {
        let param = t.param.map(|i| format!(" param{i}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "  %t{} = tensor [{}x{} {}] @{}{}",
            t.id, t.rows, t.cols, t.dtype, t.mem, param
        );
    }
    for pt in &p.parts {
        let _ = writeln!(
            out,
            "  %p{} = partition %t{} {:?}",
            pt.id, pt.parent, pt.kind
        );
    }
    print_block(&p.body, 1, &mut out);
    out.push('}');
    out.push('\n');
    out
}

fn print_block(b: &Block, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for op in &b.ops {
        let ty = fmt_type(&op.ty);
        let pre = fmt_pre(&op.pre);
        match &op.kind {
            OpKind::Copy { src, dst } => {
                let _ = writeln!(
                    out,
                    "{pad}%e{}: {ty} = copy({}, {}), {pre}",
                    op.result,
                    fmt_ref(src),
                    fmt_ref(dst)
                );
            }
            OpKind::Call { f, args } => {
                let a: Vec<String> = args.iter().map(fmt_ref).collect();
                let _ = writeln!(
                    out,
                    "{pad}%e{}: {ty} = call({f:?}, {}), {pre}",
                    op.result,
                    a.join(", ")
                );
            }
            OpKind::For { var, extent, body } => {
                let _ = writeln!(
                    out,
                    "{pad}%e{}: {ty} = for i{var} in [0, {extent}), {pre} do",
                    op.result
                );
                print_block(body, indent + 1, out);
            }
            OpKind::Pfor {
                var,
                extent,
                proc,
                body,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}%e{}: {ty} = pfor i{var} in [0, {extent}) @{proc}, {pre} do",
                    op.result
                );
                print_block(body, indent + 1, out);
            }
        }
    }
}

fn fmt_type(t: &EventType) -> String {
    match t {
        EventType::Unit => "()".to_string(),
        EventType::Array(dims) => {
            let d: Vec<String> = dims.iter().map(|(n, p)| format!("({n}, {p})")).collect();
            format!("[{}]", d.join(", "))
        }
    }
}

fn fmt_pre(pre: &[EventRef]) -> String {
    let items: Vec<String> = pre.iter().map(fmt_event).collect();
    format!("{{{}}}", items.join(", "))
}

fn fmt_event(e: &EventRef) -> String {
    if e.idx.is_empty() {
        return format!("%e{}", e.event);
    }
    let idx: Vec<String> = e
        .idx
        .iter()
        .map(|i| match i {
            EvIdx::All => ":".to_string(),
            EvIdx::Var(v) => format!("i{v}"),
        })
        .collect();
    format!("%e{}[{}]", e.event, idx.join(", "))
}

fn fmt_idx(i: &IdxExpr) -> String {
    match (i.var, i.scale, i.offset) {
        (None, _, o) => format!("{o}"),
        (Some(v), 1, 0) => format!("i{v}"),
        (Some(v), s, 0) => format!("{s}*i{v}"),
        (Some(v), 1, o) => format!("i{v}+{o}"),
        (Some(v), s, o) => format!("{s}*i{v}+{o}"),
    }
}

fn fmt_ref(r: &TensorRef) -> String {
    let mut s = format!("%t{}", r.tensor);
    for (p, idx) in &r.path {
        let i: Vec<String> = idx.iter().map(fmt_idx).collect();
        let _ = write!(s, ".%p{}[{}]", p, i.join(", "));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::machine::{MemLevel, ProcLevel};
    use cypress_tensor::DType;

    #[test]
    fn prints_fig8_like_shapes() {
        let mut p = IrProgram::new("clear");
        let c = p.add_tensor("C", 64, 64, DType::F16, MemLevel::None, None);
        let e0 = p.fresh_event();
        let v = p.fresh_var();
        let e1 = p.fresh_event();
        let body = Block {
            ops: vec![super::super::Op {
                result: e1,
                ty: EventType::Unit,
                pre: vec![],
                kind: OpKind::Call {
                    f: crate::front::ast::LeafFn::Fill(0.0),
                    args: vec![TensorRef::whole(c)],
                },
            }],
        };
        p.body.ops.push(super::super::Op {
            result: e0,
            ty: EventType::Array(vec![(4, ProcLevel::Warp)]),
            pre: vec![],
            kind: OpKind::Pfor {
                var: v,
                extent: 4,
                proc: ProcLevel::Warp,
                body,
            },
        });
        let s = print_program(&p);
        assert!(s.contains("pfor i0 in [0, 4) @WARP"), "{s}");
        assert!(s.contains("[(4, WARP)]"), "{s}");
        assert!(s.contains("call(Fill(0.0), %t0)"), "{s}");
    }
}
