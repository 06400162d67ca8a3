//! Flattening of the instruction tree into a linear program.
//!
//! The engine executes a flat program with explicit jump targets instead of
//! recursing into [`Instr::Loop`]/[`Instr::If`] bodies, so an executor's
//! state is just a program counter plus a loop stack. Bytecode lowering
//! turns this program into its own, position for position.

use crate::expr::{Cond, Expr};
use crate::instr::Instr;

/// One flattened operation.
#[derive(Debug, Clone)]
pub(crate) enum Flat<'k> {
    /// A non-control instruction.
    Op(&'k Instr),
    /// Loop header; body begins at the next index, `end` is the index just
    /// past the matching [`Flat::LoopEnd`].
    LoopStart {
        var: usize,
        count: &'k Expr,
        end: usize,
    },
    /// Loop back-edge (targets live in the executor's loop stack).
    LoopEnd,
    /// Conditional branch; the then-block follows, `else_target` is taken
    /// when the condition is false.
    Branch { cond: &'k Cond, else_target: usize },
    /// Unconditional jump.
    Jump(usize),
    /// End of the role's program.
    End,
}

/// Flatten a role body into a linear program terminated by [`Flat::End`].
pub(crate) fn flatten(body: &[Instr]) -> Vec<Flat<'_>> {
    let mut out = Vec::new();
    emit(body, &mut out);
    out.push(Flat::End);
    out
}

fn emit<'k>(block: &'k [Instr], out: &mut Vec<Flat<'k>>) {
    for instr in block {
        match instr {
            Instr::Loop { var, count, body } => {
                let header = out.len();
                out.push(Flat::LoopStart {
                    var: *var,
                    count,
                    end: usize::MAX,
                });
                emit(body, out);
                out.push(Flat::LoopEnd);
                let end = out.len();
                if let Flat::LoopStart { end: e, .. } = &mut out[header] {
                    *e = end;
                }
            }
            Instr::If { cond, then_, else_ } => {
                let branch = out.len();
                out.push(Flat::Branch {
                    cond,
                    else_target: usize::MAX,
                });
                emit(then_, out);
                let jump = out.len();
                out.push(Flat::Jump(usize::MAX));
                let else_start = out.len();
                if let Flat::Branch { else_target, .. } = &mut out[branch] {
                    *else_target = else_start;
                }
                emit(else_, out);
                let end = out.len();
                if let Flat::Jump(t) = &mut out[jump] {
                    *t = end;
                }
            }
            other => out.push(Flat::Op(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Cond, Expr};

    #[test]
    fn flat_loop_targets() {
        let body = vec![Instr::Loop {
            var: 0,
            count: Expr::lit(3),
            body: vec![Instr::Syncthreads],
        }];
        let f = flatten(&body);
        // LoopStart, Op(Syncthreads), LoopEnd, End
        assert_eq!(f.len(), 4);
        match &f[0] {
            Flat::LoopStart { end, .. } => assert_eq!(*end, 3),
            other => panic!("expected LoopStart, got {other:?}"),
        }
        assert!(matches!(f[2], Flat::LoopEnd));
        assert!(matches!(f[3], Flat::End));
    }

    #[test]
    fn flat_if_targets() {
        let body = vec![Instr::If {
            cond: Cond::Ge(Expr::var(0), Expr::lit(1)),
            then_: vec![Instr::Syncthreads],
            else_: vec![Instr::Syncthreads, Instr::Syncthreads],
        }];
        let f = flatten(&body);
        // Branch, Op, Jump, Op, Op, End
        assert_eq!(f.len(), 6);
        match &f[0] {
            Flat::Branch { else_target, .. } => assert_eq!(*else_target, 3),
            other => panic!("expected Branch, got {other:?}"),
        }
        match &f[2] {
            Flat::Jump(t) => assert_eq!(*t, 5),
            other => panic!("expected Jump, got {other:?}"),
        }
    }
}
