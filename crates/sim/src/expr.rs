//! Integer expression mini-language for device programs.
//!
//! Tile offsets, pipeline-stage indices and loop trip counts in a
//! [`crate::Kernel`] are expressions over block indices and loop variables,
//! evaluated per CTA / per iteration by the engine. Expressions are built
//! with ordinary Rust operators:
//!
//! ```
//! use cypress_sim::expr::Expr;
//!
//! let e = (Expr::block_x() * 128 + Expr::var(0)) % 3;
//! ```

use std::fmt;
use std::ops;

/// An integer expression evaluated against an [`Env`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Lit(i64),
    /// Loop variable, identified by the kernel-unique id used in
    /// [`crate::Instr::Loop`].
    Var(usize),
    /// CTA index along x.
    BlockX,
    /// CTA index along y.
    BlockY,
    /// CTA index along z.
    BlockZ,
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Difference.
    Sub(Box<Expr>, Box<Expr>),
    /// Product.
    Mul(Box<Expr>, Box<Expr>),
    /// Euclidean quotient.
    Div(Box<Expr>, Box<Expr>),
    /// Euclidean remainder.
    Mod(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Literal constant.
    #[must_use]
    pub fn lit(v: i64) -> Self {
        Expr::Lit(v)
    }

    /// Loop variable with id `id`.
    #[must_use]
    pub fn var(id: usize) -> Self {
        Expr::Var(id)
    }

    /// CTA x index.
    #[must_use]
    pub fn block_x() -> Self {
        Expr::BlockX
    }

    /// CTA y index.
    #[must_use]
    pub fn block_y() -> Self {
        Expr::BlockY
    }

    /// CTA z index (batch dimension in batched kernels).
    #[must_use]
    pub fn block_z() -> Self {
        Expr::BlockZ
    }

    /// Evaluate against `env`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for unbound loop variables or division by zero.
    pub fn eval(&self, env: &Env) -> Result<i64, EvalError> {
        match self {
            Expr::Lit(v) => Ok(*v),
            Expr::Var(id) => env.var(*id).ok_or(EvalError::UnboundVar(*id)),
            Expr::BlockX => Ok(env.block[0]),
            Expr::BlockY => Ok(env.block[1]),
            Expr::BlockZ => Ok(env.block[2]),
            Expr::Add(a, b) => Ok(a.eval(env)? + b.eval(env)?),
            Expr::Sub(a, b) => Ok(a.eval(env)? - b.eval(env)?),
            Expr::Mul(a, b) => Ok(a.eval(env)? * b.eval(env)?),
            Expr::Div(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(a.eval(env)?.div_euclid(d))
            }
            Expr::Mod(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(a.eval(env)?.rem_euclid(d))
            }
        }
    }

    /// `true` if the expression references any loop variable (used by
    /// bytecode lowering, which rejects a loop trip count that does with
    /// `KernelError::DynamicTripCount`).
    #[must_use]
    pub(crate) fn references_vars(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::BlockX | Expr::BlockY | Expr::BlockZ => false,
            Expr::Var(_) => true,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b) => a.references_vars() || b.references_vars(),
        }
    }

    /// `true` if the expression reads the CTA index (a trip count that
    /// does takes a different value on each CTA).
    #[must_use]
    pub(crate) fn references_block(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::Var(_) => false,
            Expr::BlockX | Expr::BlockY | Expr::BlockZ => true,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b) => a.references_block() || b.references_block(),
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::Lit(v)
    }
}

impl From<usize> for Expr {
    fn from(v: usize) -> Expr {
        Expr::Lit(v as i64)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Expr {
        Expr::Lit(i64::from(v))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl<R: Into<Expr>> ops::$trait<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::$variant(Box::new(self), Box::new(rhs.into()))
            }
        }
    };
}

impl_binop!(Add, add, Add);
impl_binop!(Sub, sub, Sub);
impl_binop!(Mul, mul, Mul);
impl_binop!(Div, div, Div);
impl_binop!(Rem, rem, Mod);

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Var(id) => write!(f, "i{id}"),
            Expr::BlockX => write!(f, "bx"),
            Expr::BlockY => write!(f, "by"),
            Expr::BlockZ => write!(f, "bz"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Mod(a, b) => write!(f, "({a} % {b})"),
        }
    }
}

/// A boolean condition for [`crate::Instr::If`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `a >= b`.
    Ge(Expr, Expr),
    /// `a < b`.
    Lt(Expr, Expr),
    /// `a == b`.
    Eq(Expr, Expr),
}

impl Cond {
    /// Evaluate against `env`.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the operand expressions.
    pub fn eval(&self, env: &Env) -> Result<bool, EvalError> {
        Ok(match self {
            Cond::Ge(a, b) => a.eval(env)? >= b.eval(env)?,
            Cond::Lt(a, b) => a.eval(env)? < b.eval(env)?,
            Cond::Eq(a, b) => a.eval(env)? == b.eval(env)?,
        })
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Ge(a, b) => write!(f, "{a} >= {b}"),
            Cond::Lt(a, b) => write!(f, "{a} < {b}"),
            Cond::Eq(a, b) => write!(f, "{a} == {b}"),
        }
    }
}

/// Evaluation environment: the CTA's block indices plus bound loop variables.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// `[bx, by, bz]`.
    pub block: [i64; 3],
    vars: Vec<Option<i64>>,
}

impl Env {
    /// Environment for the CTA at `block` with no loop variables bound.
    #[must_use]
    pub fn for_block(block: [i64; 3]) -> Self {
        Env {
            block,
            vars: Vec::new(),
        }
    }

    /// Bind loop variable `id` to `value` (shadowing any previous binding).
    pub fn bind(&mut self, id: usize, value: i64) {
        if self.vars.len() <= id {
            self.vars.resize(id + 1, None);
        }
        self.vars[id] = Some(value);
    }

    /// Remove the binding for `id`.
    pub(crate) fn unbind(&mut self, id: usize) {
        if let Some(slot) = self.vars.get_mut(id) {
            *slot = None;
        }
    }

    /// The value bound to loop variable `id`, if any.
    #[must_use]
    pub fn var(&self, id: usize) -> Option<i64> {
        self.vars.get(id).copied().flatten()
    }
}

/// Expression evaluation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// A loop variable was referenced outside its loop.
    UnboundVar(usize),
    /// Division or remainder by zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(id) => write!(f, "unbound loop variable i{id}"),
            EvalError::DivisionByZero => write!(f, "division by zero in index expression"),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let env = Env::for_block([2, 3, 0]);
        let e = (Expr::block_x() * 128 + Expr::block_y()) % 5;
        assert_eq!(e.eval(&env).unwrap(), (2 * 128 + 3) % 5);
    }

    #[test]
    fn loop_vars_bind_and_unbind() {
        let mut env = Env::for_block([0, 0, 0]);
        let e = Expr::var(1) + 1;
        assert_eq!(e.eval(&env), Err(EvalError::UnboundVar(1)));
        env.bind(1, 41);
        assert_eq!(e.eval(&env).unwrap(), 42);
        env.unbind(1);
        assert_eq!(e.eval(&env), Err(EvalError::UnboundVar(1)));
    }

    #[test]
    fn division_by_zero_detected() {
        let env = Env::default();
        assert_eq!(
            (Expr::lit(1) / 0).eval(&env),
            Err(EvalError::DivisionByZero)
        );
        assert_eq!(
            (Expr::lit(1) % 0).eval(&env),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn references_vars() {
        assert!(!(Expr::block_x() * 4).references_vars());
        assert!((Expr::var(0) + 1).references_vars());
    }

    #[test]
    fn conditions() {
        let mut env = Env::default();
        env.bind(0, 3);
        assert!(Cond::Ge(Expr::var(0), Expr::lit(3)).eval(&env).unwrap());
        assert!(Cond::Lt(Expr::var(0), Expr::lit(4)).eval(&env).unwrap());
        assert!(Cond::Eq(Expr::var(0), Expr::lit(3)).eval(&env).unwrap());
        assert!(!Cond::Eq(Expr::var(0), Expr::lit(2)).eval(&env).unwrap());
    }

    #[test]
    fn display_round_trip_shape() {
        let e = (Expr::block_x() + 1) * Expr::var(2);
        assert_eq!(e.to_string(), "((bx + 1) * i2)");
        assert_eq!(Cond::Ge(Expr::var(0), Expr::lit(3)).to_string(), "i0 >= 3");
    }

    #[test]
    fn euclidean_semantics() {
        let env = Env::default();
        assert_eq!((Expr::lit(-1) % 3).eval(&env).unwrap(), 2);
        assert_eq!((Expr::lit(-4) / 3).eval(&env).unwrap(), -2);
    }
}
