//! Abstract syntax of feature expressions.

use fstore_common::Value;
use std::fmt;

/// Binary operators, grouped by family for type checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub(crate) fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }
    pub(crate) fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
    pub(crate) fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnOp {
    Neg,
    Not,
    IsNull,
    IsNotNull,
}

/// An expression tree. Column references are by name at parse time and are
/// bound to indices when compiled against a schema (see [`crate::program`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    Literal(Value),
    Column(String),
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `CASE WHEN c1 THEN e1 … [ELSE e] END`
    Case {
        branches: Vec<(Expr, Expr)>,
        otherwise: Option<Box<Expr>>,
    },
    /// Built-in scalar function call.
    Call {
        func: String,
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column names referenced anywhere in the tree (sorted, deduplicated) —
    /// used by the registry to record feature→source-column lineage.
    pub(crate) fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.clone());
            }
        });
        out.sort();
        out.dedup();
        out
    }

    fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) => {}
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (c, e) in branches {
                    c.walk(f);
                    e.walk(f);
                }
                if let Some(e) = otherwise {
                    e.walk(f);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_columns_dedup_and_sort() {
        let e = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::Column("b".into())),
            right: Box::new(Expr::Call {
                func: "coalesce".into(),
                args: vec![Expr::Column("a".into()), Expr::Column("b".into())],
            }),
        };
        assert_eq!(
            e.referenced_columns(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn op_families() {
        assert!(BinOp::Add.is_arithmetic());
        assert!(BinOp::Le.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::And.is_arithmetic());
    }
}
