//! Recursive-descent parser with standard SQL-ish precedence:
//! `OR` < `AND` < `NOT` < comparison / `IS [NOT] NULL` < `+ -` < `* / %` < unary `-`.

use crate::ast::{BinOp, Expr, UnOp};
use crate::lexer::{lex, Token, TokenKind};
use fstore_common::{FsError, Result, Value};

/// Parse an expression source string into an AST.
pub(crate) fn parse(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.or_expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

fn maybe_not(e: Expr, negated: bool) -> Expr {
    if negated {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(e),
        }
    } else {
        e
    }
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<()> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind:?}, found {:?}", self.peek())))
        }
    }

    fn error(&self, message: String) -> FsError {
        FsError::Parse {
            message,
            position: self.peek_pos(),
        }
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat(&TokenKind::Or) {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat(&TokenKind::And) {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Not) {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        // IS [NOT] NULL postfix
        if self.eat(&TokenKind::Is) {
            let negated = self.eat(&TokenKind::Not);
            self.expect(TokenKind::Null)?;
            let op = if negated {
                UnOp::IsNotNull
            } else {
                UnOp::IsNull
            };
            return Ok(Expr::Unary {
                op,
                expr: Box::new(left),
            });
        }
        // [NOT] IN (…) / [NOT] BETWEEN lo AND hi — desugared here so the
        // type checker and evaluator never see them.
        let negated = if self.peek() == &TokenKind::Not {
            self.bump();
            true
        } else {
            false
        };
        if self.eat(&TokenKind::In) {
            let e = self.in_list(left)?;
            return Ok(maybe_not(e, negated));
        }
        if self.eat(&TokenKind::Between) {
            let e = self.between(left)?;
            return Ok(maybe_not(e, negated));
        }
        if negated {
            return Err(self.error("expected IN or BETWEEN after NOT".into()));
        }
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    /// `left IN (e1, e2, …)` → `left = e1 OR left = e2 OR …`.
    fn in_list(&mut self, left: Expr) -> Result<Expr> {
        self.expect(TokenKind::LParen)?;
        let mut items = Vec::new();
        loop {
            items.push(self.add_expr()?);
            if self.eat(&TokenKind::RParen) {
                break;
            }
            self.expect(TokenKind::Comma)?;
        }
        let mut it = items.into_iter();
        let first = it.next().expect("loop parses at least one item");
        let mut out = Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(left.clone()),
            right: Box::new(first),
        };
        for item in it {
            out = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(out),
                right: Box::new(Expr::Binary {
                    op: BinOp::Eq,
                    left: Box::new(left.clone()),
                    right: Box::new(item),
                }),
            };
        }
        Ok(out)
    }

    /// `left BETWEEN lo AND hi` → `left >= lo AND left <= hi`.
    fn between(&mut self, left: Expr) -> Result<Expr> {
        let lo = self.add_expr()?;
        self.expect(TokenKind::And)?;
        let hi = self.add_expr()?;
        Ok(Expr::Binary {
            op: BinOp::And,
            left: Box::new(Expr::Binary {
                op: BinOp::Ge,
                left: Box::new(left.clone()),
                right: Box::new(lo),
            }),
            right: Box::new(Expr::Binary {
                op: BinOp::Le,
                left: Box::new(left),
                right: Box::new(hi),
            }),
        })
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.mul_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.unary_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            TokenKind::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            TokenKind::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            TokenKind::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            TokenKind::True => Ok(Expr::Literal(Value::Bool(true))),
            TokenKind::False => Ok(Expr::Literal(Value::Bool(false))),
            TokenKind::Null => Ok(Expr::Literal(Value::Null)),
            TokenKind::LParen => {
                let e = self.or_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Case => self.case_expr(),
            TokenKind::Ident(name) => {
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.or_expr()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(TokenKind::Comma)?;
                        }
                    }
                    Ok(Expr::Call {
                        func: name.to_ascii_lowercase(),
                        args,
                    })
                } else {
                    Ok(Expr::Column(name))
                }
            }
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let mut branches = Vec::new();
        loop {
            self.expect(TokenKind::When)?;
            let cond = self.or_expr()?;
            self.expect(TokenKind::Then)?;
            let val = self.or_expr()?;
            branches.push((cond, val));
            if self.peek() != &TokenKind::When {
                break;
            }
        }
        let otherwise = if self.eat(&TokenKind::Else) {
            Some(Box::new(self.or_expr()?))
        } else {
            None
        };
        self.expect(TokenKind::End)?;
        Ok(Expr::Case {
            branches,
            otherwise,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_arith_over_cmp_over_logic() {
        // a + b * 2 > 3 AND NOT c
        let e = parse("a + b * 2 > 3 AND NOT c").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                match *left {
                    Expr::Binary {
                        op: BinOp::Gt,
                        left: add,
                        ..
                    } => match *add {
                        Expr::Binary {
                            op: BinOp::Add,
                            right: mul,
                            ..
                        } => {
                            assert!(matches!(*mul, Expr::Binary { op: BinOp::Mul, .. }))
                        }
                        other => panic!("expected Add, got {other:?}"),
                    },
                    other => panic!("expected Gt, got {other:?}"),
                }
                assert!(matches!(*right, Expr::Unary { op: UnOp::Not, .. }));
            }
            other => panic!("expected And at root, got {other:?}"),
        }
    }

    #[test]
    fn unary_minus_binds_tight() {
        let e = parse("-a * b").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parens_override() {
        let e = parse("(a + b) * c").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Mul,
                left,
                ..
            } => {
                assert!(matches!(*left, Expr::Binary { op: BinOp::Add, .. }))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn is_null_postfix() {
        assert_eq!(
            parse("x IS NULL").unwrap(),
            Expr::Unary {
                op: UnOp::IsNull,
                expr: Box::new(Expr::Column("x".into()))
            }
        );
        assert_eq!(
            parse("x IS NOT NULL").unwrap(),
            Expr::Unary {
                op: UnOp::IsNotNull,
                expr: Box::new(Expr::Column("x".into()))
            }
        );
    }

    #[test]
    fn case_with_and_without_else() {
        let e = parse("CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END").unwrap();
        match e {
            Expr::Case {
                branches,
                otherwise,
            } => {
                assert_eq!(branches.len(), 2);
                assert!(otherwise.is_some());
            }
            other => panic!("{other:?}"),
        }
        let e = parse("CASE WHEN a THEN 1 END").unwrap();
        assert!(matches!(
            e,
            Expr::Case {
                otherwise: None,
                ..
            }
        ));
    }

    #[test]
    fn call_args_and_lowercasing() {
        let e = parse("COALESCE(a, 1, 2)").unwrap();
        match e {
            Expr::Call { func, args } => {
                assert_eq!(func, "coalesce");
                assert_eq!(args.len(), 3);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse("now()").unwrap(),
            Expr::Call {
                func: "now".into(),
                args: vec![]
            }
        );
    }

    #[test]
    fn or_and_chains_left_associate() {
        let e = parse("a OR b OR c").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Or,
                left,
                ..
            } => {
                assert!(matches!(*left, Expr::Binary { op: BinOp::Or, .. }))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_list_desugars_to_or_chain() {
        let e = parse("city IN ('sf', 'nyc')").unwrap();
        let want = parse("city = 'sf' OR city = 'nyc'").unwrap();
        assert_eq!(e, want);
        let single = parse("x IN (1)").unwrap();
        assert_eq!(single, parse("x = 1").unwrap());
    }

    #[test]
    fn not_in_and_not_between() {
        assert_eq!(
            parse("x NOT IN (1, 2)").unwrap(),
            parse("NOT (x = 1 OR x = 2)").unwrap()
        );
        assert_eq!(
            parse("x NOT BETWEEN 1 AND 5").unwrap(),
            parse("NOT (x >= 1 AND x <= 5)").unwrap()
        );
    }

    #[test]
    fn between_desugars_inclusively() {
        assert_eq!(
            parse("fare BETWEEN 5 AND 10").unwrap(),
            parse("fare >= 5 AND fare <= 10").unwrap()
        );
        // BETWEEN binds tighter than a surrounding AND
        assert_eq!(
            parse("fare BETWEEN 5 AND 10 AND vip").unwrap(),
            parse("(fare >= 5 AND fare <= 10) AND vip").unwrap()
        );
    }

    #[test]
    fn in_between_error_cases() {
        assert!(parse("x IN ()").is_err());
        assert!(parse("x IN (1,").is_err());
        assert!(parse("x BETWEEN 1").is_err());
        assert!(parse("x NOT 5").is_err());
    }

    #[test]
    fn errors_report_position() {
        for bad in ["a +", "(a", "CASE a THEN 1 END", "f(a,", "a b", "1 = = 2"] {
            let err = parse(bad).unwrap_err();
            assert!(matches!(err, FsError::Parse { .. }), "{bad}: {err:?}");
        }
    }

    #[test]
    fn literals() {
        assert_eq!(parse("NULL").unwrap(), Expr::Literal(Value::Null));
        assert_eq!(parse("true").unwrap(), Expr::Literal(Value::Bool(true)));
        assert_eq!(
            parse("'x''y'").unwrap(),
            Expr::Literal(Value::Str("x'y".into()))
        );
    }
}
