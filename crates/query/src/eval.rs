//! Row evaluation with SQL-style three-valued null semantics.
//!
//! Evaluation is *total* on type-checked expressions: nulls propagate,
//! division by zero and integer overflow yield `NULL` (rather than poisoning
//! a whole materialization job), and `CASE` falls through to `ELSE`/`NULL`.
//! A property test in `program.rs` asserts totality.

use crate::ast::{BinOp, Expr, UnOp};
use fstore_common::time::MILLIS_PER_DAY;
use fstore_common::{FsError, Result, Value};

/// Environment an expression is evaluated in: resolves column names to the
/// current row's values.
pub(crate) trait Env {
    fn get(&self, column: &str) -> Result<Value>;
}

/// An `Env` over a schema-ordered row slice with a resolver built once.
pub(crate) struct RowEnv<'a> {
    pub(crate) schema: &'a fstore_common::Schema,
    pub(crate) row: &'a [Value],
}

impl Env for RowEnv<'_> {
    fn get(&self, column: &str) -> Result<Value> {
        match self.schema.index_of(column) {
            Some(i) => Ok(self.row[i].clone()),
            None => Err(FsError::Eval(format!(
                "unknown column `{column}` at eval time"
            ))),
        }
    }
}

/// Evaluate `expr` in `env`.
pub(crate) fn eval(expr: &Expr, env: &dyn Env) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => env.get(name),
        Expr::Unary { op, expr } => {
            let v = eval(expr, env)?;
            Ok(match op {
                UnOp::Neg => match v {
                    Value::Null => Value::Null,
                    Value::Int(i) => i.checked_neg().map_or(Value::Null, Value::Int),
                    Value::Float(f) => Value::Float(-f),
                    other => return Err(eval_type_err("negate", &other)),
                },
                UnOp::Not => match v {
                    Value::Null => Value::Null,
                    Value::Bool(b) => Value::Bool(!b),
                    other => return Err(eval_type_err("NOT", &other)),
                },
                UnOp::IsNull => Value::Bool(v.is_null()),
                UnOp::IsNotNull => Value::Bool(!v.is_null()),
            })
        }
        Expr::Binary { op, left, right } => eval_binary(*op, left, right, env),
        Expr::Case {
            branches,
            otherwise,
        } => {
            for (cond, val) in branches {
                if matches!(eval(cond, env)?, Value::Bool(true)) {
                    return eval(val, env);
                }
            }
            match otherwise {
                Some(e) => eval(e, env),
                None => Ok(Value::Null),
            }
        }
        Expr::Call { func, args } => eval_call(func, args, env),
    }
}

fn eval_type_err(op: &str, v: &Value) -> FsError {
    FsError::Eval(format!("cannot {op} value {v}"))
}

fn eval_binary(op: BinOp, left: &Expr, right: &Expr, env: &dyn Env) -> Result<Value> {
    // Logical operators need three-valued short-circuit handling.
    if op.is_logical() {
        let l = eval(left, env)?;
        // FALSE AND _ = FALSE; TRUE OR _ = TRUE (short circuit).
        match (op, &l) {
            (BinOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = eval(right, env)?;
        return Ok(match (op, l, r) {
            (BinOp::And, Value::Bool(a), Value::Bool(b)) => Value::Bool(a && b),
            (BinOp::Or, Value::Bool(a), Value::Bool(b)) => Value::Bool(a || b),
            // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; else NULL.
            (BinOp::And, Value::Null, Value::Bool(false))
            | (BinOp::And, Value::Bool(false), Value::Null) => Value::Bool(false),
            (BinOp::Or, Value::Null, Value::Bool(true))
            | (BinOp::Or, Value::Bool(true), Value::Null) => Value::Bool(true),
            (_, Value::Null, _) | (_, _, Value::Null) => Value::Null,
            (_, l, _) => return Err(eval_type_err("apply boolean operator to", &l)),
        });
    }

    let l = eval(left, env)?;
    let r = eval(right, env)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }

    if op.is_comparison() {
        // Type checking guarantees comparability; compare via total_cmp
        // after numeric widening.
        let ord = l.total_cmp(&r);
        use std::cmp::Ordering::*;
        return Ok(Value::Bool(match op {
            BinOp::Eq => ord == Equal,
            BinOp::Ne => ord != Equal,
            BinOp::Lt => ord == Less,
            BinOp::Le => ord != Greater,
            BinOp::Gt => ord == Greater,
            BinOp::Ge => ord != Less,
            _ => unreachable!(),
        }));
    }

    // Arithmetic. Int op Int stays Int (Div excepted); any Float widens.
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) if op != BinOp::Div => Ok(match op {
            BinOp::Add => a.checked_add(*b).map_or(Value::Null, Value::Int),
            BinOp::Sub => a.checked_sub(*b).map_or(Value::Null, Value::Int),
            BinOp::Mul => a.checked_mul(*b).map_or(Value::Null, Value::Int),
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.rem_euclid(*b))
                }
            }
            _ => unreachable!(),
        }),
        _ => {
            let a = l.expect_f64("arithmetic")?;
            let b = r.expect_f64("arithmetic")?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a.rem_euclid(b)
                }
                _ => unreachable!(),
            };
            Ok(if out.is_nan() {
                Value::Null
            } else {
                Value::Float(out)
            })
        }
    }
}

fn eval_call(func: &str, args: &[Expr], env: &dyn Env) -> Result<Value> {
    // coalesce and if evaluate lazily; everything else is strict.
    match func {
        "coalesce" => {
            for a in args {
                let v = eval(a, env)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            return Ok(Value::Null);
        }
        "if" => {
            let c = eval(&args[0], env)?;
            return if matches!(c, Value::Bool(true)) {
                eval(&args[1], env)
            } else {
                eval(&args[2], env)
            };
        }
        _ => {}
    }

    let vals: Vec<Value> = args.iter().map(|a| eval(a, env)).collect::<Result<_>>()?;

    // is_null / concat tolerate nulls; all other functions propagate them.
    match func {
        "is_null" => return Ok(Value::Bool(vals[0].is_null())),
        "concat" => {
            let mut s = String::new();
            for v in &vals {
                if !v.is_null() {
                    s.push_str(&v.to_string());
                }
            }
            return Ok(Value::Str(s));
        }
        _ => {}
    }
    if vals.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }

    let num = |i: usize| vals[i].expect_f64(func);
    let finite = |x: f64| {
        if x.is_finite() {
            Value::Float(x)
        } else {
            Value::Null
        }
    };
    Ok(match func {
        "abs" => match &vals[0] {
            Value::Int(i) => i.checked_abs().map_or(Value::Null, Value::Int),
            v => Value::Float(v.expect_f64(func)?.abs()),
        },
        "log" => {
            let x = num(0)?;
            if x <= 0.0 {
                Value::Null
            } else {
                Value::Float(x.ln())
            }
        }
        "exp" => finite(num(0)?.exp()),
        "sqrt" => {
            let x = num(0)?;
            if x < 0.0 {
                Value::Null
            } else {
                Value::Float(x.sqrt())
            }
        }
        "sigmoid" => Value::Float(1.0 / (1.0 + (-num(0)?).exp())),
        "pow" => finite(num(0)?.powf(num(1)?)),
        "floor" => Value::Int(num(0)?.floor() as i64),
        "ceil" => Value::Int(num(0)?.ceil() as i64),
        "round" => Value::Int(num(0)?.round() as i64),
        "clip" => Value::Float(num(0)?.clamp(num(1)?, num(2)?)),
        "bucket" => {
            let w = num(1)?;
            if w <= 0.0 {
                Value::Null
            } else {
                Value::Int((num(0)? / w).floor() as i64)
            }
        }
        "least" => {
            let mut best = num(0)?;
            for i in 1..vals.len() {
                best = best.min(num(i)?);
            }
            Value::Float(best)
        }
        "greatest" => {
            let mut best = num(0)?;
            for i in 1..vals.len() {
                best = best.max(num(i)?);
            }
            Value::Float(best)
        }
        "length" => match &vals[0] {
            Value::Str(s) => Value::Int(s.chars().count() as i64),
            v => return Err(eval_type_err("take length of", v)),
        },
        "lower" => match &vals[0] {
            Value::Str(s) => Value::Str(s.to_lowercase()),
            v => return Err(eval_type_err("lowercase", v)),
        },
        "upper" => match &vals[0] {
            Value::Str(s) => Value::Str(s.to_uppercase()),
            v => return Err(eval_type_err("uppercase", v)),
        },
        "hour_of_day" => match &vals[0] {
            Value::Timestamp(t) => Value::Int(t.as_millis().rem_euclid(MILLIS_PER_DAY) / 3_600_000),
            v => return Err(eval_type_err("take hour of", v)),
        },
        "day_of_week" => match &vals[0] {
            // ISO: 0 = Monday. 1970-01-01 (day 0) was a Thursday → offset 3.
            Value::Timestamp(t) => {
                Value::Int((t.date().days_since_epoch() as i64 + 3).rem_euclid(7))
            }
            v => return Err(eval_type_err("take weekday of", v)),
        },
        other => return Err(FsError::Eval(format!("unknown function `{other}`"))),
    })
}

/// Constant folding: replace any subtree with no column references by its
/// value. Runs at compile time so per-row evaluation never recomputes
/// literal arithmetic (`fare * (60 * 60)` → `fare * 3600`). Safe because
/// evaluation is deterministic and total on typed expressions.
pub(crate) fn fold_constants(expr: Expr) -> Expr {
    struct EmptyEnv;
    impl Env for EmptyEnv {
        fn get(&self, column: &str) -> Result<Value> {
            Err(FsError::Eval(format!(
                "column `{column}` in constant context"
            )))
        }
    }
    fn is_const(e: &Expr) -> bool {
        match e {
            Expr::Literal(_) => true,
            Expr::Column(_) => false,
            Expr::Unary { expr, .. } => is_const(expr),
            Expr::Binary { left, right, .. } => is_const(left) && is_const(right),
            Expr::Case {
                branches,
                otherwise,
            } => {
                branches.iter().all(|(c, v)| is_const(c) && is_const(v))
                    && otherwise.as_deref().is_none_or(is_const)
            }
            Expr::Call { args, .. } => args.iter().all(is_const),
        }
    }
    fn fold(e: Expr) -> Expr {
        if is_const(&e) {
            if let Ok(v) = eval(&e, &EmptyEnv) {
                return Expr::Literal(v);
            }
        }
        match e {
            Expr::Unary { op, expr } => Expr::Unary {
                op,
                expr: Box::new(fold(*expr)),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op,
                left: Box::new(fold(*left)),
                right: Box::new(fold(*right)),
            },
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches
                    .into_iter()
                    .map(|(c, v)| (fold(c), fold(v)))
                    .collect(),
                otherwise: otherwise.map(|e| Box::new(fold(*e))),
            },
            Expr::Call { func, args } => Expr::Call {
                func,
                args: args.into_iter().map(fold).collect(),
            },
            other => other,
        }
    }
    fold(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use fstore_common::{Duration, Schema, Timestamp, ValueType};

    fn schema() -> Schema {
        Schema::of(&[
            ("fare", ValueType::Float),
            ("trips", ValueType::Int),
            ("city", ValueType::Str),
            ("vip", ValueType::Bool),
            ("ts", ValueType::Timestamp),
        ])
    }

    fn run(src: &str, row: &[Value]) -> Value {
        let s = schema();
        let e = parse(src).unwrap();
        eval(&e, &RowEnv { schema: &s, row }).unwrap()
    }

    fn default_row() -> Vec<Value> {
        vec![
            Value::Float(20.0),
            Value::Int(4),
            Value::from("sf"),
            Value::Bool(true),
            Value::Timestamp(Timestamp::EPOCH + Duration::hours(13)),
        ]
    }

    #[test]
    fn arithmetic() {
        let r = default_row();
        assert_eq!(run("fare * 2 + 1", &r), Value::Float(41.0));
        assert_eq!(run("trips + 1", &r), Value::Int(5));
        assert_eq!(run("trips / 8", &r), Value::Float(0.5));
        assert_eq!(run("7 % 3", &r), Value::Int(1));
        assert_eq!(run("-trips", &r), Value::Int(-4));
    }

    #[test]
    fn division_by_zero_and_overflow_yield_null() {
        let r = default_row();
        assert_eq!(run("1 / 0", &r), Value::Null);
        assert_eq!(run("1 % 0", &r), Value::Null);
        assert_eq!(run("9223372036854775807 + 1", &r), Value::Null);
        assert_eq!(run("log(0)", &r), Value::Null);
        assert_eq!(run("sqrt(0 - 1)", &r), Value::Null);
    }

    #[test]
    fn null_propagation() {
        let mut r = default_row();
        r[0] = Value::Null; // fare
        assert_eq!(run("fare + 1", &r), Value::Null);
        assert_eq!(run("fare > 0", &r), Value::Null);
        assert_eq!(run("coalesce(fare, 1.5)", &r), Value::Float(1.5));
        assert_eq!(run("fare IS NULL", &r), Value::Bool(true));
        assert_eq!(run("is_null(fare)", &r), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let mut r = default_row();
        r[3] = Value::Null; // vip
        assert_eq!(run("vip AND FALSE", &r), Value::Bool(false));
        assert_eq!(run("vip AND TRUE", &r), Value::Null);
        assert_eq!(run("vip OR TRUE", &r), Value::Bool(true));
        assert_eq!(run("vip OR FALSE", &r), Value::Null);
        assert_eq!(run("NOT vip", &r), Value::Null);
        // short circuit: right side would divide by zero but is never reached
        assert_eq!(run("FALSE AND 1 / 0 > 0", &r), Value::Bool(false));
        assert_eq!(run("TRUE OR 1 / 0 > 0", &r), Value::Bool(true));
    }

    #[test]
    fn comparisons_and_strings() {
        let r = default_row();
        assert_eq!(run("city = 'sf'", &r), Value::Bool(true));
        assert_eq!(run("fare >= 20", &r), Value::Bool(true));
        assert_eq!(run("trips != 4", &r), Value::Bool(false));
        assert_eq!(run("upper(city)", &r), Value::from("SF"));
        assert_eq!(run("length(concat(city, '!'))", &r), Value::Int(3));
        assert_eq!(run("concat('fare=', fare)", &r), Value::from("fare=20"));
    }

    #[test]
    fn case_semantics() {
        let r = default_row();
        assert_eq!(
            run(
                "CASE WHEN fare > 100 THEN 'high' WHEN fare > 10 THEN 'mid' ELSE 'low' END",
                &r
            ),
            Value::from("mid")
        );
        assert_eq!(run("CASE WHEN fare > 100 THEN 1 END", &r), Value::Null);
        // null condition falls through
        let mut r2 = default_row();
        r2[3] = Value::Null;
        assert_eq!(run("CASE WHEN vip THEN 1 ELSE 2 END", &r2), Value::Int(2));
    }

    #[test]
    fn functions() {
        let r = default_row();
        assert_eq!(run("abs(0 - 5)", &r), Value::Int(5));
        assert_eq!(run("clip(fare, 0, 10)", &r), Value::Float(10.0));
        assert_eq!(run("bucket(fare, 6)", &r), Value::Int(3));
        assert_eq!(run("bucket(fare, 0)", &r), Value::Null);
        assert_eq!(run("floor(2.7)", &r), Value::Int(2));
        assert_eq!(run("ceil(2.1)", &r), Value::Int(3));
        assert_eq!(run("round(2.5)", &r), Value::Int(3));
        assert_eq!(run("least(3, fare, 7)", &r), Value::Float(3.0));
        assert_eq!(run("greatest(3, fare, 7)", &r), Value::Float(20.0));
        assert_eq!(run("if(vip, 'y', 'n')", &r), Value::from("y"));
        let s = run("sigmoid(0)", &r);
        assert_eq!(s, Value::Float(0.5));
    }

    #[test]
    fn time_functions() {
        let r = default_row();
        assert_eq!(run("hour_of_day(ts)", &r), Value::Int(13));
        // 1970-01-01 is a Thursday → ISO weekday 3
        assert_eq!(run("day_of_week(ts)", &r), Value::Int(3));
    }

    #[test]
    fn exp_overflow_is_null() {
        let r = default_row();
        assert_eq!(run("exp(100000)", &r), Value::Null);
        assert_eq!(run("pow(10, 10000)", &r), Value::Null);
    }

    #[test]
    fn constant_folding() {
        use crate::ast::Expr;
        let fold = |src: &str| fold_constants(parse(src).unwrap());
        assert_eq!(fold("1 + 2 * 3"), Expr::Literal(Value::Int(7)));
        assert_eq!(fold("upper('ab')"), Expr::Literal(Value::from("AB")));
        assert_eq!(
            fold("1 / 0"),
            Expr::Literal(Value::Null),
            "total: folds to NULL"
        );
        assert_eq!(
            fold("CASE WHEN TRUE THEN 5 ELSE 6 END"),
            Expr::Literal(Value::Int(5))
        );
        // column subtrees survive; constant subtrees inside them fold
        match fold("fare * (60 * 60)") {
            Expr::Binary { right, .. } => assert_eq!(*right, Expr::Literal(Value::Int(3600))),
            other => panic!("{other:?}"),
        }
        // non-constant case branches partially fold
        match fold("CASE WHEN fare > 1 + 1 THEN 1 END") {
            Expr::Case { branches, .. } => match &branches[0].0 {
                Expr::Binary { right, .. } => {
                    assert_eq!(**right, Expr::Literal(Value::Int(2)))
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn folded_program_evaluates_identically() {
        let s = schema();
        let src = "clip(fare * coalesce(NULL, 1 + 0.5), 0, 10 * 10) + abs(0 - 3)";
        let p = crate::program::Program::compile(src, &s).unwrap();
        let row = default_row();
        assert_eq!(p.eval(&row).unwrap(), Value::Float(33.0));
    }

    #[test]
    fn unknown_column_at_eval_is_error() {
        let s = Schema::of(&[("a", ValueType::Int)]);
        let e = parse("ghost").unwrap();
        assert!(eval(
            &e,
            &RowEnv {
                schema: &s,
                row: &[Value::Int(1)]
            }
        )
        .is_err());
    }
}
