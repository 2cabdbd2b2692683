//! Static type checking of feature expressions against a source schema.
//!
//! Publishing a feature definition type-checks it once (paper §2.2.1's
//! "definitional consistency"); materialization can then evaluate millions
//! of rows without per-row type errors.

use crate::ast::{BinOp, Expr, UnOp};
use fstore_common::{FsError, Result, Schema, ValueType};

/// The inferred type of an expression. `None` means "untyped null" (the
/// literal `NULL`), which unifies with anything.
pub(crate) type InferredType = Option<ValueType>;

/// Infer the result type of `expr` over `schema`, or fail with a plan error.
pub(crate) fn infer_type(expr: &Expr, schema: &Schema) -> Result<InferredType> {
    match expr {
        Expr::Literal(v) => Ok(v.value_type()),
        Expr::Column(name) => match schema.field(name) {
            Some(f) => Ok(Some(f.ty)),
            None => Err(FsError::Plan(format!("unknown column `{name}`"))),
        },
        Expr::Unary { op, expr } => {
            let t = infer_type(expr, schema)?;
            match op {
                UnOp::Neg => match t {
                    Some(ValueType::Int) | Some(ValueType::Float) | None => Ok(t),
                    Some(other) => Err(FsError::Plan(format!("cannot negate {other}"))),
                },
                UnOp::Not => match t {
                    Some(ValueType::Bool) | None => Ok(Some(ValueType::Bool)),
                    Some(other) => Err(FsError::Plan(format!("NOT requires Bool, found {other}"))),
                },
                UnOp::IsNull | UnOp::IsNotNull => Ok(Some(ValueType::Bool)),
            }
        }
        Expr::Binary { op, left, right } => {
            let lt = infer_type(left, schema)?;
            let rt = infer_type(right, schema)?;
            if op.is_arithmetic() {
                let unified = unify_numeric(lt, rt).ok_or_else(|| {
                    FsError::Plan(format!("operator {op} requires numeric operands"))
                })?;
                if *op == BinOp::Div {
                    return Ok(Some(ValueType::Float));
                }
                Ok(unified)
            } else if op.is_comparison() {
                if comparable(lt, rt) {
                    Ok(Some(ValueType::Bool))
                } else {
                    Err(FsError::Plan(format!(
                        "cannot compare {} with {}",
                        fmt_ty(lt),
                        fmt_ty(rt)
                    )))
                }
            } else {
                // logical
                for (side, t) in [("left", lt), ("right", rt)] {
                    if !matches!(t, Some(ValueType::Bool) | None) {
                        return Err(FsError::Plan(format!(
                            "{op} requires Bool operands ({side} is {})",
                            fmt_ty(t)
                        )));
                    }
                }
                Ok(Some(ValueType::Bool))
            }
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            let mut result: InferredType = None;
            for (cond, val) in branches {
                let ct = infer_type(cond, schema)?;
                if !matches!(ct, Some(ValueType::Bool) | None) {
                    return Err(FsError::Plan(format!(
                        "CASE condition must be Bool, found {}",
                        fmt_ty(ct)
                    )));
                }
                let vt = infer_type(val, schema)?;
                result = unify(result, vt)
                    .ok_or_else(|| FsError::Plan("CASE branches have incompatible types".into()))?;
            }
            if let Some(e) = otherwise {
                let et = infer_type(e, schema)?;
                result = unify(result, et)
                    .ok_or_else(|| FsError::Plan("CASE ELSE has incompatible type".into()))?;
            }
            Ok(result)
        }
        Expr::Call { func, args } => infer_call(func, args, schema),
    }
}

fn infer_call(func: &str, args: &[Expr], schema: &Schema) -> Result<InferredType> {
    let tys: Vec<InferredType> = args
        .iter()
        .map(|a| infer_type(a, schema))
        .collect::<Result<_>>()?;
    let arity = |n: usize| -> Result<()> {
        if tys.len() == n {
            Ok(())
        } else {
            Err(FsError::Plan(format!(
                "{func} expects {n} argument(s), got {}",
                tys.len()
            )))
        }
    };
    let numeric = |i: usize| -> Result<()> {
        match tys[i] {
            Some(ValueType::Int) | Some(ValueType::Float) | None => Ok(()),
            Some(other) => Err(FsError::Plan(format!(
                "{func} argument {} must be numeric, found {other}",
                i + 1
            ))),
        }
    };
    match func {
        "coalesce" | "least" | "greatest" => {
            if tys.is_empty() {
                return Err(FsError::Plan(format!(
                    "{func} requires at least one argument"
                )));
            }
            let mut t = tys[0];
            for &u in &tys[1..] {
                t = unify(t, u).ok_or_else(|| {
                    FsError::Plan(format!("{func} arguments have incompatible types"))
                })?;
            }
            if func != "coalesce" {
                // least/greatest are numeric-only
                if !matches!(t, Some(ValueType::Int) | Some(ValueType::Float) | None) {
                    return Err(FsError::Plan(format!("{func} requires numeric arguments")));
                }
            }
            Ok(t)
        }
        "abs" => {
            arity(1)?;
            numeric(0)?;
            Ok(tys[0])
        }
        "log" | "exp" | "sqrt" | "sigmoid" => {
            arity(1)?;
            numeric(0)?;
            Ok(Some(ValueType::Float))
        }
        "pow" => {
            arity(2)?;
            numeric(0)?;
            numeric(1)?;
            Ok(Some(ValueType::Float))
        }
        "floor" | "ceil" | "round" => {
            arity(1)?;
            numeric(0)?;
            Ok(Some(ValueType::Int))
        }
        "clip" => {
            arity(3)?;
            numeric(0)?;
            numeric(1)?;
            numeric(2)?;
            Ok(Some(ValueType::Float))
        }
        "bucket" => {
            arity(2)?;
            numeric(0)?;
            numeric(1)?;
            Ok(Some(ValueType::Int))
        }
        "if" => {
            arity(3)?;
            if !matches!(tys[0], Some(ValueType::Bool) | None) {
                return Err(FsError::Plan("if condition must be Bool".into()));
            }
            unify(tys[1], tys[2])
                .ok_or_else(|| FsError::Plan("if branches have incompatible types".into()))
        }
        "is_null" => {
            arity(1)?;
            Ok(Some(ValueType::Bool))
        }
        "length" => {
            arity(1)?;
            expect_str(func, tys[0])?;
            Ok(Some(ValueType::Int))
        }
        "lower" | "upper" => {
            arity(1)?;
            expect_str(func, tys[0])?;
            Ok(Some(ValueType::Str))
        }
        "concat" => {
            if tys.is_empty() {
                return Err(FsError::Plan(
                    "concat requires at least one argument".into(),
                ));
            }
            Ok(Some(ValueType::Str))
        }
        "hour_of_day" | "day_of_week" => {
            arity(1)?;
            match tys[0] {
                Some(ValueType::Timestamp) | None => Ok(Some(ValueType::Int)),
                Some(other) => Err(FsError::Plan(format!(
                    "{func} requires a Timestamp, found {other}"
                ))),
            }
        }
        other => Err(FsError::Plan(format!("unknown function `{other}`"))),
    }
}

fn expect_str(func: &str, t: InferredType) -> Result<()> {
    match t {
        Some(ValueType::Str) | None => Ok(()),
        Some(other) => Err(FsError::Plan(format!(
            "{func} requires a Str, found {other}"
        ))),
    }
}

fn fmt_ty(t: InferredType) -> String {
    t.map(|v| v.to_string()).unwrap_or_else(|| "Null".into())
}

/// Unify two inferred types (None unifies with anything; Int widens to Float).
pub(crate) fn unify(a: InferredType, b: InferredType) -> Option<InferredType> {
    match (a, b) {
        (None, t) | (t, None) => Some(t),
        (Some(x), Some(y)) if x == y => Some(Some(x)),
        (Some(ValueType::Int), Some(ValueType::Float))
        | (Some(ValueType::Float), Some(ValueType::Int)) => Some(Some(ValueType::Float)),
        _ => None,
    }
}

fn unify_numeric(a: InferredType, b: InferredType) -> Option<InferredType> {
    let ok = |t: InferredType| matches!(t, Some(ValueType::Int) | Some(ValueType::Float) | None);
    if ok(a) && ok(b) {
        unify(a, b)
    } else {
        None
    }
}

fn comparable(a: InferredType, b: InferredType) -> bool {
    unify(a, b).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn schema() -> Schema {
        Schema::of(&[
            ("fare", ValueType::Float),
            ("trips", ValueType::Int),
            ("city", ValueType::Str),
            ("vip", ValueType::Bool),
            ("ts", ValueType::Timestamp),
        ])
    }

    fn ty(src: &str) -> Result<InferredType> {
        infer_type(&parse(src).unwrap(), &schema())
    }

    #[test]
    fn arithmetic_widening() {
        assert_eq!(ty("trips + 1").unwrap(), Some(ValueType::Int));
        assert_eq!(ty("trips + 1.5").unwrap(), Some(ValueType::Float));
        assert_eq!(
            ty("trips / 2").unwrap(),
            Some(ValueType::Float),
            "division is Float"
        );
        assert_eq!(ty("fare * trips").unwrap(), Some(ValueType::Float));
    }

    #[test]
    fn null_literal_unifies() {
        assert_eq!(ty("NULL").unwrap(), None);
        assert_eq!(ty("coalesce(NULL, trips)").unwrap(), Some(ValueType::Int));
        assert_eq!(ty("trips + NULL").unwrap(), Some(ValueType::Int));
    }

    #[test]
    fn comparisons_yield_bool() {
        assert_eq!(ty("fare > 10").unwrap(), Some(ValueType::Bool));
        assert_eq!(ty("city = 'sf'").unwrap(), Some(ValueType::Bool));
        assert!(ty("city > 10").is_err());
        assert!(ty("vip = ts").is_err());
    }

    #[test]
    fn logic_requires_bool() {
        assert_eq!(ty("vip AND fare > 1").unwrap(), Some(ValueType::Bool));
        assert!(ty("trips AND vip").is_err());
        assert!(ty("NOT trips").is_err());
        assert_eq!(ty("NOT vip").unwrap(), Some(ValueType::Bool));
    }

    #[test]
    fn unknown_column_and_function() {
        assert!(ty("ghost + 1").is_err());
        assert!(ty("mystery(1)").is_err());
    }

    #[test]
    fn case_unification() {
        assert_eq!(
            ty("CASE WHEN vip THEN 1 ELSE 2.5 END").unwrap(),
            Some(ValueType::Float)
        );
        assert!(ty("CASE WHEN vip THEN 1 ELSE 'x' END").is_err());
        assert!(
            ty("CASE WHEN trips THEN 1 END").is_err(),
            "non-bool condition"
        );
        assert_eq!(
            ty("CASE WHEN vip THEN 1 END").unwrap(),
            Some(ValueType::Int)
        );
    }

    #[test]
    fn function_signatures() {
        assert_eq!(ty("abs(trips)").unwrap(), Some(ValueType::Int));
        assert_eq!(ty("abs(fare)").unwrap(), Some(ValueType::Float));
        assert_eq!(ty("log(trips)").unwrap(), Some(ValueType::Float));
        assert_eq!(ty("floor(fare)").unwrap(), Some(ValueType::Int));
        assert_eq!(ty("clip(fare, 0, 10)").unwrap(), Some(ValueType::Float));
        assert_eq!(ty("bucket(fare, 5)").unwrap(), Some(ValueType::Int));
        assert_eq!(ty("if(vip, 1, 0)").unwrap(), Some(ValueType::Int));
        assert_eq!(ty("length(city)").unwrap(), Some(ValueType::Int));
        assert_eq!(ty("concat(city, '!')").unwrap(), Some(ValueType::Str));
        assert_eq!(ty("hour_of_day(ts)").unwrap(), Some(ValueType::Int));
        assert_eq!(ty("is_null(fare)").unwrap(), Some(ValueType::Bool));
        assert!(ty("abs(city)").is_err());
        assert!(ty("abs(1, 2)").is_err());
        assert!(ty("length(trips)").is_err());
        assert!(ty("hour_of_day(fare)").is_err());
        assert!(ty("coalesce()").is_err());
        assert!(ty("least(city, city)").is_err());
    }
}
