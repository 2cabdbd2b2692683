//! Compiled feature programs: parse + type check once, evaluate per row.

use crate::ast::Expr;
use crate::eval::{eval, fold_constants, RowEnv};
use crate::parser::parse;
use crate::types::infer_type;
use fstore_common::{Result, Schema, Value, ValueType};

/// A feature expression compiled against a source schema.
///
/// It keeps the inferred output type and the set of source columns the
/// feature reads.
#[derive(Debug, Clone)]
pub struct Program {
    expr: Expr,
    schema: Schema,
    output_type: Option<ValueType>,
    inputs: Vec<String>,
}

impl Program {
    /// Parse, type-check and bind `src` against `schema`.
    pub fn compile(src: &str, schema: &Schema) -> Result<Program> {
        let expr = parse(src)?;
        let output_type = infer_type(&expr, schema)?;
        let inputs = expr.referenced_columns();
        let expr = fold_constants(expr);
        Ok(Program {
            expr,
            schema: schema.clone(),
            output_type,
            inputs,
        })
    }

    /// The inferred output type (`None` = the constant `NULL`).
    pub fn output_type(&self) -> Option<ValueType> {
        self.output_type
    }

    /// Source columns this feature depends on (sorted, deduplicated).
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Evaluate over one schema-ordered row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        eval(
            &self.expr,
            &RowEnv {
                schema: &self.schema,
                row,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstore_common::Timestamp;

    fn schema() -> Schema {
        Schema::of(&[
            ("fare", ValueType::Float),
            ("trips", ValueType::Int),
            ("city", ValueType::Str),
            ("vip", ValueType::Bool),
            ("ts", ValueType::Timestamp),
        ])
    }

    #[test]
    fn compile_infers_type_and_inputs() {
        let p = Program::compile("fare * coalesce(trips, 1)", &schema()).unwrap();
        assert_eq!(p.output_type(), Some(ValueType::Float));
        assert_eq!(p.inputs(), &["fare".to_string(), "trips".to_string()]);
    }

    #[test]
    fn compile_rejects_bad_expressions() {
        assert!(Program::compile("fare +", &schema()).is_err());
        assert!(Program::compile("ghost + 1", &schema()).is_err());
        assert!(Program::compile("city + 1", &schema()).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Generators for random well-typed-ish expressions over the schema.
        fn arb_numeric_expr() -> impl Strategy<Value = String> {
            let leaf = prop_oneof![
                Just("fare".to_string()),
                Just("trips".to_string()),
                (-100i64..100).prop_map(|i| i.to_string()),
                (-100.0f64..100.0).prop_map(|f| format!("{f:.3}")),
                Just("NULL".to_string()),
            ];
            leaf.prop_recursive(4, 32, 3, |inner| {
                prop_oneof![
                    (
                        inner.clone(),
                        inner.clone(),
                        prop_oneof![Just("+"), Just("-"), Just("*"), Just("/"), Just("%")]
                    )
                        .prop_map(|(a, b, op)| format!("({a} {op} {b})")),
                    inner.clone().prop_map(|a| format!("abs({a})")),
                    inner.clone().prop_map(|a| format!("(-{a})")),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("coalesce({a}, {b})")),
                    (inner.clone(), inner.clone(), inner)
                        .prop_map(|(c, a, b)| format!("if({c} > 0, {a}, {b})")),
                ]
            })
        }

        fn arb_row() -> impl Strategy<Value = Vec<Value>> {
            (
                prop_oneof![Just(Value::Null), (-1e6f64..1e6).prop_map(Value::Float)],
                prop_oneof![Just(Value::Null), (-1000i64..1000).prop_map(Value::Int)],
            )
                .prop_map(|(fare, trips)| {
                    vec![
                        fare,
                        trips,
                        Value::from("sf"),
                        Value::Bool(true),
                        Value::Timestamp(Timestamp::EPOCH),
                    ]
                })
        }

        proptest! {
            /// Totality: every expression that compiles evaluates without
            /// error on every row, and its result fits the inferred type.
            #[test]
            fn compiled_programs_are_total(src in arb_numeric_expr(), row in arb_row()) {
                let schema = schema();
                if let Ok(p) = Program::compile(&src, &schema) {
                    let v = p.eval(&row).expect("eval must be total on typed programs");
                    if let (Some(ty), false) = (p.output_type(), v.is_null()) {
                        prop_assert!(v.fits(ty), "value {v} does not fit {ty} (src `{src}`)");
                    }
                }
            }

            /// Determinism: the same program over the same row gives the
            /// same value.
            #[test]
            fn eval_is_deterministic(src in arb_numeric_expr(), row in arb_row()) {
                let schema = schema();
                if let Ok(p) = Program::compile(&src, &schema) {
                    prop_assert_eq!(p.eval(&row).unwrap(), p.eval(&row).unwrap());
                }
            }
        }
    }
}
