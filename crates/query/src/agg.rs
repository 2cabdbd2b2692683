//! Aggregate functions, shared by batch materialization (GROUP BY entity)
//! and the streaming layer's window aggregators (paper §2.2.1: users supply
//! aggregation functions over raw streams).

use fstore_common::stats::{OnlineMoments, P2Quantile};
use fstore_common::{FsError, Result, Value, ValueType};
use std::collections::HashSet;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggFunc {
    /// Number of non-null values.
    Count,
    /// Number of rows including nulls.
    CountAll,
    Sum,
    Avg,
    Min,
    Max,
    /// Sample standard deviation.
    StdDev,
    /// Approximate quantile (P²).
    Quantile(f64),
    /// Number of distinct non-null values.
    CountDistinct,
    /// Most recent value (by arrival order) — the "latest" aggregator
    /// feature stores use for last-value features.
    Last,
}

impl AggFunc {
    /// The type of the value [`AggAccumulator::finish`] yields for inputs
    /// of type `input`: the counts are `Int`, the numeric summaries
    /// `Float`, and the value-picking aggregates keep the input's type.
    pub fn output_type(&self, input: ValueType) -> ValueType {
        match self {
            AggFunc::Count | AggFunc::CountAll | AggFunc::CountDistinct => ValueType::Int,
            AggFunc::Sum | AggFunc::Avg | AggFunc::StdDev | AggFunc::Quantile(_) => {
                ValueType::Float
            }
            AggFunc::Min | AggFunc::Max | AggFunc::Last => input,
        }
    }

    /// Parse an aggregate spec like `"sum"`, `"p95"`, `"quantile(0.5)"`.
    pub fn parse(s: &str) -> Result<AggFunc> {
        let t = s.trim().to_ascii_lowercase();
        Ok(match t.as_str() {
            "count" => AggFunc::Count,
            "count_all" => AggFunc::CountAll,
            "sum" => AggFunc::Sum,
            "avg" | "mean" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "stddev" | "std" => AggFunc::StdDev,
            "count_distinct" | "distinct" => AggFunc::CountDistinct,
            "last" => AggFunc::Last,
            _ => {
                if let Some(p) = t.strip_prefix('p') {
                    if let Ok(pct) = p.parse::<f64>() {
                        if pct > 0.0 && pct < 100.0 {
                            return Ok(AggFunc::Quantile(pct / 100.0));
                        }
                    }
                }
                if let Some(inner) = t
                    .strip_prefix("quantile(")
                    .and_then(|x| x.strip_suffix(')'))
                {
                    if let Ok(q) = inner.parse::<f64>() {
                        if q > 0.0 && q < 1.0 {
                            return Ok(AggFunc::Quantile(q));
                        }
                    }
                }
                return Err(FsError::InvalidArgument(format!("unknown aggregate `{s}`")));
            }
        })
    }

    /// Create a fresh accumulator for this function.
    pub fn accumulator(&self) -> AggAccumulator {
        match self {
            AggFunc::Count => AggAccumulator::Count(0),
            AggFunc::CountAll => AggAccumulator::CountAll(0),
            AggFunc::Sum => AggAccumulator::Sum {
                total: 0.0,
                seen: false,
            },
            AggFunc::Avg => AggAccumulator::Moments(OnlineMoments::new(), MomentsOut::Mean),
            AggFunc::Min => AggAccumulator::Extreme {
                best: None,
                want_max: false,
            },
            AggFunc::Max => AggAccumulator::Extreme {
                best: None,
                want_max: true,
            },
            AggFunc::StdDev => AggAccumulator::Moments(OnlineMoments::new(), MomentsOut::StdDev),
            AggFunc::Quantile(q) => AggAccumulator::Quantile(P2Quantile::new(*q)),
            AggFunc::CountDistinct => AggAccumulator::Distinct(HashSet::new()),
            AggFunc::Last => AggAccumulator::Last(None),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MomentsOut {
    Mean,
    StdDev,
}

/// Streaming accumulator. Nulls are ignored by every function except
/// `CountAll` (which counts rows) and `Last` (which skips nulls too —
/// a null is "no new observation", not a value).
#[derive(Debug, Clone)]
pub enum AggAccumulator {
    Count(u64),
    CountAll(u64),
    Sum { total: f64, seen: bool },
    Moments(OnlineMoments, MomentsOut),
    Extreme { best: Option<Value>, want_max: bool },
    Quantile(P2Quantile),
    Distinct(HashSet<String>),
    Last(Option<Value>),
}

impl AggAccumulator {
    pub fn push(&mut self, v: &Value) {
        match self {
            AggAccumulator::CountAll(n) => *n += 1,
            _ if v.is_null() => {}
            AggAccumulator::Count(n) => *n += 1,
            AggAccumulator::Sum { total, seen } => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *seen = true;
                }
            }
            AggAccumulator::Moments(m, _) => {
                if let Some(x) = v.as_f64() {
                    m.push(x);
                }
            }
            AggAccumulator::Extreme { best, want_max } => {
                let replace = match best {
                    None => true,
                    Some(b) => {
                        let ord = v.total_cmp(b);
                        if *want_max {
                            ord == std::cmp::Ordering::Greater
                        } else {
                            ord == std::cmp::Ordering::Less
                        }
                    }
                };
                if replace {
                    *best = Some(v.clone());
                }
            }
            AggAccumulator::Quantile(q) => {
                if let Some(x) = v.as_f64() {
                    q.push(x);
                }
            }
            AggAccumulator::Distinct(set) => {
                set.insert(v.to_string());
            }
            AggAccumulator::Last(slot) => *slot = Some(v.clone()),
        }
    }

    /// Finalize (accumulator may keep accumulating afterwards; `finish`
    /// reads the current state). Empty inputs yield `NULL` except for the
    /// counting aggregates, which yield 0.
    pub fn finish(&self) -> Value {
        match self {
            AggAccumulator::Count(n) => Value::Int(*n as i64),
            AggAccumulator::CountAll(n) => Value::Int(*n as i64),
            AggAccumulator::Sum { total, seen } => {
                if *seen {
                    Value::Float(*total)
                } else {
                    Value::Null
                }
            }
            AggAccumulator::Moments(m, out) => {
                if m.count() == 0 {
                    Value::Null
                } else {
                    match out {
                        MomentsOut::Mean => Value::Float(m.mean()),
                        MomentsOut::StdDev => Value::Float(m.sample_variance().sqrt()),
                    }
                }
            }
            AggAccumulator::Extreme { best, .. } => best.clone().unwrap_or(Value::Null),
            AggAccumulator::Quantile(q) => q.estimate().map_or(Value::Null, Value::Float),
            AggAccumulator::Distinct(set) => Value::Int(set.len() as i64),
            AggAccumulator::Last(slot) => slot.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot aggregation of a batch through a streaming accumulator.
    fn apply(f: &AggFunc, values: &[Value]) -> Value {
        let mut acc = f.accumulator();
        for v in values {
            acc.push(v);
        }
        acc.finish()
    }

    fn ints(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn parse_specs() {
        assert_eq!(AggFunc::parse("SUM").unwrap(), AggFunc::Sum);
        assert_eq!(AggFunc::parse("mean").unwrap(), AggFunc::Avg);
        assert_eq!(AggFunc::parse("p95").unwrap(), AggFunc::Quantile(0.95));
        assert_eq!(
            AggFunc::parse("quantile(0.5)").unwrap(),
            AggFunc::Quantile(0.5)
        );
        assert!(AggFunc::parse("p0").is_err());
        assert!(AggFunc::parse("p100").is_err());
        assert!(AggFunc::parse("wat").is_err());
    }

    #[test]
    fn basic_aggregates() {
        let vs = ints(&[1, 2, 3, 4]);
        assert_eq!(apply(&AggFunc::Count, &vs), Value::Int(4));
        assert_eq!(apply(&AggFunc::Sum, &vs), Value::Float(10.0));
        assert_eq!(apply(&AggFunc::Avg, &vs), Value::Float(2.5));
        assert_eq!(apply(&AggFunc::Min, &vs), Value::Int(1));
        assert_eq!(apply(&AggFunc::Max, &vs), Value::Int(4));
        assert_eq!(apply(&AggFunc::Last, &vs), Value::Int(4));
    }

    #[test]
    fn output_type_is_the_type_finish_yields() {
        let funcs = [
            AggFunc::Count,
            AggFunc::CountAll,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::StdDev,
            AggFunc::Quantile(0.5),
            AggFunc::CountDistinct,
            AggFunc::Last,
        ];
        let inputs = [
            (ValueType::Int, ints(&[3, 1, 2])),
            (ValueType::Float, vec![Value::Float(0.5), Value::Float(2.0)]),
            (
                ValueType::Str,
                vec![Value::Str("b".into()), Value::Str("a".into())],
            ),
        ];
        for (ty, vs) in &inputs {
            for f in funcs {
                let numeric = matches!(ty, ValueType::Int | ValueType::Float);
                if !numeric && f.output_type(*ty) == ValueType::Float {
                    continue; // numeric-only aggregates; the registry refuses them
                }
                let got = apply(&f, vs).value_type();
                assert_eq!(got, Some(f.output_type(*ty)), "{f:?} over {ty:?}");
            }
        }
    }

    #[test]
    fn nulls_ignored_except_count_all() {
        let vs = vec![Value::Int(2), Value::Null, Value::Int(4), Value::Null];
        assert_eq!(apply(&AggFunc::Count, &vs), Value::Int(2));
        assert_eq!(apply(&AggFunc::CountAll, &vs), Value::Int(4));
        assert_eq!(apply(&AggFunc::Avg, &vs), Value::Float(3.0));
        assert_eq!(
            apply(&AggFunc::Last, &vs),
            Value::Int(4),
            "null is not a new observation"
        );
    }

    #[test]
    fn empty_inputs() {
        let vs: Vec<Value> = vec![];
        assert_eq!(apply(&AggFunc::Count, &vs), Value::Int(0));
        assert_eq!(apply(&AggFunc::CountAll, &vs), Value::Int(0));
        assert_eq!(apply(&AggFunc::Sum, &vs), Value::Null);
        assert_eq!(apply(&AggFunc::Avg, &vs), Value::Null);
        assert_eq!(apply(&AggFunc::Min, &vs), Value::Null);
        assert_eq!(apply(&AggFunc::Quantile(0.5), &vs), Value::Null);
        assert_eq!(apply(&AggFunc::Last, &vs), Value::Null);
    }

    #[test]
    fn stddev_is_sample_std() {
        let vs = ints(&[1, 3]);
        assert_eq!(apply(&AggFunc::StdDev, &vs), Value::Float(2f64.sqrt()));
    }

    #[test]
    fn count_distinct() {
        let vs = vec![
            Value::from("a"),
            Value::from("b"),
            Value::from("a"),
            Value::Null,
        ];
        assert_eq!(apply(&AggFunc::CountDistinct, &vs), Value::Int(2));
    }

    #[test]
    fn quantile_matches_exact_on_big_batch() {
        let vs: Vec<Value> = (0..10_000).map(|i| Value::Float(i as f64)).collect();
        let v = apply(&AggFunc::Quantile(0.9), &vs);
        let x = v.as_f64().unwrap();
        assert!((x - 9_000.0).abs() < 200.0, "p90 {x}");
    }

    #[test]
    fn min_max_on_strings() {
        let vs = vec![Value::from("pear"), Value::from("apple")];
        assert_eq!(apply(&AggFunc::Min, &vs), Value::from("apple"));
        assert_eq!(apply(&AggFunc::Max, &vs), Value::from("pear"));
    }

    #[test]
    fn accumulator_is_incremental() {
        let mut acc = AggFunc::Sum.accumulator();
        acc.push(&Value::Int(1));
        assert_eq!(acc.finish(), Value::Float(1.0));
        acc.push(&Value::Int(2));
        assert_eq!(acc.finish(), Value::Float(3.0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Sum equals the naive sum; min/max equal naive extremes.
            #[test]
            fn agrees_with_naive(xs in proptest::collection::vec(-1000i64..1000, 1..200)) {
                let vs = ints(&xs);
                let sum: i64 = xs.iter().sum();
                prop_assert_eq!(apply(&AggFunc::Sum, &vs), Value::Float(sum as f64));
                prop_assert_eq!(apply(&AggFunc::Min, &vs), Value::Int(*xs.iter().min().unwrap()));
                prop_assert_eq!(apply(&AggFunc::Max, &vs), Value::Int(*xs.iter().max().unwrap()));
            }
        }
    }
}
