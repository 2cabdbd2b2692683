//! Typed, nullable values — the cell type of every table and feature row.

use crate::error::{FsError, Result};
use crate::time::Timestamp;
use std::fmt;

/// The type of a [`Value`]. Every column and feature declares one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ValueType {
    Int,
    Float,
    Bool,
    Str,
    Timestamp,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "Int",
            ValueType::Float => "Float",
            ValueType::Bool => "Bool",
            ValueType::Str => "Str",
            ValueType::Timestamp => "Timestamp",
        };
        f.write_str(s)
    }
}

/// A nullable scalar. `Null` is untyped (SQL-style): any column may hold it
/// and every comparison against it yields `Null`-ish semantics in the
/// expression engine.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
    Timestamp(Timestamp),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime type, or `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Str(_) => Some(ValueType::Str),
            Value::Timestamp(_) => Some(ValueType::Timestamp),
        }
    }

    /// True when this value can live in a column of type `ty`
    /// (nulls fit anywhere; Int is accepted where Float is expected).
    pub fn fits(&self, ty: ValueType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), ValueType::Float) => true,
            (v, t) => v.value_type() == Some(t),
        }
    }

    /// Numeric view: Int and Float (and Bool as 0/1) coerce to f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    pub fn as_timestamp(&self) -> Option<Timestamp> {
        match self {
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Strict numeric extraction with a contextual error, for engine internals.
    pub fn expect_f64(&self, context: &str) -> Result<f64> {
        self.as_f64()
            .ok_or_else(|| FsError::type_mismatch("numeric", type_name(self), context.to_string()))
    }

    /// Total ordering for sorting mixed columns: Null < Bool < Int/Float < Str < Timestamp.
    /// Within numerics, compares by f64 (NaN sorts greatest).
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Timestamp(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.total_cmp(&y)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

fn type_name(v: &Value) -> String {
    v.value_type()
        .map(|t| t.to_string())
        .unwrap_or_else(|| "Null".to_string())
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Timestamp(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Timestamp(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// The key of an entity a feature or embedding is about (a user id, a driver
/// id, a token…). Kept as a small wrapper so signatures stay self-describing.
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct EntityKey(pub String);

impl EntityKey {
    pub fn new(k: impl Into<String>) -> Self {
        EntityKey(k.into())
    }
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EntityKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for EntityKey {
    fn from(s: &str) -> Self {
        EntityKey(s.to_string())
    }
}
impl From<String> for EntityKey {
    fn from(s: String) -> Self {
        EntityKey(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_fits_every_type() {
        for ty in [
            ValueType::Int,
            ValueType::Float,
            ValueType::Bool,
            ValueType::Str,
            ValueType::Timestamp,
        ] {
            assert!(Value::Null.fits(ty));
        }
    }

    #[test]
    fn int_widens_to_float() {
        assert!(Value::Int(3).fits(ValueType::Float));
        assert!(!Value::Float(3.0).fits(ValueType::Int));
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
    }

    #[test]
    fn expect_f64_error_carries_context() {
        let err = Value::Str("a".into())
            .expect_f64("feature `fare`")
            .unwrap_err();
        assert!(err.to_string().contains("fare"));
    }

    #[test]
    fn total_cmp_orders_mixed_values() {
        let mut vs = vec![
            Value::Str("b".into()),
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(5),
                Value::Str("b".into()),
            ]
        );
    }

    #[test]
    fn total_cmp_mixed_numerics() {
        assert_eq!(
            Value::Int(2).total_cmp(&Value::Float(2.5)),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            Value::Float(2.0).total_cmp(&Value::Int(2)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn option_into_value() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::from("hi").to_string(), "hi");
    }
}
