//! Scan predicates with zone-map pruning support.

use fstore_common::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator for a column predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// `column <op> literal`, SQL three-valued: a null cell never matches.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub(crate) column: String,
    pub(crate) op: CmpOp,
    pub(crate) value: Value,
}

impl Predicate {
    pub fn new(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Row-level evaluation.
    pub(crate) fn matches(&self, cell: &Value) -> bool {
        if cell.is_null() || self.value.is_null() {
            return false;
        }
        let ord = cell.total_cmp(&self.value);
        match self.op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// Segment-level pruning: can any value in `[min, max]` match?
    /// Conservative — returns `true` when unsure (e.g. `Ne`, or missing
    /// zone-map bounds).
    pub(crate) fn may_match_range(&self, min: Option<&Value>, max: Option<&Value>) -> bool {
        let (Some(min), Some(max)) = (min, max) else {
            return true;
        };
        if self.value.is_null() {
            return false;
        }
        let lo = self.value.total_cmp(min); // value vs min
        let hi = self.value.total_cmp(max); // value vs max
        match self.op {
            // value must fall inside [min, max]
            CmpOp::Eq => lo != Ordering::Less && hi != Ordering::Greater,
            CmpOp::Ne => true,
            // some cell < value ⇔ min < value
            CmpOp::Lt => lo == Ordering::Greater,
            CmpOp::Le => lo != Ordering::Less,
            // some cell > value ⇔ max > value
            CmpOp::Gt => hi == Ordering::Less,
            CmpOp::Ge => hi != Ordering::Greater,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_level_semantics() {
        let p = Predicate::new("x", CmpOp::Ge, 5i64);
        assert!(p.matches(&Value::Int(5)));
        assert!(p.matches(&Value::Float(5.5)));
        assert!(!p.matches(&Value::Int(4)));
        assert!(!p.matches(&Value::Null), "null never matches");
    }

    #[test]
    fn each_operator() {
        let v = Value::Int(3);
        assert!(Predicate::new("x", CmpOp::Eq, 3i64).matches(&v));
        assert!(Predicate::new("x", CmpOp::Ne, 4i64).matches(&v));
        assert!(Predicate::new("x", CmpOp::Lt, 4i64).matches(&v));
        assert!(Predicate::new("x", CmpOp::Le, 3i64).matches(&v));
        assert!(Predicate::new("x", CmpOp::Gt, 2i64).matches(&v));
        assert!(Predicate::new("x", CmpOp::Ge, 3i64).matches(&v));
        assert!(!Predicate::new("x", CmpOp::Gt, 3i64).matches(&v));
    }

    #[test]
    fn string_comparison() {
        let p = Predicate::new("city", CmpOp::Eq, "sf");
        assert!(p.matches(&Value::from("sf")));
        assert!(!p.matches(&Value::from("nyc")));
    }

    #[test]
    fn range_pruning_eq() {
        let p = Predicate::new("x", CmpOp::Eq, 10i64);
        let (min, max) = (Value::Int(0), Value::Int(5));
        assert!(
            !p.may_match_range(Some(&min), Some(&max)),
            "10 outside [0,5]"
        );
        let max2 = Value::Int(15);
        assert!(p.may_match_range(Some(&min), Some(&max2)));
    }

    #[test]
    fn range_pruning_inequalities() {
        let (min, max) = (Value::Int(10), Value::Int(20));
        // cells all >= 10, so `x < 5` cannot match
        assert!(!Predicate::new("x", CmpOp::Lt, 5i64).may_match_range(Some(&min), Some(&max)));
        assert!(Predicate::new("x", CmpOp::Lt, 11i64).may_match_range(Some(&min), Some(&max)));
        // cells all <= 20, so `x > 25` cannot match
        assert!(!Predicate::new("x", CmpOp::Gt, 25i64).may_match_range(Some(&min), Some(&max)));
        assert!(Predicate::new("x", CmpOp::Ge, 20i64).may_match_range(Some(&min), Some(&max)));
        assert!(!Predicate::new("x", CmpOp::Ge, 21i64).may_match_range(Some(&min), Some(&max)));
        assert!(Predicate::new("x", CmpOp::Le, 10i64).may_match_range(Some(&min), Some(&max)));
        assert!(!Predicate::new("x", CmpOp::Le, 9i64).may_match_range(Some(&min), Some(&max)));
    }

    #[test]
    fn pruning_is_conservative_without_bounds() {
        let p = Predicate::new("x", CmpOp::Eq, 10i64);
        assert!(p.may_match_range(None, None));
        assert!(p.may_match_range(Some(&Value::Int(0)), None));
    }

    #[test]
    fn ne_never_prunes() {
        let p = Predicate::new("x", CmpOp::Ne, 10i64);
        assert!(p.may_match_range(Some(&Value::Int(10)), Some(&Value::Int(10))));
    }
}
