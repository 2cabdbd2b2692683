//! Table and feature-row schemas.

use crate::error::{FsError, Result};
use crate::value::{Value, ValueType};
use std::collections::HashMap;
use std::sync::Arc;

/// One field of a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub name: String,
    pub ty: ValueType,
    pub nullable: bool,
}

impl FieldDef {
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    pub fn not_null(name: impl Into<String>, ty: ValueType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            nullable: false,
        }
    }
}

/// An ordered set of named, typed fields with O(1) name lookup.
///
/// Schemas are immutable after construction and cheaply cloneable (the field
/// list lives behind an `Arc`), because every row batch and segment carries
/// a reference to its schema.
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Arc<[FieldDef]>,
    by_name: Arc<HashMap<String, usize>>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields[..] == other.fields[..]
    }
}
impl Eq for Schema {}

impl Schema {
    /// Build a schema; fails on duplicate field names.
    pub fn new(fields: Vec<FieldDef>) -> Result<Self> {
        let mut by_name = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if by_name.insert(f.name.clone(), i).is_some() {
                return Err(FsError::InvalidArgument(format!(
                    "duplicate field `{}` in schema",
                    f.name
                )));
            }
        }
        Ok(Schema {
            fields: fields.into(),
            by_name: Arc::new(by_name),
        })
    }

    /// Convenience constructor from `(name, type)` pairs (all nullable).
    pub fn of(pairs: &[(&str, ValueType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| FieldDef::new(*n, *t)).collect())
            .expect("Schema::of called with duplicate names")
    }

    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Validate that `row` matches this schema (arity, types, null policy).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.fields.len() {
            return Err(FsError::InvalidArgument(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.fields.len()
            )));
        }
        for (f, v) in self.fields.iter().zip(row) {
            if v.is_null() {
                if !f.nullable {
                    return Err(FsError::InvalidArgument(format!(
                        "null in non-nullable field `{}`",
                        f.name
                    )));
                }
            } else if !v.fits(f.ty) {
                return Err(FsError::type_mismatch(
                    f.ty.to_string(),
                    v.value_type().map(|t| t.to_string()).unwrap_or_default(),
                    format!("field `{}`", f.name),
                ));
            }
        }
        Ok(())
    }

    /// Project to a subset of columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let fields = names
            .iter()
            .map(|n| {
                self.field(n)
                    .cloned()
                    .ok_or_else(|| FsError::not_found("field", n.to_string()))
            })
            .collect::<Result<Vec<_>>>()?;
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::of(&[
            ("user_id", ValueType::Str),
            ("trips", ValueType::Int),
            ("rating", ValueType::Float),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = demo();
        assert_eq!(s.index_of("trips"), Some(1));
        assert_eq!(s.field("rating").unwrap().ty, ValueType::Float);
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::new(vec![
            FieldDef::new("a", ValueType::Int),
            FieldDef::new("a", ValueType::Float),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn check_row_accepts_valid() {
        let s = demo();
        s.check_row(&[Value::from("u1"), Value::Int(3), Value::Float(4.5)])
            .unwrap();
        // Int widens to Float; nulls allowed when nullable.
        s.check_row(&[Value::from("u1"), Value::Null, Value::Int(4)])
            .unwrap();
    }

    #[test]
    fn check_row_rejects_bad_arity_and_types() {
        let s = demo();
        assert!(s.check_row(&[Value::from("u1")]).is_err());
        let err = s
            .check_row(&[Value::from("u1"), Value::from("three"), Value::Null])
            .unwrap_err();
        assert!(err.to_string().contains("trips"));
    }

    #[test]
    fn check_row_enforces_not_null() {
        let s = Schema::new(vec![FieldDef::not_null("id", ValueType::Int)]).unwrap();
        assert!(s.check_row(&[Value::Null]).is_err());
        s.check_row(&[Value::Int(1)]).unwrap();
    }

    #[test]
    fn project_selects_in_order() {
        let s = demo();
        let p = s.project(&["rating", "user_id"]).unwrap();
        assert_eq!(p.fields()[0].name, "rating");
        assert_eq!(p.fields()[1].name, "user_id");
        assert!(s.project(&["ghost"]).is_err());
    }

    #[test]
    fn schemas_compare_by_fields() {
        assert_eq!(demo(), demo());
        assert_ne!(demo(), Schema::of(&[("x", ValueType::Int)]));
    }
}
