//! Typed column vectors with word-packed null bitmaps — the physical layout
//! of offline-store segments.

use fstore_common::{FsError, Result, Timestamp, Value, ValueType};

/// A packed validity bitmap (1 = present, 0 = null), 64 rows per word.
/// Fields are crate-visible so the on-disk segment format (`crate::disk`)
/// can persist and reconstruct the words directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NullBitmap {
    pub(crate) words: Vec<u64>,
    pub(crate) len: usize,
    pub(crate) null_count: usize,
}

impl NullBitmap {
    pub(crate) fn new() -> Self {
        NullBitmap::default()
    }

    pub(crate) fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1 << bit;
        } else {
            self.null_count += 1;
        }
        self.len += 1;
    }

    pub(crate) fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn null_count(&self) -> usize {
        self.null_count
    }
}

/// A typed column. Null slots hold a default in the data vector and a zero
/// bit in the bitmap, so dense numeric scans never branch on an enum.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column {
    Int {
        data: Vec<i64>,
        nulls: NullBitmap,
    },
    Float {
        data: Vec<f64>,
        nulls: NullBitmap,
    },
    Bool {
        data: Vec<bool>,
        nulls: NullBitmap,
    },
    Str {
        data: Vec<String>,
        nulls: NullBitmap,
    },
    Timestamp {
        data: Vec<i64>,
        nulls: NullBitmap,
    },
}

impl Column {
    pub(crate) fn new(ty: ValueType) -> Self {
        match ty {
            ValueType::Int => Column::Int {
                data: Vec::new(),
                nulls: NullBitmap::new(),
            },
            ValueType::Float => Column::Float {
                data: Vec::new(),
                nulls: NullBitmap::new(),
            },
            ValueType::Bool => Column::Bool {
                data: Vec::new(),
                nulls: NullBitmap::new(),
            },
            ValueType::Str => Column::Str {
                data: Vec::new(),
                nulls: NullBitmap::new(),
            },
            ValueType::Timestamp => Column::Timestamp {
                data: Vec::new(),
                nulls: NullBitmap::new(),
            },
        }
    }

    pub(crate) fn value_type(&self) -> ValueType {
        match self {
            Column::Int { .. } => ValueType::Int,
            Column::Float { .. } => ValueType::Float,
            Column::Bool { .. } => ValueType::Bool,
            Column::Str { .. } => ValueType::Str,
            Column::Timestamp { .. } => ValueType::Timestamp,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.nulls().len()
    }

    pub(crate) fn null_count(&self) -> usize {
        self.nulls().null_count()
    }

    fn nulls(&self) -> &NullBitmap {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Timestamp { nulls, .. } => nulls,
        }
    }

    /// Append a value; `Null` is accepted by every column, `Int` widens into
    /// `Float` columns (mirroring [`Value::fits`]).
    pub(crate) fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Int { data, nulls }, Value::Int(i)) => {
                data.push(*i);
                nulls.push(true);
            }
            (Column::Float { data, nulls }, Value::Float(f)) => {
                data.push(*f);
                nulls.push(true);
            }
            (Column::Float { data, nulls }, Value::Int(i)) => {
                data.push(*i as f64);
                nulls.push(true);
            }
            (Column::Bool { data, nulls }, Value::Bool(b)) => {
                data.push(*b);
                nulls.push(true);
            }
            (Column::Str { data, nulls }, Value::Str(s)) => {
                data.push(s.clone());
                nulls.push(true);
            }
            (Column::Timestamp { data, nulls }, Value::Timestamp(t)) => {
                data.push(t.as_millis());
                nulls.push(true);
            }
            (col, Value::Null) => match col {
                Column::Int { data, nulls } => {
                    data.push(0);
                    nulls.push(false);
                }
                Column::Float { data, nulls } => {
                    data.push(0.0);
                    nulls.push(false);
                }
                Column::Bool { data, nulls } => {
                    data.push(false);
                    nulls.push(false);
                }
                Column::Str { data, nulls } => {
                    data.push(String::new());
                    nulls.push(false);
                }
                Column::Timestamp { data, nulls } => {
                    data.push(0);
                    nulls.push(false);
                }
            },
            (col, v) => {
                return Err(FsError::type_mismatch(
                    col.value_type().to_string(),
                    v.value_type().map(|t| t.to_string()).unwrap_or_default(),
                    "Column::push",
                ))
            }
        }
        Ok(())
    }

    /// Read row `i` back as a [`Value`].
    pub(crate) fn get(&self, i: usize) -> Value {
        if !self.nulls().is_valid(i) {
            return Value::Null;
        }
        match self {
            Column::Int { data, .. } => Value::Int(data[i]),
            Column::Float { data, .. } => Value::Float(data[i]),
            Column::Bool { data, .. } => Value::Bool(data[i]),
            Column::Str { data, .. } => Value::Str(data[i].clone()),
            Column::Timestamp { data, .. } => Value::Timestamp(Timestamp::millis(data[i])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_packs_and_counts() {
        let mut b = NullBitmap::new();
        for i in 0..130 {
            b.push(i % 3 != 0);
        }
        assert_eq!(b.len(), 130);
        assert_eq!(b.null_count(), 44);
        assert!(!b.is_valid(0));
        assert!(b.is_valid(1));
        assert!(!b.is_valid(129));
        assert!(b.is_valid(128));
    }

    #[test]
    fn push_get_round_trip_all_types() {
        let cases = vec![
            (ValueType::Int, Value::Int(-7)),
            (ValueType::Float, Value::Float(2.5)),
            (ValueType::Bool, Value::Bool(true)),
            (ValueType::Str, Value::from("hey")),
            (
                ValueType::Timestamp,
                Value::Timestamp(Timestamp::millis(99)),
            ),
        ];
        for (ty, v) in cases {
            let mut c = Column::new(ty);
            c.push(&v).unwrap();
            c.push(&Value::Null).unwrap();
            assert_eq!(c.get(0), v, "{ty}");
            assert_eq!(c.get(1), Value::Null);
            assert_eq!(c.len(), 2);
            assert_eq!(c.null_count(), 1);
        }
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new(ValueType::Float);
        c.push(&Value::Int(3)).unwrap();
        assert_eq!(c.get(0), Value::Float(3.0));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut c = Column::new(ValueType::Int);
        let err = c.push(&Value::from("x")).unwrap_err();
        assert!(err.to_string().contains("Int"));
        assert_eq!(c.len(), 0, "failed push must not grow the column");
    }
}
