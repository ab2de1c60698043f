//! Rows: fixed-width tuples of [`Value`]s.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// A tuple of values. Positions correspond to the fields of the governing
/// [`crate::Schema`]. Cloning is cheap-ish (strings are `Arc<str>`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Replace the value at position `i`.
    pub fn set(&mut self, i: usize, v: Value) {
        self.values[i] = v;
    }

    /// Append a value (schema-evolution / projection building).
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Concatenate two rows (joins).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend(self.values.iter().cloned());
        values.extend(other.values.iter().cloned());
        Row { values }
    }

    /// Project the row to the given column positions.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Wire size in the native representation (see [`Value::wire_size`]).
    pub fn wire_size(&self) -> usize {
        self.values.iter().map(Value::wire_size).sum()
    }

    /// Wire size when shipped as XML, modeling the inflation Bitton describes
    /// ("each table would be converted to XML, increasing its size about 3
    /// times"): each value is serialized as text and wrapped in open/close
    /// element tags derived from column names.
    pub fn xml_wire_size(&self, field_names: &[&str]) -> usize {
        debug_assert_eq!(field_names.len(), self.values.len());
        let row_tags = "<row></row>".len();
        let body: usize = self
            .values
            .iter()
            .zip(field_names)
            .map(|(v, name)| {
                // <name>text</name>
                2 * name.len() + 5 + v.to_string().len()
            })
            .sum();
        row_tags + body
    }

    /// Consume into the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

/// Helper macro to build a row from heterogenous literals.
///
/// ```
/// use eii_data::{row, Value};
/// let r = row![1i64, "alice", 3.5];
/// assert_eq!(r.get(1), &Value::str("alice"));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

/// Cheap shared handle to a row, used where several owners hold the same
/// tuple (a table slot and the change-log entry that wrote it).
pub type RowRef = Arc<Row>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_and_accessors() {
        let r = row![1i64, "x", 2.5, true];
        assert_eq!(r.len(), 4);
        assert_eq!(r.get(0), &Value::Int(1));
        assert_eq!(r.get(3), &Value::Bool(true));
    }

    #[test]
    fn concat_and_project() {
        let a = row![1i64, "a"];
        let b = row![2i64];
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        let p = c.project(&[2, 0]);
        assert_eq!(p, row![2i64, 1i64]);
    }

    #[test]
    fn xml_inflates_size_over_native() {
        let r = row![123456i64, "alice anderson", 9.25];
        let native = r.wire_size();
        let xml = r.xml_wire_size(&["customer_id", "customer_name", "balance"]);
        assert!(
            xml as f64 > 2.0 * native as f64,
            "xml={xml} native={native}: expected substantial inflation"
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(row![1i64, "a"].to_string(), "[1, a]");
    }
}
