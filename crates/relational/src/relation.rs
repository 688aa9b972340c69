//! Columnar tuple storage for one relation.
//!
//! Tuples are addressed by dense row indexes ([`Row`]). Storage is columnar
//! (`Vec<Value>` per attribute) so literal evaluation scans one contiguous
//! column at a time, as CrossMine's per-attribute search (§5.1) expects.

use crate::error::{DataError, Result};
use crate::schema::{AttrId, RelationSchema};
use crate::value::{AttrType, Value};

/// Dense row index within one relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row(pub u32);

/// Tuple storage for one relation, column-major.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl Relation {
    /// Creates empty storage matching `schema`'s arity.
    pub fn new(schema: &RelationSchema) -> Self {
        Relation { columns: vec![Vec::new(); schema.arity()], rows: 0 }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends one tuple after checking arity and value/attribute type
    /// agreement against `schema` ([`Relation::check_tuple`]).
    pub fn push_checked(&mut self, schema: &RelationSchema, tuple: Vec<Value>) -> Result<Row> {
        Self::check_tuple(schema, &tuple)?;
        Ok(self.push_unchecked(tuple))
    }

    /// Checks `tuple`'s arity and value/attribute type agreement against
    /// `schema` without storing it.
    pub(crate) fn check_tuple(schema: &RelationSchema, tuple: &[Value]) -> Result<()> {
        if tuple.len() != schema.arity() {
            return Err(DataError::ArityMismatch {
                relation: schema.name.clone(),
                expected: schema.arity(),
                got: tuple.len(),
            }
            .into());
        }
        for (i, v) in tuple.iter().enumerate() {
            let attr = schema.attr(AttrId(i));
            let ok = matches!(
                (&attr.ty, v),
                (_, Value::Null)
                    | (AttrType::PrimaryKey | AttrType::ForeignKey { .. }, Value::Key(_))
                    | (AttrType::Categorical, Value::Cat(_))
                    | (AttrType::Numerical, Value::Num(_))
            );
            if !ok {
                return Err(DataError::TypeMismatch {
                    relation: schema.name.clone(),
                    attribute: attr.name.clone(),
                    expected: match attr.ty {
                        AttrType::PrimaryKey | AttrType::ForeignKey { .. } => "key",
                        AttrType::Categorical => "categorical",
                        AttrType::Numerical => "numerical",
                    },
                }
                .into());
            }
        }
        Ok(())
    }

    /// Appends one tuple without validation. Callers (the generators and the
    /// CSV loader after its own checks) must guarantee arity and types.
    pub fn push_unchecked(&mut self, tuple: Vec<Value>) -> Row {
        debug_assert_eq!(tuple.len(), self.columns.len());
        for (col, v) in self.columns.iter_mut().zip(tuple) {
            col.push(v);
        }
        let row = Row(self.rows as u32);
        self.rows += 1;
        row
    }

    /// The value at (`row`, `attr`).
    #[inline]
    pub fn value(&self, row: Row, attr: AttrId) -> Value {
        self.columns[attr.0][row.0 as usize]
    }

    /// The whole column for `attr`.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &[Value] {
        &self.columns[attr.0]
    }

    /// Overwrites the value at (`row`, `attr`). Used by generators when wiring
    /// foreign keys after the fact.
    pub fn set_value(&mut self, row: Row, attr: AttrId, v: Value) {
        self.columns[attr.0][row.0 as usize] = v;
    }

    /// One full tuple as an owned vector (diagnostics / CSV export).
    pub fn tuple(&self, row: Row) -> Vec<Value> {
        self.columns.iter().map(|c| c[row.0 as usize]).collect()
    }

    /// Iterator over all row indexes.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> {
        (0..self.rows as u32).map(Row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> RelationSchema {
        let mut r = RelationSchema::new("T");
        r.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        r.add_attribute(Attribute::new("c", AttrType::Categorical)).unwrap();
        r.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
        r
    }

    #[test]
    fn push_and_read_back() {
        let s = schema();
        let mut rel = Relation::new(&s);
        assert!(rel.is_empty());
        let r0 = rel.push_checked(&s, vec![Value::Key(1), Value::Cat(0), Value::Num(3.5)]).unwrap();
        let r1 = rel.push_checked(&s, vec![Value::Key(2), Value::Null, Value::Num(-1.0)]).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.value(r0, AttrId(2)), Value::Num(3.5));
        assert_eq!(rel.value(r1, AttrId(1)), Value::Null);
        assert_eq!(rel.tuple(r0), vec![Value::Key(1), Value::Cat(0), Value::Num(3.5)]);
        assert_eq!(rel.column(AttrId(0)).len(), 2);
        assert_eq!(rel.iter_rows().count(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        let mut rel = Relation::new(&s);
        let err = rel.push_checked(&s, vec![Value::Key(1)]).unwrap_err();
        assert!(matches!(
            err,
            crate::error::RelationalError::Data(DataError::ArityMismatch {
                expected: 3,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        let mut rel = Relation::new(&s);
        let err = rel
            .push_checked(&s, vec![Value::Key(1), Value::Num(0.0), Value::Num(0.0)])
            .unwrap_err();
        assert!(matches!(err, crate::error::RelationalError::Data(DataError::TypeMismatch { .. })));
    }

    #[test]
    fn null_allowed_anywhere() {
        let s = schema();
        let mut rel = Relation::new(&s);
        rel.push_checked(&s, vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn set_value_overwrites() {
        let s = schema();
        let mut rel = Relation::new(&s);
        let r = rel.push_checked(&s, vec![Value::Key(1), Value::Cat(0), Value::Num(0.0)]).unwrap();
        rel.set_value(r, AttrId(2), Value::Num(9.0));
        assert_eq!(rel.value(r, AttrId(2)), Value::Num(9.0));
    }
}
