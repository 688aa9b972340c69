//! Access-path indexes.
//!
//! Two index kinds back CrossMine's hot paths:
//! * [`KeyIndex`] — hash index from a key value to the rows holding it,
//!   used by tuple-ID propagation and physical joins (§8.1: "an index can be
//!   created for every key or foreign key").
//! * [`SortedIndex`] — rows of a numerical column in ascending value order,
//!   used by the numerical-literal sweep (§5.1: "a sorted index for values on
//!   Aₙ has been built beforehand").

use std::collections::HashMap;

use crate::relation::{Relation, Row};
use crate::schema::AttrId;
use crate::value::Value;

/// Hash index: key value -> rows carrying that value. Null never indexes.
#[derive(Debug, Clone, Default)]
pub struct KeyIndex {
    map: HashMap<u64, Vec<Row>>,
}

impl KeyIndex {
    /// Builds the index over `rel`'s column `attr` (must be a key column).
    pub fn build(rel: &Relation, attr: AttrId) -> Self {
        Self::from_column(rel.column(attr))
    }

    /// Builds the index over one key column's values, in row order.
    pub fn from_column(column: &[Value]) -> Self {
        let mut map: HashMap<u64, Vec<Row>> = HashMap::new();
        for (i, v) in column.iter().enumerate() {
            if let Value::Key(k) = v {
                map.entry(*k).or_default().push(Row(i as u32));
            }
        }
        KeyIndex { map }
    }

    /// Rows whose key column equals `key` (empty slice when absent).
    #[inline]
    pub fn rows(&self, key: u64) -> &[Row] {
        self.map.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct key values.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Largest number of rows sharing a single key value (fan-out bound).
    pub fn max_rows_per_key(&self) -> usize {
        self.map.values().map(Vec::len).max().unwrap_or(0)
    }
}

/// Rows of one numerical column sorted by value (ascending, nulls excluded).
#[derive(Debug, Clone, Default)]
pub struct SortedIndex {
    /// `(value, row)` pairs in ascending value order.
    pub entries: Vec<(f64, Row)>,
}

impl SortedIndex {
    /// Builds the sorted index over `rel`'s column `attr` (numerical).
    pub fn build(rel: &Relation, attr: AttrId) -> Self {
        let mut entries: Vec<(f64, Row)> = rel
            .column(attr)
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_num().map(|x| (x, Row(i as u32))))
            .collect();
        // `partial_cmp(..).unwrap_or(Equal)` is not a total order: one NaN in
        // the column breaks transitivity and can leave even the finite values
        // unsorted, corrupting every downstream prefix sweep.
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        SortedIndex { entries }
    }

    /// Number of indexed (non-null) rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, RelationSchema};
    use crate::value::AttrType;

    fn rel_with(values: Vec<Value>) -> (RelationSchema, Relation) {
        let mut s = RelationSchema::new("T");
        s.add_attribute(Attribute::new("a", AttrType::Numerical)).unwrap();
        let mut r = Relation::new(&s);
        for v in values {
            r.push_unchecked(vec![v]);
        }
        (s, r)
    }

    #[test]
    fn key_index_groups_rows() {
        let mut s = RelationSchema::new("T");
        s.add_attribute(Attribute::new("k", AttrType::ForeignKey { target: "X".into() })).unwrap();
        let mut r = Relation::new(&s);
        for k in [5u64, 7, 5, 9, 5, 7] {
            r.push_unchecked(vec![Value::Key(k)]);
        }
        r.push_unchecked(vec![Value::Null]);
        let idx = KeyIndex::build(&r, AttrId(0));
        assert_eq!(idx.rows(5), &[Row(0), Row(2), Row(4)]);
        assert_eq!(idx.rows(7), &[Row(1), Row(5)]);
        assert_eq!(idx.rows(9), &[Row(3)]);
        assert_eq!(idx.rows(42), &[] as &[Row]);
        assert_eq!(idx.distinct(), 3);
        assert_eq!(idx.max_rows_per_key(), 3);
    }

    #[test]
    fn sorted_index_orders_and_skips_nulls() {
        let (_, r) =
            rel_with(vec![Value::Num(3.0), Value::Null, Value::Num(-1.0), Value::Num(2.0)]);
        let idx = SortedIndex::build(&r, AttrId(0));
        assert_eq!(idx.len(), 3);
        let vals: Vec<f64> = idx.entries.iter().map(|e| e.0).collect();
        assert_eq!(vals, vec![-1.0, 2.0, 3.0]);
        assert_eq!(idx.entries[0].1, Row(2));
    }

    #[test]
    fn sorted_index_empty() {
        let (_, r) = rel_with(vec![Value::Null]);
        let idx = SortedIndex::build(&r, AttrId(0));
        assert!(idx.is_empty());
    }

    #[test]
    fn sorted_index_ties_stable_enough() {
        let (_, r) = rel_with(vec![Value::Num(1.0), Value::Num(1.0)]);
        let idx = SortedIndex::build(&r, AttrId(0));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.entries[0].0, idx.entries[1].0);
    }
}
