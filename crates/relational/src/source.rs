//! Read-only tuple access for clause evaluation.
//!
//! Evaluating a clause (§5.3) reads a database three ways: a relation's
//! tuple count, one column's values (whole, or gathered at some rows),
//! and the tuples carrying a key value (to follow a join edge, §4).
//! [`TupleSource`] names exactly those, so
//! `crossmine-core` writes the evaluator once and §8's disk-resident
//! operation is the same evaluator over another source. [`Database`] and
//! the delta [`MergedView`](crate::delta::MergedView) cannot fail to read
//! ([`Infallible`]); `crossmine-storage` adapts a disk-resident database.

use std::borrow::Cow;
use std::convert::Infallible;

use crate::database::Database;
use crate::index::KeyIndex;
use crate::relation::Row;
use crate::schema::{AttrId, RelId};
use crate::value::Value;

/// A read-only database the clause evaluator can run over.
pub trait TupleSource {
    /// Why a read failed; [`Infallible`] for in-memory sources.
    type Error;
    /// The lookup [`keys`](TupleSource::keys) returns.
    type Keys<'a>: KeyLookup
    where
        Self: 'a;

    /// Number of tuples of `rel`.
    fn num_rows(&self, rel: RelId) -> usize;

    /// Column `attr` of `rel`, in row order: borrowed where the source
    /// holds it in memory, read in one sequential scan otherwise.
    fn column(&self, rel: RelId, attr: AttrId) -> Result<Cow<'_, [Value]>, Self::Error>;

    /// The values of column `attr` of `rel` at `rows`, in the order given,
    /// into `out` (cleared first). The default reads the whole
    /// [`column`](TupleSource::column) once, so a caller gathering once per
    /// column reads no more than one that takes the column.
    fn values(
        &self,
        rel: RelId,
        attr: AttrId,
        rows: &[Row],
        out: &mut Vec<Value>,
    ) -> Result<(), Self::Error> {
        let column = self.column(rel, attr)?;
        out.clear();
        out.extend(rows.iter().map(|r| column[r.0 as usize]));
        Ok(())
    }

    /// The rows of `rel` by value of its key column `attr`.
    fn keys(&self, rel: RelId, attr: AttrId) -> Result<Self::Keys<'_>, Self::Error>;
}

/// Key value → rows, for one key column of a [`TupleSource`].
pub trait KeyLookup {
    /// Calls `f` for every row whose key column holds `key`, in ascending
    /// row order. Null never matches.
    fn for_each_row(&self, key: u64, f: impl FnMut(Row));
}

impl KeyLookup for &KeyIndex {
    fn for_each_row(&self, key: u64, mut f: impl FnMut(Row)) {
        for &row in self.rows(key) {
            f(row);
        }
    }
}

impl TupleSource for Database {
    type Error = Infallible;
    type Keys<'a> = &'a KeyIndex;

    fn num_rows(&self, rel: RelId) -> usize {
        self.relation(rel).len()
    }

    fn column(&self, rel: RelId, attr: AttrId) -> Result<Cow<'_, [Value]>, Infallible> {
        Ok(Cow::Borrowed(self.relation(rel).column(attr)))
    }

    fn keys(&self, rel: RelId, attr: AttrId) -> Result<&KeyIndex, Infallible> {
        Ok(self.key_index(rel, attr))
    }
}
