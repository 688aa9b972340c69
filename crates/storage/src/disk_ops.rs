//! CrossMine's two §8 operations on disk-resident data:
//!
//! * **Tuple-ID propagation** (§8.1): "when propagating IDs from R₁ to R₂,
//!   only the tuple IDs and the two joined attributes are needed. If one of
//!   them can fit in main memory, this propagation can be done efficiently."
//!   [`DiskSource`] is the [`TupleSource`] the core evaluator runs over: it
//!   reads a column in one sequential scan and keeps each key column it
//!   joins on as an in-memory key → rows map, built once per source.
//! * **Literal evaluation** (§8.2): "if all attributes of R are categorical,
//!   then the numbers of positive and negative target tuples satisfying
//!   every literal can be calculated by one sequential scan on R."
//!   [`categorical_counts_disk`] does exactly that scan.

use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};

use crossmine_core::idset::{Stamp, TargetSet};
use crossmine_core::propagation::Annotation;
use crossmine_relational::{AttrId, KeyIndex, RelId, TupleSource, Value};

use crate::pager::{Result, StorageError};
use crate::store::DiskDatabase;

/// A [`DiskDatabase`] as a [`TupleSource`], for one evaluation: column
/// reads go through the buffer pool, key maps are kept for the source's
/// lifetime.
#[derive(Debug)]
pub struct DiskSource<'a> {
    disk: RefCell<&'a mut DiskDatabase>,
    /// `keys[rel][attr]`, built on first lookup.
    keys: Vec<Vec<OnceCell<KeyIndex>>>,
}

impl<'a> DiskSource<'a> {
    /// A source reading `disk`.
    pub fn new(disk: &'a mut DiskDatabase) -> Self {
        let keys = disk.schema.iter_relations().map(|(_, r)| vec![OnceCell::new(); r.arity()]);
        DiskSource { keys: keys.collect(), disk: RefCell::new(disk) }
    }
}

impl TupleSource for DiskSource<'_> {
    type Error = StorageError;
    type Keys<'k>
        = &'k KeyIndex
    where
        Self: 'k;

    fn num_rows(&self, rel: RelId) -> usize {
        self.disk.borrow().num_rows(rel)
    }

    /// One sequential scan of the column.
    fn column(&self, rel: RelId, attr: AttrId) -> Result<Cow<'_, [Value]>> {
        let mut disk = self.disk.borrow_mut();
        let mut values = Vec::with_capacity(disk.num_rows(rel));
        disk.scan_column(rel, attr, |_, v| values.push(v))?;
        Ok(Cow::Owned(values))
    }

    /// The kept key map, or one scan of the column to build it.
    fn keys(&self, rel: RelId, attr: AttrId) -> Result<&KeyIndex> {
        let cell = &self.keys[rel.0][attr.0];
        if let Some(keys) = cell.get() {
            return Ok(keys);
        }
        let built = KeyIndex::from_column(&self.column(rel, attr)?);
        Ok(cell.get_or_init(|| built))
    }
}

/// Counts, with one sequential scan of `rel`'s categorical column `attr`,
/// the distinct positive/negative targets behind each categorical value
/// (§8.2). Returns `(value code) -> (pos, neg)` for codes `0..card`.
pub fn categorical_counts_disk(
    disk: &mut DiskDatabase,
    rel: RelId,
    attr: AttrId,
    ann: &Annotation,
    targets: &TargetSet,
    is_pos: &[bool],
    stamp: &mut Stamp,
) -> Result<Vec<(usize, usize)>> {
    let card = disk.schema.relation(rel).attr(attr).cardinality().max(1);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); card];
    disk.scan_column(rel, attr, |row, v| {
        let set = &ann.idsets[row];
        if set.is_empty() {
            return;
        }
        if let Value::Cat(c) = v {
            if (c as usize) < buckets.len() {
                buckets[c as usize].extend(set.iter().filter(|&id| targets.contains(id)));
            }
        }
    })?;
    Ok(buckets
        .into_iter()
        .map(|ids| {
            stamp.reset();
            let mut p = 0;
            let mut n = 0;
            for id in ids {
                if stamp.mark(id) {
                    if is_pos[id as usize] {
                        p += 1;
                    } else {
                        n += 1;
                    }
                }
            }
            (p, n)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmine_core::propagation::{propagate, try_propagate, ClauseState};
    use crossmine_relational::{ClassLabel, JoinGraph};
    use crossmine_synth::{generate, GenParams};

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("crossmine-diskops-{tag}-{}", std::process::id()))
    }

    /// Disk propagation must equal in-memory propagation on every edge of a
    /// generated database, even with a pathologically small buffer pool.
    #[test]
    fn disk_propagation_matches_memory() {
        let params = GenParams {
            num_relations: 5,
            expected_tuples: 90,
            min_tuples: 25,
            seed: 17,
            ..Default::default()
        };
        let db = generate(&params);
        let path = tmp("prop");
        let mut disk = DiskDatabase::spill(&db, &path, 3).unwrap();
        let graph = JoinGraph::build(&db.schema);
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let target = db.target().unwrap();

        let source = DiskSource::new(&mut disk);
        for edge in graph.edges_from(target) {
            let mem = state.propagate_edge(edge);
            let dsk = try_propagate(&source, state.annotation(target).unwrap(), edge).unwrap();
            assert_eq!(mem.idsets.len(), dsk.idsets.len());
            for (i, (a, b)) in mem.idsets.iter().zip(&dsk.idsets).enumerate() {
                assert_eq!(a, b, "row {i} of edge {edge:?}");
            }
            // And one transitive hop (Lemma 2 on disk).
            if let Some(edge2) = graph.edges_from(edge.to).next() {
                let mem2 = propagate(&db, &mem, edge2);
                let dsk2 = try_propagate(&source, &dsk, edge2).unwrap();
                assert_eq!(mem2.idsets, dsk2.idsets);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The one-scan categorical counting of §8.2 must agree with in-memory
    /// distinct counting.
    #[test]
    fn disk_literal_counts_match_memory() {
        let params = GenParams {
            num_relations: 4,
            expected_tuples: 80,
            min_tuples: 20,
            seed: 6,
            ..Default::default()
        };
        let db = generate(&params);
        let path = tmp("counts");
        let mut disk = DiskDatabase::spill(&db, &path, 4).unwrap();
        let graph = JoinGraph::build(&db.schema);
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let targets = TargetSet::all(&is_pos);
        let state = ClauseState::new(&db, &is_pos, targets.clone());
        let target = db.target().unwrap();
        let edge = *graph.edges_from(target).next().expect("target has an edge");
        let ann = state.propagate_edge(&edge);
        let mut stamp = Stamp::new(db.num_targets());

        // Every categorical attribute of the destination relation.
        for (aid, attr) in db.schema.relation(edge.to).iter_attrs() {
            if !attr.ty.is_categorical() {
                continue;
            }
            let disk_counts = categorical_counts_disk(
                &mut disk, edge.to, aid, &ann, &targets, &is_pos, &mut stamp,
            )
            .unwrap();
            // In-memory reference: bucket manually.
            for (code, &(p, n)) in disk_counts.iter().enumerate() {
                stamp.reset();
                let mut mp = 0;
                let mut mn = 0;
                for (row, set) in ann.idsets.iter().enumerate() {
                    if set.is_empty() {
                        continue;
                    }
                    if db.relation(edge.to).value(crossmine_relational::Row(row as u32), aid)
                        == Value::Cat(code as u32)
                    {
                        for id in set.iter() {
                            if targets.contains(id) && stamp.mark(id) {
                                if is_pos[id as usize] {
                                    mp += 1;
                                } else {
                                    mn += 1;
                                }
                            }
                        }
                    }
                }
                assert_eq!((p, n), (mp, mn), "attr {} code {code}", attr.name);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A key map is read through the pool once per source, then served
    /// from memory; a column read is one scan every time.
    #[test]
    fn disk_source_builds_each_key_map_once() {
        let params =
            GenParams { num_relations: 4, expected_tuples: 300, seed: 8, ..Default::default() };
        let db = generate(&params);
        let path = tmp("keys");
        let mut disk = DiskDatabase::spill(&db, &path, 2).unwrap();
        let graph = JoinGraph::build(&db.schema);
        let edge = *graph.edges_from(db.target().unwrap()).next().unwrap();
        let source = DiskSource::new(&mut disk);
        let reads = |s: &DiskSource<'_>| {
            let stats = s.disk.borrow().stats();
            stats.hits + stats.misses
        };

        let first = source.keys(edge.to, edge.to_attr).unwrap() as *const KeyIndex;
        let after_build = reads(&source);
        let again = source.keys(edge.to, edge.to_attr).unwrap() as *const KeyIndex;
        assert!(std::ptr::eq(first, again));
        assert_eq!(reads(&source), after_build, "a kept key map reads no page");
        let col = source.column(edge.to, edge.to_attr).unwrap();
        assert_eq!(col.len(), db.relation(edge.to).len());
        assert!(reads(&source) > after_build, "a column read scans the pool");
        drop(source);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bounded_memory_during_propagation() {
        let params =
            GenParams { num_relations: 4, expected_tuples: 1500, seed: 8, ..Default::default() };
        let db = generate(&params);
        let path = tmp("bounded");
        let mut disk = DiskDatabase::spill(&db, &path, 4).unwrap();
        let graph = JoinGraph::build(&db.schema);
        let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        let target = db.target().unwrap();
        let edge = *graph.edges_from(target).next().unwrap();
        try_propagate(&DiskSource::new(&mut disk), state.annotation(target).unwrap(), &edge)
            .unwrap();
        assert!(disk.resident_pages() <= 4, "pool must stay bounded");
        std::fs::remove_file(&path).ok();
    }
}
