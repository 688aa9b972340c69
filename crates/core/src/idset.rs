//! Tuple-ID sets and distinct-target counting.
//!
//! Every tuple of a relation that IDs have been propagated to carries an
//! [`IdSet`]: the target tuples joinable with it along the current clause's
//! join path (Definition 2). Sets are sorted, deduplicated `u32` vectors.
//!
//! Counting the distinct positive/negative targets behind a set of rows is
//! the innermost loop of literal evaluation, so it uses a generation-stamped
//! scratch array ([`Stamp`]) with O(1) reset.

use crossmine_relational::Row;

/// A sorted, deduplicated set of target-tuple IDs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdSet(Vec<u32>);

impl IdSet {
    /// The empty set.
    pub fn new() -> Self {
        IdSet(Vec::new())
    }

    /// A singleton set (identity annotation of the target relation).
    pub fn singleton(id: u32) -> Self {
        IdSet(vec![id])
    }

    /// Builds a set from arbitrary ids, sorting and deduplicating.
    pub fn from_ids(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        IdSet(ids)
    }

    /// Builds a set from ids that are already sorted and deduplicated
    /// (e.g. one row's range of a CSR propagation buffer).
    pub fn from_sorted(ids: Vec<u32>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted+dedup");
        IdSet(ids)
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the set is empty (tuple not joinable / eliminated).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterator over the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().copied()
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: u32) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    /// Keeps only ids for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.0.retain(|&id| keep(id));
    }

    /// Clears the set (eliminates the tuple).
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl FromIterator<u32> for IdSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        IdSet::from_ids(iter.into_iter().collect())
    }
}

/// A subset of the target relation's rows with cached pos/neg counts,
/// representing the targets satisfying the current clause.
///
/// Each target carries one class byte: [`TargetSet::class`] is 0 for a
/// non-member, 1 for a negative member and 2 for a positive one. The scorers
/// tally a group of distinct ids by summing these bytes, with no membership
/// branch and no separate positivity lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSet {
    classes: Vec<u8>,
    pos: usize,
    neg: usize,
}

/// The class byte of a target labelled `positive`.
fn class_byte(positive: bool) -> u8 {
    1 + u8::from(positive)
}

impl TargetSet {
    /// Builds a set over `is_pos.len()` targets containing exactly `rows`.
    pub fn from_rows(is_pos: &[bool], rows: impl IntoIterator<Item = Row>) -> Self {
        let mut classes = vec![0u8; is_pos.len()];
        let mut pos = 0;
        let mut neg = 0;
        for r in rows {
            let i = r.0 as usize;
            if classes[i] == 0 {
                classes[i] = class_byte(is_pos[i]);
                if is_pos[i] {
                    pos += 1;
                } else {
                    neg += 1;
                }
            }
        }
        TargetSet { classes, pos, neg }
    }

    /// The full set of targets.
    pub fn all(is_pos: &[bool]) -> Self {
        TargetSet {
            classes: is_pos.iter().map(|&p| class_byte(p)).collect(),
            pos: is_pos.iter().filter(|&&p| p).count(),
            neg: is_pos.iter().filter(|&&p| !p).count(),
        }
    }

    /// Number of positive members.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Number of negative members.
    pub fn neg(&self) -> usize {
        self.neg
    }

    /// Total membership.
    pub fn len(&self) -> usize {
        self.pos + self.neg
    }

    /// True when no targets remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity (total number of target rows, member or not).
    pub fn capacity(&self) -> usize {
        self.classes.len()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.classes[id as usize] != 0
    }

    /// The class byte of `id`: 0 when it is not a member, 1 for a negative
    /// member, 2 for a positive one.
    #[inline]
    pub fn class(&self, id: u32) -> u8 {
        self.classes[id as usize]
    }

    /// The positive and negative members among `ids`, which must be
    /// distinct.
    #[inline]
    pub fn tally(&self, ids: &[u32]) -> (usize, usize) {
        let mut sum = 0usize;
        let mut pos = 0usize;
        for &id in ids {
            let c = self.classes[id as usize];
            sum += usize::from(c);
            pos += usize::from(c >> 1);
        }
        (pos, sum - 2 * pos)
    }

    /// Removes a member (no-op when absent). `is_pos` is the flags the set
    /// was built from; the set already knows each member's class.
    pub fn remove(&mut self, id: u32, _is_pos: &[bool]) {
        let class = std::mem::take(&mut self.classes[id as usize]);
        match class {
            0 => {}
            1 => self.neg -= 1,
            _ => self.pos -= 1,
        }
    }

    /// Keeps only the members for which `keep` holds.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        for (i, class) in self.classes.iter_mut().enumerate() {
            if *class != 0 && !keep(i as u32) {
                if *class == 1 {
                    self.neg -= 1;
                } else {
                    self.pos -= 1;
                }
                *class = 0;
            }
        }
    }

    /// Iterator over member rows, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.classes.iter().enumerate().filter(|(_, &c)| c != 0).map(|(i, _)| Row(i as u32))
    }
}

/// Generation-stamped scratch array for distinct counting. `reset()` is O(1);
/// `mark(id)` returns whether `id` was newly marked this generation. The
/// default stamp covers no ids.
#[derive(Debug, Clone, Default)]
pub struct Stamp {
    gen: u32,
    marks: Vec<u32>,
}

impl Stamp {
    /// A stamp over `n` ids, all unmarked.
    pub fn new(n: usize) -> Self {
        Stamp { gen: 1, marks: vec![0; n] }
    }

    /// Starts a fresh generation (unmarks everything in O(1)).
    pub fn reset(&mut self) {
        self.gen += 1;
        if self.gen == u32::MAX {
            self.marks.fill(0);
            self.gen = 1;
        }
    }

    /// Marks `id`; true when it was not yet marked this generation.
    #[inline]
    pub fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.marks[id as usize];
        if *slot == self.gen {
            false
        } else {
            *slot = self.gen;
            true
        }
    }

    /// True when `id` is marked in the current generation.
    #[inline]
    pub fn is_marked(&self, id: u32) -> bool {
        self.marks[id as usize] == self.gen
    }
}

/// Counts the distinct positive/negative *active* targets among `idsets`.
pub fn count_distinct(
    idsets: impl IntoIterator<Item = impl AsRef<[u32]>>,
    active: &TargetSet,
    is_pos: &[bool],
    stamp: &mut Stamp,
) -> (usize, usize) {
    stamp.reset();
    let mut p = 0;
    let mut n = 0;
    for set in idsets {
        for &id in set.as_ref() {
            if active.contains(id) && stamp.mark(id) {
                if is_pos[id as usize] {
                    p += 1;
                } else {
                    n += 1;
                }
            }
        }
    }
    (p, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idset_from_ids_sorts_and_dedups() {
        let s = IdSet::from_ids(vec![3, 1, 3, 2, 1]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(2));
        assert!(!s.contains(4));
    }

    #[test]
    fn idset_retain_and_clear() {
        let mut s = IdSet::from_ids(vec![1, 2, 3, 4]);
        s.retain(|id| id % 2 == 0);
        assert_eq!(s.as_slice(), &[2, 4]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn idset_collect() {
        let s: IdSet = [5u32, 1, 5].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 5]);
    }

    #[test]
    fn target_set_counts() {
        let is_pos = [true, false, true, true, false];
        let all = TargetSet::all(&is_pos);
        assert_eq!((all.pos(), all.neg()), (3, 2));
        let some = TargetSet::from_rows(&is_pos, [Row(0), Row(1), Row(1)]);
        assert_eq!((some.pos(), some.neg()), (1, 1));
        assert_eq!(some.len(), 2);
        assert!(some.contains(0));
        assert!(!some.contains(2));
    }

    #[test]
    fn target_set_remove_and_retain() {
        let is_pos = [true, false, true];
        let mut s = TargetSet::all(&is_pos);
        s.remove(0, &is_pos);
        s.remove(0, &is_pos); // idempotent
        assert_eq!((s.pos(), s.neg()), (1, 1));
        s.retain(|id| id == 2);
        assert_eq!((s.pos(), s.neg()), (1, 0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Row(2)]);
    }

    #[test]
    fn stamp_generations() {
        let mut st = Stamp::new(4);
        assert!(st.mark(1));
        assert!(!st.mark(1));
        assert!(st.is_marked(1));
        assert!(!st.is_marked(2));
        st.reset();
        assert!(!st.is_marked(1));
        assert!(st.mark(1));
    }

    #[test]
    fn count_distinct_respects_active_set() {
        let is_pos = [true, false, true, false];
        let active = TargetSet::from_rows(&is_pos, [Row(0), Row(1), Row(2)]);
        let mut stamp = Stamp::new(4);
        // id 3 inactive; id 0 appears twice but counts once.
        let sets = [IdSet::from_ids(vec![0, 1]), IdSet::from_ids(vec![0, 2, 3])];
        let (p, n) =
            count_distinct(sets.iter().map(|s| s.as_slice()), &active, &is_pos, &mut stamp);
        assert_eq!((p, n), (2, 1));
    }

    #[test]
    fn stamp_generation_wraparound_is_safe() {
        // Force the generation counter to the wrap point: marks from the
        // old generation must not leak into the new one.
        let mut st = Stamp::new(3);
        st.gen = u32::MAX - 2;
        st.marks = vec![u32::MAX - 2; 3]; // everything marked in current gen
        assert!(st.is_marked(0));
        st.reset(); // -> MAX-1
        assert!(!st.is_marked(0));
        assert!(st.mark(0));
        st.reset(); // -> MAX, triggers the wrap path back to gen 1
        assert!(!st.is_marked(0), "wraparound must clear all marks");
        assert!(st.mark(1));
        assert!(st.is_marked(1));
        assert!(!st.is_marked(0));
    }

    #[test]
    fn count_distinct_empty() {
        let is_pos = [true];
        let active = TargetSet::all(&is_pos);
        let mut stamp = Stamp::new(1);
        let (p, n) = count_distinct(std::iter::empty::<&[u32]>(), &active, &is_pos, &mut stamp);
        assert_eq!((p, n), (0, 0));
    }
}
