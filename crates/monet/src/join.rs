//! Join operators.
//!
//! `join(L, R)` matches `L.tail` against `R.head` and yields
//! `[L.head, R.tail]` — the fundamental recombination step for flattened
//! objects. Three strategies are chosen from the operands' properties:
//!
//! * **fetch join** — `R.head` is void: each `L.tail` oid indexes `R.tail`
//!   positionally (this is Monet's `leftfetchjoin`, the workhorse of
//!   attribute projection after flattening);
//! * **merge join** — both join columns oid-typed and sorted;
//! * **hash join** — the general case, hashing the smaller semantics-free
//!   build side (`R.head`).

use crate::bat::Bat;
use crate::column::Column;
use crate::error::{MonetError, Result};
use crate::fxhash::FxHashMap;
use crate::props::Props;
use crate::value::Oid;
use std::sync::Arc;

/// A borrowed join key: numerics normalise to `u64`, strings borrow the
/// dictionary entry, so hashing never allocates.
#[derive(Hash, PartialEq, Eq, Clone, Copy, Debug)]
pub(crate) enum KeyRef<'a> {
    /// Numeric key (oid widened, int reinterpreted, float by bit pattern).
    N(u64),
    /// String key.
    S(&'a str),
}

/// Extract the join key at row `i` of a column.
#[inline]
pub(crate) fn key_at(c: &Column, i: usize) -> KeyRef<'_> {
    match c {
        Column::Void { start, .. } => KeyRef::N((*start + i as Oid) as u64),
        Column::Oid(v) => KeyRef::N(v[i] as u64),
        Column::Int(v) => KeyRef::N(v[i] as u64),
        Column::Float(v) => KeyRef::N(v[i].to_bits()),
        Column::Str(s) => KeyRef::S(s.get(i)),
    }
}

/// Check that two columns can be joined on value equality.
pub(crate) fn check_joinable(op: &'static str, a: &Column, b: &Column) -> Result<()> {
    if a.ty() == b.ty() {
        Ok(())
    } else {
        Err(MonetError::TypeMismatch { op, expected: a.ty_str(), found: b.ty_str() })
    }
}

/// Probe an oid-typed probe column against a void build head
/// `[start, start+len)`. Returns `(left, right)` position pairs in
/// probe-row order.
fn fetch_probe(lt: &Column, start: Oid, len: usize) -> Result<(Vec<u32>, Vec<u32>)> {
    let mut left_pos: Vec<u32> = Vec::with_capacity(lt.len());
    let mut right_pos: Vec<u32> = Vec::with_capacity(lt.len());
    match lt {
        Column::Void { start: s2, .. } => {
            for i in 0..lt.len() {
                let o = s2 + i as Oid;
                if o >= start && ((o - start) as usize) < len {
                    left_pos.push(i as u32);
                    right_pos.push(o - start);
                }
            }
        }
        Column::Oid(v) => {
            for (i, &o) in v.iter().enumerate() {
                if o >= start && ((o - start) as usize) < len {
                    left_pos.push(i as u32);
                    right_pos.push(o - start);
                }
            }
        }
        other_col => {
            return Err(MonetError::TypeMismatch {
                op: "fetch_join",
                expected: "oid",
                found: other_col.ty_str(),
            })
        }
    }
    Ok((left_pos, right_pos))
}

/// Build the hash-join table on a build-side head: key → positions, in
/// ascending build order.
fn build_hash_table(rh: &Column) -> FxHashMap<KeyRef<'_>, Vec<u32>> {
    let mut table: FxHashMap<KeyRef<'_>, Vec<u32>> = FxHashMap::default();
    for j in 0..rh.len() {
        table.entry(key_at(rh, j)).or_default().push(j as u32);
    }
    table
}

/// Probe a probe column against a prebuilt hash table; returns
/// `(left, right)` position pairs in probe-row order.
fn hash_probe<'a>(lt: &'a Column, table: &FxHashMap<KeyRef<'a>, Vec<u32>>) -> (Vec<u32>, Vec<u32>) {
    let mut left_pos = Vec::new();
    let mut right_pos = Vec::new();
    for i in 0..lt.len() {
        if let Some(matches) = table.get(&key_at(lt, i)) {
            for &j in matches {
                left_pos.push(i as u32);
                right_pos.push(j);
            }
        }
    }
    (left_pos, right_pos)
}

impl Bat {
    /// `join(self, other)`: `[self.head, other.tail]` where
    /// `self.tail == other.head`. Produces one output row per matching
    /// pair (duplicates multiply).
    pub fn join(&self, other: &Bat) -> Result<Bat> {
        check_joinable("join", self.tail(), other.head())?;
        // Positional fetch join when the build side has a void head.
        if let Column::Void { start, len } = *other.head() {
            return self.fetch_join(other, start, len);
        }
        // Merge join when both sides are sorted oid columns.
        if self.props().tail_sorted
            && other.props().head_sorted
            && self.tail().oid_slice().is_some()
            && other.head().oid_slice().is_some()
        {
            return self.merge_join(other);
        }
        self.hash_join(other)
    }

    /// Positional join against a void-headed BAT (`leftfetchjoin`).
    ///
    /// Every `self.tail` oid inside `[start, start+len)` fetches
    /// `other.tail[oid - start]`; oids outside the range simply do not
    /// match (inner-join semantics).
    pub fn fetch_join(&self, other: &Bat, start: Oid, len: usize) -> Result<Bat> {
        let (left_pos, right_pos) = fetch_probe(self.tail(), start, len)?;
        let head = self.head().take(&left_pos);
        let tail = other.tail().take(&right_pos);
        let props = Props {
            head_sorted: self.props().head_sorted,
            head_key: self.props().head_key, // void build head is a key
            ..Props::default()
        };
        Ok(Bat::from_arcs(Arc::new(head), Arc::new(tail), props))
    }

    fn merge_join(&self, other: &Bat) -> Result<Bat> {
        let lt = self.tail().oid_slice().expect("checked oid");
        let rh = other.head().oid_slice().expect("checked oid");
        let mut left_pos = Vec::new();
        let mut right_pos = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lt.len() && j < rh.len() {
            if lt[i] < rh[j] {
                i += 1;
            } else if lt[i] > rh[j] {
                j += 1;
            } else {
                // equal run: emit the cross product of the two runs
                let v = lt[i];
                let i0 = i;
                while i < lt.len() && lt[i] == v {
                    i += 1;
                }
                let j0 = j;
                while j < rh.len() && rh[j] == v {
                    j += 1;
                }
                for a in i0..i {
                    for b in j0..j {
                        left_pos.push(a as u32);
                        right_pos.push(b as u32);
                    }
                }
            }
        }
        let head = self.head().take(&left_pos);
        let tail = other.tail().take(&right_pos);
        Ok(Bat::from_arcs(Arc::new(head), Arc::new(tail), Props::unknown()))
    }

    fn hash_join(&self, other: &Bat) -> Result<Bat> {
        let table = build_hash_table(other.head());
        let (left_pos, right_pos) = hash_probe(self.tail(), &table);
        let head = self.head().take(&left_pos);
        let tail = other.tail().take(&right_pos);
        Ok(Bat::from_arcs(Arc::new(head), Arc::new(tail), Props::unknown()))
    }

    /// `semijoin(self, other)`: the rows of `self` whose **head** occurs in
    /// `other`'s head (Monet semantics — restrict a BAT to a set of oids).
    pub fn semijoin(&self, other: &Bat) -> Result<Bat> {
        check_joinable("semijoin", self.head(), other.head())?;
        // Void probe side: range test.
        if let Column::Void { start, len } = *other.head() {
            let end = start as u64 + len as u64;
            return self.select_head_where(|k| match k {
                KeyRef::N(x) => x >= start as u64 && x < end,
                KeyRef::S(_) => false,
            });
        }
        let mut set: crate::fxhash::FxHashSet<KeyRef<'_>> = Default::default();
        let oh = other.head();
        for j in 0..oh.len() {
            set.insert(key_at(oh, j));
        }
        self.select_head_where(|k| set.contains(&k))
    }

    /// Keep rows whose head key satisfies `pred` (internal helper shared
    /// with the set operations).
    pub(crate) fn select_head_where<F: FnMut(KeyRef<'_>) -> bool>(
        &self,
        mut pred: F,
    ) -> Result<Bat> {
        let h = self.head();
        let positions: Vec<u32> =
            (0..h.len()).filter(|&i| pred(key_at(h, i))).map(|i| i as u32).collect();
        Ok(self.take_ordered(&positions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::{bat_of_ints, bat_of_strs};
    use crate::value::Val;

    /// join of [void, oid] with [void, int] exercises the fetch path.
    #[test]
    fn fetch_join_projects_attributes() {
        // map: doc -> author oid
        let doc_author = Bat::dense(Column::Oid(vec![2, 0, 1, 0]));
        // author oid -> name
        let names = bat_of_strs(["ann", "bob", "cas"]);
        let joined = doc_author.join(&names).unwrap();
        assert_eq!(joined.count(), 4);
        assert_eq!(joined.fetch(0).unwrap(), (Val::Oid(0), Val::from("cas")));
        assert_eq!(joined.fetch(3).unwrap(), (Val::Oid(3), Val::from("ann")));
        assert!(joined.props().head_sorted);
    }

    #[test]
    fn fetch_join_drops_out_of_range() {
        let l = Bat::dense(Column::Oid(vec![0, 9]));
        let r = bat_of_ints(vec![100, 200]);
        let j = l.join(&r).unwrap();
        assert_eq!(j.count(), 1);
        assert_eq!(j.fetch(0).unwrap(), (Val::Oid(0), Val::Int(100)));
    }

    #[test]
    fn hash_join_with_duplicates() {
        let l = Bat::new(Column::void(0, 3), Column::Int(vec![7, 8, 7])).unwrap();
        let r = Bat::new(Column::Int(vec![7, 7, 9]), Column::Int(vec![70, 71, 90])).unwrap();
        let j = l.join(&r).unwrap();
        // rows 0 and 2 of l match rows 0,1 of r → 4 pairs
        assert_eq!(j.count(), 4);
        let tails: Vec<_> = j.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(70), Val::Int(71), Val::Int(70), Val::Int(71)]);
    }

    #[test]
    fn merge_join_on_sorted_oids() {
        let l = Bat::new(Column::void(0, 4), Column::Oid(vec![1, 2, 2, 5])).unwrap().analyze();
        let r = Bat::new(Column::Oid(vec![2, 2, 5, 6]), Column::Int(vec![20, 21, 50, 60]))
            .unwrap()
            .analyze();
        assert!(l.props().tail_sorted && r.props().head_sorted);
        let j = l.join(&r).unwrap();
        let tails: Vec<_> = j.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(
            tails,
            vec![Val::Int(20), Val::Int(21), Val::Int(20), Val::Int(21), Val::Int(50)]
        );
    }

    #[test]
    fn string_join_across_dictionaries() {
        let l =
            Bat::new(Column::void(0, 3), ["red", "blue", "red"].into_iter().collect::<Column>())
                .unwrap();
        let r = Bat::new(["blue", "red"].into_iter().collect::<Column>(), Column::Int(vec![1, 2]))
            .unwrap();
        let j = l.join(&r).unwrap();
        assert_eq!(j.count(), 3);
        assert_eq!(j.fetch(0).unwrap(), (Val::Oid(0), Val::Int(2)));
        assert_eq!(j.fetch(1).unwrap(), (Val::Oid(1), Val::Int(1)));
    }

    #[test]
    fn join_type_mismatch() {
        let l = bat_of_ints(vec![1]);
        let r = bat_of_strs(["x"]);
        assert!(l.join(&r.reverse()).is_err());
    }

    #[test]
    fn semijoin_restricts_by_head() {
        let l = Bat::new(Column::Oid(vec![0, 1, 2, 3]), Column::Int(vec![10, 11, 12, 13])).unwrap();
        let r = Bat::new(Column::Oid(vec![1, 3]), Column::Int(vec![0, 0])).unwrap();
        let s = l.semijoin(&r).unwrap();
        let tails: Vec<_> = s.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(11), Val::Int(13)]);
    }

    #[test]
    fn semijoin_against_void_range() {
        let l = Bat::new(Column::Oid(vec![0, 5, 9]), Column::Int(vec![1, 2, 3])).unwrap();
        let r = Bat::dense(Column::Int(vec![0; 6])); // heads 0..6
        let s = l.semijoin(&r).unwrap();
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn empty_join_inputs() {
        let l = bat_of_ints(vec![]);
        let r = Bat::new(Column::Int(vec![]), Column::Int(vec![])).unwrap();
        let j = l.join(&r.reverse()).unwrap_or_else(|_| bat_of_ints(vec![]));
        assert_eq!(j.count(), 0);
    }
}
