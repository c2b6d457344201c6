//! Ordering operators: stable sort by tail, and top-N selection.
//!
//! `topn_tail` is the final step of every ranking query: it selects the k
//! best rows with a partial `select_nth_unstable` pass rather than a full
//! sort, so ranking cost stays linear in the collection for fixed k.

use crate::bat::Bat;
use crate::column::Column;
use crate::props::Props;
use std::cmp::Ordering;

/// Compare two rows of a column with a total order.
#[inline]
fn cmp_rows(c: &Column, a: usize, b: usize) -> Ordering {
    match c {
        Column::Void { .. } => a.cmp(&b),
        Column::Oid(v) => v[a].cmp(&v[b]),
        Column::Int(v) => v[a].cmp(&v[b]),
        Column::Float(v) => v[a].total_cmp(&v[b]),
        Column::Str(s) => s.get(a).cmp(s.get(b)),
    }
}

impl Bat {
    /// Stable sort by tail value. `desc` reverses the value order but keeps
    /// the sort stable with respect to input position.
    pub fn sort_tail(&self, desc: bool) -> Bat {
        let mut idx: Vec<u32> = (0..self.count() as u32).collect();
        let t = self.tail();
        idx.sort_by(|&a, &b| {
            let o = cmp_rows(t, a as usize, b as usize);
            if desc {
                o.reverse()
            } else {
                o
            }
        });
        let out = self.take(&idx);
        out.with_props(Props {
            tail_sorted: !desc,
            tail_key: self.props().tail_key,
            head_key: self.props().head_key,
            ..Props::default()
        })
    }

    /// The `k` rows with the greatest (`desc = true`) or least tails,
    /// returned in rank order. Uses a partial selection, not a full sort.
    pub fn topn_tail(&self, k: usize, desc: bool) -> Bat {
        let n = self.count();
        if k == 0 || n == 0 {
            return self.slice(0, 0);
        }
        if k >= n {
            return self.sort_tail(desc);
        }
        let t = self.tail();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let compare = |a: &u32, b: &u32| {
            let o = cmp_rows(t, *a as usize, *b as usize);
            if desc {
                o.reverse()
            } else {
                o
            }
        };
        idx.select_nth_unstable_by(k - 1, compare);
        idx.truncate(k);
        idx.sort_by(compare);
        let out = self.take(&idx);
        out.with_props(Props { tail_sorted: !desc, ..Props::default() })
    }

    /// Rank order of the tails: `[head, rank]` where rank 0 is the best
    /// (greatest tail when `desc`).
    pub fn rank_tail(&self, desc: bool) -> Bat {
        let sorted = self.sort_tail(desc);
        sorted.mark(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::{bat_of_floats, bat_of_ints, bat_of_strs};
    use crate::value::Val;

    #[test]
    fn sort_ascending_and_descending() {
        let b = bat_of_ints(vec![3, 1, 2]);
        let asc = b.sort_tail(false);
        let tails: Vec<_> = asc.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(1), Val::Int(2), Val::Int(3)]);
        assert!(asc.props().tail_sorted);
        let desc = b.sort_tail(true);
        let tails: Vec<_> = desc.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(3), Val::Int(2), Val::Int(1)]);
    }

    #[test]
    fn sort_is_stable() {
        let b = Bat::new(Column::Oid(vec![10, 11, 12]), Column::Int(vec![1, 1, 0])).unwrap();
        let s = b.sort_tail(false);
        // equal keys 1,1 keep original head order 10 then 11
        assert_eq!(s.fetch(1).unwrap().0, Val::Oid(10));
        assert_eq!(s.fetch(2).unwrap().0, Val::Oid(11));
    }

    #[test]
    fn topn_returns_best_k_in_order() {
        let b = bat_of_floats(vec![0.3, 0.9, 0.1, 0.7, 0.5]);
        let top = b.topn_tail(2, true);
        let pairs = top.to_pairs();
        assert_eq!(pairs[0], (Val::Oid(1), Val::Float(0.9)));
        assert_eq!(pairs[1], (Val::Oid(3), Val::Float(0.7)));
    }

    #[test]
    fn topn_edge_cases() {
        let b = bat_of_ints(vec![5, 2]);
        assert_eq!(b.topn_tail(0, true).count(), 0);
        assert_eq!(b.topn_tail(10, true).count(), 2);
        let e = bat_of_ints(vec![]);
        assert_eq!(e.topn_tail(3, false).count(), 0);
    }

    #[test]
    fn topn_matches_full_sort() {
        let vals: Vec<i64> = (0..100).map(|i| (i * 37) % 100).collect();
        let b = bat_of_ints(vals);
        let full = b.sort_tail(true).slice(0, 10);
        let top = b.topn_tail(10, true);
        let f: Vec<_> = full.to_pairs().into_iter().map(|(_, t)| t).collect();
        let t: Vec<_> = top.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(f, t);
    }

    #[test]
    fn sort_strings() {
        let b = bat_of_strs(["pear", "apple", "plum"]);
        let s = b.sort_tail(false);
        assert_eq!(s.fetch(0).unwrap().1, Val::from("apple"));
    }

    #[test]
    fn rank_tail_assigns_dense_ranks() {
        let b = bat_of_floats(vec![0.2, 0.8, 0.5]);
        let r = b.rank_tail(true);
        // best row (oid 1) gets rank 0
        assert_eq!(r.fetch(0).unwrap(), (Val::Oid(1), Val::Oid(0)));
        assert_eq!(r.fetch(2).unwrap(), (Val::Oid(0), Val::Oid(2)));
    }
}
