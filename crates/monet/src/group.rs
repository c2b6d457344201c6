//! Grouping and duplicate elimination.
//!
//! `group` assigns a dense group id to every row by tail value (Monet's
//! `CTgroup`); `tail_distinct` materialises one representative row per
//! distinct tail. Group ids are issued in order of first occurrence, so a
//! sorted input yields sorted group ids.

use crate::bat::Bat;
use crate::column::Column;
use crate::error::Result;
use crate::fxhash::FxHashMap;
use crate::join::key_at;
use crate::props::Props;
use crate::value::Oid;
use std::sync::Arc;

impl Bat {
    /// Group rows by tail value.
    ///
    /// Returns `(map, groups)` where `map = [head, group-id]` assigns each
    /// input row its group, and `groups = [group-id, tail]` holds one
    /// representative tail value per group (in first-occurrence order).
    pub fn group(&self) -> Result<(Bat, Bat)> {
        let t = self.tail();
        let mut ids: FxHashMap<_, Oid> = FxHashMap::default();
        let mut gids: Vec<Oid> = Vec::with_capacity(t.len());
        let mut reps: Vec<u32> = Vec::new();
        for i in 0..t.len() {
            let k = key_at(t, i);
            let next = ids.len() as Oid;
            let gid = *ids.entry(k).or_insert_with(|| {
                reps.push(i as u32);
                next
            });
            gids.push(gid);
        }
        let map = Bat::from_arcs(
            self.head_arc(),
            Arc::new(Column::Oid(gids)),
            Props {
                head_sorted: self.props().head_sorted,
                head_key: self.props().head_key,
                ..Props::default()
            },
        );
        let groups = Bat::from_arcs(
            Arc::new(Column::void(0, reps.len())),
            Arc::new(t.take(&reps)),
            Props { head_sorted: true, head_key: true, tail_key: true, ..Props::default() },
        );
        Ok((map, groups))
    }

    /// One row per distinct tail value: `[void, distinct tails]` in
    /// first-occurrence order.
    pub fn tail_distinct(&self) -> Result<Bat> {
        let (_, groups) = self.group()?;
        Ok(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::{bat_of_ints, bat_of_strs};
    use crate::value::Val;

    #[test]
    fn group_assigns_dense_ids_by_first_occurrence() {
        let b = bat_of_strs(["x", "y", "x", "z", "y"]);
        let (map, groups) = b.group().unwrap();
        let gids: Vec<_> = map.to_pairs().into_iter().map(|(_, g)| g).collect();
        assert_eq!(gids, vec![Val::Oid(0), Val::Oid(1), Val::Oid(0), Val::Oid(2), Val::Oid(1)]);
        assert_eq!(groups.count(), 3);
        assert_eq!(groups.fetch(0).unwrap().1, Val::from("x"));
        assert_eq!(groups.fetch(2).unwrap().1, Val::from("z"));
        assert!(groups.props().tail_key);
    }

    #[test]
    fn group_preserves_heads() {
        let b = Bat::new(Column::Oid(vec![7, 8, 9]), Column::Int(vec![1, 1, 2])).unwrap();
        let (map, _) = b.group().unwrap();
        assert_eq!(map.fetch(0).unwrap(), (Val::Oid(7), Val::Oid(0)));
        assert_eq!(map.fetch(2).unwrap(), (Val::Oid(9), Val::Oid(1)));
    }

    #[test]
    fn distinct_and_cardinality() {
        let b = bat_of_ints(vec![4, 4, 4, 2]);
        let d = b.tail_distinct().unwrap();
        let tails: Vec<_> = d.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(4), Val::Int(2)]);
    }

    #[test]
    fn group_empty_bat() {
        let b = bat_of_ints(vec![]);
        let (map, groups) = b.group().unwrap();
        assert_eq!(map.count(), 0);
        assert_eq!(groups.count(), 0);
    }

    #[test]
    fn group_floats_by_bit_pattern() {
        let b = crate::bat::bat_of_floats(vec![0.5, 0.5, 1.5]);
        assert_eq!(b.tail_distinct().unwrap().count(), 2);
    }
}
