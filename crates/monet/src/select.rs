//! Selection operators: filter a BAT by a predicate on its tail.
//!
//! Selections return the qualifying `(head, tail)` pairs — the MIL
//! convention — so downstream operators can project either column with
//! `reverse`/`mirror`. Range selections on sorted tails use binary search.

use crate::bat::Bat;
use crate::column::Column;
use crate::error::Result;
use crate::props::Props;
use crate::value::Val;
use std::ops::Bound;

impl Bat {
    /// Rows whose tail equals `v`.
    pub fn select_eq(&self, v: &Val) -> Result<Bat> {
        self.select_range(Bound::Included(v), Bound::Included(v))
    }

    /// Rows whose tail lies within the given bounds (by [`Val::total_cmp`]).
    pub fn select_range(&self, lo: Bound<&Val>, hi: Bound<&Val>) -> Result<Bat> {
        // Sorted-tail fast path: binary search the window, then slice.
        if self.props().tail_sorted && !matches!(self.tail(), Column::Str(_)) {
            let (a, b) = sorted_window(self.tail(), lo, hi)?;
            let mut out = self.slice(a, b);
            // slicing preserves sortedness and keyness
            out = out.with_props(self.props());
            return Ok(out);
        }
        let positions = scan_range(self.tail(), lo, hi)?;
        Ok(self.take_ordered(&positions))
    }

    /// Rows whose (string) tail contains `pat` as a substring. The
    /// dictionary tests `pat` once per distinct directory prefix of its
    /// strings, not once per string or row ([`StrDict::contains_flags`]).
    ///
    /// [`StrDict::contains_flags`]: crate::StrDict::contains_flags
    pub fn select_str_contains(&self, pat: &str) -> Result<Bat> {
        let s = self.tail().str_col()?;
        let matching = s.dict.contains_flags(pat);
        // branchless, like `scan_range`: write every row, advance on a match
        let mut positions = vec![0u32; s.codes.len()];
        let mut n = 0;
        for (i, &c) in s.codes.iter().enumerate() {
            positions[n] = i as u32;
            n += usize::from(matching[c as usize]);
        }
        positions.truncate(n);
        Ok(self.take_ordered(&positions))
    }

    /// Gather by strictly increasing positions, preserving order-derived
    /// properties of both columns.
    pub(crate) fn take_ordered(&self, positions: &[u32]) -> Bat {
        let out = self.take(positions);
        out.with_props(Props {
            head_sorted: self.props().head_sorted,
            tail_sorted: self.props().tail_sorted,
            head_key: self.props().head_key,
            tail_key: self.props().tail_key,
        })
    }
}

/// Binary-search the `[lo, hi)` row window of a sorted numeric column.
fn sorted_window(c: &Column, lo: Bound<&Val>, hi: Bound<&Val>) -> Result<(usize, usize)> {
    let n = c.len();
    let cmp_at = |i: usize, v: &Val| -> std::cmp::Ordering {
        c.get(i).expect("index in range").total_cmp(v)
    };
    let lower = |v: &Val, inclusive: bool| -> usize {
        // first index where (tail > v) or (tail >= v if inclusive)
        let mut lo_i = 0usize;
        let mut hi_i = n;
        while lo_i < hi_i {
            let mid = (lo_i + hi_i) / 2;
            let ord = cmp_at(mid, v);
            let keep_left = if inclusive { ord.is_lt() } else { ord.is_le() };
            if keep_left {
                lo_i = mid + 1;
            } else {
                hi_i = mid;
            }
        }
        lo_i
    };
    let a = match lo {
        Bound::Unbounded => 0,
        Bound::Included(v) => lower(v, true),
        Bound::Excluded(v) => lower(v, false),
    };
    let b = match hi {
        Bound::Unbounded => n,
        Bound::Included(v) => lower(v, false),
        Bound::Excluded(v) => lower(v, true),
    };
    Ok((a, b.max(a)))
}

/// Scan an arbitrary column for the positions of rows within bounds.
fn scan_range(c: &Column, lo: Bound<&Val>, hi: Bound<&Val>) -> Result<Vec<u32>> {
    let in_lo = |v: &Val| match lo {
        Bound::Unbounded => true,
        Bound::Included(b) => v.total_cmp(b).is_ge(),
        Bound::Excluded(b) => v.total_cmp(b).is_gt(),
    };
    let in_hi = |v: &Val| match hi {
        Bound::Unbounded => true,
        Bound::Included(b) => v.total_cmp(b).is_le(),
        Bound::Excluded(b) => v.total_cmp(b).is_lt(),
    };
    // Typed scans avoid constructing Vals in the common numeric cases; the
    // branchless accumulation (unconditional write, predicated advance)
    // sidesteps the branch mispredictions a push-per-match scan suffers at
    // mid selectivities — ~6× faster on random 50%-selective data.
    match c {
        Column::Int(v) => {
            // exclusive integer bounds tighten to inclusive ones, leaving a
            // two-comparison test with no per-element Option juggling
            let lo_eff = match int_bound(lo) {
                None => i64::MIN,
                Some((b, true)) => b,
                Some((b, false)) => b.saturating_add(1),
            };
            let hi_eff = match int_bound(hi) {
                None => i64::MAX,
                Some((b, true)) => b,
                Some((b, false)) => b.saturating_sub(1),
            };
            // degenerate exclusive bounds at the i64 extremes keep nothing
            if matches!(int_bound(lo), Some((i64::MAX, false)))
                || matches!(int_bound(hi), Some((i64::MIN, false)))
            {
                return Ok(Vec::new());
            }
            let mut buf = vec![0u32; v.len()];
            let mut k = 0usize;
            for (i, &x) in v.iter().enumerate() {
                buf[k] = i as u32;
                k += usize::from((x >= lo_eff) & (x <= hi_eff));
            }
            buf.truncate(k);
            Ok(buf)
        }
        Column::Float(v) => {
            // an absent bound imposes no constraint at all — in particular
            // it must keep NaN rows, which every comparison would reject
            let lo_f = float_bound(lo);
            let hi_f = float_bound(hi);
            let lo_any = lo_f.is_none();
            let hi_any = hi_f.is_none();
            let (lo_v, lo_inc) = lo_f.unwrap_or((f64::NEG_INFINITY, true));
            let (hi_v, hi_inc) = hi_f.unwrap_or((f64::INFINITY, true));
            let mut buf = vec![0u32; v.len()];
            let mut k = 0usize;
            for (i, &x) in v.iter().enumerate() {
                buf[k] = i as u32;
                let above = lo_any | (x > lo_v) | (lo_inc & (x == lo_v));
                let below = hi_any | (x < hi_v) | (hi_inc & (x == hi_v));
                k += usize::from(above & below);
            }
            buf.truncate(k);
            Ok(buf)
        }
        _ => {
            let mut positions = Vec::new();
            for i in 0..c.len() {
                let v = c.get(i)?;
                if in_lo(&v) && in_hi(&v) {
                    positions.push(i as u32);
                }
            }
            Ok(positions)
        }
    }
}

fn int_bound(b: Bound<&Val>) -> Option<(i64, bool)> {
    match b {
        Bound::Unbounded => None,
        Bound::Included(v) => v.as_int().map(|x| (x, true)),
        Bound::Excluded(v) => v.as_int().map(|x| (x, false)),
    }
}

fn float_bound(b: Bound<&Val>) -> Option<(f64, bool)> {
    match b {
        Bound::Unbounded => None,
        Bound::Included(v) => v.as_float().map(|x| (x, true)),
        Bound::Excluded(v) => v.as_float().map(|x| (x, false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::{bat_of_ints, bat_of_strs};
    use crate::Oid;

    #[test]
    fn select_eq_ints() {
        let b = bat_of_ints(vec![5, 7, 5, 9]);
        let r = b.select_eq(&Val::Int(5)).unwrap();
        assert_eq!(r.count(), 2);
        assert_eq!(r.fetch(0).unwrap().0, Val::Oid(0));
        assert_eq!(r.fetch(1).unwrap().0, Val::Oid(2));
    }

    #[test]
    fn select_range_unsorted_scan() {
        let b = bat_of_ints(vec![10, 3, 7, 8, 1]);
        let r =
            b.select_range(Bound::Included(&Val::Int(3)), Bound::Excluded(&Val::Int(8))).unwrap();
        let tails: Vec<_> = r.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(3), Val::Int(7)]);
    }

    #[test]
    fn select_range_sorted_binary_search() {
        let b = bat_of_ints(vec![1, 3, 3, 5, 9]).analyze();
        assert!(b.props().tail_sorted);
        let r =
            b.select_range(Bound::Included(&Val::Int(3)), Bound::Included(&Val::Int(5))).unwrap();
        let tails: Vec<_> = r.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(3), Val::Int(3), Val::Int(5)]);
        // heads must point at original rows
        assert_eq!(r.fetch(0).unwrap().0, Val::Oid(1));
    }

    #[test]
    fn select_range_sorted_excluded_bounds() {
        let b = bat_of_ints(vec![1, 3, 3, 5, 9]).analyze();
        let r =
            b.select_range(Bound::Excluded(&Val::Int(3)), Bound::Excluded(&Val::Int(9))).unwrap();
        let tails: Vec<_> = r.to_pairs().into_iter().map(|(_, t)| t).collect();
        assert_eq!(tails, vec![Val::Int(5)]);
    }

    #[test]
    fn select_range_empty_window() {
        let b = bat_of_ints(vec![1, 2, 3]).analyze();
        let r =
            b.select_range(Bound::Included(&Val::Int(10)), Bound::Included(&Val::Int(20))).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn select_floats() {
        let b = crate::bat::bat_of_floats(vec![0.1, 0.9, 0.5]);
        let r = b.select_range(Bound::Included(&Val::Float(0.4)), Bound::Unbounded).unwrap();
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn select_str_contains_uses_dictionary() {
        let b = bat_of_strs(["sunset beach", "forest", "beach house", "forest"]);
        let r = b.select_str_contains("beach").unwrap();
        assert_eq!(r.count(), 2);
        let r2 = b.select_str_contains("forest").unwrap();
        assert_eq!(r2.count(), 2);
    }

    /// A splitmix64 stream: the property test's seeded generator.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// Up to `max` pieces: `/` (so leading, trailing and doubled ones),
        /// letters, `.` and a two-byte character.
        fn string(&mut self, max: usize) -> String {
            const PIECES: [&str; 7] = ["/", "/", "a", "b", "ab", ".", "é"];
            (0..self.below(max + 1)).map(|_| PIECES[self.below(PIECES.len())]).collect()
        }

        /// A random substring of `s`, cut on character boundaries.
        fn substring(&mut self, s: &str) -> String {
            let cuts: Vec<usize> = (0..=s.len()).filter(|&i| s.is_char_boundary(i)).collect();
            let (a, b) = (cuts[self.below(cuts.len())], cuts[self.below(cuts.len())]);
            s[a.min(b)..a.max(b)].to_string()
        }
    }

    #[test]
    fn prop_select_str_contains_equals_a_scan_of_every_row() {
        let mut rng = Mix(7);
        for case in 0..300 {
            let distinct: Vec<String> = (0..1 + rng.below(12)).map(|_| rng.string(10)).collect();
            let rows: Vec<&str> =
                (0..1 + rng.below(24)).map(|_| &*distinct[rng.below(distinct.len())]).collect();
            let b = bat_of_strs(rows.iter().copied());
            let mut pats = vec![String::new(), "/".to_string()];
            for _ in 0..12 {
                let s = rows[rng.below(rows.len())];
                pats.push(rng.substring(s));
                // a substring that spans the last '/', when there is one
                if let Some(j) = s.rfind('/') {
                    let (a, b) = (rng.below(j + 1), j + 1 + rng.below(s.len() - j));
                    if s.is_char_boundary(a) && s.is_char_boundary(b) {
                        pats.push(s[a..b].to_string());
                    }
                }
                pats.push(rng.string(4));
            }
            for pat in &pats {
                let got: Vec<Oid> = (b.select_str_contains(pat).unwrap().to_pairs().into_iter())
                    .map(|(h, _)| h.as_oid().unwrap())
                    .collect();
                let want: Vec<Oid> = (rows.iter().enumerate())
                    .filter(|(_, s)| s.contains(pat.as_str()))
                    .map(|(i, _)| i as Oid)
                    .collect();
                assert_eq!(got, want, "case {case}: {pat:?} in {rows:?}");
            }
        }
    }

    #[test]
    fn unbounded_select_keeps_nan_rows() {
        let b = crate::bat::bat_of_floats(vec![0.1, f64::NAN, 0.9]);
        // no bounds: no constraint — NaN rows must survive
        let all = b.select_range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all.count(), 3);
        // any real bound rejects NaN (comparisons are false), as before
        let some = b.select_range(Bound::Included(&Val::Float(0.0)), Bound::Unbounded).unwrap();
        assert_eq!(some.count(), 2);
    }

    #[test]
    fn select_eq_strings() {
        let b = bat_of_strs(["a", "b", "a"]);
        let r = b.select_eq(&Val::from("a")).unwrap();
        assert_eq!(r.count(), 2);
    }
}
