//! BAT property bits.
//!
//! Monet tracks simple physical properties per BAT and uses them to choose
//! operator implementations (e.g. merge join over hash join when both
//! operands are tail-sorted, positional fetch when a head is void). We keep
//! the same four bits. Properties are *conservative*: a cleared bit means
//! "unknown", never "false and exploited".

use crate::bat::Bat;
use crate::fxhash::FxHashSet;

/// Physical properties of a BAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Props {
    /// Head values are non-decreasing.
    pub head_sorted: bool,
    /// Tail values are non-decreasing.
    pub tail_sorted: bool,
    /// Head values are all distinct (a key).
    pub head_key: bool,
    /// Tail values are all distinct.
    pub tail_key: bool,
}

impl Props {
    /// Properties of a dense-headed BAT: the void head is sorted and a key.
    pub fn dense_head() -> Props {
        Props { head_sorted: true, head_key: true, ..Props::default() }
    }

    /// Properties with every bit cleared ("nothing known").
    pub fn unknown() -> Props {
        Props::default()
    }

    /// Swap head and tail property bits (used by `reverse`).
    pub fn reversed(self) -> Props {
        Props {
            head_sorted: self.tail_sorted,
            tail_sorted: self.head_sorted,
            head_key: self.tail_key,
            tail_key: self.head_key,
        }
    }
}

/// Cap on the number of tail values sampled by [`summarize`]. Sampling is
/// stride-based (deterministic), so summaries are reproducible across runs.
pub const SUMMARY_SAMPLE_CAP: usize = 65_536;

/// Ingest-time statistical summary of one BAT's tail column, consumed by the
/// logical layer's cost estimator (selection ordering, semijoin placement).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ColSummary {
    /// Row count.
    pub rows: u64,
    /// Estimated number of distinct tail values. Conservative: when the
    /// stride sample saturates (every sampled value distinct) the column is
    /// assumed mostly unique; otherwise the sampled distinct count is used
    /// as a lower bound.
    pub ndv: u64,
    /// Smallest sampled numeric tail value (`None` for string tails).
    pub min: Option<f64>,
    /// Largest sampled numeric tail value (`None` for string tails).
    pub max: Option<f64>,
    /// The BAT's physical property bits at summary time.
    pub props: Props,
}

/// Summarise a BAT's tail for the statistics catalog: row count, estimated
/// NDV, and numeric min/max, all from a deterministic stride sample of at
/// most [`SUMMARY_SAMPLE_CAP`] values.
pub fn summarize(bat: &Bat) -> ColSummary {
    let n = bat.count();
    let tail = bat.tail();
    let stride = (n / SUMMARY_SAMPLE_CAP).max(1);
    let mut distinct: FxHashSet<u64> = FxHashSet::default();
    let mut sampled = 0u64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut numeric = true;
    let mut i = 0usize;
    while i < n {
        if let Ok(v) = tail.get(i) {
            distinct.insert(v.fingerprint());
            match v.as_float() {
                Some(x) => {
                    min = min.min(x);
                    max = max.max(x);
                }
                None => numeric = false,
            }
        }
        sampled += 1;
        i += stride;
    }
    let ndv = if sampled > 0 && distinct.len() as u64 == sampled {
        n as u64 // sample saturated: treat as (near-)unique
    } else {
        distinct.len() as u64
    };
    ColSummary {
        rows: n as u64,
        ndv,
        min: (numeric && sampled > 0).then_some(min),
        max: (numeric && sampled > 0).then_some(max),
        props: bat.props(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn reversed_swaps_bits() {
        let p = Props { head_sorted: true, tail_sorted: false, head_key: true, tail_key: false };
        let r = p.reversed();
        assert!(r.tail_sorted && r.tail_key);
        assert!(!r.head_sorted && !r.head_key);
        assert_eq!(r.reversed(), p);
    }

    #[test]
    fn dense_head_props() {
        let p = Props::dense_head();
        assert!(p.head_sorted && p.head_key);
        assert!(!p.tail_sorted && !p.tail_key);
    }

    #[test]
    fn summarize_small_numeric_column_is_exact() {
        let b = Bat::dense(Column::Int(vec![3, 1, 3, 7]));
        let s = summarize(&b);
        assert_eq!(s.rows, 4);
        assert_eq!(s.ndv, 3);
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.max, Some(7.0));
    }

    #[test]
    fn summarize_unique_column_saturates_to_rows() {
        let b = Bat::dense(Column::Int((0..100).collect()));
        let s = summarize(&b);
        assert_eq!(s.ndv, 100);
    }

    #[test]
    fn summarize_string_column_has_no_bounds() {
        let b = Bat::dense(Column::Str(crate::column::StrCol::from_strs(["a", "b", "a"])));
        let s = summarize(&b);
        assert_eq!(s.rows, 3);
        assert_eq!(s.ndv, 2);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
    }

    #[test]
    fn summarize_empty_bat() {
        let b = Bat::dense(Column::Int(vec![]));
        let s = summarize(&b);
        assert_eq!(s.rows, 0);
        assert_eq!(s.ndv, 0);
        assert_eq!(s.min, None);
    }
}
