//! The Binary Association Table.
//!
//! A [`Bat`] is an ordered collection of `(head, tail)` pairs. Columns are
//! reference-counted so structural operations (`reverse`, `mirror`, slicing
//! the catalog) share storage instead of copying it.

use crate::column::Column;
use crate::error::{MonetError, Result};
use crate::props::Props;
use crate::value::{MonetType, Oid, Val};
use std::fmt;
use std::sync::Arc;

/// A Binary Association Table: two equal-length columns plus property bits.
#[derive(Debug, Clone)]
pub struct Bat {
    head: Arc<Column>,
    tail: Arc<Column>,
    props: Props,
}

impl Bat {
    /// Create a BAT from two columns of equal length. Property bits for
    /// void columns are derived automatically; everything else starts
    /// unknown (use [`Bat::analyze`] or [`Bat::with_props`]).
    pub fn new(head: Column, tail: Column) -> Result<Bat> {
        if head.len() != tail.len() {
            return Err(MonetError::LengthMismatch { left: head.len(), right: tail.len() });
        }
        let props = Props {
            head_sorted: head.is_void(),
            head_key: head.is_void(),
            tail_sorted: tail.is_void(),
            tail_key: tail.is_void(),
        };
        Ok(Bat { head: Arc::new(head), tail: Arc::new(tail), props })
    }

    /// Create a dense-headed BAT `[void(0..n), tail]`.
    pub fn dense(tail: Column) -> Bat {
        let len = tail.len();
        Bat {
            head: Arc::new(Column::void(0, len)),
            tail: Arc::new(tail),
            props: Props::dense_head(),
        }
    }

    /// Create a BAT from pre-shared columns (internal fast path).
    pub(crate) fn from_arcs(head: Arc<Column>, tail: Arc<Column>, props: Props) -> Bat {
        debug_assert_eq!(head.len(), tail.len());
        Bat { head, tail, props }
    }

    /// Replace the property bits (caller asserts they hold).
    pub fn with_props(mut self, props: Props) -> Bat {
        self.props = props;
        self
    }

    /// Scan both columns and set the sorted/key property bits exactly.
    pub fn analyze(mut self) -> Bat {
        self.props.head_sorted = self.head.is_sorted();
        self.props.tail_sorted = self.tail.is_sorted();
        self.props.head_key = column_is_key(&self.head);
        self.props.tail_key = column_is_key(&self.tail);
        self
    }

    /// The head column.
    pub fn head(&self) -> &Column {
        &self.head
    }

    /// The tail column.
    pub fn tail(&self) -> &Column {
        &self.tail
    }

    /// Shared handle to the head column.
    pub fn head_arc(&self) -> Arc<Column> {
        Arc::clone(&self.head)
    }

    /// Property bits.
    pub fn props(&self) -> Props {
        self.props
    }

    /// Number of associations (rows).
    pub fn count(&self) -> usize {
        self.head.len()
    }

    /// True if the BAT holds no associations.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// `(head type, tail type)`.
    pub fn types(&self) -> (MonetType, MonetType) {
        (self.head.ty(), self.tail.ty())
    }

    /// Fetch row `i` as a `(head, tail)` pair of values.
    pub fn fetch(&self, i: usize) -> Result<(Val, Val)> {
        Ok((self.head.get(i)?, self.tail.get(i)?))
    }

    /// `reverse(b)`: swap head and tail. O(1) thanks to shared columns.
    pub fn reverse(&self) -> Bat {
        Bat {
            head: Arc::clone(&self.tail),
            tail: Arc::clone(&self.head),
            props: self.props.reversed(),
        }
    }

    /// `mirror(b)`: `[head, head]`.
    pub fn mirror(&self) -> Bat {
        Bat {
            head: Arc::clone(&self.head),
            tail: Arc::clone(&self.head),
            props: Props {
                head_sorted: self.props.head_sorted,
                tail_sorted: self.props.head_sorted,
                head_key: self.props.head_key,
                tail_key: self.props.head_key,
            },
        }
    }

    /// `mark(b, base)`: `[head, void(base..)]` — assign fresh dense oids.
    pub fn mark(&self, base: Oid) -> Bat {
        Bat {
            head: Arc::clone(&self.head),
            tail: Arc::new(Column::void(base, self.count())),
            props: Props {
                head_sorted: self.props.head_sorted,
                head_key: self.props.head_key,
                tail_sorted: true,
                tail_key: true,
            },
        }
    }

    /// `project(b, v)`: `[head, const v]` (materialised).
    pub fn project(&self, v: &Val) -> Result<Bat> {
        let vals = vec![v.clone(); self.count()];
        let tail = Column::from_vals(&vals)?;
        Ok(Bat {
            head: Arc::clone(&self.head),
            tail: Arc::new(tail),
            props: Props {
                head_sorted: self.props.head_sorted,
                head_key: self.props.head_key,
                tail_sorted: true,
                tail_key: self.count() <= 1,
            },
        })
    }

    /// `slice(b, lo, hi)`: rows `[lo, hi)` in BAT order.
    pub fn slice(&self, lo: usize, hi: usize) -> Bat {
        let head = self.head.slice(lo, hi);
        let tail = self.tail.slice(lo, hi);
        Bat {
            head: Arc::new(head),
            tail: Arc::new(tail),
            props: self.props, // sortedness/keyness survive slicing
        }
    }

    /// Gather rows by position into a new BAT.
    pub fn take(&self, positions: &[u32]) -> Bat {
        Bat {
            head: Arc::new(self.head.take(positions)),
            tail: Arc::new(self.tail.take(positions)),
            props: Props::unknown(),
        }
    }

    /// Append another BAT's associations (types must match).
    pub fn append(&self, other: &Bat) -> Result<Bat> {
        let head = self.head.concat(&other.head)?;
        let tail = self.tail.concat(&other.tail)?;
        Bat::new(head, tail)
    }

    /// Pretty-print up to `limit` rows (for debugging and the examples).
    pub fn display(&self, limit: usize) -> String {
        let mut out = String::new();
        let n = self.count().min(limit);
        out.push_str(&format!(
            "# BAT [{}, {}] {} rows\n",
            self.head.ty_str(),
            self.tail.ty_str(),
            self.count()
        ));
        for i in 0..n {
            let (h, t) = self.fetch(i).expect("row in range");
            out.push_str(&format!("  [ {h}, {t} ]\n"));
        }
        if self.count() > limit {
            out.push_str(&format!("  … {} more\n", self.count() - limit));
        }
        out
    }

    /// Collect the BAT into `(Val, Val)` pairs — convenience for tests.
    pub fn to_pairs(&self) -> Vec<(Val, Val)> {
        (0..self.count()).map(|i| self.fetch(i).expect("row in range")).collect()
    }
}

impl fmt::Display for Bat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display(20))
    }
}

/// Exact key (all-distinct) check for a column.
fn column_is_key(c: &Column) -> bool {
    use crate::fxhash::FxHashSet;
    match c {
        Column::Void { .. } => true,
        Column::Oid(v) => {
            let mut seen: FxHashSet<Oid> = FxHashSet::default();
            v.iter().all(|&x| seen.insert(x))
        }
        Column::Int(v) => {
            let mut seen: FxHashSet<i64> = FxHashSet::default();
            v.iter().all(|&x| seen.insert(x))
        }
        Column::Float(v) => {
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            v.iter().all(|&x| seen.insert(x.to_bits()))
        }
        Column::Str(s) => {
            let mut seen: FxHashSet<u32> = FxHashSet::default();
            // codes may repeat only if rows repeat; dict is deduplicated
            s.codes.iter().all(|&x| seen.insert(x))
        }
    }
}

/// Build a dense-headed BAT over integers — test/bench convenience.
pub fn bat_of_ints(vals: Vec<i64>) -> Bat {
    Bat::dense(Column::Int(vals))
}

/// Build a dense-headed BAT over floats — test/bench convenience.
pub fn bat_of_floats(vals: Vec<f64>) -> Bat {
    Bat::dense(Column::Float(vals))
}

/// Build a dense-headed BAT over strings — test/bench convenience.
pub fn bat_of_strs<'a, I: IntoIterator<Item = &'a str>>(vals: I) -> Bat {
    Bat::dense(vals.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_length_mismatch() {
        let r = Bat::new(Column::void(0, 2), Column::Int(vec![1]));
        assert!(matches!(r, Err(MonetError::LengthMismatch { .. })));
    }

    #[test]
    fn dense_bat_has_void_head() {
        let b = bat_of_ints(vec![10, 20, 30]);
        assert!(b.head().is_void());
        assert!(b.props().head_key && b.props().head_sorted);
        assert_eq!(b.fetch(1).unwrap(), (Val::Oid(1), Val::Int(20)));
    }

    #[test]
    fn reverse_is_cheap_and_involutive() {
        let b = bat_of_ints(vec![5, 6]);
        let r = b.reverse();
        assert_eq!(r.fetch(0).unwrap(), (Val::Int(5), Val::Oid(0)));
        assert!(r.props().tail_sorted && r.props().tail_key);
        let rr = r.reverse();
        assert_eq!(rr.to_pairs(), b.to_pairs());
    }

    #[test]
    fn mirror_and_mark() {
        let b = bat_of_strs(["a", "b"]);
        let m = b.mirror();
        assert_eq!(m.fetch(1).unwrap(), (Val::Oid(1), Val::Oid(1)));
        let k = b.mark(100);
        assert_eq!(k.fetch(0).unwrap(), (Val::Oid(0), Val::Oid(100)));
        assert!(k.props().tail_key);
    }

    #[test]
    fn project_constant() {
        let b = bat_of_ints(vec![1, 2, 3]);
        let p = b.project(&Val::Float(0.5)).unwrap();
        assert_eq!(p.fetch(2).unwrap(), (Val::Oid(2), Val::Float(0.5)));
        assert!(p.props().tail_sorted);
    }

    #[test]
    fn slice_and_take() {
        let b = bat_of_ints(vec![9, 8, 7, 6]);
        let s = b.slice(1, 3);
        assert_eq!(s.to_pairs(), vec![(Val::Oid(1), Val::Int(8)), (Val::Oid(2), Val::Int(7))]);
        let t = b.take(&[3, 0]);
        assert_eq!(t.to_pairs(), vec![(Val::Oid(3), Val::Int(6)), (Val::Oid(0), Val::Int(9))]);
    }

    #[test]
    fn append_merges() {
        let a = bat_of_ints(vec![1]);
        let b = bat_of_ints(vec![0, 2]).slice(1, 2); // void head starting at 1
        let c = a.append(&b).unwrap();
        assert_eq!(c.count(), 2);
        assert!(c.head().is_void()); // dense chains stay void
    }

    #[test]
    fn analyze_sets_exact_props() {
        let b = Bat::new(Column::Oid(vec![3, 1, 2]), Column::Int(vec![1, 1, 2])).unwrap().analyze();
        assert!(!b.props().head_sorted);
        assert!(b.props().head_key);
        assert!(b.props().tail_sorted);
        assert!(!b.props().tail_key);
    }

    #[test]
    fn display_truncates() {
        let b = bat_of_ints((0..30).collect());
        let s = b.display(5);
        assert!(s.contains("… 25 more"));
    }
}
