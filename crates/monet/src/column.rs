//! Typed columns — the storage halves of a BAT.
//!
//! A column is a vector of values of one base type. The special *void*
//! column represents a dense, ascending oid sequence without materialising
//! it; dense-headed BATs (the overwhelmingly common case after flattening)
//! therefore store only their tail.

use crate::error::{MonetError, Result};
use crate::strdict::{StrDict, StrDictBuilder};
use crate::value::{MonetType, Oid, Val};
use std::sync::Arc;

/// A dictionary-encoded string column: fixed-width codes into a shared pool.
#[derive(Debug, Clone)]
pub struct StrCol {
    /// Per-row dictionary codes.
    pub codes: Vec<u32>,
    /// Shared string pool.
    pub dict: Arc<StrDict>,
}

impl StrCol {
    /// Build a string column from an iterator of string slices.
    pub fn from_strs<'a, I: IntoIterator<Item = &'a str>>(items: I) -> Self {
        let mut b = StrDictBuilder::new();
        let codes: Vec<u32> = items.into_iter().map(|s| b.intern(s)).collect();
        StrCol { codes, dict: b.freeze() }
    }

    /// Resolve row `i` to its string.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        self.dict.resolve(self.codes[i])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// A typed column.
#[derive(Debug, Clone)]
pub enum Column {
    /// Dense ascending oids `start, start+1, …` — never materialised.
    Void {
        /// First oid of the sequence.
        start: Oid,
        /// Number of oids.
        len: usize,
    },
    /// Materialised oid column.
    Oid(Vec<Oid>),
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// Dictionary-encoded string column.
    Str(StrCol),
}

impl Column {
    /// An empty column of the given type (void for oids).
    pub fn empty(ty: MonetType) -> Column {
        match ty {
            MonetType::Oid => Column::Oid(Vec::new()),
            MonetType::Int => Column::Int(Vec::new()),
            MonetType::Float => Column::Float(Vec::new()),
            MonetType::Str => Column::Str(StrCol::from_strs(std::iter::empty())),
        }
    }

    /// A void column `[start, start+len)`.
    pub fn void(start: Oid, len: usize) -> Column {
        Column::Void { start, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Void { len, .. } => *len,
            Column::Oid(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(s) => s.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The base type stored in this column.
    pub fn ty(&self) -> MonetType {
        match self {
            Column::Void { .. } | Column::Oid(_) => MonetType::Oid,
            Column::Int(_) => MonetType::Int,
            Column::Float(_) => MonetType::Float,
            Column::Str(_) => MonetType::Str,
        }
    }

    /// Human-readable type tag including voidness.
    pub fn ty_str(&self) -> &'static str {
        match self {
            Column::Void { .. } => "void",
            Column::Oid(_) => "oid",
            Column::Int(_) => "int",
            Column::Float(_) => "float",
            Column::Str(_) => "str",
        }
    }

    /// Fetch the value at row `i`.
    pub fn get(&self, i: usize) -> Result<Val> {
        if i >= self.len() {
            return Err(MonetError::OutOfBounds { index: i, len: self.len() });
        }
        Ok(match self {
            Column::Void { start, .. } => Val::Oid(start + i as Oid),
            Column::Oid(v) => Val::Oid(v[i]),
            Column::Int(v) => Val::Int(v[i]),
            Column::Float(v) => Val::Float(v[i]),
            Column::Str(s) => Val::Str(s.get(i).to_string()),
        })
    }

    /// Materialise the column as oids, if it is an oid/void column.
    pub fn as_oids(&self) -> Result<Vec<Oid>> {
        match self {
            Column::Void { start, len } => Ok((0..*len).map(|i| start + i as Oid).collect()),
            Column::Oid(v) => Ok(v.clone()),
            other => Err(MonetError::TypeMismatch {
                op: "as_oids",
                expected: "oid",
                found: other.ty_str(),
            }),
        }
    }

    /// Borrow the oid slice if materialised; `None` for void columns.
    pub fn oid_slice(&self) -> Option<&[Oid]> {
        match self {
            Column::Oid(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the integer slice.
    pub fn int_slice(&self) -> Result<&[i64]> {
        match self {
            Column::Int(v) => Ok(v),
            other => Err(MonetError::TypeMismatch {
                op: "int_slice",
                expected: "int",
                found: other.ty_str(),
            }),
        }
    }

    /// Borrow the float slice.
    pub fn float_slice(&self) -> Result<&[f64]> {
        match self {
            Column::Float(v) => Ok(v),
            other => Err(MonetError::TypeMismatch {
                op: "float_slice",
                expected: "float",
                found: other.ty_str(),
            }),
        }
    }

    /// Borrow the string column.
    pub fn str_col(&self) -> Result<&StrCol> {
        match self {
            Column::Str(s) => Ok(s),
            other => Err(MonetError::TypeMismatch {
                op: "str_col",
                expected: "str",
                found: other.ty_str(),
            }),
        }
    }

    /// Oid at position `i` for oid-typed columns (fast path, no `Val`).
    #[inline]
    pub fn oid_at(&self, i: usize) -> Result<Oid> {
        match self {
            Column::Void { start, len } => {
                if i < *len {
                    Ok(start + i as Oid)
                } else {
                    Err(MonetError::OutOfBounds { index: i, len: *len })
                }
            }
            Column::Oid(v) => {
                v.get(i).copied().ok_or(MonetError::OutOfBounds { index: i, len: v.len() })
            }
            other => Err(MonetError::TypeMismatch {
                op: "oid_at",
                expected: "oid",
                found: other.ty_str(),
            }),
        }
    }

    /// Gather: build a new column from the rows at `positions`.
    pub fn take(&self, positions: &[u32]) -> Column {
        match self {
            Column::Void { start, .. } => {
                Column::Oid(positions.iter().map(|&p| start + p).collect())
            }
            Column::Oid(v) => Column::Oid(positions.iter().map(|&p| v[p as usize]).collect()),
            Column::Int(v) => Column::Int(positions.iter().map(|&p| v[p as usize]).collect()),
            Column::Float(v) => Column::Float(positions.iter().map(|&p| v[p as usize]).collect()),
            Column::Str(s) => Column::Str(StrCol {
                codes: positions.iter().map(|&p| s.codes[p as usize]).collect(),
                dict: Arc::clone(&s.dict),
            }),
        }
    }

    /// Contiguous sub-column `[lo, hi)`.
    pub fn slice(&self, lo: usize, hi: usize) -> Column {
        let hi = hi.min(self.len());
        let lo = lo.min(hi);
        match self {
            Column::Void { start, .. } => Column::Void { start: start + lo as Oid, len: hi - lo },
            Column::Oid(v) => Column::Oid(v[lo..hi].to_vec()),
            Column::Int(v) => Column::Int(v[lo..hi].to_vec()),
            Column::Float(v) => Column::Float(v[lo..hi].to_vec()),
            Column::Str(s) => {
                Column::Str(StrCol { codes: s.codes[lo..hi].to_vec(), dict: Arc::clone(&s.dict) })
            }
        }
    }

    /// Concatenate two columns of the same type. Void columns are
    /// materialised unless they chain densely.
    pub fn concat(&self, other: &Column) -> Result<Column> {
        match (self, other) {
            (Column::Void { start: s1, len: l1 }, Column::Void { start: s2, len: l2 })
                if *s2 as usize == *s1 as usize + *l1 =>
            {
                Ok(Column::Void { start: *s1, len: l1 + l2 })
            }
            (a, b) if a.ty() == MonetType::Oid && b.ty() == MonetType::Oid => {
                let mut v = a.as_oids()?;
                v.extend(b.as_oids()?);
                Ok(Column::Oid(v))
            }
            (Column::Int(a), Column::Int(b)) => {
                let mut v = a.clone();
                v.extend_from_slice(b);
                Ok(Column::Int(v))
            }
            (Column::Float(a), Column::Float(b)) => {
                let mut v = a.clone();
                v.extend_from_slice(b);
                Ok(Column::Float(v))
            }
            (Column::Str(a), Column::Str(b)) => {
                let mut builder = StrDictBuilder::from_dict(&a.dict);
                let mut codes = a.codes.clone();
                codes.reserve(b.codes.len());
                for &c in &b.codes {
                    codes.push(builder.intern(b.dict.resolve(c)));
                }
                Ok(Column::Str(StrCol { codes, dict: builder.freeze() }))
            }
            (a, b) => Err(MonetError::TypeMismatch {
                op: "concat",
                expected: a.ty_str(),
                found: b.ty_str(),
            }),
        }
    }

    /// Build a column from a homogeneous list of values.
    pub fn from_vals(vals: &[Val]) -> Result<Column> {
        let Some(first) = vals.first() else {
            return Ok(Column::Int(Vec::new()));
        };
        match first.ty() {
            MonetType::Oid => {
                let mut v = Vec::with_capacity(vals.len());
                for x in vals {
                    v.push(
                        x.as_oid().ok_or_else(|| {
                            MonetError::BadValue(format!("expected oid, got {x}"))
                        })?,
                    );
                }
                Ok(Column::Oid(v))
            }
            MonetType::Int => {
                let mut v = Vec::with_capacity(vals.len());
                for x in vals {
                    v.push(
                        x.as_int().ok_or_else(|| {
                            MonetError::BadValue(format!("expected int, got {x}"))
                        })?,
                    );
                }
                Ok(Column::Int(v))
            }
            MonetType::Float => {
                let mut v = Vec::with_capacity(vals.len());
                for x in vals {
                    v.push(
                        x.as_float().ok_or_else(|| {
                            MonetError::BadValue(format!("expected float, got {x}"))
                        })?,
                    );
                }
                Ok(Column::Float(v))
            }
            MonetType::Str => {
                let mut b = StrDictBuilder::new();
                let mut codes = Vec::with_capacity(vals.len());
                for x in vals {
                    let s = x
                        .as_str()
                        .ok_or_else(|| MonetError::BadValue(format!("expected str, got {x}")))?;
                    codes.push(b.intern(s));
                }
                Ok(Column::Str(StrCol { codes, dict: b.freeze() }))
            }
        }
    }

    /// True if tail values are non-decreasing under [`Val::total_cmp`].
    pub fn is_sorted(&self) -> bool {
        match self {
            Column::Void { .. } => true,
            Column::Oid(v) => v.windows(2).all(|w| w[0] <= w[1]),
            Column::Int(v) => v.windows(2).all(|w| w[0] <= w[1]),
            Column::Float(v) => v.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            Column::Str(s) => {
                s.codes.windows(2).all(|w| s.dict.resolve(w[0]) <= s.dict.resolve(w[1]))
            }
        }
    }

    /// True if this column is a void (virtual dense oid) column.
    pub fn is_void(&self) -> bool {
        matches!(self, Column::Void { .. })
    }

    /// For a void column, its starting oid.
    pub fn void_start(&self) -> Option<Oid> {
        match self {
            Column::Void { start, .. } => Some(*start),
            _ => None,
        }
    }

    /// Minimum and maximum value, if the column is non-empty.
    pub fn min_max(&self) -> Option<(Val, Val)> {
        if self.is_empty() {
            return None;
        }
        match self {
            Column::Void { start, len } => {
                Some((Val::Oid(*start), Val::Oid(start + (*len as Oid) - 1)))
            }
            Column::Oid(v) => {
                let mn = *v.iter().min().unwrap();
                let mx = *v.iter().max().unwrap();
                Some((Val::Oid(mn), Val::Oid(mx)))
            }
            Column::Int(v) => {
                let mn = *v.iter().min().unwrap();
                let mx = *v.iter().max().unwrap();
                Some((Val::Int(mn), Val::Int(mx)))
            }
            Column::Float(v) => {
                let mut mn = f64::INFINITY;
                let mut mx = f64::NEG_INFINITY;
                for &x in v {
                    if x < mn {
                        mn = x;
                    }
                    if x > mx {
                        mx = x;
                    }
                }
                Some((Val::Float(mn), Val::Float(mx)))
            }
            Column::Str(s) => {
                let mut mn = s.get(0);
                let mut mx = s.get(0);
                for i in 1..s.len() {
                    let x = s.get(i);
                    if x < mn {
                        mn = x;
                    }
                    if x > mx {
                        mx = x;
                    }
                }
                Some((Val::Str(mn.to_string()), Val::Str(mx.to_string())))
            }
        }
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::Int(v)
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::Float(v)
    }
}

impl From<Vec<Oid>> for Column {
    fn from(v: Vec<Oid>) -> Self {
        Column::Oid(v)
    }
}

impl<'a> FromIterator<&'a str> for Column {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        Column::Str(StrCol::from_strs(iter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn void_column_basics() {
        let c = Column::void(10, 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(0).unwrap(), Val::Oid(10));
        assert_eq!(c.get(3).unwrap(), Val::Oid(13));
        assert!(c.get(4).is_err());
        assert_eq!(c.as_oids().unwrap(), vec![10, 11, 12, 13]);
        assert!(c.is_void());
        assert!(c.is_sorted());
    }

    #[test]
    fn take_gathers_rows() {
        let c: Column = vec![5i64, 6, 7, 8].into();
        let t = c.take(&[3, 0, 0]);
        assert_eq!(t.int_slice().unwrap(), &[8, 5, 5]);
        let v = Column::void(100, 5).take(&[4, 1]);
        assert_eq!(v.as_oids().unwrap(), vec![104, 101]);
    }

    #[test]
    fn str_column_roundtrip_and_take() {
        let c: Column = ["a", "b", "a", "c"].into_iter().collect();
        assert_eq!(c.get(2).unwrap(), Val::from("a"));
        let s = c.str_col().unwrap();
        assert_eq!(s.dict.len(), 3); // deduplicated
        let t = c.take(&[3, 2]);
        assert_eq!(t.get(0).unwrap(), Val::from("c"));
        assert_eq!(t.get(1).unwrap(), Val::from("a"));
    }

    #[test]
    fn slice_keeps_voidness() {
        let c = Column::void(7, 10).slice(2, 5);
        assert_eq!(c.as_oids().unwrap(), vec![9, 10, 11]);
        assert!(c.is_void());
        let c2: Column = vec![1i64, 2, 3].into();
        assert_eq!(c2.slice(1, 99).int_slice().unwrap(), &[2, 3]);
    }

    #[test]
    fn concat_dense_voids_stays_void() {
        let a = Column::void(0, 3);
        let b = Column::void(3, 2);
        let c = a.concat(&b).unwrap();
        assert!(c.is_void());
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn concat_str_reinterns() {
        let a: Column = ["x", "y"].into_iter().collect();
        let b: Column = ["y", "z"].into_iter().collect();
        let c = a.concat(&b).unwrap();
        let s = c.str_col().unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(1), "y");
        assert_eq!(s.get(2), "y");
        assert_eq!(s.codes[1], s.codes[2]); // shared code after re-intern
        assert_eq!(s.dict.len(), 3);
    }

    #[test]
    fn concat_type_mismatch_errors() {
        let a: Column = vec![1i64].into();
        let b: Column = vec![1.0f64].into();
        assert!(a.concat(&b).is_err());
    }

    #[test]
    fn from_vals_all_types() {
        let ints = Column::from_vals(&[Val::Int(1), Val::Int(2)]).unwrap();
        assert_eq!(ints.int_slice().unwrap(), &[1, 2]);
        let strs = Column::from_vals(&[Val::from("p"), Val::from("q")]).unwrap();
        assert_eq!(strs.get(1).unwrap(), Val::from("q"));
        let bad = Column::from_vals(&[Val::Int(1), Val::from("x")]);
        assert!(bad.is_err());
    }

    #[test]
    fn min_max() {
        let c: Column = vec![3i64, 1, 7].into();
        assert_eq!(c.min_max().unwrap(), (Val::Int(1), Val::Int(7)));
        assert_eq!(Column::void(5, 3).min_max().unwrap(), (Val::Oid(5), Val::Oid(7)));
        assert!(Column::Int(vec![]).min_max().is_none());
    }

    #[test]
    fn sortedness_detection() {
        let sorted: Column = vec![1i64, 2, 2, 9].into();
        assert!(sorted.is_sorted());
        let unsorted: Column = vec![2i64, 1].into();
        assert!(!unsorted.is_sorted());
    }
}
