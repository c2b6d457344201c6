//! Base types and scalar values of the binary-relational kernel.
//!
//! Monet's extensibility story starts from a small set of physical base
//! types; everything richer (URLs, text, images) is mapped onto these by the
//! logical layer. We provide object identifiers, 64-bit integers, 64-bit
//! floats and strings.

use std::cmp::Ordering;
use std::fmt;

/// Object identifier. Dense oid sequences are represented by *void* columns
/// and never materialised.
pub type Oid = u32;

/// The physical base types known to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonetType {
    /// Object identifier.
    Oid,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string (dictionary encoded in columns).
    Str,
}

impl fmt::Display for MonetType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MonetType::Oid => "oid",
            MonetType::Int => "int",
            MonetType::Float => "float",
            MonetType::Str => "str",
        };
        f.write_str(s)
    }
}

/// A scalar value of one of the base types.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Object identifier value.
    Oid(Oid),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value.
    Str(String),
}

impl Val {
    /// The base type of this value.
    pub fn ty(&self) -> MonetType {
        match self {
            Val::Oid(_) => MonetType::Oid,
            Val::Int(_) => MonetType::Int,
            Val::Float(_) => MonetType::Float,
            Val::Str(_) => MonetType::Str,
        }
    }

    /// Total order over values of the same type; values of different types
    /// order by type tag (oid < int < float < str). Floats use IEEE total
    /// ordering so that sorting is well defined even with NaNs.
    pub fn total_cmp(&self, other: &Val) -> Ordering {
        use Val::*;
        match (self, other) {
            (Oid(a), Oid(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Val::Oid(_) => 0,
            Val::Int(_) => 1,
            Val::Float(_) => 2,
            Val::Str(_) => 3,
        }
    }

    /// Interpret this value as an oid, if possible.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Val::Oid(o) => Some(*o),
            Val::Int(i) if *i >= 0 && *i <= u32::MAX as i64 => Some(*i as Oid),
            _ => None,
        }
    }

    /// Interpret this value as an integer, if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Val::Int(i) => Some(*i),
            Val::Oid(o) => Some(*o as i64),
            _ => None,
        }
    }

    /// Interpret this value as a float (ints widen), if possible.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Val::Float(x) => Some(*x),
            Val::Int(i) => Some(*i as f64),
            Val::Oid(o) => Some(*o as f64),
            _ => None,
        }
    }

    /// Interpret this value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Stable 64-bit fingerprint of the value (used to count distinct values
    /// for the statistics catalog's NDV summaries).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::fxhash::FxHasher::default();
        match self {
            Val::Oid(o) => {
                h.write_u8(0);
                h.write_u32(*o);
            }
            Val::Int(i) => {
                h.write_u8(1);
                h.write_u64(*i as u64);
            }
            Val::Float(x) => {
                h.write_u8(2);
                h.write_u64(x.to_bits());
            }
            Val::Str(s) => {
                h.write_u8(3);
                h.write(s.as_bytes());
            }
        }
        h.finish()
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Oid(o) => write!(f, "{o}@0"),
            Val::Int(i) => write!(f, "{i}"),
            Val::Float(x) => write!(f, "{x}"),
            Val::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Val {
    fn from(v: i64) -> Self {
        Val::Int(v)
    }
}

impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::Float(v)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::Str(v.to_string())
    }
}

impl From<String> for Val {
    fn from(v: String) -> Self {
        Val::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Val::Oid(1).ty(), MonetType::Oid);
        assert_eq!(Val::Int(1).ty(), MonetType::Int);
        assert_eq!(Val::Float(1.0).ty(), MonetType::Float);
        assert_eq!(Val::from("x").ty(), MonetType::Str);
    }

    #[test]
    fn total_cmp_orders_within_and_across_types() {
        assert_eq!(Val::Int(1).total_cmp(&Val::Int(2)), Ordering::Less);
        assert_eq!(Val::Float(2.0).total_cmp(&Val::Float(1.0)), Ordering::Greater);
        assert_eq!(Val::from("a").total_cmp(&Val::from("b")), Ordering::Less);
        // cross-type: oid < str
        assert_eq!(Val::Oid(9).total_cmp(&Val::from("a")), Ordering::Less);
    }

    #[test]
    fn conversions() {
        assert_eq!(Val::Int(7).as_float(), Some(7.0));
        assert_eq!(Val::Oid(7).as_int(), Some(7));
        assert_eq!(Val::Int(-1).as_oid(), None);
        assert_eq!(Val::from("s").as_str(), Some("s"));
        assert_eq!(Val::from("s").as_float(), None);
    }

    #[test]
    fn fingerprints_differ_by_type_and_value() {
        assert_ne!(Val::Int(1).fingerprint(), Val::Oid(1).fingerprint());
        assert_ne!(Val::Int(1).fingerprint(), Val::Int(2).fingerprint());
        assert_eq!(Val::Float(0.5).fingerprint(), Val::Float(0.5).fingerprint());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Val::Int(3).to_string(), "3");
        assert_eq!(Val::Oid(3).to_string(), "3@0");
        assert_eq!(Val::from("hi").to_string(), "\"hi\"");
    }
}
