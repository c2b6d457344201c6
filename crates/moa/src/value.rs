//! Logical values — the object-at-a-time view of Moa data.
//!
//! [`MoaVal`] trees are used for ingestion (rows handed to
//! [`crate::env::Env::create_collection`]). The flattening compiler never
//! materialises them during query execution; that is the whole point of
//! the architecture.

use crate::types::{AtomicType, MoaType};
use crate::{MoaError, Result};
use monet::Val;

/// A logical value.
#[derive(Debug, Clone, PartialEq)]
pub enum MoaVal {
    /// Absent value (e.g. a missing annotation).
    Null,
    /// Integer atom.
    Int(i64),
    /// Float atom.
    Float(f64),
    /// String-like atom (str, URL, Text, Image ref, Vector ref).
    Str(String),
    /// Tuple value, fields in schema order.
    Tuple(Vec<MoaVal>),
    /// Set value.
    Set(Vec<MoaVal>),
    /// List value (ordered).
    List(Vec<MoaVal>),
}

impl MoaVal {
    /// Convenience: string atom.
    pub fn str(s: impl Into<String>) -> MoaVal {
        MoaVal::Str(s.into())
    }

    /// Check this value against a type, shallowly recursing through
    /// structures. Extension-typed positions accept `Str`/`Null` payloads
    /// (the raw representation handed to the structure's builder).
    pub fn conforms(&self, ty: &MoaType) -> bool {
        match (self, ty) {
            (MoaVal::Null, _) => true,
            (MoaVal::Int(_), MoaType::Atomic(AtomicType::Int)) => true,
            (MoaVal::Float(_), MoaType::Atomic(AtomicType::Float)) => true,
            (MoaVal::Str(_), MoaType::Atomic(a)) => {
                !matches!(a, AtomicType::Int | AtomicType::Float)
            }
            (MoaVal::Str(_), MoaType::Ext { .. }) => true,
            (MoaVal::Tuple(vs), MoaType::Tuple(fs)) => {
                vs.len() == fs.len() && vs.iter().zip(fs).all(|(v, (_, t))| v.conforms(t))
            }
            (MoaVal::Set(vs), MoaType::Set(t)) => vs.iter().all(|v| v.conforms(t)),
            (MoaVal::List(vs), MoaType::List(t)) => vs.iter().all(|v| v.conforms(t)),
            _ => false,
        }
    }

    /// Convert an atomic value to a physical scalar. `Null` maps to the
    /// type's neutral physical value (0, 0.0 or the empty string) — BATs
    /// have no null bitmap, matching Monet's early design.
    pub fn to_physical(&self, ty: &MoaType) -> Result<Val> {
        match (self, ty) {
            (MoaVal::Int(i), _) => Ok(Val::Int(*i)),
            (MoaVal::Float(x), _) => Ok(Val::Float(*x)),
            (MoaVal::Str(s), _) => Ok(Val::Str(s.clone())),
            (MoaVal::Null, MoaType::Atomic(AtomicType::Int)) => Ok(Val::Int(0)),
            (MoaVal::Null, MoaType::Atomic(AtomicType::Float)) => Ok(Val::Float(0.0)),
            (MoaVal::Null, _) => Ok(Val::Str(String::new())),
            (other, ty) => Err(MoaError::Type(format!("cannot store {other:?} as atomic {ty}"))),
        }
    }

    /// String view of an atomic value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            MoaVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements if this is a set or list.
    pub fn elems(&self) -> Option<&[MoaVal]> {
        match self {
            MoaVal::Set(v) | MoaVal::List(v) => Some(v),
            _ => None,
        }
    }
}

impl From<i64> for MoaVal {
    fn from(v: i64) -> Self {
        MoaVal::Int(v)
    }
}

impl From<f64> for MoaVal {
    fn from(v: f64) -> Self {
        MoaVal::Float(v)
    }
}

impl From<&str> for MoaVal {
    fn from(v: &str) -> Self {
        MoaVal::Str(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img_lib_ty() -> MoaType {
        MoaType::set_of_tuple(vec![
            ("source", MoaType::Atomic(AtomicType::Url)),
            (
                "annotation",
                MoaType::Ext {
                    name: "CONTREP".into(),
                    param: Box::new(MoaType::Atomic(AtomicType::Text)),
                },
            ),
        ])
    }

    #[test]
    fn conformance_happy_path() {
        let ty = img_lib_ty();
        let elem = ty.elem().unwrap();
        let row = MoaVal::Tuple(vec![
            MoaVal::str("http://x/1.png"),
            MoaVal::str("a sunset over the sea"),
        ]);
        assert!(row.conforms(elem));
    }

    #[test]
    fn conformance_rejects_wrong_arity_and_type() {
        let ty = img_lib_ty();
        let elem = ty.elem().unwrap();
        assert!(!MoaVal::Tuple(vec![MoaVal::str("only-one")]).conforms(elem));
        assert!(!MoaVal::Tuple(vec![MoaVal::Int(4), MoaVal::str("x")]).conforms(elem));
    }

    #[test]
    fn null_conforms_and_maps_to_neutral() {
        let ty = img_lib_ty();
        let elem = ty.elem().unwrap();
        let row = MoaVal::Tuple(vec![MoaVal::str("u"), MoaVal::Null]);
        assert!(row.conforms(elem));
        assert_eq!(
            MoaVal::Null.to_physical(&MoaType::Atomic(AtomicType::Int)).unwrap(),
            Val::Int(0)
        );
        assert_eq!(
            MoaVal::Null.to_physical(&MoaType::Atomic(AtomicType::Text)).unwrap(),
            Val::Str(String::new())
        );
    }

    #[test]
    fn set_conformance_is_elementwise() {
        let ty = MoaType::Set(Box::new(MoaType::Atomic(AtomicType::Float)));
        assert!(MoaVal::Set(vec![0.5.into(), 0.7.into()]).conforms(&ty));
        assert!(!MoaVal::Set(vec![0.5.into(), "x".into()]).conforms(&ty));
    }

    #[test]
    fn numeric_views() {
        assert_eq!(MoaVal::str("x").as_str(), Some("x"));
        assert_eq!(MoaVal::Int(3).as_str(), None);
        assert_eq!(MoaVal::Set(vec![MoaVal::Int(3)]).elems(), Some(&[MoaVal::Int(3)][..]));
        assert_eq!(MoaVal::Float(0.5).elems(), None);
    }
}
