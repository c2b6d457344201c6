//! The structure type system.
//!
//! Types are built from atomic base types by applying *structures*:
//! `TUPLE<…>`, `SET<…>`, `LIST<…>` from the Moa kernel, plus extension
//! structures registered by name (the paper's `CONTREP<Text>`). The atomic
//! domain names used in the Mirror demo (`URL`, `Text`, `Image`, `Vector`)
//! are distinct logical types that all map onto physical base types —
//! that translation is the data-independence seam.

use crate::{MoaError, Result};
use monet::MonetType;
use std::fmt;

/// Atomic (non-structured) logical types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Plain string.
    Str,
    /// A URL referencing media on the media server.
    Url,
    /// Natural-language text.
    Text,
    /// An image (stored by reference; pixels live on the media server).
    Image,
    /// A feature vector (stored by reference into the feature store).
    Vector,
}

impl AtomicType {
    /// The physical base type this logical atom maps to.
    pub fn physical(self) -> MonetType {
        match self {
            AtomicType::Int => MonetType::Int,
            AtomicType::Float => MonetType::Float,
            AtomicType::Str
            | AtomicType::Url
            | AtomicType::Text
            | AtomicType::Image
            | AtomicType::Vector => MonetType::Str,
        }
    }

    /// Parse an atomic type name as it appears inside `Atomic<…>`.
    pub fn parse(name: &str) -> Result<AtomicType> {
        match name {
            "int" | "Int" | "integer" => Ok(AtomicType::Int),
            "float" | "Float" | "dbl" => Ok(AtomicType::Float),
            "str" | "Str" | "string" | "String" => Ok(AtomicType::Str),
            "URL" | "Url" => Ok(AtomicType::Url),
            "Text" | "text" => Ok(AtomicType::Text),
            "Image" | "image" => Ok(AtomicType::Image),
            "Vector" | "vector" => Ok(AtomicType::Vector),
            other => Err(MoaError::Type(format!("unknown atomic type '{other}'"))),
        }
    }
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomicType::Int => "int",
            AtomicType::Float => "float",
            AtomicType::Str => "str",
            AtomicType::Url => "URL",
            AtomicType::Text => "Text",
            AtomicType::Image => "Image",
            AtomicType::Vector => "Vector",
        };
        f.write_str(s)
    }
}

/// A Moa logical type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoaType {
    /// `Atomic<T>`.
    Atomic(AtomicType),
    /// `TUPLE<t1: n1, …>` — named, ordered fields.
    Tuple(Vec<(String, MoaType)>),
    /// `SET<T>` — a multi-set.
    Set(Box<MoaType>),
    /// `LIST<T>` — an ordered collection (H.E. Blok's extension).
    List(Box<MoaType>),
    /// An extension structure, e.g. `CONTREP<Text>`.
    Ext {
        /// Registered structure name.
        name: String,
        /// The parameter type.
        param: Box<MoaType>,
    },
}

impl MoaType {
    /// Shorthand for `SET<TUPLE<fields>>` — the shape of every collection.
    pub fn set_of_tuple(fields: Vec<(&str, MoaType)>) -> MoaType {
        MoaType::Set(Box::new(MoaType::Tuple(
            fields.into_iter().map(|(n, t)| (n.to_string(), t)).collect(),
        )))
    }

    /// The element type if this is a `SET`/`LIST`.
    pub fn elem(&self) -> Option<&MoaType> {
        match self {
            MoaType::Set(t) | MoaType::List(t) => Some(t),
            _ => None,
        }
    }

    /// The fields if this is a `TUPLE`.
    pub fn fields(&self) -> Option<&[(String, MoaType)]> {
        match self {
            MoaType::Tuple(fs) => Some(fs),
            _ => None,
        }
    }

    /// Look up a tuple field type by name.
    pub fn field(&self, name: &str) -> Option<&MoaType> {
        self.fields()?.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Depth of structure nesting (an `Atomic` has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            MoaType::Atomic(_) => 0,
            MoaType::Tuple(fs) => 1 + fs.iter().map(|(_, t)| t.depth()).max().unwrap_or(0),
            MoaType::Set(t) | MoaType::List(t) => 1 + t.depth(),
            MoaType::Ext { param, .. } => 1 + param.depth(),
        }
    }
}

impl fmt::Display for MoaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoaType::Atomic(a) => write!(f, "Atomic<{a}>"),
            MoaType::Tuple(fields) => {
                write!(f, "TUPLE<")?;
                for (i, (n, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}: {n}")?;
                }
                write!(f, ">")
            }
            MoaType::Set(t) => write!(f, "SET<{t}>"),
            MoaType::List(t) => write!(f, "LIST<{t}>"),
            MoaType::Ext { name, param } => write!(f, "{name}<{param}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_physical_mapping() {
        assert_eq!(AtomicType::Int.physical(), MonetType::Int);
        assert_eq!(AtomicType::Url.physical(), MonetType::Str);
        assert_eq!(AtomicType::Vector.physical(), MonetType::Str);
    }

    #[test]
    fn atomic_parse() {
        assert_eq!(AtomicType::parse("URL").unwrap(), AtomicType::Url);
        assert_eq!(AtomicType::parse("Text").unwrap(), AtomicType::Text);
        assert!(AtomicType::parse("Widget").is_err());
    }

    #[test]
    fn display_roundtrip_shape() {
        let t = MoaType::set_of_tuple(vec![
            ("source", MoaType::Atomic(AtomicType::Url)),
            (
                "annotation",
                MoaType::Ext {
                    name: "CONTREP".into(),
                    param: Box::new(MoaType::Atomic(AtomicType::Text)),
                },
            ),
        ]);
        let s = t.to_string();
        assert_eq!(s, "SET<TUPLE<Atomic<URL>: source, CONTREP<Atomic<Text>>: annotation>>");
    }

    #[test]
    fn field_lookup_and_elem() {
        let t = MoaType::set_of_tuple(vec![("x", MoaType::Atomic(AtomicType::Int))]);
        let elem = t.elem().unwrap();
        assert_eq!(elem.field("x"), Some(&MoaType::Atomic(AtomicType::Int)));
        assert_eq!(elem.field("y"), None);
    }

    #[test]
    fn numeric_and_depth() {
        let t = MoaType::set_of_tuple(vec![(
            "inner",
            MoaType::Set(Box::new(MoaType::Atomic(AtomicType::Float))),
        )]);
        assert_eq!(t.depth(), 3);
    }
}
