//! Typed sweep records: one field list per record type.
//!
//! `record!` declares a struct and, from the same field list, its one
//! JSON line ([`Record::to_json`] — document record, checkpoint line and
//! run summary alike) and the reader that restores it from a checkpoint
//! ([`Record::from_json`]). Members are written in declaration order
//! under the field's own name, so adding a field is one line and the
//! reader cannot drift from the writer.

use kar_obs::json::{escape, f64_or_null, Json};

/// A value with one JSON form.
pub trait Record: Sized {
    /// The value as JSON text.
    fn to_json(&self) -> String;
    /// Reads the value back; `None` when `json` is not what
    /// [`Record::to_json`] writes.
    fn from_json(json: &Json) -> Option<Self>;
}

macro_rules! integer_records {
    ($($ty:ty),*) => {$(
        impl Record for $ty {
            fn to_json(&self) -> String {
                self.to_string()
            }
            fn from_json(json: &Json) -> Option<Self> {
                json.as_num()
            }
        }
    )*};
}
integer_records!(u32, u64, usize);

impl Record for bool {
    fn to_json(&self) -> String {
        self.to_string()
    }
    fn from_json(json: &Json) -> Option<Self> {
        match json {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Non-finite values are `null` in a document and read back as NaN.
impl Record for f64 {
    fn to_json(&self) -> String {
        f64_or_null(*self)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_f64_or_nan()
    }
}

impl Record for String {
    fn to_json(&self) -> String {
        format!("\"{}\"", escape(self))
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_str().map(str::to_string)
    }
}

/// `None` is `null`.
impl<T: Record> Record for Option<T> {
    fn to_json(&self) -> String {
        self.as_ref().map_or("null".to_string(), T::to_json)
    }
    fn from_json(json: &Json) -> Option<Self> {
        match json {
            Json::Null => Some(None),
            value => T::from_json(value).map(Some),
        }
    }
}

impl<T: Record> Record for Vec<T> {
    fn to_json(&self) -> String {
        let items: Vec<String> = self.iter().map(T::to_json).collect();
        format!("[{}]", items.join(","))
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_arr()?.iter().map(T::from_json).collect()
    }
}

/// Implements [`Record`] for an enum that displays as a stable label:
/// written as that string, read back by searching `$all`.
macro_rules! label_record {
    ($ty:ty, $all:expr) => {
        impl $crate::record::Record for $ty {
            fn to_json(&self) -> String {
                $crate::record::Record::to_json(&self.to_string())
            }
            fn from_json(json: &kar_obs::json::Json) -> Option<Self> {
                let label = json.as_str()?;
                $all.into_iter().find(|v| v.to_string() == label)
            }
        }
    };
}
pub(crate) use label_record;

label_record!(kar::DeflectionTechnique, kar::DeflectionTechnique::ALL);
label_record!(kar::Outcome, [kar::Outcome::Loop, kar::Outcome::Blackhole]);

/// Declares a record struct (every field public) and its [`Record`]
/// implementation: one JSON object, one member per field, in order.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::record::Record for $name {
            fn to_json(&self) -> String {
                kar_obs::json::Obj::new()
                    $(.raw(stringify!($field), $crate::record::Record::to_json(&self.$field)))*
                    .finish()
            }
            fn from_json(json: &kar_obs::json::Json) -> Option<Self> {
                Some($name {
                    $($field: $crate::record::Record::from_json(json.get(stringify!($field))?)?,)*
                })
            }
        }
    };
}
pub(crate) use record;

#[cfg(test)]
mod tests {
    use super::*;

    record! {
        /// The nested record.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Inner {
            /// A flag.
            pub ok: bool,
            /// A ratio (NaN here: `null` on the wire).
            pub ratio: f64,
        }
    }

    record! {
        /// A record exercising every member kind.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Sample {
            /// A label.
            pub name: String,
            /// An enum written as its label.
            pub technique: kar::DeflectionTechnique,
            /// A seed above 2^53.
            pub seed: u64,
            /// Optional nested record.
            pub inner: Option<Inner>,
            /// Optional scalars inside an array.
            pub firsts: Vec<Option<usize>>,
        }
    }

    #[test]
    fn records_write_members_in_order_and_read_back() {
        let sample = Sample {
            name: "a \"b\"".into(),
            technique: kar::DeflectionTechnique::Nip,
            seed: 11981841711409792483,
            inner: Some(Inner {
                ok: true,
                ratio: f64::NAN,
            }),
            firsts: vec![Some(2), None],
        };
        let line = sample.to_json();
        assert_eq!(
            line,
            "{\"name\":\"a \\\"b\\\"\",\"technique\":\"NIP\",\"seed\":11981841711409792483,\
             \"inner\":{\"ok\":true,\"ratio\":null},\"firsts\":[2,null]}"
        );
        let json = Json::parse(&line).unwrap();
        let back = Sample::from_json(&json).expect("reads back");
        assert_eq!(back.to_json(), line, "NaN compares unequal; lines do not");
        assert_eq!(
            Inner::from_json(&json),
            None,
            "a missing member is not a record"
        );
    }
}
