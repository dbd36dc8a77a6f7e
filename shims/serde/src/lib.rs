//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture, this shim round-trips through an
//! in-memory [`Value`] tree (the miniserde approach): [`Serialize`] renders
//! a value into a [`Value`], [`Deserialize`] rebuilds one from it, and the
//! companion `serde_json` shim handles text. [`Value`] is `mcpb-json`'s
//! tree, so integers above 2^53 stay exact. The `#[derive(Serialize,
//! Deserialize)]` macros come from the in-repo `serde_derive` shim, which
//! parses token streams by hand (no `syn`), covering exactly the shapes this
//! workspace uses: structs with named fields and enums with unit variants.
//!
//! Object keys keep insertion order (`Vec` of pairs, not a hash map), so
//! serialization is fully deterministic — a workspace-wide invariant that
//! `mcpb-audit` also enforces for result-producing code.

pub use mcpb_json::Value;
pub use serde_derive::{Deserialize, Serialize};

/// Deserialization error: a human-readable path/description.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// Builds an error from anything displayable.
    pub fn msg(m: impl std::fmt::Display) -> Self {
        Error(m.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `self` into a [`Value`] tree.
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;
}

/// Rebuilds `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses `Self` out of `v`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                match u64::try_from(*self) {
                    Ok(n) => Value::from(n),
                    Err(_) => Value::Number(*self as f64),
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let out_of_range = |n: &dyn std::fmt::Display| {
                    Error::msg(format!("number {n} out of range for {}", stringify!($t)))
                };
                match v {
                    Value::U64(n) => <$t>::try_from(*n).map_err(|_| out_of_range(n)),
                    Value::Number(n) if n.fract() == 0.0 => {
                        let lo = <$t>::MIN as f64;
                        let hi = <$t>::MAX as f64;
                        if *n >= lo && *n <= hi {
                            Ok(*n as $t)
                        } else {
                            Err(out_of_range(n))
                        }
                    }
                    other => Err(Error::msg(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Number(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    // serde_json writes non-finite floats as null.
                    Value::Null => Ok(<$t>::NAN),
                    other => other.as_f64().map(|n| n as $t).ok_or_else(|| {
                        Error::msg(format!("expected number, found {other:?}"))
                    }),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::msg(format!("expected bool, found {v:?}")))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::msg(format!("expected string, found {v:?}")))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::msg(format!("expected array, found {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// Support for derived impls: extracts and deserializes object field `name`.
pub fn __field<T: Deserialize>(v: &Value, ty: &str, name: &str) -> Result<T, Error> {
    let field = v
        .get(name)
        .ok_or_else(|| Error::msg(format!("{ty}: missing field `{name}`")))?;
    T::from_value(field).map_err(|e| Error::msg(format!("{ty}.{name}: {e}")))
}

/// Support for derived impls: the variant string of a unit-enum encoding.
pub fn __variant<'v>(v: &'v Value, ty: &str) -> Result<&'v str, Error> {
    v.as_str()
        .ok_or_else(|| Error::msg(format!("{ty}: expected variant string, found {v:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(bool::from_value(&true.to_value()).unwrap(), true);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn integer_range_checked() {
        assert!(u8::from_value(&Value::Number(300.0)).is_err());
        assert!(u32::from_value(&Value::Number(-1.0)).is_err());
        assert!(u32::from_value(&Value::Number(1.5)).is_err());
    }

    #[test]
    fn option_null_round_trip() {
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<u32>::from_value(&Value::Number(3.0)).unwrap(),
            Some(3)
        );
    }

    #[test]
    fn object_get_preserves_order() {
        let v = Value::Object(vec![
            ("b".into(), Value::Number(1.0)),
            ("a".into(), Value::Number(2.0)),
        ]);
        assert_eq!(v.get("a"), Some(&Value::Number(2.0)));
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["b", "a"]);
    }
}
