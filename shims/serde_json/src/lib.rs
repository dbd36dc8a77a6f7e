//! Offline stand-in for `serde_json`: the serde shim's [`Value`] tree to
//! JSON text and back, through the workspace codec `mcpb-json`.
//!
//! Covers the API surface this workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`], and [`Value`] inspection. Object keys
//! keep insertion order, so output is deterministic.

pub use serde::{Error, Value};

/// Result alias matching the real crate's signature shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(mcpb_json::to_string(&value.to_value()))
}

/// Serializes to pretty JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(mcpb_json::to_string_pretty(&value.to_value()))
}

/// Parses a JSON document into any shim-deserializable type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let v = mcpb_json::parse(s).map_err(Error::msg)?;
    T::from_value(&v)
}
