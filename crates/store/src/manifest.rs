//! Run manifests: the content-addressed identity of one sweep cell.
//!
//! A cell (one `(parameters, seed, trials)` point of an experiment grid) is
//! keyed by the SHA-256 of its canonical manifest serialization. The
//! manifest captures everything the cell's *results* depend on — protocol,
//! engine, convergence rule, graph, population parameters, effective seed,
//! and trial count — and deliberately excludes anything they do not, most
//! importantly the [`Parallelism`](avc_analysis::harness::Parallelism)
//! setting: PR 1's per-trial RNG streams make results bit-identical at every
//! worker count, so a sweep interrupted under `--threads 8` can resume under
//! `--serial` and still produce byte-identical exports.

use crate::hash::sha256_hex;
use crate::json::{Json, JsonStr};
use std::collections::BTreeMap;

/// Version of the on-disk record/manifest layout. Bump on any change to the
/// serialization; readers reject records from other schema versions.
pub const SCHEMA_VERSION: i64 = 1;

/// The identity of one sweep cell: experiment name plus the parameter map
/// that uniquely determines its results.
///
/// # Example
///
/// ```
/// use avc_store::manifest::Manifest;
///
/// let m = Manifest::new("fig3", [("n", "101"), ("protocol", "avc")]);
/// assert_eq!(m.hash().len(), 64);
/// // Same parameters, any insertion order → same hash.
/// let m2 = Manifest::new("fig3", [("protocol", "avc"), ("n", "101")]);
/// assert_eq!(m.hash(), m2.hash());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Sweep spec name (`fig3`, `fig4`, `lb_info`, …).
    pub experiment: String,
    /// Cell parameters. Keys are sorted in the canonical form, so insertion
    /// order never affects the hash. Floating-point parameters must be
    /// entered via [`crate::record::f64_to_hex`] (plus an optional
    /// human-readable duplicate under another key) to keep the identity
    /// exact.
    pub params: BTreeMap<String, String>,
}

impl Manifest {
    /// Builds a manifest from an experiment name and parameter pairs.
    pub fn new<K: Into<String>, V: Into<String>>(
        experiment: impl Into<String>,
        params: impl IntoIterator<Item = (K, V)>,
    ) -> Manifest {
        Manifest {
            experiment: experiment.into(),
            params: params
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    /// The canonical serialization: compact JSON with sorted keys, including
    /// the schema version. This exact byte string is the hash preimage.
    #[must_use]
    pub fn canonical(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// The cell's content hash: lowercase hex SHA-256 of [`canonical`].
    ///
    /// [`canonical`]: Manifest::canonical
    #[must_use]
    pub fn hash(&self) -> String {
        sha256_hex(self.canonical().as_bytes())
    }

    /// A parameter value, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// Serializes to JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        // Strings built from `&str`: a short one is copied inline, with no
        // `String` allocated on the way.
        let text = |s: &str| Json::Str(JsonStr::from(s));
        Json::obj([
            ("schema", Json::Int(SCHEMA_VERSION)),
            ("experiment", text(&self.experiment)),
            (
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), text(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Rejects documents with the wrong shape or a foreign schema version.
    pub fn from_json(json: &Json) -> Result<Manifest, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_int)
            .ok_or("manifest missing schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "manifest schema {schema} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let experiment = json
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("manifest missing experiment")?
            .to_string();
        let params = json
            .get("params")
            .and_then(Json::as_obj)
            .ok_or("manifest missing params")?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("param {k} is not a string"))
            })
            .collect::<Result<BTreeMap<_, _>, _>>()?;
        Ok(Manifest { experiment, params })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_param_sensitive() {
        let base = Manifest::new("fig3", [("n", "101"), ("seed", "5")]);
        assert_eq!(base.hash(), base.clone().hash());
        let other = Manifest::new("fig3", [("n", "101"), ("seed", "6")]);
        assert_ne!(base.hash(), other.hash());
        let renamed = Manifest::new("fig4", [("n", "101"), ("seed", "5")]);
        assert_ne!(base.hash(), renamed.hash());
    }

    #[test]
    fn canonical_form_sorts_keys() {
        let m = Manifest::new("x", [("zz", "1"), ("aa", "2")]);
        let canon = m.canonical();
        assert!(canon.find("aa").unwrap() < canon.find("zz").unwrap());
        assert!(canon.contains("\"schema\":1"));
    }

    #[test]
    fn json_roundtrip() {
        let m = Manifest::new(
            "graph_gap",
            [("topology", "random 6-regular"), ("n", "300")],
        );
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
        assert_eq!(m.hash(), back.hash());
    }

    #[test]
    fn rejects_foreign_schema() {
        let mut json = Manifest::new("x", [("a", "1")]).to_json();
        if let Json::Obj(map) = &mut json {
            map.insert("schema".to_string(), Json::Int(99));
        }
        assert!(Manifest::from_json(&json).is_err());
    }
}
