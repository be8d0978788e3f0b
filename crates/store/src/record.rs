//! Durable per-cell result records.
//!
//! A [`Record`] is one line of the registry's JSONL file: the cell's
//! [`Manifest`], its content hash, and a [`CellResult`] payload carrying the
//! sample behind the cell's `Summary` (as exact bit-pattern samples), the
//! cell's pre-rendered table rows, named exact scalars, and free-form notes.
//!
//! Floats are stored as the 16 lowercase hex digits of their IEEE-754 bit
//! patterns — never as decimal text — so a resumed sweep exports *bytes*
//! identical to an uninterrupted one: no decimal round-trip can perturb a
//! quantile or a mean. The codec maps a bit pattern straight to its digits
//! and back, and each digit string fits a [`JsonStr`] inline, so a
//! record's samples are written and read without a heap allocation each.
//! Only the writer's form is read back: a sample, `error_fraction` or value
//! in any other spelling fails the record. Samples lie outside the manifest
//! hash, so a spelling that decoded to the same bits would otherwise pass
//! the corruption guard and be rewritten in other bytes by a compaction.

use crate::json::{Json, JsonStr};
use crate::manifest::{Manifest, SCHEMA_VERSION};
use avc_analysis::stats::Summary;
use avc_population::telemetry::metrics::NUM_BUCKETS;
use avc_population::telemetry::{CellTelemetry, HistogramSnapshot, MetricValue, RegistrySnapshot};
use std::collections::BTreeMap;

/// The 16 lowercase hex digits of `x`'s bit pattern, most significant
/// first.
fn hex_digits(x: f64) -> [u8; 16] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = x.to_bits();
    let mut digits = [0; 16];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = DIGITS[(bits >> (60 - 4 * i) & 0xf) as usize];
    }
    digits
}

/// [`f64_to_hex`] as a JSON string, kept inline.
fn hex_json(x: f64) -> Json {
    let digits = hex_digits(x);
    Json::Str(JsonStr::from(
        std::str::from_utf8(&digits).expect("hex digits are ASCII"),
    ))
}

/// Encodes an `f64` as the 16 lowercase hex digits of its bit pattern.
///
/// # Example
///
/// ```
/// use avc_store::record::{f64_to_hex, f64_from_hex};
/// let x = 0.1f64 + 0.2; // not representable in short decimal
/// assert_eq!(f64_to_hex(x), "3fd3333333333334");
/// assert_eq!(f64_from_hex(&f64_to_hex(x)).unwrap(), x);
/// ```
#[must_use]
pub fn f64_to_hex(x: f64) -> String {
    hex_digits(x)
        .iter()
        .map(|&digit| char::from(digit))
        .collect()
}

/// Decodes [`f64_to_hex`]'s output, and nothing else.
///
/// # Errors
///
/// Rejects anything but exactly 16 characters of `[0-9a-f]`: no sign, no
/// uppercase digit, no other length.
pub fn f64_from_hex(s: &str) -> Result<f64, String> {
    hex_bits(s.as_bytes())
        .map(f64::from_bits)
        .ok_or_else(|| format!("bad f64 hex `{s}`"))
}

/// The bit pattern that 16 lowercase hex digits spell, most significant
/// first.
fn hex_bits(digits: &[u8]) -> Option<u64> {
    let digits: &[u8; 16] = digits.try_into().ok()?;
    digits.iter().try_fold(0u64, |bits, &digit| {
        let value = match digit {
            b'0'..=b'9' => digit - b'0',
            b'a'..=b'f' => digit - b'a' + 10,
            _ => return None,
        };
        Some(bits << 4 | u64::from(value))
    })
}

/// Decodes a stored float: a JSON string in [`f64_to_hex`]'s form.
fn hex_from_json(json: &Json) -> Result<f64, String> {
    let Json::Str(s) = json else {
        return Err("stored float not a string".to_string());
    };
    hex_bits(s.as_bytes())
        .map(f64::from_bits)
        .ok_or_else(|| format!("bad f64 hex `{s}`"))
}

/// The trial-level outcome of a cell: the exact sample set behind its
/// `Summary` plus the error bookkeeping of the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSummary {
    /// Parallel-time samples of converged trials, in the canonical sorted
    /// order of `Summary::samples` (`f64::total_cmp`).
    pub samples: Vec<f64>,
    /// Fraction of trials converging to the wrong output.
    pub error_fraction: f64,
    /// Total trials run (converged or not).
    pub total_runs: u64,
}

impl TrialSummary {
    /// Reconstructs the exact [`Summary`] (`None` when no trial
    /// converged — `Summary` has no empty-sample representation).
    #[must_use]
    pub fn summary(&self) -> Option<Summary> {
        (!self.samples.is_empty()).then(|| Summary::from_samples(&self.samples))
    }
}

/// The durable payload of one completed cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellResult {
    /// Trial samples, for experiments with per-trial randomness.
    pub trials: Option<TrialSummary>,
    /// Pre-rendered table rows this cell contributes, keyed by the output
    /// file stem (`fig3_time`, `fig3_error`, …). Rendered once at run time
    /// by the experiment's own table code, then replayed verbatim at
    /// export — the trivially byte-stable route.
    pub tables: BTreeMap<String, Vec<Vec<String>>>,
    /// Named exact scalars needed to re-derive export artifacts that span
    /// cells (fitted slopes, plot coordinates), e.g. `achieved_eps`.
    pub values: BTreeMap<String, f64>,
    /// Free-form notes (e.g. surviving mutant rules from the model checks).
    pub notes: Vec<String>,
    /// Aggregated run telemetry for the cell's batch, when the cell
    /// captured any. Absent from legacy records (parsed leniently) and
    /// never part of the manifest hash — telemetry describes *how* a cell
    /// ran, not *what* it computed.
    pub telemetry: Option<CellTelemetry>,
}

impl CellResult {
    /// A named scalar, if recorded.
    #[must_use]
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// The rows recorded for a table stem (empty if none).
    #[must_use]
    pub fn rows(&self, stem: &str) -> &[Vec<String>] {
        self.tables.get(stem).map_or(&[], Vec::as_slice)
    }
}

/// Serializes one metric value, tagged by kind: `{"counter":N}`,
/// `{"gauge":N}` or
/// `{"histogram":{"buckets":[[i,c],..],"count":..,"sum":..}}` with the
/// nonzero log₂ buckets only.
fn metric_value_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(v) => Json::obj([("counter", Json::Int(*v as i64))]),
        MetricValue::Gauge(v) => Json::obj([("gauge", Json::Int(*v as i64))]),
        MetricValue::Histogram(h) => Json::obj([(
            "histogram",
            Json::obj([
                ("count", Json::Int(h.count as i64)),
                ("sum", Json::Int(h.sum as i64)),
                (
                    "buckets",
                    Json::Arr(
                        h.nonzero_buckets()
                            .iter()
                            .map(|&(i, c)| {
                                Json::Arr(vec![Json::Int(i as i64), Json::Int(c as i64)])
                            })
                            .collect(),
                    ),
                ),
            ]),
        )]),
    }
}

fn metric_value_from_json(json: &Json) -> Result<MetricValue, String> {
    if let Some(v) = json.get("counter").and_then(Json::as_int) {
        return Ok(MetricValue::Counter(v as u64));
    }
    if let Some(v) = json.get("gauge").and_then(Json::as_int) {
        return Ok(MetricValue::Gauge(v as u64));
    }
    let h = json
        .get("histogram")
        .ok_or("metric value of unknown kind")?;
    let mut snap = HistogramSnapshot::new();
    snap.count = h
        .get("count")
        .and_then(Json::as_int)
        .ok_or("histogram missing count")? as u64;
    snap.sum = h
        .get("sum")
        .and_then(Json::as_int)
        .ok_or("histogram missing sum")? as u64;
    for pair in h
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram missing buckets")?
    {
        let pair = pair.as_arr().ok_or("histogram bucket not a pair")?;
        let [index, count] = pair else {
            return Err("histogram bucket not a pair".to_string());
        };
        let index = index.as_int().ok_or("bucket index not an int")? as usize;
        if index >= NUM_BUCKETS {
            return Err(format!("bucket index {index} out of range"));
        }
        snap.buckets[index] = count.as_int().ok_or("bucket count not an int")? as u64;
    }
    Ok(MetricValue::Histogram(snap))
}

/// The workspace's one JSON form of a registry: an object keyed by metric
/// name, in name order, so fixed contents give fixed bytes. Records embed
/// it, and `engine_bench --profile-out` writes its snapshots in it.
#[must_use]
pub fn registry_to_json(snap: &RegistrySnapshot) -> Json {
    Json::Obj(
        snap.iter()
            .map(|(name, value)| (name.to_string(), metric_value_to_json(value)))
            .collect(),
    )
}

fn registry_from_json(json: &Json) -> Result<RegistrySnapshot, String> {
    let mut snap = RegistrySnapshot::new();
    for (name, value) in json.as_obj().ok_or("telemetry registry not an object")? {
        snap.set(name, metric_value_from_json(value)?);
    }
    Ok(snap)
}

fn telemetry_to_json(telemetry: &CellTelemetry) -> Json {
    Json::obj([
        ("sim", registry_to_json(&telemetry.sim)),
        ("wall", registry_to_json(&telemetry.wall)),
    ])
}

fn telemetry_from_json(json: &Json) -> Result<CellTelemetry, String> {
    let sim = match json.get("sim") {
        Some(sim) => registry_from_json(sim)?,
        None => RegistrySnapshot::new(),
    };
    let wall = match json.get("wall") {
        Some(wall) => registry_from_json(wall)?,
        None => RegistrySnapshot::new(),
    };
    Ok(CellTelemetry { sim, wall })
}

/// One line of the registry: a completed cell with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The cell's identity.
    pub manifest: Manifest,
    /// [`Manifest::hash`], denormalized for grep/`avc show`.
    pub hash: String,
    /// The payload.
    pub result: CellResult,
    /// Wall-clock milliseconds the cell took when it actually ran.
    pub wall_ms: u64,
}

impl Record {
    /// Builds a record, computing the hash from the manifest.
    #[must_use]
    pub fn new(manifest: Manifest, result: CellResult, wall_ms: u64) -> Record {
        let hash = manifest.hash();
        Record {
            manifest,
            hash,
            result,
            wall_ms,
        }
    }

    /// Serializes to the on-disk JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let result = &self.result;
        let mut payload: BTreeMap<String, Json> = BTreeMap::new();
        if let Some(trials) = &result.trials {
            payload.insert(
                "trials".to_string(),
                Json::obj([
                    (
                        "samples",
                        Json::Arr(trials.samples.iter().map(|&x| hex_json(x)).collect()),
                    ),
                    ("error_fraction", hex_json(trials.error_fraction)),
                    ("total_runs", Json::Int(trials.total_runs as i64)),
                ]),
            );
        }
        payload.insert(
            "tables".to_string(),
            Json::Obj(
                result
                    .tables
                    .iter()
                    .map(|(stem, rows)| {
                        (
                            stem.clone(),
                            Json::Arr(
                                rows.iter()
                                    .map(|row| Json::Arr(row.iter().map(Json::str).collect()))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        );
        payload.insert(
            "values".to_string(),
            Json::Obj(
                result
                    .values
                    .iter()
                    .map(|(k, &v)| (k.clone(), hex_json(v)))
                    .collect(),
            ),
        );
        payload.insert(
            "notes".to_string(),
            Json::Arr(result.notes.iter().map(Json::str).collect()),
        );
        if let Some(telemetry) = &result.telemetry {
            payload.insert("telemetry".to_string(), telemetry_to_json(telemetry));
        }

        Json::obj([
            ("schema", Json::Int(SCHEMA_VERSION)),
            ("hash", Json::str(&self.hash)),
            ("manifest", self.manifest.to_json()),
            ("result", Json::Obj(payload)),
            ("wall_ms", Json::Int(self.wall_ms as i64)),
        ])
    }

    /// Deserializes one record.
    ///
    /// # Errors
    ///
    /// Rejects malformed documents, foreign schema versions, and records
    /// whose stored hash disagrees with the manifest (corruption guard).
    pub fn from_json(json: &Json) -> Result<Record, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_int)
            .ok_or("record missing schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "record schema {schema} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let manifest = Manifest::from_json(json.get("manifest").ok_or("record missing manifest")?)?;
        let hash = json
            .get("hash")
            .and_then(Json::as_str)
            .ok_or("record missing hash")?
            .to_string();
        if hash != manifest.hash() {
            return Err(format!("record hash mismatch for {hash}"));
        }
        let payload = json.get("result").ok_or("record missing result")?;

        let trials = match payload.get("trials") {
            None => None,
            Some(t) => {
                let samples = t
                    .get("samples")
                    .and_then(Json::as_arr)
                    .ok_or("trials missing samples")?
                    .iter()
                    .map(hex_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let error_fraction = hex_from_json(
                    t.get("error_fraction")
                        .ok_or("trials missing error_fraction")?,
                )?;
                let total_runs = t
                    .get("total_runs")
                    .and_then(Json::as_int)
                    .ok_or("trials missing total_runs")? as u64;
                Some(TrialSummary {
                    samples,
                    error_fraction,
                    total_runs,
                })
            }
        };

        let tables = payload
            .get("tables")
            .and_then(Json::as_obj)
            .ok_or("result missing tables")?
            .iter()
            .map(|(stem, rows)| {
                let rows = rows
                    .as_arr()
                    .ok_or("table rows not an array")?
                    .iter()
                    .map(|row| {
                        row.as_arr()
                            .ok_or("table row not an array")?
                            .iter()
                            .map(|cell| {
                                cell.as_str().map(str::to_string).ok_or("cell not a string")
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((stem.clone(), rows))
            })
            .collect::<Result<BTreeMap<_, _>, &str>>()?;

        let values = payload
            .get("values")
            .and_then(Json::as_obj)
            .ok_or("result missing values")?
            .iter()
            .map(|(k, v)| {
                hex_from_json(v)
                    .map(|x| (k.clone(), x))
                    .map_err(|e| format!("value {k}: {e}"))
            })
            .collect::<Result<BTreeMap<_, _>, _>>()?;

        let notes = payload
            .get("notes")
            .and_then(Json::as_arr)
            .ok_or("result missing notes")?
            .iter()
            .map(|n| n.as_str().map(str::to_string).ok_or("note not a string"))
            .collect::<Result<Vec<_>, _>>()?;

        // Lenient by absence: legacy records predate the field.
        let telemetry = payload
            .get("telemetry")
            .map(telemetry_from_json)
            .transpose()?;

        let wall_ms = json
            .get("wall_ms")
            .and_then(Json::as_int)
            .ok_or("record missing wall_ms")? as u64;

        Ok(Record {
            manifest,
            hash,
            result: CellResult {
                trials,
                tables,
                values,
                notes,
                telemetry,
            },
            wall_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        let manifest = Manifest::new("fig3", [("n", "101"), ("protocol", "avc")]);
        let result = CellResult {
            trials: Some(TrialSummary {
                samples: vec![1.5, 2.25, 0.1 + 0.2],
                error_fraction: 1.0 / 3.0,
                total_runs: 3,
            }),
            tables: BTreeMap::from([(
                "fig3_time".to_string(),
                vec![vec![
                    "101".to_string(),
                    "avc".to_string(),
                    "1.88".to_string(),
                ]],
            )]),
            values: BTreeMap::from([("achieved_eps".to_string(), 0.009_900_990_099_009_9)]),
            notes: vec!["note with \"quotes\"".to_string()],
            telemetry: Some(sample_telemetry()),
        };
        Record::new(manifest, result, 1234)
    }

    fn sample_telemetry() -> CellTelemetry {
        use avc_population::telemetry::keys;
        let mut t = CellTelemetry::new();
        t.sim.set(keys::SIM_STEPS, MetricValue::Counter(12_345));
        t.sim.set("sim.depth_max", MetricValue::Gauge(7));
        let mut h = HistogramSnapshot::new();
        h.record(100);
        h.record(5_000);
        t.sim
            .set(keys::SIM_CONVERGENCE_STEPS, MetricValue::Histogram(h));
        t.wall
            .set(keys::WALL_CELL_NS, MetricValue::Counter(9_876_543));
        t
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let record = sample_record();
        let text = record.to_json().to_string_compact();
        let back = Record::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(record, back);
        // Bit-exactness of the awkward float.
        assert_eq!(
            back.result.trials.as_ref().unwrap().samples[2].to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn telemetry_roundtrips_and_legacy_records_parse() {
        let record = sample_record();
        let text = record.to_json().to_string_compact();
        let back = Record::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.result.telemetry, Some(sample_telemetry()));

        // A record without the field (legacy schema) parses to None.
        let mut json = record.to_json();
        if let Some(Json::Obj(result)) = json.get("result").cloned() {
            let mut result = result;
            result.remove("telemetry");
            if let Json::Obj(map) = &mut json {
                map.insert("result".to_string(), Json::Obj(result));
            }
        }
        let legacy = Record::from_json(&json).unwrap();
        assert_eq!(legacy.result.telemetry, None);
    }

    #[test]
    fn summary_reconstruction_keeps_the_sorted_samples() {
        let record = sample_record();
        let summary = record.result.trials.unwrap().summary().unwrap();
        assert_eq!(summary.count, 3);
        assert_eq!(summary.samples(), &[0.1 + 0.2, 1.5, 2.25]);
    }

    #[test]
    fn tampered_hash_is_rejected() {
        let record = sample_record();
        let mut json = record.to_json();
        if let Json::Obj(map) = &mut json {
            map.insert("hash".to_string(), Json::str("0".repeat(64)));
        }
        assert!(Record::from_json(&json).unwrap_err().contains("mismatch"));
    }

    #[test]
    fn f64_hex_handles_extremes() {
        let cases = [
            (0.0, "0000000000000000"),
            (-0.0, "8000000000000000"),
            (f64::from_bits(1), "0000000000000001"),
            (f64::MIN_POSITIVE, "0010000000000000"),
            (1.0, "3ff0000000000000"),
            (f64::MAX, "7fefffffffffffff"),
            (f64::INFINITY, "7ff0000000000000"),
            (f64::NEG_INFINITY, "fff0000000000000"),
            (f64::from_bits(0x7ff8_0000_0000_0001), "7ff8000000000001"),
            (f64::from_bits(0xfff0_0000_dead_beef), "fff00000deadbeef"),
            (1e300, "7e37e43c8800759c"),
            (-7.25, "c01d000000000000"),
        ];
        for (x, digits) in cases {
            assert_eq!(f64_to_hex(x), digits);
            assert_eq!(f64_from_hex(digits).unwrap().to_bits(), x.to_bits());
            let json = hex_json(x);
            assert_eq!(json.as_str(), Some(digits));
            assert_eq!(hex_from_json(&json).unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn f64_hex_accepts_only_the_written_form() {
        for bad in [
            "",
            "xyz",
            "123",
            "000000000000001",
            "00000000000000001",
            "+000000000000001",
            "-000000000000001",
            "3FF0000000000000",
            "3ff000000000000A",
            "3ff000000000000g",
            " 3ff000000000000",
            "3ff000000000000 ",
            "0x3ff00000000000",
            "3ff00000000000é",
        ] {
            assert_eq!(
                f64_from_hex(bad).unwrap_err(),
                format!("bad f64 hex `{bad}`")
            );
            assert!(hex_from_json(&Json::str(bad)).is_err(), "{bad}");
        }
        assert!(hex_from_json(&Json::Int(0)).is_err());
    }

    #[test]
    fn records_with_floats_in_another_spelling_are_rejected() {
        let text = sample_record().to_json().to_string_compact();
        let canonical = f64_to_hex(1.5);
        for (what, from, to) in [
            ("sample", canonical.clone(), canonical.to_uppercase()),
            ("sample", canonical.clone(), format!("+{}", &canonical[1..])),
            (
                "error_fraction",
                f64_to_hex(1.0 / 3.0),
                f64_to_hex(1.0 / 3.0).to_uppercase(),
            ),
            (
                "value",
                f64_to_hex(0.009_900_990_099_009_9),
                f64_to_hex(0.009_900_990_099_009_9).to_uppercase(),
            ),
        ] {
            assert_eq!(text.matches(&from).count(), 1, "{what}");
            let edited = Json::parse(&text.replace(&from, &to)).unwrap();
            let err = Record::from_json(&edited).unwrap_err();
            assert!(
                err.contains(&format!("bad f64 hex `{to}`")),
                "{what}: {err}"
            );
        }
    }
}
