//! Deterministic result fingerprints and their reference files.
//!
//! Every workload folds what it can observe of the program's behaviour
//! (counters, digest statics' raw bits, path hashes, verdict strings,
//! accept/reject outcomes) into an ordered key → string map. The map of
//! a run is compared key by key with `benchmark/expected/…`; any
//! difference is a change of behaviour, never noise.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::Value;

/// Ordered key → value map of a workload's deterministic results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint(BTreeMap<String, String>);

impl Fingerprint {
    /// Records one value under `key`.
    pub fn put(&mut self, key: &str, value: impl std::fmt::Display) {
        self.0.insert(key.to_owned(), value.to_string());
    }

    /// Keys whose values differ between `self` and `other` (missing on
    /// either side counts), rendered for the mismatch report.
    pub fn diff(&self, other: &Fingerprint) -> Vec<String> {
        let keys: std::collections::BTreeSet<&String> =
            self.0.keys().chain(other.0.keys()).collect();
        keys.into_iter()
            .filter_map(|k| {
                let (a, b) = (self.0.get(k), other.0.get(k));
                (a != b).then(|| {
                    format!(
                        "{k}: got {} expected {}",
                        a.map_or("<missing>", String::as_str),
                        b.map_or("<missing>", String::as_str)
                    )
                })
            })
            .collect()
    }

    /// The map as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                .collect(),
        )
    }

    /// Parses a JSON object of strings.
    pub fn from_json(v: &Value) -> Option<Fingerprint> {
        let Value::Object(entries) = v else {
            return None;
        };
        let mut fp = Fingerprint::default();
        for (k, v) in entries {
            fp.0.insert(k.clone(), v.as_str()?.to_owned());
        }
        Some(fp)
    }
}

/// 64-bit FNV-1a, the fold used for path lists and JSON dumps.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer into the hash.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Where the reference fingerprint of a workload/size/seed lives.
pub fn expected_path(dir: &Path, workload: &str, quick: bool, seed: u64) -> PathBuf {
    let size = if quick { ".quick" } else { "" };
    dir.join(format!("{workload}{size}.seed{seed}.json"))
}

/// Loads a reference fingerprint; `None` when the seed has none (then
/// only the invariants are checked).
pub fn load_expected(path: &Path) -> Option<Fingerprint> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    Fingerprint::from_json(&v)
}

/// Writes a reference fingerprint (`--bless`).
pub fn write_expected(path: &Path, fp: &Fingerprint) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = serde_json::to_string_pretty(&fp.to_json()).expect("fingerprint serializes");
    text.push('\n');
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_changed_and_missing_keys() {
        let mut a = Fingerprint::default();
        a.put("x", 1);
        a.put("y", "same");
        let mut b = Fingerprint::default();
        b.put("x", 2);
        b.put("y", "same");
        b.put("z", 3);
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert!(d[0].starts_with("x: got 1 expected 2"));
        assert!(d[1].starts_with("z: got <missing>"));
        assert_eq!(Fingerprint::from_json(&a.to_json()), Some(a));
    }
}
