//! The modeled-result digest: one FNV-1a hash of each cell's `RunStats`
//! JSON (every per-node counter, the parallel and sequential virtual times,
//! and the simulator event count), checked against the table committed in
//! `perfbench/digests.txt`. Host times are never part of it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use dsm_core::RunStats;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of one run's modeled results.
pub fn stats_digest(stats: &RunStats) -> u64 {
    fnv1a64(stats.to_json().to_string().as_bytes())
}

/// Expected digests by cell key.
#[derive(Debug, Default, Clone)]
pub struct Expected(BTreeMap<String, u64>);

impl Expected {
    /// Parse `<key> <16 hex digits>` lines; blank lines and `#` comments
    /// are skipped.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("digest table line {}: {line:?}", i + 1);
            let (key, hex) = line.split_once(' ').ok_or_else(bad)?;
            let hash = u64::from_str_radix(hex.trim(), 16).map_err(|_| bad())?;
            if map.insert(key.to_string(), hash).is_some() {
                return Err(format!("digest table line {}: duplicate key {key}", i + 1));
            }
        }
        Ok(Expected(map))
    }

    /// The table compiled into this binary.
    pub fn committed() -> &'static Expected {
        static TABLE: OnceLock<Expected> = OnceLock::new();
        TABLE.get_or_init(|| {
            Expected::parse(include_str!("../digests.txt"))
                .expect("the committed digest table parses (checked by a unit test)")
        })
    }

    /// Check one cell's digest against the expected one.
    pub fn verify(&self, key: &str, got: u64) -> Result<(), String> {
        match self.0.get(key) {
            None => Err(format!("no expected digest for {key} (got {got:016x})")),
            Some(&want) if want != got => Err(format!(
                "modeled results drifted: digest {got:016x}, expected {want:016x}"
            )),
            Some(_) => Ok(()),
        }
    }

    /// Replace (or add) one entry.
    pub fn insert(&mut self, key: &str, hash: u64) {
        self.0.insert(key.to_string(), hash);
    }

    /// True when `key` has an entry.
    pub fn contains(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

/// One line of the digest table.
pub fn table_line(key: &str, hash: u64) -> String {
    format!("{key} {hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn committed_table_parses_and_is_not_empty() {
        assert!(Expected::committed().contains("cell/lu/HLRC/4096"));
    }

    #[test]
    fn parse_rejects_garbage_and_duplicates() {
        assert!(Expected::parse("k zz").is_err());
        assert!(Expected::parse("k").is_err());
        assert!(Expected::parse("k 01\nk 02").is_err());
        let t = Expected::parse("# c\n\nk 00000000000000ff\n").unwrap();
        assert!(t.contains("k"));
    }
}
