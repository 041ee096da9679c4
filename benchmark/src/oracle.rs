//! The correctness oracle: row count and an order-free fingerprint of
//! every statement's rows, computed once by `--bless` from the Volcano
//! baseline and committed under `expected/`. A run compares against the
//! files; it never asks the engine under test what the answer is.

use crate::probe::Rows;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// Row count plus a hash of the rows in sorted order. Sorting makes the
/// fingerprint independent of the order parallel workers emit rows in;
/// statements with `ORDER BY … LIMIT` break ties on a key, so the kept set
/// is defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub hash: u64,
}

pub fn fingerprint(rows: &Rows) -> Fingerprint {
    let mut sorted: Vec<&[u64]> =
        if rows.width == 0 { Vec::new() } else { rows.vals.chunks_exact(rows.width).collect() };
    sorted.sort_unstable();
    // FNV-1a over width, then every value.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(rows.width as u64);
    for row in &sorted {
        for &v in *row {
            mix(v);
        }
    }
    Fingerprint { rows: sorted.len() as u64, hash: h }
}

/// Key of one expected entry: the statement and, for a bound statement,
/// the index into its bind-value domain.
pub fn key(stmt: &str, value: Option<u32>) -> String {
    match value {
        Some(d) => format!("{stmt}#{d}"),
        None => stmt.to_string(),
    }
}

/// The committed fingerprints of one workload at one scale.
pub struct Expected(HashMap<String, Fingerprint>);

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e} (run --bless to create it)", path.display()))?;
        let mut map = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let mut cols = line.split('\t');
            let entry = (|| {
                let key = cols.next()?;
                let rows = cols.next()?.parse().ok()?;
                let hash = u64::from_str_radix(cols.next()?, 16).ok()?;
                Some((key.to_string(), Fingerprint { rows, hash }))
            })();
            let (key, fp) =
                entry.ok_or_else(|| format!("{}: bad line {line:?}", path.display()))?;
            map.insert(key, fp);
        }
        Ok(Expected(map))
    }

    pub fn get(&self, stmt: &str, value: Option<u32>) -> Result<Fingerprint, String> {
        let k = key(stmt, value);
        self.0.get(&k).copied().ok_or_else(|| format!("no expected fingerprint for {k}"))
    }
}

/// Write `entries` (in the order given) as an expected file.
pub fn write(path: &Path, header: &str, entries: &[(String, Fingerprint)]) -> Result<(), String> {
    let mut out = format!("# {header}\n# statement[#value]\trows\tfingerprint\n");
    for (key, fp) in entries {
        let _ = writeln!(out, "{key}\t{}\t{:016x}", fp.rows, fp.hash);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_row_order_but_not_values() {
        let a = Rows { width: 2, vals: vec![1, 2, 3, 4, 5, 6] };
        let b = Rows { width: 2, vals: vec![5, 6, 1, 2, 3, 4] };
        let c = Rows { width: 2, vals: vec![1, 2, 3, 4, 5, 7] };
        let d = Rows { width: 3, vals: vec![1, 2, 3, 4, 5, 6] };
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&a).hash, fingerprint(&d).hash);
        assert_eq!(fingerprint(&a).rows, 3);
        assert_eq!(fingerprint(&Rows::default()).rows, 0);
    }

    #[test]
    fn expected_file_round_trips() {
        // Under the package's ignored `out/`: tests write nowhere else.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-oracle-{}", std::process::id()));
        let path = dir.join("w.tsv");
        let entries = vec![
            (key("q1", None), Fingerprint { rows: 4, hash: 0xdead_beef }),
            (key("scan", Some(7)), Fingerprint { rows: 1, hash: u64::MAX }),
        ];
        write(&path, "test", &entries).unwrap();
        let e = Expected::load(&path).unwrap();
        assert_eq!(e.get("q1", None).unwrap(), entries[0].1);
        assert_eq!(e.get("scan", Some(7)).unwrap(), entries[1].1);
        assert!(e.get("scan", Some(8)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(Expected::load(&path).is_err());
    }
}
