//! The committed `BENCH_*_smoke.json` baselines as test data: each one
//! parses and re-serializes to its exact bytes, and no truncation or
//! corruption of one makes the reader panic.

use std::path::Path;

use labelcount_perf::json::Json;
use labelcount_perf::report::Report;
use proptest::prelude::*;

/// `(file name, contents)` of every committed smoke baseline, sorted.
fn baselines() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&root)
        .expect("repository root")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let is_baseline = name.starts_with("BENCH_") && name.ends_with("_smoke.json");
            is_baseline.then(|| (name, std::fs::read_to_string(e.path()).unwrap()))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn committed_baselines_round_trip_byte_for_byte() {
    let files = baselines();
    assert!(files.len() >= 4, "expected the four smoke baselines");
    for (name, text) in files {
        let report = Report::from_json_text(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.to_json().to_pretty() == text,
            "{name} changed on re-serialization"
        );
    }
}

/// Bytes a JSON document is made of, so random strings reach past the
/// first character.
const JSON_ALPHABET: &[u8] = b"[]{}\",:0123456789.-+eE \ntrufalsn\\u";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        picks in proptest::collection::vec(0..JSON_ALPHABET.len(), 0..128),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        let jsonish: Vec<u8> = picks.iter().map(|&i| JSON_ALPHABET[i]).collect();
        let _ = Json::parse(&String::from_utf8_lossy(&jsonish));
    }

    #[test]
    fn damaged_baselines_are_errors_not_panics(
        file in 0usize..4,
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        let files = baselines();
        let text = files[file % files.len()].1.as_bytes();
        // Truncated before the closing `}\n`: always an error.
        let truncated = String::from_utf8_lossy(&text[..cut % (text.len() - 1)]);
        prop_assert!(Report::from_json_text(&truncated).is_err());
        // Byte-flipped: an error or a report, never a panic.
        let mut flipped = text.to_vec();
        for &(at, mask) in &flips {
            let at = at % flipped.len();
            flipped[at] ^= mask;
        }
        if let Ok(report) = Report::from_json_text(&String::from_utf8_lossy(&flipped)) {
            let _ = report.to_json().to_pretty();
        }
    }
}
