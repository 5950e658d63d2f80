//! The `labelcount-perf` binary's argument checks: a bad threshold is a
//! usage error (exit 2 and a message), never a panic.

use std::process::Command;

#[test]
fn nan_and_sub_one_thresholds_are_usage_errors() {
    for flag in ["--max-regression", "--min-parallel-speedup"] {
        for bad in ["NaN", "nan", "0.5"] {
            let out = Command::new(env!("CARGO_BIN_EXE_labelcount-perf"))
                .args(["compare", "--baseline", ".", "--current", ".", flag, bad])
                .output()
                .expect("run labelcount-perf");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {stderr}");
            assert!(
                stderr.contains(&format!("{flag} must be >= 1.0")),
                "{flag} {bad}: {stderr}"
            );
        }
    }
}
