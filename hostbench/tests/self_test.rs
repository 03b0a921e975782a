//! Runs every workload briefly, untraced and traced, and checks that
//! the result line carries every metric of the table with its unit,
//! that `BENCHMARK.json` agrees with the table and that the README
//! names every metric.
//!
//! ```text
//! cargo test --release --manifest-path hostbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["tenant_churn", "serve_plain", "serve_verified"];

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_salus-hostbench"))
}

/// `(name, unit)` pairs of one section of the emitted spec.
fn spec_section(spec: &str, section: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find("\n  ]").expect("section closes")];
    body.lines()
        .filter_map(|line| {
            let name = field(line, "name")?;
            let unit = field(line, "unit")?;
            Some((name, unit))
        })
        .collect()
}

/// The string value of `"key": "..."` on one line.
fn field(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_owned())
}

fn emitted_spec() -> String {
    let out = bench().arg("--emit-spec").output().expect("bench runs");
    assert!(out.status.success());
    String::from_utf8(out.stdout).expect("utf-8 spec")
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let checked_in =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json at the root");
    assert_eq!(
        checked_in,
        emitted_spec(),
        "regenerate with `cargo run --release --manifest-path hostbench/Cargo.toml -- --emit-spec > BENCHMARK.json`"
    );
}

#[test]
fn readme_documents_every_metric() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README present");
    let spec = emitted_spec();
    for section in ["end_to_end", "per_layer"] {
        for (name, _) in spec_section(&spec, section) {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README does not document {name}"
            );
        }
    }
    for w in WORKLOADS {
        assert!(readme.contains(&format!("`{w}`")), "README misses {w}");
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let spec = emitted_spec();
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench()
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("bench runs");
            assert!(
                out.status.success(),
                "{workload} trace {trace} exited {:?}",
                out.status
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,\"attempted\":"),
                "{last}"
            );
            for (name, unit) in spec_section(&spec, section) {
                let needle = format!("\"{name}\":{{\"value\":");
                let at = last
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{workload} trace {trace} misses {name}"));
                let rest = &last[at + needle.len()..];
                let close = rest.find('}').expect("metric object closes");
                assert!(
                    rest[..close].ends_with(&format!(",\"unit\":\"{unit}\"")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            if trace == "1" && workload == "serve_plain" {
                for counter in [
                    "integrity.full_builds",
                    "integrity.incr_refreshes",
                    "integrity.chunks_rehashed",
                ] {
                    assert!(
                        last.contains(&format!("\"{counter}\":{{\"value\":0.0,")),
                        "{counter} is not zero on serve_plain"
                    );
                }
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["--seed", "1"],
        vec!["--workload", "serve_plain", "--seed", "x"],
    ] {
        let out = bench().args(&args).output().expect("bench runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
