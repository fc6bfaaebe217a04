//! Runs every workload named in `BENCHMARK.json` at toy size, on the
//! development seed and on the held-out seed recorded in `meta.json`, in
//! both modes, and checks that each result line is correct and names every
//! metric `BENCHMARK.json` lists for that mode.

use std::path::Path;
use std::process::Command;

const DEV_SEED: u64 = 1;

/// `"name"` values per top-level section of `BENCHMARK.json`, which keeps
/// one entry per line.
fn names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.starts_with(&format!("\"{key}\"")) {
                current = key;
            }
        }
        if current == section {
            if let Some(rest) = line.split("\"name\": \"").nth(1) {
                out.push(rest.split('"').next().expect("closing quote").to_string());
            }
        }
    }
    assert!(!out.is_empty(), "no names in section {section}");
    out
}

fn meta_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("meta.json");
    std::fs::read_to_string(path).expect("meta.json is readable")
}

fn held_out_seed() -> u64 {
    let text = meta_json();
    let rest = text
        .split("\"held_out_seed\":")
        .nth(1)
        .expect("meta.json records held_out_seed");
    rest.trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("held_out_seed is an integer")
}

#[test]
fn every_workload_prints_every_metric_on_both_seeds() {
    let seeds = [DEV_SEED, held_out_seed()];
    assert_ne!(seeds[0], seeds[1]);
    for workload in names("workloads") {
        for seed in seeds {
            for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
                let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                    .args(["--workload", &workload, "--seed", &seed.to_string()])
                    .args(["--seconds", "0.2", "--trace", trace, "--toy"])
                    .output()
                    .expect("benchmark binary runs");
                let label = format!("{workload} seed={seed} trace={trace}");
                assert!(
                    out.status.success(),
                    "{label}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let stdout = String::from_utf8_lossy(&out.stdout);
                let last = stdout.lines().last().expect("a result line");
                assert!(last.starts_with('{'), "{label}: {last}");
                assert!(last.contains("\"correct\":true"), "{label}: {last}");
                assert!(last.contains("\"failed\":0"), "{label}: {last}");
                for name in names(section) {
                    assert!(
                        last.contains(&format!("\"{name}\":{{")),
                        "{label}: metric {name} missing from {last}"
                    );
                }
            }
        }
    }
}

#[test]
fn layer_map_names_every_per_layer_metric_once() {
    let text = meta_json();
    let mut mapped: Vec<String> = text
        .split("\"metrics\": [")
        .skip(1)
        .flat_map(|rest| {
            let list = rest.split(']').next().expect("closing bracket");
            list.split(',')
                .map(|n| n.trim().trim_matches('"').to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    let mut listed = names("per_layer");
    mapped.sort();
    listed.sort();
    assert_eq!(mapped, listed);
}

#[test]
fn malformed_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "nash",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "nash",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "nash", "--seed", "1", "--trace", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
