//! The committed `BENCH_*.json` records: each one is strict JSON, names
//! the `oaq-bench` binary that writes it, and is a full run.

use std::fs;
use std::path::Path;

use oaq_bench::json::{check, JsonValue};

/// Every committed record and the binary that writes it.
const RECORDS: [(&str, &str); 9] = [
    ("BENCH_analytic.json", "pk_kernel"),
    ("BENCH_engine.json", "qos_server"),
    ("BENCH_faults.json", "engine_faults"),
    ("BENCH_geoloc.json", "geoloc_kernel"),
    ("BENCH_geoloc_batch.json", "geoloc_batch"),
    ("BENCH_mega.json", "mega_pk"),
    ("BENCH_scale.json", "mc_scale"),
    ("BENCH_serve.json", "serve_bench"),
    ("BENCH_sim.json", "mc_replication"),
];

#[test]
fn every_record_is_listed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut committed: Vec<String> = fs::read_dir(root)
        .expect("repository root is readable")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCHMARK.json")
        .collect();
    committed.sort();
    let listed: Vec<&str> = RECORDS.iter().map(|(file, _)| *file).collect();
    assert_eq!(committed, listed);
}

#[test]
fn records_are_strict_full_runs_of_their_binary() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, binary) in RECORDS {
        let text = fs::read_to_string(root.join(file)).expect("record is readable");
        let doc = check(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            doc.get("experiment"),
            Some(&JsonValue::String(binary.to_string())),
            "{file} must name the binary that writes it"
        );
        assert!(
            root.join(format!("crates/bench/src/bin/{binary}.rs"))
                .is_file(),
            "{file}: no binary {binary}"
        );
        assert_eq!(
            doc.get("quick"),
            Some(&JsonValue::Bool(false)),
            "{file} must be a full run, not --quick"
        );
    }
}
