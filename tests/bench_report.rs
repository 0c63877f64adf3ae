//! The committed `BENCH_*.json` perf trajectory stays schema-valid: every
//! report in the repo root must parse against `smm-bench-v1`, carry at
//! least one engine run, and agree with the workspace's known engine
//! kinds. Regenerate with
//! `SMM_BENCH_JSON=BENCH_6.json cargo bench -p smm-bench --bench runtime -- --test`
//! or `smm loadgen ... --bench-json BENCH_6.json`.

use spatial_smm::telemetry::BenchReport;
use std::path::Path;

fn committed_reports() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut reports = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let body = std::fs::read_to_string(entry.path()).unwrap();
            reports.push((name, body));
        }
    }
    reports
}

#[test]
fn committed_bench_reports_validate() {
    let reports = committed_reports();
    assert!(
        !reports.is_empty(),
        "no BENCH_*.json committed at the repo root"
    );
    for (name, body) in &reports {
        BenchReport::validate_json(body).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn bench_10_records_the_dense_kernel_ladder() {
    let body = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_10.json"),
    )
    .expect("BENCH_10.json must be committed at the repo root");
    BenchReport::validate_json(&body).unwrap();
    // The committed PR 10 snapshot compares the scalar reference
    // against the unrolled and blocked kernels at 256 and 512 (the
    // unrolled rung has since been retired; fresh reports carry scalar
    // and blocked), and pits the bit-sliced batch engine against the
    // framed stream.
    for engine in [
        "dense_scalar",
        "dense_unrolled",
        "dense_blocked",
        "bitserial_sliced",
        "bitserial_streamed",
    ] {
        assert!(
            body.contains(&format!("\"engine\": \"{engine}\"")),
            "BENCH_10.json is missing a run for the {engine} kernel"
        );
    }
    assert!(
        body.contains("\"rows\": 256") && body.contains("\"rows\": 512"),
        "BENCH_10.json must record the dense ladder at 256 and 512"
    );
}

#[test]
fn bench_6_covers_every_builtin_engine() {
    let body = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_6.json"),
    )
    .expect("BENCH_6.json must be committed at the repo root");
    BenchReport::validate_json(&body).unwrap();
    // The recorded trajectory exercises all four builtin serving engines.
    for kind in spatial_smm::runtime::BUILTIN_KINDS {
        assert!(
            body.contains(&format!("\"engine\": \"{kind}\"")),
            "BENCH_6.json is missing a run for the {kind} engine"
        );
    }
}
