//! Tiny-shape smoke run of every workload, untraced and traced: each
//! metric `BENCHMARK.json` names is printed with its unit, the result
//! line carries `attempted` and `failed`, and the outputs pass their
//! checks.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use obs::json::{parse, Value};
use std::path::Path;
use std::process::Command;

/// Per-layer figures that are differences of two measurements, or
/// counts and ratios that are 0 on a healthy run or on some workload
/// (`engine.warm_hit_ratio` on `serve_distinct`): finite, not positive.
const SIGNED_OR_ZERO: [&str; 11] = [
    "dataflow.compile_s",
    "engine.rss_per_case_mib",
    "engine.warm_hit_ratio",
    "ledger.unaccounted_s",
    "obs.events_dropped",
    "obs.streaming_cost_s",
    "resilience.retries",
    "resilience.supervisor_overhead_s",
    "trace.overhead_cpu_s_per_request",
    "trace.overhead_latency_p50_s",
    "trace.overhead_throughput_rps",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the result line is JSON")
}

fn check(workload: &str, trace: &str, section: &str) {
    let result = run(workload, trace);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    let attempted = result.get("attempted").and_then(Value::as_u64);
    assert!(
        attempted.is_some_and(|n| n >= 1),
        "attempted: {attempted:?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = result.get("metrics").expect("metrics");
    let spec = spec();
    let named = spec.get(section).and_then(Value::as_array).expect(section);
    for m in named {
        let name = m.get("name").and_then(Value::as_str).expect("name");
        let unit = m.get("unit").and_then(Value::as_str).expect("unit");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            got.get("unit").and_then(Value::as_str),
            Some(unit),
            "{name}"
        );
        let v = got.get("value").and_then(Value::as_f64).expect("value");
        if SIGNED_OR_ZERO.contains(&name) {
            assert!(v.is_finite(), "{workload}: {name} = {v}");
        } else {
            assert!(v > 0.0, "{workload}: {name} = {v}, want > 0");
        }
    }
}

#[test]
fn serve_c8_smoke() {
    check("serve_c8", "0", "end_to_end");
    check("serve_c8", "1", "per_layer");
}

#[test]
fn serve_distinct_smoke() {
    check("serve_distinct", "0", "end_to_end");
    check("serve_distinct", "1", "per_layer");
}

#[test]
fn forecast_c48_smoke() {
    check("forecast_c48", "0", "end_to_end");
    check("forecast_c48", "1", "per_layer");
}
