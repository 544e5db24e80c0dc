//! Regression gate over the bench artifacts (`BENCH_*.json`).
//!
//! Compares a baseline artifact against a current one and exits non-zero
//! when any gated metric moves the wrong way by more than the allowed
//! fraction. Gated metrics are the figures the performance work
//! optimizes. Higher is better for:
//!
//! * numeric fields whose key contains `cycles_per_sec` or `ops_per_sec`
//!   (absolute throughput);
//! * numeric fields whose key contains `_speedup` (ratios like
//!   `burst_absorption.producer_speedup` — the 0.09 collapse of PR 6
//!   sailed through a cycles/s-only gate);
//! * a derived `degrade_vs_inline` ratio for every object carrying both
//!   `inline_cycles_per_sec` and `degrade_cycles_per_sec`, so degrade
//!   collapsing *relative* to inline fails CI even when a faster engine
//!   lifts both absolute numbers.
//!
//! Lower is better for the overhead ratios of two runs on one machine:
//! `capture_overhead_ratio` (shadowed over bare writes,
//! `BENCH_recovery.json`) and `enabled_over_disabled` (telemetry on over
//! off, `BENCH_telemetry.json`). The limit applies to the whole ratio,
//! not to the overhead above 1.0: at the default 0.20 a baseline of 1.020
//! fails only above 1.224. The gate catches the instrumented run slowing
//! by a fifth against the bare one; an overhead growing from 2% to 20%
//! passes it.
//!
//! Latency fields are deliberately not gated: nanosecond numbers are too
//! noisy across machines to hold a hard threshold.
//!
//! Usage:
//!
//! ```text
//! bench_compare <baseline.json> <current.json> [max_regression]
//! ```
//!
//! `max_regression` is a fraction (default `0.20`): a higher-is-better
//! metric fails when `current < baseline * (1 - max_regression)`, a
//! lower-is-better one when `current > baseline * (1 + max_regression)`.
//! Metrics present in only
//! one file are reported but never fail the gate, so adding or removing
//! bench sections does not break CI.
//!
//! The vendored `serde_json` stub only serializes, so this tool reads the
//! artifacts with the admin plane's JSON parser, [`parse`].

use std::process::ExitCode;

use cryptodrop_fleet::rpc::{parse, Value};

/// Which way a gated metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

/// One gated metric: its rendered path, value and direction.
type Metric = (String, f64, Better);

/// The direction of a gated numeric field, or `None` for a field the
/// gate ignores.
fn gated_key(key: &str) -> Option<Better> {
    if key.contains("cycles_per_sec") || key.contains("ops_per_sec") || key.contains("_speedup") {
        Some(Better::Higher)
    } else if matches!(key, "capture_overhead_ratio" | "enabled_over_disabled") {
        Some(Better::Lower)
    } else {
        None
    }
}

/// Collects every gated metric (see [`gated_key`]), paths rendered like
/// `multi_process_throughput[2].cycles_per_sec`, plus a derived
/// `degrade_vs_inline` ratio wherever an object reports both inline and
/// degrade throughput.
fn gated_metrics(value: &Value, path: &str, out: &mut Vec<Metric>) {
    match value {
        Value::Obj(entries) => {
            for (key, val) in entries {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                if let (Value::Num(n), Some(better)) = (val, gated_key(key)) {
                    out.push((child, *n, better));
                    continue;
                }
                gated_metrics(val, &child, out);
            }
            let field = |name: &str| {
                entries.iter().find_map(|(k, v)| match v {
                    Value::Num(n) if k == name => Some(*n),
                    _ => None,
                })
            };
            if let (Some(inline), Some(degrade)) = (
                field("inline_cycles_per_sec"),
                field("degrade_cycles_per_sec"),
            ) {
                if inline > 0.0 {
                    let child = if path.is_empty() {
                        "degrade_vs_inline".to_string()
                    } else {
                        format!("{path}.degrade_vs_inline")
                    };
                    out.push((child, degrade / inline, Better::Higher));
                }
            }
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                gated_metrics(item, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// One metric's verdict after comparison.
enum Outcome {
    Ok(f64),
    Regressed(f64, Better),
    OnlyBaseline,
    OnlyCurrent,
}

fn compare(baseline: &Value, current: &Value, max_regression: f64) -> Vec<(String, Outcome)> {
    let mut base = Vec::new();
    gated_metrics(baseline, "", &mut base);
    let mut cur = Vec::new();
    gated_metrics(current, "", &mut cur);

    let mut rows = Vec::new();
    for (path, b, better) in &base {
        match cur.iter().find(|(p, ..)| p == path) {
            Some((_, c, _)) => {
                let change = if *b > 0.0 { c / b - 1.0 } else { 0.0 };
                let regressed = match better {
                    Better::Higher => change < -max_regression,
                    Better::Lower => change > max_regression,
                };
                let outcome = if regressed {
                    Outcome::Regressed(change, *better)
                } else {
                    Outcome::Ok(change)
                };
                rows.push((path.clone(), outcome));
            }
            None => rows.push((path.clone(), Outcome::OnlyBaseline)),
        }
    }
    for (path, ..) in &cur {
        if !base.iter().any(|(p, ..)| p == path) {
            rows.push((path.clone(), Outcome::OnlyCurrent));
        }
    }
    rows
}

fn run(baseline_path: &str, current_path: &str, max_regression: f64) -> Result<bool, String> {
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("read {baseline_path}: {e}"))?;
    let current_text = std::fs::read_to_string(current_path)
        .map_err(|e| format!("read {current_path}: {e}"))?;
    let baseline = parse(&baseline_text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let current = parse(&current_text).map_err(|e| format!("{current_path}: {e}"))?;

    let rows = compare(&baseline, &current, max_regression);
    if rows.is_empty() {
        println!("bench-compare: no gated metrics found in {baseline_path}");
        return Ok(true);
    }
    let mut ok = true;
    for (path, outcome) in rows {
        match outcome {
            Outcome::Ok(change) => println!("  ok        {path}  {:+.1}%", change * 100.0),
            Outcome::Regressed(change, better) => {
                ok = false;
                let sign = if better == Better::Higher { '-' } else { '+' };
                println!(
                    "  REGRESSED {path}  {:+.1}% (limit {sign}{:.0}%)",
                    change * 100.0,
                    max_regression * 100.0
                );
            }
            Outcome::OnlyBaseline => println!("  missing   {path}  (baseline only, not gated)"),
            Outcome::OnlyCurrent => println!("  new       {path}  (current only, not gated)"),
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline, current, max_regression) = match args.as_slice() {
        [b, c] => (b.as_str(), c.as_str(), 0.20),
        [b, c, m] => match m.parse::<f64>() {
            Ok(f) if f >= 0.0 => (b.as_str(), c.as_str(), f),
            _ => {
                eprintln!("bench-compare: max_regression must be a non-negative fraction");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: bench_compare <baseline.json> <current.json> [max_regression]");
            return ExitCode::from(2);
        }
    };
    match run(baseline, current, max_regression) {
        Ok(true) => {
            println!("bench-compare: within {:.0}% limit", max_regression * 100.0);
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!(
                "bench-compare: a gated metric regressed beyond {:.0}%",
                max_regression * 100.0
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "bench": "engine_overhead",
      "modify_cycle": { "filtered_ns_per_cycle": 700.0 },
      "eviction_pressure": { "cycles_per_sec": 100.0 },
      "multi_process_throughput": [
        { "threads": 1, "cycles_per_sec": 200.0 },
        { "threads": 2, "cycles_per_sec": 300.0 }
      ]
    }"#;

    #[test]
    fn parses_artifact_shapes() {
        let v = parse(BASE).unwrap();
        let mut metrics = Vec::new();
        gated_metrics(&v, "", &mut metrics);
        let paths: Vec<&str> = metrics.iter().map(|(p, ..)| p.as_str()).collect();
        assert_eq!(
            paths,
            [
                "eviction_pressure.cycles_per_sec",
                "multi_process_throughput[0].cycles_per_sec",
                "multi_process_throughput[1].cycles_per_sec",
            ]
        );
    }

    #[test]
    fn identical_files_pass() {
        let v = parse(BASE).unwrap();
        let rows = compare(&v, &v, 0.20);
        assert!(rows.iter().all(|(_, o)| matches!(o, Outcome::Ok(_))));
    }

    #[test]
    fn regression_beyond_limit_fails() {
        let base = parse(BASE).unwrap();
        let cur = parse(&BASE.replace("300.0", "200.0")).unwrap();
        let rows = compare(&base, &cur, 0.20);
        let regressed: Vec<&str> = rows
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Regressed(..)))
            .map(|(p, _)| p.as_str())
            .collect();
        assert_eq!(regressed, ["multi_process_throughput[1].cycles_per_sec"]);
    }

    #[test]
    fn regression_within_limit_passes() {
        let base = parse(BASE).unwrap();
        let cur = parse(&BASE.replace("300.0", "250.0")).unwrap();
        let rows = compare(&base, &cur, 0.20);
        assert!(rows.iter().all(|(_, o)| matches!(o, Outcome::Ok(_))));
    }

    #[test]
    fn latency_fields_are_not_gated() {
        let base = parse(BASE).unwrap();
        // A 10x latency increase alone must not trip the gate.
        let cur = parse(&BASE.replace("700.0", "7000.0")).unwrap();
        let rows = compare(&base, &cur, 0.20);
        assert!(rows.iter().all(|(_, o)| matches!(o, Outcome::Ok(_))));
    }

    #[test]
    fn missing_and_new_metrics_do_not_gate() {
        let base = parse(BASE).unwrap();
        let cur = parse(&BASE.replace("eviction_pressure", "renamed_sweep")).unwrap();
        let rows = compare(&base, &cur, 0.20);
        assert!(!rows.iter().any(|(_, o)| matches!(o, Outcome::Regressed(..))));
        assert!(rows
            .iter()
            .any(|(p, o)| matches!(o, Outcome::OnlyBaseline) && p.starts_with("eviction")));
        assert!(rows
            .iter()
            .any(|(p, o)| matches!(o, Outcome::OnlyCurrent) && p.starts_with("renamed")));
    }

    /// ISSUE 7: the 0.09 `producer_speedup` collapse must trip the gate.
    #[test]
    fn producer_speedup_is_gated() {
        const BURST: &str = r#"{
          "burst_absorption": {
            "inline_ns_per_cycle": 83674.6,
            "degrade_producer_ns_per_cycle": 20000.0,
            "producer_speedup": 4.18,
            "drain_ms": 12.0
          }
        }"#;
        let base = parse(BURST).unwrap();
        let mut metrics = Vec::new();
        gated_metrics(&base, "", &mut metrics);
        assert_eq!(
            metrics,
            [("burst_absorption.producer_speedup".to_string(), 4.18, Better::Higher)],
            "only the speedup is gated, never the raw nanoseconds"
        );
        let cur = parse(&BURST.replace("4.18", "0.09")).unwrap();
        let rows = compare(&base, &cur, 0.20);
        assert!(
            rows.iter()
                .any(|(p, o)| p.ends_with("producer_speedup") && matches!(o, Outcome::Regressed(..))),
            "a collapsed producer_speedup must fail the gate"
        );
    }

    /// ISSUE 7: degrade falling from ~64% to ~26% of inline slipped past
    /// the absolute cycles/s gate because inline got 30× faster in the
    /// same PR. The derived ratio catches exactly that shape.
    #[test]
    fn degrade_relative_to_inline_is_gated() {
        const POINT: &str = r#"{
          "multi_process_throughput": [
            { "threads": 4, "inline_cycles_per_sec": 100.0, "sync_cycles_per_sec": 98.0,
              "degrade_cycles_per_sec": 64.0 }
          ]
        }"#;
        // Inline quadruples, degrade still rises in absolute terms — but
        // collapses relative to inline. The absolute gates pass; the
        // ratio must fail.
        let base = parse(POINT).unwrap();
        let cur = parse(
            &POINT
                .replace("100.0", "400.0")
                .replace("64.0", "100.0")
                .replace("98.0", "390.0"),
        )
        .unwrap();
        let rows = compare(&base, &cur, 0.20);
        let failed: Vec<&str> = rows
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Regressed(..)))
            .map(|(p, _)| p.as_str())
            .collect();
        assert_eq!(failed, ["multi_process_throughput[0].degrade_vs_inline"]);
    }

    #[test]
    fn ops_per_sec_is_gated() {
        const FLEET: &str = r#"{ "fleet_steady_state": { "ops_per_sec": 5000.0 } }"#;
        let base = parse(FLEET).unwrap();
        let cur = parse(&FLEET.replace("5000.0", "3000.0")).unwrap();
        let rows = compare(&base, &cur, 0.20);
        assert!(rows
            .iter()
            .any(|(p, o)| p.ends_with("ops_per_sec") && matches!(o, Outcome::Regressed(..))));
    }

    /// The recovery and telemetry artifacts' overhead ratios, in their
    /// committed shapes.
    const OVERHEADS: &str = r#"{
      "recovery": { "write_overhead": { "bare_ns_per_cycle": 134646.1, "capture_overhead_ratio": 1.020 } },
      "telemetry": { "modify_cycle": { "baseline_ns_per_cycle": 60352.8, "enabled_over_disabled": 1.008 } }
    }"#;

    /// The rows of `compare` over `OVERHEADS` before and after `edit`.
    fn overhead_rows(edit: (&str, &str)) -> Vec<(String, Outcome)> {
        let base = parse(OVERHEADS).unwrap();
        let cur = parse(&OVERHEADS.replace(edit.0, edit.1)).unwrap();
        compare(&base, &cur, 0.20)
    }

    #[test]
    fn overhead_ratios_are_gated_lower_is_better() {
        let mut metrics = Vec::new();
        gated_metrics(&parse(OVERHEADS).unwrap(), "", &mut metrics);
        assert_eq!(
            metrics,
            [
                ("recovery.write_overhead.capture_overhead_ratio".to_string(), 1.020, Better::Lower),
                ("telemetry.modify_cycle.enabled_over_disabled".to_string(), 1.008, Better::Lower),
            ],
            "only the ratios are gated, never the raw nanoseconds"
        );
    }

    #[test]
    fn overhead_ratio_rising_beyond_the_limit_fails() {
        for (edit, path) in [
            (("1.020", "1.300"), "recovery.write_overhead.capture_overhead_ratio"),
            (("1.008", "1.250"), "telemetry.modify_cycle.enabled_over_disabled"),
        ] {
            let rows = overhead_rows(edit);
            let failed: Vec<&str> = rows
                .iter()
                .filter(|(_, o)| matches!(o, Outcome::Regressed(_, Better::Lower)))
                .map(|(p, _)| p.as_str())
                .collect();
            assert_eq!(failed, [path]);
        }
    }

    #[test]
    fn overhead_ratio_falling_or_rising_within_the_limit_passes() {
        // A lower overhead is an improvement however large the drop.
        for edit in [("1.020", "0.500"), ("1.008", "0.700"), ("1.020", "1.200"), ("1.008", "1.150")] {
            let rows = overhead_rows(edit);
            assert!(rows.iter().all(|(_, o)| matches!(o, Outcome::Ok(_))), "{edit:?}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse("{ \"a\": ").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("[1, 2,]").is_err());
    }
}
