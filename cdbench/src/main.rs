//! `cdbench --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! [--trace-out <file>]`
//!
//! Runs one workload, prints every metric by name with its unit and every
//! correctness check, then one JSON result line. Exits 1 when a check
//! fails and 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use cdbench::{Options, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("cdbench: {msg}");
    eprintln!(
        "usage: cdbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1> [--trace-out <file>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("--seed wants a u64, got {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => seconds = Some(s),
                _ => return usage(&format!("--seconds wants a positive number, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("--trace wants 0 or 1, got {value:?}")),
            },
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };

    let run = cdbench::run(&Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
    });
    if let (Some(tracer), Some(path)) = (&run.tracer, &trace_out) {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("cdbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!(
            "trace {} spans written to {} ({} more not kept)",
            tracer.spans().len(),
            path.display(),
            tracer.dropped()
        );
    }
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        workload.name(),
        u8::from(trace)
    );
    for line in run.report.lines() {
        println!("{line}");
    }
    println!("{}", run.report.json_line());
    if run.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
