//! perfbench — the repository's benchmark of record.
//!
//! ```text
//! perfbench --workload <fig9-full|tenant-churn-cold|tenant-fanout-warm>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no
//! benchmark-side tracing; with `--trace 1` it alternates untraced and
//! traced passes and reports the per-layer metrics, writing its spans to
//! `.bench_out/spans-<workload>-seed<n>.jsonl`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` beside this crate for the workloads and metrics.

mod drive;
mod inputs;
mod jobs;
mod report;
mod spans;
mod stats;

use drive::{Kind, Options};
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fig9-full|tenant-churn-cold|tenant-fanout-warm> \
--seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Options {
        kind,
        seed,
        seconds,
        traced,
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = opts.kind.name();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rec = drive::run(opts);

    let mut problems = rec.problems();
    let metrics = if opts.traced {
        rec.per_layer(&mut problems)
    } else {
        rec.end_to_end()
    };
    for m in &metrics {
        if !m.1.is_finite() && problems.is_empty() {
            problems.push(format!("metric {} is not a number", m.0));
        }
    }
    let header = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\"passes\":{}}}",
        opts.seed,
        opts.seconds,
        rec.passes.len()
    );
    if opts.traced {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{workload}-seed{}.jsonl", opts.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::to_jsonl(&header, &rec.spans())));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => problems.push(format!("writing {}: {e}", path.display())),
        }
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }

    println!("# {header}");
    for line in rec.pass_lines() {
        println!("# {line}");
    }
    for (name, value, unit) in &metrics {
        println!("# {name:<34} {value:>16.6} {unit}");
    }
    let failed = rec.failed();
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        problems.is_empty() && failed == 0,
        rec.attempted().max(1),
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    println!("{out}");
    ExitCode::SUCCESS
}
