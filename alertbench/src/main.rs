//! `alertbench`: the end-to-end and per-layer benchmark of the secure
//! location-alert service.
//!
//! ```text
//! alertbench --workload <scan|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives the service over its Unix socket and prints the
//! end-to-end metrics; `--trace 1` runs the per-layer ladder instead,
//! timing each layer's public calls from outside, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it is the run record (host, sizes, settings, sample counts).
//! Any oracle or cost-model mismatch exits with code 1; a run that cannot
//! complete exits with code 2 and prints no result.

mod e2e;
mod inputs;
mod json;
mod ladder;
mod serve;
mod stats;
mod trace;

use json::{Metrics, Record};
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: alertbench --workload <scan|churn> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["scan", "churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && (1.0..=120.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds}: expected 1 to 120"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The host and settings every result is tied to.
fn host_record(args: &Args) -> Record {
    let probs = inputs::likelihoods();
    let codebook = inputs::codebook(&probs);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "kernel",
            sla_bigint::KernelKind::active().name().to_string(),
        ),
        ("group_bits", inputs::GROUP_BITS.to_string()),
        ("code_width_bits", codebook.width_bits().to_string()),
        ("workers", inputs::WORKERS.to_string()),
    ]
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(out: &e2e::Outcome) -> Result<Metrics, String> {
    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    let pct = |samples: &[f64], p: f64, what: &str| {
        if !stats::tail_supported(samples.len(), p) {
            return Err(format!(
                "{} {what} samples leave fewer than ten beyond p{}",
                samples.len(),
                p * 100.0
            ));
        }
        Ok(stats::percentile(samples, p).expect("non-empty"))
    };
    let mut m = Metrics::default();
    m.push(
        "setup_s",
        stats::median(&out.setup_s).ok_or("no set-up")?,
        "s",
    );
    m.push("alert_p50_ms", ms(pct(&out.alert_ns, 0.5, "alert")?), "ms");
    m.push("alert_p90_ms", ms(pct(&out.alert_ns, 0.9, "alert")?), "ms");
    let total_alert_ns: f64 = out.alert_ns.iter().sum();
    m.push(
        "alert_ns_per_pairing",
        total_alert_ns / out.alert_pairings.max(1) as f64,
        "ns",
    );
    m.push("pairings_per_alert", out.pairings_per_alert, "count");
    m.push(
        "update_p50_us",
        us(pct(&out.update_ns, 0.5, "update")?),
        "us",
    );
    m.push("peak_rss_mb", serve::peak_rss_mb(), "MiB");
    Ok(m)
}

fn run(args: &Args) -> Result<(json::Result, Record), String> {
    let work = serve::Workdir::create()?;
    let mut record = host_record(args);
    if args.trace {
        let ladder = ladder::run(&args.workload, args.seed, args.seconds, &work)?;
        record.extend(ladder.record);
        return Ok((
            json::Result {
                correct: ladder.failed == 0,
                attempted: ladder.attempted,
                failed: ladder.failed,
                metrics: ladder.metrics,
            },
            record,
        ));
    }
    let out = match args.workload.as_str() {
        "scan" => e2e::scan(args.seed, args.seconds, &work)?,
        _ => e2e::churn(args.seed, args.seconds, &work)?,
    };
    for failure in &out.failures {
        eprintln!("alertbench: FAILED: {failure}");
    }
    let metrics = end_to_end(&out)?;
    record.extend(out.record.iter().cloned());
    record.push(("setups", out.setup_s.len().to_string()));
    record.push(("alerts", out.alert_ns.len().to_string()));
    record.push(("updates", out.update_ns.len().to_string()));
    // The highest percentile each sample count supports (ten beyond it).
    let tail = |n: usize| {
        stats::highest_tail(n, &[0.5, 0.9, 0.99, 0.999])
            .map_or("none".to_string(), |p| format!("p{}", p * 100.0))
    };
    record.push(("alert_tail", tail(out.alert_ns.len())));
    record.push(("update_tail", tail(out.update_ns.len())));
    // Reported but not gated: the update tail (an fsync tail on `churn`)
    // moves with the host's disk far beyond any bound.
    if stats::tail_supported(out.update_ns.len(), 0.99) {
        let p99 = stats::percentile(&out.update_ns, 0.99).expect("non-empty");
        record.push(("update_p99_us", format!("{:.1}", p99 / 1e3)));
    }
    record.push(("busy_retries", out.busy_retries.to_string()));
    let (updates, alerts): (f64, f64) = (out.update_ns.iter().sum(), out.alert_ns.iter().sum());
    record.push((
        "update_time_share",
        format!("{:.3}", updates / (updates + alerts)),
    ));
    Ok((
        json::Result {
            correct: out.failed == 0,
            attempted: out.attempted,
            failed: out.failed,
            metrics,
        },
        record,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("alertbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((result, record)) => {
            eprint!("{}", json::human(&result, &record));
            println!("{}", json::record_line(&record));
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("alertbench: {e}");
            ExitCode::from(2)
        }
    }
}
