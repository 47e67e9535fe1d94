//! Cedar's end-to-end and per-layer benchmark.
//!
//! ```text
//! cedar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one run sets up several times, measures for
//! `--seconds` with all tracing off, and reports the end-to-end metrics.
//! With `--trace 1` it measures half the time untraced and half with
//! the program's explain tracing (and the timer probe) on, and reports
//! the per-layer metrics. A table with sample counts goes to stderr; the
//! last stdout line is the JSON result. Any failed answer check exits
//! non-zero. See `README.md` beside this crate for the workloads.

mod closed;
mod inputs;
mod layers;
mod mesh;
mod report;
mod serve;
mod service;
mod sim;
mod stats;
mod sys;

use report::{Metric, RunResult};
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["service-fb50", "serve-mixed", "mesh-7", "sim-fb50"];

/// The per-layer metrics of `BENCHMARK.json`, in reporting order. A
/// workload that does not exercise a layer reports it as 0 with 0
/// samples. `mesh-7` reports its hop-level `mesh.*` metrics after these.
const LAYER_METRICS: [(&str, &str); 19] = [
    ("executor.timer_lag_us_p50", "us"),
    ("executor.timer_lag_us_p99", "us"),
    ("runtime.engine_ms_p50", "ms"),
    ("runtime.overrun_ms_p99", "ms"),
    ("runtime.submit_overhead_us_p50", "us"),
    ("runtime.submit_overhead_us_p99", "us"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.refits", "count"),
    ("core.prepare_us", "us"),
    ("core.calculate_wait_us", "us"),
    ("estimate.update_us", "us"),
    ("sim.query_ms", "ms"),
    ("server.frontend_us_p50", "us"),
    ("server.frontend_us_p99", "us"),
    ("server.codec_us", "us"),
    ("mesh.partial_codec_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The load budget: the generator may use at most `nproc` threads and
/// `nproc` connections. Threads the program starts itself (runtime
/// workers, connection threads, mesh nodes) are not the generator's.
pub fn check_budget(threads: usize, connections: usize, nproc: usize) -> Result<(), String> {
    if threads == 0 {
        return Err("the generator needs at least one thread".into());
    }
    if threads > nproc || connections > nproc {
        return Err(format!(
            "generator config ({threads} threads, {connections} connections) exceeds nproc = {nproc}"
        ));
    }
    Ok(())
}

/// Puts measured layer metrics in canonical order, filling the layers
/// the workload does not exercise; metrics outside the canonical list
/// follow in measured order.
fn all_layers(measured: Vec<Metric>) -> Vec<Metric> {
    let mut out: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let m = measured.iter().find(|m| m.name == name);
            m.cloned().unwrap_or_else(|| Metric::absent(name, unit))
        })
        .collect();
    out.extend(
        measured
            .into_iter()
            .filter(|m| !LAYER_METRICS.iter().any(|&(name, _)| name == m.name)),
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cedar-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Generator threads and connections: one of each per closed-loop
    // client; the open-loop and simulator generators are one thread.
    let (threads, connections) = match args.workload.as_str() {
        "serve-mixed" => (serve::CLIENTS, serve::CLIENTS),
        "mesh-7" => (1, 1),
        _ => (1, 0),
    };
    if let Err(e) = check_budget(threads, connections, sys::nproc()) {
        eprintln!("cedar-perfbench: {e}");
        return ExitCode::from(2);
    }
    let mut result: RunResult = match args.workload.as_str() {
        "service-fb50" => service::run(&args),
        "serve-mixed" => serve::run(&args),
        "mesh-7" => mesh::run(&args),
        _ => sim::run(&args),
    };
    if args.trace {
        let measured = std::mem::take(&mut result.metrics);
        result.metrics = all_layers(measured);
    }
    eprint!("{}", report::table(&args.workload, args.trace, &result));
    println!("{}", report::json_line(&result));
    if result.checks.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_refuses_more_threads_or_connections_than_cores() {
        assert!(check_budget(2, 2, 2).is_ok());
        assert!(check_budget(1, 0, 2).is_ok());
        assert!(check_budget(3, 2, 2).is_err());
        assert!(check_budget(2, 3, 2).is_err());
        assert!(check_budget(0, 0, 2).is_err());
    }

    #[test]
    fn every_layer_is_reported_once() {
        let out = all_layers(vec![
            Metric::new("mesh.hop_us_p50", "us", 400.0, 12),
            Metric::new("runtime.refits", "count", 3.0, 60),
        ]);
        assert_eq!(out.len(), LAYER_METRICS.len() + 1);
        let refits = out.iter().find(|m| m.name == "runtime.refits").unwrap();
        assert_eq!((refits.value, refits.samples), (3.0, 60));
        let hop = out.last().unwrap();
        assert_eq!(
            (hop.name, hop.value, hop.samples),
            ("mesh.hop_us_p50", 400.0, 12)
        );
        assert_eq!(
            out.iter().filter(|m| m.samples == 0).count(),
            LAYER_METRICS.len() - 1
        );
    }
}
