//! Metric records, the answer checks, and the two renderings: a table on
//! stderr (with sample counts) and the one-line JSON result on stdout.

use crate::stats::{FailClass, Percentile, Tally};
use cedar_server::proto::{self, QueryResult, Response};
use std::fmt::Write as _;
use std::io;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 = the layer is not on this
    /// workload's path, or not observable from outside it).
    pub samples: usize,
    /// Samples above the rank, for percentiles.
    pub beyond: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
            beyond: None,
        }
    }

    pub fn pct(name: &'static str, unit: &'static str, p: Percentile) -> Self {
        Self {
            name,
            unit,
            value: p.value,
            samples: p.samples,
            beyond: Some(p.beyond),
        }
    }

    /// Nearest-rank percentile of unsorted samples.
    pub fn pct_of(name: &'static str, unit: &'static str, samples: &[f64], p: f64) -> Self {
        Self::pct(name, unit, crate::stats::percentile(samples, p))
    }

    /// A layer this workload does not exercise.
    pub fn absent(name: &'static str, unit: &'static str) -> Self {
        Self::new(name, unit, 0.0, 0)
    }
}

/// Validates every answer a workload receives.
#[derive(Debug, Default)]
pub struct Checker {
    pub checked: u64,
    pub violations: Vec<String>,
}

impl Checker {
    /// The three answer invariants: `included <= total` (and `total` is
    /// the tree's process count), `quality == included / total`, and,
    /// with unit partial values, `value_sum == included`.
    pub fn answer(
        &mut self,
        what: &str,
        expected_total: usize,
        quality: f64,
        included: usize,
        total: usize,
        value_sum: f64,
    ) {
        self.checked += 1;
        let mut bad = |msg: String| {
            if self.violations.len() < 8 {
                self.violations.push(format!("{what}: {msg}"));
            }
        };
        if total != expected_total {
            bad(format!(
                "total_processes {total} != tree size {expected_total}"
            ));
        }
        if included > total {
            bad(format!(
                "included_outputs {included} > total_processes {total}"
            ));
        }
        let expect_q = included as f64 / total.max(1) as f64;
        if (quality - expect_q).abs() > 1e-12 {
            bad(format!("quality {quality} != {included}/{total}"));
        }
        if value_sum != included as f64 {
            bad(format!(
                "value_sum {value_sum} != included_outputs {included}"
            ));
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.violations.push(msg);
    }

    pub fn merge(&mut self, other: Checker) {
        self.checked += other.checked;
        self.violations.extend(other.violations);
    }

    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sorts a client's response into its answer or the class of failure.
pub fn answer_of(resp: io::Result<Response>) -> Result<QueryResult, FailClass> {
    let resp = resp.map_err(|_| FailClass::Transport)?;
    if resp.is_shed() {
        return Err(FailClass::Shed);
    }
    match (resp.ok, resp.result, resp.code) {
        (true, Some(q), _) => Ok(q),
        (_, _, Some(code)) if code == proto::ERR_TIMEOUT => Err(FailClass::Timeout),
        (_, _, code) => Err(FailClass::Error(
            code.unwrap_or_else(|| "unknown".to_owned()),
        )),
    }
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub checks: Checker,
}

/// The end-to-end metrics of a measured phase.
pub fn end_to_end(
    tally: &Tally,
    phase_s: f64,
    cpu_s: f64,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let attempted = tally.attempted() as usize;
    let answered = tally.answered_count() as usize;
    vec![
        Metric::new("quality_mean", "ratio", tally.quality_mean(), attempted),
        Metric::pct("latency_p50_ms", "ms", tally.latency(50.0)),
        Metric::pct("latency_p99_ms", "ms", tally.latency(99.0)),
        Metric::new("queries_per_s", "1/s", answered as f64 / phase_s, answered),
        Metric::new(
            "cpu_ms_per_query",
            "ms",
            cpu_s * 1e3 / attempted.max(1) as f64,
            attempted,
        ),
        Metric::new(
            "answered_ratio",
            "ratio",
            answered as f64 / attempted.max(1) as f64,
            attempted,
        ),
        Metric::new("setup_s", "s", crate::stats::median(setup_s), setup_s.len()),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1),
    ]
}

/// Sets up `n` times, each instance torn down once the next is up;
/// returns every set-up's seconds (for `setup_s`) and the last instance.
pub fn set_up<T>(
    n: u64,
    mut setup: impl FnMut(u64) -> (f64, T),
    mut teardown: impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut seconds = Vec::new();
    let mut live = None;
    for i in 0..n {
        let (s, instance) = setup(i);
        seconds.push(s);
        if let Some(old) = live.replace(instance) {
            teardown(old);
        }
    }
    (seconds, live.expect("at least one setup"))
}

/// `trace.overhead_ms`: traced minus untraced p50 latency, the two
/// halves of a run sending the same query stream.
pub fn trace_overhead(plain: &Tally, traced: &Tally) -> Metric {
    Metric::new(
        "trace.overhead_ms",
        "ms",
        traced.latency(50.0).value - plain.latency(50.0).value,
        traced.attempted() as usize,
    )
}

/// `trace.residual_ms`: the median per-query latency left after the
/// parts a workload attributes.
pub fn trace_residual(residual_ms: &[f64]) -> Metric {
    Metric::new(
        "trace.residual_ms",
        "ms",
        crate::stats::median(residual_ms),
        residual_ms.len(),
    )
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.checks.ok(),
        r.tally.attempted(),
        r.tally.failed_count()
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Human-readable table with sample counts beside every figure.
pub fn table(workload: &str, traced: bool, r: &RunResult) -> String {
    let mut out = format!(
        "workload {workload} ({}): attempted {} answered {} failed {} checked {}\n",
        if traced { "traced" } else { "untraced" },
        r.tally.attempted(),
        r.tally.answered_count(),
        r.tally.failed_count(),
        r.checks.checked,
    );
    for (class, n) in r.tally.failures() {
        let _ = writeln!(
            out,
            "  failed[{class}] {n} of {} attempted",
            r.tally.attempted()
        );
    }
    for m in &r.metrics {
        let counts = match m.beyond {
            Some(b) => format!("n={} beyond={b}", m.samples),
            None => format!("n={}", m.samples),
        };
        let _ = writeln!(
            out,
            "  {:<28} {:>14.4} {:<6} {counts}",
            m.name, m.value, m.unit
        );
    }
    for v in &r.checks.violations {
        let _ = writeln!(out, "  CHECK FAILED: {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(included: usize) -> Response {
        Response::with_result(QueryResult {
            quality: included as f64 / 4.0,
            included_outputs: included,
            total_processes: 4,
            root_arrivals: 2,
            value_sum: included as f64,
            latency_ms: 2.0,
            epoch: 0,
            failures: None,
            trace: None,
        })
    }

    #[test]
    fn responses_sort_into_answers_and_failure_classes() {
        let outcomes = [
            Ok(answer(3)),
            Ok(answer(1)),
            Ok(Response::err_code(proto::ERR_SHED, "queue full")),
            Ok(Response::err_code(proto::ERR_TIMEOUT, "over the cap")),
            Ok(Response::err_code(proto::ERR_INTERNAL, "panicked")),
            Ok(Response::err("legacy failure")),
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed")),
        ];
        let mut tally = Tally::default();
        let mut checks = Checker::default();
        for (i, resp) in outcomes.into_iter().enumerate() {
            match answer_of(resp) {
                Ok(q) => {
                    checks.answer(
                        "test",
                        4,
                        q.quality,
                        q.included_outputs,
                        q.total_processes,
                        q.value_sum,
                    );
                    tally.answered(10.0 * (i + 1) as f64, q.quality);
                }
                Err(class) => tally.failed(class),
            }
        }
        assert!(checks.ok());
        assert_eq!((tally.attempted(), tally.failed_count()), (7, 5));
        let classes: Vec<String> = tally.failures().keys().map(ToString::to_string).collect();
        assert_eq!(
            classes,
            [
                "shed",
                "error:internal",
                "error:unknown",
                "timeout",
                "transport"
            ]
        );
        assert!((tally.quality_mean() - 1.0 / 7.0).abs() < 1e-12);
        let p50 = tally.latency(50.0);
        assert_eq!((p50.value, p50.samples), (f64::INFINITY, 7));
        assert_eq!(tally.latency(20.0).value, 20.0);
    }

    #[test]
    fn the_checker_flags_each_broken_invariant() {
        let mut c = Checker::default();
        c.answer("ok", 4, 0.5, 2, 4, 2.0);
        assert!(c.ok());
        c.answer("size", 8, 0.5, 2, 4, 2.0);
        c.answer("over", 4, 1.25, 5, 4, 5.0);
        c.answer("ratio", 4, 0.75, 2, 4, 2.0);
        c.answer("sum", 4, 0.5, 2, 4, 3.0);
        assert_eq!(c.checked, 5);
        assert_eq!(c.violations.len(), 4);
    }
}
