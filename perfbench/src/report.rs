//! The measurement loop, the metric catalogue, and the result lines.

use crate::probe::{peak_rss_mb, steal_ticks};
use crate::stats::{deepest_tail, median, quantile, summary_json};
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), name and unit, in output order.
/// Every workload reports every one of them; see README.md for what
/// each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("units_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("events_per_s", "1/s"),
    ("virtual_makespan_s", "s"),
];

/// Per-layer metrics (`--trace 1`), name and unit. Every workload
/// reports every one; a layer the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("align.compute_s", "s"),
    ("align.cells_per_s", "cells/s"),
    ("phylo.compute_s", "s"),
    ("lik.pmat_hit_ratio", "ratio"),
    ("dsearch.dm_s", "s"),
    ("dprml.dm_s", "s"),
    ("codec.s", "s"),
    ("codec.bytes", "B"),
    ("donor.busy_frac", "ratio"),
    ("phase.transfer_s", "s"),
    ("phase.queue_s", "s"),
    ("phase.compute_s", "s"),
    ("phase.combine_s", "s"),
    ("phase.transfer_p50_ms", "ms"),
    ("phase.queue_p50_ms", "ms"),
    ("phase.compute_p50_ms", "ms"),
    ("phase.combine_p50_ms", "ms"),
    ("phase.incomplete_units", "count"),
    ("cache.hit_ratio", "ratio"),
    ("net.chunk_bytes_out", "B"),
    ("sched.waste_frac", "ratio"),
    ("sched.request_work_us_p50", "us"),
    ("sched.submit_result_us_p50", "us"),
    ("net.frames_per_s", "1/s"),
    ("net.server_cpu_us_per_frame", "us"),
    ("net.client_wire_us", "us"),
    ("fleet.dm_s", "s"),
    ("fleet.compute_s", "s"),
    ("fleet.engine_s", "s"),
    ("fleet.engine_ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.redundant_dispatches", "count"),
    ("sim.reissued_units", "count"),
    ("sim.link_queue_wait_s", "s"),
    ("sim.utilization", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one solve of a workload measured.
#[derive(Debug)]
pub struct Solve {
    /// Problem build, `Server` construction and submit (plus the
    /// workload's own transport or simulator construction).
    pub setup_s: f64,
    /// Run start to the final output being taken.
    pub solve_s: f64,
    /// Process CPU seconds (user + system) over the solve.
    pub cpu_s: f64,
    /// Units combined.
    pub units: u64,
    /// Scheduler events handled (simulator events on `fleet`).
    pub events: u64,
    /// Makespan on the backend's own clock.
    pub makespan_s: f64,
    /// Which of the workload's input variants the solve ran (`fleet`:
    /// the fleet; 0 elsewhere).
    pub input: u64,
    /// Round-trip latency samples, microseconds. `measure` reduces them
    /// to [`Rtt`] as soon as the solve returns, so a run's memory does
    /// not grow with its solve count.
    pub rtt_us: Vec<f64>,
    /// Per-layer values (traced solves only), names from [`PER_LAYER`].
    pub layers: Vec<(&'static str, f64)>,
    /// The output check against the reference.
    pub check: Result<(), String>,
}

/// `sched.waste_frac`: the share of assignments that produced no
/// combined unit (redundant end-game copies, reissues).
pub fn waste_frac(assignments: u64, combined: u64) -> f64 {
    assignments.saturating_sub(combined) as f64 / assignments.max(1) as f64
}

/// One solve's round-trip samples, reduced.
#[derive(Debug, Clone, Copy)]
pub struct Rtt {
    /// Sample count.
    pub n: usize,
    /// Median, microseconds.
    pub p50: f64,
    /// 99th percentile, microseconds.
    pub p99: f64,
    /// The deepest standard percentile with ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Rtt {
    fn of(samples: &[f64]) -> Self {
        Self {
            n: samples.len(),
            p50: quantile(samples, 0.50),
            p99: quantile(samples, 0.99),
            tail: deepest_tail(samples),
        }
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// No solve failed and every metric is finite.
    pub correct: bool,
    /// Solves attempted (warm-up included).
    pub attempted: u64,
    /// Solves that errored or failed their output check.
    pub failed: u64,
    /// The catalogue's metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Medians, spreads and sample counts, as a JSON object.
    pub detail: String,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Smallest number of measured solves per kind (untraced, traced),
/// however short `--seconds` is.
pub const MIN_SOLVES: usize = 3;

/// Runs one warm-up solve, then solves until `seconds` have passed and
/// at least [`MIN_SOLVES`] of each needed kind are in. Untraced runs
/// give the end-to-end metrics; with `trace`, untraced and traced
/// solves alternate and the traced ones give the per-layer metrics.
/// A workload that cycles through `inputs` input variants gets at least
/// one untraced solve of each before an end-to-end run ends.
/// `prepare_s`, the time input generation and the reference took, goes
/// into the detail line.
pub fn measure(
    workload: &str,
    prepare_s: f64,
    seconds: f64,
    trace: bool,
    inputs: u64,
    solve: &mut dyn FnMut(bool) -> Solve,
) -> Outcome {
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut run = |traced: bool, failures: &mut Vec<String>| {
        let mut s = solve(traced);
        attempted += 1;
        if let Err(e) = &s.check {
            eprintln!("perfbench: {workload}: solve {attempted} failed: {e}");
            failures.push(e.clone());
        }
        let rtt = Rtt::of(&std::mem::take(&mut s.rtt_us));
        (s, rtt)
    };
    run(false, &mut failures);
    let start = Instant::now();
    let steal0 = steal_ticks();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        if trace && plain.len() > traced.len() {
            traced.push(run(true, &mut failures));
        } else {
            plain.push(run(false, &mut failures));
        }
        let untraced_needed = if trace {
            MIN_SOLVES
        } else {
            MIN_SOLVES.max(inputs as usize)
        };
        let enough = plain.len() >= untraced_needed && (!trace || traced.len() >= MIN_SOLVES);
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let col = |v: &[(Solve, Rtt)], f: &dyn Fn(&Solve) -> f64| {
        v.iter().map(|(s, _)| f(s)).collect::<Vec<f64>>()
    };
    let rtt = |f: &dyn Fn(&Rtt) -> f64| plain.iter().map(|(_, r)| f(r)).collect::<Vec<f64>>();
    // Each end-to-end value is the median over a workload input's solves,
    // averaged over the inputs with each counted once: a run that got
    // through more solves repeats some of `fleet`'s fleets, and must not
    // weight those twice. With one input this is the plain median.
    let per_input = |v: &[(Solve, Rtt)], values: &[f64]| {
        let mut by_input = std::collections::BTreeMap::<u64, Vec<f64>>::new();
        for ((s, _), &x) in v.iter().zip(values) {
            by_input.entry(s.input).or_default().push(x);
        }
        by_input.values().map(|v| median(v)).sum::<f64>() / by_input.len().max(1) as f64
    };
    let setup = col(&plain, &|s| s.setup_s);
    let solve_s = col(&plain, &|s| s.solve_s);
    let cpu = col(&plain, &|s| s.cpu_s);
    let units = col(&plain, &|s| s.units as f64 / s.solve_s);
    let events = col(&plain, &|s| s.events as f64 / s.solve_s);
    let makespan = col(&plain, &|s| s.makespan_s);
    let rtt_p50 = rtt(&|r| r.p50);
    let rss = peak_rss_mb();
    let steal1 = steal_ticks();
    let steal_frac =
        steal1.0.saturating_sub(steal0.0) as f64 / steal1.1.saturating_sub(steal0.1).max(1) as f64;

    let metrics = if trace {
        let traced_solve_s = col(&traced, &|s| s.solve_s);
        let overhead = per_input(&traced, &traced_solve_s) / per_input(&plain, &solve_s) - 1.0;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_frac" {
                    overhead
                } else {
                    median(&col(&traced, &|s| {
                        s.layers
                            .iter()
                            .find(|(n, _)| *n == name)
                            .map_or(0.0, |l| l.1)
                    }))
                };
                Metric { name, value, unit }
            })
            .collect()
    } else {
        let values = [
            per_input(&plain, &setup),
            per_input(&plain, &solve_s),
            per_input(&plain, &cpu),
            rss,
            per_input(&plain, &units),
            per_input(&plain, &rtt_p50),
            per_input(&plain, &events),
            per_input(&plain, &makespan),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect::<Vec<Metric>>()
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        failures.push("a metric is not finite".into());
    }

    // The p99 round trip moved by 28-46% from run to run on a shared
    // two-core host, beyond the largest bound a gated metric may have,
    // so it and the deepest tail are reported here only.
    let tails: Vec<String> = plain
        .iter()
        .filter_map(|(_, r)| r.tail.map(|(p, v)| format!("[{p}, {v}]")))
        .collect();
    let detail = format!(
        "{{\"workload\": \"{workload}\", \"prepare_s\": {prepare_s}, \"untraced_solves\": {}, \"traced_solves\": {}, \
         \"host_steal_frac\": {steal_frac}, \"setup_s\": {}, \"solve_s\": {}, \"cpu_s\": {}, \"units_per_s\": {}, \
         \"events_per_s\": {}, \"virtual_makespan_s\": {}, \"rtt_samples\": {}, \
         \"rtt_p50_us\": {}, \"rtt_p99_us\": {}, \"rtt_tail\": [{}], \"traced_solve_s\": {}, \"failures\": [{}]}}",
        plain.len(),
        traced.len(),
        summary_json(&setup),
        summary_json(&solve_s),
        summary_json(&cpu),
        summary_json(&units),
        summary_json(&events),
        summary_json(&makespan),
        summary_json(&rtt(&|r| r.n as f64)),
        summary_json(&rtt_p50),
        summary_json(&rtt(&|r| r.p99)),
        tails.join(", "),
        summary_json(&col(&traced, &|s| s.solve_s)),
        failures
            .iter()
            .map(|f| json_string(f))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let failed = failures.len() as u64;
    Outcome {
        correct: failed == 0,
        attempted,
        failed: failed.min(attempted),
        metrics,
        detail,
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
