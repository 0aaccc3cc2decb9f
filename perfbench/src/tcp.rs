//! One solve over real loopback TCP through `run_tcp_with`, shared by
//! the `search` and `phylo` workloads.

use crate::probe::{process_cpu_s, Probes, WorkOf, TRACE_RING};
use crate::report::{waste_frac, Solve};
use crate::stats::median;
use biodist_core::{
    phase_breakdowns, run_tcp_with, FaultPlan, NetServerOptions, Problem, ProblemId,
    SchedulerConfig, Server, Telemetry,
};
use std::time::Instant;

/// Donor clients: one per core of the two-core reference box, so the
/// load generator never oversubscribes it.
pub const DONORS: usize = 2;

/// Scheduler settings for loopback donors: 50 ms target units, a
/// 2·10⁹ ops/s prior, and leases long enough that a busy two-core box
/// never expires one spuriously.
pub fn sched() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.05,
        prior_ops_per_sec: 2e9,
        min_unit_ops: 1e4,
        max_unit_ops: 1e10,
        lease_min_secs: 10.0,
        ..Default::default()
    }
}

/// Metric names for the workload's compute and data-manager layers.
pub struct LayerNames {
    /// Σ `Algorithm::compute` seconds.
    pub compute: &'static str,
    /// Σ `next_unit` + `accept_result` seconds.
    pub dm: &'static str,
}

/// Builds the problems (timed as set-up), runs them to completion over
/// TCP with [`DONORS`] donors, and hands the finished server to
/// `check`, which takes and verifies the outputs (timed as solve).
pub fn solve(
    build: impl FnOnce() -> Vec<Problem>,
    traced: bool,
    names: &LayerNames,
    work_of: Option<WorkOf>,
    check: impl FnOnce(&mut Server, &[ProblemId]) -> Result<(), String>,
) -> Solve {
    let probes = Probes::new(traced, work_of);
    let t0 = Instant::now();
    let mut server = Server::new(sched());
    let telemetry = traced.then(Telemetry::enabled);
    let ring = telemetry.as_ref().map(|t| t.attach_ring(TRACE_RING));
    if let Some(t) = &telemetry {
        server.set_telemetry(t.clone());
    }
    let pids: Vec<ProblemId> = build()
        .into_iter()
        .map(|p| server.submit(probes.install(p)))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    let (mut server, backend_s) = run_tcp_with(
        server,
        DONORS,
        0,
        &FaultPlan::none(),
        1.0,
        NetServerOptions::default(),
    );
    let mut check = check(&mut server, &pids);
    let solve_s = t1.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    let stats: Vec<_> = pids.iter().map(|&p| server.stats(p)).collect();
    let units: u64 = stats.iter().map(|s| s.completed_units).sum();
    let assignments: u64 = stats.iter().map(|s| s.assignments).sum();

    let mut layers = Vec::new();
    if let (Some(telemetry), Some(ring)) = (telemetry, ring) {
        let (compute_s, dm_s, codec_s) = probes.secs();
        let compute = probes.compute.as_ref().expect("traced solve has tallies");
        let codec = probes.codec.as_ref().expect("traced solve has tallies");
        let events = ring.events();
        if events.len() >= TRACE_RING {
            check = check.and(Err(format!("trace ring filled ({} events)", events.len())));
        }
        let (phases, incomplete) = phase_breakdowns(&events);
        let phase = |f: &dyn Fn(&biodist_core::UnitPhases) -> f64| -> (f64, f64) {
            let v: Vec<f64> = phases.iter().map(f).collect();
            (v.iter().sum(), median(&v) * 1e3)
        };
        let (transfer, transfer_p50) = phase(&|p| p.transfer);
        let (queue, queue_p50) = phase(&|p| p.queue_wait);
        let (comp, comp_p50) = phase(&|p| p.compute);
        let (combine, combine_p50) = phase(&|p| p.combine);
        let snap = telemetry.metrics_snapshot();
        let ratio = |hit: &str, miss: &str| {
            let (h, m) = (snap.counter(hit) as f64, snap.counter(miss) as f64);
            if h + m > 0.0 {
                h / (h + m)
            } else {
                0.0
            }
        };
        layers = vec![
            (names.compute, compute_s),
            (names.dm, dm_s),
            ("codec.s", codec_s),
            ("codec.bytes", codec.work() as f64),
            ("donor.busy_frac", compute_s / (DONORS as f64 * solve_s)),
            ("phase.transfer_s", transfer),
            ("phase.queue_s", queue),
            ("phase.compute_s", comp),
            ("phase.combine_s", combine),
            ("phase.transfer_p50_ms", transfer_p50),
            ("phase.queue_p50_ms", queue_p50),
            ("phase.compute_p50_ms", comp_p50),
            ("phase.combine_p50_ms", combine_p50),
            ("phase.incomplete_units", incomplete as f64),
            ("cache.hit_ratio", ratio("cache.hits", "cache.misses")),
            (
                "net.chunk_bytes_out",
                snap.counter("net.chunk_bytes_out") as f64,
            ),
            (
                "lik.pmat_hit_ratio",
                ratio("lik.pmat_cache_hits", "lik.pmat_cache_misses"),
            ),
            ("sched.waste_frac", waste_frac(assignments, units)),
        ];
        if compute.work() > 0 {
            layers.push(("align.cells_per_s", compute.work() as f64 / compute_s));
        }
    }
    Solve {
        setup_s,
        solve_s,
        cpu_s,
        units,
        events: assignments + units,
        makespan_s: backend_s,
        input: 0,
        rtt_us: probes.gaps.take(),
        layers,
        check,
    }
}
