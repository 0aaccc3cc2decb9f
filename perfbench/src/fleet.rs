//! `fleet`: the discrete-event simulator with a large PIII-1000 fleet
//! running fixed 10k-op π-integration units, single-threaded. Kernels
//! do almost nothing, so `Server::request_work` (its end-game scans
//! over in-flight units) and the `gridsim` event queue dominate.
//!
//! The fleets are semi-idle PIII-1000 laboratories (`homogeneous_lab`):
//! owner activity stalls units mid-compute, which is what drives the
//! end-game `request_work` scans. One fleet's makespan is set by the
//! longest owner-busy stretch any of its machines draws, so it ranged
//! from 10 to 60 virtual seconds between fleets, and the median over 16
//! fleets drawn from the run seed still moved by 19% between seeds. The
//! workload therefore fixes a pool of [`FLEETS`] fleets, cycled through
//! in every run, and the run seed drives the scheduler's lease jitter,
//! which decides when stalled units are reissued.

use crate::probe::{process_cpu_s, Probes};
use crate::report::{waste_frac, Solve};
use crate::{check_pi, pi_problem};
use biodist_core::{audited, Server, SimRunner};
use biodist_gridsim::deployments::homogeneous_lab;
use std::time::Instant;

/// Fleets (availability-trace seeds `0..FLEETS`) a run cycles through.
pub const FLEETS: u64 = 16;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Simulated machines.
    pub machines: usize,
    /// Fixed-size units in the problem.
    pub units: u64,
}

impl Spec {
    /// The benchmark size: three units per machine and a 500-byte
    /// setup, the shape of the `BENCH_scale.json` simulator points.
    pub const FULL: Spec = Spec {
        machines: 20_000,
        units: 60_000,
    };
    /// A size for harness tests.
    pub const TINY: Spec = Spec {
        machines: 40,
        units: 120,
    };
}

/// The inputs: sizes and the lease-jitter seed.
pub struct Prepared {
    spec: Spec,
    seed: u64,
}

/// π integration needs no generated data; the seed drives the
/// scheduler's lease jitter.
pub fn prepare(spec: Spec, seed: u64) -> Prepared {
    Prepared { spec, seed }
}

/// Solve number `index`: build fleet `index % FLEETS` and the runner,
/// simulate to completion, check π and that every unit was combined
/// exactly once.
pub fn solve(p: &Prepared, index: u64, traced: bool) -> Solve {
    let fleet = index % FLEETS;
    let probes = Probes::new(traced, None);
    let t0 = Instant::now();
    let (problem, sched) = pi_problem(p.spec.units, p.seed);
    let mut server = Server::new(sched);
    let (problem, audit) = audited(problem.with_setup_bytes(500));
    let pid = server.submit(probes.install(problem));
    let runner = SimRunner::with_defaults(server, homogeneous_lab(p.spec.machines, fleet));
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    let (report, mut server) = runner.run();
    let pi = server.take_output(pid).map(|out| out.into_inner::<f64>());
    let solve_s = t1.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    let mut check = check_pi(pi);
    if let Err(violations) = audit.verify_run(&server) {
        check = check.and(Err(violations.join("; ")));
    }
    let combined = audit.units_accepted();
    if combined != p.spec.units {
        check = check.and(Err(format!(
            "{combined} of {} units combined",
            p.spec.units
        )));
    }

    let mut layers = Vec::new();
    if traced {
        let stats = server.stats(pid);
        let (compute_s, dm_s, _) = probes.secs();
        let engine_s = solve_s - dm_s - compute_s;
        layers = vec![
            ("fleet.dm_s", dm_s),
            ("fleet.compute_s", compute_s),
            ("fleet.engine_s", engine_s),
            (
                "fleet.engine_ns_per_event",
                engine_s / report.events_processed.max(1) as f64 * 1e9,
            ),
            ("sim.events", report.events_processed as f64),
            (
                "sim.redundant_dispatches",
                report.redundant_dispatches as f64,
            ),
            ("sim.reissued_units", report.reissued_units as f64),
            ("sim.link_queue_wait_s", report.mean_link_queue_wait),
            ("sim.utilization", report.mean_utilization),
            (
                "sched.waste_frac",
                waste_frac(stats.assignments, stats.completed_units),
            ),
        ];
    }
    Solve {
        setup_s,
        solve_s,
        cpu_s,
        units: combined,
        events: report.events_processed,
        makespan_s: report.makespan,
        input: fleet,
        rtt_us: probes.gaps.take(),
        layers,
        check,
    }
}
