//! The biodist benchmark: four seeded workloads run against the
//! program's public entry points, every output checked against a
//! sequential or analytic reference.
//!
//! * `search` — DSEARCH over loopback TCP (`run_tcp_with`);
//! * `phylo` — six simultaneous DPRml instances over loopback TCP;
//! * `control` — raw-frame donors against `NetServer` (`net::wire`);
//! * `fleet` — the discrete-event simulator (`SimRunner`).
//!
//! See README.md for the metrics and what each should move.

pub mod control;
pub mod env;
pub mod fleet;
pub mod phylo;
pub mod probe;
pub mod report;
pub mod search;
pub mod stats;
pub mod tcp;

use biodist_core::builtin::{integration_problem, OPS_PER_POINT};
use biodist_core::{Problem, SchedulerConfig};
use report::{measure, Outcome};
use std::time::Instant;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["search", "phylo", "control", "fleet"];

/// Input sizes for one run of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `search` sizes.
    pub search: search::Spec,
    /// `phylo` sizes.
    pub phylo: phylo::Spec,
    /// `control` sizes.
    pub control: control::Spec,
    /// `fleet` sizes.
    pub fleet: fleet::Spec,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        search: search::Spec::FULL,
        phylo: phylo::Spec::FULL,
        control: control::Spec::FULL,
        fleet: fleet::Spec::FULL,
    };
    /// Sizes small enough for harness tests.
    pub const TINY: Sizes = Sizes {
        search: search::Spec::TINY,
        phylo: phylo::Spec::TINY,
        control: control::Spec::TINY,
        fleet: fleet::Spec::TINY,
    };
}

/// A seed for one input stream of a workload, mixed from the run seed
/// and a stream tag (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Ops per π-integration unit in `control` and `fleet`: 50 grid points
/// at 200 ops each, a few microseconds of compute.
const UNIT_OPS: f64 = 10_000.0;

/// The π-integration problem split into `units` fixed-size units, with
/// the scheduler config that keeps every unit at [`UNIT_OPS`] and the
/// given lease-jitter seed.
pub fn pi_problem(units: u64, jitter_seed: u64) -> (Problem, SchedulerConfig) {
    let points = units * (UNIT_OPS / OPS_PER_POINT) as u64;
    let sched = SchedulerConfig {
        min_unit_ops: UNIT_OPS,
        max_unit_ops: UNIT_OPS,
        lease_min_secs: 30.0,
        lease_jitter_seed: jitter_seed,
        ..Default::default()
    };
    (integration_problem(points), sched)
}

/// Checks an integration result against π.
pub fn check_pi(pi: Option<f64>) -> Result<(), String> {
    match pi {
        None => Err("no output".into()),
        Some(pi) if (pi - std::f64::consts::PI).abs() < 1e-8 => Ok(()),
        Some(pi) => Err(format!("π = {pi} is off by more than 1e-8")),
    }
}

/// Generates `workload`'s inputs from `seed`, computes its reference,
/// and measures it for `seconds`; `None` for an unknown workload.
pub fn run(workload: &str, sizes: &Sizes, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let start = Instant::now();
    let go = |inputs: u64, solve: &mut dyn FnMut(bool) -> report::Solve| {
        let prepare_s = start.elapsed().as_secs_f64();
        measure(workload, prepare_s, seconds, trace, inputs, solve)
    };
    Some(match workload {
        "search" => {
            let p = search::prepare(sizes.search, seed);
            go(1, &mut |t| search::solve(&p, t))
        }
        "phylo" => {
            let p = phylo::prepare(sizes.phylo, seed);
            go(1, &mut |t| phylo::solve(&p, t))
        }
        "control" => {
            let p = control::prepare(sizes.control, seed);
            go(1, &mut |t| control::solve(&p, t))
        }
        "fleet" => {
            let p = fleet::prepare(sizes.fleet, seed);
            let mut index = 0;
            go(fleet::FLEETS, &mut |t| {
                // A traced solve reruns the fleet of the untraced solve
                // before it, so `trace.overhead_frac` compares like with like.
                if !t {
                    index += 1;
                }
                fleet::solve(&p, index, t)
            })
        }
        _ => return None,
    })
}
