//! Harness checks at tiny sizes: every workload emits every catalogue
//! metric with its unit, the metric catalogue matches `BENCHMARK.json`,
//! and a wrong reference is reported as a failed run.

use perfbench::report::{measure, Outcome, END_TO_END, PER_LAYER};
use perfbench::{run, search, Sizes, WORKLOADS};

fn tiny(workload: &str, trace: bool) -> Outcome {
    run(workload, &Sizes::TINY, 7, 0.0, trace).expect("known workload")
}

fn assert_catalogue(outcome: &Outcome, catalogue: &[(&str, &str)], what: &str) {
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = catalogue.iter().map(|c| c.0).collect();
    assert_eq!(names, expected, "{what}: metric names");
    for (m, &(_, unit)) in outcome.metrics.iter().zip(catalogue) {
        assert!(!m.unit.is_empty(), "{what}: {} has no unit", m.name);
        assert_eq!(m.unit, unit, "{what}: {} unit", m.name);
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    let line = outcome.result_line();
    for key in [
        "\"correct\": ",
        "\"attempted\": ",
        "\"failed\": ",
        "\"metrics\": {",
    ] {
        assert!(
            line.contains(key),
            "{what}: result line lacks {key}: {line}"
        );
    }
    for m in &outcome.metrics {
        let entry = format!("\"{}\": {{\"value\": ", m.name);
        assert!(
            line.contains(&entry),
            "{what}: result line lacks {}",
            m.name
        );
    }
}

/// Checks both catalogues on a tiny run; returns the traced outcome.
fn check_workload(workload: &str) -> Outcome {
    let plain = tiny(workload, false);
    assert!(
        plain.correct && plain.failed == 0,
        "{workload}: {}",
        plain.detail
    );
    assert_catalogue(&plain, END_TO_END, workload);
    for name in ["setup_s", "solve_s", "cpu_s", "peak_rss_mb", "units_per_s"] {
        assert!(
            plain.value(name).is_some_and(|v| v > 0.0),
            "{workload}: {name} must be positive"
        );
    }
    let traced = tiny(workload, true);
    assert!(traced.correct, "{workload} traced: {}", traced.detail);
    assert_catalogue(&traced, PER_LAYER, workload);
    traced
}

#[test]
fn search_tiny_run_emits_every_metric() {
    let traced = check_workload("search");
    for name in [
        "align.compute_s",
        "align.cells_per_s",
        "dsearch.dm_s",
        "codec.bytes",
    ] {
        assert!(
            traced.value(name).is_some_and(|v| v > 0.0),
            "search: {name}"
        );
    }
    assert_eq!(traced.value("phase.incomplete_units"), Some(0.0));
}

#[test]
fn phylo_tiny_run_emits_every_metric() {
    let traced = check_workload("phylo");
    for name in [
        "phylo.compute_s",
        "dprml.dm_s",
        "lik.pmat_hit_ratio",
        "donor.busy_frac",
    ] {
        assert!(traced.value(name).is_some_and(|v| v > 0.0), "phylo: {name}");
    }
    assert_eq!(traced.value("phase.incomplete_units"), Some(0.0));
}

#[test]
fn control_tiny_run_emits_every_metric() {
    let traced = check_workload("control");
    for name in [
        "net.frames_per_s",
        "net.server_cpu_us_per_frame",
        "sched.request_work_us_p50",
        "sched.submit_result_us_p50",
    ] {
        assert!(
            traced.value(name).is_some_and(|v| v > 0.0),
            "control: {name}"
        );
    }
}

#[test]
fn fleet_tiny_run_emits_every_metric() {
    let traced = check_workload("fleet");
    for name in ["fleet.engine_s", "sim.events", "sim.utilization"] {
        assert!(traced.value(name).is_some_and(|v| v > 0.0), "fleet: {name}");
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("nope", &Sizes::TINY, 1, 0.0, false).is_none());
}

#[test]
fn wrong_reference_digest_is_a_failed_run() {
    let mut prepared = search::prepare(search::Spec::TINY, 11);
    prepared.expected_digest ^= 1;
    let outcome = measure("search", 0.0, 0.0, false, 1, &mut |t| {
        search::solve(&prepared, t)
    });
    assert!(!outcome.correct, "a wrong digest must not pass");
    assert_eq!(outcome.failed, outcome.attempted);
    assert!(outcome.result_line().contains("\"correct\": false"));
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = |key: &str| -> Vec<String> {
        let section = json
            .split(&format!("\"{key}\""))
            .nth(1)
            .and_then(|s| s.split(']').next())
            .unwrap_or_default();
        section
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    };
    let listed = |c: &[(&str, &str)]| c.iter().map(|c| c.0.to_string()).collect::<Vec<_>>();
    assert_eq!(names("workloads"), WORKLOADS.to_vec());
    assert_eq!(names("end_to_end"), listed(END_TO_END));
    assert_eq!(names("per_layer"), listed(PER_LAYER));
}
