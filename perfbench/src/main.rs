//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a detail line (environment,
//! medians, quartiles and sample counts) and then, as the last line of
//! standard output, the result object.

use perfbench::{env, run, Sizes, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// A run still going after this long is hung; it exits with an error
/// rather than outlive its caller's limit.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; a solve is hung");
        std::process::exit(3);
    });
    let environment = env::describe(Path::new("."));
    let outcome = run(
        &args.workload,
        &Sizes::FULL,
        args.seed,
        args.seconds,
        args.trace,
    )
    .expect("workload name checked above");
    println!(
        "{{\"detail\": {}, \"env\": {environment}, \"seed\": {}, \"trace\": {}}}",
        outcome.detail, args.seed, args.trace
    );
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
