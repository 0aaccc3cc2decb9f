//! `control`: π integration driven by benchmark-owned raw-frame donors
//! straight against `NetServer` with default options. Units are fixed
//! at 10k ops (a few microseconds of compute), so the per-frame path —
//! read, reassembly and CRC, decode, the server lock, `request_work` /
//! `submit_result`, encode, write — is what gets measured.

use crate::probe::{process_cpu_s, thread_cpu_s, TRACE_RING};
use crate::report::{waste_frac, Solve};
use crate::stats::median;
use crate::tcp::DONORS;
use crate::{check_pi, pi_problem};
use biodist_core::net::wire::{encode_frame, Frame, FrameReader, ReadError};
use biodist_core::net::{Clock, NetServer, NetServerOptions};
use biodist_core::{Algorithm, Assignment, Server, Telemetry, WireCodec, WorkUnit};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply slower than this is a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Fixed-size units in the problem.
    pub units: u64,
}

impl Spec {
    /// The benchmark size.
    pub const FULL: Spec = Spec { units: 40_000 };
    /// A size for harness tests.
    pub const TINY: Spec = Spec { units: 300 };
}

/// The inputs: unit count and the scheduler's lease-jitter seed.
pub struct Prepared {
    spec: Spec,
    seed: u64,
}

/// π integration needs no generated data; the seed drives the
/// scheduler's lease jitter.
pub fn prepare(spec: Spec, seed: u64) -> Prepared {
    Prepared { spec, seed }
}

/// What one donor connection saw.
#[derive(Default)]
struct DonorLog {
    rtt_us: Vec<f64>,
    frames_sent: u64,
    cpu_s: f64,
    compute_s: f64,
    error: Option<String>,
}

/// One closed-loop donor: request, compute, submit, await the ack —
/// until the server says `Finished` or closes the connection.
fn donor(
    addr: SocketAddr,
    client: u64,
    algorithm: &dyn Algorithm,
    codec: &dyn WireCodec,
) -> DonorLog {
    let cpu0 = thread_cpu_s();
    let mut log = DonorLog::default();
    if let Err(e) = donor_loop(addr, client, algorithm, codec, &mut log) {
        log.error = Some(format!("donor {client}: {e}"));
    }
    log.cpu_s = thread_cpu_s() - cpu0;
    log
}

/// Writes one frame; `false` once the server has closed the connection.
fn send(stream: &mut TcpStream, frame: &Frame, log: &mut DonorLog) -> bool {
    log.frames_sent += 1;
    stream.write_all(&encode_frame(frame)).is_ok()
}

/// Awaits a reply frame; `None` means the connection closed, which
/// happens once the server has taken its finished output.
fn reply(stream: &mut TcpStream, reader: &mut FrameReader) -> Result<Option<Frame>, String> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        match reader.poll(stream) {
            Ok(Some(Frame::ReplicaAnnounce { .. } | Frame::HeartbeatAck)) => {}
            Ok(Some(frame)) => return Ok(Some(frame)),
            Ok(None) if Instant::now() < deadline => {}
            Ok(None) => return Err("reply timed out".into()),
            Err(ReadError::Io(_)) => return Ok(None),
            Err(e) => return Err(format!("bad reply frame: {e:?}")),
        }
    }
}

fn donor_loop(
    addr: SocketAddr,
    client: u64,
    algorithm: &dyn Algorithm,
    codec: &dyn WireCodec,
    log: &mut DonorLog,
) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(Duration::from_millis(20))))
        .map_err(|e| format!("socket options: {e}"))?;
    let mut reader = FrameReader::new();
    if !send(&mut stream, &Frame::Hello { client }, log) {
        return Ok(()); // the server already finished and shut down
    }
    loop {
        let t = Instant::now();
        if !send(&mut stream, &Frame::RequestWork { client }, log) {
            return Ok(());
        }
        let (problem, unit, cost_ops, payload) = match reply(&mut stream, &mut reader)? {
            Some(Frame::AssignUnit {
                problem,
                unit,
                cost_ops,
                payload,
            }) => (problem, unit, cost_ops, payload),
            Some(Frame::Wait) => {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            Some(Frame::Finished) | None => return Ok(()),
            Some(other) => return Err(format!("unexpected reply to RequestWork: {other:?}")),
        };
        log.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        let c = Instant::now();
        let decoded = codec
            .decode_unit(&payload)
            .map_err(|e| format!("decode unit {unit}: {e}"))?;
        let result = algorithm.compute(&WorkUnit {
            id: unit,
            payload: decoded,
            cost_ops,
        });
        let encoded = codec
            .encode_result(&result.payload)
            .map_err(|e| format!("encode result {unit}: {e}"))?;
        log.compute_s += c.elapsed().as_secs_f64();
        let t = Instant::now();
        let submit = Frame::SubmitResult {
            client,
            problem,
            unit,
            payload: encoded,
        };
        if !send(&mut stream, &submit, log) {
            return Ok(());
        }
        match reply(&mut stream, &mut reader)? {
            Some(Frame::ResultAck { .. }) => log.rtt_us.push(t.elapsed().as_secs_f64() * 1e6),
            None => return Ok(()),
            Some(other) => return Err(format!("unexpected reply to SubmitResult: {other:?}")),
        }
    }
}

/// Per-call latency of `Server::request_work` and `submit_result` on
/// `units` of the same unit stream, driven directly from one thread, as
/// (request p50, submit p50) in microseconds.
fn direct_drive(units: u64, seed: u64) -> Result<(f64, f64), String> {
    let (problem, sched) = pi_problem(units, seed);
    let mut server = Server::new(sched);
    let pid = server.submit(problem);
    let clock = Instant::now();
    let (mut req, mut sub) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let assignment = server.request_work(0, clock.elapsed().as_secs_f64());
        req.push(t.elapsed().as_secs_f64() * 1e6);
        match assignment {
            Assignment::Unit {
                problem,
                unit,
                algorithm,
            } => {
                let result = algorithm.compute(&unit);
                let t = Instant::now();
                server.submit_result(0, problem, result, clock.elapsed().as_secs_f64());
                sub.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Assignment::Finished => break,
            Assignment::Wait => return Err("direct drive got Wait with one client".into()),
        }
    }
    let done = server.stats(pid).completed_units;
    if done != units {
        return Err(format!("direct drive combined {done} of {units} units"));
    }
    Ok((median(&req), median(&sub)))
}

/// One solve: start the server, run the donors to completion, check π
/// and the unit count.
pub fn solve(p: &Prepared, traced: bool) -> Solve {
    let t0 = Instant::now();
    let (problem, sched) = pi_problem(p.spec.units, p.seed);
    let mut server = Server::new(sched);
    let telemetry = traced.then(Telemetry::enabled);
    let ring = telemetry.as_ref().map(|t| t.attach_ring(TRACE_RING));
    if let Some(t) = &telemetry {
        server.set_telemetry(t.clone());
    }
    let pid = server.submit(problem);
    let algorithm = server.algorithm(pid);
    let codec = server.codec(pid).expect("integration registers a codec");
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    let clock = Clock::new(1.0);
    let net = NetServer::start(server, clock, NetServerOptions::default())
        .expect("bind loopback listener");
    let addr = net.addr();
    let (mut server, logs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..DONORS as u64)
            .map(|c| {
                let (algorithm, codec) = (algorithm.clone(), codec.clone());
                s.spawn(move || donor(addr, c, algorithm.as_ref(), codec.as_ref()))
            })
            .collect();
        let server = net.wait();
        let logs: Vec<DonorLog> = handles
            .into_iter()
            .map(|h| h.join().expect("donor thread panicked"))
            .collect();
        (server, logs)
    });
    let makespan_s = clock.now();
    let pi = server.take_output(pid).map(|out| out.into_inner::<f64>());
    let solve_s = t1.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    let stats = server.stats(pid);
    let mut check = check_pi(pi);
    if stats.completed_units != p.spec.units {
        check = check.and(Err(format!(
            "{} of {} units combined",
            stats.completed_units, p.spec.units
        )));
    }
    if let Some(e) = logs.iter().find_map(|l| l.error.clone()) {
        check = check.and(Err(e));
    }

    let mut layers = Vec::new();
    if let (Some(telemetry), Some(ring)) = (telemetry, ring) {
        let frames_in = telemetry.metrics_snapshot().counter("net.frames_in").max(1) as f64;
        let donor_cpu: f64 = logs.iter().map(|l| l.cpu_s).sum();
        let donor_compute: f64 = logs.iter().map(|l| l.compute_s).sum();
        let frames_sent: u64 = logs.iter().map(|l| l.frames_sent).sum();
        let (req_p50, sub_p50) = match direct_drive(p.spec.units, p.seed) {
            Ok(v) => v,
            Err(e) => {
                check = check.and(Err(e));
                (0.0, 0.0)
            }
        };
        if ring.len() >= TRACE_RING {
            check = check.and(Err("trace ring filled".into()));
        }
        layers = vec![
            ("net.frames_per_s", frames_in / solve_s),
            (
                "net.server_cpu_us_per_frame",
                (cpu_s - donor_cpu) / frames_in * 1e6,
            ),
            (
                "net.client_wire_us",
                (donor_cpu - donor_compute) / frames_sent.max(1) as f64 * 1e6,
            ),
            ("sched.request_work_us_p50", req_p50),
            ("sched.submit_result_us_p50", sub_p50),
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
        units: stats.completed_units,
        events: stats.assignments + stats.completed_units,
        makespan_s,
        input: 0,
        rtt_us: logs.into_iter().flat_map(|l| l.rtt_us).collect(),
        layers,
        check,
    }
}
