//! Benchmark-side instruments: timing decorators installed around the
//! public trait boundaries every layer is called through
//! (`Algorithm::compute`, `DataManager::{next_unit, accept_result}`,
//! `WireCodec::{encode,decode}_{unit,result}`), set through `Problem`'s
//! public fields, plus process CPU and memory readings. Nothing here
//! changes what the program computes.

use biodist_core::{
    Algorithm, ChunkNeed, DataManager, Payload, Problem, ProblemId, TaskResult, Telemetry,
    WireCodec, WireError, WorkUnit,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Busy time and a work count accumulated at one boundary.
/// Relaxed atomics: each field is an independent statistic read after
/// every worker thread has been joined.
#[derive(Debug, Default)]
pub struct Tally {
    nanos: AtomicU64,
    work: AtomicU64,
}

impl Tally {
    fn add(&self, busy: Duration, work: u64) {
        self.nanos.fetch_add(
            u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.work.fetch_add(work, Ordering::Relaxed);
    }

    /// Total busy time in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Work recorded (DP cells for compute, bytes for codecs).
    pub fn work(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }
}

static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (recorder id, when this thread last returned from `compute`).
    static LAST_COMPUTE_END: Cell<(u64, Option<Instant>)> = const { Cell::new((0, None)) };
}

/// Records, per donor thread, the gap between returning from one
/// `compute` and entering the next: the dispatch round trip as the
/// donor sees it (result submit and ack, work request and assignment,
/// chunk fetch — less whatever prefetching hides). On the simulator the
/// one engine thread calls every `compute`, so the gap is the engine's
/// wall time between two dispatched units.
#[derive(Debug)]
pub struct GapRecorder {
    id: u64,
    gaps_us: Mutex<Vec<f64>>,
}

impl Default for GapRecorder {
    fn default() -> Self {
        Self {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            gaps_us: Mutex::new(Vec::new()),
        }
    }
}

impl GapRecorder {
    fn entered(&self, now: Instant) {
        let (id, last) = LAST_COMPUTE_END.with(Cell::get);
        if let (true, Some(last)) = (id == self.id, last) {
            let gap = now.duration_since(last).as_secs_f64() * 1e6;
            self.gaps_us.lock().expect("gap lock poisoned").push(gap);
        }
    }

    fn left(&self, now: Instant) {
        LAST_COMPUTE_END.with(|c| c.set((self.id, Some(now))));
    }

    /// Takes the recorded gaps, in microseconds.
    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.gaps_us.lock().expect("gap lock poisoned"))
    }
}

/// Trace ring capacity. A solve that fills the ring would lose span
/// links, so it fails instead.
pub const TRACE_RING: usize = 1 << 22;

/// DP cells (or other work) a unit represents, for rate metrics.
pub type WorkOf = Arc<dyn Fn(&WorkUnit) -> u64 + Send + Sync>;

/// The instruments for one solve. `gaps` is always installed (it feeds
/// the end-to-end round-trip metrics); the tallies only on traced runs.
pub struct Probes {
    /// Donor-side gaps between computes.
    pub gaps: Arc<GapRecorder>,
    /// `Algorithm::compute` time and work (traced runs).
    pub compute: Option<Arc<Tally>>,
    /// `DataManager::{next_unit, accept_result}` time (traced runs).
    pub dm: Option<Arc<Tally>>,
    /// Codec encode/decode time and bytes (traced runs).
    pub codec: Option<Arc<Tally>>,
    /// Work per unit for `compute` (traced runs; zero when absent).
    pub work_of: Option<WorkOf>,
}

impl Probes {
    /// Probes for one solve: every tally when `traced`.
    pub fn new(traced: bool, work_of: Option<WorkOf>) -> Self {
        let tally = || traced.then(|| Arc::new(Tally::default()));
        Self {
            gaps: Arc::default(),
            compute: tally(),
            dm: tally(),
            codec: tally(),
            work_of: if traced { work_of } else { None },
        }
    }

    /// Installs the decorators into `problem`'s public fields.
    pub fn install(&self, mut problem: Problem) -> Problem {
        problem.algorithm = Arc::new(ProbedAlgorithm {
            inner: problem.algorithm,
            gaps: self.gaps.clone(),
            tally: self.compute.clone(),
            work_of: self.work_of.clone(),
        });
        if let Some(tally) = &self.dm {
            problem.data_manager = Box::new(ProbedDm {
                inner: problem.data_manager,
                tally: tally.clone(),
            });
        }
        if let Some(tally) = &self.codec {
            problem.codec = problem.codec.map(|inner| {
                Arc::new(ProbedCodec {
                    inner,
                    tally: tally.clone(),
                }) as Arc<dyn WireCodec>
            });
        }
        problem
    }

    /// Seconds of `compute`, `next_unit` + `accept_result`, and codec
    /// work recorded so far (zeros on an untraced solve).
    pub fn secs(&self) -> (f64, f64, f64) {
        let s = |t: &Option<Arc<Tally>>| t.as_ref().map_or(0.0, |t| t.secs());
        (s(&self.compute), s(&self.dm), s(&self.codec))
    }
}

struct ProbedAlgorithm {
    inner: Arc<dyn Algorithm>,
    gaps: Arc<GapRecorder>,
    tally: Option<Arc<Tally>>,
    work_of: Option<WorkOf>,
}

impl Algorithm for ProbedAlgorithm {
    fn compute(&self, unit: &WorkUnit) -> TaskResult {
        let start = Instant::now();
        self.gaps.entered(start);
        let result = self.inner.compute(unit);
        let end = Instant::now();
        self.gaps.left(end);
        if let Some(tally) = &self.tally {
            let work = self.work_of.as_ref().map_or(0, |f| f(unit));
            tally.add(end - start, work);
        }
        result
    }
}

struct ProbedDm {
    inner: Box<dyn DataManager>,
    tally: Arc<Tally>,
}

impl DataManager for ProbedDm {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        let start = Instant::now();
        let unit = self.inner.next_unit(hint_ops);
        self.tally.add(start.elapsed(), 0);
        unit
    }

    fn accept_result(&mut self, result: TaskResult) {
        let start = Instant::now();
        self.inner.accept_result(result);
        self.tally.add(start.elapsed(), 0);
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn final_output(&mut self) -> Payload {
        self.inner.final_output()
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry, problem: ProblemId) {
        self.inner.attach_telemetry(telemetry, problem);
    }
}

struct ProbedCodec {
    inner: Arc<dyn WireCodec>,
    tally: Arc<Tally>,
}

impl ProbedCodec {
    fn encode(&self, f: impl FnOnce() -> Result<Vec<u8>, WireError>) -> Result<Vec<u8>, WireError> {
        let start = Instant::now();
        let out = f();
        let bytes = out.as_ref().map_or(0, |b| b.len() as u64);
        self.tally.add(start.elapsed(), bytes);
        out
    }

    fn decode(
        &self,
        bytes: &[u8],
        f: impl FnOnce() -> Result<Payload, WireError>,
    ) -> Result<Payload, WireError> {
        let start = Instant::now();
        let out = f();
        self.tally.add(start.elapsed(), bytes.len() as u64);
        out
    }
}

impl WireCodec for ProbedCodec {
    fn encode_unit(&self, payload: &Payload) -> Result<Vec<u8>, WireError> {
        self.encode(|| self.inner.encode_unit(payload))
    }

    fn decode_unit(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        self.decode(bytes, || self.inner.decode_unit(bytes))
    }

    fn encode_result(&self, payload: &Payload) -> Result<Vec<u8>, WireError> {
        self.encode(|| self.inner.encode_result(payload))
    }

    fn decode_result(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        self.decode(bytes, || self.inner.decode_result(bytes))
    }

    fn unit_chunks(&self, payload: &Payload) -> Vec<ChunkNeed> {
        self.inner.unit_chunks(payload)
    }

    fn encode_chunk(&self, chunk: u64) -> Result<Vec<u8>, WireError> {
        self.inner.encode_chunk(chunk)
    }

    fn hydrate_unit(
        &self,
        payload: Payload,
        chunks: &[(u64, Arc<Vec<u8>>)],
    ) -> Result<Payload, WireError> {
        self.inner.hydrate_unit(payload, chunks)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    const {
        assert!(
            cfg!(all(target_os = "linux", target_pointer_width = "64")),
            "CPU clocks are read through the 64-bit Linux timespec layout"
        )
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the 64-bit Linux
    // layout (asserted above) and outlives the call; the clock ids are
    // the Linux constants for the calling process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds of the whole process, every thread
/// (including threads that have already exited).
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// (steal, total) CPU ticks of the whole machine from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else, which
/// stretches every wall-clock metric without the program doing more.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The process's peak resident set so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
