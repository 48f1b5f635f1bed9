//! The timing decorator: an [`Executor`] + [`MetaView`] that wraps any
//! executor and times every call the session makes into it.
//!
//! This is the executor layer's outside boundary. The session drives the
//! wrapper exactly as it would drive the inner executor, so the program
//! itself carries no benchmark instrumentation. Everything the wrapper
//! learns lands in a shared [`Probe`] the benchmark reads between
//! submissions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xorbits_core::chunk::{ChunkKey, ChunkMeta, Payload};
use xorbits_core::parallel::ParallelExecutor;
use xorbits_core::session::{ExecStats, Executor};
use xorbits_core::subtask::SubtaskGraph;
use xorbits_core::tiling::MetaView;
use xorbits_core::XbResult;
use xorbits_runtime::SimExecutor;
use xorbits_storage::StorageMetrics;

/// What the benchmark may inspect on a wrapped executor, from outside.
/// The defaults suit an executor without that piece of state.
pub trait Inspect {
    /// Storage-tier counters, when the executor has a storage service.
    fn storage(&self) -> Option<StorageMetrics> {
        None
    }
    /// Whether the executor's memory ledger is consistent. Checked just
    /// before each `clear`, i.e. at the end of every fetch.
    fn ledger_ok(&self) -> bool {
        true
    }
    /// Whether `clear` left chunks or spill files behind.
    fn drained(&self) -> bool {
        true
    }
}

impl Inspect for ParallelExecutor {
    fn storage(&self) -> Option<StorageMetrics> {
        Some(self.storage_metrics())
    }
    fn drained(&self) -> bool {
        let m = self.storage_metrics();
        m.resident_bytes == 0 && m.spill_files == 0
    }
}

impl Inspect for SimExecutor {
    fn ledger_ok(&self) -> bool {
        self.ledger_balanced()
    }
}

/// The executor call a span or counter belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Executor::execute`.
    Execute,
    /// `Executor::payload`.
    Payload,
    /// `Executor::release`.
    Release,
    /// `Executor::clear`.
    Clear,
}

impl Call {
    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Call::Execute => "execute",
            Call::Payload => "payload",
            Call::Release => "release",
            Call::Clear => "clear",
        }
    }
}

/// Running totals of everything that crossed the executor boundary.
/// Subtracting two snapshots gives one submission's (or one pass's) share.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// `execute` calls.
    pub exec_calls: u64,
    /// Seconds inside `execute`.
    pub exec_s: f64,
    /// Seconds inside `payload`, `release` and `clear`.
    pub other_s: f64,
    /// Subtasks handed to `execute`.
    pub subtasks: u64,
    /// Chunk nodes handed to `execute`.
    pub chunk_nodes: u64,
    /// Metadata lookups the tiler made.
    pub meta_lookups: u64,
    /// Host seconds the executor reported as kernel time.
    pub kernel_s: f64,
    /// Makespan the executor reported: the virtual clock on the simulator,
    /// host seconds on the pool (reported for the simulator only).
    pub virtual_s: f64,
    /// Bytes moved between virtual workers (Sim only).
    pub net_bytes: u64,
    /// Highest per-worker live bytes (Sim only).
    pub peak_worker_bytes: u64,
    /// Plain-envelope bytes of every chunk the Sim encoded to measure.
    pub sim_raw_bytes: u64,
    /// Wire bytes of those chunks under the chosen encodings.
    pub sim_wire_bytes: u64,
    /// Fetches whose ledger check failed before `clear`.
    pub ledger_faults: u64,
    /// `clear` calls that left chunks or spill files behind.
    pub undrained: u64,
}

impl Totals {
    /// Seconds inside any executor call.
    pub fn inside_s(&self) -> f64 {
        self.exec_s + self.other_s
    }

    /// `self - before` for every additive field; peaks keep `self`'s value.
    pub fn since(&self, before: &Totals) -> Totals {
        Totals {
            exec_calls: self.exec_calls - before.exec_calls,
            exec_s: self.exec_s - before.exec_s,
            other_s: self.other_s - before.other_s,
            subtasks: self.subtasks - before.subtasks,
            chunk_nodes: self.chunk_nodes - before.chunk_nodes,
            meta_lookups: self.meta_lookups - before.meta_lookups,
            kernel_s: self.kernel_s - before.kernel_s,
            virtual_s: self.virtual_s - before.virtual_s,
            net_bytes: self.net_bytes - before.net_bytes,
            peak_worker_bytes: self.peak_worker_bytes,
            sim_raw_bytes: self.sim_raw_bytes - before.sim_raw_bytes,
            sim_wire_bytes: self.sim_wire_bytes - before.sim_wire_bytes,
            ledger_faults: self.ledger_faults - before.ledger_faults,
            undrained: self.undrained - before.undrained,
        }
    }

    /// Adds another window's totals (peaks take the maximum).
    pub fn add(&mut self, o: &Totals) {
        self.exec_calls += o.exec_calls;
        self.exec_s += o.exec_s;
        self.other_s += o.other_s;
        self.subtasks += o.subtasks;
        self.chunk_nodes += o.chunk_nodes;
        self.meta_lookups += o.meta_lookups;
        self.kernel_s += o.kernel_s;
        self.virtual_s += o.virtual_s;
        self.net_bytes += o.net_bytes;
        self.peak_worker_bytes = self.peak_worker_bytes.max(o.peak_worker_bytes);
        self.sim_raw_bytes += o.sim_raw_bytes;
        self.sim_wire_bytes += o.sim_wire_bytes;
        self.ledger_faults += o.ledger_faults;
        self.undrained += o.undrained;
    }
}

/// One recorded span on the benchmark's own clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index into the log).
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Submission id shared by every span of one submission.
    pub submission: usize,
    /// Boundary name (`submission`, `plan`, `fetch`, `execute`, …).
    pub name: &'static str,
    /// Start, seconds since the log's origin.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

/// In-memory span log, written out when the benchmark ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Recorded spans, in the order they opened.
    pub spans: Vec<Span>,
    /// Open spans (innermost last): the parent of the next span.
    stack: Vec<usize>,
    /// Submission the open spans belong to.
    submission: usize,
}

impl SpanLog {
    fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            submission: 0,
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    fn open(&mut self, name: &'static str, start: Instant) -> usize {
        let id = self.spans.len();
        let start_s = self.secs(start);
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            submission: self.submission,
            name,
            start_s,
            dur_s: 0.0,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize, end: Instant) {
        let end_s = self.secs(end);
        let span = &mut self.spans[id];
        span.dur_s = (end_s - span.start_s).max(0.0);
        if self.stack.last() == Some(&id) {
            self.stack.pop();
        }
    }

    fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.open(name, start);
        self.close(id, end);
    }
}

#[derive(Debug, Default)]
struct Shared {
    totals: Totals,
    spans: Option<SpanLog>,
}

/// The benchmark's handle on one wrapped executor's measurements.
#[derive(Debug, Default)]
pub struct Probe {
    lookups: AtomicU64,
    shared: Mutex<Shared>,
}

impl Probe {
    /// A probe that records totals only.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// A probe that also records spans, timed from `origin`.
    pub fn with_spans(origin: Instant) -> Arc<Probe> {
        let p = Probe::default();
        p.lock().spans = Some(SpanLog::new(origin));
        Arc::new(p)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.shared.lock().expect("probe lock poisoned")
    }

    /// Totals so far.
    pub fn totals(&self) -> Totals {
        let mut t = self.lock().totals;
        t.meta_lookups = self.lookups.load(Ordering::Relaxed);
        t
    }

    /// Opens a span around a call the benchmark makes (submission, plan,
    /// fetch). Starts a new submission id when `name` is `submission`.
    /// Returns `None` when spans are off.
    pub fn open(&self, name: &'static str, submission: usize) -> Option<usize> {
        let now = Instant::now();
        let mut g = self.lock();
        let log = g.spans.as_mut()?;
        log.submission = submission;
        Some(log.open(name, now))
    }

    /// Closes a span [`Probe::open`] returned.
    pub fn close(&self, id: Option<usize>) {
        let now = Instant::now();
        if let Some(id) = id {
            if let Some(log) = self.lock().spans.as_mut() {
                log.close(id, now);
            }
        }
    }

    /// Takes the span log out of the probe.
    pub fn take_spans(&self) -> Vec<Span> {
        self.lock()
            .spans
            .as_mut()
            .map(|l| std::mem::take(&mut l.spans))
            .unwrap_or_default()
    }

    fn record(&self, call: Call, start: Instant, f: impl FnOnce(&mut Totals)) {
        let end = Instant::now();
        let dur = end.duration_since(start).as_secs_f64();
        let mut g = self.lock();
        match call {
            Call::Execute => {
                g.totals.exec_calls += 1;
                g.totals.exec_s += dur;
            }
            _ => g.totals.other_s += dur,
        }
        f(&mut g.totals);
        if let Some(log) = g.spans.as_mut() {
            log.leaf(call.name(), start, end);
        }
    }
}

/// The decorator. Generic over the wrapped executor, so the same code
/// times the work-stealing pool, the simulator and the local oracle.
pub struct Timed<E> {
    inner: E,
    probe: Arc<Probe>,
}

impl<E> Timed<E> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: E, probe: Arc<Probe>) -> Timed<E> {
        Timed { inner, probe }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: MetaView> MetaView for Timed<E> {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.probe.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.meta(key)
    }
}

impl<E: Executor + Inspect> Executor for Timed<E> {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        let start = Instant::now();
        let out = self.inner.execute(graph);
        self.probe.record(Call::Execute, start, |t| {
            t.subtasks += graph.subtasks.len() as u64;
            t.chunk_nodes += graph.chunks.nodes.len() as u64;
            if let Ok(s) = &out {
                t.kernel_s += s.real_cpu_seconds;
                t.net_bytes += s.net_bytes as u64;
                t.peak_worker_bytes = t.peak_worker_bytes.max(s.peak_worker_bytes as u64);
                t.sim_raw_bytes += s.encoded_raw_bytes as u64;
                t.sim_wire_bytes += s.encoded_wire_bytes as u64;
                t.virtual_s += s.makespan;
            }
        });
        out
    }

    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        let start = Instant::now();
        let out = self.inner.payload(key);
        self.probe.record(Call::Payload, start, |_| {});
        out
    }

    fn clear(&mut self) {
        let ledger_ok = self.inner.ledger_ok();
        let start = Instant::now();
        self.inner.clear();
        self.probe.record(Call::Clear, start, |_| {});
        let drained = self.inner.drained();
        let mut g = self.probe.lock();
        g.totals.ledger_faults += u64::from(!ledger_ok);
        g.totals.undrained += u64::from(!drained);
    }

    fn release(&mut self, keys: &[ChunkKey]) {
        let start = Instant::now();
        self.inner.release(keys);
        self.probe.record(Call::Release, start, |_| {});
    }
}
