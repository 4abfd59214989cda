//! Session multiplexing: many standing queries owned by one registry.
//!
//! [`StreamSession`] borrows its compiled query, which suits a driver with
//! the query on its stack and not a long-lived registry that must own many
//! sessions at once.  A [`SessionWorker`] compiles the query and keeps it
//! inside an owned `StreamSession<'static>` behind one leaf [`Mutex`], and
//! runs every call — [`feed`](SessionWorker::feed),
//! [`snapshot_with_records`](SessionWorker::snapshot_with_records),
//! [`status`](SessionWorker::status), [`finish`](SessionWorker::finish) —
//! on the thread that makes it.  No thread, queue or timer exists per
//! session.  This is the substrate a multi-tenant host (the
//! `sqlts-server` crate, or any embedding) multiplexes subscriptions onto:
//!
//! * **Isolation** — per-worker [`Governor`](crate::Governor) budgets
//!   (deadline / step / match) ride in unchanged through
//!   [`StreamOptions::exec`]; a panic inside any call is contained with
//!   `catch_unwind` and reported as [`WorkerError::Runtime`], never
//!   unwound into the caller.
//! * **Stalled-tenant reclamation** — `status`, `snapshot_with_records`
//!   and `finish` call [`StreamSession::poll_deadline`] before they read,
//!   so a tenant that simply stops feeding is seen to trip its wall-clock
//!   deadline the next time anyone looks at it.
//! * **Checkpoint / resume** — [`SessionWorker::snapshot`] returns the
//!   session's `sqlts-checkpoint v1` text, and
//!   [`SessionWorkerConfig::resume_from`] rebuilds a worker that continues
//!   bit-identically (the checkpoint's engine wins, so a resumed
//!   subscription never silently switches machines).
//!
//! The session lock is a leaf among the host's locks: nothing that holds
//! it waits on a registry, channel or persist lock.  (With a shared
//! pattern-set, the session's memo probes take the memo's own cache locks
//! beneath it; those never wait on anything else.)
//!
//! Every reply carries a [`WorkerError`] mapped onto the CLI's documented
//! exit-code scheme (3 input, 4 runtime/governed, 5 quarantine) so
//! transports can surface one consistent status vocabulary.

use crate::executor::panic_cause;
use crate::patternset::SetRegistry;
use crate::stream::{SessionCheckpoint, StreamError, StreamOptions, StreamSession};
use crate::{compile, Trip};
use sqlts_relation::Schema;
use sqlts_trace::ExecutionProfile;
use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Everything a [`SessionWorker`] needs to stand up its session.
#[derive(Clone, Debug)]
pub struct SessionWorkerConfig {
    /// A short identifier for diagnostics (e.g. the subscription id).
    pub name: String,
    /// The SQL-TS query source; compiled by [`SessionWorker::spawn`].
    pub sql: String,
    /// The input schema the query is compiled against.
    pub schema: Schema,
    /// The full stream options (engine, governor, instrumentation,
    /// bad-tuple policy, backpressure) the session runs under.
    pub stream: StreamOptions,
    /// `sqlts-checkpoint v1` text to resume from, or `None` for a fresh
    /// session.  On resume the checkpoint's engine overrides
    /// `stream.exec.engine` so continuation is bit-identical.
    pub resume_from: Option<String>,
    /// Shared pattern-set membership: when set, the worker joins the
    /// channel's [`SetRegistry`] after compiling, so its session shares
    /// predicate tests with every other subscription in the same group.
    /// `None` (the default) runs exactly as before.
    pub shared: Option<SharedSpec>,
}

/// How a worker joins a channel-level shared pattern-set registry.
#[derive(Clone, Debug)]
pub struct SharedSpec {
    /// The channel's registry of standing queries.
    pub registry: Arc<SetRegistry>,
    /// The feed position this subscription's cluster positions are
    /// counted from: `0` for a subscription created before any feed, the
    /// checkpointed record count for a resumed one.  Groups are keyed by
    /// origin, so misaligned members never share a memo entry.
    pub origin: u64,
}

impl SessionWorkerConfig {
    /// A config with the given query over `schema`, default stream
    /// options, and a fresh session.
    pub fn new(name: impl Into<String>, sql: impl Into<String>, schema: Schema) -> Self {
        SessionWorkerConfig {
            name: name.into(),
            sql: sql.into(),
            schema,
            stream: StreamOptions::default(),
            resume_from: None,
            shared: None,
        }
    }
}

/// A worker failure, classified onto the CLI's exit-code scheme so every
/// transport reports one consistent status vocabulary.
#[derive(Debug)]
pub enum WorkerError {
    /// Bad query or bad input (compile error, unbindable tuple, malformed
    /// checkpoint) — exit-code class 3.
    Input(String),
    /// The session started but failed at runtime (poisoned by a contained
    /// panic) — exit-code class 4.
    Runtime(String),
    /// The resource governor terminated the session — exit-code class 4,
    /// kept distinct so hosts can attach partial-result semantics.
    Governed(Trip),
    /// A quarantine reached its capacity — exit-code class 5.
    Quarantine(String),
    /// The session is gone (already finished).
    Gone,
}

impl WorkerError {
    /// The CLI exit-code class this error mirrors.
    pub fn exit_code(&self) -> u8 {
        match self {
            WorkerError::Input(_) => 3,
            WorkerError::Runtime(_) | WorkerError::Governed(_) | WorkerError::Gone => 4,
            WorkerError::Quarantine(_) => 5,
        }
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Input(m) | WorkerError::Runtime(m) | WorkerError::Quarantine(m) => {
                write!(f, "{m}")
            }
            WorkerError::Governed(trip) => {
                write!(f, "stream terminated by resource governor: {trip}")
            }
            WorkerError::Gone => write!(f, "session is gone"),
        }
    }
}

impl std::error::Error for WorkerError {}

fn map_stream_err(e: StreamError) -> WorkerError {
    match e {
        StreamError::Governed { trip, .. } => WorkerError::Governed(trip),
        StreamError::QuarantineFull { .. } => WorkerError::Quarantine(e.to_string()),
        StreamError::Poisoned(_) => WorkerError::Runtime(e.to_string()),
        StreamError::Unsupported(_)
        | StreamError::Table(_)
        | StreamError::BadTuple(_)
        | StreamError::Checkpoint(_) => WorkerError::Input(e.to_string()),
    }
}

/// A point-in-time view of a live session, cheap enough to serve on a
/// metrics scrape.
#[derive(Clone, Debug)]
pub struct SessionStatus {
    /// Input records seen (accepted + rejected).
    pub records: u64,
    /// Records dropped under the skip policy.
    pub skipped: u64,
    /// Tuples parked in quarantine.
    pub quarantined: usize,
    /// Estimated bytes buffered across cluster windows.
    pub window_bytes: usize,
    /// Logical predicate tests performed so far (memo hits under shared
    /// pattern-set execution are charged as if evaluated locally).
    pub predicate_tests: u64,
    /// The latched governor trip, if the session has tripped.
    pub trip: Option<Trip>,
    /// Has a contained panic poisoned the session?
    pub poisoned: bool,
}

/// The terminal report of a finished (or governed/failed) session.
#[derive(Debug)]
pub struct FinishReport {
    /// The result table as CSV (header + rows); partial when governed,
    /// empty when the finish failed outright.
    pub csv: String,
    /// Number of match rows in `csv`.
    pub rows: u64,
    /// The governor trip, when the session was cut short.
    pub trip: Option<Trip>,
    /// A non-governed finish failure (poisoned session, …).
    pub error: Option<String>,
    /// The armed execution profile, when instrumentation was on.
    pub profile: Option<Box<ExecutionProfile>>,
    /// Records dropped under the skip policy.
    pub skipped: u64,
    /// Tuples left in quarantine.
    pub quarantined: usize,
}

/// What the thread running a worker's session is doing *right now*,
/// published through a [`PhaseTag`] so an observer (the server's sampling
/// profiler) can read it with one relaxed atomic load — no lock, no
/// signal, no stack unwinding, and zero effect on what the session
/// computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WorkerPhase {
    /// No call is running on the session.
    Idle = 0,
    /// Compiling the query (and applying any resume checkpoint) at
    /// startup.
    Compile = 1,
    /// Applying a fed tuple to the session.
    Feed = 2,
    /// Serializing a `sqlts-checkpoint v1` snapshot.
    Snapshot = 3,
    /// Serving a status probe.
    Status = 4,
    /// Driving the session to end-of-input.
    Finish = 5,
}

impl WorkerPhase {
    /// The lowercase name used in collapsed-stack frames and `/status`.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerPhase::Idle => "idle",
            WorkerPhase::Compile => "compile",
            WorkerPhase::Feed => "feed",
            WorkerPhase::Snapshot => "snapshot",
            WorkerPhase::Status => "status",
            WorkerPhase::Finish => "finish",
        }
    }

    fn from_u8(v: u8) -> WorkerPhase {
        match v {
            1 => WorkerPhase::Compile,
            2 => WorkerPhase::Feed,
            3 => WorkerPhase::Snapshot,
            4 => WorkerPhase::Status,
            5 => WorkerPhase::Finish,
            _ => WorkerPhase::Idle,
        }
    }
}

/// The cheap atomic tag a [`SessionWorker`] publishes for samplers: the
/// current [`WorkerPhase`] plus the session's record count.  Whichever
/// thread holds the session lock sets it.  All loads and stores are
/// `Relaxed` — a sampler tolerates a stale read by design (it is a
/// statistical profile, not a synchronization point), and a call pays a
/// few uncontended atomic stores, far from the per-tuple hot loop.
#[derive(Debug, Default)]
pub struct PhaseTag {
    phase: AtomicU8,
    records: AtomicU64,
}

impl PhaseTag {
    /// The phase most recently published by the worker.
    pub fn phase(&self) -> WorkerPhase {
        WorkerPhase::from_u8(self.phase.load(Ordering::Relaxed))
    }

    /// The session's record count as of the last publish.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    fn set(&self, phase: WorkerPhase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    fn set_records(&self, records: u64) {
        self.records.store(records, Ordering::Relaxed);
    }
}

/// One subscription's session, owned and driven inline.
///
/// All methods take `&self`, so a handle can sit in a shared registry and
/// be driven from many connection threads at once; the session mutex
/// serializes them, and each call runs on the caller's thread.  Dropping
/// the handle without calling [`finish`](SessionWorker::finish) discards
/// the session (take a [`snapshot`](SessionWorker::snapshot) first to
/// keep the work).
pub struct SessionWorker {
    /// `None` once [`finish`](SessionWorker::finish) has consumed it.
    session: Mutex<Option<StreamSession<'static>>>,
    tag: Arc<PhaseTag>,
}

impl fmt::Debug for SessionWorker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionWorker").finish_non_exhaustive()
    }
}

impl SessionWorker {
    /// Stand the worker up: compile the query, apply any resume
    /// checkpoint, and join the shared pattern-set registry, all on the
    /// calling thread.  A compile or resume failure surfaces here, not
    /// later.
    pub fn spawn(config: SessionWorkerConfig) -> Result<SessionWorker, WorkerError> {
        let tag = Arc::new(PhaseTag::default());
        tag.set(WorkerPhase::Compile);
        let built = catch_unwind(AssertUnwindSafe(|| open_session(config)));
        tag.set(WorkerPhase::Idle);
        let session = built.map_err(panicked)??;
        tag.set_records(session.records());
        Ok(SessionWorker {
            session: Mutex::new(Some(session)),
            tag,
        })
    }

    /// Run `call` on the session under its lock, publishing `phase` while
    /// it runs.  A panic is contained here: it poisons the lock, so this
    /// call and every later one report [`WorkerError::Runtime`].
    fn with_session<T>(
        &self,
        phase: WorkerPhase,
        call: impl FnOnce(&mut Option<StreamSession<'static>>) -> Result<T, WorkerError>,
    ) -> Result<T, WorkerError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut slot = self
                .session
                .lock()
                .map_err(|_| WorkerError::Runtime("session poisoned by an earlier panic".into()))?;
            self.tag.set(phase);
            let result = call(&mut slot);
            if let Some(session) = slot.as_ref() {
                self.tag.set_records(session.records());
            }
            self.tag.set(WorkerPhase::Idle);
            result
        }));
        outcome.unwrap_or_else(|payload| {
            self.tag.set(WorkerPhase::Idle);
            Err(panicked(payload))
        })
    }

    /// The worker's live phase/record tag, for samplers.  Cloning the
    /// `Arc` lets a profiler thread keep observing without holding the
    /// registry lock.
    pub fn phase_tag(&self) -> Arc<PhaseTag> {
        Arc::clone(&self.tag)
    }

    /// Push one tuple into the session.
    pub fn feed(&self, row: Vec<sqlts_relation::Value>) -> Result<(), WorkerError> {
        self.with_session(WorkerPhase::Feed, |slot| {
            let session = slot.as_mut().ok_or(WorkerError::Gone)?;
            session.feed(row).map_err(map_stream_err)
        })
    }

    /// Capture the session as `sqlts-checkpoint v1` text.
    pub fn snapshot(&self) -> Result<String, WorkerError> {
        Ok(self.snapshot_with_records()?.0)
    }

    /// Capture the session as checkpoint text *plus* the record count the
    /// checkpoint represents, read under the same lock — so a
    /// persistence layer can align the snapshot with its input log
    /// without re-parsing the text and without racing concurrent feeds.
    pub fn snapshot_with_records(&self) -> Result<(String, u64), WorkerError> {
        self.with_session(WorkerPhase::Snapshot, |slot| {
            let session = slot.as_mut().ok_or(WorkerError::Gone)?;
            // A tripped or poisoned session still snapshots (or fails on
            // its own terms below); the poll only latches a due deadline.
            let _ = session.poll_deadline();
            session
                .snapshot()
                .map(|cp| (cp.to_text(), cp.records()))
                .map_err(map_stream_err)
        })
    }

    /// A point-in-time status snapshot.
    pub fn status(&self) -> Result<SessionStatus, WorkerError> {
        self.with_session(WorkerPhase::Status, |slot| {
            let session = slot.as_mut().ok_or(WorkerError::Gone)?;
            let _ = session.poll_deadline();
            Ok(status_of(session))
        })
    }

    /// Close the stream: drive the session to end-of-input and return the
    /// final (or partial, when governed) result.  Later calls report
    /// [`WorkerError::Gone`].
    pub fn finish(&self) -> Result<FinishReport, WorkerError> {
        self.with_session(WorkerPhase::Finish, |slot| {
            let mut session = slot.take().ok_or(WorkerError::Gone)?;
            let _ = session.poll_deadline();
            Ok(finish_report(session))
        })
    }
}

fn panicked(payload: Box<dyn std::any::Any + Send>) -> WorkerError {
    WorkerError::Runtime(format!("session panicked: {}", panic_cause(payload)))
}

/// Compile `config.sql`, build (or resume) its owned session, and join
/// the shared pattern-set registry when configured.
fn open_session(config: SessionWorkerConfig) -> Result<StreamSession<'static>, WorkerError> {
    let compiled = compile(&config.sql, &config.schema, &config.stream.exec.compile)
        .map_err(|e| WorkerError::Input(e.render(&config.sql)))?;
    let mut options = config.stream;
    let checkpoint = match &config.resume_from {
        Some(text) => {
            let cp = SessionCheckpoint::from_text(text).map_err(map_stream_err)?;
            // The checkpoint's engine wins: a resumed subscription must
            // continue bit-identically, never silently switch machines.
            options.exec.engine = cp.engine();
            Some(cp)
        }
        None => None,
    };
    let policy = options.exec.policy;
    let mut session =
        StreamSession::open(Cow::Owned(compiled), options, checkpoint).map_err(map_stream_err)?;
    if let Some(shared) = &config.shared {
        if let Some(join) = shared.registry.join(shared.origin, session.query(), policy) {
            session.install_shared(join);
        }
    }
    Ok(session)
}

fn status_of(session: &StreamSession<'_>) -> SessionStatus {
    SessionStatus {
        records: session.records(),
        skipped: session.skipped(),
        quarantined: session.quarantine().len(),
        window_bytes: session.window_bytes(),
        predicate_tests: session.predicate_tests(),
        trip: session.trip().cloned(),
        poisoned: session.poisoned(),
    }
}

fn finish_report(session: StreamSession<'_>) -> FinishReport {
    let skipped = session.skipped();
    let quarantined = session.quarantine().len();
    match session.finish() {
        Ok(result) => FinishReport {
            csv: result.table.to_csv_string(),
            rows: result.stats.matches,
            trip: None,
            error: None,
            profile: result.profile,
            skipped,
            quarantined,
        },
        Err(StreamError::Governed { trip, partial }) => {
            let (csv, rows, profile) = match partial {
                Some(p) => (p.table.to_csv_string(), p.stats.matches, p.profile),
                None => (String::new(), 0, None),
            };
            FinishReport {
                csv,
                rows,
                trip: Some(trip),
                error: None,
                profile,
                skipped,
                quarantined,
            }
        }
        Err(e) => FinishReport {
            csv: String::new(),
            rows: 0,
            trip: None,
            error: Some(e.to_string()),
            profile: None,
            skipped,
            quarantined,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, ExecOptions, Instrument};
    use crate::governor::{Governor, TripReason};
    use crate::EngineKind;
    use sqlts_relation::{ColumnType, Table, Value};
    use std::time::Duration;

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("day", ColumnType::Int),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    const QUERY: &str = "SELECT X.name, Z.price AS peak, Z.day AS day FROM quote \
                         CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) \
                         WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

    fn workload() -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for day in 0..60i64 {
            for (name, phase) in [("AAA", 0i64), ("BBB", 3)] {
                let wave = ((day + phase) % 7) as f64;
                rows.push(vec![
                    Value::Str(name.to_string()),
                    Value::Int(day),
                    Value::Float(100.0 + 3.0 * wave - 0.1 * day as f64),
                ]);
            }
        }
        rows
    }

    fn batch_csv(rows: &[Vec<Value>]) -> String {
        let mut t = Table::new(quote_schema());
        for row in rows {
            t.push_row(row.clone()).unwrap();
        }
        let q = crate::compile(QUERY, &quote_schema(), &crate::CompileOptions::default()).unwrap();
        execute(&q, &t, &ExecOptions::default())
            .unwrap()
            .table
            .to_csv_string()
    }

    #[test]
    fn worker_matches_batch_and_resumes_from_checkpoint() {
        let rows = workload();
        let expected = batch_csv(&rows);

        // Straight through.
        let worker =
            SessionWorker::spawn(SessionWorkerConfig::new("t1", QUERY, quote_schema())).unwrap();
        for row in &rows {
            worker.feed(row.clone()).unwrap();
        }
        let report = worker.finish().unwrap();
        assert!(report.trip.is_none());
        assert_eq!(report.csv, expected);

        // Checkpoint at the midpoint, drop the worker, resume in a new one.
        let first =
            SessionWorker::spawn(SessionWorkerConfig::new("t2", QUERY, quote_schema())).unwrap();
        let mid = rows.len() / 2;
        for row in &rows[..mid] {
            first.feed(row.clone()).unwrap();
        }
        let checkpoint = first.snapshot().unwrap();
        drop(first);
        let mut config = SessionWorkerConfig::new("t3", QUERY, quote_schema());
        config.resume_from = Some(checkpoint);
        let second = SessionWorker::spawn(config).unwrap();
        for row in &rows[mid..] {
            second.feed(row.clone()).unwrap();
        }
        let resumed = second.finish().unwrap();
        assert_eq!(resumed.csv, expected, "resumed output must equal batch");
    }

    #[test]
    fn stalled_worker_trip_is_seen_when_the_session_is_read() {
        // The acceptance criterion: a non-feeding subscription with a
        // wall-clock deadline trips Governed with no further feed call.
        let mut config = SessionWorkerConfig::new("stall", QUERY, quote_schema());
        config.stream.exec.governor = Governor::unlimited().with_timeout(Duration::from_millis(20));
        let worker = SessionWorker::spawn(config).unwrap();
        worker
            .feed(vec![
                Value::Str("AAA".into()),
                Value::Int(0),
                Value::Float(100.0),
            ])
            .unwrap();
        // Stall: no feeds.  Reading the status must latch the trip.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let trip = loop {
            let status = worker.status().unwrap();
            if let Some(trip) = status.trip {
                break trip;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stalled session never tripped its deadline"
            );
            std::hint::spin_loop();
        };
        assert_eq!(trip.reason, TripReason::Deadline);
        // finish() reports the partial result with the trip attached.
        let report = worker.finish().unwrap();
        assert_eq!(report.trip.unwrap().reason, TripReason::Deadline);
    }

    #[test]
    fn compile_and_governed_errors_map_to_exit_codes() {
        let err = SessionWorker::spawn(SessionWorkerConfig::new(
            "bad",
            "SELECT nonsense FROM",
            quote_schema(),
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "compile error is input class");

        let mut config = SessionWorkerConfig::new("budget", QUERY, quote_schema());
        config.stream.exec.governor = Governor::unlimited().with_max_steps(10);
        config.stream.exec.instrument = Instrument::default();
        let worker = SessionWorker::spawn(config).unwrap();
        let mut governed = None;
        for row in workload() {
            if let Err(e) = worker.feed(row) {
                governed = Some(e);
                break;
            }
        }
        let err = governed.expect("a 10-step budget must trip");
        assert!(matches!(err, WorkerError::Governed(_)), "{err}");
        assert_eq!(err.exit_code(), 4);
        let report = worker.finish().unwrap();
        assert!(report.trip.is_some());
    }

    #[test]
    fn phase_tag_publishes_records_and_settles_idle() {
        let rows = workload();
        let worker =
            SessionWorker::spawn(SessionWorkerConfig::new("tag", QUERY, quote_schema())).unwrap();
        let tag = worker.phase_tag();
        for row in &rows {
            worker.feed(row.clone()).unwrap();
        }
        // Every feed runs on this thread, so once the last feed returns
        // the published record count is exact.
        assert_eq!(tag.records(), rows.len() as u64);
        // The session is idle as soon as a call returns.
        assert_eq!(tag.phase(), WorkerPhase::Idle);
        // The tag outlives the handle — a sampler holding the Arc must
        // not keep the worker alive or crash after finish.
        let report = worker.finish().unwrap();
        assert!(report.error.is_none());
        assert_eq!(tag.records(), rows.len() as u64);
        assert_eq!(WorkerPhase::Feed.as_str(), "feed");
        assert_eq!(WorkerPhase::Idle.as_str(), "idle");
    }

    #[test]
    fn resume_adopts_checkpoint_engine() {
        let rows = workload();
        let mut config = SessionWorkerConfig::new("naive", QUERY, quote_schema());
        config.stream.exec.engine = EngineKind::Naive;
        let worker = SessionWorker::spawn(config).unwrap();
        for row in &rows[..10] {
            worker.feed(row.clone()).unwrap();
        }
        let checkpoint = worker.snapshot().unwrap();
        drop(worker);
        // Resume with a *different* configured engine: the checkpoint's
        // engine must win so continuation is bit-identical.
        let mut config = SessionWorkerConfig::new("resumed", QUERY, quote_schema());
        config.stream.exec.engine = EngineKind::Ops;
        config.resume_from = Some(checkpoint);
        let worker = SessionWorker::spawn(config).unwrap();
        for row in &rows[10..] {
            worker.feed(row.clone()).unwrap();
        }
        let report = worker.finish().unwrap();
        assert_eq!(report.csv, batch_csv(&rows));
    }
}
