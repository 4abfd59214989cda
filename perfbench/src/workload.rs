//! The three workloads and the phases they share: input generation and
//! server set-up, the in-process batch path, the closed-loop feed against
//! a separate `sqlts serve` process, and (traced runs only) replays of the
//! fed frames through each layer's public functions.

use crate::client::{self, Client};
use crate::gen;
use crate::trace::Tracer;
use sqlts_core::engine::{find_matches_with_plan, plan, SearchOptions};
use sqlts_core::{
    compile, execute, execute_set, CompileOptions, CompiledQuery, EvalCounter, ExecOptions,
    Instrument, SessionWorker, SessionWorkerConfig, SetRegistry, SharedSpec, StreamOptions,
    StreamSession,
};
use sqlts_relation::{parse_headerless_row, Schema, Table};
use sqlts_server::{ChannelWal, FsyncPolicy};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchScan,
    ServeIngest,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BatchScan, Workload::ServeIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchScan => "batch_scan",
            Workload::ServeIngest => "serve_ingest",
        }
    }
}

/// Sizes and server configuration of one workload.
pub struct Spec {
    pub keys: usize,
    /// Rows of the batch table.  For `serve_*` the batch table is the fed
    /// rows; `batch_scan` feeds a prefix of its (larger) table.
    pub batch_rows: usize,
    pub frame_rows: usize,
    pub frames: usize,
    pub queries: Vec<String>,
    pub durable: bool,
    pub shared: bool,
    /// Wall time the batch pairs get, spread over the feed.
    pub batch_time: Duration,
}

impl Spec {
    /// `seconds` sets how much work a run does: every workload feeds 10
    /// frames per second of it (200 at the benchmark's 20 s, so that 20
    /// acks lie beyond p90), `batch_scan`'s table has 5000 rows per
    /// second, and the batch phase repeats for its share of `seconds`.  The
    /// frame count is fixed, never cut by the clock, so results and
    /// checkpoint sizes depend only on seed and `seconds`.
    pub fn new(workload: Workload, seconds: f64) -> Spec {
        let frames = ((seconds * 10.0).round() as usize).max(2);
        let batch_time = |share: f64| Duration::from_secs_f64(seconds * share);
        match workload {
            Workload::BatchScan => Spec {
                keys: 40,
                batch_rows: ((seconds * 5000.0).round() as usize).max(2),
                frame_rows: 500,
                frames,
                queries: vec![gen::QUERY.to_string()],
                durable: false,
                shared: false,
                batch_time: batch_time(0.5),
            },
            Workload::ServeIngest => Spec {
                keys: 20,
                batch_rows: 0,
                frame_rows: 25,
                frames,
                queries: vec![gen::QUERY.to_string()],
                durable: true,
                shared: false,
                batch_time: batch_time(0.15),
            },
        }
    }

    /// The fan-out probe of traced runs: an in-memory shared-matcher
    /// server with the eight `SHARED_QUERIES` subscriptions, fed 5 frames
    /// of 1000 rows per second of `seconds`.  It runs no batch pairs.
    pub fn fanout_probe(seconds: f64) -> Spec {
        Spec {
            keys: 40,
            batch_rows: 0,
            frame_rows: 1000,
            frames: ((seconds * 5.0).round() as usize).max(2),
            queries: gen::shared_queries(),
            durable: false,
            shared: true,
            batch_time: Duration::ZERO,
        }
    }

    pub fn fed_rows(&self) -> usize {
        self.frames * self.frame_rows
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sqlts: PathBuf,
    pub out: PathBuf,
}

/// What a run measured.  `e2e` and `layer` hold `(name, value, unit)`;
/// `notes` are the human-readable lines printed before the result.
#[derive(Default)]
pub struct Report {
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layer: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in (0, 1]); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The generated inputs of one run.
struct Inputs {
    /// The batch table as a CSV document.
    batch_csv: String,
    batch_rows: usize,
    /// One `FEED` body per frame (headerless rows joined by newlines).
    frames: Vec<String>,
}

fn generate(spec: &Spec, seed: u64) -> Inputs {
    let total = spec.batch_rows.max(spec.fed_rows());
    let rows = gen::quote_rows(seed, spec.keys, total.div_ceil(spec.keys));
    let fed = &rows[..spec.fed_rows()];
    let batch = if spec.batch_rows > 0 {
        &rows[..spec.batch_rows]
    } else {
        fed
    };
    Inputs {
        batch_csv: gen::to_csv(batch),
        batch_rows: batch.len(),
        frames: fed.chunks(spec.frame_rows).map(|c| c.join("\n")).collect(),
    }
}

/// A `sqlts serve` child process, killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    data_dir: Option<PathBuf>,
    /// Held open so a later write to stdout by the server cannot fail.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    fn start(cfg: &Config, spec: &Spec, tag: usize) -> Result<Server, String> {
        let mut cmd = Command::new(&cfg.sqlts);
        cmd.args(["serve", "--listen", "127.0.0.1:0"]);
        let data_dir = spec.durable.then(|| {
            cfg.out.join(format!(
                "data-{}-{}-{tag}",
                cfg.workload.name(),
                std::process::id()
            ))
        });
        if let Some(dir) = &data_dir {
            let _ = std::fs::remove_dir_all(dir);
            cmd.arg("--data-dir").arg(dir).args(["--fsync", "every"]);
        }
        if spec.shared {
            cmd.args(["--shared-matcher", "on"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cfg.sqlts.display()))?;
        // A durable server reports its recovery before it listens.
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let read = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 && !line.starts_with("listening on ") => continue,
                other => break other,
            }
        };
        let mut server = Server {
            child,
            addr: String::new(),
            data_dir,
            _stdout: stdout,
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            _ => Err(format!("server did not announce its address: {line:?}")),
        }
    }

    /// `VmHWM` of the server process, in MB.
    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up once: generate the inputs, start the server, open the channel
/// and subscribe every query.
fn set_up(cfg: &Config, spec: &Spec, tag: usize) -> Result<(Inputs, Server, Client), String> {
    let inputs = generate(spec, cfg.seed);
    let server = Server::start(cfg, spec, tag)?;
    let mut conn = Client::connect(&server.addr)?;
    conn.expect(&format!("OPEN quote {}", gen::SCHEMA), "OK opened quote")?;
    for (i, q) in spec.queries.iter().enumerate() {
        conn.expect(
            &format!("SUBSCRIBE s{i} quote\n{q}"),
            &format!("OK subscribed s{i}"),
        )?;
    }
    Ok((inputs, server, conn))
}

const SETUPS: usize = 3;

pub fn run(cfg: &Config) -> Result<Report, String> {
    let spec = Spec::new(cfg.workload, cfg.seconds);
    let mut report = Report::default();
    let mut tr = Tracer::new(cfg.traced);
    let jiffies = cpu_jiffies();

    // Set-up is repeated and its median reported; the last one is kept.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for tag in 0..SETUPS {
        let t = Instant::now();
        let state = set_up(cfg, &spec, tag)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(state);
    }
    let (inputs, server, mut conn) = kept.expect("at least one set-up");
    let schema = gen::schema();
    report.notes.push(format!(
        "inputs: {} batch rows, {} frames x {} rows fed, {} keys, {} queries, nproc={}",
        inputs.batch_rows,
        spec.frames,
        spec.frame_rows,
        spec.keys,
        spec.queries.len(),
        threads()
    ));

    let mut batch = Batch::new(cfg, &spec, &inputs);
    let serve = serve_phase(
        &spec,
        &inputs,
        &server,
        &mut conn,
        Some(&mut batch),
        &mut tr,
        &mut report,
    )?;
    let engine = if cfg.traced {
        engine_layers(&inputs, &spec.queries[0], &schema, &mut tr)?
    } else {
        Vec::new()
    };
    let rss = match cfg.workload {
        Workload::BatchScan => vm_hwm_mb("/proc/self/status"),
        _ => server.peak_rss_mb(),
    };
    drop(conn);
    drop(server);

    let reference = check_results(&inputs, &schema, &spec.queries, &serve, &mut report)?;
    patternset_check(cfg, &inputs, &schema, &mut tr, &mut report)?;

    if cfg.traced {
        replay(
            cfg,
            &spec,
            &inputs,
            &schema,
            &reference,
            &mut tr,
            &mut report,
        )?;
        layer_metrics(&batch, &serve, &engine, &tr, &mut report);
        write_spans(cfg, &tr, &mut report);
        fanout_probe(cfg, &mut report)?;
    }
    let (steal, total) = cpu_jiffies();
    let steal = ratio(
        steal.saturating_sub(jiffies.0) as f64,
        total.saturating_sub(jiffies.1) as f64,
    );
    report.notes.push(format!(
        "host: the hypervisor stole {:.1}% of CPU time during the run",
        steal * 100.0
    ));
    if cfg.traced {
        report.layer.push(("host.steal_share", steal, "ratio"));
    }

    report.e2e = vec![
        ("setup_s", median(&setup_s), "s"),
        ("batch_rows_per_s", median(&batch.rows_per_s), "rows/s"),
        (
            "batch_1t_rows_per_s",
            median(&batch.rows_per_s_1t),
            "rows/s",
        ),
        (
            "feed_rows_per_s",
            serve.rows_fed as f64 / (serve.ack_total_ns() / 1e9),
            "rows/s",
        ),
        ("feed_ack_p50_ms", median(&serve.ack_ms), "ms"),
        ("feed_ack_p90_ms", percentile(&serve.ack_ms, 0.9), "ms"),
        ("result_p50_ms", median(&serve.result_ms), "ms"),
        ("checkpoint_bytes", serve.checkpoint_bytes as f64, "bytes"),
        ("peak_rss_mb", rss, "MB"),
    ];
    report.notes.push(format!(
        "samples: setup_s n={}, batch n={} pairs, feed_ack n={}, result n={}",
        setup_s.len(),
        batch.rows_per_s.len(),
        serve.ack_ms.len(),
        serve.result_ms.len()
    ));
    Ok(report)
}

/// Oracle: every `RESULT` body must equal the in-process batch result of
/// its query over the fed rows.  Returns those reference results.
fn check_results(
    inputs: &Inputs,
    schema: &Schema,
    queries: &[String],
    serve: &ServePhase,
    report: &mut Report,
) -> Result<Vec<String>, String> {
    let fed_csv = format!("name,day,price\n{}\n", inputs.frames.join("\n"));
    let reference = run_queries(&fed_csv, schema, queries)?;
    for (i, (body, want)) in serve.results.iter().zip(&reference).enumerate() {
        report.check(body == want, || {
            format!(
                "s{i} RESULT differs from batch: {} vs {} lines",
                body.lines().count(),
                want.lines().count()
            )
        });
    }
    Ok(reference)
}

/// `(steal, total)` CPU jiffies of the machine so far, from `/proc/stat`;
/// zeros where it cannot be read.
fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The fan-out path, traced runs only: eight subscriptions on one
/// shared-matcher channel, fed frames of 1000 rows.  Every row costs a
/// thread rendezvous per subscription, so this path stretches with any
/// CPU time the host takes away (a run that lost 25% of its CPU time to
/// steal read 3.4× the p90 of a quiet one).  That is why its figures are
/// per-layer, with no bound, and not a gated workload.
fn fanout_probe(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let spec = Spec::fanout_probe(cfg.seconds);
    let schema = gen::schema();
    let (inputs, server, mut conn) = set_up(cfg, &spec, SETUPS)?;
    let mut tr = Tracer::new(true);
    let serve = serve_phase(&spec, &inputs, &server, &mut conn, None, &mut tr, report)?;
    drop(conn);
    drop(server);
    let reference = check_results(&inputs, &schema, &spec.queries, &serve, report)?;
    // The replay's own layer entries describe the workload, not the probe.
    let mut replayed = Report::default();
    replay(
        cfg,
        &spec,
        &inputs,
        &schema,
        &reference,
        &mut tr,
        &mut replayed,
    )?;
    report.attempted += replayed.attempted;
    report.failed += replayed.failed;
    report.notes.extend(replayed.notes);

    let frames = serve.ack_ms.len().max(1) as f64;
    let ack_us = serve.ack_total_ns() / 1e3;
    let server_us = server_histogram_us(&serve);
    let engine_us = tr.total_ns("core.stream.feed") / 1e3;
    let sample = |key: &str| serve.after.get(key).copied().unwrap_or(0.0);
    let unattributed = 1.0 - ratio(server_us, ack_us);
    let over_engine = ratio(ack_us, engine_us);
    report.notes.push(format!(
        "fanout.server.unattributed_share = {unattributed:.4} (1 - server histograms {server_us:.0} us / client acks {ack_us:.0} us)"
    ));
    report.notes.push(format!(
        "fanout.serve.over_engine = {over_engine:.3} (client acks {ack_us:.0} us / core.stream.feed {engine_us:.0} us)"
    ));
    report.layer.extend([
        (
            "fanout.feed_rows_per_s",
            serve.rows_fed as f64 / (ack_us / 1e6),
            "rows/s",
        ),
        ("fanout.feed_ack_p50_ms", median(&serve.ack_ms), "ms"),
        (
            "fanout.feed_ack_p90_ms",
            percentile(&serve.ack_ms, 0.9),
            "ms",
        ),
        (
            "fanout.server.fanout_us",
            client::delta(
                &serve.before,
                &serve.after,
                "sqlts_server_fanout_micros_sum",
            ) / frames,
            "us",
        ),
        ("fanout.server.unattributed_share", unattributed, "ratio"),
        (
            "fanout.server.patternset.tests_evaluated",
            sample("sqlts_patternset_tests_evaluated"),
            "count",
        ),
        (
            "fanout.server.patternset.tests_logical",
            sample("sqlts_patternset_tests_logical"),
            "count",
        ),
        ("fanout.core.stream.feed_us", engine_us / frames, "us"),
        (
            "fanout.core.multiplex.feed_us",
            tr.total_ns("core.multiplex.feed") / 1e3 / frames,
            "us",
        ),
        ("fanout.serve.over_engine", over_engine, "ratio"),
    ]);
    Ok(())
}

/// The server's five latency histograms (`_sum`, in microseconds).
const SERVER_HISTOGRAMS: [&str; 5] = [
    "sqlts_server_frame_decode_micros_sum",
    "sqlts_server_fanout_micros_sum",
    "sqlts_server_wal_append_micros_sum",
    "sqlts_server_fsync_micros_sum",
    "sqlts_server_snapshot_micros_sum",
];

/// Microseconds the server's histograms account for during the feed.
fn server_histogram_us(serve: &ServePhase) -> f64 {
    SERVER_HISTOGRAMS
        .iter()
        .map(|key| client::delta(&serve.before, &serve.after, key))
        .sum()
}

// ---------------------------------------------------------------- batch

/// The batch path's passes, run in pairs (one pass at `threads = nproc`,
/// one at `threads = 1`) spread over the feed, so that they sample the
/// host across the whole run.
struct Batch<'a> {
    cfg: &'a Config,
    query: &'a str,
    inputs: &'a Inputs,
    schema: Schema,
    pairs: usize,
    /// Wall time spent in pairs so far.
    spent: Duration,
    rows_per_s: Vec<f64>,
    rows_per_s_1t: Vec<f64>,
    /// The result CSV of the first pair, which every pair must repeat.
    reference: String,
    predicate_tests: u64,
    tuples: u64,
    matches: u64,
    /// Pair wall times (ns) with and without spans, for the tracing
    /// overhead.
    traced_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
}

/// Every query's result as CSV, executed over a CSV document.
fn run_queries(csv: &str, schema: &Schema, queries: &[String]) -> Result<Vec<String>, String> {
    let table = Table::from_csv_str(schema.clone(), csv).map_err(|e| e.to_string())?;
    let opts = exec_options(threads());
    queries
        .iter()
        .map(|q| {
            let cq = compile(q, table.schema(), &CompileOptions::default())
                .map_err(|e| e.to_string())?;
            let r = execute(&cq, &table, &opts).map_err(|e| e.to_string())?;
            Ok(r.table.to_csv_string())
        })
        .collect()
}

fn exec_options(threads: usize) -> ExecOptions {
    ExecOptions {
        threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        ..ExecOptions::default()
    }
}

/// One load → compile → execute → emit pass, each step in its own span.
fn pipeline(
    tr: &mut Tracer,
    req: u64,
    csv: &str,
    schema: &Schema,
    query: &str,
    threads: usize,
) -> Result<(String, sqlts_core::SearchStats), String> {
    let single = threads == 1;
    let root = tr.begin(
        if single {
            "batch.pipeline_1t"
        } else {
            "batch.pipeline"
        },
        req,
    );
    let s = tr.begin("relation.csv.load", req);
    let table = Table::from_csv_str(schema.clone(), csv).map_err(|e| e.to_string())?;
    tr.end(s);
    let s = tr.begin("lang.compile", req);
    let compiled =
        compile(query, table.schema(), &CompileOptions::default()).map_err(|e| e.to_string())?;
    tr.end(s);
    let s = tr.begin(
        if single {
            "core.executor.execute_1t"
        } else {
            "core.executor.execute"
        },
        req,
    );
    let result = execute(&compiled, &table, &exec_options(threads)).map_err(|e| e.to_string())?;
    tr.end(s);
    let s = tr.begin("relation.csv.emit", req);
    let csv = result.table.to_csv_string();
    tr.end(s);
    tr.end(root);
    Ok((csv, result.stats))
}

/// Timed pairs every run makes, however short its batch share.
const MIN_PAIRS: usize = 5;
/// Repetitions of the pattern-set timings a traced run adds.
const LAYER_REPS: u64 = 3;

impl<'a> Batch<'a> {
    fn new(cfg: &'a Config, spec: &'a Spec, inputs: &'a Inputs) -> Batch<'a> {
        Batch {
            cfg,
            query: &spec.queries[0],
            inputs,
            schema: gen::schema(),
            pairs: 0,
            spent: Duration::ZERO,
            rows_per_s: Vec::new(),
            rows_per_s_1t: Vec::new(),
            reference: String::new(),
            predicate_tests: 0,
            tuples: 0,
            matches: 0,
            traced_ns: Vec::new(),
            untraced_ns: Vec::new(),
        }
    }

    /// One pair.  The first warms the allocator and caches and is checked
    /// but not timed; a traced run arms spans on the odd pairs, so spans
    /// come only from timed pairs.
    fn pair(&mut self, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
        let pair = self.pairs;
        let nproc = threads();
        let armed = self.cfg.traced && !pair.is_multiple_of(2);
        tr.set_enabled(armed);
        let csv = &self.inputs.batch_csv;
        let t = Instant::now();
        let (par, stats) = pipeline(tr, pair as u64, csv, &self.schema, self.query, nproc)?;
        let par_time = t.elapsed();
        let t = Instant::now();
        let (one, _) = pipeline(tr, pair as u64, csv, &self.schema, self.query, 1)?;
        let one_time = t.elapsed();
        tr.set_enabled(self.cfg.traced);
        self.spent += par_time + one_time;
        self.pairs += 1;

        report.check(par == one, || {
            format!("pair {pair}: threads={nproc} output differs from threads=1")
        });
        if pair == 0 {
            self.reference = one;
            self.predicate_tests = stats.predicate_tests;
            self.tuples = stats.tuples;
            self.matches = stats.matches;
            return Ok(());
        }
        report.check(par == self.reference, || {
            format!("pair {pair}: output changed between repetitions")
        });
        let rows = self.inputs.batch_rows as f64;
        self.rows_per_s.push(rows / par_time.as_secs_f64());
        self.rows_per_s_1t.push(rows / one_time.as_secs_f64());
        let ns = (par_time + one_time).as_nanos() as f64;
        if armed {
            self.traced_ns.push(ns);
        } else {
            self.untraced_ns.push(ns);
        }
        Ok(())
    }

    /// Run pairs until `budget` of wall time has gone into them.
    fn run_until(
        &mut self,
        budget: Duration,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        while self.spent < budget {
            self.pair(tr, report)?;
        }
        Ok(())
    }

    /// Top up to the warm-up pair plus `MIN_PAIRS` timed ones.
    fn finish(&mut self, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
        while self.pairs <= MIN_PAIRS {
            self.pair(tr, report)?;
        }
        Ok(())
    }
}

/// Repetitions of the split of `execute` a traced run adds.
const ENGINE_REPS: u64 = 7;

/// One repetition of the split of `execute` at one thread, in ms.
struct EngineRep {
    execute_1t: f64,
    cluster_by: f64,
    plan: f64,
    search: f64,
}

impl EngineRep {
    /// What the three steps leave of `execute`: projection and merge.
    fn residual(&self) -> f64 {
        self.execute_1t - self.cluster_by - self.plan - self.search
    }
}

/// Run `f` inside a span and return its result with its wall time in ms.
fn timed<T>(tr: &mut Tracer, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    tr.record(name, start, end, req);
    (out, (end - start).as_secs_f64() * 1e3)
}

/// `execute` at one thread and the steps inside it, timed one by one on
/// the batch table right after it: `CLUSTER BY` partition, plan, and the
/// search over every cluster.  Each repetition times all four back to
/// back, so its residual compares figures taken at the same time.
fn engine_layers(
    inputs: &Inputs,
    query: &str,
    schema: &Schema,
    tr: &mut Tracer,
) -> Result<Vec<EngineRep>, String> {
    let table =
        Table::from_csv_str(schema.clone(), &inputs.batch_csv).map_err(|e| e.to_string())?;
    let cq =
        compile(query, table.schema(), &CompileOptions::default()).map_err(|e| e.to_string())?;
    let cluster_cols: Vec<&str> = cq.cluster_by.iter().map(String::as_str).collect();
    let sequence_cols: Vec<&str> = cq.sequence_by.iter().map(String::as_str).collect();
    let options = SearchOptions::default();
    let one = exec_options(1);
    let mut reps = Vec::new();
    for rep in 0..ENGINE_REPS {
        let root = tr.begin("batch.engine_layers", rep);
        let (result, execute_1t) = timed(tr, "batch.engine_layers.execute_1t", rep, || {
            execute(&cq, &table, &one)
        });
        result.map_err(|e| e.to_string())?;
        let (clusters, cluster_by) = timed(tr, "relation.table.cluster_by", rep, || {
            table.cluster_by(&cluster_cols, &sequence_cols)
        });
        let clusters = clusters.map_err(|e| e.to_string())?;
        let (search_plan, plan) = timed(tr, "core.engine.plan", rep, || {
            plan(&cq.elements, ExecOptions::default().engine)
        });
        let ((), search) = timed(tr, "core.engine.search", rep, || {
            let counter = EvalCounter::new();
            for cluster in &clusters {
                std::hint::black_box(find_matches_with_plan(
                    &cq.elements,
                    cluster,
                    &search_plan,
                    &options,
                    &counter,
                    None,
                ));
            }
        });
        tr.end(root);
        reps.push(EngineRep {
            execute_1t,
            cluster_by,
            plan,
            search,
        });
    }
    Ok(reps)
}

/// `execute_set` over the `SHARED_QUERIES` family against solo `execute`
/// of each member on the batch table; every member must match its solo
/// run exactly.
fn patternset_check(
    cfg: &Config,
    inputs: &Inputs,
    schema: &Schema,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let table =
        Table::from_csv_str(schema.clone(), &inputs.batch_csv).map_err(|e| e.to_string())?;
    let compiled: Vec<CompiledQuery> = gen::shared_queries()
        .iter()
        .map(|q| compile(q, table.schema(), &CompileOptions::default()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let opts = exec_options(1);
    let reps = if cfg.traced { LAYER_REPS } else { 1 };
    for rep in 0..reps {
        let s = tr.begin("core.patternset.solo", rep);
        let solo = compiled
            .iter()
            .map(|cq| execute(cq, &table, &opts))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        tr.end(s);
        let s = tr.begin("core.patternset.execute_set", rep);
        let set = execute_set(&compiled, &table, &opts);
        tr.end(s);
        for (i, (member, alone)) in set.results.iter().zip(&solo).enumerate() {
            let same = member.as_ref().is_ok_and(|m| {
                m.stats == alone.stats && m.table.to_csv_string() == alone.table.to_csv_string()
            });
            report.check(same, || {
                format!("execute_set member {i} differs from its solo execute")
            });
        }
        if rep == 0 {
            let st = &set.stats;
            report.layer.push((
                "core.patternset.tests_evaluated",
                st.tests_evaluated as f64,
                "count",
            ));
            report.layer.push((
                "core.patternset.tests_logical",
                st.tests_logical as f64,
                "count",
            ));
            report.layer.push((
                "core.patternset.evaluated_share",
                ratio(st.tests_evaluated as f64, st.tests_logical as f64),
                "ratio",
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- serve

/// The fewest `UNSUBSCRIBE` round trips a run times.
const RESULT_SAMPLES: usize = 40;
/// The part of the batch time spent between frames; the rest goes between
/// result rounds, so those too are spread out rather than back to back.
const FEED_SHARE: f64 = 0.6;

struct ServePhase {
    ack_ms: Vec<f64>,
    rows_fed: usize,
    result_ms: Vec<f64>,
    results: Vec<String>,
    checkpoint_bytes: usize,
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
}

impl ServePhase {
    /// Total feeder round-trip time: the feed's wall time without the
    /// batch passes run between frames.
    fn ack_total_ns(&self) -> f64 {
        self.ack_ms.iter().sum::<f64>() * 1e6
    }
}

fn serve_phase(
    spec: &Spec,
    inputs: &Inputs,
    server: &Server,
    conn: &mut Client,
    mut batch: Option<&mut Batch<'_>>,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<ServePhase, String> {
    let subs = spec.queries.len();
    let payloads: Vec<String> = inputs
        .frames
        .iter()
        .map(|f| format!("FEED quote\n{f}"))
        .collect();
    let before = client::parse_exposition(&client::scrape(&server.addr)?);
    let mut ack_ms = Vec::with_capacity(payloads.len());
    let mut fed = 0usize;
    if let Some(batch) = batch.as_mut() {
        batch.pair(tr, report)?;
    }
    for (ordinal, (payload, frame)) in payloads.iter().zip(&inputs.frames).enumerate() {
        let req = ordinal as u64;
        let root = tr.begin("serve.feed", req);
        let outcome = conn.request(payload);
        if let Ok((_, t)) = &outcome {
            tr.record("client.write", t.start, t.written, req);
            tr.record("client.wait", t.written, t.first_byte, req);
            tr.record("client.read", t.first_byte, t.done, req);
        }
        tr.end(root);
        let (reply, timing) = match outcome {
            Ok(ok) => ok,
            Err(e) => {
                report.check(false, || format!("FEED {ordinal}: {e}"));
                return Err(format!("feed aborted at frame {ordinal}: {e}"));
            }
        };
        let n = frame.lines().count();
        let want = format!("OK fed {n} subs={subs} rejected=0");
        report.check(reply == want, || format!("FEED {ordinal}: {reply:?}"));
        fed += n;
        ack_ms.push(timing.total_ns() as f64 / 1e6);
        // Batch passes run between requests, while the server is idle, in
        // step with the run's progress: the feed, then the result rounds.
        if let Some(batch) = batch.as_mut() {
            let progress = (ordinal + 1) as f64 / payloads.len() as f64;
            batch.run_until(spec.batch_time.mul_f64(FEED_SHARE * progress), tr, report)?;
        }
    }
    let after = client::parse_exposition(&client::scrape(&server.addr)?);

    let mut checkpoint_bytes = 0;
    let mut checkpoints = Vec::new();
    for i in 0..subs {
        let reply = conn.expect(
            &format!("CHECKPOINT s{i}"),
            &format!("CHECKPOINT s{i}\nsqlts-checkpoint v1\n"),
        );
        report.check(reply.is_ok(), || {
            format!("CHECKPOINT s{i}: {:?}", reply.as_ref().err())
        });
        let text = reply.map_or(String::new(), |(r, _)| r);
        checkpoint_bytes += text.len();
        checkpoints.push(
            text.split_once('\n')
                .map_or(String::new(), |(_, cp)| cp.to_string()),
        );
    }
    // Each subscription's result is fetched once by UNSUBSCRIBE; further
    // samples come from RESUMEs of its checkpoint, each unsubscribed in
    // turn, so every workload times at least RESULT_SAMPLES results.
    let rounds = RESULT_SAMPLES.div_ceil(subs);
    let mut result_ms = Vec::new();
    let mut results = vec![String::new(); subs];
    for round in 0..rounds {
        for (i, q) in spec.queries.iter().enumerate() {
            let id = if round == 0 {
                format!("s{i}")
            } else {
                format!("r{round}s{i}")
            };
            if round > 0 {
                let resumed = conn.expect(
                    &format!("RESUME {id} quote\n{q}\n{}", checkpoints[i]),
                    "OK ",
                );
                report.check(resumed.is_ok(), || {
                    format!("RESUME {id}: {:?}", resumed.as_ref().err())
                });
            }
            let reply = conn.expect(&format!("UNSUBSCRIBE {id}"), &format!("RESULT {id} 0 "));
            report.check(reply.is_ok(), || {
                format!("UNSUBSCRIBE {id}: {:?}", reply.as_ref().err())
            });
            let Ok((text, timing)) = reply else { continue };
            result_ms.push(timing.total_ns() as f64 / 1e6);
            let body = text.split_once('\n').map_or("", |(_, body)| body);
            if round == 0 {
                results[i] = body.to_string();
            } else {
                report.check(body == results[i], || {
                    format!("{id}: resumed RESULT differs from s{i}")
                });
            }
        }
        if let Some(batch) = batch.as_mut() {
            let progress = (round + 1) as f64 / rounds as f64;
            let share = FEED_SHARE + (1.0 - FEED_SHARE) * progress;
            batch.run_until(spec.batch_time.mul_f64(share), tr, report)?;
        }
    }
    if let Some(batch) = batch {
        batch.finish(tr, report)?;
    }
    Ok(ServePhase {
        ack_ms,
        rows_fed: fed,
        result_ms,
        results,
        checkpoint_bytes,
        before,
        after,
    })
}

// ------------------------------------------------------- traced replays

/// Replay the fed frames through each layer's public functions, one span
/// per frame and layer, with the frame ordinal as the request id.
fn replay(
    cfg: &Config,
    spec: &Spec,
    inputs: &Inputs,
    schema: &Schema,
    reference: &[String],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let compiled: Vec<CompiledQuery> = spec
        .queries
        .iter()
        .map(|q| compile(q, schema, &CompileOptions::default()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    // The server's per-subscription options.
    let mut stream = StreamOptions::default();
    stream.exec.instrument = Instrument::profiling();
    let mut sessions: Vec<StreamSession<'_>> = compiled
        .iter()
        .map(|cq| StreamSession::new(cq, stream.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let registry = Arc::new(SetRegistry::new());
    let workers: Vec<SessionWorker> = spec
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut config = SessionWorkerConfig::new(format!("s{i}"), q.clone(), schema.clone());
            config.stream = stream.clone();
            if spec.shared {
                config.shared = Some(SharedSpec {
                    registry: Arc::clone(&registry),
                    origin: 0,
                });
            }
            SessionWorker::spawn(config)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let wal_dir = cfg.out.join(format!(
        "wal-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    let mut wal = if spec.durable {
        let _ = std::fs::remove_dir_all(&wal_dir);
        std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
        Some(
            ChannelWal::create(&wal_dir.join("quote.wal"), FsyncPolicy::Every)
                .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };

    for (ordinal, frame) in inputs.frames.iter().enumerate() {
        let req = ordinal as u64;
        let root = tr.begin("replay.frame", req);
        let s = tr.begin("relation.csv.parse_row", req);
        let rows = frame
            .lines()
            .enumerate()
            .map(|(i, line)| parse_headerless_row(schema, line, i + 1))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        tr.end(s);
        if let Some(wal) = wal.as_mut() {
            let s = tr.begin("server.wal.append", req);
            wal.append(frame, rows.len() as u32)
                .map_err(|e| e.to_string())?;
            tr.end(s);
        }
        let s = tr.begin("core.stream.feed", req);
        for session in &mut sessions {
            for row in &rows {
                session.feed(row.clone()).map_err(|e| e.to_string())?;
            }
        }
        tr.end(s);
        // Row-major over the workers, as the server fans a frame out.
        let s = tr.begin("core.multiplex.feed", req);
        for row in &rows {
            for worker in &workers {
                worker.feed(row.clone()).map_err(|e| e.to_string())?;
            }
        }
        tr.end(s);
        tr.end(root);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);

    let s = tr.begin("core.stream.snapshot", 0);
    let mut snapshot_bytes = 0;
    for session in &mut sessions {
        snapshot_bytes += session
            .snapshot()
            .map_err(|e| e.to_string())?
            .to_text()
            .len();
    }
    tr.end(s);
    report
        .layer
        .push(("core.stream.snapshot_bytes", snapshot_bytes as f64, "bytes"));
    for (i, (worker, want)) in workers.iter().zip(reference).enumerate() {
        let got = worker.finish().map(|r| r.csv);
        report.check(got.as_deref().ok() == Some(want.as_str()), || {
            format!("replayed SessionWorker s{i} differs from batch")
        });
    }
    Ok(())
}

fn layer_metrics(
    batch: &Batch<'_>,
    serve: &ServePhase,
    engine: &[EngineRep],
    tr: &Tracer,
    report: &mut Report,
) {
    let ms = |name: &str| median(&tr.durations(name)) / 1e6;
    let us = |name: &str| median(&tr.durations(name)) / 1e3;
    let frames = serve.ack_ms.len().max(1) as f64;
    let per_frame_us = |name: &str| tr.total_ns(name) / 1e3 / frames;

    let execute = ms("core.executor.execute");
    let execute_1t = ms("core.executor.execute_1t");
    let cluster_by = ms("relation.table.cluster_by");
    let plan_ms = ms("core.engine.plan");
    let search = ms("core.engine.search");
    let split = |f: fn(&EngineRep) -> f64| median(&engine.iter().map(f).collect::<Vec<_>>());
    let residual = split(EngineRep::residual);
    report.notes.push(format!(
        "core.executor.residual_ms = {residual:.3} (median over {} reps of execute_1t - cluster_by - plan - search; medians {:.3} - {:.3} - {:.4} - {:.3} ms)",
        engine.len(),
        split(|r| r.execute_1t),
        split(|r| r.cluster_by),
        split(|r| r.plan),
        split(|r| r.search)
    ));
    let speedup = ratio(execute_1t, execute);
    report.notes.push(format!(
        "core.executor.parallel_speedup = {speedup:.3} (execute_1t_ms {execute_1t:.3} / execute_ms {execute:.3})"
    ));

    let delta = |key: &str| client::delta(&serve.before, &serve.after, key);
    let server_us = server_histogram_us(serve);
    let ack_us = serve.ack_total_ns() / 1e3;
    let unattributed = 1.0 - ratio(server_us, ack_us);
    report.notes.push(format!(
        "server.unattributed_share = {unattributed:.4} (1 - server histograms {server_us:.0} us / client acks {ack_us:.0} us)"
    ));
    let engine_us = tr.total_ns("core.stream.feed") / 1e3;
    let over_engine = ratio(ack_us, engine_us);
    report.notes.push(format!(
        "serve.over_engine = {over_engine:.3} (client acks {ack_us:.0} us / core.stream.feed {engine_us:.0} us)"
    ));
    let set_ms = ms("core.patternset.execute_set");
    let solo_ms = ms("core.patternset.solo");
    report.notes.push(format!(
        "core.patternset: execute_set_ms {set_ms:.3} vs solo_ms {solo_ms:.3} (ratio {:.3})",
        ratio(set_ms, solo_ms)
    ));
    let traced = median(&batch.traced_ns);
    let untraced = median(&batch.untraced_ns);
    let overhead = ratio(traced - untraced, untraced);
    report.notes.push(format!(
        "trace.overhead_share = {overhead:.4} (batch pair median traced {:.3} ms vs untraced {:.3} ms)",
        traced / 1e6,
        untraced / 1e6
    ));
    report.layer.extend([
        ("relation.csv.load_ms", ms("relation.csv.load"), "ms"),
        ("relation.csv.emit_ms", ms("relation.csv.emit"), "ms"),
        ("lang.compile_us", us("lang.compile"), "us"),
        ("core.engine.plan_us", plan_ms * 1e3, "us"),
        ("relation.table.cluster_by_ms", cluster_by, "ms"),
        ("core.engine.search_ms", search, "ms"),
        ("core.executor.execute_ms", execute, "ms"),
        ("core.executor.execute_1t_ms", execute_1t, "ms"),
        ("core.executor.residual_ms", residual, "ms"),
        ("core.executor.parallel_speedup", speedup, "ratio"),
        (
            "core.engine.predicate_tests",
            batch.predicate_tests as f64,
            "count",
        ),
        (
            "core.engine.tests_per_tuple",
            ratio(batch.predicate_tests as f64, batch.tuples as f64),
            "ratio",
        ),
        ("core.engine.matches", batch.matches as f64, "count"),
        ("core.patternset.execute_set_ms", set_ms, "ms"),
        ("core.patternset.solo_ms", solo_ms, "ms"),
        ("client.write_us", us("client.write"), "us"),
        ("client.wait_ms", ms("client.wait"), "ms"),
        ("client.read_us", us("client.read"), "us"),
        (
            "server.frame_decode_us",
            delta("sqlts_server_frame_decode_micros_sum") / frames,
            "us",
        ),
        (
            "server.fanout_us",
            delta("sqlts_server_fanout_micros_sum") / frames,
            "us",
        ),
        (
            "server.wal_append_us",
            delta("sqlts_server_wal_append_micros_sum") / frames,
            "us",
        ),
        (
            "server.fsync_us",
            delta("sqlts_server_fsync_micros_sum") / frames,
            "us",
        ),
        (
            "server.fsync_count",
            delta("sqlts_server_fsync_micros_count"),
            "count",
        ),
        (
            "server.snapshot_us",
            delta("sqlts_server_snapshot_micros_sum") / frames,
            "us",
        ),
        (
            "server.snapshot_count",
            delta("sqlts_server_snapshot_micros_count"),
            "count",
        ),
        ("server.unattributed_share", unattributed, "ratio"),
        (
            "relation.csv.parse_row_us",
            tr.total_ns("relation.csv.parse_row") / 1e3 / serve.rows_fed.max(1) as f64,
            "us",
        ),
        (
            "core.stream.feed_us",
            per_frame_us("core.stream.feed"),
            "us",
        ),
        (
            "core.multiplex.feed_us",
            per_frame_us("core.multiplex.feed"),
            "us",
        ),
        (
            "server.wal.append_us",
            per_frame_us("server.wal.append"),
            "us",
        ),
        (
            "core.stream.snapshot_us",
            tr.total_ns("core.stream.snapshot") / 1e3,
            "us",
        ),
        ("serve.over_engine", over_engine, "ratio"),
        ("trace.overhead_share", overhead, "ratio"),
    ]);
}

fn write_spans(cfg: &Config, tr: &Tracer, report: &mut Report) {
    let path = cfg.out.join(format!(
        "spans-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        tr.write_jsonl(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match written {
        Ok(()) => report.notes.push(format!(
            "spans: {} written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => report
            .notes
            .push(format!("spans: could not write {}: {e}", path.display())),
    }
    report
        .notes
        .push("self time per span (count, total ms):".into());
    for (name, (count, ns)) in tr.self_times() {
        report
            .notes
            .push(format!("  {name:<34} {count:>6} {:>12.3}", ns / 1e6));
    }
}
