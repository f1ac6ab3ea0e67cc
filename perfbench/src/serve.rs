//! The `serve-rw` workload: open-loop Poisson reads with interleaved edge churn over one
//! TCP connection to a `PathServer` in front of a durable `PathService`.
//!
//! Reads are `PATHS … LIMIT 4`, `EXISTS` and `COUNT … LIMIT 64` over a seeded endpoint
//! pool. After every 16th read comes `DELETE EDGE u v` and, immediately, `INSERT EDGE u v`,
//! both due with that read, so the graph returns to its base state. Latency runs from
//! the moment a request was *due*, so a stalled sender charges its wait to every request
//! queued behind it.

use crate::layers::{put_layer_metrics, ServeLayers};
use crate::stages::{traced_batch, StageReport};
use crate::trace::Tracer;
use crate::util::{median, mix, peak_rss_mb, quantile, ratio, reset_peak_rss, Checked, Metrics};
use crate::Args;
use hcsp_core::{Algorithm, BatchEngine, PathQuery, QueryResponse, QuerySpec, ResultMode};
use hcsp_graph::{DiGraph, GraphUpdate, VertexId};
use hcsp_server::frame::{
    client_handshake, read_frame, write_frame, Request, Response, MAX_FRAME_LEN,
};
use hcsp_server::{parse, PathServer, ServerConfig};
use hcsp_service::{BatchPolicy, DurabilityOptions, FsyncPolicy, PathService, ServiceStats};
use hcsp_workload::{random_query_set, ArrivalProcess, Dataset, DatasetScale, QuerySetSpec};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Endpoint pairs in the read pool.
const POOL: usize = 256;
/// Reads between two delete/insert pairs.
const READS_PER_CHURN: usize = 16;
/// Read p99 limit behind `max_qps`.
const P99_LIMIT_MS: f64 = 100.0;
/// A request this late ends its ladder rung early (the rung has failed).
const ABORT_LATE: Duration = Duration::from_secs(2);
/// The low and high read rates, reads per second.
const LOW: f64 = 200.0;
const HIGH: f64 = 400.0;
/// Rungs of the `max_qps` ladder above the high rate, reads per second.
const LADDER: [f64; 3] = [800.0, 1600.0, 3200.0];
/// Reads per window of a windowed p99 (each window's p99 has ten samples beyond it).
const P99_WINDOW: usize = 1000;
/// Service set-ups per run; `setup_s` is their median and the first one is measured.
const SETUP_REPEATS: usize = 7;
/// Warm-up passes over the pool before timing.
const WARMUP_PASSES: usize = 3;
/// Micro-batch size of the traced core pass over the pool.
const TRACED_MICRO_BATCH: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Paths,
    Exists,
    Count,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Read { pool: usize, verb: Verb },
    Write(GraphUpdate),
}

/// One scheduled request.
struct Op {
    due: Duration,
    kind: Kind,
    text: String,
}

/// A decoded reply.
enum Body {
    Exists(bool),
    Count(u64),
    Paths(Vec<Vec<u32>>),
    Update(u64),
    Error,
}

/// When one request was due, sent, first answered and fully answered.
struct Timing {
    due: Instant,
    sent: Instant,
    first: Instant,
    end: Instant,
    body: Body,
}

impl Timing {
    fn latency_ms(&self) -> f64 {
        self.end.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// The read pool, its base-graph answers and the edges the churn toggles.
struct Pool {
    graph: DiGraph,
    queries: Vec<PathQuery>,
    /// Path count of each pool query on the base graph, saturated at 64.
    count64: Vec<u64>,
    edges: Vec<(u32, u32)>,
}

impl Pool {
    fn new(graph: DiGraph, seed: u64) -> Pool {
        let queries = random_query_set(
            &graph,
            QuerySetSpec::new(POOL, mix(seed, 1)).with_hops(3, 5),
        );
        let specs: Vec<QuerySpec> = queries
            .iter()
            .map(|&q| QuerySpec::count(q).with_path_budget(64))
            .collect();
        let count64 = BatchEngine::with_algorithm(Algorithm::BasicEnumPlus)
            .run_specs(&graph, &specs)
            .responses
            .iter()
            .map(|r| r.count().unwrap_or(0))
            .collect();
        let all: Vec<(u32, u32)> = graph.edges().map(|(u, v)| (u.0, v.0)).collect();
        let edges = (0..POOL as u64)
            .map(|i| all[(mix(seed, 1000 + i) % all.len() as u64) as usize])
            .collect();
        Pool {
            graph,
            queries,
            count64,
            edges,
        }
    }

    fn spec(&self, pool: usize, verb: Verb) -> QuerySpec {
        let q = self.queries[pool];
        match verb {
            Verb::Paths => QuerySpec::first_k(q, 4),
            Verb::Exists => QuerySpec::exists(q),
            Verb::Count => QuerySpec::count(q).with_path_budget(64),
        }
    }

    /// Every pool query in every verb (the warm-up set).
    fn all_specs(&self) -> Vec<QuerySpec> {
        (0..self.queries.len())
            .flat_map(|p| [Verb::Paths, Verb::Exists, Verb::Count].map(|v| self.spec(p, v)))
            .collect()
    }

    /// `rate` reads per second for `seconds`, churn pairs due with every 16th read.
    fn schedule(&self, rate: f64, seconds: f64, seed: u64) -> Vec<Op> {
        let reads = ((rate * seconds).round() as usize).max(READS_PER_CHURN);
        let offsets = ArrivalProcess::Poisson { rate_qps: rate }.offsets(reads, seed);
        let mut ops = Vec::with_capacity(reads + reads / 8);
        for (i, due) in offsets.into_iter().enumerate() {
            let r = mix(seed, i as u64);
            let pool = (r % self.queries.len() as u64) as usize;
            let q = self.queries[pool];
            let (s, t, k) = (q.source.0, q.target.0, q.hop_limit);
            let (verb, text) = match (r >> 32) % 3 {
                0 => (
                    Verb::Paths,
                    format!("PATHS FROM {s} TO {t} WITHIN {k} LIMIT 4"),
                ),
                1 => (Verb::Exists, format!("EXISTS FROM {s} TO {t} WITHIN {k}")),
                _ => (
                    Verb::Count,
                    format!("COUNT FROM {s} TO {t} WITHIN {k} LIMIT 64"),
                ),
            };
            ops.push(Op {
                due,
                kind: Kind::Read { pool, verb },
                text,
            });
            if i % READS_PER_CHURN == READS_PER_CHURN - 1 {
                let (u, v) = self.edges[(r >> 16) as usize % self.edges.len()];
                let (a, b) = (VertexId(u), VertexId(v));
                ops.push(Op {
                    due,
                    kind: Kind::Write(GraphUpdate::Delete(a, b)),
                    text: format!("DELETE EDGE {u} {v}"),
                });
                ops.push(Op {
                    due,
                    kind: Kind::Write(GraphUpdate::Insert(a, b)),
                    text: format!("INSERT EDGE {u} {v}"),
                });
            }
        }
        ops
    }

    /// Whether `body` is a correct answer to a pool spec on the base graph.
    fn check_spec(&self, spec: &QuerySpec, body: &Body) -> bool {
        let Some(pool) = self.queries.iter().position(|q| *q == spec.query) else {
            return false;
        };
        let verb = match spec.mode {
            ResultMode::Exists => Verb::Exists,
            ResultMode::FirstK(_) => Verb::Paths,
            _ => Verb::Count,
        };
        self.check(&Kind::Read { pool, verb }, body)
    }

    /// Whether `body` is a correct answer to `kind` on the base graph.
    fn check(&self, kind: &Kind, body: &Body) -> bool {
        match (kind, body) {
            (Kind::Read { pool, verb }, body) => {
                let expected = self.count64[*pool];
                match (verb, body) {
                    (Verb::Exists, Body::Exists(b)) => *b == (expected > 0),
                    (Verb::Count, Body::Count(c)) => *c == expected,
                    (Verb::Paths, Body::Paths(paths)) => {
                        paths.len() as u64 == expected.min(4) && self.valid_paths(*pool, paths)
                    }
                    _ => false,
                }
            }
            (Kind::Write(_), Body::Update(applied)) => *applied == 1,
            (Kind::Write(_), _) => false,
        }
    }

    /// Distinct simple `s`-`t` paths of at most `k` hops over base-graph edges.
    fn valid_paths(&self, pool: usize, paths: &[Vec<u32>]) -> bool {
        let q = self.queries[pool];
        let mut seen = std::collections::BTreeSet::new();
        paths.iter().all(|p| {
            let mut vertices = p.clone();
            vertices.sort_unstable();
            vertices.dedup();
            p.first() == Some(&q.source.0)
                && p.last() == Some(&q.target.0)
                && p.len() <= q.hop_limit as usize + 1
                && vertices.len() == p.len()
                && p.windows(2)
                    .all(|e| self.graph.has_edge(VertexId(e[0]), VertexId(e[1])))
                && seen.insert(p.clone())
        })
    }
}

/// A started service behind a bound server, with its write-ahead-log directory.
struct Deployment {
    service: Arc<PathService>,
    server: PathServer,
    dir: PathBuf,
}

impl Deployment {
    /// The workload's set-up, timed: build the graph, start the durable service and its
    /// server in `dir`, and warm every worker's index over the pool.
    fn start(pool: &Pool, dir: PathBuf) -> (Deployment, f64) {
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let graph = Dataset::BS.build(DatasetScale::Small);
        let service = PathService::builder()
            .workers(2)
            .policy(BatchPolicy::default())
            .durability(DurabilityOptions::directory(&dir).fsync(FsyncPolicy::Always))
            .start(graph)
            .expect("a fresh durable service starts in an empty directory");
        let service = Arc::new(service);
        let server = PathServer::bind(
            Arc::clone(&service),
            ("127.0.0.1", 0),
            ServerConfig::default(),
        )
        .expect("bind a loopback port");
        // Warm every worker's cached index over the pool: which worker takes which
        // micro-batch is not under our control, so submit the whole pool several times.
        // An existence probe is enough to make a worker index its endpoints.
        for _ in 0..WARMUP_PASSES {
            let handles: Vec<_> = pool
                .queries
                .iter()
                .map(|&q| {
                    service
                        .try_submit_spec(QuerySpec::exists(q))
                        .expect("pool endpoints are in range")
                })
                .collect();
            for h in handles {
                h.wait_result().expect("warm-up query answered");
            }
        }
        (
            Deployment {
                service,
                server,
                dir,
            },
            start.elapsed().as_secs_f64(),
        )
    }

    fn stop(self) {
        self.server.shutdown();
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One decoded response frame: a chunk of a streamed `PATHS` answer, or the end of an
/// answer (`None` for `PathsDone`, whose body is the chunks streamed before it).
enum Frame {
    Chunk(Vec<Vec<u32>>),
    Done(Option<Body>),
}

fn decode(payload: &[u8]) -> Frame {
    match Response::decode(payload) {
        Ok(Response::Exists { exists, .. }) => Frame::Done(Some(Body::Exists(exists))),
        Ok(Response::Count { count, .. }) => Frame::Done(Some(Body::Count(count))),
        Ok(Response::PathChunk { paths, .. }) => Frame::Chunk(paths),
        Ok(Response::PathsDone { .. }) => Frame::Done(None),
        Ok(Response::UpdateDone { applied, .. }) => Frame::Done(Some(Body::Update(applied))),
        Ok(Response::Error { .. }) | Err(_) => Frame::Done(Some(Body::Error)),
    }
}

/// Replays `ops` over one TCP connection: one sender thread paces requests to their due
/// times, this thread reads the replies (the server answers in order). Stops sending
/// once a reply arrives `ABORT_LATE` after it was due. Returns the completed requests.
fn drive_tcp(addr: SocketAddr, ops: &[Op]) -> Vec<Timing> {
    let mut stream = TcpStream::connect(addr).expect("connect to the loopback server");
    let _ = stream.set_nodelay(true);
    client_handshake(&mut stream).expect("protocol handshake");
    let write_half = stream.try_clone().expect("clone the socket");
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Instant>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut out = Vec::with_capacity(ops.len());
    std::thread::scope(|scope| {
        let abort = &abort;
        scope.spawn(move || {
            let mut writer = BufWriter::new(write_half);
            for (i, op) in ops.iter().enumerate() {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let due = start + op.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let frame = Request::Statement {
                    id: i as u64 + 1,
                    text: op.text.clone(),
                }
                .encode();
                if write_frame(&mut writer, &frame)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break;
                }
                if tx.send(Instant::now()).is_err() {
                    break;
                }
            }
        });
        let mut reader = BufReader::new(stream);
        for op in ops {
            let Ok(sent) = rx.recv() else { break };
            let mut first = None;
            let mut paths = Vec::new();
            let body = loop {
                let Ok(payload) = read_frame(&mut reader, MAX_FRAME_LEN) else {
                    break Body::Error;
                };
                first.get_or_insert_with(Instant::now);
                match decode(&payload) {
                    Frame::Chunk(chunk) => paths.extend(chunk),
                    Frame::Done(Some(body)) => break body,
                    Frame::Done(None) => break Body::Paths(std::mem::take(&mut paths)),
                }
            };
            let end = Instant::now();
            let due = start + op.due;
            if matches!(body, Body::Error) || end.saturating_duration_since(due) > ABORT_LATE {
                abort.store(true, Ordering::Relaxed);
            }
            out.push(Timing {
                due,
                sent,
                first: first.unwrap_or(end),
                end,
                body,
            });
        }
        // Unblock the sender if it is still pacing requests nobody will read.
        abort.store(true, Ordering::Relaxed);
        drop(rx);
    });
    out
}

fn body_of(response: QueryResponse) -> Body {
    match response {
        QueryResponse::Exists(b) => Body::Exists(b),
        QueryResponse::Count(c) => Body::Count(c),
        QueryResponse::Paths(set) => Body::Paths(
            set.iter()
                .map(|p| p.iter().map(|v| v.0).collect())
                .collect(),
        ),
    }
}

/// The same schedule in-process, through `try_submit_spec`/`try_update` and the returned
/// handles' `wait_result`: the TCP run minus the server. Also returns each update's
/// acknowledgement time (the `try_update` call, which returns after its fsync) and each
/// read's admission-queue wait, both in ms.
fn drive_inprocess(
    service: &PathService,
    pool: &Pool,
    ops: &[Op],
) -> (Vec<Timing>, Vec<f64>, Vec<f64>) {
    enum Pending {
        Read(hcsp_service::SpecHandle),
        Write(hcsp_service::UpdateHandle),
        Refused,
    }
    let (tx, rx) = mpsc::channel::<(Instant, Pending)>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut acks = Vec::new();
    let mut waits = Vec::new();
    let mut out = Vec::with_capacity(ops.len());
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut acks = Vec::new();
            for op in ops {
                let due = start + op.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let pending = match op.kind {
                    Kind::Read { pool: p, verb } => service
                        .try_submit_spec(pool.spec(p, verb))
                        .map_or(Pending::Refused, Pending::Read),
                    Kind::Write(update) => {
                        let t0 = Instant::now();
                        let handle = service.try_update(vec![update]);
                        acks.push(t0.elapsed().as_secs_f64() * 1e3);
                        handle.map_or(Pending::Refused, Pending::Write)
                    }
                };
                if tx.send((Instant::now(), pending)).is_err() {
                    break;
                }
            }
            acks
        });
        for op in ops {
            let Ok((sent, pending)) = rx.recv() else {
                break;
            };
            let body = match pending {
                Pending::Read(h) => match h.wait_result() {
                    Ok(result) => {
                        waits.push(result.queue_wait.as_secs_f64() * 1e3);
                        body_of(result.response)
                    }
                    Err(_) => Body::Error,
                },
                Pending::Write(h) => h
                    .wait_result()
                    .map_or(Body::Error, |s| Body::Update(s.applied as u64)),
                Pending::Refused => Body::Error,
            };
            let end = Instant::now();
            out.push(Timing {
                due: start + op.due,
                sent,
                first: end,
                end,
                body,
            });
        }
        acks = sender.join().expect("the in-process sender does not panic");
    });
    (out, acks, waits)
}

/// Latency figures of one replayed schedule.
struct Phase {
    reads_ms: Vec<f64>,
    writes_ms: Vec<f64>,
    late_ms: Vec<f64>,
    first_chunk_ms: Vec<f64>,
    /// Completed reads per second, from the start to the last read's reply.
    achieved_qps: f64,
    /// Met the p99 limit to the end, with every request answered.
    passed: bool,
}

impl Phase {
    /// The p99 of each consecutive window of `P99_WINDOW` reads (at least one window).
    fn window_p99_ms(&self) -> Vec<f64> {
        let windows = (self.reads_ms.len() / P99_WINDOW).max(1);
        let size = self.reads_ms.len().div_ceil(windows).max(1);
        self.reads_ms
            .chunks(size)
            .map(|w| quantile(w, 0.99))
            .collect()
    }
}

fn summarize(pool: &Pool, ops: &[Op], timings: &[Timing], checked: &mut Checked) -> Phase {
    let mut phase = Phase {
        reads_ms: Vec::new(),
        writes_ms: Vec::new(),
        late_ms: Vec::new(),
        first_chunk_ms: Vec::new(),
        achieved_qps: 0.0,
        passed: timings.len() == ops.len(),
    };
    let origin = timings.first().map(|t| t.due - ops[0].due);
    let mut last_read_end = None;
    for (op, t) in ops.iter().zip(timings) {
        checked.record(pool.check(&op.kind, &t.body));
        phase
            .late_ms
            .push(t.sent.saturating_duration_since(t.due).as_secs_f64() * 1e3);
        match op.kind {
            Kind::Read { verb, .. } => {
                phase.reads_ms.push(t.latency_ms());
                last_read_end = Some(t.end);
                if verb == Verb::Paths {
                    phase
                        .first_chunk_ms
                        .push(t.first.saturating_duration_since(t.due).as_secs_f64() * 1e3);
                }
            }
            Kind::Write(_) => phase.writes_ms.push(t.latency_ms()),
        }
    }
    if let (Some(origin), Some(end)) = (origin, last_read_end) {
        let span = end.saturating_duration_since(origin).as_secs_f64();
        phase.achieved_qps = ratio(phase.reads_ms.len() as f64, span);
    }
    let tail = &phase.reads_ms[phase.reads_ms.len() * 3 / 4..];
    phase.passed &= quantile(&phase.reads_ms, 0.99) <= P99_LIMIT_MS
        && quantile(tail, 0.99) <= P99_LIMIT_MS
        && timings.iter().all(|t| !matches!(t.body, Body::Error));
    phase
}

/// Service counter deltas over one timed interval.
struct ServiceDelta {
    queue_wait_mean_ms: f64,
    exec_ms_per_query: f64,
    batch_size_mean: f64,
    pinned_behind_ratio: f64,
    fsyncs_per_update: f64,
}

impl ServiceDelta {
    fn between(before: &ServiceStats, after: &ServiceStats) -> ServiceDelta {
        let queries = (after.num_queries - before.num_queries) as f64;
        let batches = (after.num_batches - before.num_batches) as f64;
        let ms = |a: Duration, b: Duration| (a - b).as_secs_f64() * 1e3;
        ServiceDelta {
            queue_wait_mean_ms: ratio(ms(after.total_queue_wait, before.total_queue_wait), queries),
            exec_ms_per_query: ratio(ms(after.total_exec_time, before.total_exec_time), queries),
            batch_size_mean: ratio(queries, batches),
            pinned_behind_ratio: ratio(
                (after.batches_pinned_behind - before.batches_pinned_behind) as f64,
                batches,
            ),
            fsyncs_per_update: ratio(
                (after.group_commit_batches - before.group_commit_batches) as f64,
                (after.update_batches - before.update_batches) as f64,
            ),
        }
    }
}

/// Mean time of `hcsp_server::parse` per statement, in µs.
fn parse_us(ops: &[Op]) -> f64 {
    let start = Instant::now();
    let mut parsed = 0usize;
    while parsed == 0 || start.elapsed() < Duration::from_millis(100) {
        for op in ops {
            std::hint::black_box(parse(std::hint::black_box(&op.text)).is_ok());
        }
        parsed += ops.len();
    }
    ratio(start.elapsed().as_secs_f64() * 1e6, parsed as f64)
}

pub fn run(args: &Args) -> (Metrics, Checked) {
    // The pool's base-graph answers are computed once, outside the timed set-up.
    let pool = Pool::new(Dataset::BS.build(DatasetScale::Small), args.seed);
    let wal_dir = |i: usize| args.out_dir.join(format!("wal-{}-{i}", std::process::id()));
    let (deployment, first_setup_s) = Deployment::start(&pool, wal_dir(0));
    eprintln!(
        "graph BS analog: {} vertices, {} edges; set-up {first_setup_s:.4} s",
        pool.graph.num_vertices(),
        pool.graph.num_edges()
    );
    reset_peak_rss();
    let mut checked = Checked::default();
    let mut metrics = Metrics::default();
    if args.trace {
        traced(args, &pool, &deployment, &mut checked, &mut metrics);
        deployment.stop();
        return (metrics, checked);
    }
    let ops = pool.schedule(HIGH, args.seconds, mix(args.seed, 10));
    let high = summarize(
        &pool,
        &ops,
        &drive_tcp(deployment.server.local_addr(), &ops),
        &mut checked,
    );
    let peak_rss = peak_rss_mb();
    deployment.stop();
    eprintln!(
        "{HIGH} reads/s: {} reads, p50 {:.3} ms, p99 {:.3} ms (per window {:?}), achieved {:.1}/s, late p99 {:.3} ms",
        high.reads_ms.len(),
        median(&high.reads_ms),
        quantile(&high.reads_ms, 0.99),
        high.window_p99_ms(),
        high.achieved_qps,
        quantile(&high.late_ms, 0.99),
    );
    // The remaining set-ups run after the measurement, so their garbage does not count
    // in its peak memory.
    let mut setup_s = vec![first_setup_s];
    for i in 1..SETUP_REPEATS {
        let (again, seconds) = Deployment::start(&pool, wal_dir(i));
        again.stop();
        setup_s.push(seconds);
    }
    eprintln!("set-ups {setup_s:?}");
    metrics.put("queries_per_s", high.achieved_qps, "1/s");
    metrics.put("query_p50_ms", median(&high.reads_ms), "ms");
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("peak_rss_mb", peak_rss, "MB");
    (metrics, checked)
}

/// The traced run. Phases, as shares of the run's seconds: the low rate (0.15), the high
/// rate untraced (0.25, the reference for `trace.overhead`) and traced (0.25, with the
/// service's counter deltas), the traced schedule replayed in-process (0.25), the ladder
/// above the high rate (0.1 per rung, up to the first that misses the limit), and a
/// traced pass of the core stages over the pool in small micro-batches.
fn traced(
    args: &Args,
    pool: &Pool,
    deployment: &Deployment,
    checked: &mut Checked,
    metrics: &mut Metrics,
) {
    let addr = deployment.server.local_addr();
    let service = &deployment.service;
    let r = args.seconds;
    let mut serve = ServeLayers::default();
    let mut tracer = Tracer::new();

    let ops = pool.schedule(LOW, 0.15 * r, mix(args.seed, 20));
    let low = summarize(pool, &ops, &drive_tcp(addr, &ops), checked);
    serve.read_p50_ms_low = median(&low.reads_ms);
    serve.read_p99_ms_low = median(&low.window_p99_ms());

    let ops = pool.schedule(HIGH, 0.25 * r, mix(args.seed, 21));
    let reference = summarize(pool, &ops, &drive_tcp(addr, &ops), checked);
    serve.read_p99_ms_high = median(&reference.window_p99_ms());

    let ops = pool.schedule(HIGH, 0.25 * r, mix(args.seed, 22));
    let before = service.stats();
    let timings = drive_tcp(addr, &ops);
    let after = service.stats();
    for (i, t) in timings.iter().enumerate() {
        let request = tracer.record("request", None, i as u64, t.due, t.end);
        tracer.record(
            "client.wait_to_send",
            Some(request),
            i as u64,
            t.due,
            t.sent,
        );
        tracer.record(
            "server.to_first_frame",
            Some(request),
            i as u64,
            t.sent,
            t.first,
        );
        tracer.record("server.stream", Some(request), i as u64, t.first, t.end);
    }
    let high = summarize(pool, &ops, &timings, checked);
    let delta = ServiceDelta::between(&before, &after);
    serve.queue_wait_mean_ms = delta.queue_wait_mean_ms;
    serve.exec_ms_per_query = delta.exec_ms_per_query;
    serve.batch_size_mean = delta.batch_size_mean;
    serve.pinned_behind_ratio = delta.pinned_behind_ratio;
    serve.fsyncs_per_update = delta.fsyncs_per_update;
    serve.first_chunk_ms = median(&high.first_chunk_ms);
    serve.gen_late_p99_ms = quantile(&high.late_ms, 0.99);
    let writes: Vec<f64> = reference
        .writes_ms
        .iter()
        .chain(&high.writes_ms)
        .copied()
        .collect();
    serve.write_p50_ms_high = median(&writes);
    serve.write_p99_ms_high = quantile(&writes, 0.99);
    serve.parse_us = parse_us(&ops);

    let (timings, acks, waits) = drive_inprocess(service, pool, &ops);
    for (i, t) in timings.iter().enumerate() {
        tracer.record("inprocess.request", None, i as u64, t.due, t.end);
    }
    let inprocess = summarize(pool, &ops, &timings, checked);
    serve.server_overhead_ms = median(&high.reads_ms) - median(&inprocess.reads_ms);
    serve.update_ack_ms = median(&acks);
    serve.queue_wait_max_ms = waits.iter().copied().fold(0.0, f64::max);

    serve.max_qps = if high.passed { high.achieved_qps } else { 0.0 };
    for (rung, &rate) in LADDER.iter().enumerate() {
        let ops = pool.schedule(rate, 0.1 * r, mix(args.seed, 30 + rung as u64));
        let phase = summarize(pool, &ops, &drive_tcp(addr, &ops), checked);
        eprintln!(
            "ladder {rate} reads/s: p99 {:.3} ms, achieved {:.1}/s, {}",
            quantile(&phase.reads_ms, 0.99),
            phase.achieved_qps,
            if phase.passed {
                "passed"
            } else {
                "missed the limit"
            }
        );
        if !phase.passed {
            break;
        }
        serve.max_qps = phase.achieved_qps;
    }

    // The core stages on the serving shape: the pool's reads in small micro-batches.
    let specs = pool.all_specs();
    let mut core = StageReport::default();
    let mut batches = 0.0;
    for (j, chunk) in specs.chunks(TRACED_MICRO_BATCH).enumerate() {
        let (report, responses) =
            traced_batch(&mut tracer, 1_000_000 + j as u64, &pool.graph, chunk);
        core.accumulate(&report);
        batches += 1.0;
        for (spec, response) in chunk.iter().zip(responses) {
            checked.record(pool.check_spec(spec, &body_of(response)));
        }
    }
    let overhead = median(&high.reads_ms) / median(&reference.reads_ms) - 1.0;
    eprintln!(
        "low p50 {:.3} ms; high p50 untraced {:.3} / traced {:.3} / in-process {:.3} ms; {} writes; max_qps {:.1}",
        serve.read_p50_ms_low,
        median(&reference.reads_ms),
        median(&high.reads_ms),
        median(&inprocess.reads_ms),
        writes.len(),
        serve.max_qps
    );
    put_layer_metrics(metrics, &core, batches, &serve, overhead);
    tracer.save(args);
}
