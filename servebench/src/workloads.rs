//! The four workloads, end to end: set the served index up, drive it over loopback TCP,
//! check every answer, and reduce the request log to the end-to-end metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Value;
use usp_index::{PartitionIndex, SearchResult};
use usp_linalg::{rng as lrng, Matrix};

use crate::client::{Check, Op, Outcome, Pace, RunLog, WireClient};
use crate::fixture::{open_wal, Engine, Fixture, ScratchFile, Served};
use crate::report::{obj, Metric, RunResult};
use crate::spec::{
    FixtureSpec, Shape, WorkloadSpec, CLOSED_WINDOW, END_TO_END, IDENTITY_SAMPLE, OPEN_REPORT_RUNG,
    OPEN_RUNG_SHARE, SLO_LIMIT_MS, SLO_SHARE, WRITE_EVERY,
};
use crate::stats::{fast_mean, fast_mean_of, percentile, sort, time_windows, Window, WINDOW_NS};

pub struct RunConfig {
    pub workload: &'static WorkloadSpec,
    pub fixture: FixtureSpec,
    pub seed: u64,
    pub seconds: f64,
    /// Where the WAL, the spans and the run records go.
    pub out_dir: PathBuf,
    pub setup_repeats: usize,
}

/// One complete set-up: data, router, index, engine, ingress, a connected client.
pub struct Ready {
    pub fx: Fixture,
    pub engine: Engine,
    pub served: Served,
    pub client: WireClient,
    pub wal: Option<ScratchFile>,
}

/// Everything `setup_s` times: generate, k'-NN, train, build (+ PQ fit and encode, shard
/// build, WAL attach), spawn the ingress, warm it up over the wire.
pub fn set_up(cfg: &RunConfig) -> Ready {
    serve_fixture(Fixture::prepare(&cfg.fixture, cfg.seed), cfg)
}

/// The part of the set-up after training: build the workload's index and engine, serve
/// it, connect, warm up.
pub fn serve_fixture(mut fx: Fixture, cfg: &RunConfig) -> Ready {
    let wal = (cfg.workload.shape == Shape::MixedWal)
        .then(|| ScratchFile::new(&cfg.out_dir, cfg.workload.name));
    let index = fx.build_for(cfg.workload, wal.as_ref().map(|w| w.0.as_path()));
    let engine = fx.engine_for(cfg.workload, index);
    let served = engine.serve(fx.options(cfg.workload));
    let mut client = WireClient::connect(served.addr).expect("connect to the ingress");
    let nq = fx.queries.rows() as u64;
    let warm = client.run(
        Pace::ClosedOps {
            window: CLOSED_WINDOW,
            ops: cfg.fixture.warmup_queries,
        },
        &|i| Op::Query((i % nq) as u32),
        &mut check_for(&fx, None, &mut []),
        None,
    );
    let bad = warm.count(|r| r.outcome != Outcome::Ok);
    assert!(
        bad == 0,
        "warm-up: {bad} of {} queries were not answered: {:?}",
        warm.records.len(),
        warm.failures
    );
    engine.reset_stats();
    Ready {
        fx,
        engine,
        served,
        client,
        wal,
    }
}

/// What replies are checked against, for `fx`: ids in range, inserts acked in pool order.
pub fn check_for<'a>(
    fx: &'a Fixture,
    truth: Option<&'a [Vec<usize>]>,
    sample: &'a mut [Option<SearchResult>],
) -> Check<'a> {
    Check {
        queries: &fx.queries,
        insert_pool: &fx.insert_pool,
        truth,
        id_limit: fx.base.rows() + fx.insert_pool.rows(),
        insert_id_base: fx.base.rows(),
        sample,
    }
}

/// Runs the workload with tracing off and returns every end-to-end metric.
pub fn run_end_to_end(cfg: &RunConfig) -> RunResult {
    // Set up several times and report the fastest: the host only ever adds time. The
    // last set-up is the one measured.
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..cfg.setup_repeats.max(1) {
        drop(ready.take()); // stop the previous server before timing the next set-up
        let t = Instant::now();
        ready = Some(set_up(cfg));
        setups.push(t.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up ran");
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    let mut out = match cfg.workload.shape {
        Shape::OpenRungs => open_rungs(cfg, ready),
        Shape::Closed => closed(cfg, ready),
        Shape::MixedWal => mixed_wal(cfg, ready),
    };
    out.metrics.insert(0, Metric::new("setup_s", setup_s, "s"));
    if let Value::Object(fields) = &mut out.detail {
        fields.push((
            "setup_runs_s".into(),
            Value::Array(setups.iter().map(|&s| Value::Float(s)).collect()),
        ));
    }
    // The contract's order and units, and nothing missing.
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let m = out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("workload did not produce `{name}`"));
            assert_eq!(m.unit, unit, "unit of `{name}`");
            m.clone()
        })
        .collect();
    out.metrics = metrics;
    out.correct = out.problems.is_empty() && out.failed == 0;
    out
}

/// The queries of `log` as `(t_ns, latency_ms)` samples for [`time_windows`], `t_ns`
/// being the due time (open loop: windows of the schedule) or the completion time
/// (closed loop: windows of the replies). A query that was not answered correctly
/// carries an infinite latency.
fn query_samples(log: &RunLog, by_due_time: bool) -> Vec<(u64, f64)> {
    log.records
        .iter()
        .filter(|r| r.is_query())
        .map(|r| match (r.outcome, by_due_time) {
            (Outcome::Ok, true) => (r.due_ns, r.latency_ms()),
            (Outcome::Ok, false) => (r.done_ns, r.latency_ms()),
            (_, true) => (r.due_ns, f64::INFINITY),
            (_, false) => (r.sent_ns, f64::INFINITY),
        })
        .collect()
}

/// The per-window series, kept in the run record so a later comparison can look at the
/// distribution behind a reported figure.
fn windows_value(windows: &[Window]) -> Value {
    let column = |f: &dyn Fn(&Window) -> f64| {
        Value::Array(windows.iter().map(|w| Value::Float(f(w))).collect())
    };
    obj(vec![
        ("rate_per_s", column(&|w| w.rate_per_s)),
        ("p50_ms", column(&|w| w.p50)),
        ("p99_ms", column(&|w| w.p99)),
        ("in_limit", column(&|w| w.in_limit)),
    ])
}

/// recall@k over the distinct query rows `logs` saw answered. The index does not change
/// while these logs are taken, so every answer to a row is the same answer; counting each
/// row once makes the figure a function of the seed, not of how often the clock or a
/// shed let each row through.
fn recall_of<'a>(logs: impl IntoIterator<Item = &'a RunLog>, k: usize, n_queries: usize) -> f64 {
    let mut hits: Vec<Option<u8>> = vec![None; n_queries];
    for r in logs.into_iter().flat_map(|l| &l.records) {
        if let (Op::Query(q), Outcome::Ok) = (r.op, r.outcome) {
            hits[q as usize].get_or_insert(r.hits);
        }
    }
    let answered = hits.iter().flatten().count();
    let found: u64 = hits.iter().flatten().map(|&h| u64::from(h)).sum();
    found as f64 / (answered * k).max(1) as f64
}

/// Compares the sampled wire answers with a direct `serve_batch` over the same rows.
fn identity_problems(
    ready: &Ready,
    cfg: &RunConfig,
    sample: &[Option<SearchResult>],
) -> Vec<String> {
    let rows: Vec<usize> = (0..sample.len()).filter(|&q| sample[q].is_some()).collect();
    if rows.is_empty() {
        return vec!["no wire answer was sampled for the bit-identity check".into()];
    }
    let direct = ready.engine.serve_batch(
        &ready.fx.queries.select_rows(&rows),
        &ready.fx.options(cfg.workload),
    );
    let mut problems = Vec::new();
    for (&q, want) in rows.iter().zip(&direct) {
        if sample[q].as_ref() != Some(want) && problems.len() < 4 {
            problems.push(format!(
                "query {q}: the wire answered {:?}, serve_batch answers {want:?}",
                sample[q]
            ));
        }
    }
    problems
}

fn failures_of(log: &RunLog, shed_is_failure: bool) -> u64 {
    log.count(|r| match r.outcome {
        Outcome::Ok => false,
        Outcome::Shed => shed_is_failure,
        Outcome::Unanswered | Outcome::Failed => true,
    })
}

// ------------------------------------------------------------------- open_light

struct Rung {
    rate_qps: f64,
    sent: u64,
    ok: u64,
    shed: u64,
    /// Windows of the schedule: requests grouped by the time they were due.
    windows: Vec<Window>,
    /// Fast mean over windows of the share of requests sent that were answered in time:
    /// a host stall that swallows part of a rung does not fail it, overload does, because
    /// under overload every window misses.
    in_limit: f64,
    /// The same over the second half of the rung alone.
    tail_in_limit: f64,
    /// Requests answered in time per second of the rung, first due time to last reply.
    in_limit_per_s: f64,
    backlog_ms: f64,
    lag_p99_ms: f64,
}

impl Rung {
    /// At least `SLO_SHARE` of the requests sent were answered within the limit, over
    /// the rung and over its second half alone. Latency is timed from the due time, so
    /// a backlog that grows shows as a tail that misses the limit.
    fn passes(&self) -> bool {
        self.in_limit >= SLO_SHARE && self.tail_in_limit >= SLO_SHARE
    }
    fn fast(&self, figure: impl Fn(&Window) -> f64, higher_is_better: bool) -> f64 {
        fast_mean_of(&self.windows, figure, higher_is_better)
    }
}

fn measure_rung(log: &RunLog, rate_qps: f64) -> Rung {
    let sent = log.records.len() as u64;
    let schedule_end_ns = log.start_ns + crate::stats::due_time_ns(sent, rate_qps);
    let windows = time_windows(
        &query_samples(log, true),
        log.start_ns,
        schedule_end_ns,
        WINDOW_NS,
        SLO_LIMIT_MS,
    );
    let mut lag: Vec<f64> = log
        .records
        .iter()
        .map(|r| (r.sent_ns - r.due_ns) as f64 / 1e6)
        .collect();
    sort(&mut lag);
    let in_limit: Vec<f64> = windows.iter().map(|w| w.in_limit).collect();
    let within = log.count(|r| r.outcome == Outcome::Ok && r.latency_ms() <= SLO_LIMIT_MS);
    Rung {
        rate_qps,
        sent,
        ok: log.count(|r| r.outcome == Outcome::Ok),
        shed: log.count(|r| r.outcome == Outcome::Shed),
        in_limit: fast_mean(&in_limit, true),
        tail_in_limit: fast_mean(&in_limit[in_limit.len() / 2..], true),
        in_limit_per_s: within as f64 / log.seconds(),
        backlog_ms: log.outstanding_at_send_end as f64 / rate_qps * 1e3,
        lag_p99_ms: percentile(&lag, 0.99),
        windows,
    }
}

/// Requests answered in time per second at the highest rung such that it and every rung
/// below it pass: that rung's offered rate, as measured. With no passing rung the figure
/// is what the lowest rung still served in time, so it is never zero and still falls
/// when things get worse.
fn slo_rate(rungs: &[Rung]) -> f64 {
    let passing = rungs.iter().take_while(|r| r.passes()).count();
    rungs[passing.saturating_sub(1)].in_limit_per_s
}

pub struct OpenRun {
    pub logs: Vec<RunLog>,
    pub lag_p99_ms: f64,
}

/// Drives the rungs in ascending order, draining between them.
pub fn drive_open(
    cfg: &RunConfig,
    client: &mut WireClient,
    check: &mut Check<'_>,
    mut tracer: Option<&mut crate::trace::Tracer>,
) -> OpenRun {
    let nq = check.queries.rows() as u64;
    let mut logs = Vec::new();
    for (rate, share) in cfg.fixture.open_rungs_qps.into_iter().zip(OPEN_RUNG_SHARE) {
        let total = (rate * cfg.seconds * share).round().max(1.0) as u64;
        logs.push(client.run(
            Pace::Open {
                rate_qps: rate,
                total,
            },
            &|i| Op::Query((i % nq) as u32),
            check,
            tracer.as_deref_mut(),
        ));
    }
    let mut lag: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.records.iter())
        .map(|r| (r.sent_ns - r.due_ns) as f64 / 1e6)
        .collect();
    sort(&mut lag);
    OpenRun {
        lag_p99_ms: percentile(&lag, 0.99),
        logs,
    }
}

fn open_rungs(cfg: &RunConfig, mut ready: Ready) -> RunResult {
    let truth = ready.fx.ground_truth(&ready.fx.base);
    let mut sample = vec![None; IDENTITY_SAMPLE.min(ready.fx.queries.rows())];
    let run = {
        let mut check = check_for(&ready.fx, Some(&truth), &mut sample);
        drive_open(cfg, &mut ready.client, &mut check, None)
    };
    let rates = cfg.fixture.open_rungs_qps;
    let rungs: Vec<Rung> = run
        .logs
        .iter()
        .zip(rates)
        .map(|(log, rate)| measure_rung(log, rate))
        .collect();
    let top = rungs.last().expect("four rungs");
    let report = &rungs[OPEN_REPORT_RUNG];

    let attempted: u64 = rungs.iter().map(|r| r.sent).sum();
    // A SHED at a rung above capacity is the server's designed answer to overload: it
    // counts against the SLO rate and the goodput, not as a failure.
    let failed: u64 = run.logs.iter().map(|l| failures_of(l, false)).sum();

    let mut problems = identity_problems(&ready, cfg, &sample);
    problems.extend(run.logs.iter().flat_map(|l| l.failures.iter().cloned()));
    let ingress = ready.served.handle.stats();
    let detail = obj(vec![
        (
            "rungs",
            Value::Array(
                rungs
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("offered_qps", Value::Float(r.rate_qps)),
                            ("sent", Value::UInt(r.sent)),
                            ("answered", Value::UInt(r.ok)),
                            ("shed", Value::UInt(r.shed)),
                            ("in_limit_frac", Value::Float(r.in_limit)),
                            ("tail_in_limit_frac", Value::Float(r.tail_in_limit)),
                            ("in_limit_per_s", Value::Float(r.in_limit_per_s)),
                            ("backlog_ms", Value::Float(r.backlog_ms)),
                            ("gen_lag_p99_ms", Value::Float(r.lag_p99_ms)),
                            ("passes", Value::Bool(r.passes())),
                            ("windows", windows_value(&r.windows)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("gen_lag_p99_ms", Value::Float(run.lag_p99_ms)),
        ("ingress_queue_hwm", Value::UInt(ingress.queue_depth_hwm)),
        ("ingress_shed_frames", Value::UInt(ingress.shed_frames)),
    ]);
    ready.served.handle.shutdown();
    RunResult {
        correct: false,
        attempted,
        failed,
        metrics: vec![
            Metric::new(
                "recall_at_10",
                recall_of(&run.logs, cfg.fixture.k, ready.fx.queries.rows()),
                "fraction",
            ),
            // At the top rung, which is above capacity: what the server still answers,
            // and what it still answers in time.
            Metric::new("qps", top.fast(|w| w.rate_per_s, true), "1/s"),
            Metric::new("query_p50_ms", report.fast(|w| w.p50, false), "ms"),
            Metric::new("query_p99_ms", report.fast(|w| w.p99, false), "ms"),
            Metric::new("slo_rate_qps", slo_rate(&rungs), "1/s"),
            Metric::new("goodput_qps", top.fast(|w| w.in_limit_per_s, true), "1/s"),
        ],
        detail,
        problems,
    }
}

// ----------------------------------------------- closed_heavy, closed_pq_sharded

/// How much of a closed loop's start is left out of its windows.
const CLOSED_SETTLE_NS: u64 = 250_000_000;

/// Metrics every closed loop derives from its query log: throughput, window latencies,
/// and the rate served within the latency limit. A closed loop measures one rate, the one
/// it achieved, so its SLO rate and its goodput are the same figure.
fn closed_loop_metrics(log: &RunLog) -> (Vec<Metric>, Vec<(&'static str, Value)>) {
    // The first quarter second is left out: it holds the opening burst of a full window
    // of requests on every connection (and, for the mixed workload, the still-clean
    // index), not the steady state.
    let windows = time_windows(
        &query_samples(log, false),
        log.start_ns + CLOSED_SETTLE_NS,
        log.send_end_ns,
        WINDOW_NS,
        SLO_LIMIT_MS,
    );
    let fast = |figure: &dyn Fn(&Window) -> f64, higher_is_better: bool| {
        fast_mean_of(&windows, figure, higher_is_better)
    };
    let goodput = fast(&|w| w.in_limit_per_s, true);
    let metrics = vec![
        Metric::new("qps", fast(&|w| w.rate_per_s, true), "1/s"),
        Metric::new("query_p50_ms", fast(&|w| w.p50, false), "ms"),
        Metric::new("query_p99_ms", fast(&|w| w.p99, false), "ms"),
        Metric::new("slo_rate_qps", goodput, "1/s"),
        Metric::new("goodput_qps", goodput, "1/s"),
    ];
    let answered = log.count(|r| r.is_query() && r.outcome == Outcome::Ok);
    let detail = vec![
        ("latency_samples", Value::UInt(answered)),
        // Every reply over the whole phase, host stalls included.
        (
            "qps_whole_phase",
            Value::Float(answered as f64 / log.seconds()),
        ),
        ("windows", windows_value(&windows)),
    ];
    (metrics, detail)
}

fn closed(cfg: &RunConfig, mut ready: Ready) -> RunResult {
    let truth = ready.fx.ground_truth(&ready.fx.base);
    let nq = ready.fx.queries.rows() as u64;
    let mut sample = vec![None; IDENTITY_SAMPLE.min(nq as usize)];
    let log = ready.client.run(
        Pace::ClosedFor {
            window: CLOSED_WINDOW,
            duration: Duration::from_secs_f64(cfg.seconds),
        },
        &|i| Op::Query((i % nq) as u32),
        &mut check_for(&ready.fx, Some(&truth), &mut sample),
        None,
    );
    let attempted = log.records.len() as u64;
    let mut problems = identity_problems(&ready, cfg, &sample);
    problems.extend(log.failures.iter().cloned());
    let stats = ready.engine.stats();
    let (mut metrics, mut detail) = closed_loop_metrics(&log);
    detail.extend([
        ("mean_batch", Value::Float(stats.mean_batch_size)),
        ("mean_candidates", Value::Float(stats.mean_candidates)),
        (
            "mean_compressed_candidates",
            Value::Float(stats.mean_compressed_candidates),
        ),
    ]);
    metrics.push(Metric::new(
        "recall_at_10",
        recall_of([&log], cfg.fixture.k, nq as usize),
        "fraction",
    ));
    ready.served.handle.shutdown();
    RunResult {
        correct: false,
        attempted,
        failed: failures_of(&log, true),
        metrics,
        detail: obj(detail),
        problems,
    }
}

// ----------------------------------------------------------------- mixed_rw_wal

/// The write schedule: op `i` (0-based) is a write when `(i + 1) % WRITE_EVERY == 0`; of
/// every three writes the first two insert the next rows of the pool and the third
/// deletes the next id of a seeded permutation of the base ids.
pub struct WriteSchedule {
    pub delete_ids: Vec<u32>,
    pub n_queries: u64,
}

impl WriteSchedule {
    pub fn new(fx: &Fixture) -> WriteSchedule {
        let mut ids: Vec<usize> = (0..fx.base.rows()).collect();
        lrng::shuffle(&mut lrng::seeded(fx.seed ^ 0xde1e7e), &mut ids);
        WriteSchedule {
            delete_ids: ids.into_iter().map(|i| i as u32).collect(),
            n_queries: fx.queries.rows() as u64,
        }
    }

    /// The `w`-th write.
    pub fn write(&self, w: u64) -> Op {
        if w % 3 == 2 {
            Op::Delete(self.delete_ids[(w / 3) as usize])
        } else {
            Op::Insert((w / 3 * 2 + w % 3) as u32)
        }
    }

    pub fn op(&self, i: u64) -> Op {
        if (i + 1).is_multiple_of(WRITE_EVERY) {
            self.write((i + 1) / WRITE_EVERY - 1)
        } else {
            Op::Query((i % self.n_queries) as u32)
        }
    }

    /// Inserts and deletes among the first `writes` writes.
    pub fn split(writes: u64) -> (u64, u64) {
        let deletes = writes / 3;
        (writes - deletes, deletes)
    }

    /// The op count for `seconds`, capped so the inserts fit the pool.
    pub fn ops_for(spec: &FixtureSpec, seconds: f64) -> u64 {
        let wanted = (seconds * spec.mixed_ops_per_second as f64) as u64;
        let max_writes = (spec.n_insert_pool as u64 * 3 / 2).min(spec.n_base as u64);
        wanted.clamp(WRITE_EVERY, max_writes * WRITE_EVERY)
    }
}

/// The live point set after the first `writes` writes, and each live row's global id.
pub fn live_set(fx: &Fixture, schedule: &WriteSchedule, writes: u64) -> (Matrix, Vec<usize>) {
    let (inserts, deletes) = WriteSchedule::split(writes);
    let n = fx.base.rows();
    let mut dead = vec![false; n];
    for &id in &schedule.delete_ids[..deletes as usize] {
        dead[id as usize] = true;
    }
    let mut ids: Vec<usize> = (0..n).filter(|&i| !dead[i]).collect();
    let mut flat: Vec<f32> = Vec::with_capacity((ids.len() + inserts as usize) * fx.spec.dim);
    for &i in &ids {
        flat.extend_from_slice(fx.base.row(i));
    }
    for j in 0..inserts as usize {
        flat.extend_from_slice(fx.insert_pool.row(j));
        ids.push(n + j);
    }
    (Matrix::from_vec(ids.len(), fx.spec.dim, flat), ids)
}

/// Recovers a fresh base index from the log at `wal_path` and checks it against `live`:
/// same answers for every query, as many replayed records as acked writes.
pub fn recovery_problems(
    fx: &mut Fixture,
    live: &crate::fixture::Index,
    wal_path: &std::path::Path,
    probes: usize,
    acked_writes: u64,
) -> (Vec<String>, f64) {
    let mut problems = Vec::new();
    if let Err(e) = live.wal_flush() {
        problems.push(format!("flushing the live log failed: {e}"));
    }
    let appends = live.wal_stats().map_or(0, |w| w.appends);
    if appends != acked_writes {
        problems.push(format!(
            "wal.appends is {appends} but {acked_writes} writes were acked"
        ));
    }
    let base = fx.build_exact();
    let t = Instant::now();
    let recovered = PartitionIndex::recover(base, open_wal(wal_path));
    let recover_s = t.elapsed().as_secs_f64();
    match recovered {
        Err(e) => problems.push(format!("recovery from the log failed: {e}")),
        Ok((recovered, report)) => {
            let replayed = report.replayed_inserts + report.replayed_deletes;
            if replayed != acked_writes || report.torn_tail_bytes != 0 {
                problems.push(format!(
                    "recovery replayed {replayed} records ({} torn bytes), {acked_writes} \
                     writes were acked",
                    report.torn_tail_bytes
                ));
            }
            let k = fx.spec.k;
            let a = recovered.search_batch(&fx.queries, k, probes);
            let b = live.search_batch(&fx.queries, k, probes);
            if let Some(q) = (0..a.len()).find(|&q| a[q] != b[q]) {
                problems.push(format!(
                    "query {q}: the recovered index answers {:?}, the live one {:?}",
                    a[q], b[q]
                ));
            }
        }
    }
    (problems, recover_s)
}

fn mixed_wal(cfg: &RunConfig, mut ready: Ready) -> RunResult {
    let schedule = WriteSchedule::new(&ready.fx);
    let ops = WriteSchedule::ops_for(&cfg.fixture, cfg.seconds);
    let log = ready.client.run(
        Pace::ClosedOps {
            window: CLOSED_WINDOW,
            ops,
        },
        &|i| schedule.op(i),
        &mut check_for(&ready.fx, None, &mut []),
        None,
    );
    let attempted = log.records.len() as u64;
    let acked_writes = log.count(|r| !r.is_query() && r.outcome == Outcome::Ok);
    let mut failed = failures_of(&log, true);
    let mut problems = log.failures.clone();

    let mut write_ms: Vec<f64> = log
        .records
        .iter()
        .filter(|r| !r.is_query() && r.outcome == Outcome::Ok)
        .map(|r| r.latency_ms())
        .collect();
    sort(&mut write_ms);

    // Quiescent pass: every query once over the wire against the final index. Recall is
    // measured here, against the exact neighbours among the points now live, and every
    // answer is compared with a direct `serve_batch`.
    let (live_points, live_ids) = live_set(&ready.fx, &schedule, acked_writes);
    let truth: Vec<Vec<usize>> = ready
        .fx
        .ground_truth(&live_points)
        .into_iter()
        .map(|row| row.into_iter().map(|r| live_ids[r]).collect())
        .collect();
    let nq = ready.fx.queries.rows();
    let mut sample = vec![None; nq];
    let pass = ready.client.run(
        Pace::ClosedOps {
            window: CLOSED_WINDOW,
            ops: nq as u64,
        },
        &|i| Op::Query(i as u32),
        &mut check_for(&ready.fx, Some(&truth), &mut sample),
        None,
    );
    failed += failures_of(&pass, true);
    problems.extend(pass.failures.iter().cloned());
    problems.extend(identity_problems(&ready, cfg, &sample));

    let mutation = ready.engine.index().mutation_stats();
    ready.served.handle.shutdown();
    let wal = ready.wal.as_ref().expect("the mixed workload has a log");
    let (recovery, recover_s) = recovery_problems(
        &mut ready.fx,
        ready.engine.index(),
        &wal.0,
        cfg.workload.probes,
        acked_writes,
    );
    problems.extend(recovery);

    let wal_stats = ready.engine.index().wal_stats().unwrap_or_default();
    let (mut metrics, mut detail) = closed_loop_metrics(&log);
    detail.extend([
        (
            "mean_batch",
            Value::Float(ready.engine.stats().mean_batch_size),
        ),
        ("ops", Value::UInt(ops)),
        ("acked_writes", Value::UInt(acked_writes)),
        ("write_p50_ms", Value::Float(percentile(&write_ms, 0.50))),
        ("write_p99_ms", Value::Float(percentile(&write_ms, 0.99))),
        ("delta_fraction", Value::Float(mutation.delta_fraction)),
        ("wal_appends", Value::UInt(wal_stats.appends)),
        ("wal_bytes", Value::UInt(wal_stats.bytes)),
        ("recover_s", Value::Float(recover_s)),
    ]);
    metrics.push(Metric::new(
        "recall_at_10",
        recall_of([&pass], cfg.fixture.k, nq),
        "fraction",
    ));
    RunResult {
        correct: false,
        attempted: attempted + pass.records.len() as u64,
        failed,
        metrics,
        detail: obj(detail),
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, in_limit: f64, tail_in_limit: f64) -> Rung {
        Rung {
            rate_qps: rate,
            sent: 1000,
            ok: 1000,
            shed: 0,
            windows: Vec::new(),
            in_limit,
            tail_in_limit,
            in_limit_per_s: rate * in_limit,
            backlog_ms: 1.0,
            lag_p99_ms: 0.1,
        }
    }

    #[test]
    fn slo_rate_is_read_at_the_highest_rung_with_every_lower_rung_passing() {
        let pass = |r| rung(r, 1.0, 1.0);
        assert_eq!(
            slo_rate(&[pass(8e3), pass(16e3), pass(32e3), rung(48e3, 0.60, 0.60)]),
            32e3
        );
        // What is reported is what that rung served in time, not its nominal rate.
        assert_eq!(
            slo_rate(&[
                pass(8e3),
                rung(16e3, 0.96, 0.97),
                rung(32e3, 0.5, 0.5),
                pass(48e3)
            ]),
            16e3 * 0.96
        );
        // A failing rung caps the rate even when a higher one happens to pass.
        assert_eq!(
            slo_rate(&[pass(8e3), rung(16e3, 0.90, 0.99), pass(32e3), pass(48e3)]),
            8e3
        );
        // A growing backlog: the rung as a whole is in time, its second half is not.
        assert_eq!(
            slo_rate(&[pass(8e3), rung(16e3, 0.99, 0.40), pass(32e3), pass(48e3)]),
            8e3
        );
        // Nothing passes: never zero, still ordered by how bad it is.
        assert_eq!(
            slo_rate(&[rung(8e3, 0.5, 0.5), pass(16e3), pass(32e3), pass(48e3)]),
            4e3
        );
    }

    #[test]
    fn write_schedule_is_a_function_of_the_op_index() {
        let schedule = WriteSchedule {
            delete_ids: vec![40, 41, 42, 43],
            n_queries: 7,
        };
        assert_eq!(schedule.op(0), Op::Query(0));
        assert_eq!(schedule.op(78), Op::Query(78 % 7));
        assert_eq!(schedule.op(79), Op::Insert(0));
        assert_eq!(schedule.op(159), Op::Insert(1));
        assert_eq!(schedule.op(239), Op::Delete(40));
        assert_eq!(schedule.op(319), Op::Insert(2));
        assert_eq!(schedule.op(479), Op::Delete(41));
        assert_eq!(WriteSchedule::split(0), (0, 0));
        assert_eq!(WriteSchedule::split(5), (4, 1));
        assert_eq!(WriteSchedule::split(6), (4, 2));
        // Inserts among the first w writes are exactly the pool rows 0..inserts.
        for w in 0..30u64 {
            let (inserts, deletes) = WriteSchedule::split(w + 1);
            match schedule_write_kind(w) {
                Op::Insert(j) => assert_eq!(u64::from(j), inserts - 1),
                Op::Delete(_) => assert_eq!(w / 3, deletes - 1),
                Op::Query(_) => unreachable!(),
            }
        }
    }

    fn schedule_write_kind(w: u64) -> Op {
        WriteSchedule {
            delete_ids: (0..100).collect(),
            n_queries: 1,
        }
        .write(w)
    }

    #[test]
    fn mixed_op_count_is_capped_by_the_insert_pool() {
        let spec = crate::spec::MIX64;
        assert_eq!(
            WriteSchedule::ops_for(&spec, 10.0),
            10 * spec.mixed_ops_per_second
        );
        let cap = WriteSchedule::ops_for(&spec, 60.0);
        let (inserts, _) = WriteSchedule::split(cap / WRITE_EVERY);
        assert!(inserts as usize <= spec.n_insert_pool, "{inserts} inserts");
        assert_eq!(WriteSchedule::ops_for(&spec, 0.0), WRITE_EVERY);
    }
}
