//! The traced run: times the calls into each layer's public functions from outside,
//! under a one-thread pool so busy time is wall time and the parts can be checked
//! against the whole, and reduces the spans to the per-layer metrics.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use usp_index::{FileStorage, Partitioner, SearchResult, SyncPolicy, Wal, WalRecord};
use usp_linalg::Matrix;
use usp_serve::protocol::{
    encode_query, encode_query_reply, parse_request, read_frame, FrameDecoder, OP_REPLY_QUERY,
};
use usp_serve::{BatchEngine, MicroBatcher, QueryEngine, QueryOptions, ShardedEngine};

use crate::client::{Op, Outcome, Pace, RunLog, WireClient};
use crate::fixture::{bin_max_over_mean, Engine, Fixture, Index, ScratchFile};
use crate::report::{obj, Metric, RunResult};
use crate::spec::{
    Shape, CLOSED_WINDOW, PER_LAYER, TRACE_BATCH, TRACE_BATCHES, WAL_SYNC_EVERY, WRITE_EVERY,
};
use crate::stats::{median, percentile, sort};
use crate::trace::Tracer;
use crate::workloads::{
    check_for, drive_open, recovery_problems, serve_fixture, RunConfig, WriteSchedule,
};

/// Resident set size of this process in MB (`/proc/self/statm`, 4 KiB pages); 0 where
/// the file does not exist.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4096.0 / 1e6)
}

/// The query batches every per-layer timing runs over.
fn batches(fx: &Fixture) -> Vec<Matrix> {
    let nq = fx.queries.rows();
    (0..TRACE_BATCHES)
        .map(|b| {
            let rows: Vec<usize> = (0..TRACE_BATCH)
                .map(|i| (b * TRACE_BATCH + i) % nq)
                .collect();
            fx.queries.select_rows(&rows)
        })
        .collect()
}

/// Route, table build and scan of one batch through `index`'s public functions, each in
/// its own span: the same three calls `QueryEngine::serve_batch` makes.
fn decompose(
    t: &mut Tracer,
    names: [&'static str; 4],
    index: &Index,
    queries: &Matrix,
    opts: &QueryOptions,
    batch: u32,
) -> Vec<SearchResult> {
    let [parts, route, table, scan] = names;
    t.span(parts, batch, |t| {
        let ranked = t.span(route, batch, |_| {
            index.partitioner().rank_bins_batch(queries, opts.probes)
        });
        let tables = t.span(table, batch, |_| index.adc_tables_batch(queries));
        t.span(scan, batch, |_| {
            (0..queries.rows())
                .map(|qi| {
                    index.scan_bins_with_table(
                        queries.row(qi),
                        &ranked[qi],
                        opts.k,
                        opts.rerank_budget,
                        tables.as_ref().map(|t| &t[qi]),
                    )
                })
                .collect()
        })
    })
}

/// `MicroBatcher::submit` x batch -> last result, once per batch.
fn time_batcher<E: BatchEngine + 'static>(
    t: &mut Tracer,
    engine: Arc<E>,
    opts: QueryOptions,
    batches: &[Matrix],
) {
    let batcher = MicroBatcher::new(engine, opts, TRACE_BATCH, Duration::from_millis(1));
    for (b, queries) in batches.iter().enumerate() {
        t.span("batcher", b as u32, |_| {
            let pending: Vec<_> = (0..queries.rows())
                .map(|qi| batcher.submit(queries.row(qi).to_vec()))
                .collect();
            for rx in pending {
                rx.recv()
                    .expect("the batcher answers every submitted query");
            }
        });
    }
}

/// One connection, one burst of a whole batch, wait for every reply: the wire round trip
/// of the same batches the batcher path was timed on.
fn time_ingress_bursts(t: &mut Tracer, engine: &Engine, opts: QueryOptions, batches: &[Matrix]) {
    let served = engine.serve(opts);
    let mut stream = TcpStream::connect(served.addr).expect("connect to the ingress");
    stream.set_nodelay(true).expect("nodelay");
    let mut bytes = Vec::new();
    for (b, queries) in batches.iter().enumerate() {
        bytes.clear();
        for qi in 0..queries.rows() {
            encode_query(&mut bytes, (qi + 1) as u32, queries.row(qi));
        }
        t.span("ingress.burst", b as u32, |_| {
            stream.write_all(&bytes).expect("write the burst");
            for _ in 0..queries.rows() {
                let frame = read_frame(&mut stream).expect("read a reply");
                assert_eq!(frame.opcode, OP_REPLY_QUERY, "burst reply");
            }
        });
    }
    served.handle.shutdown();
}

/// The same write schedule applied three ways: straight into an index (no log), as raw
/// appends to a log, and over the wire into a WAL-backed index.
struct MutationFigures {
    writes: u64,
    wal_bytes_per_op: f64,
    wal_appends: u64,
    delta_fraction: f64,
    recover_s: f64,
    write_p50_ms: f64,
    write_p99_ms: f64,
    failed: u64,
    problems: Vec<String>,
}

fn time_mutation(
    t: &mut Tracer,
    fx: &mut Fixture,
    cfg: &RunConfig,
    clean: &Index,
    batches: &[Matrix],
) -> MutationFigures {
    let schedule = WriteSchedule::new(fx);
    let writes = WriteSchedule::ops_for(&cfg.fixture, cfg.seconds) / WRITE_EVERY;
    let opts = fx.options(cfg.workload);
    let mut problems = Vec::new();

    // (1) no log: the mutation layer alone
    let dirty = fx.build_exact();
    for w in 0..writes {
        match schedule.write(w) {
            Op::Insert(j) => t.span("mutation.insert", w as u32, |_| {
                dirty
                    .try_insert(fx.insert_pool.row(j as usize))
                    .expect("insert");
            }),
            Op::Delete(id) => t.span("mutation.delete", w as u32, |_| {
                dirty
                    .try_delete(id as usize)
                    .expect("delete of a live base id");
            }),
            Op::Query(_) => unreachable!("the write schedule yields writes"),
        }
    }

    // (2) the log alone: append every record, sync every WAL_SYNC_EVERY-th
    let raw_log = ScratchFile::new(&cfg.out_dir, "trace-raw");
    let storage = FileStorage::open(&raw_log.0).expect("open the raw log");
    let mut wal = Wal::new(Box::new(storage), SyncPolicy::OnFlush);
    for w in 0..writes {
        let record = match schedule.write(w) {
            Op::Insert(j) => WalRecord::Insert {
                row: fx.insert_pool.row(j as usize).to_vec(),
            },
            Op::Delete(id) => WalRecord::Delete { id: u64::from(id) },
            Op::Query(_) => unreachable!("the write schedule yields writes"),
        };
        t.span("wal.append", w as u32, |_| {
            wal.append(&record).expect("append")
        });
        if (w + 1) % WAL_SYNC_EVERY as u64 == 0 {
            t.span("wal.sync", w as u32, |_| wal.flush().expect("sync"));
        }
    }
    let wal_bytes_per_op = wal.stats().bytes as f64 / wal.stats().appends.max(1) as f64;
    drop(wal);

    // (3) over the wire, one write outstanding, into a WAL-backed index
    let served_log = ScratchFile::new(&cfg.out_dir, "trace-served");
    let logged = fx
        .build_exact()
        .with_wal(crate::fixture::open_wal(&served_log.0));
    let engine = Engine::Mono(Arc::new(QueryEngine::new(Arc::new(logged))));
    let served = engine.serve(opts);
    let mut client = WireClient::connect(served.addr).expect("connect to the ingress");
    let log = client.run(
        Pace::ClosedOps {
            window: 1,
            ops: writes,
        },
        &|w| schedule.write(w),
        &mut check_for(fx, None, &mut []),
        Some(t),
    );
    served.handle.shutdown();
    let acked = log.count(|r| r.outcome == Outcome::Ok);
    let failed = writes - acked;
    problems.extend(log.failures.iter().cloned());
    let mut ack_ms: Vec<f64> = log.records.iter().map(|r| r.latency_ms()).collect();
    sort(&mut ack_ms);

    // The wire path and the direct path applied the same writes: same answers.
    let k = fx.spec.k;
    let direct = dirty.search_batch(&fx.queries, k, opts.probes);
    let wired = engine.index().search_batch(&fx.queries, k, opts.probes);
    if direct != wired {
        problems.push("writes applied over the wire and directly left different indexes".into());
    }

    // dirty against clean scan, same ranked bins
    for (b, queries) in batches.iter().enumerate() {
        let ranked = clean.partitioner().rank_bins_batch(queries, opts.probes);
        for (name, index) in [("scan.clean", clean), ("scan.dirty", &dirty)] {
            t.span(name, b as u32, |_| {
                for (qi, bins) in ranked.iter().enumerate() {
                    std::hint::black_box(index.scan_bins(queries.row(qi), bins, k, None));
                }
            });
        }
    }

    let (recovery, recover_s) =
        recovery_problems(fx, engine.index(), &served_log.0, opts.probes, acked);
    problems.extend(recovery);
    let wal_appends = engine.index().wal_stats().map_or(0, |w| w.appends);
    let delta_fraction = dirty.mutation_stats().delta_fraction;
    t.span("index.compact", 0, |_| {
        std::hint::black_box(dirty.compacted());
    });
    MutationFigures {
        writes,
        wal_bytes_per_op,
        wal_appends,
        delta_fraction,
        recover_s,
        write_p50_ms: percentile(&ack_ms, 0.50),
        write_p99_ms: percentile(&ack_ms, 0.99),
        failed,
        problems,
    }
}

/// The workload over the wire, half with the client recording no spans and half with a
/// span per request: the difference is what tracing costs.
struct WireFigures {
    qps_untraced: f64,
    qps_traced: f64,
    lag_p99_ms: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    mean_batch: f64,
    queue_hwm: u64,
    shed_frames: u64,
    accepted_frames: u64,
}

fn time_wire(t: &mut Tracer, fx: Fixture, cfg: &RunConfig) -> WireFigures {
    let mut ready = serve_fixture(fx, cfg);
    let half = RunConfig {
        workload: cfg.workload,
        fixture: cfg.fixture,
        seed: cfg.seed,
        seconds: cfg.seconds / 2.0,
        out_dir: cfg.out_dir.clone(),
        setup_repeats: 1,
    };
    let nq = ready.fx.queries.rows() as u64;
    let schedule = WriteSchedule::new(&ready.fx);
    let mixed_ops = WriteSchedule::ops_for(&cfg.fixture, half.seconds);
    let mut check = check_for(&ready.fx, None, &mut []);
    let mut lag_p99_ms = 0.0;
    let mut halves: Vec<Vec<RunLog>> = Vec::new();
    for traced in [false, true] {
        let tracer = traced.then_some(&mut *t);
        let logs = match cfg.workload.shape {
            Shape::OpenRungs => {
                let run = drive_open(&half, &mut ready.client, &mut check, tracer);
                lag_p99_ms = run.lag_p99_ms.max(lag_p99_ms);
                run.logs
            }
            Shape::Closed => vec![ready.client.run(
                Pace::ClosedFor {
                    window: CLOSED_WINDOW,
                    duration: Duration::from_secs_f64(half.seconds),
                },
                &|i| Op::Query((i % nq) as u32),
                &mut check,
                tracer,
            )],
            Shape::MixedWal => {
                // The second half continues the schedule where the first stopped.
                let offset = if traced { mixed_ops } else { 0 };
                vec![ready.client.run(
                    Pace::ClosedOps {
                        window: CLOSED_WINDOW,
                        ops: mixed_ops,
                    },
                    &|i| schedule.op(i + offset),
                    &mut check,
                    tracer,
                )]
            }
        };
        halves.push(logs);
    }
    let qps = |logs: &[RunLog]| {
        let ok: u64 = logs
            .iter()
            .map(|l| l.count(|r| r.is_query() && r.outcome == Outcome::Ok))
            .sum();
        ok as f64 / logs.iter().map(RunLog::seconds).sum::<f64>()
    };
    let open_loop = cfg.workload.shape == Shape::OpenRungs;
    let all = halves.iter().flatten();
    let failed = all
        .clone()
        .map(|l| {
            l.count(|r| match r.outcome {
                Outcome::Ok => false,
                Outcome::Shed => !open_loop,
                Outcome::Unanswered | Outcome::Failed => true,
            })
        })
        .sum();
    let ingress = ready.served.handle.stats();
    let engine = ready.engine.stats();
    ready.served.handle.shutdown();
    WireFigures {
        qps_untraced: qps(&halves[0]),
        qps_traced: qps(&halves[1]),
        lag_p99_ms,
        attempted: all.clone().map(|l| l.records.len() as u64).sum(),
        failed,
        problems: all.flat_map(|l| l.failures.iter().cloned()).collect(),
        mean_batch: engine.mean_batch_size,
        queue_hwm: ingress.queue_depth_hwm,
        shed_frames: ingress.shed_frames,
        accepted_frames: ingress.accepted_frames,
    }
}

/// Runs the traced measurement of `cfg.workload` and returns every per-layer metric.
/// The caller has already forced the process-wide pool to one thread.
pub fn run_traced(cfg: &RunConfig, host_cpus: usize) -> RunResult {
    let workload = cfg.workload;
    let mut problems: Vec<String> = Vec::new();

    // ---- offline, on every core (the pool is one thread wide for everything after)
    let t_setup = Instant::now();
    let (mut fx, exact, pq, build_s) = rayon::with_num_threads(host_cpus, || {
        let mut fx = Fixture::prepare(&cfg.fixture, cfg.seed);
        let exact = fx.build_exact();
        let build_s = fx.stages.build_s;
        let plain = fx.build_exact();
        let pq = fx.compress(plain);
        (fx, exact, pq, build_s)
    });
    let ratio = bin_max_over_mean(&exact);
    let (exact, pq) = (Arc::new(exact), Arc::new(pq));
    let primary = if workload.compressed { &pq } else { &exact };
    let mono = Arc::new(QueryEngine::new(Arc::clone(primary)));
    let t_shard = Instant::now();
    let sharded = rayon::with_num_threads(host_cpus, || {
        Arc::new(ShardedEngine::with_shards(
            Arc::clone(primary),
            cfg.fixture.shards,
        ))
    });
    let shard_build_s = t_shard.elapsed().as_secs_f64();
    let offline_s = t_setup.elapsed().as_secs_f64();
    let rss = rss_mb();

    let opts = fx.options(workload);
    let batches = batches(&fx);
    let n_queries = (TRACE_BATCHES * TRACE_BATCH) as u64;
    let mut t = Tracer::new();
    mono.warm_up();

    // ---- engine, its parts, the sharded twin, the protocol codec: per batch
    let (mut exact_rows, mut pq_rows, mut pq_codes) = (0u64, 0u64, 0u64);
    let mut wire_bytes = Vec::new();
    let mut reply_bytes = Vec::new();
    for (b, queries) in batches.iter().enumerate() {
        let b32 = b as u32;
        t.span("batch", b32, |t| {
            let whole = t.span("engine", b32, |_| mono.serve_batch(queries, &opts));
            let e = decompose(
                t,
                [
                    "exact.parts",
                    "exact.route",
                    "exact.adc_table",
                    "exact.scan",
                ],
                &exact,
                queries,
                &opts,
                b32,
            );
            let p = decompose(
                t,
                ["pq.parts", "pq.route", "pq.adc_table", "pq.scan"],
                &pq,
                queries,
                &opts,
                b32,
            );
            let split = t.span("shard", b32, |_| sharded.serve_batch(queries, &opts));
            let parts = if workload.compressed { &p } else { &e };
            if &whole != parts || whole != split {
                problems.push(format!(
                    "batch {b}: serve_batch, its three public calls and the sharded engine \
                     do not answer identically"
                ));
            }
            exact_rows += e.iter().map(|r| r.candidates_scanned as u64).sum::<u64>();
            pq_rows += p.iter().map(|r| r.candidates_scanned as u64).sum::<u64>();
            pq_codes += p.iter().map(|r| r.compressed_scanned as u64).sum::<u64>();

            wire_bytes.clear();
            for qi in 0..queries.rows() {
                encode_query(&mut wire_bytes, (qi + 1) as u32, queries.row(qi));
            }
            t.span("protocol.decode", b32, |_| {
                let mut decoder = FrameDecoder::new();
                decoder.push(&wire_bytes);
                while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                    std::hint::black_box(parse_request(&frame, cfg.fixture.dim).expect("a query"));
                }
            });
            reply_bytes.clear();
            t.span("protocol.encode_reply", b32, |_| {
                for (qi, result) in whole.iter().enumerate() {
                    encode_query_reply(&mut reply_bytes, (qi + 1) as u32, result);
                }
                std::hint::black_box(&reply_bytes);
            });
        });
    }
    problems.truncate(4);

    // ---- batcher and ingress around the engine the workload serves
    let served_engine = if workload.sharded {
        time_batcher(&mut t, Arc::clone(&sharded), opts, &batches);
        Engine::Sharded(Arc::clone(&sharded))
    } else {
        time_batcher(&mut t, Arc::clone(&mono), opts, &batches);
        Engine::Mono(Arc::clone(&mono))
    };
    time_ingress_bursts(&mut t, &served_engine, opts, &batches);

    // ---- mutation + wal, then the workload itself over the wire
    let mutation = time_mutation(&mut t, &mut fx, cfg, &exact, &batches);
    let stages = fx.stages;
    let wire = time_wire(&mut t, fx, cfg);

    problems.extend(mutation.problems.iter().cloned());
    problems.extend(wire.problems.iter().cloned());
    if ratio > 2.0 {
        problems.push(format!("index.bin_max_over_mean is {ratio:.2}"));
    }

    // ---- spans -> metrics. Every figure is a median over the batches (or the ops) of a
    // span name, and every ratio is a median of per-batch ratios, whose two sides were
    // timed within milliseconds of each other: the host changes speed between one phase
    // of this run and the next, and a ratio of two phase totals would measure that.
    let per_batch = |name: &str| t.us_by_batch(name);
    let med_us = |name: &str| {
        let spans: Vec<f64> = per_batch(name).into_values().collect();
        if spans.is_empty() {
            0.0
        } else {
            median(&spans)
        }
    };
    let med_ratio = |f: &dyn Fn(u32) -> Option<f64>| {
        let ratios: Vec<f64> = (0..TRACE_BATCHES as u32).filter_map(f).collect();
        median(&ratios)
    };
    let batch = TRACE_BATCH as f64;
    let prefix = if workload.compressed { "pq" } else { "exact" };
    let part = |what: &str| format!("{prefix}.{what}");
    let (engine, shard) = (per_batch("engine"), per_batch("shard"));
    let (route, table, scan) = (
        per_batch(&part("route")),
        per_batch(&part("adc_table")),
        per_batch(&part("scan")),
    );
    let engine_us = med_us("engine") / batch;
    let shard_us = med_us("shard") / batch;
    let (route_us, scan_us) = (
        med_us(&part("route")) / batch,
        med_us(&part("scan")) / batch,
    );
    let served_us = if workload.sharded {
        shard_us
    } else {
        engine_us
    };
    let batcher_total_us = med_us("batcher") / batch;
    let burst_us = med_us("ingress.burst") / batch;
    let (clean, dirty) = (per_batch("scan.clean"), per_batch("scan.dirty"));
    let (scanned_rows, scanned_codes) = if workload.compressed {
        (pq_rows, pq_codes)
    } else {
        (exact_rows, 0)
    };
    let streamed = scanned_rows.max(scanned_codes) as f64;

    let spans_path = cfg
        .out_dir
        .join(format!("spans-{}-{}.jsonl", workload.name, cfg.seed));
    if let Err(e) = t.write_jsonl(&spans_path) {
        problems.push(format!("writing {}: {e}", spans_path.display()));
    }

    let values: Vec<(&str, f64)> = vec![
        ("data.knn_s", stages.knn_s),
        ("core.train_s", stages.train_s),
        ("core.params", exact.partitioner().num_parameters() as f64),
        ("index.build_s", build_s),
        ("index.bin_max_over_mean", ratio),
        ("quant.fit_s", stages.pq_fit_s),
        ("index.encode_s", stages.encode_s),
        ("shard.build_s", shard_build_s),
        ("index.rss_mb", rss),
        ("protocol.decode_us", med_us("protocol.decode") / batch),
        (
            "protocol.encode_reply_us",
            med_us("protocol.encode_reply") / batch,
        ),
        ("route.us", route_us),
        (
            "route.share",
            med_ratio(&|b| Some(route.get(&b)? / engine.get(&b)?)),
        ),
        ("adc_table.us", med_us("pq.adc_table") / batch),
        ("scan.us", scan_us),
        ("scan.rows", scanned_rows as f64 / n_queries as f64),
        ("scan.compressed_rows", pq_codes as f64 / n_queries as f64),
        ("scan.mrows_per_s", streamed / n_queries as f64 / scan_us),
        (
            "rerank.survivor_ratio",
            pq_rows as f64 / pq_codes.max(1) as f64,
        ),
        ("engine.us", engine_us),
        (
            "engine.sum_gap_frac",
            med_ratio(&|b| {
                let whole = engine.get(&b)?;
                let parts = route.get(&b)? + table.get(&b)? + scan.get(&b)?;
                Some((whole - parts).abs() / whole)
            }),
        ),
        ("shard.us", shard_us),
        (
            "shard.overhead_frac",
            med_ratio(&|b| Some(shard.get(&b)? / engine.get(&b)?)) - 1.0,
        ),
        ("batcher.us", batcher_total_us - served_us),
        ("batcher.mean_batch", wire.mean_batch),
        ("ingress.residual_us", burst_us - batcher_total_us),
        ("ingress.queue_hwm", wire.queue_hwm as f64),
        ("ingress.shed_frames", wire.shed_frames as f64),
        ("ingress.accepted_frames", wire.accepted_frames as f64),
        ("gen.lag_ms_p99", wire.lag_p99_ms),
        ("mutation.insert_us", med_us("mutation.insert")),
        ("mutation.delete_us", med_us("mutation.delete")),
        ("wal.append_us", med_us("wal.append")),
        ("wal.sync_us", med_us("wal.sync")),
        ("wal.bytes_per_op", mutation.wal_bytes_per_op),
        ("wal.appends", mutation.wal_appends as f64),
        ("delta.fraction", mutation.delta_fraction),
        (
            "scan.dirty_ratio",
            med_ratio(&|b| Some(dirty.get(&b)? / clean.get(&b)?)),
        ),
        ("index.recover_s", mutation.recover_s),
        ("index.compact_s", med_us("index.compact") / 1e6),
        ("write.ack_p50_ms", mutation.write_p50_ms),
        ("write.ack_p99_ms", mutation.write_p99_ms),
        ("trace.qps_untraced", wire.qps_untraced),
        ("trace.qps_traced", wire.qps_traced),
        (
            "trace.overhead_frac",
            1.0 - wire.qps_traced / wire.qps_untraced,
        ),
        ("trace.spans", t.span_count() as f64),
    ];
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("the traced run did not produce `{name}`"));
            Metric::new(name, *value, unit)
        })
        .collect();

    let failed = mutation.failed + wire.failed;
    RunResult {
        correct: problems.is_empty() && failed == 0,
        attempted: n_queries * 4 + mutation.writes + wire.attempted,
        failed,
        metrics,
        detail: obj(vec![
            ("offline_s", Value::Float(offline_s)),
            ("spans_file", Value::Str(spans_path.display().to_string())),
            ("self_us_per_query", self_times(&t, n_queries)),
        ]),
        problems,
    }
}

/// Self time per span name, microseconds per traced query: the parts against the whole.
fn self_times(t: &Tracer, n_queries: u64) -> Value {
    Value::Object(
        t.totals()
            .into_iter()
            .map(|(name, totals)| {
                let us = totals.self_ns as f64 / 1e3 / n_queries as f64;
                (name.to_string(), Value::Float(us))
            })
            .collect(),
    )
}
