//! Per-layer probes of the traced run. Each probe calls one layer's public
//! functions directly, on the workload's own queries, model and catalog,
//! under spans, and reads the counters the engine reports
//! (`ExecutionReport`, `ServingReport`).

use crate::stats::{median, Phase};
use crate::trace::{Tracer, LAYERS};
use crate::Metric;
use raven_columnar::{Batch, TableBuilder};
use raven_core::RavenSession;
use raven_ml::{CompiledPipeline, MlRuntime, Pipeline};
use raven_serve::{Server, ServerConfig, ServingReport};
use raven_storage::DurableStore;
use std::path::Path;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Serving counters summed over every server a phase used (a restart
/// replaces the server, and its counters start again at zero).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub plan_cache_hits: f64,
    pub plan_cache_misses: f64,
    pub model_cache_misses: f64,
    pub single_flight_waits: f64,
    pub fused_groups: f64,
    pub sql_requests_fused: f64,
    pub micro_batches: f64,
    pub coalesced_points: f64,
    /// Queue wait percentiles, in microseconds, of the server that
    /// completed the most requests.
    pub queue_wait_p50_us: f64,
    pub queue_wait_p95_us: f64,
    completed: u64,
}

impl Counters {
    /// `sign` +1 adds the report's counts, -1 subtracts them.
    pub fn add(&mut self, r: &ServingReport, sign: f64) {
        self.plan_cache_hits += sign * r.plan_cache_hits as f64;
        self.plan_cache_misses += sign * r.plan_cache_misses as f64;
        self.model_cache_misses += sign * r.model_cache_misses as f64;
        self.single_flight_waits += sign * r.single_flight_waits as f64;
        self.fused_groups += sign * r.fused_groups as f64;
        self.sql_requests_fused += sign * r.sql_requests_fused as f64;
        self.micro_batches += sign * r.micro_batches as f64;
        self.coalesced_points += sign * r.coalesced_points as f64;
        if sign > 0.0 && r.completed > self.completed {
            self.completed = r.completed;
            self.queue_wait_p50_us = r.queue_wait_p50.as_secs_f64() * 1e6;
            self.queue_wait_p95_us = r.queue_wait_p95.as_secs_f64() * 1e6;
        }
    }

    /// Serving metrics per `per` (rounds of the traced phase, or 1).
    pub fn metrics(&self, per: f64, out: &mut Vec<Metric>) {
        let lookups = self.plan_cache_hits + self.plan_cache_misses;
        out.push(Metric::new(
            "serve.queue_wait_p50_us",
            self.queue_wait_p50_us,
            "us",
        ));
        out.push(Metric::new(
            "serve.queue_wait_p95_us",
            self.queue_wait_p95_us,
            "us",
        ));
        out.push(Metric::new(
            "serve.plan_cache_hit_rate",
            if lookups > 0.0 {
                self.plan_cache_hits / lookups
            } else {
                0.0
            },
            "ratio",
        ));
        for (name, v) in [
            ("serve.plan_cache_misses", self.plan_cache_misses),
            ("serve.model_cache_misses", self.model_cache_misses),
            ("serve.single_flight_waits", self.single_flight_waits),
            ("serve.fused_groups", self.fused_groups),
            ("serve.sql_requests_fused", self.sql_requests_fused),
            ("serve.micro_batches", self.micro_batches),
            ("serve.coalesced_points", self.coalesced_points),
        ] {
            out.push(Metric::new(name, v / per, "count"));
        }
    }
}

/// Decompose each query into its layers' public calls at DOP 1:
/// `fingerprint_query` and `parse` (`ir`), `RavenSession::prepare` and
/// `execute_prepared` (`core`), with the report's data and ML time as
/// child spans (`relational`, `ml`). Counters are summed over the list.
pub fn layer_pass(session: &RavenSession, sqls: &[String], t: &mut Tracer, out: &mut Vec<Metric>) {
    let mut optimize = Vec::new();
    let mut data = Vec::new();
    let mut score = Vec::new();
    let mut sums = [0usize; 8];
    for sql in sqls {
        t.op("layers", |t| {
            t.span("ir", "fingerprint_query", |_| {
                raven_ir::fingerprint_query(sql)
            })
            .expect("fingerprint");
            t.span("ir", "parse", |_| raven_ir::parse(sql))
                .expect("parse");
            let prepared = t
                .span("core", "prepare", |_| session.prepare(sql))
                .expect("prepare");
            optimize.push(ms(prepared.optimization_time()));
            let report = t.span("core", "execute_prepared", |t| {
                let start = Instant::now();
                let r = session.execute_prepared(&prepared).expect("execute").report;
                t.child("relational", "data", start, r.data_time);
                t.child("ml", "score", start + r.data_time, r.ml_time);
                r
            });
            data.push(ms(report.data_time));
            score.push(ms(report.ml_time));
            for (s, v) in sums.iter_mut().zip([
                report.data_induced.partition_models,
                report.cross.removed_inputs.len(),
                report.streamed_partitions,
                report.pruned_partitions,
                report.join_build_rows,
                report.join_probe_batches,
                report.intermediate_materializations,
                report.output_rows,
            ]) {
                *s += v;
            }
        });
    }
    let med = |layer: &str, name: &str| median(&t.durations_ms(layer, name));
    out.push(Metric::new(
        "ir.fingerprint_us",
        1e3 * med("ir", "fingerprint_query"),
        "us",
    ));
    out.push(Metric::new("ir.parse_us", 1e3 * med("ir", "parse"), "us"));
    out.push(Metric::new("core.prepare_ms", med("core", "prepare"), "ms"));
    out.push(Metric::new("core.optimize_ms", median(&optimize), "ms"));
    out.push(Metric::new(
        "core.partition_models",
        sums[0] as f64,
        "count",
    ));
    out.push(Metric::new("core.inputs_pruned", sums[1] as f64, "count"));
    out.push(Metric::new(
        "core.execute_ms",
        med("core", "execute_prepared"),
        "ms",
    ));
    out.push(Metric::new("relational.data_ms", median(&data), "ms"));
    out.push(Metric::new(
        "relational.partitions_scanned",
        sums[2] as f64,
        "count",
    ));
    out.push(Metric::new(
        "relational.partitions_pruned",
        sums[3] as f64,
        "count",
    ));
    out.push(Metric::new(
        "relational.join_build_rows",
        sums[4] as f64,
        "rows",
    ));
    out.push(Metric::new(
        "relational.join_probe_batches",
        sums[5] as f64,
        "count",
    ));
    out.push(Metric::new(
        "relational.intermediate_materializations",
        sums[6] as f64,
        "count",
    ));
    out.push(Metric::new("ml.score_ms", median(&score), "ms"));
    out.push(Metric::new("ml.rows_scored", sums[7] as f64, "rows"));
}

/// Compiled-pipeline scoring of a fixed feature batch through `MlRuntime`.
pub fn kernel_rows_per_s(model: &Pipeline, batch: &Batch, t: &mut Tracer) -> f64 {
    let compiled = CompiledPipeline::compile(model).expect("compile pipeline");
    let runtime = MlRuntime::new();
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let scores = t.op("kernel", |t| {
                t.span("ml", "run_batch_compiled", |_| {
                    runtime.run_batch_compiled(&compiled, batch)
                })
            });
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(
                std::hint::black_box(scores).expect("score").len(),
                batch.num_rows()
            );
            batch.num_rows() as f64 / secs.max(1e-9)
        })
        .collect();
    median(&rates)
}

/// The serving tier's own cost per request: served latency of the hot
/// query minus the bare fingerprint + `execute_prepared` of the same
/// query, medians of 200 each. Returns (overhead µs, the probe server's
/// report).
pub fn serve_overhead(
    session: &RavenSession,
    config: ServerConfig,
    hot: &str,
    t: &mut Tracer,
) -> (f64, ServingReport) {
    const N: usize = 200;
    let server = Server::new(session.clone(), config);
    server.sql(hot).expect("warm the probe server");
    let served: Vec<f64> = (0..N)
        .map(|_| {
            let start = Instant::now();
            t.op("served", |t| t.span("serve", "sql", |_| server.sql(hot)))
                .expect("served query");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let report = server.shutdown();
    let prepared = session.prepare(hot).expect("prepare hot query");
    let bare: Vec<f64> = (0..N)
        .map(|_| {
            let start = Instant::now();
            t.op("bare", |t| {
                t.span("ir", "fingerprint_query", |_| {
                    raven_ir::fingerprint_query(hot)
                })
                .expect("fingerprint");
                t.span("core", "execute_prepared", |_| {
                    session.execute_prepared(&prepared)
                })
                .expect("execute");
            });
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    (median(&served) - median(&bare), report)
}

/// Journal appends of the workload's own payloads (its hot model and a
/// small table), a snapshot of its catalog, and recovery from both.
pub fn storage(
    session: &RavenSession,
    model: &Pipeline,
    dir: &Path,
    t: &mut Tracer,
    out: &mut Vec<Metric>,
) {
    const APPENDS: usize = 10;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("probe data dir");
    let (store, _) = DurableStore::open(dir).expect("open store");
    let (snapshot_ms, snapshot_bytes) = {
        let start = Instant::now();
        let bytes = t.op("snapshot", |t| {
            t.span("storage", "snapshot", |_| {
                store.snapshot(session.catalog(), session.registry(), &[])
            })
        });
        (ms(start.elapsed()), bytes.expect("snapshot") as f64)
    };
    let journal_len = || std::fs::metadata(store.journal_path()).map_or(0, |m| m.len());
    let before = journal_len();
    let table = TableBuilder::new("probe_scratch")
        .add_i64("id", (0..64).collect())
        .add_i64("seq", vec![1; 64])
        .build()
        .expect("probe table");
    let (cat, reg) = (session.catalog().epoch(), session.registry().epoch());
    let appends: Vec<f64> = (0..APPENDS as u64)
        .map(|i| {
            let start = Instant::now();
            t.op("append", |t| {
                t.span("storage", "append", |_| {
                    if i % 2 == 0 {
                        store.log_register_model(&model.name, model, cat + i / 2, reg + i / 2 + 1)
                    } else {
                        store.log_register_table(
                            "probe_scratch",
                            &table,
                            cat + i / 2 + 1,
                            reg + i / 2 + 1,
                        )
                    }
                })
            })
            .expect("journal append");
            ms(start.elapsed())
        })
        .collect();
    let journal_bytes = (journal_len() - before) as f64 / APPENDS as f64;
    drop(store);
    let start = Instant::now();
    let (_, info) = t
        .op("recover", |t| {
            t.span("storage", "open_durable", |_| {
                RavenSession::open_durable(dir, session.config().clone())
            })
        })
        .expect("recover");
    let recover_ms = ms(start.elapsed());
    let _ = std::fs::remove_dir_all(dir);
    out.push(Metric::new("storage.append_ms", median(&appends), "ms"));
    out.push(Metric::new(
        "storage.journal_bytes_per_write",
        journal_bytes,
        "B",
    ));
    out.push(Metric::new("storage.snapshot_ms", snapshot_ms, "ms"));
    out.push(Metric::new("storage.snapshot_bytes", snapshot_bytes, "B"));
    out.push(Metric::new("storage.recover_ms", recover_ms, "ms"));
    out.push(Metric::new(
        "storage.records_replayed",
        info.journal_records_replayed as f64,
        "count",
    ));
}

/// Self time per layer, per traced operation, and the tracing overhead:
/// how much slower the traced phase ran than the untraced one of the same
/// process and settings.
pub fn self_times(t: &Tracer, untraced: &Phase, traced: &Phase, out: &mut Vec<Metric>) {
    let own = t.self_ns();
    let ops = t.ops().max(1) as f64;
    for (layer, name) in LAYERS {
        out.push(Metric::new(name, own[layer] as f64 / 1e6 / ops, "ms/op"));
    }
    out.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (untraced.qps() / traced.qps().max(1e-9) - 1.0),
        "%",
    ));
}
