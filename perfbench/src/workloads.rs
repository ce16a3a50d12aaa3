//! The three workloads: set-up, the timed rounds, and the answer checks.

use crate::catalog::{self, gb60, Flat, QuerySpec, SourceKind};
use crate::host;
use crate::oracle::{self, Answer, LINEAR_SQL_ULPS};
use crate::plan::{self, Op, Plan};
use crate::probes::Counters;
use crate::stats::{Phase, Round};
use crate::trace::Tracer;
use raven_columnar::{Table, TableBuilder};
use raven_core::{PredictionOutput, RavenConfig, RavenSession};
use raven_datagen::{five_table_star, hospital};
use raven_ml::{ModelType, Pipeline};
use raven_serve::{Request, Response, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rows of the hospital table, in every workload. Scans of a 200k-row
/// table made whole batch runs 15-30% faster or slower than others as the
/// host's memory bandwidth came and went; at 100k rows the runs agree.
pub const HOSPITAL_ROWS: usize = 100_000;
/// Fact rows of the batch workload's star.
pub const STAR_ROWS: usize = 25_000;
/// Restarts after each `serve_update` round.
pub const RESTARTS_PER_ROUND: usize = 1;
/// Rows of the unread table `serve_update` registers.
const SCRATCH_ROWS: usize = 64;
/// Distinct unread table names `serve_update` cycles through.
const SCRATCH_NAMES: usize = 4;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Failed operations and wrong answers seen so far.
#[derive(Default)]
pub struct Checker {
    pub failed: u64,
    pub wrong: u64,
    first: Vec<String>,
}

impl Checker {
    fn note(&mut self, what: String) {
        if self.first.len() < 5 {
            eprintln!("perfbench: {what}");
            self.first.push(what);
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(format!("operation failed: {what}"));
    }

    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.note(format!("wrong answer: {what}"));
    }

    /// Check an SQL output against the oracle's answer.
    pub fn answer(&mut self, label: &str, out: &PredictionOutput, want: &Answer, ulps: u64) {
        match oracle::engine_answer(&out.batch).and_then(|got| oracle::check(&got, want, ulps)) {
            Ok(()) => {}
            Err(e) => self.wrong(format!("{label}: {e}")),
        }
    }
}

/// The oracle's answers for one plan (and one model version).
pub struct Expected {
    pub answers: Vec<Answer>,
    pub ulps: Vec<u64>,
    /// Reference score of each point row.
    pub points: Vec<f64>,
}

fn ulps_for(q: &QuerySpec) -> u64 {
    if q.model == "star_lr" {
        LINEAR_SQL_ULPS
    } else {
        0
    }
}

/// The oracle's answers for a plan over the hospital table alone.
fn expect_hospital(plan: &Plan, flat: &Flat, scores: &[f64]) -> Expected {
    Expected {
        answers: plan
            .queries
            .iter()
            .map(|q| oracle::expected(flat, scores, &q.preds))
            .collect(),
        ulps: plan.queries.iter().map(ulps_for).collect(),
        points: plan.points.iter().map(|&r| scores[r]).collect(),
    }
}

/// Set up `n` times, keeping the last environment; returns it with each
/// set-up's duration in seconds. Each earlier environment is dropped
/// before the next set-up starts.
pub fn setup_repeated<E>(n: usize, mut f: impl FnMut() -> E) -> (E, Vec<f64>) {
    let mut times = Vec::new();
    let mut env = None;
    for _ in 0..n {
        drop(env.take());
        let t = Instant::now();
        env = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (env.expect("at least one set-up"), times)
}

// ---------------------------------------------------------------------------
// batch_predict
// ---------------------------------------------------------------------------

pub struct BatchEnv {
    pub session: RavenSession,
    pub hosp: Flat,
    pub star: Flat,
    pub star_from: String,
    pub models: Vec<Pipeline>,
}

pub fn batch_setup(dop: usize) -> BatchEnv {
    let hosp_data = hospital(HOSPITAL_ROWS, catalog::DATA_SEED);
    let hosp = Flat::of_table(&hosp_data.tables[0]);
    let star_data = five_table_star(STAR_ROWS, catalog::DATA_SEED + 1);
    let star = Flat::of_star(&star_data);
    let models = vec![
        catalog::train(&hosp, &hosp_data, "hosp_gb", gb60(), 0),
        catalog::train(&star, &star_data, "star_gb", gb60(), 0),
        catalog::train(
            &star,
            &star_data,
            "star_lr",
            ModelType::LogisticRegression { l1_alpha: 0.0 },
            0,
        ),
        catalog::train(
            &star,
            &star_data,
            "star_dt",
            ModelType::DecisionTree { max_depth: 3 },
            0,
        ),
    ];
    let mut session = RavenSession::with_config(RavenConfig {
        degree_of_parallelism: dop,
        enable_partition_models: true,
        ..RavenConfig::default()
    });
    session.register_table(catalog::partitioned_hospital(&hosp_data));
    for t in &star_data.tables {
        session.register_table(t.clone());
    }
    for m in &models {
        session.register_model(m.clone());
    }
    let env = BatchEnv {
        session,
        hosp,
        star_from: star_data.from_clause(),
        star,
        models,
    };
    // warm-up: one query per catalog
    for q in [
        QuerySpec {
            source: SourceKind::Hospital,
            model: "hosp_gb",
            preds: vec![catalog::Pred::new(
                "asthma",
                catalog::Cmp::Eq,
                catalog::Lit::Int(1),
            )],
        },
        QuerySpec {
            source: SourceKind::Star,
            model: "star_dt",
            preds: vec![],
        },
    ] {
        env.session
            .sql(&q.sql(&env.star_from))
            .expect("warm-up query");
    }
    env
}

/// Everything a batch run needs beyond the environment, built once.
pub struct BatchWork {
    pub plan: Plan,
    pub sqls: Vec<String>,
    pub point_sqls: Vec<String>,
    pub expected: Expected,
    pub point_answers: Vec<Answer>,
}

pub fn batch_work(env: &BatchEnv, seed: u64) -> BatchWork {
    let plan = plan::batch_plan(seed, &env.hosp);
    let sqls = plan.queries.iter().map(|q| q.sql(&env.star_from)).collect();
    let hosp = &env.hosp;
    let hosp_scores = oracle::reference_scores(&env.models[0], hosp);
    let star_scores: Vec<Vec<f64>> = env.models[1..]
        .iter()
        .map(|m| oracle::reference_scores(m, &env.star))
        .collect();
    let mut answers = Vec::new();
    for q in &plan.queries {
        let (flat, scores) = match (q.source, q.model) {
            (SourceKind::Hospital, _) => (hosp, &hosp_scores),
            (SourceKind::Star, "star_gb") => (&env.star, &star_scores[0]),
            (SourceKind::Star, "star_lr") => (&env.star, &star_scores[1]),
            (SourceKind::Star, _) => (&env.star, &star_scores[2]),
        };
        answers.push(oracle::expected(flat, scores, &q.preds));
    }
    let point_specs: Vec<QuerySpec> = plan
        .points
        .iter()
        .map(|&r| QuerySpec {
            source: SourceKind::Hospital,
            model: "hosp_gb",
            preds: vec![catalog::Pred::new(
                "id",
                catalog::Cmp::Eq,
                catalog::Lit::Int(hosp.ids[r]),
            )],
        })
        .collect();
    let point_answers = point_specs
        .iter()
        .map(|q| oracle::expected(hosp, &hosp_scores, &q.preds))
        .collect();
    let expected = Expected {
        answers,
        ulps: plan.queries.iter().map(ulps_for).collect(),
        points: plan.points.iter().map(|&r| hosp_scores[r]).collect(),
    };
    BatchWork {
        sqls,
        point_sqls: point_specs.iter().map(|q| q.sql(&env.star_from)).collect(),
        plan,
        expected,
        point_answers,
    }
}

/// One ad-hoc query through the session's public calls: bind the SQL to a
/// unified plan (`ir`), then optimize and execute it (`core`), whose report
/// splits the time between the data engine and the ML runtime.
pub fn adhoc(
    session: &RavenSession,
    sql: &str,
    t: &mut Tracer,
) -> Result<PredictionOutput, String> {
    let plan = t
        .span("ir", "parse_prediction_query", |_| {
            raven_ir::parse_prediction_query(sql, session.registry(), session.catalog())
        })
        .map_err(|e| e.to_string())?;
    t.span("core", "execute", |t| {
        let start = Instant::now();
        let out = session.execute(&plan);
        if let Ok(out) = &out {
            let r = &out.report;
            t.child("core", "optimize", start, r.optimization_time);
            let data_at = start + r.optimization_time;
            t.child("relational", "data", data_at, r.data_time);
            t.child("ml", "score", data_at + r.data_time, r.ml_time);
        }
        out.map_err(|e| e.to_string())
    })
}

pub fn batch_phase(
    env: &BatchEnv,
    work: &BatchWork,
    seconds: f64,
    t: &mut Tracer,
    checker: &mut Checker,
) -> Phase {
    let plan = &work.plan;
    let covered = |q: &QuerySpec| match q.source {
        SourceKind::Hospital => env.hosp.ids.len() as f64,
        SourceKind::Star => env.star.ids.len() as f64,
    };
    let mut phase = Phase::default();
    loop {
        let mut round = Round::default();
        let jiffies = host::cpu_jiffies();
        let start = Instant::now();
        let mut checking = Duration::ZERO;
        // run one query, check its answer untimed, return its latency
        let mut run = |op: Op, t: &mut Tracer, checking: &mut Duration| -> Duration {
            let (sql, want, ulps) = match op {
                Op::Sql(i) => (
                    &work.sqls[i],
                    &work.expected.answers[i],
                    work.expected.ulps[i],
                ),
                Op::Point(p) => (&work.point_sqls[p], &work.point_answers[p], 0),
                _ => unreachable!("batch ops are queries"),
            };
            let began = Instant::now();
            let out = t.op("query", |t| adhoc(&env.session, sql, t));
            let took = began.elapsed();
            let c = Instant::now();
            match out {
                Ok(out) => checker.answer(sql, &out, want, ulps),
                Err(e) => checker.fail(format!("{sql}: {e}")),
            }
            *checking += c.elapsed();
            took
        };
        for &op in &plan.clients[0] {
            match op {
                Op::Sql(i) => {
                    let took = run(op, t, &mut checking);
                    round.sql.push(ms(took));
                    round.sql_class.push(plan.classes[i]);
                    round.covered_rows += covered(&plan.queries[i]);
                    round.ops += 1;
                }
                Op::Point(_) => {
                    let took = run(op, t, &mut checking);
                    round.point.push(ms(took));
                    round.ops += 1;
                }
                Op::Burst(b) => {
                    // without a server the members run one after another
                    let mut took = Duration::ZERO;
                    for &m in &plan.bursts[b] {
                        took += run(m, t, &mut checking);
                        round.ops += 1;
                    }
                    round.burst.push(ms(took));
                }
                Op::Write(_) | Op::Variant(_) => unreachable!("batch_predict runs queries"),
            }
        }
        round.wall = (start.elapsed() - checking).as_secs_f64();
        round.steal = host::steal_share(jiffies, host::cpu_jiffies());
        phase.rounds.push(round);
        if phase.wall() >= seconds {
            return phase;
        }
    }
}

// ---------------------------------------------------------------------------
// serving workloads
// ---------------------------------------------------------------------------

fn session_config() -> RavenConfig {
    RavenConfig {
        degree_of_parallelism: 1,
        enable_partition_models: true,
        ..RavenConfig::default()
    }
}

pub fn server_config(data_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        worker_threads: crate::host::nproc().min(2),
        data_dir,
        ..ServerConfig::default()
    }
}

pub struct ServeEnv {
    pub server: Server,
    pub flat: Flat,
    /// Model versions: the first is registered at set-up, the second (same
    /// name, trained on other rows) only by `serve_update`'s writes.
    pub models: Vec<Pipeline>,
    pub data_dir: Option<PathBuf>,
}

/// Set up a serving environment. With `data_dir` the server is durable:
/// it is opened over an empty directory, the table and model registrations
/// are journaled, and a snapshot is taken before the warm-up.
pub fn serve_setup(versions: usize, data_dir: Option<PathBuf>) -> ServeEnv {
    let data = hospital(HOSPITAL_ROWS, catalog::DATA_SEED);
    let flat = Flat::of_table(&data.tables[0]);
    let models: Vec<Pipeline> = (0..versions)
        .map(|v| catalog::train(&flat, &data, "hosp_gb", gb60(), v * catalog::TRAIN_ROWS))
        .collect();
    let server = match &data_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create data dir");
            let server = Server::open_durable(server_config(Some(dir.clone())), session_config())
                .expect("open durable server");
            server
                .register_table(catalog::partitioned_hospital(&data))
                .expect("register table");
            server
                .register_model(models[0].clone())
                .expect("register model");
            server.snapshot_now().expect("snapshot");
            server
        }
        None => {
            let mut session = RavenSession::with_config(session_config());
            session.register_table(catalog::partitioned_hospital(&data));
            session.register_model(models[0].clone());
            Server::new(session, server_config(None))
        }
    };
    ServeEnv {
        server,
        flat,
        models,
        data_dir,
    }
}

/// The oracle for each model version of a serving plan.
pub fn serve_expected(env: &ServeEnv, plan: &Plan) -> Vec<Expected> {
    env.models
        .iter()
        .map(|m| expect_hospital(plan, &env.flat, &oracle::reference_scores(m, &env.flat)))
        .collect()
}

/// Warm the server: the hot query, one point, and the first variants.
pub fn serve_warm(env: &ServeEnv, plan: &Plan, sqls: &[String]) {
    let hot = &sqls[plan.hot];
    env.server.sql(hot).expect("warm-up query");
    env.server
        .point(hot, point_rows(env, plan).swap_remove(0))
        .expect("warm-up point");
    for sql in sqls.iter().take(9) {
        env.server.sql(sql).expect("warm-up variant");
    }
}

/// A response the client keeps until the round's checks.
enum Got {
    Sql(usize, Result<Box<PredictionOutput>, String>),
    Point(usize, Result<f64, String>),
}

/// Run one client's list once against a server; returns the round's
/// samples and the responses to check.
#[allow(clippy::too_many_arguments)]
fn serve_client(
    server: &Server,
    plan: &Plan,
    round_index: usize,
    ops: &[Op],
    sqls: &[String],
    rows: &[Vec<(String, raven_columnar::Value)>],
    covered: f64,
    t: &mut Tracer,
) -> (Round, Vec<Got>) {
    let mut round = Round::default();
    let mut got = Vec::new();
    let request = |op: Op| match op {
        Op::Sql(i) => Request::Sql(sqls[i].clone()),
        Op::Point(p) => Request::Point {
            sql: sqls[plan.hot].clone(),
            row: rows[p].clone(),
        },
        _ => unreachable!("requests are queries or points"),
    };
    let keep = |op: Op, r: Result<Response, raven_serve::ServeError>| match (op, r) {
        (Op::Sql(i), Ok(Response::Sql(out))) => Got::Sql(i, Ok(out)),
        (Op::Point(p), Ok(Response::Point(pp))) => Got::Point(p, Ok(pp.score)),
        (Op::Sql(i), r) => Got::Sql(i, Err(format!("{:?}", r.err()))),
        (Op::Point(p), r) => Got::Point(p, Err(format!("{:?}", r.err()))),
        _ => unreachable!("requests are queries or points"),
    };
    for &op in ops {
        let op = match op {
            Op::Variant(k) => Op::Sql(plan.variant(round_index, k)),
            op => op,
        };
        match op {
            Op::Sql(_) | Op::Point(_) => {
                let began = Instant::now();
                let name = if matches!(op, Op::Sql(_)) {
                    "sql"
                } else {
                    "point"
                };
                let r = t.op(name, |t| {
                    t.span("serve", name, |_| {
                        server.submit(request(op)).and_then(|ticket| ticket.wait())
                    })
                });
                let took = ms(began.elapsed());
                if let Op::Sql(i) = op {
                    round.sql.push(took);
                    round.sql_class.push(plan.classes[i]);
                    round.covered_rows += covered;
                } else {
                    round.point.push(took);
                }
                round.ops += 1;
                got.push(keep(op, r));
            }
            Op::Burst(b) => {
                let members = &plan.bursts[b];
                let began = Instant::now();
                let answers: Vec<_> = t.op("burst", |t| {
                    t.span("serve", "burst", |_| {
                        let tickets: Vec<_> =
                            members.iter().map(|&m| server.submit(request(m))).collect();
                        tickets
                            .into_iter()
                            .map(|tk| tk.and_then(|tk| tk.wait()))
                            .collect()
                    })
                });
                round.burst.push(ms(began.elapsed()));
                round.ops += members.len() as u64;
                for (&m, r) in members.iter().zip(answers) {
                    got.push(keep(m, r));
                }
            }
            Op::Write(_) | Op::Variant(_) => unreachable!("writes are issued by serve_update"),
        }
    }
    (round, got)
}

fn check_got(got: Vec<Got>, sqls: &[String], want: &Expected, checker: &mut Checker) {
    for g in got {
        match g {
            Got::Sql(i, Ok(out)) => checker.answer(&sqls[i], &out, &want.answers[i], want.ulps[i]),
            Got::Point(p, Ok(score)) => {
                if let Err(e) = oracle::check_score(score, want.points[p], 0) {
                    checker.wrong(format!("point row {p}: {e}"));
                }
            }
            Got::Sql(i, Err(e)) => checker.fail(format!("{}: {e}", sqls[i])),
            Got::Point(p, Err(e)) => checker.fail(format!("point row {p}: {e}")),
        }
    }
}

/// Each point row carries the model's inputs and the `id` the hot query's
/// range predicate reads.
pub fn point_rows(env: &ServeEnv, plan: &Plan) -> Vec<Vec<(String, raven_columnar::Value)>> {
    let mut inputs = catalog::input_names(&env.models[0]);
    inputs.push("id".into());
    plan.points
        .iter()
        .map(|&r| env.flat.row(r, &inputs))
        .collect()
}

/// `serve_read`: every client thread runs its list once per round; the
/// round's wall time is the window from the first submit to the last
/// answer of either client.
pub fn serve_read_phase(
    env: &ServeEnv,
    plan: &Plan,
    sqls: &[String],
    want: &Expected,
    seconds: f64,
    tracers: &mut [Tracer],
    checker: &mut Checker,
) -> Phase {
    let rows = point_rows(env, plan);
    let covered = env.flat.ids.len() as f64;
    let mut phase = Phase::default();
    loop {
        let jiffies = host::cpu_jiffies();
        let start = Instant::now();
        let results: Vec<(Round, Vec<Got>)> = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .clients
                .iter()
                .zip(tracers.iter_mut())
                .map(|(ops, t)| {
                    let rows = &rows;
                    let r = phase.rounds.len();
                    s.spawn(move || serve_client(&env.server, plan, r, ops, sqls, rows, covered, t))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut round = Round {
            wall,
            steal: host::steal_share(jiffies, host::cpu_jiffies()),
            ..Round::default()
        };
        for (r, got) in results {
            round.sql.extend(r.sql);
            round.sql_class.extend(r.sql_class);
            round.point.extend(r.point);
            round.burst.extend(r.burst);
            round.covered_rows += r.covered_rows;
            round.ops += r.ops;
            check_got(got, sqls, want, checker);
        }
        phase.rounds.push(round);
        if phase.wall() >= seconds {
            return phase;
        }
    }
}

/// What `serve_update` has had acknowledged: the live model version and
/// the sequence number last written to each unread table.
pub struct Acked {
    pub version: usize,
    pub scratch: Vec<Option<i64>>,
    pub seq: i64,
}

fn scratch_name(k: usize) -> String {
    format!("scratch_{k}")
}

fn scratch_table(k: usize, seq: i64) -> Table {
    TableBuilder::new(scratch_name(k))
        .add_i64("id", (0..SCRATCH_ROWS as i64).collect())
        .add_i64("seq", vec![seq; SCRATCH_ROWS])
        .build()
        .expect("scratch table")
}

/// Check that every acknowledged registration survived a restart.
fn check_acked(server: &Server, acked: &Acked, checker: &mut Checker) {
    for (k, seq) in acked.scratch.iter().enumerate() {
        let Some(seq) = seq else { continue };
        let found = server.with_session(|s| {
            s.catalog()
                .table(&scratch_name(k))
                .ok()
                .and_then(|t| t.to_batch().ok())
                .and_then(|b| {
                    b.column_by_name("seq")
                        .ok()?
                        .as_i64()
                        .ok()?
                        .first()
                        .copied()
                })
        });
        if found != Some(*seq) {
            checker.wrong(format!(
                "after restart table {} holds write {found:?}, acknowledged write {seq}",
                scratch_name(k)
            ));
        }
    }
}

/// `serve_update`: the one client's list with its registrations, then
/// [`RESTARTS_PER_ROUND`] restarts. The serving counters of every server
/// the phase retires are added to `counters`.
#[allow(clippy::too_many_arguments)]
pub fn serve_update_phase(
    env: &mut ServeEnv,
    plan: &Plan,
    sqls: &[String],
    want: &[Expected],
    acked: &mut Acked,
    seconds: f64,
    t: &mut Tracer,
    checker: &mut Checker,
    counters: &mut Counters,
) -> Phase {
    let rows = point_rows(env, plan);
    let covered = env.flat.ids.len() as f64;
    let dir = env.data_dir.clone().expect("durable server");
    let mut phase = Phase::default();
    loop {
        // compact the journal, so every round's restarts replay the same
        // records over a snapshot
        env.server.snapshot_now().expect("snapshot");
        let mut round = Round::default();
        let jiffies = host::cpu_jiffies();
        let start = Instant::now();
        let mut checking = Duration::ZERO;
        // reads between writes run as one list, so they share the
        // client code with serve_read; writes are issued here
        let ops = &plan.clients[0];
        let mut i = 0;
        while i < ops.len() {
            if let Op::Write(w) = ops[i] {
                let began = Instant::now();
                let r = if w % 2 == 0 {
                    let version = (acked.version + 1) % env.models.len();
                    let r = t.op("write", |t| {
                        t.span("serve", "register_model", |_| {
                            env.server.register_model(env.models[version].clone())
                        })
                    });
                    if r.is_ok() {
                        acked.version = version;
                    }
                    r
                } else {
                    let k = (w / 2) % SCRATCH_NAMES;
                    acked.seq += 1;
                    let table = scratch_table(k, acked.seq);
                    let r = t.op("write", |t| {
                        t.span("serve", "register_table", |_| {
                            env.server.register_table(table)
                        })
                    });
                    if r.is_ok() {
                        acked.scratch[k] = Some(acked.seq);
                    }
                    r
                };
                round.write.push(ms(began.elapsed()));
                round.ops += 1;
                if let Err(e) = r {
                    checker.fail(format!("registration {w}: {e}"));
                }
                i += 1;
                continue;
            }
            let end = ops[i..]
                .iter()
                .position(|op| matches!(op, Op::Write(_)))
                .map_or(ops.len(), |p| i + p);
            let (r, got) =
                serve_client(&env.server, plan, 0, &ops[i..end], sqls, &rows, covered, t);
            let c = Instant::now();
            // read-your-writes: every read must see the acknowledged version
            check_got(got, sqls, &want[acked.version], checker);
            checking += c.elapsed();
            round.sql.extend(r.sql);
            round.sql_class.extend(r.sql_class);
            round.point.extend(r.point);
            round.burst.extend(r.burst);
            round.covered_rows += r.covered_rows;
            round.ops += r.ops;
            i = end;
        }
        round.wall = (start.elapsed() - checking).as_secs_f64();
        round.steal = host::steal_share(jiffies, host::cpu_jiffies());
        for _ in 0..RESTARTS_PER_ROUND {
            counters.add(&env.server.report(), 1.0);
            round
                .restart
                .push(restart(env, &dir, plan, sqls, want, acked, t, checker));
        }
        phase.rounds.push(round);
        if phase.wall() >= seconds {
            return phase;
        }
    }
}

/// Drop the server, reopen it from its data directory, and time the reopen
/// until the first correct answer to the hot query. Returns milliseconds.
#[allow(clippy::too_many_arguments)]
fn restart(
    env: &mut ServeEnv,
    dir: &Path,
    plan: &Plan,
    sqls: &[String],
    want: &[Expected],
    acked: &Acked,
    t: &mut Tracer,
    checker: &mut Checker,
) -> f64 {
    // the durable server must be closed before its directory is reopened;
    // an idle server without workers holds its place meanwhile
    let placeholder = Server::new(
        RavenSession::new(),
        ServerConfig {
            worker_threads: 0,
            ..ServerConfig::default()
        },
    );
    drop(std::mem::replace(&mut env.server, placeholder));
    let began = Instant::now();
    let reopened = t.op("restart", |t| {
        let server = t.span("storage", "open_durable", |_| {
            Server::open_durable(server_config(Some(dir.to_path_buf())), session_config())
        });
        server.map(|s| {
            let out = t.span("serve", "sql", |_| s.sql(&sqls[plan.hot]));
            (s, out)
        })
    });
    let took = ms(began.elapsed());
    match reopened {
        Ok((server, out)) => {
            env.server = server;
            match out {
                Ok(out) => {
                    let want = &want[acked.version];
                    checker.answer(
                        "first answer after restart",
                        &out,
                        &want.answers[plan.hot],
                        0,
                    )
                }
                Err(e) => checker.fail(format!("first query after restart: {e}")),
            }
            check_acked(&env.server, acked, checker);
        }
        Err(e) => panic!("reopening the data directory failed: {e}"),
    }
    took
}

pub fn new_acked() -> Acked {
    Acked {
        version: 0,
        scratch: vec![None; SCRATCH_NAMES],
        seq: 0,
    }
}
