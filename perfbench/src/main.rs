//! perfbench: the end-to-end benchmark of Raven prediction queries.
//!
//! ```text
//! perfbench --workload <batch_predict|serve_read|serve_update> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! One workload runs per process. It is set up several times (the median
//! set-up time is reported), then repeats its seeded operation list in
//! whole rounds until `--seconds` of operations have been measured. Every
//! answer is checked against an oracle computed outside the engine. With
//! `--trace 1` the run measures the same list again under spans, runs the
//! per-layer probes, and reports per-layer metrics instead. The last line
//! of standard output is one JSON object with the result.

mod catalog;
mod host;
mod oracle;
mod plan;
mod probes;
mod stats;
mod trace;
mod workloads;

use probes::Counters;
use stats::{median, Phase};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::{setup_repeated, Checker};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Variants of the hot query the serving workloads' layer pass prepares.
const PROBE_VARIANTS: usize = 32;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <batch_predict|serve_read|serve_update> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

struct Outcome {
    checker: Checker,
    attempted: u64,
    metrics: Vec<Metric>,
}

/// Print a phase's end-to-end figures with their sample counts.
fn describe(label: &str, phase: &Phase) {
    let sql = phase.sql();
    println!(
        "{label}: rounds={} (set aside for cpu steal: {}) ops={} wall={:.3}s qps={:.1} rows_per_s={:.0} \
         sql_p50_ms={:.3} (n={}) sql_tail_ms={:.3} (rank {} of {} per round) \
         point_p50_ms={:.3} (n={}) burst_p50_ms={:.3} (n={})",
        phase.rounds.len(),
        phase.set_aside(),
        phase.ops(),
        phase.wall(),
        phase.qps(),
        phase.rows_per_s(),
        phase.sql_p50(),
        sql.len(),
        phase.sql_tail(),
        stats::tail_rank(phase.sql_per_round()).map_or(0, |r| r + 1),
        phase.sql_per_round(),
        median(&phase.point()),
        phase.point().len(),
        median(&phase.burst()),
        phase.burst().len(),
    );
    let walls: Vec<String> = phase
        .rounds
        .iter()
        .map(|r| format!("{:.2}", r.wall))
        .collect();
    println!("{label}: round walls (s): {}", walls.join(" "));
    let write = phase.write();
    if !write.is_empty() {
        println!(
            "{label}: write_p50_ms={:.3} (n={}) restart_ms={:.3} (n={})",
            median(&write),
            write.len(),
            median(&phase.restart()),
            phase.restart().len()
        );
    }
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(phase: &Phase, setup: &[f64]) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setup), "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
        Metric::new("qps", phase.qps(), "1/s"),
        Metric::new("rows_per_s", phase.rows_per_s(), "rows/s"),
        Metric::new("sql_p50_ms", phase.sql_p50(), "ms"),
        Metric::new("sql_tail_ms", phase.sql_tail(), "ms"),
        Metric::new("point_p50_ms", median(&phase.point()), "ms"),
        Metric::new("burst_p50_ms", median(&phase.burst()), "ms"),
    ]
}

fn write_spans(a: &Args, t: &Tracer) {
    let path = a.out.join(format!("trace-{}-{}.jsonl", a.workload, a.seed));
    match t.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", t.spans().len(), path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn run_batch(a: &Args, epoch: Instant) -> Outcome {
    // the traced run uses DOP 1, where the report's data/ML split is exact
    let dop = if a.trace { 1 } else { host::nproc() };
    let (env, setup) = setup_repeated(SETUPS, || workloads::batch_setup(dop));
    println!("setup_s: {setup:.3?} (dop {dop})");
    let work = workloads::batch_work(&env, a.seed);
    let mut checker = Checker::default();
    let window = host::HostWindow::start();
    let phase = workloads::batch_phase(
        &env,
        &work,
        a.seconds,
        &mut Tracer::new(false, epoch, 0),
        &mut checker,
    );
    println!("{}", window.finish());
    describe("untraced", &phase);
    if !a.trace {
        return Outcome {
            attempted: phase.ops(),
            metrics: end_to_end(&phase, &setup),
            checker,
        };
    }
    let mut t = Tracer::new(true, epoch, 1);
    let traced = workloads::batch_phase(&env, &work, a.seconds, &mut t, &mut checker);
    describe("traced", &traced);
    let mut sqls = work.sqls.clone();
    sqls.extend(work.point_sqls.iter().take(4).cloned());
    let mut m = layer_metrics(
        a,
        &env.session,
        &sqls,
        work.plan.hot,
        &env.models[0],
        &env.hosp,
        None,
        &mut t,
    );
    probes::self_times(&t, &phase, &traced, &mut m);
    write_spans(a, &t);
    Outcome {
        attempted: phase.ops() + traced.ops(),
        metrics: m,
        checker,
    }
}

/// The per-layer probes, on the workload's own queries (`sqls`, of which
/// `hot` is the cheap hot query), model and catalog. The serving counters
/// come from the workload's servers over the traced phase, per round, or,
/// for a workload without a server, from the serving-overhead probe's.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    a: &Args,
    session: &raven_core::RavenSession,
    sqls: &[String],
    hot: usize,
    model: &raven_ml::Pipeline,
    flat: &catalog::Flat,
    serving: Option<(&Counters, usize)>,
    t: &mut Tracer,
) -> Vec<Metric> {
    let mut m = Vec::new();
    probes::layer_pass(session, sqls, t, &mut m);
    let sample = flat
        .batch
        .slice(0, catalog::TRAIN_ROWS)
        .expect("kernel batch");
    let kernel = probes::kernel_rows_per_s(model, &sample, t);
    m.push(Metric::new("ml.kernel_rows_per_s", kernel, "rows/s"));
    let (overhead, report) =
        probes::serve_overhead(session, workloads::server_config(None), &sqls[hot], t);
    m.push(Metric::new("serve.overhead_us", overhead, "us"));
    match serving {
        Some((counters, rounds)) => counters.metrics(rounds as f64, &mut m),
        None => {
            let mut counters = Counters::default();
            counters.add(&report, 1.0);
            counters.metrics(1.0, &mut m);
        }
    }
    let dir = a.out.join(format!("storage-{}", std::process::id()));
    probes::storage(session, model, &dir, t, &mut m);
    m
}

/// The serving workloads' per-layer metrics: the layer pass covers the hot
/// query and the first [`PROBE_VARIANTS`] variants.
fn serve_layers(
    a: &Args,
    env: &workloads::ServeEnv,
    plan: &plan::Plan,
    sqls: &[String],
    counters: &Counters,
    rounds: usize,
    t: &mut Tracer,
) -> Vec<Metric> {
    let session = env.server.with_session(|s| s.clone());
    let probe: Vec<usize> = std::iter::once(plan.hot)
        .chain(plan.variants.iter().take(PROBE_VARIANTS).copied())
        .collect();
    let probe_sqls: Vec<String> = probe.iter().map(|&i| sqls[i].clone()).collect();
    let serving = Some((counters, rounds));
    layer_metrics(
        a,
        &session,
        &probe_sqls,
        0,
        &env.models[0],
        &env.flat,
        serving,
        t,
    )
}

fn run_serve_read(a: &Args, epoch: Instant) -> Outcome {
    let ((env, plan, sqls), setup) = setup_repeated(SETUPS, || {
        let env = workloads::serve_setup(1, None);
        let plan = plan::serve_read_plan(a.seed, &env.flat);
        let sqls: Vec<String> = plan.queries.iter().map(|q| q.sql("")).collect();
        workloads::serve_warm(&env, &plan, &sqls);
        (env, plan, sqls)
    });
    println!("setup_s: {setup:.3?}");
    let want = workloads::serve_expected(&env, &plan).remove(0);
    let mut checker = Checker::default();
    let mut quiet: Vec<Tracer> = (0..plan.clients.len())
        .map(|c| Tracer::new(false, epoch, c as u64))
        .collect();
    let window = host::HostWindow::start();
    let phase = workloads::serve_read_phase(
        &env,
        &plan,
        &sqls,
        &want,
        a.seconds,
        &mut quiet,
        &mut checker,
    );
    println!("{}", window.finish());
    describe("untraced", &phase);
    if !a.trace {
        return Outcome {
            attempted: phase.ops(),
            metrics: end_to_end(&phase, &setup),
            checker,
        };
    }
    let mut tracers: Vec<Tracer> = (0..plan.clients.len())
        .map(|c| Tracer::new(true, epoch, 1 + c as u64))
        .collect();
    let mut counters = Counters::default();
    counters.add(&env.server.report(), -1.0);
    let traced = workloads::serve_read_phase(
        &env,
        &plan,
        &sqls,
        &want,
        a.seconds,
        &mut tracers,
        &mut checker,
    );
    counters.add(&env.server.report(), 1.0);
    describe("traced", &traced);
    let mut t = Tracer::new(true, epoch, 100);
    for other in tracers {
        t.absorb(other);
    }
    let mut m = serve_layers(
        a,
        &env,
        &plan,
        &sqls,
        &counters,
        traced.rounds.len(),
        &mut t,
    );
    probes::self_times(&t, &phase, &traced, &mut m);
    write_spans(a, &t);
    Outcome {
        attempted: phase.ops() + traced.ops(),
        metrics: m,
        checker,
    }
}

fn run_serve_update(a: &Args, epoch: Instant) -> Outcome {
    let dir = a.out.join(format!("data-{}", std::process::id()));
    let ((mut env, plan, sqls), setup) = setup_repeated(SETUPS, || {
        let env = workloads::serve_setup(2, Some(dir.clone()));
        let plan = plan::serve_update_plan(a.seed, &env.flat);
        let sqls: Vec<String> = plan.queries.iter().map(|q| q.sql("")).collect();
        workloads::serve_warm(&env, &plan, &sqls);
        (env, plan, sqls)
    });
    println!("setup_s: {setup:.3?}");
    let want = workloads::serve_expected(&env, &plan);
    let mut checker = Checker::default();
    let mut acked = workloads::new_acked();
    let window = host::HostWindow::start();
    let mut counters = Counters::default();
    let phase = workloads::serve_update_phase(
        &mut env,
        &plan,
        &sqls,
        &want,
        &mut acked,
        a.seconds,
        &mut Tracer::new(false, epoch, 0),
        &mut checker,
        &mut counters,
    );
    println!("{}", window.finish());
    describe("untraced", &phase);
    let restarts = |p: &Phase| p.restart().len() as u64;
    let outcome = if !a.trace {
        Outcome {
            attempted: phase.ops() + restarts(&phase),
            metrics: end_to_end(&phase, &setup),
            checker,
        }
    } else {
        let mut t = Tracer::new(true, epoch, 1);
        let mut counters = Counters::default();
        counters.add(&env.server.report(), -1.0);
        let traced = workloads::serve_update_phase(
            &mut env,
            &plan,
            &sqls,
            &want,
            &mut acked,
            a.seconds,
            &mut t,
            &mut checker,
            &mut counters,
        );
        counters.add(&env.server.report(), 1.0);
        describe("traced", &traced);
        let mut m = serve_layers(
            a,
            &env,
            &plan,
            &sqls,
            &counters,
            traced.rounds.len(),
            &mut t,
        );
        probes::self_times(&t, &phase, &traced, &mut m);
        write_spans(a, &t);
        Outcome {
            attempted: phase.ops() + restarts(&phase) + traced.ops() + restarts(&traced),
            metrics: m,
            checker,
        }
    };
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn main() {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // a stray pin (RAVEN_SCORER=interpreted, RAVEN_FUSION=off, ...) would
    // change which code runs and pass for a regression
    let pins: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RAVEN_"))
        .collect();
    if !pins.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", pins.join(", "));
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let outcome = match args.workload.as_str() {
        "batch_predict" => run_batch(&args, epoch),
        "serve_read" => run_serve_read(&args, epoch),
        "serve_update" => run_serve_update(&args, epoch),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let correct = outcome.checker.wrong == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.checker.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
