//! Scenario benchmark of the mcs workspace.
//!
//! ```text
//! mcs-scenario-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mcs-scenario-bench --emit-pins <seed>[,<seed>...]
//! ```
//!
//! One process, one thread. Each iteration builds the workload's scenario
//! through the `mcs` facade, runs it to its horizon, runs the post-run
//! analysis, and checks the simulated outcome against `pins.json` (or,
//! for an unpinned seed, against the first iteration). Iterations repeat
//! until `--seconds` have passed; every metric is the median over them.
//!
//! With `--trace 0` the end-to-end metrics are printed. With `--trace 1`
//! each iteration also runs the workload with full trace retention and
//! replays that trace through each layer (see `probes`), and the per-layer
//! metrics are printed; the spans are written to `out/` beside this
//! package's manifest. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--emit-pins` prints the `pins.json` document for the given seeds.

mod clock;
mod heap;
mod probes;
mod spans;
mod workload;

use clock::CpuTimer;
use heap::Phase;
use mcs::chaos::invariant::{builtin_suite, InvariantCx};
use mcs::core::scenario::{Scenario, ScenarioOutcome};
use mcs::simcore::codec::{Json, ToJson};
use probes::{NetInputs, SolverOps};
use spans::Spans;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workload::{pinned, Fingerprint, Workload};

const USAGE: &str = "usage: mcs-scenario-bench --workload <fabric_stream|workflow_fabric|composed_retained> \
                     --seed <n> --seconds <s> --trace <0|1>\n       mcs-scenario-bench --emit-pins <seed>[,<seed>...]";

/// Timed setups per scenario seed and iteration: one setup takes about a
/// microsecond, so a single sample would mostly measure timer and cache
/// noise.
const SETUP_REPEATS: usize = 1000;

/// The analysis battery repeats until this much time has passed (at least
/// once), so batteries that take microseconds are measured over many runs.
const ANALYSIS_MIN_SECS: f64 = 0.02;

const MB: f64 = 1e6;

/// The end-to-end metrics, with their units. `analysis_s` is measured and
/// printed beside them, but is not one: see the README.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// The per-layer metrics, with their units, in report order. Every
/// built-in invariant has its own `chaos.check_s.<name>` entry.
const PER_LAYER: [(&str, &str); 50] = [
    ("core.analysis_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.floor_s", "s"),
    ("net.flows", "count"),
    ("net.flows_aborted", "count"),
    ("net.stall_sim_s", "s"),
    ("net.replay_s", "s"),
    ("net.replay_events", "count"),
    ("net.events_per_flow", "events/flow"),
    ("net.share", "fraction"),
    ("net.replay_valid", "bool"),
    ("net.solver_calls", "count"),
    ("net.solver_flows_mean", "count"),
    ("net.solver_flows_max", "count"),
    ("net.solver_s", "s"),
    ("net.solver_share", "fraction"),
    ("trace.records", "count"),
    ("trace.retained_bytes", "B"),
    ("trace.record_ns", "ns"),
    ("trace.query_s", "s"),
    ("trace.overhead_s", "s"),
    ("chaos.check_s", "s"),
    ("chaos.check_s.flow-conservation", "s"),
    ("chaos.check_s.faas-termination", "s"),
    ("chaos.check_s.restart-budget", "s"),
    ("chaos.check_s.breaker-recovery", "s"),
    ("chaos.check_s.stall-drain", "s"),
    ("chaos.check_s.monotone-timestamps", "s"),
    ("chaos.check_s.fault-closure", "s"),
    ("chaos.violations", "count"),
    ("dag.lookahead_s", "s"),
    ("dag.jobs", "count"),
    ("dag.tasks", "count"),
    ("dag.makespan_sim_s", "s"),
    ("heap.allocs", "count"),
    ("heap.allocs_per_event", "1/event"),
    ("heap.setup_allocs", "count"),
    ("heap.setup_peak_mb", "MB"),
    ("heap.run_peak_mb", "MB"),
    ("heap.analysis_allocs", "count"),
    ("heap.analysis_peak_mb", "MB"),
    ("rest_s", "s"),
    ("faas.invoked", "count"),
    ("faas.rejected", "count"),
    ("faas.failed", "count"),
    ("faas.invoke_p99_sim_ms", "ms"),
    ("autoscale.decisions", "count"),
    ("gaming.admitted", "count"),
    ("failure.outages", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    EmitPins(Vec<u64>),
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--emit-pins" => {
                let seeds = value
                    .split(',')
                    .map(|s| s.parse::<u64>().map_err(|e| format!("--emit-pins: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(Mode::EmitPins(seeds));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    if !heap::prepare() {
        eprintln!("warning: the heap could not be kept warm or backed by huge pages");
    }
    match parse_args(std::env::args().skip(1)) {
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::EmitPins(seeds)) => match emit_pins(&seeds) {
            Ok(doc) => {
                println!("{doc}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Ok(Mode::Run(args)) => {
            let report = if args.trace {
                traced(&args)
            } else {
                untraced(&args)
            };
            report.print(&args);
            ExitCode::SUCCESS
        }
    }
}

/// The median of `xs` (0 when empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Checks each run's simulated outcome against the pinned one, or, for an
/// unpinned scenario seed, against the first run of that seed.
struct Checker {
    workload: Workload,
    expected: BTreeMap<u64, (Fingerprint, bool)>,
}

impl Checker {
    fn new(workload: Workload) -> Checker {
        Checker {
            workload,
            expected: BTreeMap::new(),
        }
    }

    fn check(&mut self, seed: u64, fp: &Fingerprint) -> Result<(), String> {
        let workload = self.workload;
        let (expected, is_pin) =
            self.expected
                .entry(seed)
                .or_insert_with(|| match pinned(workload, seed) {
                    Some(pin) => (pin, true),
                    None => (fp.clone(), false),
                });
        if expected == fp {
            return Ok(());
        }
        Err(format!(
            "seed {seed}: simulated outcome {} differs from the {} outcome {}",
            fp.to_json().encode(),
            if *is_pin { "pinned" } else { "first run's" },
            expected.to_json().encode()
        ))
    }
}

/// Outcome counters the trace must agree with.
fn consistency(out: &ScenarioOutcome) -> Result<(), String> {
    let started = out.trace.count("net", "flow_start") as u64;
    let aborted = out.trace.count("net", "flow_aborted") as u64;
    if started != out.net_flows_started || aborted != out.net_flows_aborted {
        return Err(format!(
            "trace holds {started} flow starts and {aborted} aborts, the fabric counted {} and {}",
            out.net_flows_started, out.net_flows_aborted
        ));
    }
    Ok(())
}

/// Runs `body` at least once, and again while the next run, taking as long
/// as the last one, still ends within `seconds`. A body that returns an
/// error or panics counts as a failed attempt.
fn repeat<T>(seconds: f64, mut body: impl FnMut(u32) -> Result<T, String>) -> (Vec<T>, u64, u64) {
    let started = Instant::now();
    let (mut done, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let mut last = 0.0;
    while attempted == 0 || started.elapsed().as_secs_f64() + last <= seconds {
        let index = attempted as u32;
        attempted += 1;
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| body(index))) {
            Ok(Ok(value)) => done.push(value),
            Ok(Err(msg)) => {
                failed += 1;
                eprintln!("iteration {index} failed: {msg}");
            }
            Err(_) => {
                failed += 1;
                eprintln!("iteration {index} panicked");
            }
        }
        last = t.elapsed().as_secs_f64();
    }
    (done, attempted, failed)
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Measured values printed on standard error only.
    extra: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn print(&self, args: &Args) {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!(
            "{} seed {} trace {}: {} attempted, {} failed, failed_frac {failed_frac} (fraction)",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            self.attempted,
            self.failed
        );
        for (name, value, unit) in self.metrics.iter().chain(&self.extra) {
            eprintln!("  {name:<36} {value:>16.9} {unit}");
        }
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Float(*value)),
                    ("unit".into(), Json::Str((*unit).to_owned())),
                ]);
                (name.clone().into(), entry)
            })
            .collect();
        let result = Json::Obj(vec![
            (
                "correct".into(),
                Json::Bool(self.failed == 0 && self.attempted > 0 && finite),
            ),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", result.encode());
    }
}

/// One untraced iteration's end-to-end samples: every scenario seed of the
/// workload run once, back to back.
struct Sample {
    setup_s: Vec<f64>,
    /// Mean over the scenario seeds, in CPU seconds.
    run_s: f64,
    /// Mean over the scenario seeds, in wall-clock seconds.
    run_wall_s: f64,
    /// Mean over the scenario seeds.
    analysis_s: f64,
    /// Largest over the scenario seeds.
    peak_bytes: u64,
}

/// Runs the analysis until [`ANALYSIS_MIN_SECS`] have passed; returns the
/// mean battery time and the first battery's invariant violations.
fn timed_analysis(
    w: Workload,
    cfg: &mcs::core::scenario::ScenarioConfig,
    out: &ScenarioOutcome,
) -> (f64, usize) {
    let started = Instant::now();
    let violations = w.analysis(cfg, &out.trace);
    for v in violations.iter().take(3) {
        eprintln!("invariant violated: {v}");
    }
    let mut batteries = 1u32;
    while started.elapsed().as_secs_f64() < ANALYSIS_MIN_SECS {
        w.analysis(cfg, &out.trace);
        batteries += 1;
    }
    (
        started.elapsed().as_secs_f64() / f64::from(batteries),
        violations.len(),
    )
}

fn untraced_iteration(w: Workload, seeds: &[u64], checker: &mut Checker) -> Result<Sample, String> {
    let mut sample = Sample {
        setup_s: Vec::new(),
        run_s: 0.0,
        run_wall_s: 0.0,
        analysis_s: 0.0,
        peak_bytes: 0,
    };
    for &seed in seeds {
        for _ in 1..SETUP_REPEATS {
            let t = Instant::now();
            let scenario = Scenario::try_new(w.config(seed)).map_err(|e| e.to_string())?;
            sample.setup_s.push(t.elapsed().as_secs_f64());
            drop(scenario);
        }
        let setup = Phase::start();
        let t = Instant::now();
        let scenario = Scenario::try_new(w.config(seed)).map_err(|e| e.to_string())?;
        sample.setup_s.push(t.elapsed().as_secs_f64());
        let setup_usage = setup.usage();
        let cfg = scenario.config().clone();

        let run = Phase::start();
        let t = Instant::now();
        let cpu = CpuTimer::start();
        let out = scenario.run();
        sample.run_s += cpu.elapsed() / seeds.len() as f64;
        sample.run_wall_s += t.elapsed().as_secs_f64() / seeds.len() as f64;
        let run_usage = run.usage();

        let analysis = Phase::start();
        let (analysis_s, violations) = timed_analysis(w, &cfg, &out);
        sample.analysis_s += analysis_s / seeds.len() as f64;
        let analysis_usage = analysis.usage();

        let peak_live = setup_usage
            .peak_live
            .max(run_usage.peak_live)
            .max(analysis_usage.peak_live);
        sample.peak_bytes = sample.peak_bytes.max(peak_live - setup.live_at_start());
        if violations > 0 {
            return Err(format!("seed {seed}: {violations} invariant violations"));
        }
        consistency(&out)?;
        checker.check(seed, &Fingerprint::of(&out, &out.trace))?;
    }
    Ok(sample)
}

fn untraced(args: &Args) -> Report {
    let w = args.workload;
    let seeds = w.scenario_seeds(args.seed);
    let mut checker = Checker::new(w);
    let (samples, attempted, failed) = repeat(args.seconds, |i| {
        let sample = untraced_iteration(w, &seeds, &mut checker)?;
        eprintln!(
            "iteration {i}: run_s {:.6} run_wall_s {:.6} setup_s {:.9} analysis_s {:.6}",
            sample.run_s,
            sample.run_wall_s,
            median(&sample.setup_s),
            sample.analysis_s
        );
        Ok(sample)
    });
    let setups: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.setup_s.iter().copied())
        .collect();
    let column = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let values = [
        median(&column(|s| s.run_s)),
        median(&setups),
        median(&column(|s| s.peak_bytes as f64 / MB)),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_owned(), value, unit))
        .collect();
    let analysis_s = median(&column(|s| s.analysis_s));
    Report {
        attempted,
        failed,
        metrics,
        extra: vec![
            ("analysis_s".to_owned(), analysis_s, "s"),
            (
                "run_wall_s".to_owned(),
                median(&column(|s| s.run_wall_s)),
                "s",
            ),
        ],
    }
}

/// One traced iteration's per-layer values, and the checks it failed.
struct Traced {
    values: BTreeMap<String, f64>,
    /// Failed checks that still leave the values meaningful: a violated
    /// invariant on the retained trace, an unfaithful replay (reported as
    /// `net.replay_valid` 0), a sink-dependent outcome.
    problems: Vec<String>,
}

/// Runs one traced iteration. An error means no values could be taken
/// (the run could not be built, or its outcome did not match).
fn traced_iteration(
    w: Workload,
    seed: u64,
    checker: &mut Checker,
    sp: &mut Spans,
) -> Result<Traced, String> {
    let cfg = w.config(seed);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut problems: Vec<String> = Vec::new();

    // The workload as measured end to end, with heap accounting per phase.
    let setup = Phase::start();
    let scenario = sp
        .time("core.setup", |_| Scenario::try_new(cfg.clone()))
        .map_err(|e| e.to_string())?;
    let setup_usage = setup.usage();
    let run = Phase::start();
    let out = sp.time("core.run", |_| scenario.run());
    let run_usage = run.usage();
    let run_s = sp.secs("core.run");
    let analysis = Phase::start();
    let violations = sp.time("core.analysis", |_| w.analysis(&cfg, &out.trace));
    let analysis_usage = analysis.usage();
    v.insert("core.analysis_s".into(), sp.secs("core.analysis"));
    if !violations.is_empty() {
        return Err(format!(
            "{} invariant violations, first: {}",
            violations.len(),
            violations[0]
        ));
    }
    consistency(&out)?;
    let fp = Fingerprint::of(&out, &out.trace);
    checker.check(seed, &fp)?;
    let events = out.events_handled;
    v.insert("engine.events".into(), events as f64);
    v.insert("engine.events_per_s".into(), events as f64 / run_s);
    v.insert("heap.allocs".into(), run_usage.allocs as f64);
    v.insert(
        "heap.allocs_per_event".into(),
        run_usage.allocs as f64 / events.max(1) as f64,
    );
    v.insert("heap.setup_allocs".into(), setup_usage.allocs as f64);
    v.insert(
        "heap.setup_peak_mb".into(),
        setup_usage.peak_growth as f64 / MB,
    );
    v.insert("heap.run_peak_mb".into(), run_usage.peak_growth as f64 / MB);
    v.insert("heap.analysis_allocs".into(), analysis_usage.allocs as f64);
    v.insert(
        "heap.analysis_peak_mb".into(),
        analysis_usage.peak_growth as f64 / MB,
    );
    v.insert("trace.records".into(), out.trace.recorded() as f64);
    v.insert(
        "trace.retained_bytes".into(),
        out.trace.approx_retained_bytes() as f64,
    );
    v.insert("net.flows".into(), out.net_flows_started as f64);
    v.insert("net.flows_aborted".into(), out.net_flows_aborted as f64);
    v.insert("net.stall_sim_s".into(), out.net_stall_secs);
    v.insert("dag.jobs".into(), out.dag_jobs_finished as f64);
    v.insert("dag.tasks".into(), out.dag_tasks_finished as f64);
    v.insert("dag.makespan_sim_s".into(), out.dag_mean_makespan_secs);
    v.insert("faas.invoked".into(), out.invoked as f64);
    v.insert("faas.rejected".into(), out.rejected as f64);
    v.insert("faas.failed".into(), out.invocations_failed as f64);
    v.insert("faas.invoke_p99_sim_ms".into(), fp.invoke_p99_ms);
    v.insert("autoscale.decisions".into(), out.governor_decisions as f64);
    v.insert("gaming.admitted".into(), out.gaming_admitted as f64);
    v.insert("failure.outages".into(), out.outages_delivered as f64);
    drop(out);

    // The same run with every record retained: the replays' input.
    let traced_scenario = Scenario::try_new(w.traced_config(seed)).map_err(|e| e.to_string())?;
    let traced = sp.time("core.run_traced", |_| traced_scenario.run());
    v.insert(
        "trace.overhead_s".into(),
        sp.secs("core.run_traced") - run_s,
    );

    // Trace layer: re-record into a bus of the workload's own sink kind,
    // then query it. The re-recorded bus must yield the same fingerprint,
    // which also shows the sink did not change the simulated outcome.
    let mut fresh = w.fresh_bus(&cfg);
    let record_s = sp.time("trace.record", |_| {
        probes::rerecord(&traced.trace, &mut fresh)
    })?;
    let records = traced.trace.recorded();
    v.insert(
        "trace.record_ns".into(),
        record_s * 1e9 / records.max(1) as f64,
    );
    sp.time("trace.query", |_| w.aggregate_queries(&fresh));
    v.insert("trace.query_s".into(), sp.secs("trace.query"));
    let fp_traced = Fingerprint::of(&traced, &fresh);
    if fp_traced != fp {
        problems.push(format!(
            "full-retention run re-recorded as {} differs from the run {}",
            fp_traced.to_json().encode(),
            fp.to_json().encode()
        ));
    }
    drop(fresh);

    // Chaos layer: each built-in invariant over the retained trace.
    let cx = InvariantCx::from_config(&cfg);
    let (mut found, mut check_total) = (0usize, 0.0);
    for inv in builtin_suite() {
        let span = format!("chaos.check.{}", inv.name());
        found += sp
            .time(span.as_str(), |_| inv.check(&traced.trace, &cx))
            .len();
        let secs = sp.secs(&span);
        v.insert(format!("chaos.check_s.{}", inv.name()), secs);
        check_total += secs;
    }
    v.insert("chaos.check_s".into(), check_total);
    v.insert("chaos.violations".into(), found as f64);
    if found > 0 {
        problems.push(format!(
            "{found} invariant violations on the retained trace"
        ));
    }

    // Network layer: replay the flows and the reallocations.
    let (inputs, solver) = sp.time("net.capture", |_| {
        Ok::<_, String>((
            NetInputs::capture(&traced.trace)?,
            SolverOps::capture(&cfg, &traced.trace)?,
        ))
    })?;
    let net_records: u64 = traced
        .trace
        .counts()
        .iter()
        .filter(|(component, _, _)| component == "net")
        .map(|(_, _, n)| n)
        .sum();
    drop(traced);
    let replay = sp.time("net.replay", |_| inputs.replay(&cfg, w.fresh_bus(&cfg)));
    if replay.mismatched > 0 {
        problems.push(format!(
            "net replay is not faithful: {} flow ends of the run ({} recorded) and the replay have no exact match",
            replay.mismatched, replay.compared
        ));
    }
    v.insert(
        "net.replay_valid".into(),
        f64::from(u8::from(replay.mismatched == 0)),
    );
    v.insert("net.replay_s".into(), replay.secs);
    v.insert("net.replay_events".into(), replay.net_events as f64);
    v.insert(
        "net.events_per_flow".into(),
        replay.net_events as f64 / inputs.flows().max(1) as f64,
    );
    v.insert("net.share".into(), replay.secs / run_s);
    let solver_s = sp.time("net.solver", |_| {
        solver.as_ref().map_or(0.0, SolverOps::replay)
    });
    v.insert(
        "net.solver_calls".into(),
        solver.as_ref().map_or(0, |s| s.calls) as f64,
    );
    v.insert(
        "net.solver_flows_mean".into(),
        solver.as_ref().map_or(0.0, |s| s.flows_mean),
    );
    v.insert(
        "net.solver_flows_max".into(),
        solver.as_ref().map_or(0, |s| s.flows_max) as f64,
    );
    v.insert("net.solver_s".into(), solver_s);
    v.insert("net.solver_share".into(), solver_s / run_s);

    // Engine and DAG layers.
    let floor_s = sp.time("engine.floor", |_| probes::engine_floor(seed, events));
    v.insert("engine.floor_s".into(), floor_s);
    let lookahead_s = sp
        .time("dag.lookahead", |_| probes::dag_lookahead(&cfg))
        .unwrap_or(0.0);
    v.insert("dag.lookahead_s".into(), lookahead_s);

    // What the replays do not cover: the tenants' own handlers.
    let covered = replay.secs
        + record_s * (records - net_records.min(records)) as f64 / records.max(1) as f64
        + floor_s * (events - replay.net_events.min(events)) as f64 / events.max(1) as f64;
    v.insert("rest_s".into(), run_s - covered);

    Ok(Traced {
        values: v,
        problems,
    })
}

fn traced(args: &Args) -> Report {
    let w = args.workload;
    let seeds = w.scenario_seeds(args.seed);
    let mut checker = Checker::new(w);
    let mut sp = Spans::new();
    let (iterations, attempted, mut failed) = repeat(args.seconds, |i| {
        sp.set_run(i);
        let seed = seeds[i as usize % seeds.len()];
        sp.time("iteration", |sp| {
            traced_iteration(w, seed, &mut checker, sp)
        })
    });
    for (i, it) in iterations
        .iter()
        .enumerate()
        .filter(|(_, it)| !it.problems.is_empty())
    {
        failed += 1;
        eprintln!("traced iteration {i} failed: {}", it.problems.join("; "));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = iterations
                .iter()
                .filter_map(|it| it.values.get(name).copied())
                .collect();
            (name.to_owned(), median(&values), unit)
        })
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    if let Err(e) = sp.write_jsonl(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
    Report {
        attempted,
        failed,
        metrics,
        extra: Vec::new(),
    }
}

/// The `pins.json` document for the run seeds `seeds`: one fingerprint per
/// workload and scenario seed, from one untraced run each.
fn emit_pins(seeds: &[u64]) -> Result<String, String> {
    let mut doc = String::from("{\n");
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        doc.push_str(&format!("  \"{}\": {{\n", w.name()));
        let scenario_seeds: Vec<u64> = seeds.iter().flat_map(|&s| w.scenario_seeds(s)).collect();
        for (si, &seed) in scenario_seeds.iter().enumerate() {
            let out = Scenario::try_new(w.config(seed))
                .map_err(|e| e.to_string())?
                .run();
            let fp = Fingerprint::of(&out, &out.trace);
            let comma = if si + 1 < scenario_seeds.len() {
                ","
            } else {
                ""
            };
            doc.push_str(&format!(
                "    \"{seed}\": {}{comma}\n",
                fp.to_json().encode()
            ));
            eprintln!("pinned {} seed {seed}", w.name());
        }
        let comma = if wi + 1 < Workload::ALL.len() {
            ","
        } else {
            ""
        };
        doc.push_str(&format!("  }}{comma}\n"));
    }
    doc.push('}');
    Ok(doc)
}
