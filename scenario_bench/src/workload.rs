//! The three workloads, their post-run analysis, and the simulated
//! fingerprint that pins each run's outcome.
//!
//! Every workload is one `Scenario::try_new` + `run` through the `mcs`
//! facade, followed by the queries an experiment runs on the outcome. Why
//! each workload exists, and which layer it stresses, is recorded in this
//! directory's README.

use mcs::autoscale::service::ServiceConfig;
use mcs::chaos::invariant::{check_all, InvariantCx, Violation};
use mcs::core::scenario::{
    BatchConfig, DagConfig, FaasConfig, GamingConfig, NetworkConfig, ObservabilityConfig,
    ScenarioConfig, ScenarioOutcome,
};
use mcs::gaming::world::{PlayerModel, ZoneProvisioning};
use mcs::prelude::*;
use mcs::simcore::codec::{FromJson, Json};
use mcs::simcore::trace::{StreamConfig, TraceBus};
use std::hint::black_box;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FaaS plus elastic gaming over the default fabric, streaming sink.
    FabricStream,
    /// 2000 DAG workflows over the default fabric, streaming sink.
    WorkflowFabric,
    /// The legacy five-actor composition, no network, full retention.
    ComposedRetained,
}

/// `(component, event, field)` triples of one aggregate query battery.
type Queries = &'static [(&'static str, &'static str, &'static str)];

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FabricStream,
        Workload::WorkflowFabric,
        Workload::ComposedRetained,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricStream => "fabric_stream",
            Workload::WorkflowFabric => "workflow_fabric",
            Workload::ComposedRetained => "composed_retained",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's configuration, with its own trace sink.
    pub fn config(self, seed: u64) -> ScenarioConfig {
        match self {
            // The `scale_stress` composition at 10x volume
            // (`mcs_bench::experiments::scale::scale_config(seed, 10.0, true)`),
            // restated here so the workload stays fixed when experiments change.
            Workload::FabricStream => ScenarioConfig::bare(seed, SimTime::from_secs(4 * 3600), 32)
                .with_faas(FaasConfig {
                    arrival_rate: 20.0,
                    max_arrivals: usize::MAX,
                    initial_capacity: 64,
                    service: ServiceConfig {
                        scaling_interval: SimDuration::from_secs(300),
                        provisioning_delay_intervals: 1,
                        min_instances: 1,
                        max_instances: 512,
                        ..ServiceConfig::default()
                    },
                    ..FaasConfig::default()
                })
                .with_gaming(GamingConfig {
                    players: PlayerModel {
                        base_rate: 3.75,
                        ..PlayerModel::default()
                    },
                    provisioning: ZoneProvisioning::Elastic {
                        min_zones: 2,
                        max_zones: 2048,
                        high_watermark: 0.8,
                        low_watermark: 0.3,
                        boot_delay: SimDuration::from_secs(60),
                    },
                    ..GamingConfig::default()
                })
                .with_network(NetworkConfig::default())
                .with_observability(ObservabilityConfig {
                    window: Some(SimDuration::from_secs(600)),
                    ..ObservabilityConfig::default()
                }),
            Workload::WorkflowFabric => {
                ScenarioConfig::bare(seed, SimTime::from_secs(8 * 3600), 128)
                    .with_dag(DagConfig {
                        jobs: 2000,
                        width: 16,
                        submit_interval_secs: 10.0,
                        ..DagConfig::default()
                    })
                    .with_network(NetworkConfig::default())
                    .with_observability(ObservabilityConfig::default())
            }
            Workload::ComposedRetained => ScenarioConfig {
                seed,
                machines: 64,
                horizon: SimTime::from_secs(48 * 3600),
                resilience: ResilienceConfig::all_on(),
                ..ScenarioConfig::default()
            }
            .with_batch(BatchConfig {
                jobs: 800,
                ..BatchConfig::default()
            })
            .with_faas(FaasConfig {
                arrival_rate: 4.0,
                max_arrivals: usize::MAX,
                ..FaasConfig::default()
            }),
        }
    }

    /// The scenario seeds one benchmark run cycles through, derived from the
    /// run's `--seed`. `workflow_fabric` uses eight: the portfolio picks one
    /// policy per workflow class from a lookahead on randomly sized jobs,
    /// so a single seed's work (flows, events) varies by up to a sixth
    /// between seeds, and the mean over eight seeds varies about a third as
    /// much.
    pub fn scenario_seeds(self, seed: u64) -> Vec<u64> {
        let k: u64 = match self {
            Workload::WorkflowFabric => 8,
            Workload::FabricStream | Workload::ComposedRetained => 1,
        };
        (0..k)
            .map(|j| seed.wrapping_mul(k).wrapping_add(j))
            .collect()
    }

    /// The configuration of the traced run: identical except that the trace
    /// keeps every record, so the replays have their inputs.
    pub fn traced_config(self, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            observability: None,
            ..self.config(seed)
        }
    }

    /// An empty bus of the workload's own sink kind.
    pub fn fresh_bus(self, cfg: &ScenarioConfig) -> TraceBus {
        match &cfg.observability {
            Some(obs) => TraceBus::streaming(StreamConfig {
                sketch_centroids: obs.sketch_centroids,
                window: obs.window,
            }),
            None => TraceBus::new(),
        }
    }

    /// Every numeric field of the workload's frequent records: what an
    /// experiment summarizing the run would query.
    fn queries(self) -> Queries {
        match self {
            Workload::FabricStream => &[
                ("faas", "invoke", "latency_secs"),
                ("faas", "scale", "capacity"),
                ("net", "flow_start", "bytes"),
                ("net", "flow_end", "secs"),
                ("net", "flow_end", "ideal_secs"),
                ("net", "flow_end", "stall_secs"),
                ("net", "flow_end", "bytes"),
                ("gaming", "join", "online"),
                ("gaming", "leave", "online"),
                ("gaming", "sync_done", "online"),
                ("gaming", "zone_up", "zones"),
                ("gaming", "zone_down", "zones"),
                ("autoscale", "decision", "demand"),
                ("autoscale", "decision", "supply"),
                ("autoscale", "decision", "target"),
                ("workload", "arrival", "index"),
            ],
            Workload::WorkflowFabric => &[
                ("dag", "job_submit", "tasks"),
                ("dag", "job_finish", "makespan_secs"),
                ("dag", "job_finish", "transfer_secs"),
                ("dag", "job_finish", "stall_secs"),
                ("dag", "job_finish", "tasks"),
                ("dag", "task_placed", "machine"),
                ("dag", "task_start", "machine"),
                ("dag", "edge_xfer", "secs"),
                ("dag", "edge_xfer", "stall_secs"),
                ("dag", "edge_xfer", "bytes"),
                ("net", "flow_start", "bytes"),
                ("net", "flow_end", "secs"),
                ("net", "flow_end", "ideal_secs"),
                ("net", "flow_end", "stall_secs"),
                ("net", "flow_end", "bytes"),
            ],
            Workload::ComposedRetained => &[
                ("faas", "invoke", "latency_secs"),
                ("faas", "reject", "busy"),
                ("faas", "scale", "capacity"),
                ("faas", "retry_scheduled", "delay_secs"),
                ("faas", "kill_warm", "killed"),
                ("rms", "task_finish", "wait_secs"),
                ("rms", "task_finish", "response_secs"),
                ("rms", "checkpoint_restore", "demand_left"),
                ("rms", "requeue_scheduled", "delay_secs"),
                ("failure", "outage", "downtime_secs"),
                ("autoscale", "decision", "demand"),
                ("autoscale", "decision", "supply"),
                ("autoscale", "decision", "target"),
                ("autoscale", "provisioned", "instances"),
            ],
        }
    }

    /// The aggregate query battery every workload runs: `counts`, then
    /// `field_stats` and the p50/p90/p99/p99.9 `field_quantile` of each
    /// field.
    pub fn aggregate_queries(self, trace: &TraceBus) {
        let mut acc = 0.0;
        for (_, _, n) in trace.counts() {
            acc += n as f64;
        }
        for &(component, event, field) in self.queries() {
            if let Some(stats) = trace.field_stats(component, event, field) {
                acc += stats.mean();
            }
            for q in [0.5, 0.9, 0.99, 0.999] {
                acc += trace
                    .field_quantile(component, event, field, q)
                    .unwrap_or(0.0);
            }
        }
        black_box(acc);
    }

    /// The full post-run analysis: the aggregate battery, plus, on the
    /// retained trace of `composed_retained`, the invariant suite and a
    /// `select`/`series` battery. Returns the invariant violations.
    pub fn analysis(self, cfg: &ScenarioConfig, trace: &TraceBus) -> Vec<Violation> {
        self.aggregate_queries(trace);
        if self != Workload::ComposedRetained {
            return Vec::new();
        }
        let violations = check_all(trace, &InvariantCx::from_config(cfg));
        let mut acc = 0usize;
        for (component, event) in [
            ("rms", "task_finish"),
            ("faas", "reject"),
            ("failure", "outage"),
        ] {
            acc += trace.select(component, event).len();
        }
        let mut sum = 0.0;
        for (component, event, field) in [
            ("faas", "invoke", "latency_secs"),
            ("rms", "task_finish", "response_secs"),
            ("autoscale", "decision", "supply"),
        ] {
            sum += trace
                .series(component, event, field)
                .iter()
                .map(|&(_, x)| x)
                .sum::<f64>();
        }
        black_box((acc, sum));
        violations
    }
}

/// The simulated outcome of one run. A change that only makes the program
/// faster leaves every field identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub events_handled: u64,
    pub trace_records: u64,
    /// FNV-1a digest of `trace.counts()`, one `component/event=count` line
    /// per pair.
    pub trace_counts_fnv: u64,
    pub flows_started: u64,
    pub flows_delivered: u64,
    pub flows_aborted: u64,
    pub dag_jobs: u64,
    pub dag_tasks: u64,
    pub dag_mean_makespan_secs: f64,
    pub faas_invoked: u64,
    pub faas_rejected: u64,
    pub faas_failed: u64,
    /// Simulated invocation latency quantiles, from the workload's own
    /// sink (exact under full retention, sketched under streaming).
    pub invoke_p50_ms: f64,
    pub invoke_p99_ms: f64,
    pub autoscale_decisions: u64,
    pub gaming_admitted: u64,
    pub failure_outages: u64,
}

mcs::simcore::impl_json!(struct Fingerprint {
    events_handled,
    trace_records,
    trace_counts_fnv,
    flows_started,
    flows_delivered,
    flows_aborted,
    dag_jobs,
    dag_tasks,
    dag_mean_makespan_secs,
    faas_invoked,
    faas_rejected,
    faas_failed,
    invoke_p50_ms,
    invoke_p99_ms,
    autoscale_decisions,
    gaming_admitted,
    failure_outages,
});

/// FNV-1a over the canonical rendering of `trace.counts()`.
fn counts_digest(trace: &TraceBus) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (component, event, n) in trace.counts() {
        for byte in format!("{component}/{event}={n}\n").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

impl Fingerprint {
    /// The fingerprint of `out`, reading trace-derived fields from `trace`,
    /// a bus of the workload's own sink kind.
    pub fn of(out: &ScenarioOutcome, trace: &TraceBus) -> Fingerprint {
        let invoke_ms = |q: f64| {
            trace
                .field_quantile("faas", "invoke", "latency_secs", q)
                .map_or(0.0, |s| s * 1e3)
        };
        Fingerprint {
            events_handled: out.events_handled,
            trace_records: trace.recorded(),
            trace_counts_fnv: counts_digest(trace),
            flows_started: out.net_flows_started,
            flows_delivered: out.net_flows_delivered,
            flows_aborted: out.net_flows_aborted,
            dag_jobs: out.dag_jobs_finished,
            dag_tasks: out.dag_tasks_finished,
            dag_mean_makespan_secs: out.dag_mean_makespan_secs,
            faas_invoked: out.invoked,
            faas_rejected: out.rejected,
            faas_failed: out.invocations_failed,
            invoke_p50_ms: invoke_ms(0.5),
            invoke_p99_ms: invoke_ms(0.99),
            autoscale_decisions: out.governor_decisions as u64,
            gaming_admitted: out.gaming_admitted,
            failure_outages: out.outages_delivered as u64,
        }
    }
}

/// The pinned fingerprints, keyed by workload name and then by seed.
const PINS: &str = include_str!("../pins.json");

/// The pinned fingerprint of `(workload, seed)`, if that pair is pinned.
///
/// # Panics
/// Panics when `pins.json` is malformed: the benchmark cannot check
/// outcomes without it.
pub fn pinned(workload: Workload, seed: u64) -> Option<Fingerprint> {
    let pins = Json::parse(PINS).expect("pins.json is valid JSON");
    let entry = pins.get(workload.name())?.get(&seed.to_string())?;
    Some(Fingerprint::from_json(entry).expect("pins.json entries are fingerprints"))
}
