//! Composed ecosystem scenarios: every subsystem in one simulation.
//!
//! The paper's central claim is that clouds, grids, schedulers, and
//! serverless platforms are not isolated systems but one *ecosystem* whose
//! interesting behaviour is emergent (§2.1, P5). This module is that claim
//! made executable: a [`Scenario`] wires the batch scheduler (`mcs-rms`),
//! the autoscaling governor (`mcs-autoscale`), the FaaS platform
//! (`mcs-faas`), a correlated-failure injector (`mcs-failure`), a workload
//! arrival source (`mcs-workload`), the MapReduce/dataflow stack
//! (`mcs-bigdata`), the graph-analytics BSP engine (`mcs-graph`), and the
//! gaming virtual world (`mcs-gaming`) into a *single* [`Simulation`] over
//! one unified message type, [`EcosystemMsg`].
//!
//! Subsystems are opt-in: [`ScenarioConfig`] nests one sub-config per
//! subsystem (`Option`-gated), so one run can host anything from a single
//! actor (useful for standalone-vs-composed equivalence tests) to the full
//! stack. Cross-subsystem coupling is explicit: machine failures fan out to
//! every tenant of the shared fleet, and big-data shuffle windows exert
//! network pressure on graph supersteps and gaming zone capacity.
//!
//! Every component keeps its own seeded RNG stream (derived from the
//! scenario seed with a distinct label), so the composition is
//! deterministic: two runs with the same [`ScenarioConfig`] produce
//! byte-identical event traces. All cross-component coupling is visible on
//! the shared [`TraceBus`], which [`ScenarioOutcome`] returns for analysis.

use mcs_autoscale::autoscalers::{Autoscaler, React};
use mcs_autoscale::governor::{GovernorActor, GovernorMsg};
use mcs_autoscale::service::ServiceConfig;
use mcs_bigdata::actor::{BdPhase, BigdataMsg, DataflowActor};
use mcs_faas::actor::{CongestionConfig, FaasActor, FaasFault, FaasMsg};
use mcs_faas::platform::{FaasPlatform, FunctionSpec, KeepAlivePolicy, PlatformReport};
use mcs_failure::inject::{FailureEvent, FailureInjector, InjectorMsg};
use mcs_failure::model::{FailureModel, Fault, FaultKind, FaultMix, SpaceCorrelatedFailures};
use mcs_dag::actor::{DagActor, DagMsg};
use mcs_gaming::actor::{GamingMsg, SyncConfig as GamingSyncConfig, WorldActor};
use mcs_net::actor::{FlowOwner, FlowTag, NetActor, NetFault, NetMsg, TransferReq};
use mcs_net::topology::NetTopology;
use mcs_graph::actor::{BspActor, GraphMsg};
use mcs_infra::prelude::{Cluster, ClusterId, MachineSpec};
use mcs_rms::portfolio::{default_portfolio, Objective, PortfolioSelector};
use mcs_rms::scheduler::{ClusterScheduler, RmsMsg, ScheduleOutcome, SchedulerConfig};
use mcs_simcore::engine::{Actor, ActorId, Context, MessageEnvelope, Simulation};
use mcs_simcore::error::McsError;
use mcs_simcore::resilience::ResilienceConfig;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::{StreamConfig, TraceBus};
use mcs_workload::actor::{ArrivalActor, ArrivalMsg};
use mcs_workload::arrival::Poisson;
use mcs_workload::generator::{BatchWorkloadConfig, BatchWorkloadGenerator};

pub use mcs_bigdata::actor::BigdataConfig;
pub use mcs_dag::actor::{DagConfig, DagPolicy};
pub use mcs_gaming::actor::GamingConfig;
pub use mcs_graph::actor::GraphConfig;

/// The unified message type of a composed ecosystem simulation: one variant
/// per participating subsystem, each wrapping that subsystem's own message
/// vocabulary unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum EcosystemMsg {
    /// Workload arrival source.
    Arrival(ArrivalMsg),
    /// Batch cluster scheduler.
    Rms(RmsMsg),
    /// Autoscaling governor.
    Governor(GovernorMsg),
    /// FaaS platform.
    Faas(FaasMsg),
    /// Failure injector.
    Injector(InjectorMsg),
    /// MapReduce/dataflow stack.
    Bigdata(BigdataMsg),
    /// Graph-analytics BSP engine.
    Graph(GraphMsg),
    /// Gaming virtual world.
    Gaming(GamingMsg),
    /// DAG workflow engine.
    Dag(DagMsg),
    /// Flow-level network fabric.
    Net(NetMsg),
}

macro_rules! impl_envelope {
    ($variant:ident, $inner:ty) => {
        impl MessageEnvelope<$inner> for EcosystemMsg {
            fn wrap(inner: $inner) -> Self {
                EcosystemMsg::$variant(inner)
            }
            fn unwrap(self) -> Option<$inner> {
                match self {
                    EcosystemMsg::$variant(inner) => Some(inner),
                    _ => None,
                }
            }
        }
    };
}

impl_envelope!(Arrival, ArrivalMsg);
impl_envelope!(Rms, RmsMsg);
impl_envelope!(Governor, GovernorMsg);
impl_envelope!(Faas, FaasMsg);
impl_envelope!(Injector, InjectorMsg);
impl_envelope!(Bigdata, BigdataMsg);
impl_envelope!(Graph, GraphMsg);
impl_envelope!(Gaming, GamingMsg);
impl_envelope!(Dag, DagMsg);
impl_envelope!(Net, NetMsg);

/// One mebibyte, as the byte unit of the network sub-config.
const MIB: u64 = 1 << 20;

/// The batch-computing slice of a scenario: jobs through the RMS cluster
/// scheduler under portfolio policy selection.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Batch jobs submitted over the horizon.
    pub jobs: usize,
    /// Cadence of portfolio-scheduler policy ticks.
    pub policy_interval: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { jobs: 60, policy_interval: SimDuration::from_secs(1800) }
    }
}

/// The serverless slice of a scenario: a Poisson invocation stream into the
/// autoscaled FaaS platform.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasConfig {
    /// FaaS invocation arrival rate, per second.
    pub arrival_rate: f64,
    /// Hard cap on FaaS arrivals (guards pathological configurations).
    pub max_arrivals: usize,
    /// Keep-alive window of the FaaS warm pool.
    pub keep_alive: SimDuration,
    /// Initial FaaS concurrent-instance capacity.
    pub initial_capacity: usize,
    /// Autoscaling cadence and bounds (the governor's configuration).
    pub service: ServiceConfig,
    /// Optional FaaS congestion model (latency degrades over a utilization
    /// knee). `None` keeps the legacy congestion-free service.
    pub congestion: Option<CongestionConfig>,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            arrival_rate: 0.5,
            max_arrivals: 100_000,
            keep_alive: SimDuration::from_secs(600),
            initial_capacity: 4,
            service: ServiceConfig {
                scaling_interval: SimDuration::from_secs(300),
                provisioning_delay_intervals: 1,
                min_instances: 1,
                max_instances: 64,
                ..ServiceConfig::default()
            },
            congestion: None,
        }
    }
}

/// The failure slice of a scenario: a space-correlated outage schedule with
/// a configurable fault-kind mix, fanned out to every subsystem sharing the
/// machine fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureConfig {
    /// Per-machine mean time between failures, seconds.
    pub mtbf_secs: f64,
    /// Machines per failure-correlation domain (rack/power segment).
    pub failure_domain: usize,
    /// Fraction of the idle FaaS warm pool killed per machine failure.
    pub kill_fraction: f64,
    /// Fault-kind mix of the failure schedule. Crash faults strike the batch
    /// cluster, the warm pool, and the bigdata/graph/gaming fleets;
    /// slowdown/gray/partition windows strike the FaaS service. Defaults to
    /// crash-only (the legacy vocabulary).
    pub fault_mix: FaultMix,
    /// Overrides the duration of non-crash (service-level) fault windows.
    /// Machine repairs take minutes, but the blips that slowdown/gray/
    /// partition faults model are typically much shorter; `None` keeps the
    /// outage's own repair instant.
    pub service_fault_secs: Option<f64>,
    /// An explicit, scripted fault schedule. When `Some`, the injector
    /// replays exactly these faults — the stochastic outage generator and
    /// the fault-mix assignment are bypassed entirely (chaos campaigns use
    /// this for reproducible adversarial runs). `None` (the default) keeps
    /// the legacy random schedule byte-identical.
    pub schedule: Option<Vec<Fault>>,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            mtbf_secs: 6.0 * 3600.0,
            failure_domain: 8,
            kill_fraction: 0.5,
            fault_mix: FaultMix::crash_only(),
            service_fault_secs: None,
            schedule: None,
        }
    }
}

impl FailureConfig {
    /// A failure slice that replays exactly `faults` (scripted mode); the
    /// stochastic generator parameters keep their defaults but are unused.
    pub fn scripted(faults: Vec<Fault>) -> Self {
        FailureConfig { schedule: Some(faults), ..FailureConfig::default() }
    }
}

/// The network slice of a scenario: a two-level rack/uplink fabric shared
/// by every tenant, with max-min fair bandwidth allocation.
///
/// When attached (via [`ScenarioConfig::with_network`]), every
/// cross-component byte transfer becomes a flow on the shared fabric: FaaS
/// invocation payloads and responses, big-data map-input reads and shuffle
/// traffic, batch checkpoint restores, and gaming state syncs all contend
/// for the same links, so one tenant's burst is another tenant's stall.
/// Partition and gray faults from the failure mix strike the fabric itself
/// (cut and degraded access links) instead of opening FaaS service windows.
/// When absent (`None`, the default), every subsystem keeps its legacy
/// fixed-delay cost model byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Machines per rack in the two-level topology.
    pub nodes_per_rack: usize,
    /// Access-link capacity per machine, MiB/s.
    pub node_bandwidth_mbs: f64,
    /// Rack-uplink capacity, MiB/s.
    pub rack_bandwidth_mbs: f64,
    /// One-way propagation latency within a rack.
    pub same_rack_latency: SimDuration,
    /// One-way propagation latency across racks.
    pub cross_rack_latency: SimDuration,
    /// FaaS invocation request payload carried caller → platform, bytes.
    pub faas_payload_bytes: u64,
    /// FaaS response payload shipped back per successful invocation, bytes
    /// (`0` disables response flows).
    pub faas_response_bytes: u64,
    /// Checkpoint image fetched before a killed batch task re-enters the
    /// queue, MiB (only exercised when restart resilience is on).
    pub rms_checkpoint_mb: u64,
    /// Cadence of gaming world-state sync bursts.
    pub gaming_sync_interval: SimDuration,
    /// Fixed payload per gaming sync burst, bytes.
    pub gaming_sync_base_bytes: u64,
    /// Additional payload per online player, bytes.
    pub gaming_sync_per_player_bytes: u64,
    /// A sync burst that takes longer than this counts as lagged.
    pub gaming_lag_budget: SimDuration,
    /// How long a flow may sit at a zero fair share (its endpoint cut) before
    /// the fabric aborts it with a `net/flow_aborted` record and the owner is
    /// told to retry or fail fast. `None` restores the pre-timeout behaviour:
    /// stranded flows stall silently until the cut heals (or forever).
    pub flow_timeout: Option<SimDuration>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            nodes_per_rack: 8,
            node_bandwidth_mbs: 100.0,
            rack_bandwidth_mbs: 400.0,
            same_rack_latency: SimDuration::from_micros(200),
            cross_rack_latency: SimDuration::from_millis(1),
            faas_payload_bytes: 64 * 1024,
            faas_response_bytes: 256 * 1024,
            rms_checkpoint_mb: 64,
            gaming_sync_interval: SimDuration::from_secs(5),
            gaming_sync_base_bytes: 256 * 1024,
            gaming_sync_per_player_bytes: 4 * 1024,
            gaming_lag_budget: SimDuration::from_millis(250),
            flow_timeout: Some(SimDuration::from_secs(60)),
        }
    }
}

impl NetworkConfig {
    /// Builds the link-capacity topology for a fleet of `machines`.
    fn topology(&self, machines: usize) -> NetTopology {
        NetTopology::new(
            machines as u32,
            self.nodes_per_rack as u32,
            self.node_bandwidth_mbs * MIB as f64,
            self.rack_bandwidth_mbs * MIB as f64,
            self.same_rack_latency,
            self.cross_rack_latency,
        )
    }
}

/// How the run's trace is retained.
///
/// `None` (the default) keeps the legacy full-retention [`TraceBus`]:
/// every event stored, byte-identical traces, unbounded memory. `Some`
/// switches the bus to streaming aggregation *before the first event is
/// emitted*: events are folded into per-`(component, event)` rollups
/// (counts, per-field [`mcs_simcore::metrics::OnlineStats`] and
/// [`mcs_simcore::metrics::QuantileSketch`]s, optional windowed counters)
/// and the events themselves are dropped, so trace memory stays flat no
/// matter how long the run is. Aggregate queries (`count`, `counts`,
/// `field_stats`, `field_quantile`, ...) keep working; per-event queries
/// (`select`, `series`) come back empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservabilityConfig {
    /// Centroid budget of each per-field quantile sketch. Rank error is
    /// ~`2n / sketch_centroids`; memory is ~16 bytes per centroid.
    pub sketch_centroids: usize,
    /// When set, each rollup also counts events into fixed windows of this
    /// width (for load-over-time plots without retaining events).
    pub window: Option<SimDuration>,
}

impl Default for ObservabilityConfig {
    fn default() -> Self {
        let stream = StreamConfig::default();
        ObservabilityConfig { sketch_centroids: stream.sketch_centroids, window: stream.window }
    }
}

impl ObservabilityConfig {
    fn stream_config(&self) -> StreamConfig {
        StreamConfig { sketch_centroids: self.sketch_centroids, window: self.window }
    }
}

/// Parameters of a composed ecosystem run.
///
/// Subsystems are nested, `Option`-gated sub-configs: `Some` attaches the
/// subsystem to the run, `None` leaves it out. [`ScenarioConfig::default`]
/// reproduces the legacy five-actor composition (batch + FaaS + autoscale +
/// workload + failures) byte-for-byte; [`ScenarioConfig::bare`] starts from
/// an empty ecosystem for selective composition.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed; every component derives its own labelled stream.
    pub seed: u64,
    /// Virtual-time horizon of the run.
    pub horizon: SimTime,
    /// Machines in the shared fleet (batch cluster, failure-model
    /// population, and the bigdata/graph worker pool).
    pub machines: usize,
    /// Resilience mechanisms of the run. The default ([`ResilienceConfig::none`])
    /// reproduces the legacy fail-and-suffer behaviour exactly.
    pub resilience: ResilienceConfig,
    /// Batch computing through the RMS scheduler.
    pub batch: Option<BatchConfig>,
    /// Serverless platform plus its arrival stream and autoscaling governor.
    pub faas: Option<FaasConfig>,
    /// Correlated failures striking every subsystem on the fleet.
    pub failure: Option<FailureConfig>,
    /// MapReduce/dataflow stack (opt-in).
    pub bigdata: Option<BigdataConfig>,
    /// Graph-analytics BSP queries (opt-in).
    pub graph: Option<GraphConfig>,
    /// Gaming virtual world (opt-in).
    pub gaming: Option<GamingConfig>,
    /// DAG workflow engine with portfolio scheduling (opt-in).
    pub dag: Option<DagConfig>,
    /// Flow-level network fabric (opt-in). `None` keeps every subsystem's
    /// legacy fixed-delay cost model, byte-identically.
    pub network: Option<NetworkConfig>,
    /// Streaming trace aggregation (opt-in). `None` keeps the legacy
    /// full-retention trace, byte-identically.
    pub observability: Option<ObservabilityConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            horizon: SimTime::from_secs(4 * 3600),
            machines: 32,
            resilience: ResilienceConfig::none(),
            batch: Some(BatchConfig::default()),
            faas: Some(FaasConfig::default()),
            failure: Some(FailureConfig::default()),
            bigdata: None,
            graph: None,
            gaming: None,
            dag: None,
            network: None,
            observability: None,
        }
    }
}

impl ScenarioConfig {
    /// An empty ecosystem: no subsystems attached. Compose with the
    /// `with_*` builders; useful for single-subsystem equivalence runs.
    pub fn bare(seed: u64, horizon: SimTime, machines: usize) -> Self {
        ScenarioConfig {
            seed,
            horizon,
            machines,
            resilience: ResilienceConfig::none(),
            batch: None,
            faas: None,
            failure: None,
            bigdata: None,
            graph: None,
            gaming: None,
            dag: None,
            network: None,
            observability: None,
        }
    }

    /// Attaches (or replaces) the batch-computing subsystem.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Attaches (or replaces) the serverless subsystem.
    #[must_use]
    pub fn with_faas(mut self, faas: FaasConfig) -> Self {
        self.faas = Some(faas);
        self
    }

    /// Attaches (or replaces) the failure schedule.
    #[must_use]
    pub fn with_failures(mut self, failure: FailureConfig) -> Self {
        self.failure = Some(failure);
        self
    }

    /// Attaches (or replaces) the MapReduce/dataflow subsystem.
    #[must_use]
    pub fn with_bigdata(mut self, bigdata: BigdataConfig) -> Self {
        self.bigdata = Some(bigdata);
        self
    }

    /// Attaches (or replaces) the graph-analytics subsystem.
    #[must_use]
    pub fn with_graph(mut self, graph: GraphConfig) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Attaches (or replaces) the gaming virtual world.
    #[must_use]
    pub fn with_gaming(mut self, gaming: GamingConfig) -> Self {
        self.gaming = Some(gaming);
        self
    }

    /// Attaches (or replaces) the DAG workflow engine.
    #[must_use]
    pub fn with_dag(mut self, dag: DagConfig) -> Self {
        self.dag = Some(dag);
        self
    }

    /// Attaches (or replaces) the flow-level network fabric.
    #[must_use]
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets the resilience mechanisms of the run.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Switches the run's trace to bounded-memory streaming aggregation.
    #[must_use]
    pub fn with_observability(mut self, observability: ObservabilityConfig) -> Self {
        self.observability = Some(observability);
        self
    }

    /// Validates the configuration.
    ///
    /// Hard offences — the checks a mid-run panic or an infinite loop would
    /// otherwise surface (an empty fleet, non-finite or negative rates, a
    /// zero-sized failure-correlation domain) — come back as the first
    /// [`McsError::InvalidConfig`]. A valid configuration returns the list
    /// of *warnings*: legal-but-suspicious combinations (e.g. partition
    /// faults without a network model to cut) that binaries print to stderr
    /// and chaos campaigns assert on. An empty list means a clean config.
    pub fn validate(&self) -> Result<Vec<ScenarioWarning>, McsError> {
        fn finite_positive(field: &'static str, v: f64) -> Result<(), McsError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(McsError::invalid_config(field, "must be finite and positive"));
            }
            Ok(())
        }
        fn finite_non_negative(field: &'static str, v: f64) -> Result<(), McsError> {
            if !v.is_finite() || v < 0.0 {
                return Err(McsError::invalid_config(field, "must be finite and non-negative"));
            }
            Ok(())
        }

        if self.machines == 0 {
            return Err(McsError::invalid_config("machines", "fleet must not be empty"));
        }
        if self.horizon == SimTime::ZERO {
            return Err(McsError::invalid_config("horizon", "must be positive"));
        }
        if let Some(batch) = &self.batch {
            // A zero cadence re-arms the policy tick at the same instant
            // forever, so virtual time would never advance.
            if batch.policy_interval.is_zero() {
                return Err(McsError::invalid_config("batch.policy_interval", "must be positive"));
            }
        }
        if let Some(faas) = &self.faas {
            finite_non_negative("faas.arrival_rate", faas.arrival_rate)?;
        }
        if let Some(failure) = &self.failure {
            finite_positive("failure.mtbf_secs", failure.mtbf_secs)?;
            if failure.failure_domain == 0 {
                return Err(McsError::invalid_config(
                    "failure.failure_domain",
                    "correlation domain must hold at least one machine",
                ));
            }
            if !failure.kill_fraction.is_finite()
                || !(0.0..=1.0).contains(&failure.kill_fraction)
            {
                return Err(McsError::invalid_config(
                    "failure.kill_fraction",
                    "must lie in [0, 1]",
                ));
            }
            if let Some(secs) = failure.service_fault_secs {
                finite_positive("failure.service_fault_secs", secs)?;
            }
        }
        if let Some(bigdata) = &self.bigdata {
            if bigdata.block_mb == 0 {
                return Err(McsError::invalid_config("bigdata.block_mb", "must be positive"));
            }
            // The block store places every replica on a distinct machine.
            if bigdata.replication > self.machines {
                return Err(McsError::invalid_config(
                    "bigdata.replication",
                    "cannot exceed the number of machines",
                ));
            }
            finite_positive("bigdata.shuffle_bandwidth_mbs", bigdata.shuffle_bandwidth_mbs)?;
            finite_non_negative("bigdata.submit_interval_secs", bigdata.submit_interval_secs)?;
        }
        if let Some(graph) = &self.graph {
            if graph.vertices == 0 {
                return Err(McsError::invalid_config("graph.vertices", "graph must not be empty"));
            }
            finite_non_negative("graph.submit_interval_secs", graph.submit_interval_secs)?;
        }
        if let Some(gaming) = &self.gaming {
            if gaming.zone_capacity == 0 {
                return Err(McsError::invalid_config("gaming.zone_capacity", "must be positive"));
            }
            finite_non_negative("gaming.players.base_rate", gaming.players.base_rate)?;
        }
        if let Some(dag) = &self.dag {
            dag.validate()?;
        }
        if let Some(network) = &self.network {
            if network.nodes_per_rack == 0 {
                return Err(McsError::invalid_config(
                    "network.nodes_per_rack",
                    "racks must hold at least one machine",
                ));
            }
            finite_positive("network.node_bandwidth_mbs", network.node_bandwidth_mbs)?;
            finite_positive("network.rack_bandwidth_mbs", network.rack_bandwidth_mbs)?;
            if network.gaming_sync_interval.is_zero() {
                return Err(McsError::invalid_config(
                    "network.gaming_sync_interval",
                    "must be positive",
                ));
            }
            // Every access link carries the node bandwidth and every uplink
            // the rack bandwidth, so the fabric is connected exactly when
            // both are finite and positive in bytes per second; no need to
            // build it.
            let live = |mbs: f64| {
                let bps = mbs * MIB as f64;
                bps.is_finite() && bps > 0.0
            };
            if !live(network.node_bandwidth_mbs) || !live(network.rack_bandwidth_mbs) {
                return Err(McsError::invalid_config(
                    "network",
                    "topology must be connected (every link needs positive capacity)",
                ));
            }
        }
        if let Some(obs) = &self.observability {
            if obs.sketch_centroids < 8 {
                return Err(McsError::invalid_config(
                    "observability.sketch_centroids",
                    "sketch needs at least 8 centroids",
                ));
            }
            if obs.window.is_some_and(|w| w.is_zero()) {
                return Err(McsError::invalid_config(
                    "observability.window",
                    "must be positive",
                ));
            }
        }
        Ok(self.warnings())
    }

    /// The legal-but-suspicious combinations in this configuration; see
    /// [`ScenarioConfig::validate`].
    fn warnings(&self) -> Vec<ScenarioWarning> {
        let mut warnings = Vec::new();
        if let (Some(failure), None) = (&self.failure, &self.network) {
            let scripted_partitions = failure.schedule.as_ref().is_some_and(|faults| {
                faults.iter().any(|f| matches!(f.kind, FaultKind::Partition))
            });
            if failure.schedule.is_none() && failure.fault_mix.partition > 0.0 {
                warnings.push(ScenarioWarning::new(
                    "failure.fault_mix.partition",
                    format!(
                        "fault_mix.partition = {} but no network model is attached; \
                         partition windows fall back to FaaS service faults — attach a \
                         NetworkConfig (with_network) to cut topology links instead",
                        failure.fault_mix.partition
                    ),
                ));
            }
            if scripted_partitions {
                warnings.push(ScenarioWarning::new(
                    "failure.schedule",
                    "scripted schedule contains partition faults but no network model \
                     is attached; they fall back to FaaS service faults — attach a \
                     NetworkConfig (with_network) to cut topology links instead"
                        .to_string(),
                ));
            }
        }
        if let (Some(dag), Some(network)) = (&self.dag, &self.network) {
            let racks = self.machines.div_ceil(network.nodes_per_rack.max(1));
            if racks < dag.locality_domains as usize {
                warnings.push(ScenarioWarning::new(
                    "dag.locality_domains",
                    format!(
                        "workload is laid out for {} locality domains but the fabric \
                         has only {racks} rack(s); locality-first placement degrades \
                         to blind best-fit beyond the rack count — widen the fleet or \
                         lower nodes_per_rack / locality_domains",
                        dag.locality_domains
                    ),
                ));
            }
        }
        if let (Some(failure), Some(network)) = (&self.failure, &self.network) {
            let has_partitions = failure.fault_mix.partition > 0.0
                || failure.schedule.as_ref().is_some_and(|faults| {
                    faults.iter().any(|f| matches!(f.kind, FaultKind::Partition))
                });
            if has_partitions && network.flow_timeout.is_none() {
                warnings.push(ScenarioWarning::new(
                    "network.flow_timeout",
                    "partition faults can strand in-flight flows and flow_timeout is \
                     None: a cut endpoint stalls its flows silently until the cut \
                     heals — set a timeout so owners are told to retry or fail fast"
                        .to_string(),
                ));
            }
        }
        warnings
    }
}

/// A legal-but-suspicious configuration combination surfaced by
/// [`ScenarioConfig::validate`]: binaries print these to stderr, chaos
/// campaigns assert on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioWarning {
    /// Dotted path of the field (combination) the warning is about.
    pub field: &'static str,
    /// Human-readable advice.
    pub message: String,
}

impl ScenarioWarning {
    fn new(field: &'static str, message: String) -> Self {
        ScenarioWarning { field, message }
    }
}

impl std::fmt::Display for ScenarioWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "warning: {}: {}", self.field, self.message)
    }
}

/// What a composed run measured, per subsystem and across them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The batch scheduler's outcome (empty when batch is not attached).
    pub schedule: ScheduleOutcome,
    /// The FaaS platform's report (empty when FaaS is not attached).
    pub faas: PlatformReport,
    /// FaaS arrivals delivered by the workload source.
    pub arrivals: usize,
    /// Invocations admitted by the capacity cap.
    pub invoked: u64,
    /// Invocations rejected by the capacity cap.
    pub rejected: u64,
    /// Invocations that ended in failure (partition, gray, timeout, open
    /// breaker); zero in crash-only runs.
    pub invocations_failed: u64,
    /// Requests dropped by engaged load shedding.
    pub shed: u64,
    /// Retries scheduled by the FaaS retry policy.
    pub retries_scheduled: u64,
    /// FaaS capacity at the end of the run.
    pub final_capacity: usize,
    /// Outages in the generated schedule.
    pub outages_generated: usize,
    /// Outages that actually struck before the horizon.
    pub outages_delivered: usize,
    /// Scaling decisions the governor took.
    pub governor_decisions: usize,
    /// MapReduce jobs that ran all their stages to completion.
    pub bigdata_jobs: usize,
    /// Graph-analytics queries that ran to completion.
    pub graph_queries: usize,
    /// Graph supersteps executed slowed (worker loss or shuffle pressure).
    pub graph_stragglers: u64,
    /// Players admitted into the virtual world.
    pub gaming_admitted: u64,
    /// Players turned away at the door.
    pub gaming_rejected: u64,
    /// Players dropped mid-session by zone failures.
    pub gaming_disconnected: u64,
    /// Gaming state syncs that blew the lag budget (network runs only).
    pub gaming_laggy_syncs: u64,
    /// Workflows the DAG engine ran to completion.
    pub dag_jobs_finished: u64,
    /// Workflow tasks completed.
    pub dag_tasks_finished: u64,
    /// Mean workflow makespan (submit to last task), seconds.
    pub dag_mean_makespan_secs: f64,
    /// Total seconds workflow edge payloads spent in flight.
    pub dag_transfer_secs: f64,
    /// Workflow transfer seconds beyond the reference-bandwidth ideal.
    pub dag_stall_secs: f64,
    /// Flows started on the network fabric (zero without a network).
    pub net_flows_started: u64,
    /// Flows delivered by the network fabric.
    pub net_flows_delivered: u64,
    /// Flows aborted after stalling on a cut endpoint past the flow timeout.
    pub net_flows_aborted: u64,
    /// Total seconds flows lost to contention, faults, and degraded links.
    pub net_stall_secs: f64,
    /// Engine messages delivered across all actors.
    pub events_handled: u64,
    /// The cross-cutting event trace of the whole run.
    pub trace: TraceBus,
}

/// Builds and runs a composed ecosystem simulation.
///
/// ```
/// use mcs_core::scenario::{BatchConfig, Scenario, ScenarioConfig};
/// use mcs_simcore::time::SimTime;
///
/// let config = ScenarioConfig {
///     horizon: SimTime::from_secs(1800),
///     machines: 8,
///     ..ScenarioConfig::default()
/// }
/// .with_batch(BatchConfig { jobs: 10, ..BatchConfig::default() });
/// let outcome = Scenario::new(config).run();
/// assert!(outcome.arrivals > 0 && outcome.events_handled > 0);
/// ```
pub struct Scenario {
    config: ScenarioConfig,
    autoscaler: Box<dyn Autoscaler>,
    functions: Vec<FunctionSpec>,
}

impl Scenario {
    /// A scenario with the given configuration, a `React` autoscaler, and a
    /// two-function FaaS deployment (an API handler and a data processor).
    ///
    /// # Panics
    /// Panics when the configuration is invalid; use [`Scenario::try_new`]
    /// to handle the error instead.
    pub fn new(config: ScenarioConfig) -> Self {
        Scenario::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A scenario with the given configuration, validated at build time.
    ///
    /// # Errors
    /// Returns [`McsError::InvalidConfig`] when the configuration fails
    /// [`ScenarioConfig::validate`] (empty fleet, non-finite rates, ...).
    pub fn try_new(config: ScenarioConfig) -> Result<Self, McsError> {
        let warnings = config.validate()?;
        if !warnings.is_empty() {
            // Once per process: sweeps build hundreds of scenarios and the
            // advice does not change between them. Callers that want every
            // instance (chaos campaigns) call `validate()` themselves.
            static CONFIG_WARNINGS: std::sync::Once = std::sync::Once::new();
            CONFIG_WARNINGS.call_once(|| {
                for w in &warnings {
                    eprintln!("{w}");
                }
            });
        }
        Ok(Scenario {
            config,
            autoscaler: Box::new(React::default()),
            functions: vec![
                FunctionSpec::api_handler("api"),
                FunctionSpec::data_processor("etl"),
            ],
        })
    }

    /// The scenario's configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Replaces the autoscaler governing the FaaS platform.
    #[must_use]
    pub fn with_autoscaler(mut self, autoscaler: Box<dyn Autoscaler>) -> Self {
        self.autoscaler = autoscaler;
        self
    }

    /// Replaces the FaaS deployment (invocations round-robin across specs).
    ///
    /// # Panics
    /// Panics when `functions` is empty.
    #[must_use]
    pub fn with_functions(mut self, functions: Vec<FunctionSpec>) -> Self {
        assert!(!functions.is_empty(), "scenario needs at least one function");
        self.functions = functions;
        self
    }

    /// Runs the composed simulation to its horizon and returns the outcome.
    pub fn run(mut self) -> ScenarioOutcome {
        // Every cross-tenant message below goes through `send_to`,
        // `transfer` or `fault_window`. The engine breaks ties at one instant
        // by send order, so the order of the sends inside each hook is part
        // of the behaviour.
        let cfg = self.config.clone();

        // Per-component RNG streams, all derived from the master seed. The
        // streams (and their draw order) are identical whether a subsystem
        // runs standalone or composed.
        let mut workload_rng = RngStream::new(cfg.seed, "workload");
        let mut failure_rng = RngStream::new(cfg.seed, "failures");

        // Subsystem state (owned here; actors borrow it below).
        let mut batch_jobs = cfg.batch.as_ref().map(|batch| {
            BatchWorkloadGenerator::new(BatchWorkloadConfig::default()).generate(
                cfg.horizon,
                batch.jobs,
                &mut workload_rng,
            )
        });

        let mut outages_generated = 0;
        let faults = cfg.failure.as_ref().map(|failure| match &failure.schedule {
            // Scripted mode: replay exactly the given faults; the stochastic
            // generator and the fault-mix assignment (and their RNG streams)
            // are never consulted.
            Some(scripted) => {
                outages_generated = scripted.len();
                scripted.clone()
            }
            None => {
                let outages = SpaceCorrelatedFailures::with_mtbf(
                    failure.mtbf_secs,
                    cfg.machines,
                    failure.failure_domain,
                )
                .generate(cfg.machines, cfg.horizon, &mut failure_rng);
                outages_generated = outages.len();
                let mut mix_rng = RngStream::new(cfg.seed, "fault-mix");
                failure.fault_mix.assign(outages, &mut mix_rng)
            }
        });

        let mut platform = cfg.faas.as_ref().map(|faas| {
            let mut platform =
                FaasPlatform::new(KeepAlivePolicy::Fixed(faas.keep_alive), cfg.seed);
            for spec in &self.functions {
                platform.deploy(spec.clone());
            }
            platform
        });
        let function_names: Vec<String> =
            self.functions.iter().map(|f| f.name.clone()).collect();

        let mut scheduler = cfg.batch.as_ref().map(|_| {
            let cluster = Cluster::homogeneous(
                ClusterId(0),
                "batch",
                MachineSpec::commodity("std-8", 8.0, 32.0),
                cfg.machines as u32,
            );
            ClusterScheduler::new(cluster, SchedulerConfig::default(), cfg.seed)
        });
        let mut selector = cfg
            .batch
            .as_ref()
            .map(|_| PortfolioSelector::new(default_portfolio(), Objective::Makespan, cfg.seed));
        let mut process = cfg.faas.as_ref().map(|faas| Poisson::new(faas.arrival_rate));

        // Actor ids are assigned in registration order; fix that order here
        // (skipping absent subsystems) so cross-actor callbacks can address
        // their peers up front. The legacy quintet keeps ids 0..=4.
        let mut next_index = 0usize;
        let mut alloc = |present: bool| {
            present.then(|| {
                let id = ActorId::from_index(next_index);
                next_index += 1;
                id
            })
        };
        let arrival_id = alloc(cfg.faas.is_some());
        let scheduler_id = alloc(cfg.batch.is_some());
        let governor_id = alloc(cfg.faas.is_some());
        let faas_id = alloc(cfg.faas.is_some());
        let injector_id = alloc(cfg.failure.is_some());
        let bigdata_id = alloc(cfg.bigdata.is_some());
        let graph_id = alloc(cfg.graph.is_some());
        let gaming_id = alloc(cfg.gaming.is_some());
        let dag_id = alloc(cfg.dag.is_some());
        // The network actor registers last so attaching it never renumbers
        // the tenants (and `network: None` keeps the legacy id layout).
        let net_id = alloc(cfg.network.is_some());
        let machines = cfg.machines as u32;

        let mut arrival = process.as_mut().map(|process| {
            let faas = cfg.faas.as_ref().expect("faas config present with process");
            let function_names = function_names.clone();
            // With a network attached, the invocation payload travels as a
            // flow from the caller's node to the platform front-end (node 0);
            // the net completion router issues the Invoke on delivery.
            let payload_bytes =
                cfg.network.as_ref().map_or(0, |net| net.faas_payload_bytes.max(1));
            ArrivalActor::new(
                process,
                RngStream::new(cfg.seed, "arrivals"),
                cfg.horizon,
                faas.max_arrivals,
                move |ctx, index| match net_id {
                    Some(nid) => {
                        let src = index as u32 % machines;
                        transfer(ctx, nid, src, 0, payload_bytes, FlowOwner::Faas, index as u64);
                    }
                    None => {
                        let function = function_names[index % function_names.len()].clone();
                        send_to(ctx, faas_id, EcosystemMsg::Faas(FaasMsg::Invoke { function }));
                    }
                },
            )
        });

        let mut scheduler_actor = scheduler.as_mut().map(|scheduler| {
            let batch = cfg.batch.as_ref().expect("batch config present with scheduler");
            let jobs = batch_jobs.take().expect("batch jobs generated");
            let selector = selector.as_mut().expect("selector present with scheduler");
            let mut actor = scheduler
                .actor(jobs, cfg.horizon)
                .with_selector(selector, batch.policy_interval);
            if let Some(restart) = cfg.resilience.restart {
                actor = actor.with_restart(restart);
            }
            // With a network attached, a killed task's checkpoint image is
            // fetched over the fabric before it re-enters the queue, so
            // recovery time tracks contention instead of a fixed backoff.
            if let (Some(nid), Some(net)) = (net_id, cfg.network.as_ref()) {
                let bytes = (net.rms_checkpoint_mb * MIB).max(1);
                actor = actor.with_checkpoint_hook(move |ctx, task, attempt| {
                    let src = task as u32 % machines;
                    let dst = (task as u32 + 1 + attempt) % machines;
                    transfer(ctx, nid, src, dst, bytes, FlowOwner::Rms, task as u64);
                });
            }
            actor
        });

        let autoscaler = self.autoscaler.as_mut();
        let mut governor = cfg.faas.as_ref().map(|faas| {
            let mut governor = GovernorActor::new(autoscaler, faas.service, move |ctx, delta| {
                send_to(ctx, faas_id, EcosystemMsg::Faas(FaasMsg::Scale(delta)));
            });
            if cfg.resilience.shedder.is_some() {
                governor = governor.with_shedding(move |ctx, on| {
                    send_to(ctx, faas_id, EcosystemMsg::Faas(FaasMsg::SetShedding(on)));
                });
            }
            governor
        });

        let mut faas_actor = platform.as_mut().map(|platform| {
            let faas = cfg.faas.as_ref().expect("faas config present with platform");
            let mut actor = FaasActor::new(platform)
                .with_capacity(faas.initial_capacity)
                .with_resilience(cfg.resilience)
                .with_observer(faas.service.scaling_interval, move |ctx, demand, supply| {
                    let observe = GovernorMsg::Observe { demand, supply };
                    send_to(ctx, governor_id, EcosystemMsg::Governor(observe));
                });
            if let Some(congestion) = faas.congestion {
                actor = actor.with_congestion(congestion);
            }
            // Response payloads ride the fabric back to the callers; they
            // are fire-and-forget but still contend for bandwidth.
            if let (Some(nid), Some(net)) = (net_id, cfg.network.as_ref()) {
                if net.faas_response_bytes > 0 {
                    let bytes = net.faas_response_bytes;
                    let mut seq = 0u64;
                    actor = actor.with_response_hook(move |ctx, _latency_secs| {
                        let dst = spread(seq, machines);
                        transfer(ctx, nid, 0, dst, bytes, FlowOwner::FaasResp, seq);
                        seq += 1;
                    });
                }
            }
            actor
        });

        // Crash faults strike every tenant of the shared fleet — the batch
        // cluster, the warm pool, and the bigdata/graph/gaming actors. With
        // a network attached, partition and gray windows strike the fabric
        // itself (cut and degraded access links); every other window, and
        // partition and gray without a network, strikes the FaaS service.
        let mut injector = faults.map(|faults| {
            let failure = cfg.failure.as_ref().expect("failure config present with faults");
            let kill_fraction = failure.kill_fraction;
            let service_fault_secs = failure.service_fault_secs;
            let net_window = move |f: NetFault| {
                let (strike, clear) = (NetMsg::Fault(f), NetMsg::FaultClear(f));
                (net_id, EcosystemMsg::Net(strike), EcosystemMsg::Net(clear))
            };
            let faas_window = move |f: FaasFault| {
                let (strike, clear) = (FaasMsg::Fault(f), FaasMsg::FaultClear(f));
                (faas_id, EcosystemMsg::Faas(strike), EcosystemMsg::Faas(clear))
            };
            FailureInjector::with_faults(faults, move |ctx, event| {
                let (fault, up) = match event {
                    FailureEvent::Fail(fault) => (fault, false),
                    FailureEvent::Repair(fault) => (fault, true),
                };
                let machine = fault.outage.machine as u32;
                let (to, strike, clear) = match fault.kind {
                    FaultKind::Crash => {
                        let (rms, bigdata, graph, gaming) = if up {
                            (
                                RmsMsg::MachineRepair(machine),
                                BigdataMsg::NodeRepair(machine),
                                GraphMsg::NodeRepair(machine),
                                GamingMsg::NodeRepair(machine),
                            )
                        } else {
                            (
                                RmsMsg::MachineFail(machine),
                                BigdataMsg::NodeFail(machine),
                                GraphMsg::NodeFail(machine),
                                GamingMsg::NodeFail(machine),
                            )
                        };
                        send_to(ctx, scheduler_id, EcosystemMsg::Rms(rms));
                        if !up {
                            let kill = FaasMsg::KillWarm { fraction: kill_fraction };
                            send_to(ctx, faas_id, EcosystemMsg::Faas(kill));
                        }
                        send_to(ctx, bigdata_id, EcosystemMsg::Bigdata(bigdata));
                        send_to(ctx, graph_id, EcosystemMsg::Graph(graph));
                        send_to(ctx, gaming_id, EcosystemMsg::Gaming(gaming));
                        return;
                    }
                    FaultKind::Partition if net_id.is_some() => {
                        net_window(NetFault::Cut { node: machine })
                    }
                    FaultKind::Gray { error_rate } if net_id.is_some() => {
                        let factor = (1.0 - error_rate).clamp(0.0, 1.0);
                        net_window(NetFault::Degrade { node: machine, factor })
                    }
                    FaultKind::Slowdown { factor } => faas_window(FaasFault::Slowdown { factor }),
                    FaultKind::Gray { error_rate } => faas_window(FaasFault::Gray { error_rate }),
                    FaultKind::Partition => faas_window(FaasFault::Partition),
                };
                fault_window(ctx, to, up, service_fault_secs, strike, clear);
            })
            .with_horizon(cfg.horizon)
        });

        let mut bigdata_actor = cfg.bigdata.as_ref().map(|bigdata| {
            let mut actor: DataflowActor<'_, EcosystemMsg> =
                DataflowActor::new(bigdata.clone(), machines, RngStream::new(cfg.seed, "bigdata"));
            // The cross-tenant interference channel: each shuffle window
            // opens network pressure on the co-tenant subsystems.
            if graph_id.is_some() || gaming_id.is_some() {
                actor = actor.with_shuffle_hook(move |ctx, _job, active| {
                    send_to(ctx, graph_id, EcosystemMsg::Graph(GraphMsg::Pressure(active)));
                    send_to(ctx, gaming_id, EcosystemMsg::Gaming(GamingMsg::Pressure(active)));
                });
            }
            // With a network attached, map-input reads and shuffle traffic
            // become flows; the net router delivers the phase barriers.
            if let Some(nid) = net_id {
                actor = actor.with_transfer_hook(move |ctx, t| {
                    let owner = match t.phase {
                        BdPhase::Map => FlowOwner::BdMap,
                        BdPhase::Shuffle => FlowOwner::BdShuffle,
                    };
                    transfer(ctx, nid, t.src, t.dst, t.bytes.max(1), owner, t.job as u64);
                });
            }
            actor
        });

        let mut graph_actor = cfg.graph.as_ref().map(|graph| {
            BspActor::new(graph.clone(), machines, RngStream::new(cfg.seed, "graph"))
        });

        let mut gaming_actor = cfg.gaming.as_ref().map(|gaming| {
            let mut actor: WorldActor<'_, EcosystemMsg> =
                WorldActor::new(gaming.clone(), cfg.horizon, RngStream::new(cfg.seed, "gaming"));
            // With a network attached, world-state syncs ride the fabric and
            // lag whenever co-tenant traffic crowds their links.
            if let (Some(nid), Some(net)) = (net_id, cfg.network.as_ref()) {
                let sync = GamingSyncConfig {
                    interval: net.gaming_sync_interval,
                    base_bytes: net.gaming_sync_base_bytes,
                    per_player_bytes: net.gaming_sync_per_player_bytes,
                };
                actor = actor.with_sync(sync, move |ctx, seq, bytes| {
                    let src = spread(seq, machines);
                    transfer(ctx, nid, src, 0, bytes.max(1), FlowOwner::Game, seq);
                });
            }
            actor
        });

        let mut dag_actor = cfg.dag.as_ref().map(|dag| {
            let mut rng = RngStream::new(cfg.seed, "dag");
            // With a network attached, the fabric's rack width dictates the
            // locality structure the locality-first policy reasons over.
            let mut actor: DagActor<'_, EcosystemMsg> = match cfg.network.as_ref() {
                Some(net) => DagActor::with_rack_width(
                    machines,
                    dag.clone(),
                    &mut rng,
                    net.nodes_per_rack as u32,
                ),
                None => DagActor::new(machines, dag.clone(), &mut rng),
            };
            // With a network attached, edge payloads ride the fabric; the
            // net completion router delivers the EdgeDone barriers.
            if let Some(nid) = net_id {
                actor = actor.with_edge_hook(move |ctx, t| {
                    let id = (u64::from(t.job) << 32) | u64::from(t.edge);
                    transfer(ctx, nid, t.src, t.dst, t.bytes.max(1), FlowOwner::Dag, id);
                });
            }
            actor
        });

        // The shared fabric, with the completion router that turns finished
        // flows back into tenant messages. Aborted flows (stranded on a cut
        // endpoint past the flow timeout) take the retry-or-fail-fast arms.
        let mut net_actor = cfg.network.as_ref().map(|net| {
            let function_names = function_names.clone();
            let lag_budget = net.gaming_lag_budget.as_secs_f64();
            let nid = net_id.expect("net id allocated");
            NetActor::new(net.topology(cfg.machines))
                .with_flow_timeout(net.flow_timeout)
                .with_completion(move |ctx, done| match done.tag.owner {
                    // A lost invocation payload fails fast; nothing retries.
                    FlowOwner::Faas if done.aborted => {}
                    FlowOwner::Faas => {
                        let function =
                            function_names[done.tag.id as usize % function_names.len()].clone();
                        send_to(ctx, faas_id, EcosystemMsg::Faas(FaasMsg::Invoke { function }));
                    }
                    // Responses only contend for bandwidth; nothing waits on
                    // them, delivered or lost.
                    FlowOwner::FaasResp => {}
                    // A fetched checkpoint re-enters the queue; an abandoned
                    // fetch does too, and the task restarts.
                    FlowOwner::Rms => {
                        let requeue = RmsMsg::Requeue(done.tag.id as usize);
                        send_to(ctx, scheduler_id, EcosystemMsg::Rms(requeue));
                    }
                    // Barriers would hang forever on a lost transfer: retry it
                    // (bounded by the timeout cadence until the cut heals or
                    // the run ends). Workflow input edges are barriers too —
                    // the consumer task cannot start without its bytes.
                    FlowOwner::BdMap | FlowOwner::BdShuffle | FlowOwner::Dag if done.aborted => {
                        let tag = done.tag;
                        transfer(ctx, nid, done.src, done.dst, done.bytes, tag.owner, tag.id);
                    }
                    FlowOwner::BdMap => {
                        let msg = BigdataMsg::MapXferDone(done.tag.id as usize);
                        send_to(ctx, bigdata_id, EcosystemMsg::Bigdata(msg));
                    }
                    FlowOwner::BdShuffle => {
                        let msg = BigdataMsg::ShuffleXferDone(done.tag.id as usize);
                        send_to(ctx, bigdata_id, EcosystemMsg::Bigdata(msg));
                    }
                    FlowOwner::Dag => {
                        let (job, edge) = ((done.tag.id >> 32) as u32, done.tag.id as u32);
                        send_to(ctx, dag_id, EcosystemMsg::Dag(DagMsg::EdgeDone { job, edge }));
                    }
                    // A lost world-state sync counts as (very) lagged.
                    FlowOwner::Game => {
                        let lagged = done.aborted || done.secs > lag_budget;
                        send_to(ctx, gaming_id, EcosystemMsg::Gaming(GamingMsg::SyncDone(lagged)));
                    }
                    FlowOwner::Test => debug_assert!(false, "test flows never reach a scenario"),
                })
        });

        let mut sim: Simulation<'_, EcosystemMsg> = Simulation::new(cfg.seed);
        sim.set_horizon(cfg.horizon);
        if let Some(obs) = &cfg.observability {
            // Must happen before the first emission: the sink folds events
            // as they are recorded, so a late switch would lose history.
            sim.set_trace(TraceBus::streaming(obs.stream_config()));
        }
        register(&mut sim, arrival.as_mut(), arrival_id);
        register(&mut sim, scheduler_actor.as_mut(), scheduler_id);
        register(&mut sim, governor.as_mut(), governor_id);
        register(&mut sim, faas_actor.as_mut(), faas_id);
        register(&mut sim, injector.as_mut(), injector_id);
        register(&mut sim, bigdata_actor.as_mut(), bigdata_id);
        register(&mut sim, graph_actor.as_mut(), graph_id);
        register(&mut sim, gaming_actor.as_mut(), gaming_id);
        register(&mut sim, dag_actor.as_mut(), dag_id);
        register(&mut sim, net_actor.as_mut(), net_id);

        // The FaaS platform reports its first observation one scaling
        // interval in; everything else starts at time zero.
        let report_at = cfg.faas.as_ref().map_or(SimTime::ZERO, |faas| {
            SimTime::ZERO + faas.service.scaling_interval
        });
        let starts = [
            (arrival_id, SimTime::ZERO, EcosystemMsg::Arrival(ArrivalMsg::Start)),
            (scheduler_id, SimTime::ZERO, EcosystemMsg::Rms(RmsMsg::Start)),
            (injector_id, SimTime::ZERO, EcosystemMsg::Injector(InjectorMsg::Start)),
            (faas_id, report_at, EcosystemMsg::Faas(FaasMsg::Report)),
            (bigdata_id, SimTime::ZERO, EcosystemMsg::Bigdata(BigdataMsg::Start)),
            (graph_id, SimTime::ZERO, EcosystemMsg::Graph(GraphMsg::Start)),
            (gaming_id, SimTime::ZERO, EcosystemMsg::Gaming(GamingMsg::Start)),
            (dag_id, SimTime::ZERO, EcosystemMsg::Dag(DagMsg::Start)),
        ];
        for (id, at, msg) in starts {
            if let Some(id) = id {
                sim.schedule(at, id, msg);
            }
        }
        sim.run();

        let events_handled = sim.events_handled();
        let trace = sim.take_trace();
        drop(sim);

        let arrivals = arrival.as_ref().map_or(0, |a| a.count());
        let invoked = faas_actor.as_ref().map_or(0, |a| a.invoked());
        let rejected = faas_actor.as_ref().map_or(0, |a| a.rejected());
        let invocations_failed = faas_actor.as_ref().map_or(0, |a| a.failed());
        let shed = faas_actor.as_ref().map_or(0, |a| a.shed());
        let retries_scheduled = faas_actor.as_ref().map_or(0, |a| a.retries_scheduled());
        let final_capacity =
            faas_actor.as_ref().and_then(|a| a.capacity()).unwrap_or(0);
        let outages_delivered = injector.as_ref().map_or(0, |i| i.delivered());
        let governor_decisions = governor.as_ref().map_or(0, |g| g.decisions());
        let schedule = scheduler_actor
            .as_mut()
            .map(|a| a.outcome())
            .unwrap_or_else(empty_schedule_outcome);
        let bigdata_jobs = bigdata_actor.as_ref().map_or(0, |a| a.completed());
        let graph_queries = graph_actor.as_ref().map_or(0, |a| a.completed());
        let graph_stragglers = graph_actor.as_ref().map_or(0, |a| a.stragglers());
        let gaming_admitted = gaming_actor.as_ref().map_or(0, |a| a.admitted());
        let gaming_rejected = gaming_actor.as_ref().map_or(0, |a| a.rejected());
        let gaming_disconnected = gaming_actor.as_ref().map_or(0, |a| a.disconnected());
        let gaming_laggy_syncs = gaming_actor.as_ref().map_or(0, |a| a.laggy_syncs());
        let dag_jobs_finished = dag_actor.as_ref().map_or(0, |a| a.jobs_finished());
        let dag_tasks_finished = dag_actor.as_ref().map_or(0, |a| a.tasks_finished());
        let dag_mean_makespan_secs = dag_actor.as_ref().map_or(0.0, |a| a.mean_makespan_secs());
        let dag_transfer_secs = dag_actor.as_ref().map_or(0.0, |a| a.transfer_secs());
        let dag_stall_secs = dag_actor.as_ref().map_or(0.0, |a| a.stall_secs());
        let net_flows_started = net_actor.as_ref().map_or(0, |a| a.started());
        let net_flows_delivered = net_actor.as_ref().map_or(0, |a| a.delivered());
        let net_flows_aborted = net_actor.as_ref().map_or(0, |a| a.aborted());
        let net_stall_secs = net_actor.as_ref().map_or(0.0, |a| a.stall_secs());
        drop(arrival);
        drop(faas_actor);
        drop(governor);
        drop(injector);
        drop(scheduler_actor);
        let faas = platform.as_mut().map_or_else(empty_platform_report, |p| p.finish());

        ScenarioOutcome {
            schedule,
            faas,
            arrivals,
            invoked,
            rejected,
            invocations_failed,
            shed,
            retries_scheduled,
            final_capacity,
            outages_generated,
            outages_delivered,
            governor_decisions,
            bigdata_jobs,
            graph_queries,
            graph_stragglers,
            gaming_admitted,
            gaming_rejected,
            gaming_disconnected,
            gaming_laggy_syncs,
            dag_jobs_finished,
            dag_tasks_finished,
            dag_mean_makespan_secs,
            dag_transfer_secs,
            dag_stall_secs,
            net_flows_started,
            net_flows_delivered,
            net_flows_aborted,
            net_stall_secs,
            events_handled,
            trace,
        }
    }
}

/// Sends `msg` to `to` at the current instant, when that tenant is attached.
fn send_to(ctx: &mut Context<'_, EcosystemMsg>, to: Option<ActorId>, msg: EcosystemMsg) {
    if let Some(id) = to {
        ctx.send(id, SimDuration::ZERO, msg);
    }
}

/// Starts a flow of `bytes` from node `src` to node `dst` on the fabric
/// `net`, tagged so the completion router can hand it back to `owner`.
fn transfer(
    ctx: &mut Context<'_, EcosystemMsg>,
    net: ActorId,
    src: u32,
    dst: u32,
    bytes: u64,
    owner: FlowOwner,
    id: u64,
) {
    let req = TransferReq { src, dst, bytes, tag: FlowTag { owner, id } };
    ctx.send(net, SimDuration::ZERO, EcosystemMsg::Net(NetMsg::Transfer(req)));
}

/// Spreads a sequence over the nodes other than the front-end (node 0), or
/// onto node 0 when the fleet has only that one.
fn spread(seq: u64, machines: u32) -> u32 {
    if machines > 1 {
        1 + (seq % u64::from(machines - 1)) as u32
    } else {
        0
    }
}

/// Opens (`up == false`) or closes (`up == true`) a fault window on `to`.
/// With a fixed window length the clear is scheduled when the fault strikes,
/// so the repair sends nothing; otherwise the repair sends the clear.
fn fault_window(
    ctx: &mut Context<'_, EcosystemMsg>,
    to: Option<ActorId>,
    up: bool,
    service_fault_secs: Option<f64>,
    strike: EcosystemMsg,
    clear: EcosystemMsg,
) {
    let Some(id) = to else { return };
    if !up {
        ctx.send(id, SimDuration::ZERO, strike);
        if let Some(secs) = service_fault_secs {
            ctx.send(id, SimDuration::from_secs_f64(secs), clear);
        }
    } else if service_fault_secs.is_none() {
        ctx.send(id, SimDuration::ZERO, clear);
    }
}

/// Registers `actor`, when its subsystem is attached, and checks that it
/// received the id precomputed for it.
fn register<'a, A: Actor<EcosystemMsg> + 'a>(
    sim: &mut Simulation<'a, EcosystemMsg>,
    actor: Option<&'a mut A>,
    expected: Option<ActorId>,
) {
    if let Some(actor) = actor {
        let id = sim.add_actor(actor);
        debug_assert_eq!(Some(id), expected, "registration order must match precomputed ids");
    }
}

/// The outcome of a run with no batch subsystem attached.
fn empty_schedule_outcome() -> ScheduleOutcome {
    ScheduleOutcome {
        completions: Vec::new(),
        makespan: SimDuration::ZERO,
        mean_utilization: 0.0,
        mean_queue_length: 0.0,
        peak_queue_length: 0.0,
        deadline_misses: 0,
        failure_requeues: 0,
        rejected: 0,
        abandoned: 0,
        unfinished: 0,
    }
}

/// The report of a run with no FaaS subsystem attached.
fn empty_platform_report() -> PlatformReport {
    PlatformReport {
        invocations: Vec::new(),
        cold_fraction: 0.0,
        latency: None,
        billed_gb_secs: 0.0,
        provider_gb_secs: 0.0,
        peak_instances: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_failure::model::Outage;

    fn small_config() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7,
            horizon: SimTime::from_secs(3600),
            machines: 16,
            ..ScenarioConfig::default()
        }
        .with_batch(BatchConfig { jobs: 20, ..BatchConfig::default() })
        .with_faas(FaasConfig { arrival_rate: 0.4, ..FaasConfig::default() })
        .with_failures(FailureConfig { mtbf_secs: 1.5 * 3600.0, ..FailureConfig::default() })
    }

    #[test]
    fn composed_run_is_deterministic() {
        let a = Scenario::new(small_config()).run();
        let b = Scenario::new(small_config()).run();
        assert_eq!(a.trace.to_json_string(), b.trace.to_json_string());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.faas, b.faas);
        assert_eq!(
            (a.arrivals, a.invoked, a.rejected, a.events_handled),
            (b.arrivals, b.invoked, b.rejected, b.events_handled)
        );
    }

    #[test]
    fn streaming_observability_matches_full_retention_aggregates() {
        let full = Scenario::new(small_config()).run();
        let streamed =
            Scenario::new(small_config().with_observability(ObservabilityConfig::default())).run();

        // Everything the simulation *did* is untouched by the sink choice.
        assert!(streamed.trace.is_streaming() && !full.trace.is_streaming());
        assert_eq!(streamed.schedule, full.schedule);
        assert_eq!(streamed.faas, full.faas);
        assert_eq!(
            (streamed.arrivals, streamed.invoked, streamed.rejected, streamed.events_handled),
            (full.arrivals, full.invoked, full.rejected, full.events_handled)
        );

        // Aggregate queries agree exactly; stats are bit-identical because
        // the streaming fold visits events in emission order.
        assert_eq!(streamed.trace.counts(), full.trace.counts());
        assert_eq!(streamed.trace.components(), full.trace.components());
        assert_eq!(
            streamed.trace.field_stats("faas", "invoke", "latency_secs"),
            full.trace.field_stats("faas", "invoke", "latency_secs")
        );
        assert_eq!(
            streamed.trace.time_span("workload", "arrival"),
            full.trace.time_span("workload", "arrival")
        );
        // The streaming bus dropped the events themselves.
        assert!(streamed.trace.select("faas", "invoke").is_empty());
        assert!(streamed.trace.approx_retained_bytes() < full.trace.approx_retained_bytes());
    }

    #[test]
    fn observability_config_is_validated() {
        let bad_centroids = small_config()
            .with_observability(ObservabilityConfig { sketch_centroids: 2, window: None });
        assert!(Scenario::try_new(bad_centroids).is_err());
        let bad_window = small_config().with_observability(ObservabilityConfig {
            sketch_centroids: 64,
            window: Some(SimDuration::ZERO),
        });
        assert!(Scenario::try_new(bad_window).is_err());
        let windowed = small_config().with_observability(ObservabilityConfig {
            sketch_centroids: 64,
            window: Some(SimDuration::from_secs(600)),
        });
        let out = Scenario::new(windowed).run();
        let windows = out.trace.window_counts("workload", "arrival").expect("windowed counters");
        assert_eq!(windows.iter().sum::<u64>() as usize, out.arrivals);
    }

    #[test]
    fn every_subsystem_emits_onto_the_shared_trace() {
        let out = Scenario::new(small_config()).run();
        let components = out.trace.components();
        for expected in ["autoscale", "faas", "failure", "rms", "workload"] {
            assert!(
                components.iter().any(|c| c == expected),
                "missing component {expected} in {components:?}"
            );
        }
        assert!(out.arrivals > 0);
        assert!(out.invoked > 0);
        assert!(out.outages_delivered > 0, "MTBF too long for the horizon?");
        assert!(out.governor_decisions > 0);
        assert!(!out.schedule.completions.is_empty());
    }

    #[test]
    fn failures_reach_both_scheduler_and_faas() {
        let out = Scenario::new(small_config()).run();
        let fails = out.trace.count("failure", "outage");
        assert_eq!(fails, out.outages_delivered);
        assert_eq!(out.trace.count("faas", "kill_warm"), fails);
        assert_eq!(out.trace.count("rms", "machine_fail"), fails);
    }

    #[test]
    fn resilient_run_with_mixed_faults_is_deterministic_and_traced() {
        let config = || {
            // Harsh failure regime so every fault kind gets drawn.
            small_config()
                .with_faas(FaasConfig {
                    arrival_rate: 0.4,
                    congestion: Some(CongestionConfig::default()),
                    ..FaasConfig::default()
                })
                .with_failures(FailureConfig {
                    mtbf_secs: 600.0,
                    fault_mix: FaultMix {
                        crash: 0.4,
                        slowdown: 0.2,
                        gray: 0.2,
                        partition: 0.2,
                        ..FaultMix::crash_only()
                    },
                    ..FailureConfig::default()
                })
                .with_resilience(ResilienceConfig::all_on())
        };
        let a = Scenario::new(config()).run();
        let b = Scenario::new(config()).run();
        assert_eq!(a.trace.to_json_string(), b.trace.to_json_string());
        // Non-crash fault windows reach the FaaS platform…
        assert!(a.trace.count("faas", "fault") > 0, "no service fault windows struck");
        // …and the resilience machinery leaves structured evidence behind.
        assert!(
            a.invocations_failed > 0 || a.retries_scheduled > 0,
            "mixed faults under all-on resilience produced no failures or retries"
        );
        assert_eq!(
            a.retries_scheduled,
            a.trace.count("faas", "retry_scheduled") as u64
        );
        assert_eq!(
            a.invocations_failed,
            a.trace.count("faas", "invoke_failed") as u64
        );
    }

    #[test]
    fn crash_only_defaults_leave_resilience_silent() {
        let out = Scenario::new(small_config()).run();
        assert_eq!(out.invocations_failed, 0);
        assert_eq!(out.shed, 0);
        assert_eq!(out.retries_scheduled, 0);
        assert_eq!(out.trace.count("faas", "fault"), 0);
        assert_eq!(out.trace.count("rms", "requeue_scheduled"), 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Scenario::new(small_config()).run();
        let mut cfg = small_config();
        cfg.seed = 8;
        let b = Scenario::new(cfg).run();
        assert_ne!(a.trace.to_json_string(), b.trace.to_json_string());
    }

    #[test]
    fn full_stack_composes_every_subsystem_on_one_simulation() {
        let out = Scenario::new(
            small_config()
                .with_bigdata(BigdataConfig { jobs: 2, ..BigdataConfig::default() })
                .with_graph(GraphConfig {
                    queries: 2,
                    vertices: 300,
                    edges: 1_200,
                    ..GraphConfig::default()
                })
                .with_gaming(GamingConfig::default()),
        )
        .run();
        let components = out.trace.components();
        for expected in
            ["autoscale", "bigdata", "faas", "failure", "gaming", "graph", "rms", "workload"]
        {
            assert!(
                components.iter().any(|c| c == expected),
                "missing component {expected} in {components:?}"
            );
        }
        // Crash faults fan out to every fleet tenant.
        let fails = out.trace.count("failure", "outage");
        assert!(fails > 0);
        assert_eq!(out.trace.count("bigdata", "node_fail"), fails);
        assert_eq!(out.trace.count("graph", "worker_fail"), fails);
        // Shuffle windows exert pressure on both co-tenants.
        let shuffles = out.trace.count("bigdata", "shuffle_start");
        assert!(shuffles > 0);
        assert_eq!(out.trace.count("graph", "pressure"), 2 * shuffles);
        assert_eq!(out.trace.count("gaming", "pressure"), 2 * shuffles);
        assert!(out.gaming_admitted > 0);
    }

    #[test]
    fn bare_config_composes_selectively() {
        let out = Scenario::new(
            ScenarioConfig::bare(3, SimTime::from_secs(3600), 8)
                .with_gaming(GamingConfig::default()),
        )
        .run();
        assert_eq!(out.trace.components(), vec!["gaming".to_owned()]);
        assert_eq!(out.arrivals, 0);
        assert!(out.gaming_admitted > 0);
        assert!(out.schedule.completions.is_empty());
    }

    #[test]
    fn network_attached_run_is_deterministic_and_carries_flows() {
        let config = || small_config().with_network(NetworkConfig::default());
        let a = Scenario::new(config()).run();
        let b = Scenario::new(config()).run();
        assert_eq!(a.trace.to_json_string(), b.trace.to_json_string());
        assert!(a.net_flows_started > 0, "no flows reached the fabric");
        assert!(a.net_flows_delivered > 0);
        assert!(a.net_flows_delivered <= a.net_flows_started);
        assert!(a.invoked > 0, "invocations must still arrive through the fabric");
        assert!(a.trace.components().iter().any(|c| c == "net"));
        assert_eq!(a.trace.count("net", "flow_start") as u64, a.net_flows_started);
    }

    #[test]
    fn every_tenant_ships_bytes_on_the_shared_fabric() {
        let out = Scenario::new(
            small_config()
                .with_bigdata(BigdataConfig { jobs: 2, ..BigdataConfig::default() })
                .with_graph(GraphConfig {
                    queries: 2,
                    vertices: 300,
                    edges: 1_200,
                    ..GraphConfig::default()
                })
                .with_gaming(GamingConfig::default())
                .with_resilience(ResilienceConfig::all_on())
                .with_network(NetworkConfig::default()),
        )
        .run();
        // FaaS payloads, bigdata phases, and gaming syncs all became flows…
        assert!(out.invoked > 0);
        assert!(out.bigdata_jobs > 0, "bigdata jobs must finish over the fabric");
        assert!(out.trace.count("gaming", "sync_done") > 0);
        // …and the fabric accounted for all of them.
        assert!(out.net_flows_delivered > 100);
    }

    #[test]
    fn partition_faults_cut_fabric_links_when_network_attached() {
        let out = Scenario::new(
            small_config()
                .with_failures(FailureConfig {
                    mtbf_secs: 900.0,
                    fault_mix: FaultMix {
                        crash: 0.0,
                        partition: 1.0,
                        ..FaultMix::crash_only()
                    },
                    ..FailureConfig::default()
                })
                .with_network(NetworkConfig::default()),
        )
        .run();
        assert!(out.trace.count("net", "link_cut") > 0, "no partitions struck the fabric");
        assert!(out.trace.count("net", "link_restored") > 0, "cuts were never repaired");
        // Partitions no longer open FaaS service windows.
        assert_eq!(out.trace.count("faas", "fault"), 0);
    }

    #[test]
    fn scripted_schedule_replays_exactly_and_deterministically() {
        let fault = |machine: usize, fail: u64, repair: u64, kind: FaultKind| Fault {
            outage: Outage {
                machine,
                fail_at: SimTime::from_secs(fail),
                repair_at: SimTime::from_secs(repair),
            },
            kind,
        };
        let schedule = vec![
            fault(3, 600, 1200, FaultKind::Crash),
            fault(7, 1800, 1860, FaultKind::Slowdown { factor: 4.0 }),
            fault(1, 2400, 2460, FaultKind::Crash),
        ];
        let mk = || {
            Scenario::new(
                small_config().with_failures(FailureConfig::scripted(schedule.clone())),
            )
            .run()
        };
        let out = mk();
        // Exactly the scripted faults strike — no stochastic extras.
        assert_eq!(out.outages_generated, 3);
        assert_eq!(out.outages_delivered, 3);
        let outages = out.trace.select("failure", "outage");
        assert_eq!(outages.len(), 3);
        let strike_secs: Vec<f64> = outages.iter().map(|e| e.at.as_secs_f64()).collect();
        assert_eq!(strike_secs, vec![600.0, 1800.0, 2400.0]);
        assert_eq!(out.trace.count("rms", "machine_fail"), 2, "crashes only");
        // Scripted runs replay byte-identically.
        assert_eq!(out.trace.to_json_string(), mk().trace.to_json_string());
    }

    #[test]
    fn scripted_partition_strands_flows_which_abort_on_timeout() {
        // A partition window over the whole bigdata transfer phase, with a
        // short flow timeout: stranded flows must abort (and the barrier
        // retries keep the run live until the cut heals).
        let schedule: Vec<Fault> = (0u32..8)
            .map(|m| Fault {
                outage: Outage {
                    machine: m as usize,
                    fail_at: SimTime::from_secs(5),
                    repair_at: SimTime::from_secs(3000),
                },
                kind: FaultKind::Partition,
            })
            .collect();
        let cfg = ScenarioConfig::bare(11, SimTime::from_secs(4 * 3600), 16)
            .with_bigdata(BigdataConfig::default())
            .with_failures(FailureConfig::scripted(schedule))
            .with_network(NetworkConfig {
                flow_timeout: Some(SimDuration::from_secs(30)),
                ..NetworkConfig::default()
            });
        let out = Scenario::new(cfg).run();
        assert!(out.trace.count("net", "link_cut") > 0, "partitions must cut links");
        assert!(out.net_flows_aborted > 0, "stranded flows must abort");
        assert_eq!(
            out.trace.count("net", "flow_aborted") as u64,
            out.net_flows_aborted
        );
        // Every abort is also visible to the flow-accounting identity:
        // started = delivered + aborted + still-in-flight-at-horizon.
        assert!(out.net_flows_delivered + out.net_flows_aborted <= out.net_flows_started);
    }

    #[test]
    fn starved_fabric_runs_to_the_horizon() {
        // At these bandwidths, once enough flows share a link, a predicted
        // completion lies past `SimDuration::MAX`. It saturates there instead
        // of wrapping to the current instant, where it would re-fire forever.
        for node_bandwidth_mbs in [1e-9, 1e-300] {
            let config = ScenarioConfig { horizon: SimTime::from_secs(1800), ..small_config() }
                .with_network(NetworkConfig { node_bandwidth_mbs, ..NetworkConfig::default() });
            let out = Scenario::new(config).run();
            assert!(out.net_flows_started > 0, "no flow reached the fabric");
            // Only flows that never leave their node finish.
            assert!(out.net_flows_delivered < out.net_flows_started);
        }
    }

    #[test]
    fn validate_returns_structured_warnings() {
        // A clean default config warns about nothing.
        assert_eq!(ScenarioConfig::default().validate().unwrap(), Vec::new());

        // Partition weight without a network model.
        let cfg = ScenarioConfig::default().with_failures(FailureConfig {
            fault_mix: FaultMix { crash: 0.5, partition: 0.5, ..FaultMix::crash_only() },
            ..FailureConfig::default()
        });
        let warnings = cfg.validate().unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].field, "failure.fault_mix.partition");

        // A scripted schedule with partitions but no network.
        let scripted = ScenarioConfig::default().with_failures(FailureConfig::scripted(vec![
            Fault {
                outage: Outage {
                    machine: 0,
                    fail_at: SimTime::from_secs(1),
                    repair_at: SimTime::from_secs(2),
                },
                kind: FaultKind::Partition,
            },
        ]));
        let warnings = scripted.validate().unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].field, "failure.schedule");

        // Partitions plus a network, but flow aborts disabled: stranded
        // flows would stall silently — exactly the chaos-campaign seeded
        // violation, so the config warns about it.
        let stranded = scripted.with_network(NetworkConfig {
            flow_timeout: None,
            ..NetworkConfig::default()
        });
        let warnings = stranded.validate().unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].field, "network.flow_timeout");
    }

    #[test]
    fn checkpoint_restores_ride_the_fabric_under_restart_resilience() {
        let out = Scenario::new(
            small_config()
                .with_failures(FailureConfig {
                    mtbf_secs: 900.0,
                    ..FailureConfig::default()
                })
                .with_resilience(ResilienceConfig::all_on())
                .with_network(NetworkConfig::default()),
        )
        .run();
        let xfers = out.trace.count("rms", "checkpoint_xfer_start");
        assert!(xfers > 0, "no checkpoint traffic despite restarts and failures");
        // The fixed-backoff requeue path is fully replaced by flows.
        assert_eq!(out.trace.count("rms", "requeue_scheduled"), 0);
        assert!(out.schedule.failure_requeues > 0);
    }

    #[test]
    fn invalid_configs_are_rejected_at_build_time() {
        let invalid: Vec<(&str, ScenarioConfig)> = vec![
            ("machines", ScenarioConfig { machines: 0, ..ScenarioConfig::default() }),
            (
                "faas.arrival_rate",
                ScenarioConfig::default()
                    .with_faas(FaasConfig { arrival_rate: f64::NAN, ..FaasConfig::default() }),
            ),
            (
                "faas.arrival_rate",
                ScenarioConfig::default()
                    .with_faas(FaasConfig { arrival_rate: -1.0, ..FaasConfig::default() }),
            ),
            (
                "failure.mtbf_secs",
                ScenarioConfig::default().with_failures(FailureConfig {
                    mtbf_secs: f64::INFINITY,
                    ..FailureConfig::default()
                }),
            ),
            (
                "failure.failure_domain",
                ScenarioConfig::default().with_failures(FailureConfig {
                    failure_domain: 0,
                    ..FailureConfig::default()
                }),
            ),
            (
                "batch.policy_interval",
                ScenarioConfig::default().with_batch(BatchConfig {
                    policy_interval: SimDuration::ZERO,
                    ..BatchConfig::default()
                }),
            ),
            // The default replication of 3 on a two-machine fleet.
            (
                "bigdata.replication",
                ScenarioConfig { machines: 2, ..ScenarioConfig::default() }
                    .with_bigdata(BigdataConfig::default()),
            ),
            (
                "gaming.zone_capacity",
                ScenarioConfig::default()
                    .with_gaming(GamingConfig { zone_capacity: 0, ..GamingConfig::default() }),
            ),
            (
                "network.nodes_per_rack",
                ScenarioConfig::default().with_network(NetworkConfig {
                    nodes_per_rack: 0,
                    ..NetworkConfig::default()
                }),
            ),
            (
                "network.node_bandwidth_mbs",
                ScenarioConfig::default().with_network(NetworkConfig {
                    node_bandwidth_mbs: -1.0,
                    ..NetworkConfig::default()
                }),
            ),
            (
                "network.rack_bandwidth_mbs",
                ScenarioConfig::default().with_network(NetworkConfig {
                    rack_bandwidth_mbs: f64::NAN,
                    ..NetworkConfig::default()
                }),
            ),
            // Finite in MiB/s, but infinite once scaled to bytes/s.
            (
                "network",
                ScenarioConfig::default().with_network(NetworkConfig {
                    node_bandwidth_mbs: 1e303,
                    ..NetworkConfig::default()
                }),
            ),
            (
                "network",
                ScenarioConfig::default().with_network(NetworkConfig {
                    rack_bandwidth_mbs: 1e303,
                    ..NetworkConfig::default()
                }),
            ),
        ];
        for (field, cfg) in invalid {
            match Scenario::try_new(cfg) {
                Err(McsError::InvalidConfig { field: f, .. }) => {
                    assert_eq!(f, field, "wrong field reported");
                }
                Err(other) => panic!("expected InvalidConfig for {field}, got {other:?}"),
                Ok(_) => panic!("expected InvalidConfig for {field}, got Ok"),
            }
        }
        assert!(ScenarioConfig::default().validate().is_ok());
        // One replica per machine is the most a fleet can hold.
        let replicas_fill_the_fleet = ScenarioConfig { machines: 3, ..ScenarioConfig::default() }
            .with_bigdata(BigdataConfig::default());
        assert!(replicas_fill_the_fleet.validate().is_ok());
    }
}
