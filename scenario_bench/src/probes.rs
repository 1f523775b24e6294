//! Per-layer probes of the traced run.
//!
//! Each probe replays part of a finished run through one layer's public
//! functions, so that layer's cost can be timed on its own:
//!
//! - [`rerecord`]: the captured record stream into a fresh `TraceBus`
//!   (the trace layer's record path);
//! - [`NetInputs::replay`]: the run's `net/flow_start` stream into a
//!   standalone `Simulation` + `NetActor` (the network layer);
//! - [`SolverOps::replay`]: each reallocation's active flow set through
//!   `max_min_rates` (the allocator inside the network layer);
//! - [`engine_floor`]: a no-op actor for the run's event count (the engine);
//! - [`dag_lookahead`]: the portfolio's lookaheads (the DAG layer).

use mcs::core::scenario::ScenarioConfig;
use mcs::dag::{generate, lookahead_makespan, DagClusterSpec, DagJob, DagPortfolio, DagShape};
use mcs::net::{
    max_min_rates, FlowOwner, FlowTag, LinkId, NetActor, NetMsg, NetTopology, TransferReq,
};
use mcs::simcore::codec::{Json, JsonKey};
use mcs::simcore::engine::{Actor, ActorId, Context, MessageEnvelope, Simulation};
use mcs::simcore::rng::RngStream;
use mcs::simcore::time::{SimDuration, SimTime};
use mcs::simcore::trace::{Field, TraceBus, TraceEvent};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Records converted per timed batch by [`rerecord`].
const RERECORD_BATCH: usize = 4096;

/// Re-records every retained event of `captured` into `fresh` through the
/// lazy field path the program's emitters use. Payloads are converted to
/// field slices in batches outside the timed region; returns the seconds
/// spent inside `record_fields_interned`.
///
/// # Errors
/// Fails when a payload cannot be expressed as scalar fields, which would
/// make the replay unfaithful.
pub fn rerecord(captured: &TraceBus, fresh: &mut TraceBus) -> Result<f64, String> {
    let remap: Vec<_> = captured
        .interner()
        .names()
        .map(|name| fresh.intern(name))
        .collect();
    let mut fields: Vec<(&'static str, Field<'_>)> = Vec::new();
    let mut heads = Vec::with_capacity(RERECORD_BATCH);
    let mut secs = 0.0;
    for batch in captured.events().chunks(RERECORD_BATCH) {
        fields.clear();
        heads.clear();
        for e in batch {
            let Json::Obj(entries) = &e.payload else {
                return Err("trace payload is not an object".into());
            };
            for (key, value) in entries {
                let JsonKey::Borrowed(key) = key else {
                    return Err(format!("payload key {key} is not static"));
                };
                let field = match value {
                    Json::Float(x) => Field::F64(*x),
                    Json::UInt(x) => Field::U64(*x),
                    Json::Int(x) => Field::I64(*x),
                    Json::Bool(x) => Field::Bool(*x),
                    Json::Str(s) => Field::Str(s),
                    _ => return Err(format!("payload field {key} is not a scalar")),
                };
                fields.push((*key, field));
            }
            heads.push((
                e.at,
                remap[e.component.index()],
                remap[e.event.index()],
                fields.len(),
            ));
        }
        let t = Instant::now();
        let mut from = 0;
        for &(at, component, event, to) in &heads {
            fresh.record_fields_interned(at, component, event, &fields[from..to]);
            from = to;
        }
        secs += t.elapsed().as_secs_f64();
    }
    Ok(secs)
}

const OWNERS: [FlowOwner; 8] = [
    FlowOwner::Faas,
    FlowOwner::FaasResp,
    FlowOwner::Rms,
    FlowOwner::BdMap,
    FlowOwner::BdShuffle,
    FlowOwner::Game,
    FlowOwner::Dag,
    FlowOwner::Test,
];

fn owner(e: &TraceEvent) -> Result<FlowOwner, String> {
    let name = e.field_str("owner").ok_or("net record without owner")?;
    OWNERS
        .into_iter()
        .find(|o| o.name() == name)
        .ok_or_else(|| format!("unknown flow owner {name}"))
}

fn uint(e: &TraceEvent, key: &str) -> Result<u64, String> {
    e.payload
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("net record without {key}"))
}

/// A finished (or aborted) flow: when, whose, where, and how long it took.
/// Ordered so two lists compare independently of same-instant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FlowEnd {
    at_ns: u64,
    owner: &'static str,
    id: u64,
    src: u32,
    dst: u32,
    secs_bits: u64,
    aborted: bool,
}

/// The fabric built exactly as the scenario builds it from its config.
fn topology(cfg: &ScenarioConfig) -> Option<NetTopology> {
    let net = cfg.network.as_ref()?;
    Some(NetTopology::new(
        cfg.machines as u32,
        net.nodes_per_rack as u32,
        net.node_bandwidth_mbs * MIB,
        net.rack_bandwidth_mbs * MIB,
        net.same_rack_latency,
        net.cross_rack_latency,
    ))
}

/// What the network replay needs from a retained run trace.
pub struct NetInputs {
    starts: Vec<(SimTime, TransferReq)>,
    ends: Vec<FlowEnd>,
}

/// The outcome of replaying a run's flows through a standalone `NetActor`.
pub struct NetReplay {
    /// Seconds inside `Simulation::run`.
    pub secs: f64,
    /// Events the `NetActor` handled (the feeder's own events excluded).
    pub net_events: u64,
    /// Flow ends (`flow_end` and `flow_aborted`, by time and `secs`) found
    /// in only one of the run and the replay; 0 for a faithful replay.
    pub mismatched: usize,
    /// Flow ends the run recorded.
    pub compared: usize,
}

/// The replay's message type: the network's messages plus the feeder tick.
enum ReplayMsg {
    Net(NetMsg),
    Feed,
}

impl MessageEnvelope<NetMsg> for ReplayMsg {
    fn wrap(inner: NetMsg) -> Self {
        ReplayMsg::Net(inner)
    }
    fn unwrap(self) -> Option<NetMsg> {
        match self {
            ReplayMsg::Net(msg) => Some(msg),
            ReplayMsg::Feed => None,
        }
    }
}

/// Sends each recorded transfer to the network at its recorded instant.
/// Transfers are sent when due, as the tenants send them, so same-instant
/// ordering against the network's own events matches the run.
struct Feeder<'s> {
    starts: &'s [(SimTime, TransferReq)],
    next: usize,
    net: ActorId,
    ticks: u64,
}

impl Actor<ReplayMsg> for Feeder<'_> {
    fn handle(&mut self, ctx: &mut Context<'_, ReplayMsg>, _msg: ReplayMsg) {
        self.ticks += 1;
        let now = ctx.now();
        while let Some(&(at, req)) = self.starts.get(self.next) {
            if at != now {
                ctx.send_at(ctx.self_id(), at, ReplayMsg::Feed);
                break;
            }
            ctx.send(
                self.net,
                SimDuration::ZERO,
                ReplayMsg::Net(NetMsg::Transfer(req)),
            );
            self.next += 1;
        }
    }
}

impl NetInputs {
    /// Collects the flow starts and ends of a full-retention trace.
    ///
    /// # Errors
    /// Fails on a `net` record missing a field the replay needs.
    pub fn capture(trace: &TraceBus) -> Result<NetInputs, String> {
        let mut starts = Vec::new();
        for e in trace.select("net", "flow_start") {
            let tag = FlowTag {
                owner: owner(e)?,
                id: uint(e, "id")?,
            };
            let req = TransferReq {
                src: uint(e, "src")? as u32,
                dst: uint(e, "dst")? as u32,
                bytes: uint(e, "bytes")?,
                tag,
            };
            starts.push((e.at, req));
        }
        let mut ends = Vec::new();
        for (event, aborted) in [("flow_end", false), ("flow_aborted", true)] {
            for e in trace.select("net", event) {
                ends.push(FlowEnd {
                    at_ns: e.at.as_nanos(),
                    owner: owner(e)?.name(),
                    id: uint(e, "id")?,
                    src: uint(e, "src")? as u32,
                    dst: uint(e, "dst")? as u32,
                    secs_bits: e
                        .field_f64("secs")
                        .ok_or("flow end without secs")?
                        .to_bits(),
                    aborted,
                });
            }
        }
        ends.sort_unstable();
        Ok(NetInputs { starts, ends })
    }

    /// Flows the run started.
    pub fn flows(&self) -> usize {
        self.starts.len()
    }

    /// Replays the captured transfers into a `NetActor` built over
    /// `NetTopology::new` with the config's fields and flow timeout, with a
    /// trace bus of the workload's sink kind, and compares every flow end.
    pub fn replay(&self, cfg: &ScenarioConfig, bus: TraceBus) -> NetReplay {
        let (Some(topo), Some(net)) = (topology(cfg), cfg.network.as_ref()) else {
            return NetReplay {
                secs: 0.0,
                net_events: 0,
                mismatched: self.ends.len(),
                compared: self.ends.len(),
            };
        };
        // Completions reach the hook at drain time + latency; run past the
        // horizon so flows drained just before it are delivered too, and
        // keep only ends the run itself could have recorded.
        let horizon = cfg.horizon;
        let done: RefCell<Vec<(SimTime, FlowEnd)>> =
            RefCell::new(Vec::with_capacity(self.ends.len()));
        let mut actor: NetActor<'_, ReplayMsg> = NetActor::new(topo.clone())
            .with_flow_timeout(net.flow_timeout)
            .with_completion(|ctx, d| {
                done.borrow_mut().push((
                    ctx.now(),
                    FlowEnd {
                        at_ns: 0,
                        owner: d.tag.owner.name(),
                        id: d.tag.id,
                        src: d.src,
                        dst: d.dst,
                        secs_bits: d.secs.to_bits(),
                        aborted: d.aborted,
                    },
                ));
            });
        let mut feeder = Feeder {
            starts: &self.starts,
            next: 0,
            net: ActorId::from_index(1),
            ticks: 0,
        };
        let mut sim: Simulation<'_, ReplayMsg> = Simulation::new(cfg.seed);
        sim.set_trace(bus);
        sim.set_horizon(horizon + SimDuration::from_secs(1));
        sim.add_actor(&mut feeder);
        sim.add_actor(&mut actor);
        if let Some(&(first, _)) = self.starts.first() {
            sim.schedule(first, ActorId::from_index(0), ReplayMsg::Feed);
        }
        let t = Instant::now();
        sim.run();
        let secs = t.elapsed().as_secs_f64();
        let handled = sim.events_handled();
        drop(sim);
        drop(actor);
        let net_events = handled - feeder.ticks;
        let mut replayed: Vec<FlowEnd> = done
            .into_inner()
            .into_iter()
            .map(|(now, mut end)| {
                let latency = if end.aborted {
                    0
                } else {
                    topo.latency(end.src, end.dst).as_nanos()
                };
                end.at_ns = now.as_nanos() - latency;
                end
            })
            .filter(|end| end.at_ns <= horizon.as_nanos())
            .collect();
        replayed.sort_unstable();
        NetReplay {
            secs,
            net_events,
            mismatched: unmatched(&self.ends, &replayed),
            compared: self.ends.len(),
        }
    }
}

/// Items of two sorted lists that have no equal partner in the other.
fn unmatched(a: &[FlowEnd], b: &[FlowEnd]) -> usize {
    let (mut i, mut j, mut lone) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
            std::cmp::Ordering::Less => (i, lone) = (i + 1, lone + 1),
            std::cmp::Ordering::Greater => (j, lone) = (j + 1, lone + 1),
        }
    }
    lone + (a.len() - i) + (b.len() - j)
}

/// One step of the reallocation replay.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A flow joins the active set (index into the path table).
    Add(u32),
    /// The flow at this position of the active set leaves it.
    Remove(u32),
    /// One reallocation over the current active set.
    Solve,
}

/// Every reallocation of a run, rebuilt from the trace's record order.
///
/// The `NetActor` reallocates once per settle: after a flow starts (with
/// any flows that drained at that instant removed) and after a completion
/// event (with every drained flow removed). In record order that is a
/// `flow_start` followed by the flow ends of the same instant, or a run of
/// same-instant flow ends. Flows with an empty path (node-local) never
/// reach the allocator.
pub struct SolverOps {
    topo: NetTopology,
    paths: Vec<Vec<LinkId>>,
    ops: Vec<Op>,
    /// Reallocations (calls to `max_min_rates`).
    pub calls: u64,
    /// Mean active flows per reallocation.
    pub flows_mean: f64,
    /// Most active flows in one reallocation.
    pub flows_max: u64,
}

impl SolverOps {
    /// Rebuilds the reallocation sequence of a full-retention trace.
    ///
    /// # Errors
    /// Fails on a malformed `net` record or a flow end with no live start.
    pub fn capture(cfg: &ScenarioConfig, trace: &TraceBus) -> Result<Option<SolverOps>, String> {
        let Some(topo) = topology(cfg) else {
            return Ok(None);
        };
        let nodes = topo.nodes() as usize;
        let mut path_of: Vec<Option<u32>> = vec![None; nodes * nodes];
        let mut paths: Vec<Vec<LinkId>> = Vec::new();
        let sym = |name: &str| trace.interner().lookup(name);
        let (net, start, end, aborted) = (
            sym("net"),
            sym("flow_start"),
            sym("flow_end"),
            sym("flow_aborted"),
        );
        // Active flows as (owner, id, src, dst), in the actor's own order.
        let mut active: Vec<(&str, u64, u64, u64)> = Vec::new();
        // Node-local flows: started, never allocated, ended at once.
        let mut local: Vec<(&str, u64, u64, u64)> = Vec::new();
        let mut ops = Vec::new();
        let (mut calls, mut flow_sum, mut flows_max) = (0u64, 0u64, 0u64);
        // The instant of the settle still being accumulated, if any.
        let mut open: Option<SimTime> = None;
        let mut solve = |ops: &mut Vec<Op>, active_len: usize| {
            if active_len > 0 {
                ops.push(Op::Solve);
                calls += 1;
                flow_sum += active_len as u64;
                flows_max = flows_max.max(active_len as u64);
            }
        };
        for e in trace.events() {
            if Some(e.component) != net {
                continue;
            }
            let is_start = Some(e.event) == start;
            if !is_start && Some(e.event) != end && Some(e.event) != aborted {
                continue;
            }
            let key = (
                e.field_str("owner").ok_or("net record without owner")?,
                uint(e, "id")?,
                uint(e, "src")?,
                uint(e, "dst")?,
            );
            if is_start || open != Some(e.at) {
                if open.is_some() {
                    solve(&mut ops, active.len());
                }
                open = Some(e.at);
            }
            if is_start {
                let (src, dst) = (key.2 as usize, key.3 as usize);
                let slot = src * nodes + dst;
                let path = match path_of.get(slot).copied().flatten() {
                    Some(p) => p,
                    None => {
                        paths.push(topo.path(src as u32, dst as u32));
                        let p = (paths.len() - 1) as u32;
                        *path_of
                            .get_mut(slot)
                            .ok_or("flow endpoint outside the fabric")? = Some(p);
                        p
                    }
                };
                if paths[path as usize].is_empty() {
                    local.push(key);
                } else {
                    ops.push(Op::Add(path));
                    active.push(key);
                }
            } else if let Some(pos) = active.iter().position(|k| *k == key) {
                active.remove(pos);
                ops.push(Op::Remove(pos as u32));
            } else if let Some(pos) = local.iter().position(|k| *k == key) {
                local.swap_remove(pos);
            } else {
                return Err(format!("flow end without a live start: {key:?}"));
            }
        }
        if open.is_some() {
            solve(&mut ops, active.len());
        }
        let flows_mean = if calls == 0 {
            0.0
        } else {
            flow_sum as f64 / calls as f64
        };
        Ok(Some(SolverOps {
            topo,
            paths,
            ops,
            calls,
            flows_mean,
            flows_max,
        }))
    }

    /// Replays the reallocations as `NetActor::reallocate` performs them:
    /// effective capacities, a clone of every active path, `max_min_rates`.
    /// Returns the seconds taken.
    pub fn replay(&self) -> f64 {
        let mut active: Vec<u32> = Vec::new();
        let t = Instant::now();
        for op in &self.ops {
            match *op {
                Op::Add(p) => active.push(p),
                Op::Remove(pos) => {
                    active.remove(pos as usize);
                }
                Op::Solve => {
                    let caps = self.topo.effective_capacities();
                    let paths: Vec<Vec<LinkId>> = active
                        .iter()
                        .map(|&p| self.paths[p as usize].clone())
                        .collect();
                    black_box(max_min_rates(&paths, &caps));
                }
            }
        }
        t.elapsed().as_secs_f64()
    }
}

/// An actor that reschedules itself until `left` events were handled: the
/// cheapest dispatch loop the engine can run.
struct Ticker {
    left: u64,
}

impl Actor<()> for Ticker {
    fn handle(&mut self, ctx: &mut Context<'_, ()>, _msg: ()) {
        self.left -= 1;
        if self.left > 0 {
            ctx.send_self(SimDuration::from_nanos(1), ());
        }
    }
}

/// Seconds a standalone `Simulation::run` takes to dispatch `events` no-op
/// events.
pub fn engine_floor(seed: u64, events: u64) -> f64 {
    if events == 0 {
        return 0.0;
    }
    let mut sim: Simulation<'_, ()> = Simulation::new(seed);
    let id = sim.add_actor(Ticker { left: events });
    sim.schedule(SimTime::ZERO, id, ());
    let t = Instant::now();
    let handled = sim.run();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        handled, events,
        "the floor actor handles exactly the requested events"
    );
    secs
}

/// Seconds of `lookahead_makespan` for every `DagPortfolio::standard`
/// candidate on the first generated job of each class — the lookaheads the
/// portfolio pays in the run. `None` without a DAG tenant.
pub fn dag_lookahead(cfg: &ScenarioConfig) -> Option<f64> {
    let dag = cfg.dag.as_ref()?;
    let machines = cfg.machines as u32;
    let nodes_per_rack = cfg.network.as_ref().map_or_else(
        || machines.div_ceil(dag.locality_domains.max(1)).max(1),
        |net| net.nodes_per_rack as u32,
    );
    let shape = DagShape {
        width: dag.width,
        work: dag.task_work,
        cores: dag.task_cores,
        memory_gb: dag.task_memory_gb,
        edge_bytes: (dag.edge_mb * MIB) as u64,
    };
    // The same stream and draw order as the scenario's workflow generator.
    let mut rng = RngStream::new(cfg.seed, "dag");
    let firsts: Vec<DagJob> = (0..dag.jobs.min(dag.classes.len()))
        .map(|j| generate(dag.classes[j], &shape, &mut rng))
        .collect();
    let spec = DagClusterSpec {
        machines: machines.max(1),
        cores_per_machine: dag.cores_per_machine,
        memory_per_machine_gb: dag.memory_per_machine_gb,
    };
    let ref_bw = dag.reference_bandwidth_mbs * MIB;
    let portfolio = DagPortfolio::standard(nodes_per_rack);
    let t = Instant::now();
    for job in &firsts {
        for candidate in portfolio.candidates() {
            black_box(lookahead_makespan(job, &spec, ref_bw, candidate.as_ref()));
        }
    }
    Some(t.elapsed().as_secs_f64())
}
