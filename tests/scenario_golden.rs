//! Golden regression gate for the composed scenario.
//!
//! The `ScenarioConfig` redesign (nested per-subsystem sub-configs) promised
//! that the *default* configuration keeps producing byte-identical traces.
//! This test pins the default-config trace JSON to a digest captured before
//! the redesign; any drift in actor registration order, RNG stream labels,
//! or zero-time scheduling shows up here as a digest mismatch.
//!
//! The networked digests pin the rest of the wiring: every tenant on the
//! fabric, the crash fan-out, the fabric and FaaS fault windows (with and
//! without a window-length override), and every arm of the flow-completion
//! router, delivered and aborted.

use mcs::core::scenario::{BigdataConfig, DagConfig, GamingConfig, GraphConfig};
use mcs::prelude::*;
use std::hash::Hasher;

/// FNV-1a over the rendered trace JSON via simcore's deterministic hasher.
fn trace_digest(trace: &TraceBus) -> u64 {
    let json = trace.to_json_string();
    let mut h = mcs_simcore::intern::FastHasher::default();
    h.write(json.as_bytes());
    h.finish()
}

/// Digest of `Scenario::new(ScenarioConfig::default()).run().trace`, captured
/// on the flat-config implementation immediately before the nested redesign.
const GOLDEN_DEFAULT_TRACE_DIGEST: u64 = 1913211282799844796;

#[test]
fn default_config_trace_matches_pre_redesign_golden() {
    let out = Scenario::new(ScenarioConfig::default()).run();
    let digest = trace_digest(&out.trace);
    assert_eq!(
        digest, GOLDEN_DEFAULT_TRACE_DIGEST,
        "default-config trace drifted from the pre-redesign golden digest"
    );
}

/// Every tenant on one fleet under a mixed fault schedule, with restart and
/// shedding on; no network attached.
fn every_tenant() -> ScenarioConfig {
    ScenarioConfig::bare(5, SimTime::from_secs(2 * 3600), 16)
        .with_batch(BatchConfig { jobs: 20, ..BatchConfig::default() })
        .with_faas(FaasConfig { arrival_rate: 0.4, ..FaasConfig::default() })
        .with_failures(FailureConfig {
            mtbf_secs: 1200.0,
            fault_mix: FaultMix {
                crash: 0.4,
                slowdown: 0.2,
                gray: 0.2,
                partition: 0.2,
                ..FaultMix::crash_only()
            },
            ..FailureConfig::default()
        })
        .with_bigdata(BigdataConfig {
            jobs: 3,
            // Blind placement reads remote blocks, so map input rides the fabric.
            map: MapPhaseConfig { locality_aware: false, ..MapPhaseConfig::default() },
            ..BigdataConfig::default()
        })
        .with_graph(GraphConfig {
            queries: 2,
            vertices: 300,
            edges: 1_200,
            ..GraphConfig::default()
        })
        .with_gaming(GamingConfig::default())
        .with_dag(DagConfig { jobs: 4, ..DagConfig::default() })
        .with_resilience(ResilienceConfig::all_on())
}

/// [`every_tenant`] on the shared fabric, with a short flow timeout so cut
/// endpoints strand flows into aborts.
fn every_tenant_networked(service_fault_secs: Option<f64>) -> ScenarioConfig {
    let mut config = every_tenant().with_network(NetworkConfig {
        flow_timeout: Some(SimDuration::from_secs(20)),
        ..NetworkConfig::default()
    });
    if let Some(failure) = config.failure.as_mut() {
        failure.service_fault_secs = service_fault_secs;
    }
    config
}

/// Digests of the three wiring configurations above, captured before
/// `Scenario::run` was rewritten around shared send, transfer and
/// fault-window helpers. Bigdata re-replication (which these runs exercise)
/// visits blocks in id order; before that fix these traces differed from
/// one process to the next.
const GOLDEN_NETWORKED_TRACE_DIGEST: u64 = 11790394884754174822;
const GOLDEN_NETWORKED_WINDOWED_TRACE_DIGEST: u64 = 16633602373388490349;
const GOLDEN_UNNETWORKED_FAULT_MIX_TRACE_DIGEST: u64 = 706050657203483462;

/// Every flow owner a scenario tenant can put on the fabric.
const TENANT_OWNERS: [&str; 7] =
    ["faas", "faas-resp", "rms", "bd-map", "bd-shuffle", "game", "dag"];

/// Asserts that every tenant's flows were delivered and that some flow was
/// aborted, so both router arms of every owner are exercised by the digest.
fn assert_router_coverage(trace: &TraceBus) {
    let owners = |event: &str| -> Vec<String> {
        trace
            .select("net", event)
            .iter()
            .filter_map(|e| match e.payload.get("owner") {
                Some(Json::Str(owner)) => Some(owner.clone()),
                _ => None,
            })
            .collect()
    };
    let delivered = owners("flow_end");
    for owner in TENANT_OWNERS {
        assert!(delivered.iter().any(|o| o == owner), "no delivered {owner} flow");
    }
    assert!(!owners("flow_aborted").is_empty(), "no flow aborted");
}

#[test]
fn every_tenant_networked_trace_matches_golden() {
    let out = Scenario::new(every_tenant_networked(None)).run();
    assert_router_coverage(&out.trace);
    assert!(out.trace.count("net", "link_cut") > 0, "no partition cut the fabric");
    assert!(out.trace.count("net", "link_degraded") > 0, "no gray fault degraded the fabric");
    assert!(out.trace.count("faas", "fault") > 0, "no slowdown window struck FaaS");
    assert_eq!(trace_digest(&out.trace), GOLDEN_NETWORKED_TRACE_DIGEST);
}

#[test]
fn every_tenant_networked_with_fault_window_override_matches_golden() {
    let out = Scenario::new(every_tenant_networked(Some(45.0))).run();
    assert_router_coverage(&out.trace);
    assert!(out.trace.count("net", "link_cut") > 0, "no partition cut the fabric");
    assert!(out.trace.count("faas", "fault") > 0, "no slowdown window struck FaaS");
    assert_eq!(trace_digest(&out.trace), GOLDEN_NETWORKED_WINDOWED_TRACE_DIGEST);
}

#[test]
fn every_tenant_without_network_falls_back_to_faas_windows_and_matches_golden() {
    let out = Scenario::new(every_tenant()).run();
    assert!(out.trace.count("faas", "fault") > 0, "no service fault window struck FaaS");
    assert!(out.trace.count("rms", "machine_fail") > 0, "no crash struck the fleet");
    assert_eq!(trace_digest(&out.trace), GOLDEN_UNNETWORKED_FAULT_MIX_TRACE_DIGEST);
}
