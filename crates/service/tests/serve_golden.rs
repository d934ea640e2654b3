//! Byte-identity safety net for the serve loop.
//!
//! Every cell of a fixed matrix — six service configurations × four
//! fault plans × two trace seeds — is served and its full serialized
//! report hashed (FNV-1a over `serde_json::to_string(&report)`). The
//! traced arms additionally hash the event stream, the rendered
//! postmortem and the Prometheus exposition. The expected digests are
//! pinned below: any change to a serving decision, a tally, Q(t), a
//! breaker or brownout move, a causal span or a metric shows up here.
//!
//! The `events` rows pin the exact trace bytes, including the order of
//! events within a tick. That order follows recording order: a request's
//! events are written once, when it settles, each stamped with its own
//! tick; bulkhead occupancy at the end of every tick; and the rest of the
//! control plane after the run, derived from the report's logs, each
//! event at its own logged tick. Each
//! traced cell also pins `events-canonical`: the event stream with lanes
//! and sequence numbers dropped and each tick's events sorted by their
//! compact JSON. It holds every event's fields and tick but not the
//! within-tick order, so it stays fixed when only that order changes.
//!
//! When a change is *meant* to alter serving behaviour, the failure
//! message prints the complete new table to paste over `GOLDEN`.

use resilience_anticipate::AnticipationConfig;
use resilience_core::faults::{FaultConfig, FaultPlan};
use resilience_service::{
    ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, TraceSpec,
};
use resilience_telemetry::{render_postmortem, Telemetry};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn replicated(replicas: usize, classes: Vec<u32>) -> ServiceConfig {
    ServiceConfig {
        servers_per_family: 4,
        replication: Some(ReplicationConfig {
            replicas,
            diversity_classes: classes,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    }
}

/// The configuration arms, and whether each is also served traced.
fn configs() -> Vec<(&'static str, ServiceConfig, bool)> {
    let mut anticipation = AnticipationConfig::default();
    anticipation.switch.emergency_on = 0.40;
    vec![
        ("default", ServiceConfig::default(), false),
        (
            "degradation-off",
            ServiceConfig {
                degradation: false,
                ..ServiceConfig::default()
            },
            false,
        ),
        (
            "anticipation",
            ServiceConfig {
                anticipation: Some(anticipation),
                ..ServiceConfig::default()
            },
            true,
        ),
        ("replicas-1", replicated(1, Vec::new()), false),
        ("diverse-2", replicated(2, Vec::new()), true),
        ("homogeneous-2", replicated(2, vec![0]), false),
    ]
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    let parse = |spec: &str| FaultConfig::parse(spec).expect("canned plan parses").plan;
    vec![
        ("quiet", FaultPlan::none()),
        (
            "chaos",
            parse("seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05"),
        ),
        (
            "correlated",
            parse("seed=11,panic=0.05,gray=0.1,correlated=0.25"),
        ),
        ("gray-storm", parse("seed=23,gray=1.0")),
    ]
}

const TRACE_SEEDS: [u64; 2] = [42, 7];

/// A trace with a pronounced surge, so admission sheds, the brownout
/// dimmer moves and the anticipation loop leaves Normal.
fn trace(seed: u64) -> RequestTrace {
    RequestTrace::generate(&TraceSpec {
        base_rate: 1.5,
        surge_factor: 3.0,
        ..TraceSpec::new(300, seed)
    })
}

/// The merged trace with its within-tick order normalised: one
/// `tick compact-event-json` line per event, sorted by `(tick, json)`.
/// Lane and sequence numbers are dropped, so this pins *which* events
/// happen on each tick independently of the order they were recorded in.
fn canonical_events(tel: &Telemetry) -> String {
    let mut rows: Vec<(u64, String)> = tel
        .tracer
        .merged()
        .iter()
        .map(|e| {
            let json = serde_json::to_string(&e.event).expect("event serializes");
            (e.tick, json)
        })
        .collect();
    rows.sort();
    rows.iter()
        .map(|(tick, json)| format!("{tick} {json}\n"))
        .collect()
}

/// `(cell name, digest)` for every cell of the matrix, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in TRACE_SEEDS {
        let trace = trace(seed);
        for (config_name, config, traced) in configs() {
            let engine = ServiceEngine::new(config);
            for (plan_name, plan) in plans() {
                let cell = format!("{config_name}/{plan_name}/{seed}");
                let report = engine.serve(&trace, &plan);
                let json = serde_json::to_string(&report).expect("report serializes");
                out.push((format!("{cell}/report"), fnv1a(json.as_bytes())));
                if !traced {
                    continue;
                }
                let mut tel = Telemetry::new(1.0);
                let traced_report = engine.serve_traced(&trace, &plan, &mut tel);
                assert_eq!(report, traced_report, "{cell}: tracing steered the serve");
                let incidents = tel
                    .incidents
                    .finalize(&tel.causal, &traced_report.warning_scores);
                let postmortem = render_postmortem("serve", &incidents, &tel.causal);
                out.push((
                    format!("{cell}/events"),
                    fnv1a(tel.tracer.to_json().as_bytes()),
                ));
                out.push((
                    format!("{cell}/events-canonical"),
                    fnv1a(canonical_events(&tel).as_bytes()),
                ));
                out.push((format!("{cell}/postmortem"), fnv1a(postmortem.as_bytes())));
                out.push((
                    format!("{cell}/prometheus"),
                    fnv1a(tel.metrics.to_prometheus().as_bytes()),
                ));
            }
        }
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("default/quiet/42/report", 0xf75ac806ead5acdf),
    ("default/chaos/42/report", 0x24af3b3f74eb0c8d),
    ("default/correlated/42/report", 0x93bbccde4359c49d),
    ("default/gray-storm/42/report", 0x7e0f8b307a0815c1),
    ("degradation-off/quiet/42/report", 0x107e3bd87a4da863),
    ("degradation-off/chaos/42/report", 0x3e9d14b9c23d757f),
    ("degradation-off/correlated/42/report", 0x07c150cd6bd8f45e),
    ("degradation-off/gray-storm/42/report", 0xfb66675a0bde202f),
    ("anticipation/quiet/42/report", 0x4207ae1829e61e48),
    ("anticipation/quiet/42/events", 0x2859083aa4e7c6f9),
    ("anticipation/quiet/42/events-canonical", 0x6d4fa34fab379d08),
    ("anticipation/quiet/42/postmortem", 0xaa2e01323d6e0842),
    ("anticipation/quiet/42/prometheus", 0x2636058bbbf836cc),
    ("anticipation/chaos/42/report", 0x3ed7481933e5fc71),
    ("anticipation/chaos/42/events", 0x9470cfc8ac07e105),
    ("anticipation/chaos/42/events-canonical", 0xa025969b5bc7476b),
    ("anticipation/chaos/42/postmortem", 0xf11de7ff667b6f43),
    ("anticipation/chaos/42/prometheus", 0x2484c4a25d4fac07),
    ("anticipation/correlated/42/report", 0x0efeafb60c32e591),
    ("anticipation/correlated/42/events", 0x732ede4f8f7c72de),
    (
        "anticipation/correlated/42/events-canonical",
        0xc537ded06d3cb566,
    ),
    ("anticipation/correlated/42/postmortem", 0xcd490de591e5c436),
    ("anticipation/correlated/42/prometheus", 0xb3afa1ed4db300b0),
    ("anticipation/gray-storm/42/report", 0x8f6ea17966793dc8),
    ("anticipation/gray-storm/42/events", 0xcb59543492e64456),
    (
        "anticipation/gray-storm/42/events-canonical",
        0xb9592ee8295a17ca,
    ),
    ("anticipation/gray-storm/42/postmortem", 0x9150a1f0b7e315f0),
    ("anticipation/gray-storm/42/prometheus", 0x98251a6553607b52),
    ("replicas-1/quiet/42/report", 0x577cb9a55d31f685),
    ("replicas-1/chaos/42/report", 0x798a117c443420bc),
    ("replicas-1/correlated/42/report", 0x28bb2207e431f7fe),
    ("replicas-1/gray-storm/42/report", 0xcd87cb91c29db37e),
    ("diverse-2/quiet/42/report", 0x93c2f999de98d1e9),
    ("diverse-2/quiet/42/events", 0x3ed2e5a229613e48),
    ("diverse-2/quiet/42/events-canonical", 0x8bfce5b7a596cb97),
    ("diverse-2/quiet/42/postmortem", 0x5540dc3e6b8be1cf),
    ("diverse-2/quiet/42/prometheus", 0xd58fd3f603c09d65),
    ("diverse-2/chaos/42/report", 0x37f6828a00bfee54),
    ("diverse-2/chaos/42/events", 0xe5baa891da5d12ea),
    ("diverse-2/chaos/42/events-canonical", 0x34d01dacb7d0f206),
    ("diverse-2/chaos/42/postmortem", 0x3c9a79d3e11fa260),
    ("diverse-2/chaos/42/prometheus", 0xa5d89fa85b86aa19),
    ("diverse-2/correlated/42/report", 0x4a9554a5a17f955c),
    ("diverse-2/correlated/42/events", 0x62c7a14d398d8fd7),
    (
        "diverse-2/correlated/42/events-canonical",
        0xcd60a2ebd8810fd9,
    ),
    ("diverse-2/correlated/42/postmortem", 0xa6644e233a752145),
    ("diverse-2/correlated/42/prometheus", 0x0177b3cf2931308a),
    ("diverse-2/gray-storm/42/report", 0x84dadc4f91731af6),
    ("diverse-2/gray-storm/42/events", 0x65f482757fb1c372),
    (
        "diverse-2/gray-storm/42/events-canonical",
        0xd39c0363f605377f,
    ),
    ("diverse-2/gray-storm/42/postmortem", 0xb065a3e471fe5892),
    ("diverse-2/gray-storm/42/prometheus", 0x7519b739dbfaa72b),
    ("homogeneous-2/quiet/42/report", 0x93c2f999de98d1e9),
    ("homogeneous-2/chaos/42/report", 0x37f6828a00bfee54),
    ("homogeneous-2/correlated/42/report", 0xdaacae230c32431e),
    ("homogeneous-2/gray-storm/42/report", 0x84dadc4f91731af6),
    ("default/quiet/7/report", 0x13a4bffd4265bf6d),
    ("default/chaos/7/report", 0xcd06aeb01cab0417),
    ("default/correlated/7/report", 0xbb2c428b1104cc99),
    ("default/gray-storm/7/report", 0xdfb21db0f6ffc4af),
    ("degradation-off/quiet/7/report", 0xd49c5d772bfd8a13),
    ("degradation-off/chaos/7/report", 0x6331cef980ee2c23),
    ("degradation-off/correlated/7/report", 0x910bffca3bb9e0cd),
    ("degradation-off/gray-storm/7/report", 0xa640026b69932e9f),
    ("anticipation/quiet/7/report", 0xacc4fdad771534b2),
    ("anticipation/quiet/7/events", 0x909bef95dde6d47e),
    ("anticipation/quiet/7/events-canonical", 0x9f52ea9dde396c6d),
    ("anticipation/quiet/7/postmortem", 0xc3d6641c2a5b8047),
    ("anticipation/quiet/7/prometheus", 0x329bd8f1b9c39aad),
    ("anticipation/chaos/7/report", 0x03425f2e7aa4d83f),
    ("anticipation/chaos/7/events", 0x2c02a2f6966245ef),
    ("anticipation/chaos/7/events-canonical", 0x5bfbbc3cec284349),
    ("anticipation/chaos/7/postmortem", 0x054f5620b2f67aab),
    ("anticipation/chaos/7/prometheus", 0xfd31a9c6f60920b3),
    ("anticipation/correlated/7/report", 0xf3c9bd4b18e54ab6),
    ("anticipation/correlated/7/events", 0xffd7e6417b83c5f9),
    (
        "anticipation/correlated/7/events-canonical",
        0xc962bffbf89091f2,
    ),
    ("anticipation/correlated/7/postmortem", 0x07d6a145711401b2),
    ("anticipation/correlated/7/prometheus", 0x38f4a12b91d0797a),
    ("anticipation/gray-storm/7/report", 0x27bf85b6f77bafbb),
    ("anticipation/gray-storm/7/events", 0x8cab4459ccd59a68),
    (
        "anticipation/gray-storm/7/events-canonical",
        0x7ec325e604f41e2e,
    ),
    ("anticipation/gray-storm/7/postmortem", 0x15fed76e05dfa3f9),
    ("anticipation/gray-storm/7/prometheus", 0xaa47297ec7f3bafd),
    ("replicas-1/quiet/7/report", 0x14f10f243612f2cb),
    ("replicas-1/chaos/7/report", 0x1e0351d926e23db6),
    ("replicas-1/correlated/7/report", 0xf296624ac1f938b5),
    ("replicas-1/gray-storm/7/report", 0x564b3e57acee4806),
    ("diverse-2/quiet/7/report", 0x2d71d2360c45e2f3),
    ("diverse-2/quiet/7/events", 0xf5fda621a85ce3be),
    ("diverse-2/quiet/7/events-canonical", 0xd86ef3fbdc32a8da),
    ("diverse-2/quiet/7/postmortem", 0x2ca0da2ac0ffb678),
    ("diverse-2/quiet/7/prometheus", 0xbd1bf2cda17aeb94),
    ("diverse-2/chaos/7/report", 0x95b93f777ae7f088),
    ("diverse-2/chaos/7/events", 0xc1d3d2f0de673006),
    ("diverse-2/chaos/7/events-canonical", 0x25ebc87d58873f9f),
    ("diverse-2/chaos/7/postmortem", 0x51dfe538285e2ad0),
    ("diverse-2/chaos/7/prometheus", 0x8ac0f99c3ff8d616),
    ("diverse-2/correlated/7/report", 0x9fc3f7e22607d841),
    ("diverse-2/correlated/7/events", 0xec285ec875e53189),
    (
        "diverse-2/correlated/7/events-canonical",
        0xfb4caf9c563847b8,
    ),
    ("diverse-2/correlated/7/postmortem", 0xd6b14ef4bca4f26f),
    ("diverse-2/correlated/7/prometheus", 0x362357f042c9f4f3),
    ("diverse-2/gray-storm/7/report", 0x83e847c821a5428b),
    ("diverse-2/gray-storm/7/events", 0xf512b40c2b4a31d6),
    (
        "diverse-2/gray-storm/7/events-canonical",
        0x60dff08b433238d4,
    ),
    ("diverse-2/gray-storm/7/postmortem", 0xa11fc7d468f66c67),
    ("diverse-2/gray-storm/7/prometheus", 0x658039b6f8983cb7),
    ("homogeneous-2/quiet/7/report", 0x2d71d2360c45e2f3),
    ("homogeneous-2/chaos/7/report", 0x95b93f777ae7f088),
    ("homogeneous-2/correlated/7/report", 0x05b0556e3d9c2e22),
    ("homogeneous-2/gray-storm/7/report", 0x83e847c821a5428b),
];

#[test]
fn every_cell_matches_its_pinned_digest() {
    let actual = digests();
    let table: String = actual
        .iter()
        .map(|(cell, d)| format!("    (\"{cell}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(c, d)| (c.to_string(), d)).collect();
    assert!(
        actual == expected,
        "serve digests changed; the current table is:\n{table}"
    );
}
