//! The `cluster_100k` workload: a 100k-node scale-free fleet under a
//! targeted, recoverable attack. The topology is built during set-up;
//! one operation is one `ClusterEngine::run`, cycling through run seeds
//! derived from the workload seed.

use std::time::Instant;

use resilience_cluster::{
    AttackSpec, ClusterConfig, ClusterEngine, ClusterReport, CsrTopology, TopologyKind,
};
use resilience_core::{derive_seed, FaultPlan};
use resilience_networks::AttackStrategy;

use crate::digest::{self, Digest};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{Layers, Workload};

const NODES: usize = 100_000;
const TICKS: u64 = 30;
const RUN_SEEDS: u64 = 8;

#[derive(Debug)]
pub struct Cluster {
    engine: ClusterEngine,
    attack: AttackSpec,
    run_seeds: Vec<u64>,
    generate_ms: f64,
    reference: Vec<ClusterReport>,
}

impl Cluster {
    /// Generate the topology and provision the fleet.
    pub fn setup(seed: u64) -> Self {
        let mut config = ClusterConfig::new(NODES, TopologyKind::ScaleFree { m: 3 });
        config.ticks = TICKS;
        config.headroom = 1.0;
        config.surge_drops = 200;
        config.surge_grain = 0.5;
        let t = Instant::now();
        let topology = CsrTopology::generate(&config.topology, NODES, derive_seed(seed, 0xC1));
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        Cluster {
            engine: ClusterEngine::with_topology(config, topology),
            attack: AttackSpec {
                tick: 5,
                strategy: AttackStrategy::TargetedByDegree,
                fraction: 0.05,
                recoverable: true,
            },
            run_seeds: (0..RUN_SEEDS)
                .map(|i| derive_seed(seed, 0xC200 + i))
                .collect(),
            generate_ms,
            reference: Vec::new(),
        }
    }

    fn run_seed(&self, i: u64) -> u64 {
        self.run_seeds[(i % RUN_SEEDS) as usize]
    }
}

impl Workload for Cluster {
    type Out = ClusterReport;

    fn input_ms(&self) -> f64 {
        self.generate_ms
    }

    fn prepare(&mut self) -> Result<u64, String> {
        self.reference = (0..RUN_SEEDS).map(|i| self.op(i, None)).collect();
        let mut d = Digest::default();
        for (i, report) in self.reference.iter().enumerate() {
            self.check(i as u64, report)?;
            d = d.u64(digest::json(report));
        }
        Ok(d.finish())
    }

    fn work_per_op(&self) -> f64 {
        (NODES as u64 * TICKS) as f64
    }

    fn op(&self, i: u64, rec: Option<&mut Recorder>) -> ClusterReport {
        Recorder::maybe(rec, "cluster.engine.run", || {
            self.engine
                .run(self.run_seed(i), Some(&self.attack), &FaultPlan::none())
        })
    }

    fn check(&self, i: u64, report: &ClusterReport) -> Result<(), String> {
        if report.total_toppled() == 0 {
            return Err(format!("run seed {:#x} never cascaded", self.run_seed(i)));
        }
        match self.reference.get((i % RUN_SEEDS) as usize) {
            Some(want) if want != report => {
                Err("report differs from the reference run".to_string())
            }
            _ => Ok(()),
        }
    }

    fn layers(&self, rec: &Recorder, layers: &mut Layers) {
        let runs = self.reference.len() as f64;
        let mean = |f: fn(&ClusterReport) -> f64| self.reference.iter().map(f).sum::<f64>() / runs;
        let run_ms = rec.durations("cluster.engine.run");
        layers.extend([
            (
                "cluster.topology.edges",
                self.engine.topology().edge_count() as f64,
            ),
            (
                "cluster.engine.node_ticks_per_s",
                self.work_per_op() / median(&run_ms) * 1e3,
            ),
            ("cluster.engine.toppled", mean(|r| r.total_toppled() as f64)),
            (
                "cluster.engine.largest_cascade",
                self.reference
                    .iter()
                    .map(ClusterReport::largest_cascade)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            (
                "cluster.engine.final_giant_fraction",
                mean(|r| r.final_giant as f64 / r.n as f64),
            ),
            (
                "cluster.engine.resilience_loss",
                mean(|r| r.resilience_loss()),
            ),
        ]);
    }
}
