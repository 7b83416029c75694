//! The benchmark's workloads, each built with the public `Scenario`
//! builder. The parts of a workload a `Scenario` keeps private (engine
//! configuration, batch size, prefill, utilization) live here, so the
//! traced replay can rebuild exactly the same engine and traffic.

use mlcx::controller::ScrubPolicy;
use mlcx::nand::disturb::DisturbModel;
use mlcx::xlayer::sim::{Scenario, TraceKind};
use mlcx::{
    ControllerConfig, DeviceGeometry, EngineBuilder, MlcxError, Objective, QosSpec, SchedPolicy,
    Topology,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["lifetime_mix", "retention_serve", "tenant_storm"];

/// One named workload.
pub struct Workload {
    /// The workload's name.
    pub name: &'static str,
    /// Engine configuration (geometry, disturb model, scrub and
    /// dispatch policies), without the seed.
    pub engine: EngineBuilder,
    /// Commands per engine batch.
    pub batch_size: usize,
    /// Whether every service writes its whole working set first.
    pub prefill: bool,
    /// Share of each region's capacity the traces address.
    pub utilization: f64,
    /// The scenario (services and phases), seeded.
    pub scenario: Scenario,
}

impl Workload {
    /// The workload called `name`, with its inputs drawn from `seed`.
    ///
    /// # Errors
    ///
    /// [`MlcxError::InvalidConfig`] for an unknown name.
    pub fn named(name: &str, seed: u64) -> Result<Workload, MlcxError> {
        let (name, engine, batch_size, prefill, utilization) = match name {
            "lifetime_mix" => (
                NAMES[0],
                engine(24, 128, Topology::new(2, 2)),
                64,
                true,
                0.85,
            ),
            "retention_serve" => (
                NAMES[1],
                engine(32, 8, Topology::single())
                    .disturb_model(DisturbModel::date2012())
                    .scrub_policy(ScrubPolicy {
                        read_threshold: u64::MAX,
                        retention_age_hours: 5_000.0,
                        interference_rber_threshold: f64::INFINITY,
                        max_blocks_per_pass: 2,
                    }),
                24,
                false,
                0.85,
            ),
            "tenant_storm" => (
                NAMES[2],
                engine(2 * TENANTS, 8, Topology::single()).sched_policy(SchedPolicy::WeightedFair),
                64,
                true,
                0.25,
            ),
            other => {
                return Err(MlcxError::InvalidConfig {
                    reason: format!("unknown workload {other:?}; expected one of {NAMES:?}"),
                })
            }
        };
        let mut builder = Scenario::builder()
            .engine(engine.clone())
            .seed(seed)
            .batch_size(batch_size)
            .prefill(prefill)
            .utilization(utilization);
        builder = match name {
            "lifetime_mix" => builder
                .service(
                    "log",
                    Objective::MaxReadThroughput,
                    0..8,
                    TraceKind::Sequential,
                )
                .service("archive", Objective::MinUber, 8..16, TraceKind::zipfian())
                .service(
                    "serve",
                    Objective::Baseline,
                    16..24,
                    TraceKind::read_mostly(),
                )
                .phase("fresh", 400, 100_000)
                .phase("mid-life", 400, 900_000)
                .phase("end-of-life", 400, 0),
            "retention_serve" => builder
                .service("kv", Objective::Baseline, 0..32, TraceKind::zipfian())
                // Bring the bank to end of life with no traffic, so the
                // working set is written at the end-of-life schedule.
                .phase("burn", 0, 1_000_000)
                .phase_with_elapsed("write", 240, 0, 20_000.0)
                .phase("serve", 560, 0),
            _ => {
                for i in 0..TENANTS {
                    let (class, weight) = match i % 3 {
                        0 => ("gold", 8.0),
                        1 => ("silver", 2.0),
                        _ => ("bronze", 1.0),
                    };
                    builder = builder.service_with_qos(
                        &format!("{class}-{i:04}"),
                        Objective::Baseline,
                        2 * i..2 * i + 2,
                        TraceKind::read_mostly(),
                        QosSpec::weighted(weight),
                    );
                }
                builder.phase("storm", 64, 0)
            }
        };
        Ok(Workload {
            name,
            engine,
            batch_size,
            prefill,
            utilization,
            scenario: builder.build()?,
        })
    }
}

/// Tenants of `tenant_storm`, two 8-page blocks each, on one die.
const TENANTS: usize = 256;

/// The paper's engine calibration on a `blocks` × `pages_per_block`
/// bank under `topology`.
fn engine(blocks: usize, pages_per_block: usize, topology: Topology) -> EngineBuilder {
    let mut config = ControllerConfig::date2012();
    config.geometry = DeviceGeometry {
        blocks,
        pages_per_block,
        topology,
        ..config.geometry
    };
    EngineBuilder::date2012().controller_config(config)
}
