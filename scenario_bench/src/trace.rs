//! The traced run: the per-layer split of a workload.
//!
//! `Scenario::run` makes every lower call itself, so spans cannot be put
//! around them from outside. Instead the traced round re-issues the
//! workload's own traffic one layer at a time, each pass on its own
//! state brought to the same wear, age and `t`:
//!
//! 1. the engine pass builds the same command batches the runner builds
//!    (same trace seeds, FTL plans, scrub plans and flush points) and
//!    times `sq().submit` + `cq().drain`, `LogicalMap::plan_write` and
//!    `Scrubber::plan_pass`; it records every completed command as a
//!    page operation, in submission order;
//! 2. the controller pass issues that log into a second
//!    `MemoryController` (`write_page`, `read_page`, `erase_block`);
//! 3. the device pass issues it into a bare `NandDevice` and the BCH
//!    codec (`encode`, `program_page`, `read_page_at`, `decode`, and the
//!    decode's syndrome, Berlekamp–Massey and Chien stages re-run on the
//!    same raw codeword).
//!
//! The passes run one after another, not interleaved, so that each keeps
//! its own tables warm as `Scenario::run` does. A layer's self time is
//! its span minus its children's spans over the same traffic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use mlcx::bch::syndrome::SyndromeCalculator;
use mlcx::bch::{berlekamp, chien};
use mlcx::controller::{FtlOp, LogicalMap, MemoryController, Scrubber};
use mlcx::hv::HvSubsystem;
use mlcx::nand::device::CodeStore;
use mlcx::nand::{IsppConfig, NandTiming, ProgramAlgorithm};
use mlcx::xlayer::sim::{ScenarioReport, TraceGenerator, TraceOp};
use mlcx::{
    AdaptiveBch, AgingModel, BchCode, Command, CommandOutput, ControllerConfig, DecodeOutcome,
    NandDevice, Objective, ServiceHandle, StorageEngine,
};

use crate::oracle::SplitMix;
use crate::stats;
use crate::workloads::Workload;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Seconds since `start`.
fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Spans (seconds) and counts of one traced round.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `Scenario::run`.
    pub sim_run_s: f64,
    /// `sq().submit` + `cq().drain`.
    pub engine_s: f64,
    /// `SubsystemModel::configure_with_extra_rber`, once per operating
    /// point the engine's memo derives.
    pub op_derive_s: f64,
    /// `LogicalMap::plan_write`.
    pub ftl_plan_s: f64,
    /// `Scrubber::plan_pass`.
    pub scrub_plan_s: f64,
    /// `MemoryController::{apply_point + write_page, read_page, erase_block}`.
    pub controller_s: f64,
    /// `AdaptiveBch::encode`.
    pub bch_encode_s: f64,
    /// `BchCode::decode`, every outcome.
    pub bch_decode_s: f64,
    /// The clean path: `BchCode::decode` of pages that took the clean
    /// shortcut, plus the same remainder pass re-run on pages with errors.
    pub bch_decode_clean_s: f64,
    /// Syndrome stage: the received remainder evaluated at the `2t` roots
    /// of the generator.
    pub bch_syndrome_s: f64,
    /// `berlekamp::error_locator`.
    pub bch_locator_s: f64,
    /// `chien::find_error_positions_stride`, or the direct solve for a
    /// degree-1 locator, as `decode` picks.
    pub bch_root_search_s: f64,
    /// `AdaptiveBch::code_for`, the lazy per-`t` code construction.
    pub bch_code_build_s: f64,
    /// `NandDevice::program_page`.
    pub nand_program_s: f64,
    /// `NandDevice::read_page_at`.
    pub nand_read_s: f64,
    /// `NandDevice::erase_block`.
    pub nand_erase_s: f64,
    /// Engine commands completed.
    pub commands: u64,
    /// Modeled serial device time of the engine pass.
    pub device_time_s: f64,
    /// Start minus arrival of every command after the prefill, seconds.
    pub queue_waits: Vec<f64>,
    /// Pages encoded.
    pub encodes: u64,
    /// Decodes that took the clean shortcut.
    pub decodes_clean: u64,
    /// Decodes that located and corrected errors.
    pub decodes_corrected: u64,
    /// Decodes with more errors than `t`.
    pub decodes_uncorrectable: u64,
    /// Bits the decodes corrected.
    pub corrected_bits: u64,
    /// Positions the root search evaluated.
    pub root_search_positions: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Pages sensed.
    pub reads: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Bits in which a sensed page differed from the bytes programmed.
    pub injected_bit_errors: u64,
    /// Spans recorded.
    pub spans: u64,
}

impl Layers {
    /// Closes a span opened at `start`, returning its length.
    fn span(&mut self, start: Instant) -> f64 {
        self.spans += 1;
        since(start)
    }
}

/// Runs one traced round of `workload`: `Scenario::run` once, then the
/// three replay passes over the same traffic.
///
/// # Errors
///
/// Datapath errors, and any check a pass makes: every read must return
/// the bytes the benchmark wrote, the decode stages must locate the
/// positions `decode` corrected, and the engine pass must complete the
/// same commands in the same modeled device time as `Scenario::run`.
pub fn round(workload: &Workload) -> Res<(Layers, ScenarioReport)> {
    let start = Instant::now();
    let report = workload.scenario.run().map_err(err)?;
    let mut layers = Layers {
        sim_run_s: since(start),
        ..Layers::default()
    };
    let (log, config) = EnginePass::run(workload, &mut layers)?;
    let device = report.total_device_time_s;
    if layers.commands != report.total_commands as u64
        || (layers.device_time_s - device).abs() > 1e-9 * device
    {
        return Err(format!(
            "engine pass completed {} commands in {} s of device time, Scenario::run {} in {device} s",
            layers.commands, layers.device_time_s, report.total_commands
        ));
    }
    let seed = workload.scenario.seed();
    controller_pass(&log, &config, seed, &mut layers)?;
    DevicePass::new(&config, seed)?.run(&log, &mut layers)?;
    Ok((layers, report))
}

/// The cost of recording one empty span on this host, seconds (median
/// of a few thousand).
pub fn span_cost_s() -> f64 {
    let samples: Vec<f64> = (0..4096)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(since(start))
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// One page operation the engine completed, or a change of device state
/// between phases, as the lower passes re-issue it.
enum Op {
    /// Region format before the first command (not timed).
    Format {
        block: usize,
    },
    Write {
        block: usize,
        page: usize,
        data: Arc<Vec<u8>>,
        t: u32,
        algorithm: ProgramAlgorithm,
    },
    Read {
        block: usize,
        page: usize,
    },
    Erase {
        block: usize,
    },
    /// A scrub copy-back: read `from`, re-encode at `t`, program `to`.
    Relocate {
        from: (usize, usize),
        to: (usize, usize),
        t: u32,
        algorithm: ProgramAlgorithm,
    },
    AgeAll {
        cycles: u64,
    },
    AgeDie {
        die: usize,
        cycles: u64,
    },
    Hours {
        hours: f64,
    },
}

/// Which service a command was for, and why.
struct Meta {
    svc: usize,
    kind: Kind,
}

enum Kind {
    /// A trace read: the data must be `(svc, lpn, version)`'s payload.
    HostRead {
        lpn: usize,
        version: u64,
    },
    /// A relocation read: the data is stashed in `gc_data[slot]`.
    GcRead {
        slot: usize,
    },
    Other,
}

struct Service {
    handle: ServiceHandle,
    objective: Objective,
    blocks: std::ops::Range<usize>,
    map: LogicalMap,
    gen: TraceGenerator,
    versions: BTreeMap<usize, u64>,
    scrubber: Scrubber,
}

/// The engine pass: the runner's traffic, built and submitted the way
/// the runner does it.
struct EnginePass<'a> {
    engine: StorageEngine,
    services: Vec<Service>,
    batch_size: usize,
    seed: u64,
    page_bytes: usize,
    pending: Vec<(Command, Meta)>,
    gc_data: Vec<Option<Vec<u8>>>,
    /// Operating points derived so far, keyed like the engine's memo:
    /// `(service, die, wear, disturb epoch)`.
    derived: BTreeSet<(usize, usize, u64, u64)>,
    epoch: u64,
    log: Vec<Op>,
    layers: &'a mut Layers,
}

impl<'a> EnginePass<'a> {
    /// Runs the pass; returns the page-operation log and the controller
    /// configuration the engine ran.
    fn run(workload: &Workload, layers: &'a mut Layers) -> Res<(Vec<Op>, ControllerConfig)> {
        let scenario = &workload.scenario;
        let seed = scenario.seed();
        let mut engine = workload.engine.clone().seed(seed).build().map_err(err)?;
        let config = engine.controller().config().clone();
        let geometry = config.geometry;
        let scrub = *engine.scrub_policy();
        let mut log = Vec::new();
        let mut services = Vec::new();
        for (i, spec) in scenario.services().iter().enumerate() {
            let handle = engine
                .register_service_with_qos(
                    &spec.name,
                    spec.objective,
                    spec.blocks.clone(),
                    spec.qos,
                )
                .map_err(err)?;
            for block in spec.blocks.clone() {
                engine.controller_mut().erase_block(block).map_err(err)?;
                log.push(Op::Format { block });
            }
            let map = LogicalMap::striped(
                spec.blocks.clone(),
                geometry.pages_per_block,
                geometry.blocks_per_die(),
            );
            // The runner's trace seed and address space for service `i`.
            let trace_seed = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let space = ((map.capacity_pages() as f64 * workload.utilization) as usize).max(1);
            services.push(Service {
                handle,
                objective: spec.objective,
                blocks: spec.blocks.clone(),
                map,
                gen: TraceGenerator::new(spec.trace, space, trace_seed)?,
                versions: BTreeMap::new(),
                scrubber: Scrubber::new(scrub),
            });
        }
        let mut pass = EnginePass {
            engine,
            services,
            batch_size: workload.batch_size,
            seed,
            page_bytes: geometry.page_bytes,
            pending: Vec::new(),
            gc_data: Vec::new(),
            derived: BTreeSet::new(),
            epoch: 0,
            log,
            layers,
        };
        pass.phases(workload)?;
        Ok((pass.log, config))
    }

    /// The runner's phase structure: prefill, the phases with their
    /// closing scrub pass and fast-forwards, then the verify sweep.
    fn phases(&mut self, workload: &Workload) -> Res<()> {
        if workload.prefill {
            for svc in 0..self.services.len() {
                for lpn in 0..self.services[svc].gen.capacity() {
                    self.apply(svc, TraceOp::Write(lpn))?;
                }
            }
            self.flush()?;
            // Prefill batches are the same for every seed; the queue-wait
            // tail is taken over the seeded traffic after them.
            self.layers.queue_waits.clear();
        }
        for phase in workload.scenario.phases() {
            for _ in 0..phase.ops_per_service {
                for svc in 0..self.services.len() {
                    let op = self.services[svc].gen.next_op();
                    self.apply(svc, op)?;
                }
            }
            self.flush()?;
            self.scrub_tick();
            self.flush()?;
            let ctrl = self.engine.controller_mut();
            if phase.fast_forward_cycles > 0 {
                ctrl.age_all(phase.fast_forward_cycles);
                self.log.push(Op::AgeAll {
                    cycles: phase.fast_forward_cycles,
                });
            }
            for &(die, cycles) in &phase.die_skew {
                ctrl.age_die(die, cycles).map_err(err)?;
                self.log.push(Op::AgeDie { die, cycles });
            }
            if phase.elapsed_hours > 0.0 {
                self.engine.advance_hours(phase.elapsed_hours);
                self.log.push(Op::Hours {
                    hours: phase.elapsed_hours,
                });
                let device = self.engine.controller().device();
                if device.disturb_model().retention_enabled() {
                    self.epoch += 1;
                }
            }
        }
        for svc in 0..self.services.len() {
            for lpn in self.services[svc].map.mapped_lpns() {
                self.apply(svc, TraceOp::Read(lpn))?;
            }
        }
        self.flush()
    }

    fn apply(&mut self, svc: usize, op: TraceOp) -> Res<()> {
        match op {
            TraceOp::Read(lpn) => {
                let service = &self.services[svc];
                if let Some((block, page)) = service.map.translate(lpn) {
                    let kind = Kind::HostRead {
                        lpn,
                        version: service.versions[&lpn],
                    };
                    let command = Command::read(service.handle, block, page);
                    self.pending.push((command, Meta { svc, kind }));
                }
            }
            TraceOp::Write(lpn) => {
                let device = self.engine.controller().device();
                let start = Instant::now();
                let plan = self.services[svc]
                    .map
                    .plan_write(lpn, &mut |b| device.block_cycles(b).unwrap_or(0));
                self.layers.ftl_plan_s += self.layers.span(start);
                let plan = plan.map_err(err)?;
                if let [FtlOp::Write { lpn, to }] = plan[..] {
                    self.stage_write(svc, lpn, to);
                } else {
                    // Relocation reads must see every staged write.
                    self.flush()?;
                    self.execute_plan(svc, &plan)?;
                }
            }
        }
        if self.pending.len() >= self.batch_size {
            self.flush()?;
            self.scrub_tick();
        }
        Ok(())
    }

    fn stage(&mut self, svc: usize, command: Command) {
        let kind = Kind::Other;
        self.pending.push((command, Meta { svc, kind }));
    }

    fn stage_write(&mut self, svc: usize, lpn: usize, to: (usize, usize)) {
        let service = &mut self.services[svc];
        let version = service.versions.entry(lpn).or_insert(0);
        *version += 1;
        let data = page_payload(self.page_bytes, self.seed, svc, lpn, *version);
        let command = Command::write(service.handle, to.0, to.1, data);
        self.stage(svc, command);
    }

    /// Runs of relocations become a read batch followed by staged
    /// copies; erases and the host write ride the pending queue in plan
    /// order.
    fn execute_plan(&mut self, svc: usize, plan: &[FtlOp]) -> Res<()> {
        let handle = self.services[svc].handle;
        let mut i = 0;
        while i < plan.len() {
            match plan[i] {
                FtlOp::Relocate { .. } => {
                    let start = i;
                    while i < plan.len() && matches!(plan[i], FtlOp::Relocate { .. }) {
                        i += 1;
                    }
                    self.relocate(svc, &plan[start..i])?;
                }
                FtlOp::Erase { block } => {
                    self.stage(svc, Command::erase(handle, block));
                    i += 1;
                }
                FtlOp::Write { lpn, to } => {
                    self.stage_write(svc, lpn, to);
                    i += 1;
                }
            }
        }
        Ok(())
    }

    fn relocate(&mut self, svc: usize, relocs: &[FtlOp]) -> Res<()> {
        self.flush()?;
        let handle = self.services[svc].handle;
        self.gc_data = vec![None; relocs.len()];
        let mut batch = Vec::new();
        for (slot, op) in relocs.iter().enumerate() {
            if let FtlOp::Relocate { from, .. } = *op {
                let kind = Kind::GcRead { slot };
                batch.push((Command::read(handle, from.0, from.1), Meta { svc, kind }));
            }
        }
        self.submit(batch)?;
        for (slot, op) in relocs.iter().enumerate() {
            if let FtlOp::Relocate { to, .. } = *op {
                let data = self.gc_data[slot]
                    .take()
                    .ok_or_else(|| format!("relocation read {slot} returned no data"))?;
                self.stage(svc, Command::write(handle, to.0, to.1, data));
            }
        }
        Ok(())
    }

    /// One scrub pass per service, staged ahead of the next batch. With
    /// the scrubber off `plan_pass` returns at once; the span then times
    /// that check.
    fn scrub_tick(&mut self) {
        let device = self.engine.controller().device();
        for (svc, service) in self.services.iter_mut().enumerate() {
            let start = Instant::now();
            let plan = service.scrubber.plan_pass(device, &mut service.map);
            self.layers.scrub_plan_s += self.layers.span(start);
            for op in plan {
                let command = match op {
                    FtlOp::Relocate { from, to, .. } => Command::relocate(service.handle, from, to),
                    FtlOp::Erase { block } => Command::scrub_erase(service.handle, block),
                    FtlOp::Write { .. } => continue,
                };
                let kind = Kind::Other;
                self.pending.push((command, Meta { svc, kind }));
            }
        }
    }

    fn flush(&mut self) -> Res<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        self.submit(batch)
    }

    fn submit(&mut self, batch: Vec<(Command, Meta)>) -> Res<()> {
        let (commands, metas): (Vec<Command>, Vec<Meta>) = batch.into_iter().unzip();
        let start = Instant::now();
        let submitted = self.engine.sq().submit(&commands);
        let mut completions = self.engine.cq().drain();
        self.layers.engine_s += self.layers.span(start);
        submitted.map_err(err)?;
        let report = self.engine.last_batch();
        self.layers.commands += report.commands as u64;
        self.layers.device_time_s += report.device_latency_s;
        if completions.len() != commands.len() {
            return Err(format!(
                "{} commands submitted, {} completed",
                commands.len(),
                completions.len()
            ));
        }
        // Submission order: per-service FIFO keeps every block's
        // commands in this order whatever the dispatch policy.
        completions.sort_by_key(|c| c.id);
        for ((command, meta), completion) in commands.into_iter().zip(metas).zip(completions) {
            self.layers
                .queue_waits
                .push(completion.start_s - completion.arrival_s);
            let output = completion.result.map_err(err)?;
            self.record(command, meta, output)?;
        }
        Ok(())
    }

    /// Checks one completion and logs it as a page operation.
    fn record(&mut self, command: Command, meta: Meta, output: CommandOutput) -> Res<()> {
        let op = match (command, output) {
            (
                Command::Write {
                    block, page, data, ..
                },
                CommandOutput::Write(w),
            ) => {
                self.derive_point(meta.svc, block);
                Op::Write {
                    block,
                    page,
                    data: Arc::new(data),
                    t: w.t_used,
                    algorithm: w.algorithm,
                }
            }
            (Command::Read { block, page, .. }, CommandOutput::Read(r)) => {
                if !r.outcome.is_success() {
                    return Err(format!("engine read of ({block}, {page}) failed to decode"));
                }
                match meta.kind {
                    Kind::HostRead { lpn, version } => {
                        let expected =
                            page_payload(self.page_bytes, self.seed, meta.svc, lpn, version);
                        if r.data != expected {
                            return Err(format!(
                                "engine read of ({block}, {page}) returned wrong data"
                            ));
                        }
                    }
                    Kind::GcRead { slot } => self.gc_data[slot] = Some(r.data),
                    Kind::Other => {}
                }
                Op::Read { block, page }
            }
            (
                Command::Erase { block, .. } | Command::ScrubErase { block, .. },
                CommandOutput::Erase { .. },
            ) => Op::Erase { block },
            (
                Command::Relocate { from, to, .. },
                CommandOutput::Relocate {
                    t_used, read_ok, ..
                },
            ) => {
                if !read_ok {
                    return Err(format!("scrub relocation source {from:?} failed to decode"));
                }
                self.derive_point(meta.svc, to.0);
                let objective = self.services[meta.svc].objective;
                Op::Relocate {
                    from,
                    to,
                    t: t_used,
                    algorithm: self.engine.model().configure(objective, 1).algorithm,
                }
            }
            (command, output) => return Err(format!("{command:?} completed with {output:?}")),
        };
        self.log.push(op);
        Ok(())
    }

    /// Times the model derivation the engine's memo makes for a program
    /// of `block`, once per `(service, die, wear, disturb epoch)`.
    fn derive_point(&mut self, svc: usize, block: usize) {
        let ctrl = self.engine.controller();
        let geometry = ctrl.config().geometry;
        let die = geometry.die_of_block(block);
        let wear = ctrl.device().block_cycles(block).unwrap_or(0).max(1);
        if !self.derived.insert((svc, die, wear, self.epoch)) {
            return;
        }
        let service = &self.services[svc];
        let extra = service
            .blocks
            .clone()
            .filter(|&b| geometry.die_of_block(b) == die)
            .map(|b| ctrl.block_effective_disturb_rber(b).unwrap_or(0.0))
            .fold(0.0, f64::max);
        let model = self.engine.model();
        let start = Instant::now();
        std::hint::black_box(model.configure_with_extra_rber(service.objective, wear, extra));
        self.layers.op_derive_s += self.layers.span(start);
    }
}

/// The controller pass: the log into a second `MemoryController`.
fn controller_pass(
    log: &[Op],
    config: &ControllerConfig,
    seed: u64,
    layers: &mut Layers,
) -> Res<()> {
    let mut ctrl = MemoryController::new(config.clone(), seed).map_err(err)?;
    let mut written: BTreeMap<(usize, usize), Arc<Vec<u8>>> = BTreeMap::new();
    for op in log {
        let start = Instant::now();
        match op {
            Op::Format { block } => {
                ctrl.erase_block(*block).map_err(err)?;
            }
            Op::AgeAll { cycles } => ctrl.age_all(*cycles),
            Op::AgeDie { die, cycles } => ctrl.age_die(*die, *cycles).map_err(err)?,
            Op::Hours { hours } => ctrl.device_mut().advance_time_hours(*hours),
            Op::Write {
                block,
                page,
                data,
                t,
                algorithm,
            } => {
                let done = ctrl
                    .apply_point(*algorithm, *t)
                    .and_then(|()| ctrl.write_page(*block, *page, data));
                layers.controller_s += layers.span(start);
                done.map_err(err)?;
                written.insert((*block, *page), data.clone());
            }
            Op::Read { block, page } => {
                let read = ctrl.read_page(*block, *page);
                layers.controller_s += layers.span(start);
                let read = read.map_err(err)?;
                let expected = written.get(&(*block, *page)).map(|d| &d[..]);
                if !read.outcome.is_success() || expected != Some(&read.data[..]) {
                    return Err(format!("controller pass misread ({block}, {page})"));
                }
            }
            Op::Erase { block } => {
                let done = ctrl.erase_block(*block);
                layers.controller_s += layers.span(start);
                done.map_err(err)?;
            }
            Op::Relocate {
                from,
                to,
                t,
                algorithm,
            } => {
                let done = ctrl.read_page(from.0, from.1).and_then(|r| {
                    ctrl.apply_point(*algorithm, *t)?;
                    ctrl.write_page(to.0, to.1, &r.data)?;
                    Ok(r.data)
                });
                layers.controller_s += layers.span(start);
                let data = done.map_err(err)?;
                if written.get(from).map(|d| &d[..]) != Some(&data[..]) {
                    return Err(format!(
                        "controller pass relocated wrong data from {from:?}"
                    ));
                }
                written.insert(*to, Arc::new(data));
            }
        }
    }
    Ok(())
}

/// A page as the device pass programmed it.
struct Written {
    data: Arc<Vec<u8>>,
    spare: Vec<u8>,
    t: u32,
}

/// The device pass: the log into a bare `NandDevice` and the codec.
struct DevicePass {
    dev: NandDevice,
    codec: AdaptiveBch,
    codes: BTreeMap<u32, (Arc<BchCode>, SyndromeCalculator)>,
    spare_bytes: usize,
    written: BTreeMap<(usize, usize), Written>,
}

impl DevicePass {
    fn new(config: &ControllerConfig, seed: u64) -> Res<DevicePass> {
        let geometry = config.geometry;
        // The device and codec as `MemoryController::new` builds them.
        let mut dev = NandDevice::with_config(
            geometry,
            NandTiming::date2012(),
            IsppConfig::date2012(),
            AgingModel::date2012(),
            HvSubsystem::date2012(),
            CodeStore::dual_rom(),
            seed,
        );
        dev.set_disturb_model(config.disturb);
        let codec = AdaptiveBch::new_with_kernel(
            config.ecc_m,
            geometry.page_bytes * 8,
            config.ecc_tmin,
            config.ecc_tmax,
            config.ecc_kernel,
        )
        .map_err(err)?;
        Ok(DevicePass {
            dev,
            codec,
            codes: BTreeMap::new(),
            spare_bytes: geometry.spare_bytes,
            written: BTreeMap::new(),
        })
    }

    fn run(mut self, log: &[Op], layers: &mut Layers) -> Res<()> {
        for op in log {
            match op {
                Op::Format { block } => {
                    self.dev.erase_block(*block).map_err(err)?;
                }
                Op::AgeAll { cycles } => self.dev.age_all(*cycles),
                Op::AgeDie { die, cycles } => self.dev.age_die(*die, *cycles).map_err(err)?,
                Op::Hours { hours } => self.dev.advance_time_hours(*hours),
                Op::Write {
                    block,
                    page,
                    data,
                    t,
                    algorithm,
                } => self.program((*block, *page), data.clone(), *t, *algorithm, layers)?,
                Op::Read { block, page } => {
                    self.sense_and_decode((*block, *page), layers)?;
                }
                Op::Erase { block } => {
                    let start = Instant::now();
                    let done = self.dev.erase_block(*block);
                    layers.nand_erase_s += layers.span(start);
                    layers.erases += 1;
                    done.map_err(err)?;
                    self.written.retain(|&(b, _), _| b != *block);
                }
                Op::Relocate {
                    from,
                    to,
                    t,
                    algorithm,
                } => {
                    let data = self.sense_and_decode(*from, layers)?;
                    self.program(*to, data, *t, *algorithm, layers)?;
                }
            }
        }
        Ok(())
    }

    /// The code for capability `t`, building (and timing) it on first use.
    fn code(&mut self, t: u32, layers: &mut Layers) -> Res<Arc<BchCode>> {
        if !self.codes.contains_key(&t) {
            let start = Instant::now();
            let code = self.codec.code_for(t);
            layers.bch_code_build_s += layers.span(start);
            let code = code.map_err(err)?;
            let syndromes = SyndromeCalculator::new(code.field().clone(), t);
            self.codes.insert(t, (code, syndromes));
        }
        Ok(self.codes[&t].0.clone())
    }

    fn program(
        &mut self,
        (block, page): (usize, usize),
        data: Arc<Vec<u8>>,
        t: u32,
        algorithm: ProgramAlgorithm,
        layers: &mut Layers,
    ) -> Res<()> {
        self.code(t, layers)?;
        self.codec.set_correction(t).map_err(err)?;
        let start = Instant::now();
        let parity = self.codec.encode(&data);
        layers.bch_encode_s += layers.span(start);
        layers.encodes += 1;
        let parity = parity.map_err(err)?;
        self.dev.select_algorithm(algorithm).map_err(err)?;
        let start = Instant::now();
        let done = self.dev.program_page(block, page, &data, &parity);
        layers.nand_program_s += layers.span(start);
        layers.programs += 1;
        done.map_err(err)?;
        let mut spare = parity;
        spare.resize(self.spare_bytes, 0xFF);
        self.written
            .insert((block, page), Written { data, spare, t });
        Ok(())
    }

    /// Senses a page and decodes it, timing the decode and, for pages
    /// with errors, each decode stage on the same raw codeword. Returns
    /// the corrected page, which must equal the bytes written.
    fn sense_and_decode(
        &mut self,
        (block, page): (usize, usize),
        layers: &mut Layers,
    ) -> Res<Arc<Vec<u8>>> {
        let start = Instant::now();
        let sensed = self.dev.read_page_at(block, page, 0);
        layers.nand_read_s += layers.span(start);
        layers.reads += 1;
        let (mut data, spare, _) = sensed.map_err(err)?;
        let written = self
            .written
            .get(&(block, page))
            .ok_or_else(|| format!("sensed ({block}, {page}) before it was written"))?;
        let (expected, t) = (written.data.clone(), written.t);
        layers.injected_bit_errors +=
            bit_distance(&data, &written.data) + bit_distance(&spare, &written.spare);
        let code = self.code(t, layers)?;
        let mut parity = spare[..code.parity_bytes()].to_vec();
        let (raw_data, raw_parity) = (data.clone(), parity.clone());
        let start = Instant::now();
        let outcome = code.decode(&mut data, &mut parity);
        let decode_s = layers.span(start);
        layers.bch_decode_s += decode_s;
        match outcome.map_err(err)? {
            DecodeOutcome::Clean => {
                layers.bch_decode_clean_s += decode_s;
                layers.decodes_clean += 1;
            }
            DecodeOutcome::Corrected { positions, .. } => {
                layers.decodes_corrected += 1;
                layers.corrected_bits += positions.len() as u64;
                let located = self.stages(&code, &raw_data, &raw_parity, layers)?;
                if located.as_deref() != Some(&positions[..]) {
                    return Err(format!(
                        "decode stages located {located:?} on ({block}, {page}), decode {positions:?}"
                    ));
                }
            }
            DecodeOutcome::Uncorrectable => {
                layers.decodes_uncorrectable += 1;
                return Err(format!(
                    "({block}, {page}) is uncorrectable in the device pass"
                ));
            }
        }
        if data[..] != expected[..] {
            return Err(format!(
                "decoded ({block}, {page}) differs from the bytes written"
            ));
        }
        Ok(expected)
    }

    /// The decode's stages, timed one by one on a received codeword with
    /// errors: the remainder pass, syndromes from the remainder (the
    /// fused decode's route), Berlekamp–Massey, then the root search
    /// `decode` picks.
    fn stages(
        &self,
        code: &BchCode,
        raw_data: &[u8],
        raw_parity: &[u8],
        layers: &mut Layers,
    ) -> Res<Option<Vec<usize>>> {
        let field = code.field();
        let syndromes = &self.codes[&code.correction_capability()].1;
        let start = Instant::now();
        // The received codeword's remainder is the re-encoded message's
        // parity XOR the received parity: the one pass over the codeword
        // every decode makes first, and all a clean page costs. It agrees
        // with the codeword at the generator's roots, so it yields the
        // same 2t syndromes.
        let mut remainder = code.encode(raw_data).map_err(err)?;
        for (r, p) in remainder.iter_mut().zip(raw_parity) {
            *r ^= p;
        }
        layers.bch_decode_clean_s += layers.span(start);
        let start = Instant::now();
        let syn = syndromes.compute(&[], &remainder, code.parity_bits());
        layers.bch_syndrome_s += layers.span(start);
        let start = Instant::now();
        let lambda = berlekamp::error_locator(field, &syn);
        layers.bch_locator_s += layers.span(start);
        let degree = berlekamp::locator_degree(&lambda);
        let n_bits = code.codeword_bits();
        let start = Instant::now();
        let roots = if degree == 1 {
            chien::solve_single_error(field, &lambda, n_bits)
        } else {
            chien::find_error_positions_stride(field, &lambda, n_bits)
        };
        layers.bch_root_search_s += layers.span(start);
        layers.root_search_positions += match (&roots, degree) {
            (_, 1) => 1,
            (Some(found), _) => found.last().map_or(0, |&last| last as u64 + 1),
            (None, _) => n_bits as u64,
        };
        Ok(roots)
    }
}

/// Bits in which two equal-length buffers differ.
fn bit_distance(a: &[u8], b: &[u8]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// The benchmark's own page contents for `(service, lpn, version)`.
fn page_payload(page_bytes: usize, seed: u64, svc: usize, lpn: usize, version: u64) -> Vec<u8> {
    let key = seed
        ^ (svc as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (lpn as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
        ^ version.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    SplitMix::new(key).bytes(page_bytes)
}
