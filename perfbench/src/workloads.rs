//! The four workloads, and one pass of each through the program's public
//! functions.
//!
//! A pass is one complete execution of a workload at a fixed seed,
//! set-up included. Every pass of a workload at one seed must reproduce
//! the same [`Output`]; the benchmark checks that on every repeat.

use crate::sinks::{CountingWriter, Probe, Tally};
use crate::trace::Tracer;
use engine::{
    CheckpointSpec, EngineConfig, FailurePolicy, MetricsSink, NullSink, Session,
    Workload as EngineWorkload,
};
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::Instant;
use swarm::sim::KernelKind;
use swarm::StabilityVerdict;
use workload::experiments::{self, ExperimentConfig};
use workload::registry::{
    self, ArrivalSpec, InitialGroupSpec, PieceSelector, Registry, ScenarioRunOptions,
    ScenarioSpec,
};
use workload::ExperimentReport;

/// The benchmark's workloads, by the names `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// E1–E12 through `workload::experiments`.
    PaperRegen,
    /// Many short replications of a registry scenario through
    /// `registry::run_with_sink`, with the NDJSON export and checkpoints.
    ReplicationStream,
    /// One large replication on the turbo kernel, split across shards.
    BigSwarmSharded,
}

pub const KINDS: [(&str, Kind); 3] = [
    ("paper-regen", Kind::PaperRegen),
    ("replication-stream", Kind::ReplicationStream),
    ("big-swarm-sharded", Kind::BigSwarmSharded),
];

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        KINDS.iter().find(|(n, _)| *n == name).map(|&(_, k)| k)
    }

    /// Whether the workload runs agent replications through a `Session`
    /// the benchmark builds or streams (every workload but paper-regen).
    pub fn is_session(self) -> bool {
        self != Kind::PaperRegen
    }
}

/// Work per pass: the benchmark's size, or the self-test's tiny one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A pass's simulation budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    pub horizon: f64,
    pub replications: u32,
}

/// The horizon of a set-up pass. The engine rejects a horizon of 0 (and
/// E1 panics on one); at this positive horizon a set-up pass simulates next
/// to nothing and measures the cost that does not scale with simulated
/// time.
pub const SETUP_HORIZON: f64 = 1e-9;

/// Delivered records between replication-stream checkpoints. The CLI
/// default is 1, but every checkpoint ends in an fsync: at one per record,
/// the host's storage latency was 70-85% of a pass and moved whole runs by
/// 2x, and at one per 100 records it still moved runs by 1.7x, so the
/// workload would measure the disk instead of the program.
pub const CHECKPOINT_EVERY: u64 = 1000;

/// Seeds per paper-regen pass. The cost of one run of E1–E12 depends on
/// its seed: E9's µ = ∞ walk is null recurrent, so its length is
/// heavy-tailed, and one seed cost 1.5x another at horizon 600. A pass over
/// several seeds averages that out, so that the workload's time measures
/// the program rather than the draw of `--seed`.
const PAPER_SEEDS: u64 = 4;
/// Worker threads of every multi-threaded workload.
const JOBS: usize = 2;
/// Pieces of the big-swarm file.
const BIG_K: usize = 32;

/// Delivered records between checkpoints at the CLI's default cadence.
pub const CLI_CHECKPOINT_EVERY: u64 = 1;

/// How a session pass is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassMode {
    /// Turn on the engine's metered pass (kernel counters per record).
    pub metered: bool,
    /// Write the replication-stream checkpoint every this many delivered
    /// records (and at the end), or not at all.
    pub checkpoint_every: Option<u64>,
}

impl PassMode {
    /// A measured pass.
    pub const TIMED: PassMode = PassMode {
        metered: false,
        checkpoint_every: Some(CHECKPOINT_EVERY),
    };
    /// A set-up pass: no checkpoint, whose one write at the end of the
    /// stream would time the disk's fsync latency rather than the set-up.
    pub const SETUP: PassMode = PassMode {
        metered: false,
        checkpoint_every: None,
    };
}

/// What a pass must reproduce on every repeat at a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    /// Simulated events summed over the delivered records.
    pub events: u64,
    /// Piece transfers summed over the delivered records.
    pub transfers: u64,
    /// FNV-1a digest of the rendered reports.
    pub digest: u64,
}

/// One pass's measurements.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the whole pass.
    pub wall_s: f64,
    /// Units of work the throughput counts: simulated events on the
    /// big-swarm workloads, replications on replication-stream, experiment
    /// calls on paper-regen.
    pub work: u64,
    /// Seconds the throughput divides by: the stream's own wall time on
    /// session workloads, the pass wall time on paper-regen.
    pub work_s: f64,
    /// Operations attempted: replications, or experiment calls.
    pub attempted: u64,
    pub failed: u64,
    pub output: Output,
    pub tally: Tally,
    /// The Theorem 1 verdict of the scenario (session workloads).
    pub theory: Option<StabilityVerdict>,
    /// Bytes of the NDJSON export (replication-stream).
    pub ndjson_bytes: u64,
}

/// A workload at one seed and size, writing its files under `out_dir`.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub size: Size,
    pub out_dir: PathBuf,
}

type Experiment = fn(&ExperimentConfig) -> ExperimentReport;

/// E1–E12 in the order `experiments::run_all` runs them.
pub const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("E1", experiments::example1),
    ("E2", experiments::example2),
    ("E3", experiments::example3),
    ("E4", experiments::one_club_growth),
    ("E5", experiments::stability_region),
    ("E6", experiments::one_extra_piece),
    ("E7", experiments::policy_insensitivity),
    ("E8", experiments::network_coding),
    ("E9", experiments::borderline),
    ("E10", experiments::abs_bounds),
    ("E11", experiments::lyapunov_drift),
    ("E12", experiments::faster_retry),
];

/// Runs `f` inside a span when tracing.
fn span<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Workload {
    /// The budget of a measured pass.
    pub fn budget(&self) -> Budget {
        let tiny = self.size == Size::Tiny;
        match self.kind {
            Kind::PaperRegen if tiny => Budget {
                horizon: 60.0,
                replications: 1,
            },
            Kind::PaperRegen => Budget {
                horizon: 300.0,
                replications: 2,
            },
            Kind::ReplicationStream => Budget {
                horizon: 50.0,
                replications: if tiny { 200 } else { 10_000 },
            },
            Kind::BigSwarmSharded => Budget {
                horizon: if tiny { 4.0 } else { 20.0 },
                replications: 1,
            },
        }
    }

    /// The budget of each pass of the traced run's checkpoint ablation.
    pub fn ablation_budget(&self) -> Budget {
        Budget {
            replications: if self.size == Size::Tiny { 50 } else { 2000 },
            ..self.budget()
        }
    }

    /// The budget of a set-up pass: one replication at [`SETUP_HORIZON`].
    pub fn setup_budget(&self) -> Budget {
        Budget {
            horizon: SETUP_HORIZON,
            replications: 1,
        }
    }

    fn big_swarm_peers(&self) -> usize {
        match self.size {
            Size::Full => 1_000_000,
            Size::Tiny => 20_000,
        }
    }

    pub fn checkpoint_path(&self) -> PathBuf {
        self.out_dir.join("replication-stream.ckpt")
    }

    fn ndjson_path(&self) -> PathBuf {
        self.out_dir.join("replication-stream.ndjson")
    }

    /// The scenario a session workload runs (resolved from the registry
    /// for replication-stream, built as a spec for big-swarm-sharded).
    pub fn spec(&self) -> Result<ScenarioSpec, String> {
        match self.kind {
            Kind::PaperRegen => Err("paper-regen runs no registry scenario".into()),
            Kind::ReplicationStream => Registry::builtin()
                .resolve("example1-stable")
                .map_err(|e| e.to_string()),
            Kind::BigSwarmSharded => Ok(self.big_swarm_spec()),
        }
    }

    /// `bench_report`'s K = 32 regime: arrivals missing one piece at
    /// peers/10 per unit time, U_s = 1, µ = 0.1, hit-and-run seeds
    /// (γ = 200), η = 1, and the initial peers each missing one piece;
    /// split into 2 shards with synchronization window 0.25.
    fn big_swarm_spec(&self) -> ScenarioSpec {
        let peers = self.big_swarm_peers();
        let missing = |i: usize| PieceSelector::Pieces((0..BIG_K).filter(|&j| j != i).collect());
        let mut s = ScenarioSpec::new("big-swarm", BIG_K);
        s.seed_rate = 1.0;
        s.contact_rate = 0.1;
        s.seed_departure_rate = 200.0;
        s.arrivals = (0..BIG_K)
            .map(|i| ArrivalSpec {
                pieces: missing(i),
                rate: peers as f64 / 10.0 / BIG_K as f64,
            })
            .collect();
        s.initial = (0..BIG_K)
            .map(|i| InitialGroupSpec {
                pieces: missing(i),
                count: peers / BIG_K + usize::from(i < peers % BIG_K),
            })
            .collect();
        s.snapshot_interval = 0.25;
        s.kernel = KernelKind::Turbo;
        s.shards = Some(2);
        s.sync_window = Some(0.25);
        s
    }

    /// Engine workers. replication-stream runs on one: its ~40 µs tasks
    /// leave two workers waiting on each other through the reorder window,
    /// and on a 2-vCPU virtual machine whole runs then moved 2.5x between
    /// quiet and contended minutes.
    fn jobs(&self) -> usize {
        match self.kind {
            Kind::ReplicationStream => 1,
            Kind::PaperRegen | Kind::BigSwarmSharded => JOBS,
        }
    }

    /// The options every session pass hands to `registry::run_with_sink`.
    fn run_options(&self, budget: Budget, mode: PassMode) -> ScenarioRunOptions {
        ScenarioRunOptions {
            replications: budget.replications,
            jobs: self.jobs(),
            seed: self.seed,
            horizon_override: Some(budget.horizon),
            // replication-stream meters every replication, as the CLI's
            // `--metrics` does; the other workloads only on the traced pass.
            metrics: mode.metered || self.kind == Kind::ReplicationStream,
            failure_policy: FailurePolicy::FailFast,
            checkpoint: match (self.kind, mode.checkpoint_every) {
                (Kind::ReplicationStream, Some(every)) => {
                    Some(CheckpointSpec::new(self.checkpoint_path()).with_every(every))
                }
                _ => None,
            },
            ..ScenarioRunOptions::default()
        }
    }

    /// Runs one pass. With a tracer, every call into a layer gets a span.
    pub fn pass(
        &self,
        budget: Budget,
        mode: PassMode,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Pass, String> {
        match self.kind {
            Kind::PaperRegen => Ok(self.paper_pass(budget, &mut tracer)),
            _ => self.session_pass(budget, mode, &mut tracer),
        }
    }

    /// Runs E1–E12 once for each of [`PAPER_SEEDS`] seeds derived from
    /// the workload's seed.
    fn paper_pass(&self, budget: Budget, tracer: &mut Option<&mut Tracer>) -> Pass {
        let start = Instant::now();
        let mut digest = Fnv::new();
        let mut failed = 0;
        for sub in 0..PAPER_SEEDS {
            let config = ExperimentConfig {
                horizon: budget.horizon,
                seed: self.seed.wrapping_mul(PAPER_SEEDS).wrapping_add(sub),
                threads: JOBS,
                replications: budget.replications,
                progress: false,
            };
            for (id, experiment) in EXPERIMENTS {
                let report = span(tracer, &format!("experiments.{id}"), || {
                    std::panic::catch_unwind(|| experiment(&config))
                });
                match report {
                    Ok(report) if report.id == id => digest.update(report.render().as_bytes()),
                    _ => failed += 1,
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let calls = EXPERIMENTS.len() as u64 * PAPER_SEEDS;
        Pass {
            wall_s,
            work: calls,
            work_s: wall_s,
            attempted: calls,
            failed,
            output: Output {
                events: 0,
                transfers: 0,
                digest: digest.0,
            },
            tally: Tally::default(),
            theory: None,
            ndjson_bytes: 0,
        }
    }

    /// One session pass: the same `registry::run_with_sink` call traced or
    /// not. Traced, the call is one span and each `MetricsSink::record`
    /// inside it a child span.
    fn session_pass(
        &self,
        budget: Budget,
        mode: PassMode,
        tracer: &mut Option<&mut Tracer>,
    ) -> Result<Pass, String> {
        let start = Instant::now();
        let clock = tracer.as_ref().map(|t| t.clock());
        let export = if self.kind == Kind::ReplicationStream {
            let file = std::fs::File::create(self.ndjson_path())
                .map_err(|e| format!("cannot create the NDJSON export: {e}"))?;
            let writer = CountingWriter {
                inner: BufWriter::new(file),
                bytes: 0,
            };
            Some(MetricsSink::new(NullSink, writer).quiet())
        } else {
            None
        };
        let mut probe = Probe::new(export, clock);
        let spec = self.spec()?;
        let options = self.run_options(budget, mode);
        let report = match tracer {
            Some(t) => t.span("registry.run_with_sink", |t| {
                let report = registry::run_with_sink(&spec, &options, &mut probe);
                for (s, e) in probe.record_spans.drain(..) {
                    t.record("ndjson.record", s, e);
                }
                report
            }),
            None => registry::run_with_sink(&spec, &options, &mut probe),
        }
        .map_err(|e| e.to_string())?;
        let ndjson_bytes = match probe.export.take() {
            Some(sink) => {
                let (_, writer) = sink.into_parts();
                let bytes = writer.bytes;
                writer
                    .inner
                    .into_inner()
                    .map_err(|e| format!("cannot flush the NDJSON export: {e}"))?;
                bytes
            }
            None => 0,
        };
        let wall_s = start.elapsed().as_secs_f64();

        let tally = probe.tally;
        let stats = tally.stats.as_ref().ok_or("the stream never ended")?;
        let mut digest = Fnv::new();
        digest.update(report.render().as_bytes());
        let work = if self.kind == Kind::ReplicationStream {
            tally.records
        } else {
            tally.events
        };
        Ok(Pass {
            wall_s,
            work,
            work_s: stats.wall_seconds,
            attempted: u64::from(budget.replications),
            // Quarantined and missing replications both lack a record.
            failed: u64::from(budget.replications).saturating_sub(tally.records),
            output: Output {
                events: tally.events,
                transfers: tally.transfers,
                digest: digest.0,
            },
            theory: Some(report.outcome.theory),
            tally,
            ndjson_bytes,
        })
    }

    /// Times the steps `run_with_sink` takes before it streams, one call
    /// at a time: `Registry::resolve` (building the spec, on the big-swarm
    /// pair), `ScenarioSpec::compile` and `SessionBuilder::build`.
    pub fn setup_probe(&self, budget: Budget, tracer: &mut Tracer) -> Result<(), String> {
        let spec = tracer.span("registry.resolve", |_| self.spec())?;
        let scenario = tracer
            .span("registry.compile", |_| spec.compile(0))
            .map_err(|e| e.to_string())?;
        let options = self.run_options(budget, PassMode::SETUP);
        let config = EngineConfig::default()
            .with_replications(options.replications)
            .with_horizon(budget.horizon)
            .with_master_seed(options.seed)
            .with_jobs(options.jobs)
            .with_progress(false)
            .with_metrics(options.metrics)
            .with_failure_policy(options.failure_policy);
        let builder = Session::builder()
            .config(config)
            .workload(EngineWorkload::agent(vec![scenario]));
        tracer
            .span("session.build", |_| builder.build())
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Validates the replication-stream NDJSON export of the last pass
    /// against that pass's tally. The validator parses the whole export
    /// into memory, so it runs in a child process (this binary with
    /// `--validate-export`), and the benchmark's peak resident memory stays
    /// the program's own.
    pub fn check_export(&self, pass: &Pass) -> Result<(), String> {
        if self.kind != Kind::ReplicationStream {
            return Ok(());
        }
        let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
        let child = std::process::Command::new(exe)
            .arg(VALIDATE_FLAG)
            .arg(self.ndjson_path())
            .output()
            .map_err(|e| format!("cannot start the export validator: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        if !child.status.success() {
            return Err(format!(
                "the NDJSON export does not validate: {}",
                String::from_utf8_lossy(&child.stderr).trim()
            ));
        }
        let found: Vec<u64> = stdout
            .split_whitespace()
            .filter_map(|n| n.parse().ok())
            .collect();
        let expected = [
            pass.tally.records,
            pass.output.events,
            pass.output.transfers,
        ];
        if found != expected {
            return Err(format!(
                "NDJSON export holds (records, events, transfers) = {found:?}, the stream delivered {expected:?}"
            ));
        }
        Ok(())
    }
}

/// The flag that makes the benchmark binary validate one NDJSON export.
pub const VALIDATE_FLAG: &str = "--validate-export";

/// Validates the NDJSON export at `path` with `workload::ndjson::validate`
/// and returns its records, events and transfers.
pub fn validate_export(path: &std::path::Path) -> Result<[u64; 3], String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let summary = workload::ndjson::validate(&text).map_err(|e| e.to_string())?;
    Ok([
        summary.replications,
        summary.total_events,
        summary.total_transfers,
    ])
}
