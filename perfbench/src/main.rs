//! End-to-end and per-layer benchmark of the swarm-stability reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--size full|tiny]
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then repeats
//! whole passes for `--seconds` seconds, checks that every repeat produced
//! the same output, and prints the end-to-end metrics. With `--trace 1` it
//! runs one untraced and one traced pass plus the layer probes, writes the
//! spans under `--out-dir`, and prints the per-layer metrics. The last
//! line of standard output is always one JSON result object; the exit code
//! is nonzero when any output check failed. `perfbench/run.py` builds this
//! binary and is the usual way to run it (see `perfbench/README.md`).

mod probes;
mod sinks;
mod trace;
mod workloads;

use probes::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use telemetry::Counter;
use trace::Tracer;
use workloads::{Kind, Pass, PassMode, Size, Workload, EXPERIMENTS, SETUP_HORIZON};

/// The end-to-end metrics every `--trace 0` run prints, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every `--trace 1` run prints, with their units.
/// Every `_frac` span share is a self time divided by `trace.wall_s`.
const PER_LAYER: [(&str, &str); 36] = [
    ("experiments.E1_frac", "frac"),
    ("experiments.E2_frac", "frac"),
    ("experiments.E3_frac", "frac"),
    ("experiments.E4_frac", "frac"),
    ("experiments.E5_frac", "frac"),
    ("experiments.E6_frac", "frac"),
    ("experiments.E7_frac", "frac"),
    ("experiments.E8_frac", "frac"),
    ("experiments.E9_frac", "frac"),
    ("experiments.E10_frac", "frac"),
    ("experiments.E11_frac", "frac"),
    ("experiments.E12_frac", "frac"),
    ("registry.compile_frac", "frac"),
    ("session.build_frac", "frac"),
    ("session.stream_frac", "frac"),
    ("session.busy_frac", "frac"),
    ("session.queue_wait_frac", "frac"),
    ("session.reorder_peak", "count"),
    ("session.tasks_per_s", "1/s"),
    ("rng.key_ns", "ns"),
    ("rng.ns_per_word", "ns"),
    ("rng.words_per_event", "words/event"),
    ("kernel.setup_frac", "frac"),
    ("kernel.events_per_s", "1/s"),
    ("kernel.events", "count"),
    ("kernel.useless_frac", "frac"),
    ("kernel.retries_per_event", "1/event"),
    ("kernel.pool_ops_per_event", "1/event"),
    ("sharded.departure_deficit_frac", "frac"),
    ("ndjson.record_frac", "frac"),
    ("ndjson.bytes_per_record", "B"),
    ("checkpoint.frac", "frac"),
    ("checkpoint.bytes_per_write", "B"),
    ("verdict.agree_frac", "frac"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Set-up passes take this share of a timed run's time so far...
const SETUP_SHARE: f64 = 0.1;
/// ...in batches timed as a whole, each at least this many seconds long.
const SETUP_BATCH_S: f64 = 0.02;
/// Set-up batches before the first measured pass.
const FIRST_SETUP_BATCHES: usize = 3;
/// Measured passes per timed run, at least (more while `--seconds` lasts).
const MIN_PASSES: usize = 3;
/// With-and-without pairs of the traced run's checkpoint ablation.
const ABLATION_PAIRS: usize = 5;

struct Args {
    workload: Workload,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_owned(), value);
    }
    let mut take = |key: &str| values.remove(key);
    let name = take("workload").ok_or("--workload is required")?;
    let kind = Kind::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = workloads::KINDS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let seed = take("seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("seconds")
        .ok_or("--seconds is required")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let size = match take("size").as_deref() {
        None | Some("full") => Size::Full,
        Some("tiny") => Size::Tiny,
        Some(other) => return Err(format!("--size must be full or tiny, not `{other}`")),
    };
    let out_dir = PathBuf::from(take("out-dir").unwrap_or_else(|| "perfbench-out".into()));
    if let Some(key) = values.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    Ok(Args {
        workload: Workload {
            kind,
            seed,
            size,
            out_dir,
        },
        seconds,
        trace,
    })
}

/// A run's operation counts, output checks and metrics.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Descriptions of the output checks that failed.
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    fn count(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    /// Records a failed output check; the pass's operations count as
    /// failed.
    fn fail(&mut self, pass: &Pass, error: String) {
        self.errors.push(error);
        self.failed += pass.attempted - pass.failed.min(pass.attempted);
    }

    fn check(&mut self, ok: bool, pass: &Pass, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(pass, what());
        }
    }

    fn check_export(&mut self, w: &Workload, pass: &Pass) {
        if let Err(error) = w.check_export(pass) {
            self.fail(pass, error);
        }
    }

    /// Checks that `pass` reproduced the output of the first pass it is
    /// compared with.
    fn check_repeat(&mut self, first: &mut Option<workloads::Output>, pass: &Pass, what: &str) {
        let expected = *first.get_or_insert(pass.output);
        self.check(pass.output == expected, pass, || {
            format!(
                "{what} output {:?} differs from the first repeat's {expected:?}",
                pass.output
            )
        });
    }

    fn metric(&mut self, name: &'static str, value: f64, table: &[(&'static str, &'static str)]) {
        let unit = table
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every metric is declared with its unit");
        self.metrics.push((name, value, unit));
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result object: the last line of standard output.
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1))
        )
    }
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The set-up passes of a timed run.
#[derive(Default)]
struct SetUps {
    first: Option<workloads::Output>,
    /// Seconds per set-up pass, one value per batch.
    per_pass: Vec<f64>,
    /// Seconds spent in set-up batches so far.
    seconds: f64,
}

impl SetUps {
    fn pass(&mut self, w: &Workload, run: &mut Run) -> Result<(), String> {
        let pass = w.pass(w.setup_budget(), PassMode::SETUP, None)?;
        run.count(&pass);
        run.check_repeat(&mut self.first, &pass, "set-up pass");
        Ok(())
    }

    /// Runs one set-up pass untimed. The first set-up pass after a
    /// measured pass starts from that pass's caches and heap, and on the
    /// big-swarm pair took about half as long again as the ones after it;
    /// the batches after this pass all start from the state a set-up pass
    /// leaves.
    fn warm_up(&mut self, w: &Workload, run: &mut Run) -> Result<(), String> {
        let start = Instant::now();
        self.pass(w, run)?;
        self.seconds += start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Runs set-up passes back to back until they cover
    /// [`SETUP_BATCH_S`], and records the batch's time per pass.
    fn batch(&mut self, w: &Workload, run: &mut Run) -> Result<(), String> {
        let start = Instant::now();
        let mut passes = 0u32;
        loop {
            self.pass(w, run)?;
            passes += 1;
            if start.elapsed().as_secs_f64() >= SETUP_BATCH_S {
                break;
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        self.seconds += seconds;
        self.per_pass.push(seconds / f64::from(passes));
        Ok(())
    }
}

/// Repeats measured passes for `seconds`. Set-up batches run between
/// them, so that set-up and passes sample the same stretch of the host's
/// time.
fn timed_run(w: &Workload, seconds: f64) -> Result<Run, String> {
    let start = Instant::now();
    let mut run = Run::default();
    let mut setups = SetUps::default();
    setups.warm_up(w, &mut run)?;
    for _ in 0..FIRST_SETUP_BATCHES {
        setups.batch(w, &mut run)?;
    }

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut first = None;
    loop {
        let pass = w.pass(w.budget(), PassMode::TIMED, None)?;
        run.count(&pass);
        run.check_repeat(&mut first, &pass, "pass");
        run.check_export(w, &pass);
        walls.push(pass.wall_s);
        rates.push(pass.work as f64 / pass.work_s);
        setups.warm_up(w, &mut run)?;
        while setups.seconds < SETUP_SHARE * start.elapsed().as_secs_f64() {
            setups.batch(w, &mut run)?;
        }
        let next = median(&mut walls.clone()) * (1.0 + SETUP_SHARE);
        if walls.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + next > seconds {
            break;
        }
    }
    let range = |values: &[f64]| {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(0.0, f64::max);
        format!("min {min:.6} s, max {max:.6} s")
    };
    eprintln!(
        "{} set-up batches ({} per set-up), {} measured passes ({} per pass) in {:.3} s",
        setups.per_pass.len(),
        range(&setups.per_pass),
        walls.len(),
        range(&walls),
        start.elapsed().as_secs_f64(),
    );

    run.metric("wall_s", median(&mut walls), &END_TO_END);
    run.metric("setup_s", median(&mut setups.per_pass), &END_TO_END);
    run.metric("ops_per_s", median(&mut rates), &END_TO_END);
    run.metric("peak_rss_mb", peak_rss_mb()?, &END_TO_END);
    Ok(run)
}

/// Per-layer values of a traced run, with each value's base and the
/// metrics this workload does not exercise.
struct Layers {
    values: BTreeMap<&'static str, (f64, String)>,
    not_exercised: Vec<(&'static str, &'static str)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, base: String) {
        self.values.insert(name, (value, base));
    }

    fn ratio(&mut self, name: &'static str, num: f64, den: f64, base: String) {
        let value = if den == 0.0 { 0.0 } else { num / den };
        self.set(name, value, base);
    }
}

fn traced_run(w: &Workload) -> Result<(Run, Tracer, Layers), String> {
    let mut run = Run::default();
    let mut layers = Layers {
        values: BTreeMap::new(),
        not_exercised: Vec::new(),
    };
    let budget = w.budget();
    let tiny = w.size == Size::Tiny;

    let base = w.pass(budget, PassMode::TIMED, None)?;
    run.count(&base);
    run.check_export(w, &base);

    let mut tracer = Tracer::new();
    let root = tracer.open("pass");
    let mode = PassMode {
        metered: true,
        ..PassMode::TIMED
    };
    let traced = w.pass(budget, mode, Some(&mut tracer))?;
    tracer.close(root);
    if w.kind.is_session() {
        tracer.span("probe.setup", |t| w.setup_probe(budget, t))?;
    }
    run.count(&traced);
    let checkpoint_bytes = if w.kind == Kind::ReplicationStream {
        std::fs::metadata(w.checkpoint_path())
            .map_err(|e| format!("no checkpoint after the traced pass: {e}"))?
            .len()
    } else {
        0
    };
    let mut first = Some(base.output);
    run.check_repeat(&mut first, &traced, "traced pass");
    run.check_export(w, &traced);
    let tally = &traced.tally;
    if w.kind.is_session() {
        run.check(
            tally.identity_violations == 0 && tally.metered == tally.records,
            &traced,
            || {
                format!(
                    "{} of {} metered records break the counter partition ({} records)",
                    tally.identity_violations, tally.metered, tally.records
                )
            },
        );
    }

    let (keys, words) = if tiny {
        (10_000, 100_000)
    } else {
        (200_000, 4_000_000)
    };
    let rng = tracer.span("probe.rng", |_| probes::rng_cost(w.seed, keys, words));

    let wall = traced.wall_s;
    let wall_base = || format!("of trace.wall_s = {wall} s");
    for (i, (id, _)) in EXPERIMENTS.iter().enumerate() {
        let name = PER_LAYER[i].0;
        let seconds = tracer.total_self_seconds(&format!("experiments.{id}"));
        layers.set(name, seconds / wall, format!("{seconds} s {}", wall_base()));
    }
    let compile = tracer.total_self_seconds("registry.resolve")
        + tracer.total_self_seconds("registry.compile");
    layers.set(
        "registry.compile_frac",
        compile / wall,
        format!("{compile} s {}", wall_base()),
    );
    let build = tracer.total_self_seconds("session.build");
    layers.set(
        "session.build_frac",
        build / wall,
        format!("{build} s {}", wall_base()),
    );
    let record_s = tracer.total_seconds("ndjson.record");
    let stream_s = tally.stats.as_ref().map_or(0.0, |s| s.wall_seconds) - record_s;
    layers.set(
        "session.stream_frac",
        stream_s / wall,
        format!(
            "{stream_s} s of StreamStats::wall_seconds outside MetricsSink::record {}",
            wall_base()
        ),
    );
    layers.set(
        "ndjson.record_frac",
        record_s / wall,
        format!("{record_s} s in MetricsSink::record {}", wall_base()),
    );

    let (busy, wait, peak, tasks_per_s) = match &tally.stats {
        Some(stats) => {
            let capacity = stats.workers as f64 * stats.wall_seconds * 1e9;
            let task_s = stats.task_nanos.sum() as f64 * 1e-9;
            (
                (stats.task_nanos.sum() as f64, capacity),
                (stats.queue_wait_nanos.sum() as f64, capacity),
                stats.max_pending as f64,
                (stats.task_nanos.count() as f64, task_s),
            )
        }
        None => ((0.0, 0.0), (0.0, 0.0), 0.0, (0.0, 0.0)),
    };
    layers.ratio(
        "session.busy_frac",
        busy.0,
        busy.1,
        format!("{} task ns of workers x stream ns = {}", busy.0, busy.1),
    );
    layers.ratio(
        "session.queue_wait_frac",
        wait.0,
        wait.1,
        format!(
            "{} queue-wait ns of workers x stream ns = {}",
            wait.0, wait.1
        ),
    );
    layers.set("session.reorder_peak", peak, "max_pending records".into());
    layers.ratio(
        "session.tasks_per_s",
        tasks_per_s.0,
        tasks_per_s.1,
        format!(
            "{} tasks in {} s of task time",
            tasks_per_s.0, tasks_per_s.1
        ),
    );
    layers.set(
        "rng.key_ns",
        rng.key_ns,
        format!("median of 5 x {keys} replication_rng calls"),
    );
    layers.set(
        "rng.ns_per_word",
        rng.ns_per_word,
        format!("median of 5 x {words} next_u64 draws"),
    );

    let counters = &tally.counters;
    let events = counters.event_total() as f64;
    let contacts = counters.get(Counter::Contacts) as f64;
    layers.ratio(
        "kernel.useless_frac",
        counters.get(Counter::UselessContacts) as f64,
        contacts,
        format!("of {contacts} contacts in the metered pass"),
    );
    layers.ratio(
        "kernel.retries_per_event",
        counters.get(Counter::RejectionRetries) as f64,
        events,
        format!("of {events} metered events"),
    );
    layers.ratio(
        "kernel.pool_ops_per_event",
        counters.get(Counter::PoolOps) as f64,
        events,
        format!("of {events} metered events"),
    );
    let agree: u64 = match traced.theory {
        Some(theory) => tally
            .classes
            .iter()
            .filter(|(class, _)| engine::verdict_agrees(theory, *class))
            .map(|(_, n)| n)
            .sum(),
        None => 0,
    };
    layers.ratio(
        "verdict.agree_frac",
        agree as f64,
        tally.records as f64,
        format!("of {} replications", tally.records),
    );
    layers.ratio(
        "ndjson.bytes_per_record",
        traced.ndjson_bytes as f64,
        tally.records as f64,
        format!(
            "{} bytes over {} records",
            traced.ndjson_bytes, tally.records
        ),
    );
    layers.set(
        "checkpoint.bytes_per_write",
        checkpoint_bytes as f64,
        "size of the final checkpoint file of the traced pass".into(),
    );

    let mut kernel = None;
    if w.kind.is_session() {
        let spec = w.spec()?;
        let mut scenario = spec.compile(0).map_err(|e| e.to_string())?;
        scenario.shards = None;
        let cost = tracer.span("probe.kernel", |_| {
            probes::kernel_cost(
                &scenario,
                w.seed,
                budget.replications,
                budget.horizon,
                SETUP_HORIZON,
            )
        })?;
        run.check(
            cost.counted_events == cost.events
                && cost.metered_events == cost.events
                && cost.metered.event_total() == cost.events,
            &traced,
            || {
                format!(
                    "direct kernel runs disagree: plain {} events, counting RNG {}, metered {} (counters {})",
                    cost.events,
                    cost.counted_events,
                    cost.metered_events,
                    cost.metered.event_total()
                )
            },
        );
        if w.kind != Kind::BigSwarmSharded {
            run.check(cost.events == traced.output.events, &traced, || {
                format!(
                    "direct kernel runs made {} events, the session {}",
                    cost.events, traced.output.events
                )
            });
        }
        kernel = Some(cost);
    }
    let cost = kernel.clone().unwrap_or_default();
    layers.ratio(
        "kernel.setup_frac",
        cost.setup_s,
        cost.run_s,
        format!(
            "{} s at horizon {SETUP_HORIZON} of {} s direct run_with_scratch",
            cost.setup_s, cost.run_s
        ),
    );
    layers.ratio(
        "kernel.events_per_s",
        cost.events as f64,
        cost.run_s,
        format!(
            "{} events in {} s direct run_with_scratch",
            cost.events, cost.run_s
        ),
    );
    layers.set(
        "kernel.events",
        cost.events as f64,
        "direct run_with_scratch events".into(),
    );
    layers.ratio(
        "rng.words_per_event",
        cost.words as f64,
        cost.counted_events as f64,
        format!("{} words over {} events", cost.words, cost.counted_events),
    );
    let unsharded = cost.metered.get(Counter::Departures) as f64;
    let sharded = counters.get(Counter::Departures) as f64;
    layers.ratio(
        "sharded.departure_deficit_frac",
        unsharded - sharded,
        unsharded,
        format!("session {sharded} vs unsharded direct {unsharded} departures"),
    );

    // The checkpoint ablation: pairs of passes with a checkpoint at the
    // CLI's cadence and without one, in alternating order.
    let mut shares = Vec::new();
    if w.kind == Kind::ReplicationStream {
        let budget = w.ablation_budget();
        let with = PassMode {
            metered: false,
            checkpoint_every: Some(workloads::CLI_CHECKPOINT_EVERY),
        };
        let without = PassMode {
            checkpoint_every: None,
            ..with
        };
        let mut first = None;
        let mut stream_s = |mode| -> Result<f64, String> {
            let pass = w.pass(budget, mode, None)?;
            run.count(&pass);
            run.check_repeat(&mut first, &pass, "checkpoint ablation pass");
            Ok(pass.work_s)
        };
        tracer.span("probe.checkpoint_ablation", |_| -> Result<(), String> {
            for pair in 0..ABLATION_PAIRS {
                let (with_s, without_s) = if pair % 2 == 0 {
                    let with_s = stream_s(with)?;
                    (with_s, stream_s(without)?)
                } else {
                    let without_s = stream_s(without)?;
                    (stream_s(with)?, without_s)
                };
                shares.push((with_s - without_s) / with_s);
            }
            Ok(())
        })?;
    }
    layers.set(
        "checkpoint.frac",
        if shares.is_empty() {
            0.0
        } else {
            median(&mut shares)
        },
        format!(
            "median over {ABLATION_PAIRS} pairs of (stream time with minus without a checkpoint every {} record) / with, {} replications",
            workloads::CLI_CHECKPOINT_EVERY,
            w.ablation_budget().replications
        ),
    );
    layers.set("trace.wall_s", wall, "traced pass, set-up included".into());
    layers.set(
        "trace.overhead_frac",
        (wall - base.wall_s) / base.wall_s,
        format!("traced {wall} s vs untraced {} s", base.wall_s),
    );

    let not_session = "paper-regen calls workload::experiments only; the sessions inside it are not visible to the benchmark";
    let no_sink = "this workload writes no NDJSON export or checkpoint";
    let reasons: &[(&str, &str)] = match w.kind {
        Kind::PaperRegen => &[
            ("registry.", not_session),
            ("session.", not_session),
            ("kernel.", not_session),
            ("rng.words_per_event", not_session),
            ("sharded.", not_session),
            ("ndjson.", not_session),
            ("checkpoint.", not_session),
            ("verdict.", not_session),
        ],
        Kind::ReplicationStream => &[
            ("experiments.", "not a paper-regen workload"),
            (
                "sharded.",
                "unsharded; reported as the direct-run comparison",
            ),
        ],
        Kind::BigSwarmSharded => &[
            ("experiments.", "not a paper-regen workload"),
            ("ndjson.", no_sink),
            ("checkpoint.", no_sink),
        ],
    };
    for &(name, _) in &PER_LAYER {
        if let Some((_, reason)) = reasons.iter().find(|(p, _)| name.starts_with(p)) {
            layers.not_exercised.push((name, reason));
        }
    }
    for &(name, _) in &PER_LAYER {
        let (value, _) = layers
            .values
            .get(name)
            .ok_or_else(|| format!("per-layer metric {name} was not computed"))?;
        run.metric(name, *value, &PER_LAYER);
    }
    Ok((run, tracer, layers))
}

fn write_trace(w: &Workload, tracer: &Tracer, layers: &Layers) -> Result<PathBuf, String> {
    let name = workloads::KINDS
        .iter()
        .find(|(_, k)| *k == w.kind)
        .map(|(n, _)| *n)
        .expect("every kind is named");
    let path = w
        .out_dir
        .join(format!("trace-{name}-seed{}.ndjson", w.seed));
    let mut layers_json = String::new();
    for (i, (metric, (value, base))) in layers.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            layers_json,
            "{sep}\"{metric}\":{{\"value\":{value},\"base\":\"{base}\"}}"
        );
    }
    let mut missing = String::new();
    for (i, (metric, reason)) in layers.not_exercised.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(missing, "{sep}\"{metric}\":\"{reason}\"");
    }
    let tail = format!(
        "{{\"type\":\"layers\",\"metrics\":{{{layers_json}}},\"not_exercised\":{{{missing}}}}}\n"
    );
    tracer
        .write(&path)
        .and_then(|()| {
            use std::io::Write as _;
            std::fs::OpenOptions::new()
                .append(true)
                .open(&path)?
                .write_all(tail.as_bytes())
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(workloads::VALIDATE_FLAG) {
        let path = PathBuf::from(argv.get(2).map_or("", String::as_str));
        return match workloads::validate_export(&path) {
            Ok([records, events, transfers]) => {
                println!("{records} {events} {transfers}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let outcome = if args.trace {
        traced_run(w).and_then(|(run, tracer, layers)| {
            let path = write_trace(w, &tracer, &layers)?;
            eprintln!("spans written to {}", path.display());
            let mut by_reason: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
            for (name, reason) in &layers.not_exercised {
                by_reason.entry(reason).or_default().push(name);
            }
            for (reason, names) in by_reason {
                eprintln!("not exercised ({reason}): {}", names.join(", "));
            }
            Ok(run)
        })
    } else {
        timed_run(w, args.seconds)
    };
    let run = match outcome {
        Ok(run) => run,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &run.metrics {
        eprintln!("{name} = {value} {unit}");
    }
    for error in &run.errors {
        eprintln!("output check failed: {error}");
    }
    let finite = run.metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not finite");
        return ExitCode::FAILURE;
    }
    println!("{}", run.json());
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
