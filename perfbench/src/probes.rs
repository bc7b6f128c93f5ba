//! Layer probes of the traced run: the RNG microbench and direct kernel
//! runs on a workload's own scenario.

use engine::rng::replication_rng;
use engine::AgentScenario;
use rand::RngCore;
use std::hint::black_box;
use std::time::Instant;
use swarm::sim::SimScratch;
use telemetry::{CounterRecorder, CounterSet};

/// Timed repeats of each microbench; the median is reported.
const REPEATS: usize = 5;

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Cost of the production replication stream, split into key set-up and
/// word draws.
#[derive(Debug, Clone, Copy)]
pub struct RngCost {
    /// Nanoseconds per `replication_rng` call (no words drawn).
    pub key_ns: f64,
    /// Nanoseconds per `next_u64` on one stream, output folded into a
    /// checksum.
    pub ns_per_word: f64,
}

/// Times `replication_rng` construction and `next_u64` draws separately,
/// `keys` constructions and `words` draws per repeat.
pub fn rng_cost(seed: u64, keys: u64, words: u64) -> RngCost {
    let mut key_ns = Vec::with_capacity(REPEATS);
    let mut word_ns = Vec::with_capacity(REPEATS);
    for repeat in 0..REPEATS as u64 {
        let start = Instant::now();
        for replication in 0..keys {
            black_box(replication_rng(
                black_box(seed),
                repeat,
                black_box(replication),
            ));
        }
        key_ns.push(start.elapsed().as_nanos() as f64 / keys as f64);

        let mut rng = replication_rng(seed, repeat, 0);
        let start = Instant::now();
        let mut checksum = 0u64;
        for _ in 0..words {
            checksum = checksum.rotate_left(1) ^ rng.next_u64();
        }
        black_box(checksum);
        word_ns.push(start.elapsed().as_nanos() as f64 / words as f64);
    }
    RngCost {
        key_ns: median(&mut key_ns),
        ns_per_word: median(&mut word_ns),
    }
}

/// An `RngCore` that counts the 64-bit words drawn through it and passes
/// every call to the wrapped generator unchanged, so the stream is the
/// wrapped generator's own.
pub struct CountingRng<R> {
    inner: R,
    pub words: u64,
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
    }
}

/// Direct kernel runs of every replication of a scenario, unsharded.
#[derive(Debug, Clone, Default)]
pub struct KernelCost {
    /// Seconds of the plain `run_with_scratch` runs at the workload's
    /// horizon.
    pub run_s: f64,
    /// Seconds of the same runs at the set-up horizon (population and
    /// state build).
    pub setup_s: f64,
    /// Events of the plain runs.
    pub events: u64,
    /// Events of the runs through [`CountingRng`] (must equal `events`).
    pub counted_events: u64,
    /// Words the counting runs drew.
    pub words: u64,
    /// Counters of `run_metered` runs, and their events.
    pub metered: CounterSet,
    pub metered_events: u64,
}

/// Runs replications `0..replications` of `scenario` (its shard setting
/// ignored) directly on the kernel, on the same streams the engine gives
/// them: plain, at the set-up horizon, through a counting RNG, and metered.
pub fn kernel_cost(
    scenario: &AgentScenario,
    seed: u64,
    replications: u32,
    horizon: f64,
    setup_horizon: f64,
) -> Result<KernelCost, String> {
    let sim = scenario.build_sim().map_err(|e| e.to_string())?;
    let initial = scenario.initial_population();
    let flash = &scenario.flash;
    let mut scratch = SimScratch::new();
    let mut cost = KernelCost::default();
    let stream = |r: u32| replication_rng(seed, scenario.id, u64::from(r));

    let start = Instant::now();
    for r in 0..replications {
        let result = sim
            .run_with_scratch(&initial, flash, setup_horizon, &mut stream(r), &mut scratch)
            .map_err(|e| e.to_string())?;
        scratch.recycle(result);
    }
    cost.setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for r in 0..replications {
        let result = sim
            .run_with_scratch(&initial, flash, horizon, &mut stream(r), &mut scratch)
            .map_err(|e| e.to_string())?;
        cost.events += result.events;
        scratch.recycle(result);
    }
    cost.run_s = start.elapsed().as_secs_f64();

    for r in 0..replications {
        let mut rng = CountingRng {
            inner: stream(r),
            words: 0,
        };
        let result = sim
            .run_with_scratch(&initial, flash, horizon, &mut rng, &mut scratch)
            .map_err(|e| e.to_string())?;
        cost.counted_events += result.events;
        cost.words += rng.words;
        scratch.recycle(result);
    }

    for r in 0..replications {
        let mut recorder = CounterRecorder::new();
        let result = sim
            .run_metered(
                &initial,
                flash,
                horizon,
                &mut stream(r),
                &mut scratch,
                &mut recorder,
            )
            .map_err(|e| e.to_string())?;
        cost.metered.merge(&recorder.counters);
        cost.metered_events += result.events;
        scratch.recycle(result);
    }
    Ok(cost)
}
