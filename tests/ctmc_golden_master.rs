//! Golden master for the exact CTMC simulations and the experiment reports:
//! bit-exact digests of trajectories and of the rendered E1–E12 reports,
//! pinned across commits.
//!
//! The `--jobs` determinism checks compare two runs of one binary; they
//! cannot see a change that moves every run the same way. These digests can:
//! a refactor of the generator, the Gillespie loop or the rate formula that
//! changes one rate by one ulp, the order of the candidate transitions, or
//! which candidates are dropped as self-loops, changes a digest here. So does
//! a demo trajectory that draws from another stream or lands in another row
//! when the experiments run it on several threads.
//!
//! When a change is *meant* to move trajectories, rerun this test and copy
//! the `actual` digests from the failure messages, saying why in the commit.

use p2p_stability::engine::rng::replication_rng;
use p2p_stability::markov::gillespie::{ObserverAction, Simulator, StopRule};
use p2p_stability::markov::SamplePath;
use p2p_stability::pieceset::PieceId;
use p2p_stability::swarm::mu_infinity::{MuInfinityProcess, MuInfinityState};
use p2p_stability::swarm::{SwarmModel, SwarmParams, SwarmState};
use p2p_stability::workload::experiments::{self, ExperimentConfig};
use p2p_stability::workload::scenario;
use p2p_stability::workload::ExperimentReport;

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// Digest of every recorded `(time, value)` point of a path, bit for bit.
fn path_digest(path: &SamplePath) -> u64 {
    let mut h = Fnv::new();
    h.u64(path.len() as u64);
    for (&t, &v) in path.times().iter().zip(path.values()) {
        h.f64(t);
        h.f64(v);
    }
    h.f64(path.end_time());
    h.0
}

#[track_caller]
fn assert_digest(name: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{name}: digest moved (actual {actual:#018x}, pinned {expected:#018x})"
    );
}

fn peer_count_digest(params: SwarmParams, initial: Option<(usize, u32)>, horizon: f64) -> u64 {
    let model = SwarmModel::new(params);
    let start = match initial {
        Some((piece, n)) => model.one_club_state(PieceId::new(piece), n),
        None => model.empty_state(),
    };
    let mut rng = replication_rng(0x60_1D, 13, 0);
    path_digest(&model.simulate_peer_count(start, horizon, &mut rng))
}

#[test]
fn k1_finite_gamma_peer_count_path() {
    // Example 1 below its threshold U_s/(1 − µ/γ) = 2.
    let params = scenario::example1(1.5, 1.0, 1.0, 2.0).unwrap();
    assert_digest(
        "K = 1, γ = 2",
        peer_count_digest(params, None, 400.0),
        0x550a_9729_2da1_fbce,
    );
}

#[test]
fn k3_infinite_gamma_peer_count_path() {
    // γ = ∞: a transfer that completes a collection is a departure.
    let params = scenario::example3([1.0, 0.6, 1.4], 1.5, f64::INFINITY).unwrap();
    assert!(params.departs_immediately());
    assert_digest(
        "K = 3, γ = ∞",
        peer_count_digest(params, Some((1, 12)), 300.0),
        0x5f26_9cb5_21e5_cbe7,
    );
}

#[test]
fn k4_two_gifted_types_peer_count_path() {
    // Example 2: arrivals of types {1,2} and {3,4}, no seed, γ = ∞.
    let params = scenario::example2(1.5, 1.0, 1.0).unwrap();
    assert_digest(
        "K = 4, E2",
        peer_count_digest(params, Some((0, 20)), 200.0),
        0x3e65_241a_be3f_2c4c,
    );
}

#[test]
fn k4_every_visited_state() {
    // The full state after every jump, not only the peer count.
    let params = scenario::example2(1.0, 1.5, 1.0).unwrap();
    let model = SwarmModel::new(params);
    let mut rng = replication_rng(0x60_1D, 14, 0);
    let mut h = Fnv::new();
    let run = Simulator::new(&model).run_with_observer(
        model.one_club_state(PieceId::new(3), 8),
        StopRule::time_or_events(150.0, 20_000),
        &mut rng,
        |t, s: &SwarmState| {
            h.f64(t);
            for (c, n) in s.occupied_types() {
                h.u64(c.bits());
                h.u64(u64::from(n));
            }
            ObserverAction::Continue
        },
    );
    h.u64(run.events);
    h.f64(run.final_time);
    assert_digest("K = 4, visited states", h.0, 0xbe59_73b1_9837_e50b);
}

#[test]
fn mu_infinity_run_with_its_self_loop() {
    // The top layer's Z = 0 candidate leaves the state unchanged; the
    // simulator must drop it before summing the rates.
    let process = MuInfinityProcess::new(3, 1.0).unwrap();
    let mut rng = replication_rng(0x60_1D, 0xE9, 0);
    let run = Simulator::new(&process)
        .observe(|s| match s {
            MuInfinityState::Empty => 0.0,
            MuInfinityState::Uniform { peers, pieces } => (*peers * 8 + *pieces as u64) as f64,
        })
        .run(
            MuInfinityState::Empty,
            StopRule::time_or_events(20_000.0, 40_000),
            &mut rng,
        );
    let mut h = Fnv::new();
    h.u64(path_digest(&run.path));
    h.u64(run.events);
    h.f64(run.final_time);
    assert_digest("µ = ∞, K = 3", h.0, 0xe736_251c_7be5_c866);
}

/// The configuration every rendered report below is pinned at.
fn report_config(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        horizon: 120.0,
        seed: 0x60_1D,
        threads,
        replications: 1,
        progress: false,
    }
}

type Experiment = fn(&ExperimentConfig) -> ExperimentReport;

/// Pinned digests of every rendered report at `report_config`:
/// `REPORTS[i]` is E(i + 1).
const REPORTS: [(Experiment, u64); 12] = [
    (experiments::example1, 0x68d5_82e9_ff3a_0935),
    (experiments::example2, 0xba38_21b3_b29c_7b82),
    (experiments::example3, 0xcd5f_cd6e_9243_233f),
    (experiments::one_club_growth, 0xb8b3_4ac1_3b43_fdb5),
    (experiments::stability_region, 0x9623_2e2c_c636_c8a4),
    (experiments::one_extra_piece, 0x8319_3d95_c92a_e463),
    (experiments::policy_insensitivity, 0x3a7b_fc7b_d657_52ff),
    (experiments::network_coding, 0x8c18_2c71_8831_9afb),
    (experiments::borderline, 0xf87c_17bb_4b80_3df1),
    (experiments::abs_bounds, 0xc6b4_5a0d_3266_a91f),
    (experiments::lyapunov_drift, 0x4961_b9b7_b9f7_db0b),
    (experiments::faster_retry, 0x7004_97e0_396b_7869),
];

/// Renders the reports `REPORTS[i]` for each `i` in `which` and lists every
/// digest that differs from its pinned value.
fn moved_reports(which: &[usize], threads: usize) -> Vec<String> {
    let config = report_config(threads);
    let mut moved = Vec::new();
    for &i in which {
        let (experiment, expected) = REPORTS[i];
        let report = experiment(&config);
        let mut h = Fnv::new();
        h.bytes(report.render().as_bytes());
        if h.0 != expected {
            moved.push(format!(
                "{} at threads = {threads}: actual {:#018x}",
                report.id, h.0
            ));
        }
    }
    moved
}

#[test]
fn rendered_ctmc_reports() {
    // E1–E6 and E9: the sweeps and the exact CTMC runs.
    let moved = moved_reports(&[0, 1, 2, 3, 4, 5, 8], 2);
    assert!(moved.is_empty(), "rendered reports moved: {moved:?}");
}

#[test]
fn rendered_demo_reports() {
    // E7, E8 and E10–E12: the agent, coded and analytic reports.
    let moved = moved_reports(&[6, 7, 9, 10, 11], 2);
    assert!(moved.is_empty(), "rendered reports moved: {moved:?}");
}

#[test]
fn demo_reports_do_not_depend_on_the_thread_count() {
    // E4, E7, E8, E9 and E12 run their independent demo trajectories on
    // `threads` workers; each report has one digest at any worker count.
    let moved: Vec<String> = [1, 2, 8]
        .into_iter()
        .flat_map(|threads| moved_reports(&[3, 6, 7, 8, 11], threads))
        .collect();
    assert!(moved.is_empty(), "rendered reports moved: {moved:?}");
}
