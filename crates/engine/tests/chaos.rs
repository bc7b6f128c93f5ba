//! Chaos suite: the engine's fault-tolerance contract under injected
//! failures.
//!
//! Every test drives the public `Session` API with a deterministic
//! [`FaultPlan`] and asserts the two properties the fault layer guarantees:
//!
//! 1. **Survivor determinism** — replications that don't fail are
//!    bit-identical to a fault-free run, at any `jobs` value, under every
//!    policy (faults are keyed by stream key, and a retried replication
//!    re-runs on the same derived stream).
//! 2. **Clean aborts** — when the session does abort (`FailFast`, an
//!    exhausted quarantine budget, a panicking sink), the panic that
//!    surfaces is the original payload, not a poisoned-mutex cascade, and
//!    every worker (including ones blocked on the reorder-window condvar)
//!    terminates.
//!
//! The checkpoint tests simulate a crash by panicking mid-delivery and then
//! resume from the surviving checkpoint file, asserting the combined run is
//! byte-identical to an uninterrupted one. The tests that take a [`Kind`]
//! run once per workload kind, since every kind streams through the same
//! pipeline and must keep the same contract.

use engine::{
    artifact, AgentScenario, Axis, CodedGridSpec, EngineConfig, Error, FailurePolicy, FaultPlan,
    ReplicationFailure, ReplicationRecord, ReplicationSink, Scenario, ScenarioOutcome, Session,
    SessionBuilder, SessionOutput, StreamPlan, StreamStats, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use swarm::SwarmParams;

/// Collects everything a stream delivers, for byte-level comparison.
#[derive(Debug, Default)]
struct Collector {
    plan: Option<StreamPlan>,
    records: Vec<ReplicationRecord>,
    failures: Vec<ReplicationFailure>,
    stats: Option<StreamStats>,
}

impl ReplicationSink for Collector {
    fn begin(&mut self, plan: &StreamPlan) {
        self.plan = Some(*plan);
    }
    fn record(&mut self, record: &ReplicationRecord) {
        self.records.push(*record);
    }
    fn failure(&mut self, failure: &ReplicationFailure) {
        self.failures.push(failure.clone());
    }
    fn end(&mut self, stats: &StreamStats) {
        self.stats = Some(stats.clone());
    }
}

/// A sink that panics while receiving its `n`-th record (0-based), after
/// forwarding the earlier ones — a deterministic stand-in for a crash in
/// downstream consumer code, positioned in delivery order so it fires at
/// the same frontier at any `jobs` value.
struct PanicAt {
    n: usize,
    inner: Collector,
}

impl ReplicationSink for PanicAt {
    fn begin(&mut self, plan: &StreamPlan) {
        self.inner.begin(plan);
    }
    fn record(&mut self, record: &ReplicationRecord) {
        if self.inner.records.len() == self.n {
            panic!("sink crashed at record {}", self.n);
        }
        self.inner.record(record);
    }
    fn failure(&mut self, failure: &ReplicationFailure) {
        self.inner.failure(failure);
    }
    fn end(&mut self, stats: &StreamStats) {
        self.inner.end(stats);
    }
}

fn example1(lambda0: f64) -> SwarmParams {
    SwarmParams::builder(1)
        .seed_rate(1.0)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(lambda0)
        .build()
        .expect("valid parameters")
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(0, "stable", example1(1.0)),
        Scenario::new(1, "transient", example1(4.0)),
    ]
}

fn config(jobs: usize, policy: FailurePolicy) -> EngineConfig {
    EngineConfig::default()
        .with_replications(6)
        .with_horizon(150.0)
        .with_master_seed(0xC1A05)
        .with_jobs(jobs)
        .with_failure_policy(policy)
}

/// The workload kinds a session streams. Grid workloads replicate CTMC
/// scenarios and coded workloads replicate agent scenarios on the coded
/// kernel.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Ctmc,
    Agent,
    Coded,
}

/// Two scenarios of `kind` with stream keys 0 and 1.
fn workload(kind: Kind) -> Workload {
    match kind {
        Kind::Ctmc => Workload::ctmc(scenarios()),
        Kind::Agent => Workload::agent(vec![
            AgentScenario::new(0, "stable", example1(1.0)),
            AgentScenario::new(1, "transient", example1(4.0)),
        ]),
        Kind::Coded => Workload::coded(&CodedGridSpec::headline(
            Axis::new("f", vec![0.1, 0.9]),
            vec![2],
            vec![4],
            1.0,
        )),
    }
}

fn builder(kind: Kind, jobs: usize, policy: FailurePolicy) -> SessionBuilder {
    Session::builder()
        .config(config(jobs, policy))
        .workload(workload(kind))
}

/// A fault-free stream of `kind`: its output and everything it delivered.
fn fault_free_stream(kind: Kind) -> (SessionOutput, Collector) {
    let mut sink = Collector::default();
    let output = builder(kind, 1, FailurePolicy::FailFast)
        .build()
        .expect("valid session")
        .stream(&mut sink);
    (output, sink)
}

fn session(jobs: usize, policy: FailurePolicy, faults: Option<FaultPlan>) -> Session {
    let mut builder = builder(Kind::Ctmc, jobs, policy);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    builder.build().expect("valid session")
}

/// A per-test temporary file path (the suite runs tests in parallel, so
/// paths embed the test name).
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("engine-chaos-{}-{name}.ckpt", std::process::id()))
}

#[test]
fn quarantine_survivors_are_bit_identical_to_a_fault_free_run() {
    let (_, fault_free) = fault_free_stream(Kind::Ctmc);
    let killed = [(0u64, 2u32), (1, 5)];
    let plan = FaultPlan::new().panic_at(0, 2).panic_at(1, 5);

    let mut reference: Option<Vec<ScenarioOutcome>> = None;
    for jobs in [1, 4, 8] {
        let mut sink = Collector::default();
        let outcomes = session(
            jobs,
            FailurePolicy::Quarantine {
                max_failures: u32::MAX,
            },
            Some(plan.clone()),
        )
        .stream(&mut sink)
        .into_ctmc()
        .expect("ctmc workload");

        // The survivors are exactly the fault-free records minus the two
        // killed stream keys, in the same order.
        let expected: Vec<ReplicationRecord> = fault_free
            .records
            .iter()
            .filter(|r| !killed.contains(&(r.scenario_id, r.replication)))
            .copied()
            .collect();
        assert_eq!(sink.records, expected, "jobs = {jobs}");

        // The failures surface with their stream keys and payloads.
        assert_eq!(sink.failures.len(), 2, "jobs = {jobs}");
        for (failure, key) in sink.failures.iter().zip(killed) {
            assert_eq!((failure.scenario_id, failure.replication), key);
            assert_eq!(failure.attempts, 1);
            assert!(failure.payload.contains("injected fault"));
        }

        // Accounting: the end frame and the aggregates agree.
        let stats = sink.stats.expect("stream ended");
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.delivered, fault_free.records.len() as u64 - 2);
        assert_eq!(outcomes[0].failed_replications, 1);
        assert_eq!(outcomes[1].failed_replications, 1);

        // And the whole aggregate is identical across worker counts.
        match &reference {
            None => reference = Some(outcomes),
            Some(reference) => assert_eq!(reference, &outcomes, "jobs = {jobs}"),
        }
    }
}

#[test]
fn retry_converges_on_transient_faults_and_matches_the_fault_free_run() {
    let (fault_free_output, fault_free) = fault_free_stream(Kind::Ctmc);
    // Two replications fail twice each before succeeding: Retry with three
    // attempts absorbs them completely.
    let plan = FaultPlan::new().transient_at(0, 1, 2).transient_at(1, 4, 2);
    for jobs in [1, 4] {
        let mut sink = Collector::default();
        let output = session(
            jobs,
            FailurePolicy::Retry {
                attempts: 3,
                backoff_ms: 0,
            },
            Some(plan.clone()),
        )
        .stream(&mut sink);
        // Byte-identical to the fault-free run: same records, same
        // aggregates, no failures — the retried attempts reuse the same
        // derived streams.
        assert_eq!(sink.records, fault_free.records, "jobs = {jobs}");
        assert_eq!(output, fault_free_output, "jobs = {jobs}");
        assert!(sink.failures.is_empty());
        let stats = sink.stats.expect("stream ended");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retries, 4, "two faults × two extra attempts each");
    }
}

#[test]
fn retry_exhaustion_quarantines_with_the_attempt_count() {
    let plan = FaultPlan::new().panic_at(0, 3);
    let mut sink = Collector::default();
    session(
        2,
        FailurePolicy::Retry {
            attempts: 2,
            backoff_ms: 0,
        },
        Some(plan),
    )
    .stream(&mut sink);
    assert_eq!(sink.failures.len(), 1);
    assert_eq!(sink.failures[0].attempts, 2);
    assert_eq!(sink.stats.expect("stream ended").retries, 1);
}

#[test]
fn failfast_still_aborts_with_the_original_panic_payload() {
    let plan = FaultPlan::new().panic_at(1, 0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = session(2, FailurePolicy::FailFast, Some(plan)).run();
    }));
    let payload = result.expect_err("the session must abort under FailFast");
    let message = payload
        .downcast_ref::<String>()
        .expect("string panic payload");
    assert!(
        message.contains("injected fault: panic at scenario 1 replication 0"),
        "payload: {message}"
    );
}

#[test]
fn exceeding_the_quarantine_budget_aborts() {
    let plan = FaultPlan::new().panic_at(0, 1).panic_at(0, 4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = session(2, FailurePolicy::Quarantine { max_failures: 1 }, Some(plan)).run();
    }));
    let payload = result.expect_err("two failures exceed a budget of one");
    let message = payload
        .downcast_ref::<String>()
        .expect("string panic payload");
    assert!(message.contains("quarantine budget"), "payload: {message}");
}

/// A panicking sink aborts the whole pipeline cleanly: workers that are
/// mid-task or blocked on the reorder-window condvar all wake up and
/// terminate, and the panic that surfaces is the sink's own payload — not
/// a `PoisonError` unwrap from a worker that found the frontier mutex
/// poisoned. (If shutdown deadlocked, this test would hang rather than
/// fail.)
#[test]
fn sink_panic_terminates_blocked_workers_without_poison_cascades() {
    // Stalls on later replications keep several workers busy or parked at
    // the reorder window while the delivery thread unwinds.
    let plan = FaultPlan::new()
        .stall_at(1, 1, 30)
        .stall_at(1, 2, 30)
        .stall_at(1, 3, 30);
    let mut sink = PanicAt {
        n: 2,
        inner: Collector::default(),
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        session(8, FailurePolicy::FailFast, Some(plan)).stream(&mut sink);
    }));
    let payload = result.expect_err("the sink panic must abort the session");
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("string panic payload");
    assert!(
        message.contains("sink crashed at record 2"),
        "the surfaced panic must be the sink's own, got: {message}"
    );
    // The records delivered before the crash are the fault-free prefix.
    let (_, fault_free) = fault_free_stream(Kind::Ctmc);
    assert_eq!(sink.inner.records, fault_free.records[..2]);
}

/// A `nan` fault makes the replication's classification non-finite; the
/// pipeline must reject it as a typed failure on every workload kind, and
/// leave every other replication untouched.
fn nan_fault_is_rejected(kind: Kind) {
    let (_, fault_free) = fault_free_stream(kind);
    let expected: Vec<ReplicationRecord> = fault_free
        .records
        .iter()
        .filter(|r| (r.scenario_id, r.replication) != (0, 1))
        .copied()
        .collect();
    for jobs in [1, 4] {
        let mut sink = Collector::default();
        builder(
            kind,
            jobs,
            FailurePolicy::Quarantine {
                max_failures: u32::MAX,
            },
        )
        .faults(FaultPlan::new().nan_at(0, 1))
        .build()
        .expect("valid session")
        .stream(&mut sink);

        assert_eq!(sink.failures.len(), 1, "{kind:?}, jobs = {jobs}");
        let failure = &sink.failures[0];
        assert_eq!((failure.scenario_id, failure.replication), (0, 1));
        assert!(
            failure.payload.starts_with("non-finite statistic"),
            "{kind:?}: payload {}",
            failure.payload
        );
        let stats = sink.stats.expect("stream ended");
        assert_eq!(stats.non_finite, 1, "{kind:?}, jobs = {jobs}");
        assert_eq!(stats.failed, 1, "{kind:?}, jobs = {jobs}");
        assert_eq!(sink.records, expected, "{kind:?}, jobs = {jobs}");
    }
}

#[test]
fn a_nan_fault_on_a_ctmc_stream_is_a_typed_non_finite_failure() {
    nan_fault_is_rejected(Kind::Ctmc);
}

#[test]
fn a_nan_fault_on_an_agent_stream_is_a_typed_non_finite_failure() {
    nan_fault_is_rejected(Kind::Agent);
}

/// Crashes a checkpointed run of `kind` while it delivers record
/// `crash_at` (0-based), resumes it, and checks the finished run against an
/// uninterrupted one. With 6 replications per scenario, a `crash_at` that
/// is not a multiple of 6 leaves a frontier that stopped mid-scenario, so
/// the checkpoint carries a partial aggregate.
fn crash_and_resume(kind: Kind) {
    let (uninterrupted, fault_free) = fault_free_stream(kind);
    for (jobs, crash_at) in [(1, 8), (4, 6), (8, 9)] {
        let path = temp_path(&format!("resume-{kind:?}-{jobs}"));
        let _ = std::fs::remove_file(&path);

        // The crashing record is never checkpointed: the file holds the
        // `crash_at`-record completed prefix at any worker count.
        let mut crashing = PanicAt {
            n: crash_at,
            inner: Collector::default(),
        };
        let session = builder(kind, jobs, FailurePolicy::FailFast)
            .checkpoint(engine::CheckpointSpec::new(&path))
            .build()
            .expect("valid session");
        let crash = catch_unwind(AssertUnwindSafe(|| {
            session.stream(&mut crashing);
        }));
        assert!(crash.is_err(), "the run must crash");
        assert!(path.exists(), "the checkpoint must survive the crash");

        // Resume with an identically-configured session and finish.
        let mut resumed_sink = Collector::default();
        let resumed = builder(kind, jobs, FailurePolicy::FailFast)
            .build()
            .expect("valid session")
            .resume_stream(&path, &mut resumed_sink)
            .expect("resume from a matching checkpoint");

        // The combined run is byte-identical to the uninterrupted one, and
        // the resumed tail picks up exactly where the checkpoint left off.
        let context = format!("{kind:?}, jobs = {jobs}, crash at {crash_at}");
        assert_eq!(
            format!("{resumed:?}"),
            format!("{uninterrupted:?}"),
            "{context}"
        );
        assert_eq!(
            resumed_sink.records,
            fault_free.records[crash_at..],
            "{context}"
        );
        if let (SessionOutput::Ctmc(resumed), SessionOutput::Ctmc(uninterrupted)) =
            (&resumed, &uninterrupted)
        {
            assert_eq!(
                artifact::outcomes_csv(resumed),
                artifact::outcomes_csv(uninterrupted)
            );
            assert_eq!(
                artifact::outcomes_json(resumed),
                artifact::outcomes_json(uninterrupted)
            );
        }

        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn a_crashed_run_resumes_from_its_checkpoint_byte_identically() {
    crash_and_resume(Kind::Ctmc);
}

#[test]
fn a_crashed_agent_run_resumes_from_its_checkpoint_byte_identically() {
    crash_and_resume(Kind::Agent);
}

#[test]
fn a_crashed_coded_run_resumes_from_its_checkpoint_byte_identically() {
    crash_and_resume(Kind::Coded);
}

#[test]
fn resuming_under_a_different_configuration_is_a_typed_error() {
    let path = temp_path("digest");
    let _ = std::fs::remove_file(&path);
    // A complete run leaves a final checkpoint behind.
    let _ = Session::builder()
        .config(config(1, FailurePolicy::FailFast))
        .workload(Workload::ctmc(scenarios()))
        .checkpoint(engine::CheckpointSpec::new(&path))
        .build()
        .expect("valid session")
        .run();
    assert!(path.exists());

    // A session with a different master seed must refuse the file.
    let other = Session::builder()
        .config(config(1, FailurePolicy::FailFast).with_master_seed(0xBAD_5EED))
        .workload(Workload::ctmc(scenarios()))
        .build()
        .expect("valid session");
    match other.resume(&path) {
        Err(Error::CheckpointMismatch { .. }) => {}
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}
