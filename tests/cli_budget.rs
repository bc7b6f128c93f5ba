//! `run_experiments` rejects a budget it cannot honour with exit 1 and the
//! usage text, before any simulation starts: zero replications (the engine
//! would silently run one) and a horizon that is zero or not finite (the
//! engine would panic, or run until the event safety valve).

use std::process::{Command, Output};

fn run_experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .output()
        .expect("run_experiments starts")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = run_experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn zero_replications_are_a_usage_error() {
    for args in [
        &["--scenario", "flash-crowd", "--replications", "0"][..],
        &["quick", "--replications", "0"][..],
    ] {
        assert_rejected(args, "--replications: must be at least 1");
        assert_rejected(args, "usage: run_experiments");
    }
}

#[test]
fn zero_or_infinite_horizon_flags_are_usage_errors() {
    for horizon in ["0", "-5", "inf", "NaN"] {
        assert_rejected(
            &["--scenario", "flash-crowd", "--horizon", horizon],
            "--horizon: must be a finite positive time",
        );
    }
}

#[test]
fn a_scenario_file_with_a_zero_or_infinite_horizon_is_an_error_not_a_panic() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, horizon) in [("zero", "0"), ("inf", r#""inf""#)] {
        let path = dir.join(format!("cli_budget_horizon_{name}.json"));
        std::fs::write(
            &path,
            format!(
                r#"{{"name":"h","num_pieces":2,"horizon":{horizon},
                    "arrivals":[{{"pieces":"empty","rate":1}}]}}"#
            ),
        )
        .unwrap();
        let out = run_experiments(&["--scenario", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("`horizon`"), "{name}: {stderr}");
    }
}
