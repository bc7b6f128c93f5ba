//! Empirical hitting-time and return-time statistics.
//!
//! Theorem 14 is phrased in terms of the mean time to reach the empty state;
//! the borderline analysis of Section VIII-D distinguishes null recurrence
//! (returns are certain but their mean time is infinite) from positive
//! recurrence. Finite simulations cannot prove either, but the empirical
//! distribution of return times is the right diagnostic: positive-recurrent
//! chains produce return times with a stable empirical mean as the horizon
//! grows, null-recurrent chains produce a mean dominated by a few enormous
//! excursions.

use crate::gillespie::{ObserverAction, Simulator, StopRule};
use crate::Ctmc;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Summary of the excursions of a scalar observable above a level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExcursionStats {
    /// Number of completed excursions (level upcrossing → next return).
    pub completed: usize,
    /// Mean length of completed excursions.
    pub mean_length: f64,
    /// Maximum completed excursion length.
    pub max_length: f64,
    /// Median completed excursion length.
    pub median_length: f64,
    /// Length of the excursion in progress at the end of the observation
    /// window, if the path ended above the level.
    pub open_excursion: Option<f64>,
    /// Fraction of the total observation time spent above the level.
    pub fraction_above: f64,
}

impl ExcursionStats {
    /// The ratio of the maximum to the median excursion length — a crude
    /// heavy-tail indicator (null-recurrent chains produce very large values
    /// as the horizon grows; positive-recurrent chains keep it moderate).
    #[must_use]
    pub fn max_to_median(&self) -> f64 {
        if self.median_length > 0.0 {
            self.max_length / self.median_length
        } else {
            f64::INFINITY
        }
    }
}

/// Computes excursion statistics of a recorded sample path above `level`.
#[must_use]
pub fn excursions_above(path: &crate::path::ScalarPath, level: f64) -> ExcursionStats {
    let times = path.times();
    let values = path.values();
    let mut lengths = Vec::new();
    let mut start: Option<f64> = if values[0] > level {
        Some(times[0])
    } else {
        None
    };
    for i in 1..times.len() {
        let above = values[i] > level;
        match (start, above) {
            (None, true) => start = Some(times[i]),
            (Some(s), false) => {
                lengths.push(times[i] - s);
                start = None;
            }
            _ => {}
        }
    }
    let open_excursion = start.map(|s| path.end_time() - s);
    let completed = lengths.len();
    let mean_length = if completed == 0 {
        0.0
    } else {
        lengths.iter().sum::<f64>() / completed as f64
    };
    let max_length = lengths.iter().copied().fold(0.0_f64, f64::max);
    let median_length = if completed == 0 {
        0.0
    } else {
        let mut sorted = lengths.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite lengths"));
        sorted[completed / 2]
    };
    ExcursionStats {
        completed,
        mean_length,
        max_length,
        median_length,
        open_excursion,
        fraction_above: 1.0 - path.fraction_at_or_below(level),
    }
}

/// Result of repeatedly measuring the hitting time of a target set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HittingTimes {
    /// Hitting times of the trials that reached the target.
    pub hits: Vec<f64>,
    /// Number of trials that were censored at the deadline without hitting.
    pub censored: usize,
    /// The deadline used.
    pub deadline: f64,
}

impl HittingTimes {
    /// Fraction of trials that reached the target before the deadline.
    #[must_use]
    pub fn hit_fraction(&self) -> f64 {
        let total = self.hits.len() + self.censored;
        if total == 0 {
            0.0
        } else {
            self.hits.len() as f64 / total as f64
        }
    }

    /// Mean hitting time among the trials that hit (ignores censored trials,
    /// so it is an underestimate when censoring occurred).
    #[must_use]
    pub fn mean_hit_time(&self) -> f64 {
        if self.hits.is_empty() {
            f64::INFINITY
        } else {
            self.hits.iter().sum::<f64>() / self.hits.len() as f64
        }
    }

    /// Largest observed hitting time (0 if none hit).
    #[must_use]
    pub fn max_hit_time(&self) -> f64 {
        self.hits.iter().copied().fold(0.0_f64, f64::max)
    }
}

/// Estimates the hitting time of `target` from `initial` by running
/// `trials` independent simulations, each censored at `deadline`.
pub fn estimate_hitting_time<M, F, R>(
    model: &M,
    initial: &M::State,
    target: F,
    trials: usize,
    deadline: f64,
    rng: &mut R,
) -> HittingTimes
where
    M: Ctmc,
    F: Fn(&M::State) -> bool,
    R: Rng + ?Sized,
{
    let mut hits = Vec::new();
    let mut censored = 0;
    for _ in 0..trials {
        if target(initial) {
            hits.push(0.0);
            continue;
        }
        let mut hit_at: Option<f64> = None;
        let sim = Simulator::new(model);
        let run =
            sim.run_with_observer(initial.clone(), StopRule::at_time(deadline), rng, |t, s| {
                if target(s) {
                    hit_at = Some(t);
                    ObserverAction::Stop
                } else {
                    ObserverAction::Continue
                }
            });
        match hit_at {
            Some(t) => hits.push(t),
            None => {
                // Absorption without reaching the target also counts as censored.
                let _ = run;
                censored += 1;
            }
        }
    }
    HittingTimes {
        hits,
        censored,
        deadline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::ScalarPath;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Mm1 {
        lambda: f64,
        mu: f64,
    }
    impl Ctmc for Mm1 {
        type State = u64;
        type Jump = u64;
        fn transitions(&self, s: &u64, out: &mut Vec<(u64, f64)>) {
            out.push((s + 1, self.lambda));
            if *s > 0 {
                out.push((s - 1, self.mu));
            }
        }
        fn apply(&self, s: &mut u64, next: &u64) {
            *s = *next;
        }
    }

    #[test]
    fn excursion_statistics_of_a_hand_built_path() {
        let mut p = ScalarPath::new(0.0, 0.0);
        p.record(1.0, 5.0); // excursion 1 starts
        p.record(3.0, 0.0); // ends: length 2
        p.record(4.0, 7.0); // excursion 2 starts
        p.record(8.0, 0.0); // ends: length 4
        p.record(9.0, 9.0); // open excursion
        p.finish(10.0);
        let stats = excursions_above(&p, 2.0);
        assert_eq!(stats.completed, 2);
        assert!((stats.mean_length - 3.0).abs() < 1e-12);
        assert_eq!(stats.max_length, 4.0);
        assert_eq!(stats.median_length, 4.0);
        assert_eq!(stats.open_excursion, Some(1.0));
        assert!((stats.fraction_above - 0.7).abs() < 1e-12);
        assert!((stats.max_to_median() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn excursions_with_no_crossings() {
        let mut p = ScalarPath::new(0.0, 0.0);
        p.record(5.0, 1.0);
        p.finish(10.0);
        let stats = excursions_above(&p, 2.0);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.open_excursion, None);
        assert_eq!(stats.mean_length, 0.0);
        assert_eq!(stats.max_to_median(), f64::INFINITY);
    }

    #[test]
    fn hitting_time_of_stable_queue_returning_to_empty() {
        // M/M/1 with rho = 0.5 started at 5: returns to 0 quickly.
        let model = Mm1 {
            lambda: 0.5,
            mu: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let hitting = estimate_hitting_time(&model, &5u64, |s| *s == 0, 50, 10_000.0, &mut rng);
        assert_eq!(hitting.censored, 0);
        assert_eq!(hitting.hit_fraction(), 1.0);
        // Mean return time from 5 is 5 / (mu - lambda) = 10.
        assert!(
            (hitting.mean_hit_time() - 10.0).abs() < 3.0,
            "mean {}",
            hitting.mean_hit_time()
        );
        assert!(hitting.max_hit_time() >= hitting.mean_hit_time());
    }

    #[test]
    fn hitting_time_of_unstable_queue_is_censored() {
        // M/M/1 with rho = 3 started at 20 almost never drains within the deadline.
        let model = Mm1 {
            lambda: 3.0,
            mu: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let hitting = estimate_hitting_time(&model, &20u64, |s| *s == 0, 20, 50.0, &mut rng);
        assert!(hitting.censored >= 18, "censored {}", hitting.censored);
        assert!(hitting.hit_fraction() <= 0.1);
    }

    #[test]
    fn hitting_time_from_target_state_is_zero() {
        let model = Mm1 {
            lambda: 0.5,
            mu: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let hitting = estimate_hitting_time(&model, &0u64, |s| *s == 0, 5, 10.0, &mut rng);
        assert_eq!(hitting.hits, vec![0.0; 5]);
        assert_eq!(hitting.mean_hit_time(), 0.0);
    }
}
