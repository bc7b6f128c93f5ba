//! Queueing-theoretic maximal bounds used in the transience proof.
//!
//! * [`kingman_bound`] — Proposition 20: Kingman's moment bound adapted to
//!   compound Poisson processes, `P{C_t < B + εt for all t} ≥ 1 − α m₂ / (2B(ε − α m₁))`.
//! * [`mgi_infinity_bound`] — Lemma 21: a maximal bound for the number of
//!   customers in an `M/GI/∞` queue started empty.
//! * [`MmInfinity`] — exact facts about the `M/M/∞` queue (used in tests and
//!   as a sanity baseline for the peer-seed population, whose departure rate
//!   `γ x_F` scales like an infinite-server system).

use crate::MarkovError;

/// Parameters of a compound Poisson process: batch arrivals at rate `rate`,
/// batch sizes with mean `batch_mean` and mean square `batch_mean_square`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompoundPoisson {
    /// Batch arrival rate α.
    pub rate: f64,
    /// Mean batch size m₁.
    pub batch_mean: f64,
    /// Mean *square* batch size m₂.
    pub batch_mean_square: f64,
}

impl CompoundPoisson {
    /// Mean growth rate `α · m₁` of the compound process.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        self.rate * self.batch_mean
    }
}

/// Kingman's moment bound for a compound Poisson process `C` with `C₀ = 0`
/// (Proposition 20 of the paper):
///
/// `P{ C_t < B + ε t  for all t ≥ 0 } ≥ 1 − α m₂ / (2 B (ε − α m₁))`,
///
/// valid for `ε > α m₁`. Returns the lower bound on the probability, clamped
/// to `[0, 1]`.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidParameter`] if `B ≤ 0`, if any parameter is
/// negative or non-finite, or if `ε ≤ α m₁` (the bound requires drift slack).
pub fn kingman_bound(process: CompoundPoisson, b: f64, epsilon: f64) -> Result<f64, MarkovError> {
    let CompoundPoisson {
        rate,
        batch_mean,
        batch_mean_square,
    } = process;
    for (name, v) in [
        ("rate", rate),
        ("batch_mean", batch_mean),
        ("batch_mean_square", batch_mean_square),
        ("B", b),
        ("epsilon", epsilon),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(MarkovError::InvalidParameter(format!(
                "{name} = {v} must be finite and non-negative"
            )));
        }
    }
    if b <= 0.0 {
        return Err(MarkovError::InvalidParameter(
            "B must be strictly positive".into(),
        ));
    }
    if epsilon <= rate * batch_mean {
        return Err(MarkovError::InvalidParameter(format!(
            "epsilon = {epsilon} must exceed the mean drift {}",
            rate * batch_mean
        )));
    }
    let bound = 1.0 - rate * batch_mean_square / (2.0 * b * (epsilon - rate * batch_mean));
    Ok(bound.clamp(0.0, 1.0))
}

/// The `M/GI/∞` maximal bound of Lemma 21: if `M` is the number of customers
/// in an `M/GI/∞` queue with arrival rate `λ`, mean service time `m`, and
/// `M₀ = 0`, then for `B, ε > 0`
///
/// `P{ M_t ≥ B + ε t  for some t ≥ 0 } ≤ e^{λ(m+1)} 2^{−B} / (1 − 2^{−ε})`.
///
/// Returns the upper bound on the probability, clamped to `[0, 1]`.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidParameter`] if any parameter is negative,
/// non-finite, or if `B` or `ε` is not strictly positive.
pub fn mgi_infinity_bound(
    arrival_rate: f64,
    mean_service: f64,
    b: f64,
    epsilon: f64,
) -> Result<f64, MarkovError> {
    for (name, v) in [
        ("arrival_rate", arrival_rate),
        ("mean_service", mean_service),
        ("B", b),
        ("epsilon", epsilon),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(MarkovError::InvalidParameter(format!(
                "{name} = {v} must be finite and non-negative"
            )));
        }
    }
    if b <= 0.0 || epsilon <= 0.0 {
        return Err(MarkovError::InvalidParameter(
            "B and epsilon must be strictly positive".into(),
        ));
    }
    let bound =
        (arrival_rate * (mean_service + 1.0)).exp() * 2f64.powf(-b) / (1.0 - 2f64.powf(-epsilon));
    Ok(bound.clamp(0.0, 1.0))
}

/// Exact facts about an `M/M/∞` queue with arrival rate `λ` and per-customer
/// service rate `γ` (so the stationary distribution is Poisson with mean
/// `λ/γ`). The peer-seed population in the model behaves like this system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmInfinity {
    /// Arrival rate λ.
    pub arrival_rate: f64,
    /// Per-customer service (departure) rate γ.
    pub service_rate: f64,
}

impl MmInfinity {
    /// Creates the queue description.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidParameter`] unless both rates are
    /// finite, the arrival rate is non-negative and the service rate is
    /// strictly positive.
    pub fn new(arrival_rate: f64, service_rate: f64) -> Result<Self, MarkovError> {
        if !arrival_rate.is_finite() || arrival_rate < 0.0 {
            return Err(MarkovError::InvalidParameter(
                "arrival rate must be finite and non-negative".into(),
            ));
        }
        if !service_rate.is_finite() || service_rate <= 0.0 {
            return Err(MarkovError::InvalidParameter(
                "service rate must be finite and positive".into(),
            ));
        }
        Ok(MmInfinity {
            arrival_rate,
            service_rate,
        })
    }

    /// Stationary mean number of customers, `λ/γ`.
    #[must_use]
    pub fn stationary_mean(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Stationary probability of exactly `n` customers (Poisson pmf).
    #[must_use]
    pub fn stationary_pmf(&self, n: u64) -> f64 {
        let m = self.stationary_mean();
        if m == 0.0 {
            return if n == 0 { 1.0 } else { 0.0 };
        }
        // exp(-m) m^n / n!  computed in log space for robustness.
        let mut log_p = -m + n as f64 * m.ln();
        for k in 1..=n {
            log_p -= (k as f64).ln();
        }
        log_p.exp()
    }

    /// Transient mean `E[M_t]` starting from an empty system:
    /// `(λ/γ)(1 − e^{−γ t})`.
    #[must_use]
    pub fn transient_mean(&self, t: f64) -> f64 {
        self.stationary_mean() * (1.0 - (-self.service_rate * t).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gillespie::{Simulator, StopRule};
    use crate::Ctmc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kingman_bound_basics() {
        let p = CompoundPoisson {
            rate: 1.0,
            batch_mean: 1.0,
            batch_mean_square: 1.0,
        };
        // Large B makes the bound approach 1.
        let lo = kingman_bound(p, 1_000.0, 2.0).unwrap();
        assert!(lo > 0.999);
        // Tiny B gives a vacuous (clamped to 0) bound.
        let lo = kingman_bound(p, 1e-6, 1.0 + 1e-9).unwrap();
        assert_eq!(lo, 0.0);
    }

    #[test]
    fn kingman_bound_monotone_in_b() {
        let p = CompoundPoisson {
            rate: 2.0,
            batch_mean: 1.5,
            batch_mean_square: 4.0,
        };
        let l1 = kingman_bound(p, 10.0, 4.0).unwrap();
        let l2 = kingman_bound(p, 100.0, 4.0).unwrap();
        assert!(l2 >= l1);
    }

    #[test]
    fn kingman_bound_rejects_insufficient_drift_slack() {
        let p = CompoundPoisson {
            rate: 1.0,
            batch_mean: 2.0,
            batch_mean_square: 5.0,
        };
        assert!(kingman_bound(p, 10.0, 2.0).is_err());
        assert!(kingman_bound(p, 10.0, 1.0).is_err());
        assert!(kingman_bound(p, 0.0, 3.0).is_err());
    }

    #[test]
    fn kingman_bound_validated_empirically() {
        // Poisson (unit batches) process at rate 1, envelope B + 1.5 t.
        let p = CompoundPoisson {
            rate: 1.0,
            batch_mean: 1.0,
            batch_mean_square: 1.0,
        };
        let b = 10.0;
        let eps = 1.5;
        let lower = kingman_bound(p, b, eps).unwrap();
        // Empirical probability that a rate-1 Poisson process stays below the
        // envelope B + eps * t over a long horizon.
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 400;
        let horizon = 2_000.0;
        let mut ok = 0;
        for _ in 0..trials {
            let times = crate::poisson::poisson_process_times(&mut rng, 1.0, horizon);
            let mut count = 0.0;
            let mut violated = false;
            for t in times {
                count += 1.0;
                if count >= b + eps * t {
                    violated = true;
                    break;
                }
            }
            if !violated {
                ok += 1;
            }
        }
        let empirical = ok as f64 / trials as f64;
        assert!(
            empirical >= lower - 0.05,
            "empirical {empirical} vs bound {lower}"
        );
    }

    #[test]
    fn mgi_bound_basics() {
        // Large B: probability of ever exceeding the envelope is tiny.
        let hi = mgi_infinity_bound(1.0, 2.0, 200.0, 1.0).unwrap();
        assert!(hi < 1e-10);
        // Tiny B: vacuous bound 1.
        let hi = mgi_infinity_bound(5.0, 2.0, 0.1, 0.1).unwrap();
        assert_eq!(hi, 1.0);
        assert!(mgi_infinity_bound(1.0, 1.0, 0.0, 1.0).is_err());
        assert!(mgi_infinity_bound(-1.0, 1.0, 1.0, 1.0).is_err());
    }

    struct MmInfModel {
        lambda: f64,
        gamma: f64,
    }
    impl Ctmc for MmInfModel {
        type State = u64;
        type Jump = u64;
        fn transitions(&self, s: &u64, out: &mut Vec<(u64, f64)>) {
            out.push((s + 1, self.lambda));
            if *s > 0 {
                out.push((s - 1, self.gamma * *s as f64));
            }
        }
        fn apply(&self, s: &mut u64, next: &u64) {
            *s = *next;
        }
    }

    #[test]
    fn mm_infinity_stationary_mean_matches_simulation() {
        let q = MmInfinity::new(3.0, 1.5).unwrap();
        assert!((q.stationary_mean() - 2.0).abs() < 1e-12);
        let model = MmInfModel {
            lambda: 3.0,
            gamma: 1.5,
        };
        let mut rng = StdRng::seed_from_u64(21);
        let run = Simulator::new(&model).observe(|s| *s as f64).run(
            0,
            StopRule::at_time(5_000.0),
            &mut rng,
        );
        let mean = run.path.time_average_over(500.0, run.final_time);
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn mm_infinity_pmf_sums_to_one() {
        let q = MmInfinity::new(4.0, 2.0).unwrap();
        let total: f64 = (0..200).map(|n| q.stationary_pmf(n)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // mode around the mean 2
        assert!(q.stationary_pmf(2) > q.stationary_pmf(10));
    }

    #[test]
    fn mm_infinity_transient_mean_monotone() {
        let q = MmInfinity::new(1.0, 0.5).unwrap();
        assert_eq!(q.transient_mean(0.0), 0.0);
        assert!(q.transient_mean(1.0) < q.transient_mean(10.0));
        assert!((q.transient_mean(1e6) - q.stationary_mean()).abs() < 1e-9);
    }

    #[test]
    fn mm_infinity_rejects_bad_rates() {
        assert!(MmInfinity::new(-1.0, 1.0).is_err());
        assert!(MmInfinity::new(1.0, 0.0).is_err());
        assert!(MmInfinity::new(f64::NAN, 1.0).is_err());
    }
}
