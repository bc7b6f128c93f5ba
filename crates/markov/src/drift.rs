//! Numeric Foster–Lyapunov drift evaluation.
//!
//! For a CTMC with generator `Q` and a function `V` on the state space, the
//! drift at `x` is `QV(x) = Σ_{x' ≠ x} q(x, x′) (V(x′) − V(x))` (eq. (10) of
//! the paper). The Foster–Lyapunov criterion (Proposition 18 / Lemma 7)
//! establishes positive recurrence when `QV ≤ −f + g` with suitable `f, g`;
//! this module evaluates drifts numerically so experiments can *check* the
//! paper's Lyapunov argument on sampled states.

use crate::Ctmc;

/// Computes the drift `QV(x)` of a scalar function `V` at state `x`.
///
/// Self-loops (`x' == x`) contribute nothing and are skipped.
pub fn drift<M, V>(model: &M, state: &M::State, v: V) -> f64
where
    M: Ctmc,
    V: Fn(&M::State) -> f64,
{
    let mut buf = Vec::new();
    model.transitions(state, &mut buf);
    let v_here = v(state);
    buf.iter()
        .map(|(jump, rate)| (model.target(state, jump), *rate))
        .filter(|(target, rate)| *rate > 0.0 && target != state)
        .map(|(target, rate)| rate * (v(&target) - v_here))
        .sum()
}

/// A borrowed scalar function of the state, as accepted by [`drift_many`].
pub type StateFn<'a, S> = &'a dyn Fn(&S) -> f64;

/// Computes drifts of several functions at once, sharing one transition
/// enumeration. Returns one drift per function in `vs`.
pub fn drift_many<M>(model: &M, state: &M::State, vs: &[StateFn<'_, M::State>]) -> Vec<f64>
where
    M: Ctmc,
{
    let mut buf = Vec::new();
    model.transitions(state, &mut buf);
    let here: Vec<f64> = vs.iter().map(|v| v(state)).collect();
    let mut out = vec![0.0; vs.len()];
    for (jump, rate) in &buf {
        let target = model.target(state, jump);
        if *rate <= 0.0 || target == *state {
            continue;
        }
        for (k, v) in vs.iter().enumerate() {
            out[k] += rate * (v(&target) - here[k]);
        }
    }
    out
}

/// Result of verifying a Foster–Lyapunov condition over a set of states.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftCheck {
    /// Number of states examined.
    pub states_checked: usize,
    /// Number of states where the drift condition was violated.
    pub violations: usize,
    /// The largest drift observed (most positive).
    pub max_drift: f64,
    /// The smallest drift observed (most negative).
    pub min_drift: f64,
}

impl DriftCheck {
    /// Returns `true` if no violation was found.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations == 0
    }
}

/// Checks `QV(x) ≤ bound(x)` over an iterator of states.
pub fn check_drift_condition<M, V, B, I>(model: &M, states: I, v: V, bound: B) -> DriftCheck
where
    M: Ctmc,
    V: Fn(&M::State) -> f64,
    B: Fn(&M::State) -> f64,
    I: IntoIterator<Item = M::State>,
{
    let mut check = DriftCheck {
        states_checked: 0,
        violations: 0,
        max_drift: f64::NEG_INFINITY,
        min_drift: f64::INFINITY,
    };
    for s in states {
        let d = drift(model, &s, &v);
        check.states_checked += 1;
        check.max_drift = check.max_drift.max(d);
        check.min_drift = check.min_drift.min(d);
        if d > bound(&s) {
            check.violations += 1;
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn linear_lyapunov_drift_of_mm1() {
        let model = Mm1 {
            lambda: 0.4,
            mu: 1.0,
        };
        // V(n) = n: drift is lambda - mu for n >= 1, lambda at 0.
        let d0 = drift(&model, &0, |s| *s as f64);
        let d5 = drift(&model, &5, |s| *s as f64);
        assert!((d0 - 0.4).abs() < 1e-12);
        assert!((d5 - (0.4 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn quadratic_lyapunov_drift_of_mm1() {
        let model = Mm1 {
            lambda: 0.4,
            mu: 1.0,
        };
        // V(n) = n^2: QV(n) = lambda((n+1)^2 - n^2) + mu((n-1)^2 - n^2)
        //            = lambda(2n+1) + mu(1-2n) for n >= 1.
        let n = 7u64;
        let expected = 0.4 * (2.0 * n as f64 + 1.0) + 1.0 * (1.0 - 2.0 * n as f64);
        let d = drift(&model, &n, |s| (*s as f64).powi(2));
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn drift_many_matches_individual_drifts() {
        let model = Mm1 {
            lambda: 0.7,
            mu: 0.9,
        };
        let f1 = |s: &u64| *s as f64;
        let f2 = |s: &u64| (*s as f64).powi(2);
        let ds = drift_many(&model, &3, &[&f1, &f2]);
        assert!((ds[0] - drift(&model, &3, f1)).abs() < 1e-12);
        assert!((ds[1] - drift(&model, &3, f2)).abs() < 1e-12);
    }

    #[test]
    fn drift_condition_check_for_stable_queue() {
        let model = Mm1 {
            lambda: 0.4,
            mu: 1.0,
        };
        // For n >= 1, drift of V(n) = n is -0.6 <= -0.5.
        let check = check_drift_condition(&model, 1u64..200, |s| *s as f64, |_| -0.5);
        assert!(check.holds());
        assert_eq!(check.states_checked, 199);
        assert!((check.max_drift + 0.6).abs() < 1e-12);
    }

    #[test]
    fn drift_condition_check_detects_violations() {
        let model = Mm1 {
            lambda: 2.0,
            mu: 1.0,
        };
        let check = check_drift_condition(&model, 1u64..50, |s| *s as f64, |_| 0.0);
        assert!(!check.holds());
        assert_eq!(check.violations, 49);
        assert!(check.min_drift > 0.0);
    }
}
