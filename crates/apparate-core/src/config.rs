//! Apparate's user-facing parameters and internal tuning constants.
//!
//! The paper exposes exactly two knobs to users (§3): the **accuracy
//! constraint** (how much accuracy loss relative to the original model is
//! acceptable — default 1 %) and the **ramp aggression / budget** (bound on
//! the worst-case latency impact of active ramps — default 2 %). Everything
//! else (window sizes, step sizes, adjustment period) is an internal constant
//! with the defaults given in §3.2–3.3.

use serde::{Deserialize, Serialize};

/// Configuration of an Apparate deployment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ApparateConfig {
    /// Maximum tolerated accuracy loss relative to the original model, as a
    /// fraction (0.01 = 1 %).
    pub accuracy_constraint: f64,
    /// Ramp budget: maximum increase of worst-case (non-exiting) latency due
    /// to ramp overheads, as a fraction of the vanilla model latency
    /// (0.02 = 2 %).
    pub ramp_budget: f64,
    /// Number of recent samples over which achieved accuracy is monitored to
    /// trigger threshold tuning (16 in §3.2).
    pub accuracy_window: usize,
    /// Number of samples between ramp-adjustment rounds (128 in §3.3).
    pub ramp_adjust_period: usize,
    /// Number of recent samples used to evaluate candidate threshold
    /// configurations.
    pub tuning_window: usize,
    /// Initial hill-climbing step size for threshold tuning (0.1 in §3.2).
    pub initial_step: f64,
    /// Smallest step size; the search stops refining below this (0.01).
    pub smallest_step: f64,
    /// Run every tuning round as a full greedy re-tune over the materialised
    /// window instead of the incremental delta tuner. The two produce
    /// identical configurations (the incremental tuner replays the exact
    /// greedy trajectory); this flag exists as the correctness oracle for
    /// equivalence checks and as an escape hatch, not as a quality knob.
    pub full_retune: bool,
}

impl Default for ApparateConfig {
    fn default() -> Self {
        ApparateConfig {
            accuracy_constraint: 0.01,
            ramp_budget: 0.02,
            accuracy_window: 16,
            ramp_adjust_period: 128,
            tuning_window: 64,
            initial_step: 0.1,
            smallest_step: 0.01,
            full_retune: false,
        }
    }
}

impl ApparateConfig {
    /// Validate the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=0.5).contains(&self.accuracy_constraint) {
            return Err(format!(
                "accuracy constraint {} out of range [0, 0.5]",
                self.accuracy_constraint
            ));
        }
        if !(0.0..=1.0).contains(&self.ramp_budget) {
            return Err(format!(
                "ramp budget {} out of range [0, 1]",
                self.ramp_budget
            ));
        }
        if self.accuracy_window == 0 || self.tuning_window == 0 {
            return Err("windows must be non-empty".to_string());
        }
        if self.ramp_adjust_period == 0 {
            return Err("ramp adjustment period must be positive".to_string());
        }
        if self.smallest_step <= 0.0 || self.initial_step < self.smallest_step {
            return Err("step sizes must satisfy 0 < smallest_step <= initial_step".to_string());
        }
        Ok(())
    }

    /// Convenience: the paper's default configuration with a different
    /// accuracy constraint (Figure 19).
    pub fn with_accuracy_constraint(mut self, constraint: f64) -> Self {
        self.accuracy_constraint = constraint;
        self
    }

    /// Convenience: the paper's default configuration with a different ramp
    /// budget (Table 3).
    pub fn with_ramp_budget(mut self, budget: f64) -> Self {
        self.ramp_budget = budget;
        self
    }

    /// Convenience: force every tuning round through the full greedy re-tune
    /// (the incremental tuner's correctness oracle).
    pub fn with_full_retune(mut self, full_retune: bool) -> Self {
        self.full_retune = full_retune;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ApparateConfig::default();
        assert_eq!(c.accuracy_constraint, 0.01);
        assert_eq!(c.ramp_budget, 0.02);
        assert_eq!(c.accuracy_window, 16);
        assert_eq!(c.ramp_adjust_period, 128);
        assert_eq!(c.initial_step, 0.1);
        assert_eq!(c.smallest_step, 0.01);
        assert!(!c.full_retune, "incremental tuning is the default");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ApparateConfig {
            accuracy_constraint: 0.9,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ApparateConfig {
            ramp_budget: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ApparateConfig {
            accuracy_window: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ApparateConfig {
            smallest_step: 0.2,
            initial_step: 0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ApparateConfig {
            ramp_adjust_period: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builder_helpers() {
        let c = ApparateConfig::default()
            .with_accuracy_constraint(0.05)
            .with_ramp_budget(0.10)
            .with_full_retune(true);
        assert_eq!(c.accuracy_constraint, 0.05);
        assert_eq!(c.ramp_budget, 0.10);
        assert!(c.full_retune);
    }
}
