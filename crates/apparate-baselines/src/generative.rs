//! Generative (token-level) baselines: the [`TokenPolicy`] family.
//!
//! Token early exits mirror the classification story (§3.4): a decode step
//! evaluates every active sequence, a token's result is released at the first
//! ramp whose entropy clears its threshold, and the remaining layers are
//! parallel-decoded so the KV state stays correct — which is why the step
//! still occupies the GPU for the full decoder pass. Vanilla generative
//! serving is provided by [`apparate_serving::VanillaTokenPolicy`].

use apparate_exec::ExecutionPlan;
use apparate_model::LayerId;
use apparate_serving::{StepOutcome, TokenOutcome, TokenPolicy, TokenSlot};
use apparate_sim::{SimDuration, SimTime};

use crate::classification::exit_outcome;
use crate::oracle::OracleSites;

/// A batch-size → decode-step-time estimator for a plan (full decoder pass
/// plus active-ramp overheads).
pub fn step_time_fn(plan: &ExecutionPlan) -> impl Fn(u32) -> SimDuration + '_ {
    |batch| SimDuration::from_micros_f64(plan.gpu_batch_time_us(batch))
}

/// Fixed-ramp, fixed-threshold token-level early exits — the FREE-style
/// static configuration for generative serving.
pub struct StaticTokenPolicy {
    plan: ExecutionPlan,
    thresholds: Vec<f64>,
    name: String,
}

impl StaticTokenPolicy {
    /// Create a static token policy; one threshold per active ramp of `plan`.
    pub fn new(
        plan: ExecutionPlan,
        thresholds: Vec<f64>,
        name: impl Into<String>,
    ) -> StaticTokenPolicy {
        assert_eq!(
            thresholds.len(),
            plan.num_ramps(),
            "one threshold per active ramp"
        );
        StaticTokenPolicy {
            plan,
            thresholds,
            name: name.into(),
        }
    }

    /// Same threshold on every ramp.
    pub fn uniform(
        plan: ExecutionPlan,
        threshold: f64,
        name: impl Into<String>,
    ) -> StaticTokenPolicy {
        let thresholds = vec![threshold; plan.num_ramps()];
        StaticTokenPolicy::new(plan, thresholds, name)
    }

    /// The underlying plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }
}

impl TokenPolicy for StaticTokenPolicy {
    fn process_step(&mut self, slots: &[TokenSlot], _step_start: SimTime) -> StepOutcome {
        let b = slots.len() as u32;
        // Tokens are released by the classification rule; nothing but the
        // release is read, so each token observes ramps up to its first exit.
        let per_token: Vec<TokenOutcome> = slots
            .iter()
            .map(|s| {
                let exit = self.plan.first_exit(&s.semantics, &self.thresholds);
                exit_outcome(&self.plan, exit, b).into()
            })
            .collect();
        StepOutcome {
            gpu_time: step_gpu_time(&per_token),
            per_token,
            profile: None,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Decode-step GPU time under token-level early exits: the step advances once
/// its slowest token has released (§3.4's parallel decoding lets the
/// non-exited suffix layers — needed only to materialise KV state — overlap
/// the following steps, so they do not gate the next token). A token that
/// never exits releases at the full decoder pass, so a single hard token
/// still holds the step for the whole model.
pub fn step_gpu_time(per_token: &[TokenOutcome]) -> SimDuration {
    per_token
        .iter()
        .map(|t| t.release_offset)
        .fold(SimDuration::ZERO, SimDuration::max)
}

/// Hindsight-optimal token exits: each token is released at the earliest
/// feasible decoder site whose hypothetical ramp agrees with the full model,
/// with zero ramp overhead; the step frees the GPU at its slowest token.
pub struct OracleTokenPolicy {
    plan: ExecutionPlan,
    sites: OracleSites,
    name: String,
}

impl OracleTokenPolicy {
    /// Create a token oracle over the given decoder sites.
    pub fn new(
        plan: ExecutionPlan,
        sites: Vec<LayerId>,
        capacity: f64,
        name: impl Into<String>,
    ) -> OracleTokenPolicy {
        OracleTokenPolicy {
            sites: OracleSites::new(&plan, sites, capacity),
            plan,
            name: name.into(),
        }
    }
}

impl TokenPolicy for OracleTokenPolicy {
    fn process_step(&mut self, slots: &[TokenSlot], _step_start: SimTime) -> StepOutcome {
        let b = slots.len() as u32;
        let (gpu_us, releases) =
            self.sites
                .batch_releases(&self.plan, slots.iter().map(|s| &s.semantics), b);
        StepOutcome {
            gpu_time: SimDuration::from_micros_f64(gpu_us),
            per_token: releases
                .into_iter()
                .map(|(us, ramp)| TokenOutcome {
                    release_offset: SimDuration::from_micros_f64(us),
                    exit_ramp: ramp,
                    correct: true,
                })
                .collect(),
            profile: None,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::deploy_budget_sites;
    use apparate_core::{ApparateConfig, RampArchitecture};
    use apparate_exec::{SampleSemantics, SemanticsModel};
    use apparate_model::zoo;

    fn slots(n: usize) -> Vec<TokenSlot> {
        (0..n)
            .map(|i| TokenSlot {
                request_id: i as u64,
                token_index: 0,
                semantics: SampleSemantics::new(i as u64 * 31, 0.2),
            })
            .collect()
    }

    #[test]
    fn static_token_policy_exits_easy_tokens() {
        let model = zoo::t5_large();
        let semantics = SemanticsModel::new(5, model.descriptor.overparameterization);
        let dep = deploy_budget_sites(
            &model,
            &semantics,
            &ApparateConfig::default(),
            RampArchitecture::Lightweight,
            0,
        );
        let mut policy = StaticTokenPolicy::uniform(dep.plan.clone(), 0.3, "static");
        let out = policy.process_step(&slots(16), SimTime::ZERO);
        assert_eq!(out.per_token.len(), 16);
        let exits = out
            .per_token
            .iter()
            .filter(|t| t.exit_ramp.is_some())
            .count();
        assert!(exits > 8, "easy tokens should exit ({exits}/16)");
        for t in &out.per_token {
            assert!(t.release_offset <= out.gpu_time);
        }
    }

    #[test]
    fn token_oracle_is_exact_and_cheap() {
        let model = zoo::t5_large();
        let semantics = SemanticsModel::new(5, model.descriptor.overparameterization);
        let dep = deploy_budget_sites(
            &model,
            &semantics,
            &ApparateConfig::default(),
            RampArchitecture::Lightweight,
            0,
        );
        let vanilla = dep.plan.with_ramps(Vec::new());
        let sites: Vec<LayerId> = dep.all_sites.iter().map(|s| s.site).collect();
        let mut oracle = OracleTokenPolicy::new(vanilla.clone(), sites, dep.capacity, "oracle");
        let out = oracle.process_step(&slots(16), SimTime::ZERO);
        assert!(out.per_token.iter().all(|t| t.correct));
        assert!(out.gpu_time <= SimDuration::from_micros_f64(vanilla.vanilla_total_us(16)));
        assert!(
            out.per_token
                .iter()
                .filter(|t| t.exit_ramp.is_some())
                .count()
                > 8
        );
    }
}
