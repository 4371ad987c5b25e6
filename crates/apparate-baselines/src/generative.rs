//! Generative (token-level) names of the baseline family.
//!
//! Token early exits mirror the classification story (§3.4): a decode step
//! evaluates every active sequence, a token's result is released at the first
//! ramp whose entropy clears its threshold, and the remaining layers are
//! parallel-decoded so the KV state stays correct. Each baseline type
//! therefore implements both serving hooks, and the token-path names below
//! are aliases of the classification types. Vanilla generative serving is
//! [`apparate_serving::VanillaTokenPolicy`].

use crate::classification::{OracleExitPolicy, StaticExitPolicy};

/// Fixed-ramp, fixed-threshold token-level early exits — the FREE-style
/// static configuration for generative serving.
pub type StaticTokenPolicy = StaticExitPolicy;

/// Hindsight-optimal token exits: each token is released at the earliest
/// feasible decoder site whose hypothetical ramp agrees with the full model,
/// with zero ramp overhead; the step frees the GPU at its slowest token.
pub type OracleTokenPolicy = OracleExitPolicy;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::deploy_budget_sites;
    use apparate_core::{ApparateConfig, RampArchitecture};
    use apparate_exec::{SampleSemantics, SemanticsModel};
    use apparate_model::{zoo, LayerId};
    use apparate_serving::{TokenPolicy, TokenSlot};
    use apparate_sim::{SimDuration, SimTime};

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
