//! Shared release rule of the hindsight oracles.
//!
//! Both the classification and the token oracle apply the same §2.2 optimum:
//! exit at the earliest feasible site whose hypothetical ramp agrees with the
//! full model, pay no ramp overhead, and hold the GPU only until the slowest
//! member of the batch/step has released. Keeping the rule in one place means
//! the two oracles cannot drift apart.

use apparate_exec::{ExecutionPlan, SampleSemantics};
use apparate_model::LayerId;

/// The feasible sites a hindsight oracle may exit at, in topological order,
/// with each site's hypothetical-ramp power computed once.
pub(crate) struct OracleSites {
    sites: Vec<LayerId>,
    /// [`SemanticsModel::ramp_power`](apparate_exec::SemanticsModel::ramp_power)
    /// of each site's depth at the oracle's ramp capacity (parallel to
    /// `sites`).
    powers: Vec<f64>,
}

impl OracleSites {
    /// Hypothetical ramps of `capacity` at every one of `sites` of `plan`'s
    /// model.
    pub(crate) fn new(plan: &ExecutionPlan, sites: Vec<LayerId>, capacity: f64) -> OracleSites {
        let semantics = plan.semantics();
        let powers = sites
            .iter()
            .map(|&site| semantics.ramp_power(plan.depth_fraction_of_site(site), capacity))
            .collect();
        OracleSites { sites, powers }
    }

    /// Offset (µs from batch start) at which one input's result is released,
    /// plus the index of the exit site (into the sites), if any. `None` means
    /// the input runs the whole model.
    fn release_us(
        &self,
        plan: &ExecutionPlan,
        sample: &SampleSemantics,
        batch: u32,
    ) -> (f64, Option<usize>) {
        let semantics = plan.semantics();
        let input = semantics.input(sample);
        for (idx, (&site, &power)) in self.sites.iter().zip(&self.powers).enumerate() {
            if semantics.agrees_with(&input, site.0 as u64, power) {
                return (plan.site_prefix_us(site, batch), Some(idx));
            }
        }
        (plan.vanilla_total_us(batch), None)
    }

    /// Release offsets for a whole batch plus the GPU occupancy: the batch
    /// frees the GPU when its slowest member exits, which with zero ramp cost
    /// is at most the vanilla batch time.
    pub(crate) fn batch_releases<'a>(
        &self,
        plan: &ExecutionPlan,
        samples: impl Iterator<Item = &'a SampleSemantics>,
        batch: u32,
    ) -> (f64, Vec<(f64, Option<usize>)>) {
        let releases: Vec<(f64, Option<usize>)> = samples
            .map(|sample| self.release_us(plan, sample, batch))
            .collect();
        let gpu_us = releases.iter().map(|(us, _)| *us).fold(0.0f64, f64::max);
        (gpu_us, releases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apparate_exec::SemanticsModel;
    use apparate_model::zoo;

    #[test]
    fn oracle_exits_at_the_first_site_whose_observation_agrees() {
        let model = zoo::bert_base();
        let semantics = SemanticsModel::new(5, model.descriptor.overparameterization);
        let sites = model.graph.feasible_ramp_sites(None);
        let plan = ExecutionPlan::vanilla(model, semantics);
        let capacity = 0.97;
        let oracle = OracleSites::new(&plan, sites.clone(), capacity);
        let agrees_at = |sample: &SampleSemantics, site: LayerId| {
            plan.semantics()
                .observe(
                    sample,
                    site.0 as u64,
                    plan.depth_fraction_of_site(site),
                    capacity,
                )
                .agrees
        };
        // Spread difficulties, and difficulties a hair either side of where
        // an input's agreement at one site flips: the margin plus the
        // agreement noise, both near zero there, falls monotonically with
        // the difficulty, so bisection finds the edge to the last bit.
        let mut samples: Vec<SampleSemantics> = (0..500u64)
            .map(|i| SampleSemantics::new(i * 7919 + 3, (i as f64 * 0.6180) % 1.0))
            .collect();
        for i in 0..40u64 {
            let seed = i * 104_729 + 11;
            let site = sites[i as usize * 7 % sites.len()];
            let (mut agree, mut differ) = (0.0f64, 1.0f64);
            if !agrees_at(&SampleSemantics::new(seed, agree), site)
                || agrees_at(&SampleSemantics::new(seed, differ), site)
            {
                continue;
            }
            while differ - agree > f64::EPSILON {
                let mid = 0.5 * (agree + differ);
                if agrees_at(&SampleSemantics::new(seed, mid), site) {
                    agree = mid;
                } else {
                    differ = mid;
                }
            }
            for edge in [agree, differ] {
                for offset in [-1e-9, -1e-12, 0.0, 1e-12, 1e-9] {
                    samples.push(SampleSemantics::new(seed, edge + offset));
                }
            }
        }
        assert!(samples.len() > 500 + 100, "agreement edges must be found");
        let mut exits = 0;
        for sample in &samples {
            let want = sites.iter().position(|&site| agrees_at(sample, site));
            let (release_us, got) = oracle.release_us(&plan, sample, 4);
            assert_eq!(got, want);
            let expected_us = match want {
                Some(idx) => plan.site_prefix_us(sites[idx], 4),
                None => plan.vanilla_total_us(4),
            };
            assert_eq!(release_us.to_bits(), expected_us.to_bits());
            exits += usize::from(want.is_some_and(|idx| idx > 0));
        }
        assert!(exits > 0, "some inputs must exit past the first site");
    }
}
