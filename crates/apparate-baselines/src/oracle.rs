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
            if semantics.observe_with(&input, site.0 as u64, power).agrees {
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
