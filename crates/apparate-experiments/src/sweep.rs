//! SLO- and accuracy-constraint sensitivity sweeps (Figures 17 and 19).
//!
//! The paper asks two robustness questions of the controller: does the win
//! survive tighter/looser SLOs (Figure 17, which also stresses SLO-aware
//! batching), and how does it trade against the user's accuracy budget
//! (Figure 19)? Each sweep point is a cheap vanilla-vs-Apparate duel
//! ([`crate::scenario::run_classification_duel`]) over the same scenario with
//! one knob moved; everything else — seed, arrivals, semantics draws — is
//! held fixed, so a grid column isolates the knob's effect. The grids
//! themselves come from [`crate::scenario::SensitivityGrid`]. The cells are
//! independent, so [`sensitivity_sweeps`] runs every cell of both grids as
//! one item of one work queue.

use apparate_serving::{run_queue, LatencyWins};

use crate::scenario::{
    cv_scenario, nlp_scenario, run_classification_duel, scenario_config, SensitivityGrid,
};

/// One sensitivity point: Apparate against vanilla with one knob moved.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable knob setting, e.g. `"slo ×0.5 (37.5 ms)"`.
    pub label: String,
    /// Apparate's median latency win against vanilla (%).
    pub win_p50: f64,
    /// Apparate's p95 latency win against vanilla (%).
    pub win_p95: f64,
    /// Apparate's realised accuracy.
    pub accuracy: f64,
    /// Apparate's SLO violation rate.
    pub slo_violation_rate: f64,
    /// Vanilla's SLO violation rate at the same knob setting.
    pub vanilla_slo_violation_rate: f64,
    /// Apparate's early-exit rate.
    pub exit_rate: f64,
}

/// A rendered sensitivity sweep over one knob.
#[derive(Debug, Clone)]
pub struct SweepTable {
    /// Table title, e.g. `"SLO sensitivity (Figure 17)"`.
    pub title: String,
    /// One point per knob setting, in grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepTable {
    /// Render as fixed-width text (deterministic).
    pub fn render(&self) -> String {
        let mut out = crate::report::title_rule(&self.title);
        out.push_str(&format!(
            "{:<24} {:>8} {:>8} {:>7} {:>6} {:>10} {:>10}\n",
            "knob", "win@p50", "win@p95", "acc", "exit%", "slo-viol", "(vanilla)",
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:<24} {:>7.1}% {:>7.1}% {:>7.3} {:>6.1} {:>9.1}% {:>9.1}%\n",
                p.label,
                p.win_p50,
                p.win_p95,
                p.accuracy,
                p.exit_rate * 100.0,
                p.slo_violation_rate * 100.0,
                p.vanilla_slo_violation_rate * 100.0,
            ));
        }
        out
    }
}

/// One grid cell: the knob its vanilla-vs-Apparate duel moves.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Figure 17: the CV scenario with its SLO scaled by this factor,
    /// controller config held at the defaults.
    Slo(f64),
    /// Figure 19: the NLP scenario — where exits are genuinely
    /// accuracy-limited, unlike the high-continuity CV stream — with the
    /// controller's accuracy-loss budget set to this constraint.
    Accuracy(f64),
}

impl Cell {
    /// Run the cell's duel over a `frames`-frame CV stream or an
    /// `nlp_requests`-request NLP stream.
    fn run(self, seed: u64, frames: usize, nlp_requests: usize) -> SweepPoint {
        let (label, duel) = match self {
            Cell::Slo(scale) => {
                let scenario = cv_scenario(seed, frames).with_slo_scale(scale);
                let slo_ms = scenario
                    .serving
                    .slo
                    .map(|slo| slo.as_millis_f64())
                    .unwrap_or(0.0);
                (
                    format!("slo ×{scale} ({slo_ms:.1} ms)"),
                    run_classification_duel(&scenario, scenario_config()),
                )
            }
            Cell::Accuracy(constraint) => {
                let scenario = nlp_scenario(seed, nlp_requests);
                let config = scenario_config().with_accuracy_constraint(constraint);
                (
                    format!("acc budget {:.1}%", constraint * 100.0),
                    run_classification_duel(&scenario, config),
                )
            }
        };
        let wins = LatencyWins::of(&duel.vanilla, &duel.apparate);
        SweepPoint {
            label,
            win_p50: wins.p50,
            win_p95: wins.p95,
            accuracy: duel.apparate.accuracy,
            slo_violation_rate: duel.apparate.slo_violation_rate,
            vanilla_slo_violation_rate: duel.vanilla.slo_violation_rate,
            exit_rate: duel.apparate.exit_rate,
        }
    }
}

/// Run both sweeps on the given grid — the SLO sweep (Figure 17) over a
/// `frames`-frame CV stream, the accuracy sweep (Figure 19) over an
/// `nlp_requests`-request NLP stream — and return their tables in that
/// order. Every cell is one item of one [`run_queue`] on up to `threads`
/// workers, and the tables are the same for every thread count. The NLP
/// cells go first, in reverse grid order: the grids list budgets from the
/// tightest, and the looser a budget, the longer its duel runs.
pub fn sensitivity_sweeps(
    seed: u64,
    frames: usize,
    nlp_requests: usize,
    grid: &SensitivityGrid,
    threads: usize,
) -> Vec<SweepTable> {
    let accuracy = grid
        .accuracy_constraints
        .iter()
        .rev()
        .map(|&c| Cell::Accuracy(c));
    let slo = grid.slo_scales.iter().map(|&s| Cell::Slo(s));
    let mut points = run_queue(threads, accuracy.chain(slo).collect(), |_, cell: Cell| {
        cell.run(seed, frames, nlp_requests)
    })
    .into_iter();
    let mut accuracy_points: Vec<SweepPoint> = points
        .by_ref()
        .take(grid.accuracy_constraints.len())
        .collect();
    accuracy_points.reverse();
    vec![
        SweepTable {
            title: "SLO sensitivity (Figure 17)".to_string(),
            points: points.collect(),
        },
        SweepTable {
            title: "accuracy-constraint sensitivity (Figure 19)".to_string(),
            points: accuracy_points,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweeps over `grid` on 1,500-frame CV and 1,500-request NLP
    /// streams.
    fn sweeps(grid: SensitivityGrid, threads: usize) -> Vec<SweepTable> {
        sensitivity_sweeps(42, 1_500, 1_500, &grid, threads)
    }

    #[test]
    fn sweep_tables_render_deterministically() {
        let build = || {
            let grid = SensitivityGrid {
                slo_scales: vec![0.5, 1.0],
                accuracy_constraints: Vec::new(),
            };
            sweeps(grid, 1)[0].render()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("slo ×0.5"));
        assert!(a.contains("slo ×1"));
    }

    #[test]
    fn sweep_tables_render_identically_at_any_thread_count() {
        let render = |threads| {
            sweeps(SensitivityGrid::quick(), threads)
                .iter()
                .map(SweepTable::render)
                .collect::<String>()
        };
        let sequential = render(1);
        assert!(sequential.contains("slo ×2") && sequential.contains("acc budget 2.0%"));
        assert_eq!(sequential, render(4));
    }

    #[test]
    fn looser_accuracy_budget_never_reduces_exit_aggressiveness() {
        let grid = SensitivityGrid {
            slo_scales: Vec::new(),
            accuracy_constraints: vec![0.005, 0.05],
        };
        let table = &sweeps(grid, 1)[1];
        let tight = &table.points[0];
        let loose = &table.points[1];
        // A 10× larger budget lets the tuner accept at least as many exits.
        assert!(
            loose.exit_rate >= tight.exit_rate - 0.02,
            "loose budget exit rate {} fell below tight {}",
            loose.exit_rate,
            tight.exit_rate
        );
        // And both must respect their own constraint with margin.
        assert!(tight.accuracy >= 1.0 - 0.005 - 0.02);
        assert!(loose.accuracy >= 1.0 - 0.05 - 0.02);
    }
}
