//! E19 (extension) — active resilience end-to-end: anticipation (§3.4.1)
//! driving mode switching (§3.4.6).
//!
//! A manager slowly pushes a bistable system toward its fold (think
//! nutrient loading on a lake, or leverage on a market) because higher
//! forcing pays. A *blind* manager keeps pushing and tips the system. An
//! *anticipatory* manager watches the early-warning signals and switches
//! to an emergency policy (back off the forcing) when the indicators
//! trend up — trading a little yield for avoiding the collapse.

use resilience_core::modes::{Ladder, LadderState};
use resilience_core::TimeSeries;
use resilience_stats::bistable::BistableProcess;
use resilience_stats::ews::{early_warning_signals, EwsConfig};

use crate::table::ExperimentTable;
use resilience_core::RunContext;

struct PolicyOutcome {
    tips: usize,
    mean_peak_forcing: f64,
    mean_switches: f64,
}

fn run_policy(
    anticipatory: bool,
    replicates: usize,
    master_seed: u64,
    ctx: &RunContext,
) -> PolicyOutcome {
    let process = BistableProcess {
        sigma: 0.04,
        ..BistableProcess::default()
    };
    let horizon = 50_000;
    let ramp = 1.5e-5;
    let relief = 5.0e-5;
    let ews_config = EwsConfig {
        detrend_window: 100,
        indicator_window: 2_000,
        stride: 100,
    };
    let ladder = Ladder::two_level(0.5, 0.2).expect("valid");
    // Replicates are independent managed trajectories — run them on the
    // context's thread budget, one derived stream each.
    let (tips, peak_sum, switch_sum) = ctx.run_trials(
        replicates as u64,
        master_seed,
        |_, rng| {
            let mut x = process.x0;
            let mut forcing = -0.25;
            let mut peak: f64 = forcing;
            let mut history = TimeSeries::new();
            let mut mode = LadderState::default();
            let mut switches = 0usize;
            let mut tipped = false;
            for t in 0..horizon {
                // Managerial policy.
                match mode.level() {
                    0 => forcing += ramp,
                    _ => forcing = (forcing - relief).max(-0.25),
                }
                x = process.step(x, forcing, rng);
                history.push(x);
                peak = peak.max(forcing);
                if x > 0.5 {
                    tipped = true;
                    break;
                }
                // Anticipation: periodically read the warning indicators over
                // the recent past (a sliding 15k-sample horizon — trends over
                // the whole history dilute the late acceleration).
                if anticipatory && t % 500 == 499 && history.len() > 6_000 {
                    let from = history.len().saturating_sub(15_000);
                    let recent = TimeSeries::from_values(history.values()[from..].to_vec());
                    if let Some(report) = early_warning_signals(&recent, recent.len(), &ews_config)
                    {
                        let signal = report.variance_trend.max(report.autocorrelation_trend);
                        let shift = ladder.step(&mut mode, t, signal.max(0.0));
                        switches += usize::from(shift.is_some());
                    }
                }
            }
            (tipped, peak, switches as f64)
        },
        (0usize, 0.0f64, 0.0f64),
        |(tips, peaks, switches), (tipped, peak, switch_count)| {
            (
                tips + usize::from(tipped),
                peaks + peak,
                switches + switch_count,
            )
        },
    );
    PolicyOutcome {
        tips,
        mean_peak_forcing: peak_sum / replicates as f64,
        mean_switches: switch_sum / replicates as f64,
    }
}

/// Run E19.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let replicates = 8;
    let blind = run_policy(false, replicates, ctx.derive(1900), ctx);
    let warned = run_policy(true, replicates, ctx.derive(1900), ctx);
    let rows = vec![
        vec![
            "blind (keep pushing)".into(),
            format!("{}/{replicates}", blind.tips),
            format!("{:.3}", blind.mean_peak_forcing),
            format!("{:.1}", blind.mean_switches),
        ],
        vec![
            "anticipatory (EWS → emergency mode)".into(),
            format!("{}/{replicates}", warned.tips),
            format!("{:.3}", warned.mean_peak_forcing),
            format!("{:.1}", warned.mean_switches),
        ],
    ];
    ExperimentTable {
        perf: None,
        id: "E19".into(),
        title: "Extension: anticipation driving mode switching".into(),
        claim: "§3.4.1 + §3.4.6: if early-warning signals can anticipate a \
                tipping point, the system can switch to an emergency policy \
                before the collapse instead of paying for it afterwards"
            .into(),
        headers: vec![
            "management policy".into(),
            "collapses".into(),
            "mean peak forcing sustained".into(),
            "mean mode switches".into(),
        ],
        rows,
        finding: format!(
            "the blind manager collapses the system in {}/{replicates} runs; \
             the anticipatory manager reads rising variance/autocorrelation \
             and backs off in time, collapsing in {}/{replicates} runs while \
             still sustaining forcing up to {:.2} (vs the critical 0.385) — \
             anticipation converts the early-warning literature into an \
             operational mode-switching trigger",
            blind.tips, warned.tips, warned.mean_peak_forcing
        ),
    }
}

#[cfg(test)]
mod tests {
    use resilience_core::RunContext;
    #[test]
    #[ignore = "long-running; exercised by the experiments binary in release"]
    fn anticipation_prevents_most_collapses() {
        let t = super::run(&RunContext::new(0));
        let blind: usize = t.rows[0][1].split('/').next().unwrap().parse().unwrap();
        let warned: usize = t.rows[1][1].split('/').next().unwrap().parse().unwrap();
        assert!(warned < blind);
    }

    #[test]
    fn single_replicate_smoke() {
        let ctx = RunContext::new(7);
        let blind = super::run_policy(false, 1, ctx.derive(1900), &ctx);
        assert!(blind.mean_peak_forcing > -0.25);
    }
}
