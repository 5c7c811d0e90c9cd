//! The `compare` subcommand: is result file B worse than result file A?
//!
//! For every workload and end-to-end metric the medians are compared
//! against the metric's bound. Where the run-to-run spread of either side
//! is wider than the bound the pair is *unresolved*, not unchanged — unless
//! every run of B reads better than every run of A. Simulated outputs must
//! be identical. The exit code is the gate: 1 if anything regressed or any
//! simulated output differs, 0 otherwise (unresolved pairs are listed, and
//! do not fail the gate on their own).

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::manifest::END_TO_END;
use crate::stats::{median, spread};
use crate::workloads::Workload;

/// How one workload × metric pair came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread of a side exceeds the bound, so the medians decide nothing.
    Unresolved,
}

/// Judges one metric where lower is better: `a` and `b` are the per-repeat
/// values of the reference and the candidate.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let max_b = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min_a = a.iter().copied().fold(f64::INFINITY, f64::min);
    if spread(a).max(spread(b)) > bound && max_b >= min_a {
        return Verdict::Unresolved;
    }
    if mb > ma * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if file.get("kind").and_then(Json::as_str) != Some("run") {
        return Err(format!("{path}: not a `run` result file"));
    }
    if file.get("scale").and_then(Json::as_str) != Some("full") {
        return Err(format!("{path}: smoke-scale results are never compared"));
    }
    Ok(file)
}

fn values(file: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_array)
        .map(|items| items.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("{workload}: no values for {metric}"))
}

/// Runs the comparison of two `run` result files.
///
/// # Errors
///
/// Wrong arguments, unreadable or smoke-scale files, files taken under
/// different protocols, missing rows.
pub(crate) fn main(args: &[String]) -> Result<ExitCode, String> {
    let [path_a, path_b] = args else {
        return Err("compare takes exactly two result files".to_string());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    // Every host-time metric is a minimum over the repeats that fit one
    // process's budget: files taken under different budgets, process counts
    // or seeds do not measure the same thing. (`load` has pinned the scale.)
    for key in ["seed", "seconds_per_process", "repeats"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the two files were measured with different `{key}`: {} and {}",
                a.get(key).map_or("none".into(), Json::render),
                b.get(key).map_or("none".into(), Json::render)
            ));
        }
    }

    let (mut regressed, mut unresolved, mut mismatched) = (0, 0, 0);
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for workload in Workload::ALL.map(Workload::name) {
        for (metric, _unit, bound) in END_TO_END {
            let (va, vb) = (values(&a, workload, metric)?, values(&b, workload, metric)?);
            let verdict = judge(&va, &vb, bound);
            match verdict {
                Verdict::Within => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            println!(
                "{workload:<12} {metric:<18} {:>14.6} {:>14.6} {:>+7.1}% {:>6.0}%  {}",
                median(&va),
                median(&vb),
                100.0 * (median(&vb) / median(&va) - 1.0),
                100.0 * bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                }
            );
        }
        // A change to the simulator's speed must leave every simulated
        // statistic untouched.
        let row = |file: &Json, key: &str| file.get("workloads")?.get(workload)?.get(key).cloned();
        for key in ["sim_digest", "sim", "offered", "accepted", "failed"] {
            if row(&a, key) != row(&b, key) {
                mismatched += 1;
                println!("{workload:<12} {key} differs: simulated outputs are not identical");
            }
        }
    }
    println!(
        "{regressed} regressed, {unresolved} unresolved, {mismatched} simulated outputs differ"
    );
    Ok(if regressed + mismatched == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clear_regression_is_flagged() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let b = [1.20, 1.21, 1.19, 1.22, 1.20];
        assert_eq!(judge(&a, &b, 0.10), Verdict::Regressed);
        assert_eq!(judge(&a, &a, 0.10), Verdict::Within);
        // Better is never a regression.
        assert_eq!(judge(&b, &a, 0.10), Verdict::Within);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [1.0, 1.4, 0.8, 1.3, 0.9];
        let same = [1.05, 1.0, 1.1, 0.95, 1.0];
        assert_eq!(judge(&noisy, &same, 0.10), Verdict::Unresolved);
        let clearly_better = [0.5, 0.55, 0.5, 0.6, 0.52];
        assert_eq!(judge(&noisy, &clearly_better, 0.10), Verdict::Within);
    }
}
