//! `benchmark compare A B`: the verdict of a change (B) against its
//! parent (A), per workload and end-to-end metric, from two files of run
//! records written with `--out`.
//!
//! * **worse** — B's median is worse than A's by more than the bound;
//! * **better** — B wins at least 9 of 10 index-aligned run pairs, ties
//!   counting for neither, and the medians differ by more than A's
//!   interquartile distance;
//! * **unresolved** — neither, and either side's interquartile spread
//!   exceeds the bound, so "no change" cannot be claimed;
//! * **same** — otherwise.

use std::collections::BTreeMap;
use std::fmt;

use serde_json::Value;

use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::{median, quartiles, relative_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
    Same,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        })
    }
}

/// Verdict for one metric given A's and B's values, run by run.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    // Positive when B is worse than A.
    let worsening = match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worsening > bound {
        return Verdict::Worse;
    }
    let pairs: Vec<(f64, f64)> = a.iter().copied().zip(b.iter().copied()).collect();
    let wins = pairs
        .iter()
        .filter(|(x, y)| match metric.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
        .count();
    let spread = |v: &[f64]| if v.len() < 2 { 0.0 } else { relative_spread(v) };
    let iqr_a = if a.len() < 2 {
        0.0
    } else {
        let [q1, _, q3] = quartiles(a);
        q3 - q1
    };
    if worsening < 0.0
        && !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && (mb - ma).abs() > iqr_a
    {
        return Verdict::Better;
    }
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// End-to-end metric values per workload, in record order, from a file
/// of run records (one JSON object per line; traced runs are skipped).
pub fn load(text: &str) -> Result<BTreeMap<String, BTreeMap<&'static str, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record =
            serde_json::parse_value_complete(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if record["trace"].as_u64() != Some(0) {
            continue;
        }
        let workload = record["workload"]
            .as_str()
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let metrics: &Value = &record["result"]["metrics"];
        let per = out.entry(workload.to_string()).or_default();
        for m in END_TO_END {
            if let Some(v) = metrics[m.name]["value"].as_f64() {
                per.entry(m.name).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// `x` to six significant digits.
pub fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (5 - x.abs().log10().floor() as i32).clamp(0, 15) as usize;
    format!("{x:.decimals$}")
}

fn summary(v: &[f64]) -> String {
    if v.len() < 2 {
        return format!("{} (n={})", sig(median(v)), v.len());
    }
    let [q1, q2, q3] = quartiles(v);
    format!("{} [{}, {}] (n={})", sig(q2), sig(q1), sig(q3), v.len())
}

/// Print the comparison table; returns how many metrics came out worse.
pub fn compare(a_text: &str, b_text: &str) -> Result<usize, String> {
    let (a, b) = (load(a_text)?, load(b_text)?);
    let mut worse = 0;
    println!(
        "{:<20} {:<13} {:<44} {:<44} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload:<20} (no runs in B)");
            continue;
        };
        for m in END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                continue;
            };
            let v = verdict(m, av, bv);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{workload:<20} {:<13} {:<44} {:<44} {v}",
                m.name,
                summary(av),
                summary(bv)
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn p50() -> &'static Metric {
        find("op_ms_p50").expect("catalogued")
    }

    fn throughput() -> &'static Metric {
        find("work_per_s").expect("catalogued")
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        // Identical runs: the same.
        assert_eq!(verdict(p50(), &parent, &parent), Verdict::Same);
        // 30% slower on a 25% bound: worse.
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(p50(), &parent, &slower), Verdict::Worse);
        // 5% faster on every pair, beyond the parent's spread: better.
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(p50(), &parent, &faster), Verdict::Better);
        // Faster in the median but winning only half the pairs: the same.
        let mixed = [9.5, 10.2, 9.5, 10.1, 9.5, 10.3, 9.5, 10.2, 9.5, 10.1];
        assert_eq!(verdict(p50(), &parent, &mixed), Verdict::Same);
        // A spread beyond the bound with no clear shift: unresolved.
        let noisy = [6.0, 14.0, 7.0, 13.0, 10.0, 9.0, 11.0, 6.5, 13.5, 10.0];
        assert_eq!(verdict(p50(), &parent, &noisy), Verdict::Unresolved);
        // Direction follows the metric: a higher throughput is better.
        let up: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(throughput(), &parent, &up), Verdict::Better);
        assert_eq!(verdict(throughput(), &parent, &faster), Verdict::Same);
        let down: Vec<f64> = parent.iter().map(|x| x * 0.7).collect();
        assert_eq!(verdict(throughput(), &parent, &down), Verdict::Worse);
    }

    #[test]
    fn summaries_keep_six_significant_digits() {
        assert_eq!(sig(1.413_64e-7), "0.000000141364");
        assert_eq!(sig(154.340_535), "154.341");
        assert_eq!(sig(19_492_543.0), "19492543");
        assert_eq!(summary(&[1.0, 2.0]), "1.50000 [0.750000, 2.25000] (n=2)");
    }

    #[test]
    fn load_groups_untraced_records_by_workload() {
        let text = concat!(
            r#"{"workload":"w","seed":1,"trace":0,"result":{"correct":true,"attempted":3,"failed":0,"metrics":{"op_ms_p50":{"value":2.5,"unit":"ms"}}}}"#,
            "\n",
            r#"{"workload":"w","seed":2,"trace":1,"result":{"correct":true,"attempted":3,"failed":0,"metrics":{"op_ms_p50":{"value":9.0,"unit":"ms"}}}}"#,
            "\n",
            r#"{"workload":"w","seed":3,"trace":0,"result":{"correct":true,"attempted":3,"failed":0,"metrics":{"op_ms_p50":{"value":3.5,"unit":"ms"}}}}"#,
            "\n"
        );
        let runs = load(text).expect("parses");
        assert_eq!(runs["w"]["op_ms_p50"], vec![2.5, 3.5]);
        assert!(load("{not json").is_err());
    }
}
