//! `compare A.json B.json`: B against A, per metric and workload, by the
//! bounds the catalog fixes — exact equality for simulated rows and
//! `fail_share`, a share of A's median for host rows, `unresolved` when
//! the runs' own quartile spread is wider than that share.

use std::path::Path;

use crate::catalog::{metric, Better, Bound, Level};
use crate::json::Json;
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` (each the values of the runs of one side).
pub fn judge(better: Better, bound: Bound, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (crate::stats::median(a), crate::stats::median(b));
    // Positive = b reads better than a.
    let gain = |x: f64, y: f64| {
        if better == Better::Lower {
            x - y
        } else {
            y - x
        }
    };
    match bound {
        Bound::Exact => match gain(ma, mb) {
            g if g > 0.0 => Verdict::Better,
            g if g < 0.0 => Verdict::Worse,
            _ => Verdict::Same,
        },
        Bound::Share(share) => {
            let noisy = [a, b]
                .iter()
                .any(|side| spread(side).is_some_and(|s| s > share));
            if noisy {
                // Wider than the bound: only a clean sweep resolves it.
                let sweep = |sign: f64| {
                    a.iter()
                        .all(|x| b.iter().all(|y| sign * gain(*x, *y) > 0.0))
                };
                return if sweep(1.0) {
                    Verdict::Better
                } else if sweep(-1.0) {
                    Verdict::Worse
                } else {
                    Verdict::Unresolved
                };
            }
            let rel = if ma == 0.0 {
                0.0
            } else {
                gain(ma, mb) / ma.abs()
            };
            if rel > share {
                Verdict::Better
            } else if rel < -share {
                Verdict::Worse
            } else {
                Verdict::Same
            }
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn runs_of(row: &Json) -> Vec<f64> {
    row.get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// Prints the verdict table; `Ok(false)` when an end-to-end metric is worse
/// or a fingerprint differs.
pub fn run(a_path: &Path, b_path: &Path, show_runs: bool) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    let mut tally = [0usize; 4];
    for (workload, wa) in a.get("workloads").map_or(&[][..], Json::as_obj) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("== {workload}: only in {}", a_path.display());
            continue;
        };
        let fp = |w: &Json| {
            w.get("virt_fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let same_fp = fp(wa) == fp(wb);
        ok &= same_fp;
        println!(
            "== {workload}: virt_fingerprint {} ({} vs {})",
            if same_fp { "same" } else { "DIFFERENT" },
            fp(wa),
            fp(wb)
        );
        for (name, ra) in wa.get("metrics").map_or(&[][..], Json::as_obj) {
            let (Some(def), Some(rb)) = (metric(name), wb.get("metrics").and_then(|m| m.get(name)))
            else {
                continue;
            };
            let (va, vb) = (runs_of(ra), runs_of(rb));
            let verdict = judge(def.better, def.bound, &va, &vb);
            tally[verdict as usize] += 1;
            if verdict == Verdict::Worse && def.level == Level::EndToEnd {
                ok = false;
            }
            let (ma, mb) = (crate::stats::median(&va), crate::stats::median(&vb));
            let detail = if show_runs {
                format!("  {va:?} vs {vb:?}")
            } else {
                String::new()
            };
            println!(
                "{name:<40} {:<10} {ma:>16.6} -> {mb:>16.6} {:<9} [{}]{detail}",
                verdict.label(),
                def.unit,
                def.clock()
            );
        }
    }
    println!(
        "same {}  better {}  worse {}  unresolved {}",
        tally[Verdict::Same as usize],
        tally[Verdict::Better as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize]
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_rows_flag_any_difference_by_direction() {
        let exact = Bound::Exact;
        assert_eq!(
            judge(Better::Lower, exact, &[743.0], &[743.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Lower, exact, &[743.0], &[742.0]),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Lower, exact, &[743.0], &[744.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, exact, &[0.5], &[0.6]),
            Verdict::Better
        );
    }

    #[test]
    fn host_rows_use_the_bound_on_medians() {
        let b = Bound::Share(0.10);
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(Better::Lower, b, &steady, &[105.0, 106.0, 104.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Lower, b, &steady, &[115.0, 116.0, 114.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, b, &steady, &[85.0, 86.0, 84.0]),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Higher, b, &steady, &[85.0, 86.0, 84.0]),
            Verdict::Worse
        );
        // Single runs have no spread of their own: the bound alone decides.
        assert_eq!(judge(Better::Lower, b, &[100.0], &[109.0]), Verdict::Same);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_a_clean_sweep() {
        let b = Bound::Share(0.10);
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            judge(Better::Lower, b, &noisy, &[95.0, 100.0, 130.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, b, &noisy, &[50.0, 60.0, 70.0]),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Lower, b, &noisy, &[150.0, 160.0, 170.0]),
            Verdict::Worse
        );
    }
}
