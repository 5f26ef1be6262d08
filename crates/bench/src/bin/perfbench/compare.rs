//! `--compare A.json --against B.json`: two result sets judged per
//! (workload, end-to-end metric) against the bounds in `BENCHMARK.json`.

use snicbench_core::json::Json;

use crate::stats::Summary;

/// The benchmark definition at the repository root; its bounds gate
/// `--compare`.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// The share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end bounds of a `BENCHMARK.json` document.
pub fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry lacks '{key}'"))
            };
            let better = text("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("'better' must be lower or higher, not {better}"));
            }
            Ok(Bound {
                name: text("name")?,
                lower_is_better: better == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks 'bound'")?,
            })
        })
        .collect()
}

/// How a metric moved from set A to set B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Unchanged,
    Better,
    /// The quartile spread of either side is wider than the bound, so a
    /// move within the noise cannot be told from none.
    Unresolved,
    Worse,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One side's samples of one metric; the reported value is their median.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub summary: Summary,
    pub samples: Vec<f64>,
}

impl Side {
    fn new(samples: Vec<f64>) -> Side {
        Side {
            summary: Summary::of(&samples),
            samples,
        }
    }

    /// How much B's median moved from this side's, as a share of this one.
    fn delta(&self, b: &Side) -> f64 {
        (b.summary.median - self.summary.median) / self.summary.median.abs()
    }
}

/// B's median against A's: worse or better by more than the bound, else
/// unchanged; unresolved when either side's sample spread exceeds the
/// bound, unless every B sample beats every A sample.
pub fn verdict(a: &Side, b: &Side, bound: &Bound) -> Verdict {
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worsening = sign * a.delta(b);
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_b_better = b
        .samples
        .iter()
        .all(|&x| a.samples.iter().all(|&y| beats(x, y)));
    if a.summary.spread().max(b.summary.spread()) > bound.bound {
        if all_b_better && !b.samples.is_empty() {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound.bound {
        Verdict::Worse
    } else if worsening < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// A metric's samples from a result-set workload entry.
fn side(workload: &Json, metric: &str) -> Result<Side, String> {
    let m = workload
        .get("metrics")
        .and_then(|ms| ms.get(metric))
        .ok_or(format!("no metric {metric}"))?;
    let samples: Vec<f64> = m
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or(format!("{metric} has no samples"))?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if samples.is_empty() {
        return Err(format!("{metric} has no samples"));
    }
    Ok(Side::new(samples))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(set: &Json) -> &[Json] {
    set.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

/// Prints one row per workload; returns the exit code: 1 when a metric
/// got worse or a digest changed, 2 when the inputs are unusable.
pub fn run(a_path: &str, b_path: &str) -> i32 {
    let result = (|| -> Result<bool, String> {
        let bench = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let bounds = bounds(&bench)?;
        let (a, b) = (load(a_path)?, load(b_path)?);
        let mut header = format!("{:<13} {:<11}", "workload", "verdict");
        for bound in &bounds {
            header.push_str(&format!(
                " {:<24}",
                format!("{} (±{:.0}%)", bound.name, bound.bound * 100.0)
            ));
        }
        println!("{header} digest");
        let mut clean = true;
        for wa in workloads(&a) {
            let name = wa.get("workload").and_then(Json::as_str).unwrap_or("?");
            let Some(wb) = workloads(&b)
                .iter()
                .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
            else {
                println!("{name:<13} missing from {b_path}");
                clean = false;
                continue;
            };
            let mut worst = Verdict::Unchanged;
            let mut cells = String::new();
            for bound in &bounds {
                let (sa, sb) = (side(wa, &bound.name)?, side(wb, &bound.name)?);
                let v = verdict(&sa, &sb, bound);
                worst = worst.max(v);
                cells.push_str(&format!(
                    " {:<24}",
                    format!("{:+.1}% {}", sa.delta(&sb) * 100.0, v.name())
                ));
            }
            let digest = |w: &Json| {
                w.get("sim_digest")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            let same = digest(wa).is_some() && digest(wa) == digest(wb);
            clean &= same && worst != Verdict::Worse;
            println!(
                "{name:<13} {:<11}{cells} {}",
                worst.name(),
                if same { "match" } else { "DIFFER" }
            );
        }
        Ok(clean)
    })();
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LAYER_METRICS;
    use crate::workloads::Workload;

    fn side(samples: &[f64]) -> Side {
        Side::new(samples.to_vec())
    }

    fn bound(lower_is_better: bool) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = side(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        let lower = bound(true);
        assert_eq!(verdict(&base, &base, &lower), Verdict::Unchanged);
        assert_eq!(
            verdict(&base, &side(&[10.5, 10.6, 10.4, 10.5, 10.5]), &lower),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &side(&[11.5, 11.6, 11.4, 11.5, 11.5]), &lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &side(&[8.5, 8.6, 8.4, 8.5, 8.5]), &lower),
            Verdict::Better
        );
        // For a throughput the same move is the other way round.
        let higher = bound(false);
        assert_eq!(
            verdict(&base, &side(&[11.5, 11.6, 11.4, 11.5, 11.5]), &higher),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &side(&[8.5, 8.6, 8.4, 8.5, 8.5]), &higher),
            Verdict::Worse
        );
        // A spread wider than the bound leaves the move unresolved...
        let noisy = side(&[6.0, 14.0, 8.0, 12.0, 10.0]);
        assert_eq!(verdict(&base, &noisy, &lower), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let noisy_fast = side(&[5.0, 9.0, 6.0, 8.0, 7.0]);
        assert_eq!(verdict(&base, &noisy_fast, &lower), Verdict::Better);
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_code() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(
            Json::parse(&doc.to_pretty()).expect("re-rendered document parses"),
            doc
        );
        let keys: Vec<&str> = doc
            .entries()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<String> = crate::E2E.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> = LAYER_METRICS.iter().map(|l| l.name.to_string()).collect();
        assert_eq!(names("per_layer"), layers);
        let b = bounds(&doc).expect("bounds parse");
        assert!(b.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = b
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s is gated");
        assert!(setup.lower_is_better && b.iter().all(|o| o.bound <= setup.bound));
    }
}
