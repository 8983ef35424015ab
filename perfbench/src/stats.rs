//! Metrics with their samples: medians and quartiles by
//! `obs::nearest_rank`, the result table and the final JSON line.

use obs::nearest_rank;

/// One reported metric: its value and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub p25: f64,
    pub p75: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The `p` quantile of `samples` (nearest rank; 0 when empty).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    nearest_rank(&sorted(samples), p)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

impl Metric {
    /// The `p` quantile of `samples`, with the samples' quartiles as its
    /// spread.
    pub fn at(name: &str, unit: &'static str, samples: &[f64], p: f64) -> Metric {
        let s = sorted(samples);
        Metric {
            name: name.to_string(),
            unit,
            value: nearest_rank(&s, p),
            n: s.len(),
            p25: nearest_rank(&s, 0.25),
            p75: nearest_rank(&s, 0.75),
        }
    }

    /// The median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::at(name, unit, samples, 0.5)
    }

    /// A single figure: a count, or a value derived from other metrics.
    pub fn value(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            p25: value,
            p75: value,
        }
    }
}

/// Human-readable table, one `#`-prefixed line per metric.
pub fn print_table(metrics: &[Metric]) {
    println!(
        "# {:<36} {:>14} {:<6} {:>6} {:>14} {:>14}",
        "metric", "value", "unit", "n", "p25", "p75"
    );
    for m in metrics {
        println!(
            "# {:<36} {:>14.6e} {:<6} {:>6} {:>14.6e} {:>14.6e}",
            m.name, m.value, m.unit, m.n, m.p25, m.p75
        );
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric's
/// value and unit. Non-finite values are written as 0 and make the run
/// incorrect, since JSON has no spelling for them.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                dataflow::profile::json_string(&m.name),
                dataflow::profile::json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        correct && finite,
        body.join(",")
    )
}
