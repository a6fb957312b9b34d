//! The metric catalogue, the checks, and the report every run prints.

use crate::stats::{valid_name, valid_unit};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("energy_kj", "kJ"),
    ("quality", "ratio"),
    ("rps", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p90_us", "us"),
];

/// Per-layer metrics, reported by traced runs of every workload. A layer
/// a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.self_s", "s"),
    ("engine.epochs", "count"),
    ("engine.triggers_quantum", "count"),
    ("engine.triggers_counter", "count"),
    ("engine.triggers_idle", "count"),
    ("engine.exec_slices_per_job", "1/job"),
    ("ge.epoch_s", "s"),
    ("ge.epoch_p50_us", "us"),
    ("ge.epoch_p99_us", "us"),
    ("ge.batch_mean", "jobs"),
    ("ge.replan_hit_ratio", "ratio"),
    ("ge.replan_decisions", "count"),
    ("ge.lf_cuts", "count"),
    ("ge.second_cuts", "count"),
    ("ge.mode_switches", "count"),
    ("queue.dispatch_s", "s"),
    ("workload.generate_s", "s"),
    ("sweep.busy_share", "ratio"),
    ("sweep.cell_p50_s", "s"),
    ("sweep.cell_max_s", "s"),
    ("serve.decision_p50_us", "us"),
    ("serve.decision_p99_us", "us"),
    ("serve.wire_p50_us", "us"),
    ("serve.drain_s", "s"),
    ("protocol.parse_ns", "ns"),
    ("admission.requests", "count"),
    ("admission.accepted_share", "ratio"),
    ("admission.busy_share", "ratio"),
    ("admission.rejected_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// One run's findings: metrics by name, checks, operation tallies, and
/// the lines printed ahead of the machine-readable result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a check; a failed check counts as one failed operation.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((what.into(), ok));
    }

    /// Counts operations run (simulations, cells, round trips).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts operations that failed outright (I/O errors, `ERR` replies).
    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }

    /// Adds a line to the human-readable part of the report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Prints the report: notes, checks and metrics with their units,
    /// then the one-line JSON result, last on standard output.
    pub fn print(&self, traced: bool) {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        for line in &self.notes {
            println!("{line}");
        }
        for (what, ok) in &self.checks {
            println!("check {:<4} {what}", if *ok { "ok" } else { "FAIL" });
        }
        let mut json = String::new();
        for (name, unit) in catalogue {
            let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            println!("metric {name:<28} {value:>16.6} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let missing = catalogue.iter().any(|(n, u)| {
            !valid_name(n) || !valid_unit(u) || !self.metrics.get(n).is_some_and(|v| v.is_finite())
        });
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct() && !missing,
            self.attempted.max(1),
            self.failed + u64::from(missing),
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// a missing or non-finite value becomes 0 (the run is then marked
/// incorrect by [`Report::print`]).
fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_string();
    }
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn benchmark_json_names_every_metric_in_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(1e-7), "0.0000001");
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut r = Report::default();
        r.attempt(3);
        r.check("fine", true);
        assert!(r.correct());
        r.check("broken", false);
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
    }
}
