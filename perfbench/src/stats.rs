//! Sample statistics and the small derivations the report is built from.

/// Samples that must lie beyond a percentile before it is reported as
/// supported: below this, a tail percentile is decided by a handful of
/// outliers and moves from run to run.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Linear-interpolation percentile of `samples` (`p` in `[0, 1]`); 0 for
/// an empty slice. Sorts a copy, so callers keep their order.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] strictly
/// beyond percentile `p`, so the percentile is not set by a few values.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    let beyond = (n as f64 * (1.0 - p.clamp(0.0, 1.0)) + 1e-9).floor() as usize;
    beyond >= MIN_TAIL_SAMPLES
}

/// The sample count the report prints next to a percentile, flagged
/// when too few samples lie beyond it.
pub fn support_note(n: usize, p: f64) -> String {
    if percentile_supported(n, p) {
        format!("n={n}")
    } else {
        format!(
            "n={n}, under {MIN_TAIL_SAMPLES} samples beyond p{}",
            p * 100.0
        )
    }
}

/// The engine's self time seen from outside: a run's wall time minus the
/// time spent inside the policy's `on_schedule` calls. Everything else in
/// a run is the simulation driver, the server and the event loop.
pub fn engine_self_s(run_wall_s: f64, schedule_s: f64) -> f64 {
    run_wall_s - schedule_s
}

/// The wire's share of a median round trip: client round trip minus the
/// in-core decision the server measured for the same requests.
pub fn wire_p50_us(rtt_p50_us: f64, decision_p50_us: f64) -> f64 {
    rtt_p50_us - decision_p50_us
}

/// `part / whole`, or 0 when nothing was counted.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 64 characters of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// FNV-1a 64 over a stream of `u64` words (little-endian bytes): the
/// digest of simulated outputs a speed-only change must leave unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the exact bits of a float into the digest.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.125), 1.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert!(!percentile_supported(99, 0.9));
        assert!(percentile_supported(100, 0.9));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(1000, 0.99));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert_eq!(support_note(100, 0.9), "n=100");
        assert!(support_note(50, 0.9).contains("under 10 samples beyond p90"));
    }

    #[test]
    fn layer_subtractions() {
        assert_eq!(engine_self_s(0.75, 0.25), 0.5);
        assert_eq!(wire_p50_us(44_000.0, 35.0), 43_965.0);
        assert_eq!(share(3.0, 4.0), 0.75);
        assert_eq!(share(3.0, 0.0), 0.0);
    }

    #[test]
    fn name_and_unit_character_sets() {
        for ok in ["setup_s", "ge.epoch_p99_us", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "µs",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "ms", "1/s", "%", "count", "MB", "jobs/epoch"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "x".repeat(17).as_str(), "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_depends_on_every_bit_and_on_order() {
        let digest = |xs: &[f64]| {
            let mut h = Fnv::default();
            xs.iter().for_each(|&x| h.float(x));
            h.finish()
        };
        assert_eq!(digest(&[0.9, 1.5]), digest(&[0.9, 1.5]));
        assert_ne!(digest(&[0.9, 1.5]), digest(&[1.5, 0.9]));
        assert_ne!(
            digest(&[0.9]),
            digest(&[f64::from_bits(0.9f64.to_bits() + 1)])
        );
    }
}
