//! The repository benchmark: three workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from traced ones, every output
//! checked. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! ge-perfbench --workload <sim_ge|sweep_mix|serve_closed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod report;
mod serve;
mod sim;
mod stats;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the run measures, seconds.
    pub seconds: f64,
    /// Whether this is the traced run reporting per-layer metrics.
    pub traced: bool,
}

const WORKLOADS: [&str; 3] = ["sim_ge", "sweep_mix", "serve_closed"];

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

/// Records `peak_rss_mb` from a [`peak_rss_mb`] reading.
pub fn record_peak_rss(rep: &mut Report, reading: Option<f64>) {
    match reading {
        Some(mb) => rep.set("peak_rss_mb", mb),
        None => rep.check("peak resident memory readable from /proc", false),
    }
}

/// Peak resident set of this process so far, MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The machine the numbers were taken on.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("fingerprint: nproc={nproc} rustc=\"{rustc}\" cpu=\"{cpu}\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ge-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    rep.note(fingerprint());
    rep.note(format!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    ));
    match opts.workload.as_str() {
        "sim_ge" => sim::sim_ge(&opts, &mut rep),
        "sweep_mix" => sim::sweep_mix(&opts, &mut rep),
        _ => serve::serve_closed(&opts, &mut rep),
    }
    rep.print(opts.traced);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_args(&args("--workload sim_ge --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.traced),
            ("sim_ge", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload sim_ge --seed x --seconds 1")).is_err());
        assert!(parse_args(&args("--workload sim_ge --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload sim_ge --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload sim_ge --seed")).is_err());
    }

    #[test]
    fn workload_names_are_valid() {
        assert!(WORKLOADS.iter().all(|w| stats::valid_name(w)));
    }
}
