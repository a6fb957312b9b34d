//! The simulation workloads: `sim_ge` (one GE run on the paper platform)
//! and `sweep_mix` (a figure-style sweep through `ge_experiments::sweep`).

use crate::layers::{CountingSink, EventCounts, Timed};
use crate::report::Report;
use crate::stats::{engine_self_s, median, percentile, share, support_note, Fnv};
use crate::Opts;
use ge_core::baselines::{QueuePolicy, QueueScheduler};
use ge_core::ge::GeOptions;
use ge_core::{run_scheduler_with_sink, Algorithm, GeScheduler, RunResult, Scheduler, SimConfig};
use ge_experiments::{parallel_indexed, sweep, Cell};
use ge_oracle::{energy_lower_bound, LowerBoundInputs};
use ge_power::PolynomialPower;
use ge_quality::ExpConcave;
use ge_simcore::SimTime;
use ge_workload::{Trace, WorkloadConfig, WorkloadGenerator};
use std::collections::BTreeMap;
use std::time::Instant;

/// Arrival rate of `sim_ge`, req/s: just under the paper's 154 req/s
/// critical load, so GE runs in AES mode with equal-share power and LF
/// cutting.
const SIM_GE_RATE: f64 = 150.0;

/// How far GE's final quality may sit from `Q_GE` on `sim_ge`.
const Q_GE_TOLERANCE: f64 = 0.005;

/// Sweep rates, req/s: underload, near the critical load, and past the
/// ~198 req/s point where GE's batches double and the BQ/WF/second-cut
/// paths run.
const SWEEP_RATES: [f64; 4] = [100.0, 150.0, 200.0, 250.0];

/// Simulated horizon of each sweep cell, seconds: long enough that every
/// cell leaves its warm-up, short enough for several sweeps per run.
const SWEEP_HORIZON_S: f64 = 60.0;

fn sweep_algorithms() -> [Algorithm; 4] {
    [
        Algorithm::Ge,
        Algorithm::Be,
        Algorithm::Fcfs,
        Algorithm::Sjf,
    ]
}

/// A fresh policy for one traced run, concretely typed so its own
/// counters stay reachable after the run.
enum Policy {
    Ge(Box<Timed<GeScheduler>>),
    Queue(Timed<QueueScheduler>),
}

impl Policy {
    fn build(cfg: &SimConfig, algorithm: &Algorithm) -> Policy {
        match algorithm {
            Algorithm::Ge => Policy::Ge(Box::new(Timed::new(GeScheduler::new(
                cfg,
                GeOptions::paper(),
            )))),
            Algorithm::Be => Policy::Ge(Box::new(Timed::new(GeScheduler::new(
                cfg,
                GeOptions::best_effort(),
            )))),
            Algorithm::Fcfs => {
                Policy::Queue(Timed::new(QueueScheduler::new(cfg, QueuePolicy::Fcfs)))
            }
            Algorithm::Sjf => Policy::Queue(Timed::new(QueueScheduler::new(cfg, QueuePolicy::Sjf))),
            other => unreachable!("no benchmark workload runs {}", other.label()),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn Scheduler {
        match self {
            Policy::Ge(s) => s.as_mut(),
            Policy::Queue(s) => s,
        }
    }
}

/// What one traced run leaves for the per-layer metrics.
struct TracedRun {
    result: RunResult,
    run_s: f64,
    /// Wall time of each scheduling epoch and the queued jobs at its entry.
    epoch_s: Vec<f64>,
    batch: Vec<usize>,
    /// Plans kept and recomputed by a GE-family policy; `None` for a
    /// queue policy.
    replan: Option<(u64, u64)>,
    counts: EventCounts,
}

fn traced_run(cfg: &SimConfig, trace: &Trace, algorithm: &Algorithm) -> TracedRun {
    let mut policy = Policy::build(cfg, algorithm);
    let mut sink = CountingSink::default();
    let started = Instant::now();
    let result = run_scheduler_with_sink(cfg, trace, policy.as_dyn(), None, &mut sink);
    let run_s = started.elapsed().as_secs_f64();
    let (epoch_s, batch, replan) = match policy {
        Policy::Ge(t) => {
            let stats = t.inner.replan_stats();
            let replan = (stats.cores_skipped, stats.cores_replanned);
            (t.epoch_s, t.batch, Some(replan))
        }
        Policy::Queue(t) => (t.epoch_s, t.batch, None),
    };
    TracedRun {
        result,
        run_s,
        epoch_s,
        batch,
        replan,
        counts: sink.counts,
    }
}

/// Per-layer metrics of one traced repetition (one simulation, or one
/// whole sweep) from its traced runs.
fn layer_metrics(runs: &[&TracedRun], generate_s: f64) -> BTreeMap<&'static str, f64> {
    let mut counts = EventCounts::default();
    runs.iter().for_each(|r| counts.add(&r.counts));
    let jobs: u64 = runs.iter().map(|r| r.result.jobs_finished).sum();
    let (ge, queue): (Vec<&TracedRun>, Vec<&TracedRun>) =
        runs.iter().partition(|r| r.replan.is_some());
    let epoch_s: Vec<f64> = ge.iter().flat_map(|r| r.epoch_s.clone()).collect();
    let batch: Vec<usize> = ge.iter().flat_map(|r| r.batch.clone()).collect();
    let (kept, replanned) = ge
        .iter()
        .filter_map(|r| r.replan)
        .fold((0, 0), |(k, p), (rk, rp)| (k + rk, p + rp));
    let mut m = BTreeMap::new();
    m.insert(
        "engine.self_s",
        runs.iter()
            .map(|r| engine_self_s(r.run_s, r.epoch_s.iter().sum()))
            .sum(),
    );
    m.insert(
        "engine.epochs",
        runs.iter().map(|r| r.result.schedule_epochs as f64).sum(),
    );
    m.insert("engine.triggers_quantum", counts.triggers_quantum as f64);
    m.insert("engine.triggers_counter", counts.triggers_counter as f64);
    m.insert("engine.triggers_idle", counts.triggers_idle as f64);
    m.insert(
        "engine.exec_slices_per_job",
        share(counts.exec_slices as f64, jobs as f64),
    );
    m.insert("ge.epoch_s", epoch_s.iter().sum());
    m.insert("ge.epoch_p50_us", percentile(&epoch_s, 0.5) * 1e6);
    m.insert("ge.epoch_p99_us", percentile(&epoch_s, 0.99) * 1e6);
    m.insert(
        "ge.batch_mean",
        share(batch.iter().sum::<usize>() as f64, batch.len() as f64),
    );
    m.insert(
        "ge.replan_hit_ratio",
        share(kept as f64, (kept + replanned) as f64),
    );
    m.insert("ge.replan_decisions", (kept + replanned) as f64);
    m.insert("ge.lf_cuts", counts.lf_cuts as f64);
    m.insert("ge.second_cuts", counts.second_cuts as f64);
    m.insert("ge.mode_switches", counts.mode_switches as f64);
    m.insert(
        "queue.dispatch_s",
        queue.iter().flat_map(|r| r.epoch_s.iter()).sum(),
    );
    m.insert("workload.generate_s", generate_s);
    m
}

/// Per-metric median over repetitions.
fn median_metrics(reps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = reps.first() {
        for name in first.keys() {
            let xs: Vec<f64> = reps.iter().map(|m| m[name]).collect();
            out.insert(*name, median(&xs));
        }
    }
    out
}

/// The exact simulated outputs of `results`, folded into one digest.
fn digest<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    let mut h = Fnv::default();
    for r in results {
        h.float(r.quality);
        h.float(r.energy_j);
        h.word(r.jobs_finished);
        h.word(r.jobs_discarded);
        h.word(r.jobs_shed);
    }
    h.finish()
}

fn same_outputs<'a>(
    a: impl IntoIterator<Item = &'a RunResult>,
    b: impl IntoIterator<Item = &'a RunResult>,
) -> bool {
    digest(a) == digest(b)
}

/// Checks one finished simulation against its inputs: every job ends in
/// exactly one of served, discarded or shed, and the energy is no less
/// than the clairvoyant lower bound for the quality reached.
fn check_cell(rep: &mut Report, label: &str, cfg: &SimConfig, trace: &Trace, r: &RunResult) {
    // `jobs_finished` counts every job the quality ledger recorded:
    // served ones, those discarded unserved, and those shed (a subset of
    // the discarded).
    let served = r.jobs_finished.saturating_sub(r.jobs_discarded);
    let unshed_discards = r.jobs_discarded.saturating_sub(r.jobs_shed);
    rep.check(
        format!(
            "{label}: served {served} + discarded {unshed_discards} + shed {} = {} jobs",
            r.jobs_shed,
            trace.len()
        ),
        r.jobs_shed <= r.jobs_discarded
            && r.jobs_discarded <= r.jobs_finished
            && served + unshed_discards + r.jobs_shed == trace.len() as u64,
    );
    let f = ExpConcave::new(cfg.quality_c, cfg.quality_xmax);
    let model = PolynomialPower::new(cfg.power_a, cfg.power_beta);
    let demands: Vec<f64> = trace.jobs().iter().map(|j| j.demand).collect();
    let inputs = LowerBoundInputs {
        demands: &demands,
        span_secs: trace.last_deadline().as_secs().max(cfg.horizon.as_secs()),
        cores: cfg.cores,
        units_per_ghz_sec: cfg.units_per_ghz_sec,
    };
    let bound = energy_lower_bound(&f, &model, &inputs, r.quality);
    rep.check(
        format!(
            "{label}: energy {:.1} J >= lower bound {bound:.1} J",
            r.energy_j
        ),
        r.energy_j >= bound,
    );
    rep.check(
        format!("{label}: quality {:.6} in (0, 1]", r.quality),
        r.quality > 0.0 && r.quality <= 1.0,
    );
}

/// Every timed loop makes at least this many repetitions.
const MIN_REPETITIONS: usize = 3;

/// What a timed loop leaves: per-repetition set-up and run times, the
/// peak memory after [`MIN_REPETITIONS`] repetitions, and the last inputs.
struct Repeated<T> {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    peak_mb: Option<f64>,
    inputs: T,
}

/// Repeats set-up and run until `seconds` have passed, at least
/// [`MIN_REPETITIONS`] times. Each repetition sets up afresh, so the
/// set-up time is a median over samples spread across the run, and
/// memory is read after a fixed amount of work.
fn repeat<T>(seconds: f64, mut set_up: impl FnMut() -> T, mut run: impl FnMut(&T)) -> Repeated<T> {
    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut peak_mb = None;
    let mut last = None;
    let loop_started = Instant::now();
    while run_s.len() < MIN_REPETITIONS || loop_started.elapsed().as_secs_f64() < seconds {
        let started = Instant::now();
        let inputs = set_up();
        setup_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        run(&inputs);
        run_s.push(started.elapsed().as_secs_f64());
        if run_s.len() == MIN_REPETITIONS {
            peak_mb = crate::peak_rss_mb();
        }
        last = Some(inputs);
    }
    Repeated {
        setup_s,
        run_s,
        peak_mb,
        inputs: last.expect("at least one repetition"),
    }
}

/// Half the run when it is traced, since the other half is traced.
fn untraced_seconds(opts: &Opts) -> f64 {
    if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    }
}

/// Records the end-to-end metrics of a simulation workload, whose
/// repetitions each retire `jobs` jobs; `rtt` names one repetition.
fn set_end_to_end(
    rep: &mut Report,
    r: &Repeated<impl Sized>,
    jobs: f64,
    outputs: &[RunResult],
    rtt: &str,
) {
    let total_s: f64 = r.run_s.iter().sum();
    let n = r.run_s.len() as f64;
    crate::record_peak_rss(rep, r.peak_mb);
    rep.set("setup_s", median(&r.setup_s));
    rep.set("jobs_per_s", jobs * n / total_s);
    rep.set(
        "energy_kj",
        outputs.iter().map(|o| o.energy_j).sum::<f64>() / 1e3,
    );
    rep.set(
        "quality",
        outputs.iter().map(|o| o.quality).sum::<f64>() / outputs.len() as f64,
    );
    rep.set("rps", n / total_s);
    rep.set("rtt_p50_us", median(&r.run_s) * 1e6);
    rep.set("rtt_p90_us", percentile(&r.run_s, 0.9) * 1e6);
    rep.note(format!(
        "rtt = {rtt} ({}); min {:.4} s, max {:.4} s; set-up over {} samples",
        support_note(r.run_s.len(), 0.9),
        percentile(&r.run_s, 0.0),
        percentile(&r.run_s, 1.0),
        r.setup_s.len()
    ));
}

/// Tracing overhead: median traced repetition minus median untraced one.
fn set_overhead(rep: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (median(untraced), median(traced));
    rep.set("trace.overhead_s", t - u);
    rep.set("trace.overhead_share", share(t - u, u));
    rep.note(format!(
        "tracing overhead: {:+.4} s per repetition ({:+.1}%), traced median {t:.4} s vs untraced {u:.4} s",
        t - u,
        share(t - u, u) * 100.0
    ));
}

fn set_unused_layers(rep: &mut Report, names: &[&'static str]) {
    for name in names {
        rep.set(name, 0.0);
    }
}

const SERVE_LAYERS: [&str; 9] = [
    "serve.decision_p50_us",
    "serve.decision_p99_us",
    "serve.wire_p50_us",
    "serve.drain_s",
    "protocol.parse_ns",
    "admission.requests",
    "admission.accepted_share",
    "admission.busy_share",
    "admission.rejected_share",
];

/// `sim_ge`: one GE simulation of the paper platform at 150 req/s on one
/// thread, repeated for the run's duration.
pub fn sim_ge(opts: &Opts, rep: &mut Report) {
    let cfg = SimConfig::paper_default();
    let set_up =
        || WorkloadGenerator::new(WorkloadConfig::paper_default(SIM_GE_RATE), opts.seed).generate();
    let mut results = Vec::new();
    let untraced = repeat(untraced_seconds(opts), set_up, |trace| {
        results.push(ge_core::run(&cfg, trace, &Algorithm::Ge));
    });
    let trace = &untraced.inputs;
    rep.note(format!(
        "sim_ge: {} jobs, 16 cores, 320 W, lambda = {SIM_GE_RATE} req/s",
        trace.len()
    ));
    rep.attempt(results.len() as u64);
    let first = results[0].clone();
    rep.check(
        format!("sim_ge: {} repetitions bit-identical", results.len()),
        results.iter().all(|r| same_outputs([r], [&first])),
    );
    check_cell(rep, "sim_ge GE", &cfg, trace, &first);
    rep.check(
        format!(
            "sim_ge: GE quality {:.6} within {Q_GE_TOLERANCE} of Q_GE {}",
            first.quality, cfg.q_ge
        ),
        (first.quality - cfg.q_ge).abs() <= Q_GE_TOLERANCE,
    );
    rep.note(format!(
        "digest 0x{:016x} (GE quality/energy/job counts, seed {})",
        digest([&first]),
        opts.seed
    ));

    if !opts.traced {
        set_end_to_end(
            rep,
            &untraced,
            trace.len() as f64,
            std::slice::from_ref(&first),
            "one simulation call",
        );
        return;
    }
    let mut reps = Vec::new();
    let mut consistent = true;
    let traced = repeat(opts.seconds / 2.0, set_up, |trace| {
        let run = traced_run(&cfg, trace, &Algorithm::Ge);
        consistent &= same_outputs([&run.result], [&first]);
        reps.push(run);
    });
    rep.attempt(reps.len() as u64);
    rep.check(
        "sim_ge: traced runs match untraced outputs bit for bit",
        consistent,
    );
    let generate_s = median(&traced.setup_s);
    let per_rep: Vec<_> = reps
        .iter()
        .map(|r| layer_metrics(&[r], generate_s))
        .collect();
    for (name, value) in median_metrics(&per_rep) {
        rep.set(name, value);
    }
    set_overhead(rep, &untraced.run_s, &traced.run_s);
    set_unused_layers(rep, &SERVE_LAYERS);
    set_unused_layers(
        rep,
        &["sweep.busy_share", "sweep.cell_p50_s", "sweep.cell_max_s"],
    );
}

/// The sweep's cells: every algorithm at every rate, one seed, the
/// slowest (highest-rate) cells first so the last cells to start are
/// short ones and the fan-out's tail stays small.
fn sweep_cells(seed: u64) -> Vec<Cell> {
    let horizon = SimTime::from_secs(SWEEP_HORIZON_S);
    let mut cells = Vec::new();
    for rate in SWEEP_RATES.into_iter().rev() {
        for algorithm in sweep_algorithms() {
            cells.push(Cell {
                sim: SimConfig {
                    horizon,
                    ..SimConfig::paper_default()
                },
                workload: WorkloadConfig {
                    horizon,
                    ..WorkloadConfig::paper_default(rate)
                },
                algorithm,
                seed,
            });
        }
    }
    cells
}

fn cell_label(cell: &Cell) -> String {
    format!("{}@{}", cell.algorithm.label(), cell.workload.arrival_rate)
}

/// `sweep_mix`: GE, BE, FCFS and SJF at four rates through the sweep
/// runner, each cell generating its own trace, repeated for the run's
/// duration.
pub fn sweep_mix(opts: &Opts, rep: &mut Report) {
    // Set-up builds the cells and the traces the checks compare against;
    // the sweep regenerates them inside each cell.
    let set_up = || {
        let cells = sweep_cells(opts.seed);
        let traces: Vec<Trace> = cells
            .iter()
            .map(|c| WorkloadGenerator::new(c.workload.clone(), c.seed).generate())
            .collect();
        (cells, traces)
    };
    let mut sweeps = Vec::new();
    let untraced = repeat(untraced_seconds(opts), set_up, |(cells, _)| {
        sweeps.push(sweep(cells));
    });
    let (cells, traces) = &untraced.inputs;
    let jobs: usize = traces.iter().map(Trace::len).sum();
    // The worker count `parallel_indexed` uses.
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(4)
        .min(cells.len());
    rep.note(format!(
        "sweep_mix: {} cells ({jobs} jobs, {SWEEP_HORIZON_S} s horizon) on {workers} worker(s)",
        cells.len()
    ));
    rep.attempt((sweeps.len() * cells.len()) as u64);
    let first = sweeps[0].clone();
    rep.check(
        format!("sweep_mix: {} sweeps bit-identical", sweeps.len()),
        sweeps.iter().all(|s| same_outputs(s, &first)),
    );
    for ((cell, trace), r) in cells.iter().zip(traces).zip(&first) {
        check_cell(
            rep,
            &format!("sweep_mix {}", cell_label(cell)),
            &cell.sim,
            trace,
            r,
        );
    }
    rep.note(format!(
        "digest 0x{:016x} (per-cell quality/energy/job counts, seed {})",
        digest(&first),
        opts.seed
    ));

    if !opts.traced {
        set_end_to_end(rep, &untraced, jobs as f64, &first, "one whole sweep");
        return;
    }
    let mut reps = Vec::new();
    let mut consistent = true;
    let traced = repeat(opts.seconds / 2.0, set_up, |(cells, _)| {
        let started = Instant::now();
        let runs = parallel_indexed(cells.len(), |i| {
            let cell = &cells[i];
            let cell_started = Instant::now();
            let trace = WorkloadGenerator::new(cell.workload.clone(), cell.seed).generate();
            let generate_s = cell_started.elapsed().as_secs_f64();
            let run = traced_run(&cell.sim, &trace, &cell.algorithm);
            (run, generate_s, cell_started.elapsed().as_secs_f64())
        });
        let wall = started.elapsed().as_secs_f64();
        consistent &= same_outputs(runs.iter().map(|(r, _, _)| &r.result), &first);
        let cell_s: Vec<f64> = runs.iter().map(|(_, _, c)| *c).collect();
        let generate_s = runs.iter().map(|(_, g, _)| g).sum();
        let traced: Vec<&TracedRun> = runs.iter().map(|(r, _, _)| r).collect();
        let mut m = layer_metrics(&traced, generate_s);
        m.insert(
            "sweep.busy_share",
            share(cell_s.iter().sum(), workers as f64 * wall),
        );
        m.insert("sweep.cell_p50_s", median(&cell_s));
        m.insert("sweep.cell_max_s", percentile(&cell_s, 1.0));
        reps.push(m);
    });
    rep.attempt((reps.len() * cells.len()) as u64);
    rep.check(
        "sweep_mix: traced sweeps match untraced outputs bit for bit",
        consistent,
    );
    for (name, value) in median_metrics(&reps) {
        rep.set(name, value);
    }
    set_overhead(rep, &untraced.run_s, &traced.run_s);
    set_unused_layers(rep, &SERVE_LAYERS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_makes_the_minimum_repetitions_and_keeps_the_last_inputs() {
        let mut made = 0;
        let mut ran = 0;
        let r = repeat(
            0.0,
            || {
                made += 1;
                made
            },
            |_| ran += 1,
        );
        assert_eq!((made, ran), (MIN_REPETITIONS, MIN_REPETITIONS));
        assert_eq!(
            (r.setup_s.len(), r.run_s.len()),
            (MIN_REPETITIONS, MIN_REPETITIONS)
        );
        assert_eq!(r.inputs, MIN_REPETITIONS);
        assert!(r.peak_mb.is_some());
    }
}
