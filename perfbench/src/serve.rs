//! `serve_closed`: one client on one loopback connection to an
//! in-process `ge-serve` server, sending the next `SUBMIT` only after the
//! previous reply arrived (a closed loop), for the run's duration.

use crate::report::Report;
use crate::stats::{median, percentile, share, support_note, wire_p50_us};
use crate::Opts;
use ge_experiments::serve::{exemplar_config, generate_arrivals, Arrival};
use ge_serve::{parse_command, DrainOutcome, ServeCore, ServeServer};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Arrival rate of the repository's replay stream this benchmark scales,
/// requests per simulated second: the 4-core exemplar accepts nearly all
/// of it (`BUSY` under 1% once scaled below), so the share of admitted
/// requests, and with it `jobs_per_s`, does not swing from seed to seed.
const REPLAY_RATE: f64 = 3.0;

/// How many times faster simulated time runs than in that replay stream:
/// arrival times, demands and deadlines are all divided by it. Per-job
/// speeds and the in-flight depth admission acts on stay the same, while
/// the horizon the drain has to cover shrinks by this factor.
const TIME_SCALE: f64 = 5.0;

/// Round trips per wall second the stream must outlast. The stream holds
/// this many requests per measured second, twice what one connection
/// reached on a 2-core Xeon VM with the wire stall removed (27k-50k/s), so
/// the run is bounded by its duration and not by the stream. The drain
/// runs the engine over the unused rest of the stream's horizon, which
/// costs ~0.7 KB of retained events per simulated second.
const STREAM_CEILING_RPS: f64 = 100_000.0;

/// Requests of the fixed session behind `energy_kj` and `quality`: a
/// prefix of the seeded stream fed to the same serving core in-process,
/// so these figures do not depend on how many requests the wire let
/// through in the run's duration.
const PREFIX_REQUESTS: u64 = 10_000;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 31;

/// The seeded stream of `requests` arrivals and the session horizon that
/// holds it: `generate_arrivals` at [`REPLAY_RATE`] (it uses the first 60%
/// of the horizon), compressed by [`TIME_SCALE`].
fn stream(seed: u64, requests: u64) -> (f64, Vec<Arrival>) {
    let horizon = requests as f64 / (0.6 * REPLAY_RATE);
    let arrivals = generate_arrivals(seed, requests, horizon)
        .into_iter()
        .map(|a| Arrival {
            t: a.t / TIME_SCALE,
            demand: a.demand / TIME_SCALE,
            deadline_rel: a.deadline_rel / TIME_SCALE,
        })
        .collect();
    (horizon / TIME_SCALE, arrivals)
}

fn submit_line(a: &Arrival) -> String {
    format!("SUBMIT {} {} {}\n", a.t, a.demand, a.deadline_rel)
}

/// A bound server with one connected client and the stream to send.
struct Live {
    server: ServeServer,
    stream: TcpStream,
    arrivals: Vec<Arrival>,
    setup_s: f64,
    generate_s: f64,
}

/// Configures the server, generates the stream, binds and connects,
/// [`SETUP_REPEATS`] times; keeps the last and reports median times.
fn set_up(seed: u64, seconds: f64) -> io::Result<Live> {
    let requests = (STREAM_CEILING_RPS * seconds).ceil() as u64;
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut live: Option<(ServeServer, TcpStream, Vec<Arrival>)> = None;
    for _ in 0..SETUP_REPEATS {
        // An earlier repetition's client hangs up first, so its server's
        // worker sees the close and the server stops when dropped.
        if let Some((server, stream, _)) = live.take() {
            drop(stream);
            drop(server);
        }
        let started = Instant::now();
        let (horizon, arrivals) = stream(seed, requests);
        let cfg = exemplar_config(horizon);
        generate.push(started.elapsed().as_secs_f64());
        let server = ServeServer::bind(cfg, "127.0.0.1:0")?;
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        setup.push(started.elapsed().as_secs_f64());
        live = Some((server, stream, arrivals));
    }
    let (server, stream, arrivals) = live.expect("at least one set-up");
    Ok(Live {
        server,
        stream,
        arrivals,
        setup_s: median(&setup),
        generate_s: median(&generate),
    })
}

/// Client-side tallies of one session.
#[derive(Debug, Default)]
struct Tally {
    accepted: u64,
    busy: u64,
    rejected: u64,
    draining: u64,
    errors: u64,
    io_errors: u64,
}

/// What one live session leaves behind.
struct Session {
    setup_s: f64,
    generate_s: f64,
    loop_s: f64,
    rtt_us: Vec<f64>,
    tally: Tally,
    drain_s: f64,
    out: DrainOutcome,
    arrivals: Vec<Arrival>,
}

/// Runs the closed loop for `seconds`, then hangs up and drains.
fn run_session(live: Live, seconds: f64) -> io::Result<Session> {
    let Live {
        server,
        mut stream,
        arrivals,
        setup_s,
        generate_s,
    } = live;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut tally = Tally::default();
    let mut rtt_us = Vec::new();
    let mut reply = String::new();
    let started = Instant::now();
    for a in &arrivals {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let line = submit_line(a);
        let sent = Instant::now();
        reply.clear();
        let got = stream
            .write_all(line.as_bytes())
            .and_then(|()| reader.read_line(&mut reply));
        if !matches!(got, Ok(n) if n > 0) {
            tally.io_errors += 1;
            break;
        }
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        match reply.split_whitespace().next().unwrap_or("") {
            "ACCEPTED" => tally.accepted += 1,
            "BUSY" => tally.busy += 1,
            "REJECTED" => tally.rejected += 1,
            "DRAINING" => tally.draining += 1,
            _ => tally.errors += 1,
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    // Hanging up lets the connection's worker finish before the drain.
    drop(reader);
    drop(stream);
    let drain_started = Instant::now();
    let out = server.shutdown_and_drain();
    let drain_s = drain_started.elapsed().as_secs_f64();
    Ok(Session {
        setup_s,
        generate_s,
        loop_s,
        rtt_us,
        tally,
        drain_s,
        out,
        arrivals,
    })
}

/// Checks a drained session's accounting: every request in exactly one
/// terminal state, a bit-exact resumable checkpoint, and an independent
/// recount of the serve trace that agrees with the drain.
fn check_drain(rep: &mut Report, label: &str, out: &DrainOutcome) {
    rep.check(
        format!(
            "{label}: {} requests = {} completed + {} rejected + {} timed out + {} shed",
            out.requests, out.completed, out.rejected, out.timed_out, out.shed
        ),
        out.is_consistent(),
    );
    rep.check(
        format!("{label}: drained checkpoint resumes bit-exact"),
        out.resume_bit_exact,
    );
    let drained = (
        out.requests,
        out.admitted,
        out.completed,
        out.rejected,
        out.timed_out,
        out.shed,
    );
    let agrees = ge_trace::replay_serve(&out.events).is_ok_and(|r| {
        r.is_ok()
            && (
                r.requests,
                r.admitted,
                r.completed,
                r.rejected,
                r.timed_out,
                r.shed,
            ) == drained
    });
    rep.check(
        format!("{label}: replay_serve recount equals the drain counts"),
        agrees,
    );
}

fn check_session(rep: &mut Report, label: &str, s: &Session) {
    let t = &s.tally;
    let sent = s.rtt_us.len() as u64;
    rep.attempt(sent + t.io_errors);
    rep.fail(t.io_errors + t.errors);
    check_drain(rep, label, &s.out);
    rep.check(
        format!(
            "{label}: client tally (sent {sent}, ACCEPTED {}, BUSY {}, REJECTED {}, DRAINING {}) matches the drain",
            t.accepted, t.busy, t.rejected, t.draining
        ),
        sent == s.out.requests
            && t.accepted == s.out.admitted
            && t.busy + t.rejected + t.draining == s.out.rejected,
    );
    rep.note(format!(
        "{label}: sent {sent} of the stream's {} requests in {:.3} s; drain {:.3} s",
        s.arrivals.len(),
        s.loop_s,
        s.drain_s
    ));
}

/// The fixed-size session: the first [`PREFIX_REQUESTS`] arrivals of the
/// seeded stream through the serving core in-process, drained at its
/// horizon.
fn prefix_session(rep: &mut Report, seed: u64) -> DrainOutcome {
    let (horizon, arrivals) = stream(seed, PREFIX_REQUESTS);
    let mut core = ServeCore::new(exemplar_config(horizon));
    let mut refused = 0;
    for a in arrivals {
        refused += u64::from(core.submit(a.t, a.demand, a.deadline_rel).is_err());
    }
    rep.attempt(PREFIX_REQUESTS);
    rep.fail(refused);
    let out = core.finish_drain();
    check_drain(rep, "serve prefix", &out);
    out
}

/// Mean `parse_command` time per line over the lines the client sent.
fn parse_ns(arrivals: &[Arrival]) -> f64 {
    let lines: Vec<String> = arrivals.iter().map(submit_line).collect();
    if lines.is_empty() {
        return 0.0;
    }
    let mut parsed = 0u64;
    let started = Instant::now();
    while parsed == 0 || started.elapsed().as_secs_f64() < 0.05 {
        for l in &lines {
            let bytes = l.trim_end().as_bytes();
            std::hint::black_box(parse_command(std::hint::black_box(bytes)).is_ok());
        }
        parsed += lines.len() as u64;
    }
    share(started.elapsed().as_secs_f64() * 1e9, parsed as f64)
}

fn failed(rep: &mut Report, what: &str, e: &io::Error) {
    rep.note(format!("serve: {what} failed: {e}"));
    rep.attempt(1);
    rep.fail(1);
}

fn session(rep: &mut Report, label: &str, seed: u64, seconds: f64) -> Option<Session> {
    match set_up(seed, seconds).and_then(|live| run_session(live, seconds)) {
        Ok(s) => {
            check_session(rep, label, &s);
            Some(s)
        }
        Err(e) => {
            failed(rep, label, &e);
            None
        }
    }
}

/// Layers the serve workload does not reach from outside: the engine and
/// policy run inside the server, where the benchmark cannot wrap them.
const UNREACHED_LAYERS: [&str; 19] = [
    "engine.self_s",
    "engine.epochs",
    "engine.triggers_quantum",
    "engine.triggers_counter",
    "engine.triggers_idle",
    "engine.exec_slices_per_job",
    "ge.epoch_s",
    "ge.epoch_p50_us",
    "ge.epoch_p99_us",
    "ge.batch_mean",
    "ge.replan_hit_ratio",
    "ge.replan_decisions",
    "ge.lf_cuts",
    "ge.second_cuts",
    "ge.mode_switches",
    "queue.dispatch_s",
    "sweep.busy_share",
    "sweep.cell_p50_s",
    "sweep.cell_max_s",
];

/// `serve_closed`: the closed loop over loopback.
pub fn serve_closed(opts: &Opts, rep: &mut Report) {
    rep.note(format!(
        "serve_closed: exemplar 4-core GE server, 1 client, closed loop, \
         stream at {} req per simulated s",
        REPLAY_RATE * TIME_SCALE
    ));
    let prefix = prefix_session(rep, opts.seed);
    rep.note(format!(
        "digest 0x{:016x} (prefix session of {PREFIX_REQUESTS} requests, seed {})",
        prefix.digest, opts.seed
    ));

    if !opts.traced {
        let live = match set_up(opts.seed, opts.seconds) {
            Ok(live) => live,
            Err(e) => return failed(rep, "set-up", &e),
        };
        // Memory is read before the time-bounded session: the server keeps
        // a record of every request until drain, so memory after it grows
        // with the throughput the wire allows.
        crate::record_peak_rss(rep, crate::peak_rss_mb());
        let s = match run_session(live, opts.seconds) {
            Ok(s) => s,
            Err(e) => return failed(rep, "session", &e),
        };
        check_session(rep, "serve", &s);
        rep.note(format!(
            "serve: process peak after the session and drain {:.1} MB",
            crate::peak_rss_mb().unwrap_or(0.0)
        ));
        rep.set("setup_s", s.setup_s);
        rep.set("jobs_per_s", s.out.admitted as f64 / s.loop_s);
        rep.set("energy_kj", prefix.energy_j / 1e3);
        rep.set("quality", prefix.quality);
        rep.set("rps", s.rtt_us.len() as f64 / s.loop_s);
        rep.set("rtt_p50_us", median(&s.rtt_us));
        rep.set("rtt_p90_us", percentile(&s.rtt_us, 0.9));
        rep.note(format!(
            "rtt = one SUBMIT round trip ({})",
            support_note(s.rtt_us.len(), 0.9)
        ));
        return;
    }

    // Half the run untraced, half traced. The traced session differs only
    // in what is measured after it: the loop carries no instrument beyond
    // the client's clock, so its overhead shows the noise floor.
    let half = opts.seconds / 2.0;
    let Some(untraced) = session(rep, "serve untraced", opts.seed, half) else {
        return;
    };
    let Some(s) = session(rep, "serve traced", opts.seed, half) else {
        return;
    };
    let decision_us: Vec<f64> = s.out.latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let decision_p50 = median(&decision_us);
    let rtt_p50 = median(&s.rtt_us);
    let sent = s.rtt_us.len();
    rep.set("serve.decision_p50_us", decision_p50);
    rep.set("serve.decision_p99_us", percentile(&decision_us, 0.99));
    rep.set("serve.wire_p50_us", wire_p50_us(rtt_p50, decision_p50));
    rep.set("serve.drain_s", s.drain_s);
    rep.set("protocol.parse_ns", parse_ns(&s.arrivals[..sent]));
    rep.set("admission.requests", sent as f64);
    rep.set(
        "admission.accepted_share",
        share(s.tally.accepted as f64, sent as f64),
    );
    rep.set(
        "admission.busy_share",
        share(s.tally.busy as f64, sent as f64),
    );
    rep.set(
        "admission.rejected_share",
        share(s.tally.rejected as f64, sent as f64),
    );
    rep.set("workload.generate_s", s.generate_s);
    let per_request = |x: &Session| share(x.loop_s, x.rtt_us.len() as f64);
    let (u, t) = (per_request(&untraced), per_request(&s));
    rep.set("trace.overhead_s", t - u);
    rep.set("trace.overhead_share", share(t - u, u));
    rep.note(format!(
        "tracing overhead: {:+.3} us per round trip; rtt p50 {rtt_p50:.1} us \
         = decision p50 {decision_p50:.1} us + wire; decision p99 ({})",
        (t - u) * 1e6,
        support_note(decision_us.len(), 0.99)
    ));
    for name in UNREACHED_LAYERS {
        rep.set(name, 0.0);
    }
}
