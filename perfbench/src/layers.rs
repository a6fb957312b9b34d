//! Instruments attached from outside the program for traced runs: a
//! scheduler wrapper that clocks every `on_schedule` call, and a trace
//! sink that counts the simulation driver's decision events.

use ge_core::{ScheduleCtx, Scheduler, TriggerSet};
use ge_trace::{TraceEvent, TraceSink, TriggerKind};
use std::time::Instant;

/// Wraps a policy and times each scheduling epoch. Every other trait
/// method forwards, so the wrapped run makes the same decisions.
pub struct Timed<S> {
    /// The wrapped policy, reachable for its own counters after the run.
    pub inner: S,
    /// Wall time of each `on_schedule` call, seconds.
    pub epoch_s: Vec<f64>,
    /// Queued jobs at each epoch's entry.
    pub batch: Vec<usize>,
}

impl<S: Scheduler> Timed<S> {
    /// Wraps `inner` with empty sample buffers.
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            epoch_s: Vec::new(),
            batch: Vec::new(),
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn triggers(&self) -> TriggerSet {
        self.inner.triggers()
    }

    fn on_schedule(&mut self, ctx: &mut ScheduleCtx<'_>) {
        self.batch.push(ctx.queue.len());
        let started = Instant::now();
        self.inner.on_schedule(ctx);
        self.epoch_s.push(started.elapsed().as_secs_f64());
    }

    fn current_mode(&self) -> usize {
        self.inner.current_mode()
    }

    fn encode_state(&self, enc: &mut ge_recover::Encoder) {
        self.inner.encode_state(enc)
    }

    fn restore_state(
        &mut self,
        dec: &mut ge_recover::Decoder<'_>,
    ) -> Result<(), ge_recover::CodecError> {
        self.inner.restore_state(dec)
    }
}

/// Counts of the decision events one run emitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventCounts {
    /// Quantum-tick epochs.
    pub triggers_quantum: u64,
    /// Counter-threshold epochs.
    pub triggers_counter: u64,
    /// Idle-core epochs.
    pub triggers_idle: u64,
    /// Executed slices (one per core per driver advance with work).
    pub exec_slices: u64,
    /// LF cuts of an epoch batch.
    pub lf_cuts: u64,
    /// Per-core Quality-OPT second cuts.
    pub second_cuts: u64,
    /// AES/BQ transitions.
    pub mode_switches: u64,
}

impl EventCounts {
    /// Adds another run's counts to these.
    pub fn add(&mut self, o: &EventCounts) {
        self.triggers_quantum += o.triggers_quantum;
        self.triggers_counter += o.triggers_counter;
        self.triggers_idle += o.triggers_idle;
        self.exec_slices += o.exec_slices;
        self.lf_cuts += o.lf_cuts;
        self.second_cuts += o.second_cuts;
        self.mode_switches += o.mode_switches;
    }
}

/// A [`TraceSink`] that keeps only counts.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// The counts so far.
    pub counts: EventCounts,
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: &TraceEvent) {
        let c = &mut self.counts;
        match event {
            TraceEvent::TriggerFired { kind, .. } => match kind {
                TriggerKind::Quantum => c.triggers_quantum += 1,
                TriggerKind::Counter => c.triggers_counter += 1,
                TriggerKind::IdleCore => c.triggers_idle += 1,
                TriggerKind::Fault => {}
            },
            TraceEvent::ExecSlice { .. } => c.exec_slices += 1,
            TraceEvent::LfCut { .. } => c.lf_cuts += 1,
            TraceEvent::SecondCut { .. } => c.second_cuts += 1,
            TraceEvent::ModeSwitch { .. } => c.mode_switches += 1,
            _ => {}
        }
    }
}
