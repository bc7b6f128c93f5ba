//! The benchmark's own replication sink and writer: they observe the
//! stream the engine delivers without changing it.

use crate::trace::Clock;
use engine::{
    MetricsSink, NullSink, ReplicationFailure, ReplicationRecord, ReplicationSink, StreamPlan,
    StreamStats,
};
use markov::PathClass;
use std::fs::File;
use std::io::{BufWriter, Write};
use telemetry::{Counter, CounterSet};

/// Totals of one stream, as seen by [`Probe`].
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub records: u64,
    pub events: u64,
    pub transfers: u64,
    /// Records per path class, in first-seen order.
    pub classes: Vec<(PathClass, u64)>,
    /// Kernel counters summed over the records that carried telemetry.
    pub counters: CounterSet,
    pub metered: u64,
    /// Metered records whose counters break the partition identities
    /// (`event_total == events`, `contacts == useful + useless`,
    /// `useful == transfers`).
    pub identity_violations: u64,
    pub stats: Option<StreamStats>,
}

/// The NDJSON export, written as the CLI's `--metrics` writes it.
pub type Ndjson = MetricsSink<NullSink, CountingWriter<BufWriter<File>>>;

/// The sink every session pass streams into: tallies each record and
/// forwards it to the NDJSON export, if any. Given a clock, it times each
/// call into `MetricsSink::record`.
pub struct Probe {
    pub export: Option<Ndjson>,
    pub tally: Tally,
    clock: Option<Clock>,
    /// `(start, end)` of each timed `record` call, on the tracer's clock.
    pub record_spans: Vec<(u64, u64)>,
}

impl Probe {
    pub fn new(export: Option<Ndjson>, clock: Option<Clock>) -> Self {
        Probe {
            export,
            tally: Tally::default(),
            clock,
            record_spans: Vec::new(),
        }
    }
}

impl ReplicationSink for Probe {
    fn begin(&mut self, plan: &StreamPlan) {
        if let Some(export) = &mut self.export {
            export.begin(plan);
        }
    }

    fn record(&mut self, record: &ReplicationRecord) {
        let tally = &mut self.tally;
        tally.records += 1;
        tally.events += record.events;
        tally.transfers += record.transfers;
        match tally.classes.iter_mut().find(|(c, _)| *c == record.class) {
            Some((_, n)) => *n += 1,
            None => tally.classes.push((record.class, 1)),
        }
        if let Some(telemetry) = &record.telemetry {
            let c = &telemetry.counters;
            tally.metered += 1;
            tally.counters.merge(c);
            let useful = c.get(Counter::UsefulTransfers);
            if c.event_total() != record.events
                || c.get(Counter::Contacts) != useful + c.get(Counter::UselessContacts)
                || useful != record.transfers
            {
                tally.identity_violations += 1;
            }
        }
        if let Some(export) = &mut self.export {
            match self.clock {
                Some(clock) => {
                    let start = clock.now_ns();
                    export.record(record);
                    self.record_spans.push((start, clock.now_ns()));
                }
                None => export.record(record),
            }
        }
    }

    fn failure(&mut self, failure: &ReplicationFailure) {
        if let Some(export) = &mut self.export {
            export.failure(failure);
        }
    }

    fn end(&mut self, stats: &StreamStats) {
        self.tally.stats = Some(stats.clone());
        if let Some(export) = &mut self.export {
            export.end(stats);
        }
    }
}

/// A writer that counts the bytes passing through it.
pub struct CountingWriter<W> {
    pub inner: W,
    pub bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
