//! Sim-time-sampled series and the subscription frame log.
//!
//! When `NetConfig::sample_every_ns > 0` the engine schedules a sampling
//! timer on the simulation clock; each firing records one [`Sample`] —
//! every counter and gauge value plus the per-service latency summaries —
//! in a bounded [`TimeSeries`] and hands the same row, shared, to the
//! [`FrameLog`] the streaming subscriptions drain. A sample holds values
//! only: the rendered series names live in one table shared by every row
//! taken while the engine's series set stayed the same. Rows
//! are rendered to JSON when they are read, with a stable field order, so
//! the series and the frame stream are byte-identical at any `--jobs`
//! count. Rows are immutable once recorded, so a cloned engine
//! shares them with its original instead of copying the history.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::slo::SloSummary;

/// One sampling instant with owned, rendered series names: every
/// counter/gauge plus per-service summaries. The canonical JSON rendering
/// of a sample frame; the stored form is [`Sample`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleRow {
    /// Sim time of the sample.
    pub at_ns: u64,
    /// `(rendered name, value)` for every counter, sorted by series key.
    pub counters: Vec<(String, u64)>,
    /// `(rendered name, value)` for every gauge, sorted by series key.
    pub gauges: Vec<(String, i64)>,
    /// Per-service latency/SLO summaries, in service-declaration order.
    pub services: Vec<SloSummary>,
}

impl SampleRow {
    /// Render as one JSON frame line with a stable field order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        write_sample(
            &mut s,
            self.at_ns,
            self.counters.iter().map(|(n, v)| (n.as_str(), *v)),
            self.gauges.iter().map(|(n, v)| (n.as_str(), *v)),
            &self.services,
        );
        s
    }
}

/// Append one sample frame to `out`: the single renderer behind
/// [`SampleRow::to_json`] and [`Sample::to_json`].
fn write_sample<'a>(
    out: &mut String,
    at_ns: u64,
    counters: impl Iterator<Item = (&'a str, u64)>,
    gauges: impl Iterator<Item = (&'a str, i64)>,
    services: &[SloSummary],
) {
    let _ = write!(out, "{{\"frame\":\"sample\",\"t_ns\":{at_ns},\"counters\":{{");
    for (i, (name, v)) in counters.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in gauges.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"services\":[");
    for (i, svc) in services.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&svc.to_json());
    }
    out.push_str("]}");
}

/// Rendered names of every counter and gauge series, in series-key order —
/// the column headers of the [`Sample`] rows that share it.
#[derive(Debug, Default, PartialEq, Eq)]
struct Columns {
    /// Counter names, index-aligned with [`Sample`] counter values.
    counters: Vec<String>,
    /// Gauge names, index-aligned with [`Sample`] gauge values.
    gauges: Vec<String>,
}

/// One stored sampling instant: values only, named by a names table
/// shared with the rows sampled before and after it while no series was
/// added. Renders exactly as the equivalent [`SampleRow`].
#[derive(Debug, PartialEq, Eq)]
pub struct Sample {
    at_ns: u64,
    columns: Arc<Columns>,
    counters: Box<[u64]>,
    gauges: Box<[i64]>,
    services: Box<[SloSummary]>,
}

impl Sample {
    /// Sim time of the sample.
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// Append this row's sample frame to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        write_sample(
            out,
            self.at_ns,
            self.columns.counters.iter().map(String::as_str).zip(self.counters.iter().copied()),
            self.columns.gauges.iter().map(String::as_str).zip(self.gauges.iter().copied()),
            &self.services,
        );
    }

    /// Render as one JSON frame line, byte-identical to
    /// [`SampleRow::to_json`] of the same instant.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// Bounded store of sample rows: the first `capacity` rows are kept and
/// later ones counted in `dropped`, mirroring the trace buffer's
/// deterministic keep-first policy.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    capacity: usize,
    /// Names table of the latest sample, reused until a series is added.
    columns: Arc<Columns>,
    rows: Vec<Arc<Sample>>,
    dropped: u64,
}

impl TimeSeries {
    /// An empty series keeping at most `capacity` rows.
    pub fn new(capacity: usize) -> Self {
        TimeSeries { capacity, columns: Arc::default(), rows: Vec::new(), dropped: 0 }
    }

    /// `(counter, gauge)` counts of the names table the next row shares
    /// unless [`TimeSeries::sample`] is handed new names.
    pub fn columns_len(&self) -> (usize, usize) {
        (self.columns.counters.len(), self.columns.gauges.len())
    }

    /// Record one row at `at_ns`: the `(counter, gauge)` values, in
    /// series-key order, together with the per-service `services`. Keep
    /// the row while there is room and return it for the frame log.
    /// `names` carries the `(counter, gauge)` names index-aligned with
    /// `values`; pass them whenever the value counts differ from
    /// [`TimeSeries::columns_len`], and `None` to share the previous
    /// row's table. Series are never removed, so equal counts mean an
    /// equal set.
    ///
    /// # Panics
    ///
    /// If `names` is `None` and the value counts differ from the current
    /// names table.
    pub fn sample(
        &mut self,
        at_ns: u64,
        values: (Box<[u64]>, Box<[i64]>),
        names: Option<(Vec<String>, Vec<String>)>,
        services: Box<[SloSummary]>,
    ) -> Arc<Sample> {
        let (counters, gauges) = values;
        if let Some((counters, gauges)) = names {
            self.columns = Arc::new(Columns { counters, gauges });
        }
        assert_eq!(
            (counters.len(), gauges.len()),
            self.columns_len(),
            "sample values do not match the names table"
        );
        let row = Arc::new(Sample {
            at_ns,
            columns: Arc::clone(&self.columns),
            counters,
            gauges,
            services,
        });
        if self.rows.len() < self.capacity {
            self.rows.push(Arc::clone(&row));
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
        row
    }

    /// Rows held, in sampling order.
    pub fn rows(&self) -> &[Arc<Sample>] {
        &self.rows
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows rejected because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The whole series as JSON lines (one sample frame per row).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            row.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// One entry of the [`FrameLog`]: a sample row shared with the
/// [`TimeSeries`], or a finished text frame (SLO transition, flight dump).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A sampling instant, rendered when read.
    Sample(Arc<Sample>),
    /// A frame rendered when it was emitted.
    Text(Arc<str>),
}

impl Frame {
    /// Append this frame's JSON line to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Frame::Sample(row) => row.write_json(out),
            Frame::Text(line) => out.push_str(line),
        }
    }

    /// This frame's JSON line.
    pub fn to_json(&self) -> Cow<'_, str> {
        match self {
            Frame::Sample(row) => Cow::Owned(row.to_json()),
            Frame::Text(line) => Cow::Borrowed(line),
        }
    }
}

/// Bounded log of frames for streaming subscriptions.
///
/// The engine appends every frame it produces (samples, SLO transitions,
/// flight-recorder dumps); subscribers keep a cursor into the log and
/// drain `since(cursor)` after each run step. The keep-first bound makes
/// the log — and therefore every subscriber's view of it — deterministic
/// regardless of run length.
#[derive(Clone, Debug)]
pub struct FrameLog {
    capacity: usize,
    frames: Vec<Frame>,
    dropped: u64,
}

impl FrameLog {
    /// An empty log keeping at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        FrameLog { capacity, frames: Vec::new(), dropped: 0 }
    }

    /// Append a rendered text frame (counted once full).
    pub fn push(&mut self, line: String) {
        self.push_frame(Frame::Text(line.into()));
    }

    /// Append a sample frame sharing `row` (counted once full).
    pub fn push_sample(&mut self, row: Arc<Sample>) {
        self.push_frame(Frame::Sample(row));
    }

    fn push_frame(&mut self, frame: Frame) {
        if self.frames.len() < self.capacity {
            self.frames.push(frame);
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// Number of frames held.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames are held.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frames rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames appended at or after position `cursor` (empty when past the
    /// end) — the delta a subscriber at `cursor` has not yet seen.
    pub fn since(&self, cursor: usize) -> &[Frame] {
        self.frames.get(cursor..).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{ServiceStats, SloTarget};

    /// A hand-rolled series set: sorted `(name, value)` columns that can
    /// gain entries, as the engine's does when faults are injected.
    #[derive(Default)]
    struct Series {
        counters: Vec<(String, u64)>,
        gauges: Vec<(String, i64)>,
    }

    impl Series {
        fn set_counter(&mut self, name: &str, v: u64) {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some(c) => c.1 = v,
                None => {
                    self.counters.push((name.into(), v));
                    self.counters.sort();
                }
            }
        }

        fn set_gauge(&mut self, name: &str, v: i64) {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some(g) => g.1 = v,
                None => {
                    self.gauges.push((name.into(), v));
                    self.gauges.sort();
                }
            }
        }

        fn sample(&self, ts: &mut TimeSeries, at_ns: u64, services: &[SloSummary]) -> Arc<Sample> {
            let values = (
                self.counters.iter().map(|c| c.1).collect(),
                self.gauges.iter().map(|g| g.1).collect(),
            );
            let names = (ts.columns_len() != (self.counters.len(), self.gauges.len())).then(|| {
                (
                    self.counters.iter().map(|c| c.0.clone()).collect(),
                    self.gauges.iter().map(|g| g.0.clone()).collect(),
                )
            });
            ts.sample(at_ns, values, names, services.into())
        }

        /// The reference rendering: an owned row with every name.
        fn owned_row(&self, at_ns: u64, services: &[SloSummary]) -> SampleRow {
            SampleRow {
                at_ns,
                counters: self.counters.clone(),
                gauges: self.gauges.clone(),
                services: services.to_vec(),
            }
        }
    }

    #[test]
    fn sample_row_json_is_stable() {
        let row = SampleRow {
            at_ns: 500,
            counters: vec![("a.b".into(), 1), ("c".into(), 2)],
            gauges: vec![("g".into(), -3)],
            services: Vec::new(),
        };
        assert_eq!(
            row.to_json(),
            "{\"frame\":\"sample\",\"t_ns\":500,\"counters\":{\"a.b\":1,\"c\":2},\
             \"gauges\":{\"g\":-3},\"services\":[]}"
        );
    }

    #[test]
    fn series_keeps_first_rows() {
        let series = Series::default();
        let mut ts = TimeSeries::new(2);
        for i in 0..4u64 {
            series.sample(&mut ts, i, &[]);
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.dropped(), 2);
        assert_eq!(ts.rows()[1].at_ns(), 1);
    }

    #[test]
    fn rows_render_like_owned_rows_as_columns_grow() {
        let mut series = Series::default();
        let mut svc = ServiceStats::new(
            "rpc".into(),
            Some(SloTarget { latency_ns: 100, objective_milli: 900, window_ns: 1_000 }),
        );
        series.set_gauge("q.len{node=N1}", -2);
        let mut ts = TimeSeries::new(16);
        let mut expected = Vec::new();
        let mut sent = 0;
        for at in 0..6u64 {
            sent += at * 3;
            series.set_counter("b.sent", sent);
            svc.record(at, 50 * at, false);
            if at == 2 {
                // Added mid-run, sorting between existing series.
                series.set_counter("a.late{node=N4}", 9);
            }
            if at == 4 {
                series.set_gauge("z.depth", 7);
            }
            let services = vec![svc.summary()];
            expected.push(series.owned_row(at * 1_000, &services).to_json());
            series.sample(&mut ts, at * 1_000, &services);
        }
        let got: Vec<String> = ts.rows().iter().map(|r| r.to_json()).collect();
        assert_eq!(got, expected);
        assert!(got[2].contains("\"a.late{node=N4}\":9"), "{}", got[2]);
        assert!(!got[1].contains("a.late"));
        assert!(got[5].contains("\"z.depth\":7"));
        // Rows between additions share one names table.
        assert!(Arc::ptr_eq(&ts.rows()[0].columns, &ts.rows()[1].columns));
        assert!(Arc::ptr_eq(&ts.rows()[2].columns, &ts.rows()[3].columns));
        assert!(!Arc::ptr_eq(&ts.rows()[1].columns, &ts.rows()[2].columns));
        let lines = ts.to_json_lines();
        assert_eq!(lines, expected.iter().map(|l| format!("{l}\n")).collect::<String>());
    }

    #[test]
    #[should_panic(expected = "sample values do not match the names table")]
    fn values_without_matching_names_are_refused() {
        let mut ts = TimeSeries::new(8);
        ts.sample(0, (vec![1].into(), Box::default()), None, Box::default());
    }

    #[test]
    fn frame_log_cursors() {
        let mut log = FrameLog::new(8);
        log.push("{\"frame\":\"a\"}".into());
        log.push("{\"frame\":\"b\"}".into());
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(1)[0].to_json(), "{\"frame\":\"b\"}");
        assert!(log.since(2).is_empty());
        assert!(log.since(99).is_empty());
    }

    #[test]
    fn mixed_frame_log_matches_prerendered_lines() {
        // Reference: the log as it was when every frame was rendered on
        // push, keep-first at the same capacity.
        const CAP: usize = 7;
        let mut series = Series::default();
        let mut ts = TimeSeries::new(3);
        let mut log = FrameLog::new(CAP);
        let mut reference: Vec<String> = Vec::new();
        let mut tx = 0;
        for at in 0..10u64 {
            tx += at;
            series.set_counter("tor.tx{node=N0}", tx);
            let line = match at % 4 {
                1 => format!("{{\"frame\":\"slo\",\"t_ns\":{at},\"service\":\"rpc\"}}"),
                3 => format!("{{\"frame\":\"flight\",\"t_ns\":{at},\"records\":[]}}"),
                _ => {
                    let row = series.sample(&mut ts, at, &[]);
                    let line = series.owned_row(at, &[]).to_json();
                    log.push_sample(row);
                    if reference.len() < CAP {
                        reference.push(line);
                    }
                    continue;
                }
            };
            log.push(line.clone());
            if reference.len() < CAP {
                reference.push(line);
            }
        }
        assert_eq!(log.len(), CAP);
        assert_eq!(log.dropped(), 3);
        assert_eq!(ts.dropped(), 2, "the series bound is independent of the log's");
        for cursor in 0..=CAP + 1 {
            let got: Vec<String> =
                log.since(cursor).iter().map(|f| f.to_json().into_owned()).collect();
            assert_eq!(got, reference.get(cursor..).unwrap_or_default(), "cursor {cursor}");
            let mut buf = String::new();
            for f in log.since(cursor) {
                f.write_json(&mut buf);
            }
            assert_eq!(buf, reference.get(cursor..).unwrap_or_default().concat());
        }
    }
}
