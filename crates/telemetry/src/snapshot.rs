//! Deterministic point-in-time snapshots of every metric series.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use openoptics_sim::time::SimTime;

use crate::histogram::HistogramSummary;

/// A point-in-time rendering of every series, stamped in sim time only.
/// The engine builds one by reading its series table; exportable as JSON
/// or CSV.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Simulation instant the snapshot was taken.
    pub at: SimTime,
    /// `(rendered name, value)`, sorted by series key.
    pub counters: Vec<(String, u64)>,
    /// `(rendered name, value)`, sorted by series key.
    pub gauges: Vec<(String, i64)>,
    /// `(rendered name, summary)`, sorted by series key.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Records held in the trace stream.
    pub trace_len: u64,
    /// Trace records rejected for capacity.
    pub trace_dropped: u64,
}

impl Snapshot {
    /// Value of a counter series by exact rendered name (0 when absent).
    /// A linear scan: series are sorted by `(name, labels)` key, which is
    /// not the text order of rendered names (`N10` sorts after `N9`).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Sum counters by *base* name, folding labeled series together:
    /// `tor.slice_miss{node=N0}` and `tor.slice_miss{node=N1}` both
    /// contribute to `tor.slice_miss`. Returns sorted `(base name, total)`.
    pub fn counter_totals(&self) -> Vec<(String, u64)> {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for (name, v) in &self.counters {
            let base = name.split('{').next().unwrap_or(name);
            let t = totals.entry(base).or_insert(0);
            *t = t.saturating_add(*v);
        }
        totals.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// One JSON object. Integer-only (histogram means are left to the
    /// consumer), fields in a fixed order: byte-identical across identical
    /// runs and `--jobs` counts.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(s, "{{\"at_ns\":{},\"counters\":{{", self.at.as_ns());
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{v}");
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{v}");
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            );
            for (j, (b, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{b},{c}]");
            }
            s.push_str("]}");
        }
        let _ = write!(
            s,
            "}},\"trace\":{{\"len\":{},\"dropped\":{}}}}}",
            self.trace_len, self.trace_dropped
        );
        s
    }

    /// CSV with header `type,name,field,value`, one row per scalar.
    /// Histograms flatten to `count`/`sum`/`min`/`max` plus one
    /// `bucket_<i>` row per non-empty bucket.
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = writeln!(s, "type,name,field,value");
        let _ = writeln!(s, "meta,snapshot,at_ns,{}", self.at.as_ns());
        for (name, v) in &self.counters {
            let _ = writeln!(s, "counter,{name},value,{v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(s, "gauge,{name},value,{v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(s, "histogram,{name},count,{}", h.count);
            let _ = writeln!(s, "histogram,{name},sum,{}", h.sum);
            let _ = writeln!(s, "histogram,{name},min,{}", h.min);
            let _ = writeln!(s, "histogram,{name},max,{}", h.max);
            for (b, c) in &h.buckets {
                let _ = writeln!(s, "histogram,{name},bucket_{b},{c}");
            }
        }
        let _ = writeln!(s, "meta,trace,len,{}", self.trace_len);
        let _ = writeln!(s, "meta,trace,dropped,{}", self.trace_dropped);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut h = crate::Histogram::enabled();
        h.record(5);
        h.record(900);
        Snapshot {
            at: SimTime::from_ms(2),
            counters: vec![
                ("sim.events".into(), 7),
                ("tor.slice_miss{node=N2}".into(), 2),
                ("tor.slice_miss{node=N10}".into(), 3),
            ],
            gauges: vec![("g{node=N2}".into(), -4)],
            histograms: vec![("h".into(), h.summary())],
            trace_len: 1,
            trace_dropped: 0,
        }
    }

    #[test]
    fn empty_snapshot_renders_empty_maps() {
        let snap = Snapshot { at: SimTime::from_us(1), ..Snapshot::default() };
        assert_eq!(
            snap.to_json(),
            "{\"at_ns\":1000,\"counters\":{},\"gauges\":{},\"histograms\":{},\
             \"trace\":{\"len\":0,\"dropped\":0}}"
        );
    }

    #[test]
    fn counter_lookup_finds_series_out_of_text_order() {
        let snap = sample();
        assert_eq!(snap.counter("tor.slice_miss{node=N2}"), 2);
        assert_eq!(snap.counter("tor.slice_miss{node=N10}"), 3);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn counter_totals_fold_labels() {
        let totals = sample().counter_totals();
        assert_eq!(totals, vec![("sim.events".to_string(), 7), ("tor.slice_miss".to_string(), 5)]);
    }

    #[test]
    fn snapshot_exports_are_stable() {
        let s = sample();
        assert!(s.to_json().contains("\"h\":{\"count\":2,\"sum\":905,\"min\":5,\"max\":900"));
        assert!(s.to_csv().contains("gauge,g{node=N2},value,-4\n"));
        assert!(s.to_csv().starts_with("type,name,field,value\nmeta,snapshot,at_ns,2000000\n"));
        assert!(s.to_csv().ends_with("meta,trace,len,1\nmeta,trace,dropped,0\n"));
    }
}
