//! Metric names, units and bounds — the same tables `BENCHMARK.json`
//! carries (a unit test keeps the two in step) — and their rendering.

use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before it counts as a regression. For the simulated metrics the
    /// bound only has to cover how much they vary *between seeds*.
    pub bound: f64,
    /// Deterministic in the seed: two runs of one build on one seed
    /// must agree to the last digit (`--selfcheck`).
    pub exact: bool,
}

use Better::{Higher, Lower};

/// Bounds follow the spreads measured on the reference host (README,
/// "Steadiness"), not a wish: its timings drift by spells, in which
/// `fleet-serve` — two threads on two cores — spreads 13–15 %.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "wall_s", unit: "s", better: Lower, bound: 0.25, exact: false },
    EndToEnd { name: "replay_rps", unit: "requests/s", better: Higher, bound: 0.25, exact: false },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Lower, bound: 0.05, exact: false },
    EndToEnd { name: "sim_mean_ms", unit: "ms", better: Lower, bound: 0.20, exact: true },
    EndToEnd { name: "sim_p99_ms", unit: "ms", better: Lower, bound: 0.25, exact: true },
    EndToEnd { name: "writes_issued_pct", unit: "%", better: Lower, bound: 0.05, exact: true },
    EndToEnd { name: "capacity_mib", unit: "MiB", better: Lower, bound: 0.10, exact: true },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, exact: false },
];

/// `(name, unit, better)` of every per-layer metric, grouped by layer.
/// A metric a workload has no seam for is reported as 0 (see README).
pub const PER_LAYER: [(&str, &str, Better); 61] = [
    ("cli.overhead_s", "s", Lower),
    ("cli.stdout_bytes", "count", Lower),
    ("trace.load_s", "s", Lower),
    ("trace.load_ns_per_req", "ns", Lower),
    ("trace.fiu_parse_mib_per_s", "MiB/s", Higher),
    ("trace.merge_ns_per_req", "ns", Lower),
    ("trace.requests", "count", Higher),
    ("trace.chunks", "count", Higher),
    ("trace.write_ratio", "ratio", Higher),
    ("dedup.drive_s", "s", Lower),
    ("dedup.write_ns", "ns", Lower),
    ("dedup.write_p999_ns", "ns", Lower),
    ("dedup.chunk_ns", "ns", Lower),
    ("dedup.plan_read_ns", "ns", Lower),
    ("dedup.index_hit_ratio", "ratio", Higher),
    ("dedup.removed_ratio", "ratio", Higher),
    ("dedup.fragments_per_read", "count", Lower),
    ("icache.drive_s", "s", Lower),
    ("icache.read_block_ns", "ns", Lower),
    ("icache.note_request_ns", "ns", Lower),
    ("icache.hit_ratio", "ratio", Higher),
    ("icache.repartitions", "count", Lower),
    ("cache.lru_op_ns", "ns", Lower),
    ("cache.lru_hit_ratio", "ratio", Higher),
    ("cache.lru_evictions", "count", Lower),
    ("disk.drive_s", "s", Lower),
    ("disk.job_ns", "ns", Lower),
    ("disk.jobs", "count", Lower),
    ("disk.extents_per_job", "count", Lower),
    ("stack.build_s", "s", Lower),
    ("stack.loop_s", "s", Lower),
    ("stack.finish_s", "s", Lower),
    ("stack.request_ns", "ns", Lower),
    ("stack.request_p50_ns", "ns", Lower),
    ("stack.request_p999_ns", "ns", Lower),
    ("stack.glue_s", "s", Lower),
    ("stack.prof.cache_share", "ratio", Lower),
    ("stack.prof.dedup_share", "ratio", Lower),
    ("stack.prof.disk_share", "ratio", Lower),
    ("stack.prof.other_share", "ratio", Lower),
    ("stack.prof_overhead_pct", "%", Lower),
    ("obs.sinks_cost_pct", "%", Lower),
    ("obs.jsonl_write_s", "s", Lower),
    ("obs.jsonl_bytes", "count", Lower),
    ("obs.snapshots", "count", Lower),
    ("oracle.cost_pct", "%", Lower),
    ("oracle.divergent_blocks", "count", Lower),
    ("runner.run_s", "s", Lower),
    ("runner.report_s", "s", Lower),
    ("serve.run_s", "s", Lower),
    ("serve.busy_max_s", "s", Lower),
    ("serve.busy_sum_s", "s", Lower),
    ("serve.outside_shards_s", "s", Lower),
    ("serve.parallel_efficiency", "ratio", Higher),
    ("serve.interleave_ratio", "ratio", Lower),
    ("serve.idle_s", "s", Lower),
    ("trace_overhead_pct", "%", Lower),
    ("close.wall_s", "s", Lower),
    ("close.overhead_share", "ratio", Lower),
    ("close.report_share", "ratio", Lower),
    ("close.glue_share", "ratio", Lower),
];

/// Named values collected by one pass, in insertion order.
#[derive(Default, Clone, Debug, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Outcome of one pass over one workload, in the shape the contract's
/// result line has.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result: `table` fixes which metrics appear, in
    /// which order and with which unit; a metric the pass did not set
    /// is reported as 0.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.values.get(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }

    /// Human-readable `name value unit` rows.
    pub fn to_table(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in table {
            let value = self.values.get(name).unwrap_or(0.0);
            writeln!(out, "  {name:<28} {value:>16.6} {unit}").expect("write to string");
        }
        out
    }
}

/// `(name, unit)` of every end-to-end metric, in reporting order.
pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of every per-layer metric, in reporting order.
pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_core::obs::json::{parse, Json};

    fn direction(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn outcome() -> Outcome {
        let mut values = Values::default();
        values.set("wall_s", 1.203_456_789);
        values.set("replay_rps", 128_456.5);
        values.set("setup_s", 0.8127);
        values.set("peak_rss_mib", 154.0);
        Outcome {
            attempted: 1_000,
            failed: 0,
            values,
        }
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let line = outcome().to_json(&end_to_end_table());
        assert!(!line.contains('\n'));
        let v = parse(&line).expect("valid JSON");
        let Json::Obj(top) = &v else { panic!("object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(1_000));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "every end-to-end metric, nothing else");
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        // All digits survive the trip.
        assert_eq!(
            wall.get("value").and_then(Json::as_f64),
            Some(1.203_456_789)
        );
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        // A whole-valued float is still a JSON number.
        let rss = v
            .get("metrics")
            .and_then(|m| m.get("peak_rss_mib"))
            .expect("rss");
        assert_eq!(rss.get("value").and_then(Json::as_f64), Some(154.0));
    }

    #[test]
    fn failure_flips_correct_and_attempted_is_at_least_one() {
        let mut o = outcome();
        o.failed = 3;
        o.attempted = 0;
        let v = parse(&o.to_json(&per_layer_table())).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!u.is_empty() && u.len() <= 16 && u.chars().all(ok), "{u}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let list = |key: &str| v.get(key).and_then(Json::as_arr).expect("list").to_vec();
        let field =
            |o: &Json, k: &str| o.get(k).and_then(Json::as_str).expect("string").to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), direction(want.better));
            assert_eq!(
                got.get("bound").and_then(Json::as_f64),
                Some(want.bound),
                "{}",
                want.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.0);
            assert_eq!(field(got, "unit"), want.1);
            assert_eq!(field(got, "better"), direction(want.2));
        }
    }
}
