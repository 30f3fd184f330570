//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror the lists in `BENCHMARK.json` at
//! the repository root (a unit test keeps them in step). Every workload
//! reports every end-to-end metric unless a failure ended it early. A
//! per-layer metric whose layer the workload never reaches reads 0.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("setup_vs_reference", "ratio"),
    ("ops_time_vs_bsearch", "ratio"),
    ("lookup_p50_vs_bsearch", "ratio"),
    ("lookup_p99_vs_bsearch", "ratio"),
    ("lookup_time_vs_bsearch", "ratio"),
    ("index_bytes_per_key", "B/key"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lookup_p50_ns", "ns"),
    ("lookup_p99_ns", "ns"),
    ("lookup_mops", "Mop/s"),
    ("router.route_ns", "ns"),
    ("shard.predict_ns", "ns"),
    ("shard.search_ns", "ns"),
    ("shard.log2_window", "log2"),
    ("shard.log2_err", "log2"),
    ("shard.lookup_ns_max", "ns"),
    ("btree.lookup_ns", "ns"),
    ("binsearch.lookup_ns", "ns"),
    ("lookup.traced_ns", "ns"),
    ("lookup.layers_ns", "ns"),
    ("trace.overhead_frac", "frac"),
    ("build.train_s", "s"),
    ("router.fit_s", "s"),
    ("select.decide_s", "s"),
    ("select.rmi_shards", "count"),
    ("select.btree_shards", "count"),
    ("select.fast_shards", "count"),
    ("select.interp_shards", "count"),
    ("tier.buffer_probe_ns", "ns"),
    ("tier.run_probe_ns", "ns"),
    ("tier.base_probe_ns", "ns"),
    ("tier.runs_per_shard", "count"),
    ("tier.probes_per_hit", "count"),
    ("writable.merges", "count"),
    ("writable.merge_busy_ms", "ms"),
    ("writable.seals", "count"),
    ("writable.compactions", "count"),
    ("writable.compact_busy_ms", "ms"),
    ("rebalance.splits", "count"),
    ("rebalance.shard_merges", "count"),
    ("wal.appends", "count"),
    ("wal.syncs", "count"),
    ("wal.append_p50_ns", "ns"),
    ("wal.sync_busy_ms", "ms"),
    ("wal.bytes_per_key", "B/key"),
    ("persist.save_s", "s"),
    ("persist.snapshot_bytes_per_key", "B/key"),
    ("recover.load_s", "s"),
    ("recover.replay_s", "s"),
    ("recover.replayed", "count"),
    ("batch_lookup_mops", "Mop/s"),
    ("insert_kops", "kop/s"),
    ("insert_p50_ns", "ns"),
    ("insert_p99_ns", "ns"),
    ("insert_p9999_ns", "ns"),
    ("recover_s", "s"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Metric values collected by one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Set a catalogued metric and print it with its unit and context.
    pub fn set(&mut self, name: &'static str, value: f64, note: &str) {
        let unit = unit_of(name);
        assert!(value.is_finite(), "{name} = {value} is not finite");
        println!("  {name:<32} {value:>16.4} {unit:<6} {note}");
        self.values.insert(name, value);
    }

    /// The result line: every end-to-end metric (`trace` false) or every
    /// per-layer metric (`trace` true), plus the correctness tally. After
    /// a failure, end-to-end metrics the run never reached are left out.
    pub fn result_line(&self, trace: bool, attempted: u64, failed: u64) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let fields: Vec<String> = catalogue
            .iter()
            .filter_map(|(name, unit)| {
                let v = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None if failed > 0 => return None,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                // `{:?}` keeps every digit and always prints valid JSON
                // for a finite value (`3.0`, `1e-7`).
                Some(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`, by scanning
    /// for its `"name": ..., "unit": ...` entries.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closed")];
        let field = |chunk: &str, f: &str| -> String {
            let at = chunk.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
            chunk[at..at + chunk[at..].find('"').unwrap()].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(listed(json, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_lists_the_requested_catalogue() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64, "");
        }
        let line = m.result_line(false, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("router.route_ns"));
        let traced = m.result_line(true, 10, 1);
        assert!(traced.contains("\"correct\": false"));
        assert!(traced.contains("\"router.route_ns\": {\"value\": 0.0, \"unit\": \"ns\"}"));
    }

    #[test]
    fn a_failed_run_still_prints_its_result_line() {
        let line = Metrics::default().result_line(false, 1, 1);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
