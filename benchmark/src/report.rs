//! The names this benchmark reports, and the line the driver reads.
//!
//! The lists repeat `../BENCHMARK.json`; a unit test holds the two equal
//! in both directions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Workload names, in the order they run when none is named.
pub const WORKLOADS: [&str; 5] = [
    "prefill_sprint",
    "prefill_dense",
    "decode_churn",
    "http_serve",
    "http_decode",
];

/// End-to-end metrics `(name, unit)`, reported by every workload of an
/// untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_energy_nj_per_op", "nJ"),
    ("output_rel_err", "ratio"),
    ("host_peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload of a
/// traced run. One that a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("workloads.generate_ms", "ms"),
    ("workloads.churn_schedule_ms", "ms"),
    ("reram.reprogram_ms", "ms"),
    ("reram.prune_query_us", "us"),
    ("reram.extend_row_us", "us"),
    ("reram.share_of_head", "share"),
    ("reram.in_memory_ops_per_op", "count"),
    ("reram.comparator_firings_per_op", "count"),
    ("reram.kept_fraction", "share"),
    ("reram.recall_vs_oracle", "share"),
    ("memory.process_query_us", "us"),
    ("memory.share_of_head", "share"),
    ("memory.fetched_vectors_per_op", "count"),
    ("memory.reused_vectors_per_op", "count"),
    ("memory.reuse_fraction", "share"),
    ("memory.bytes_fetched_per_op", "bytes"),
    ("attention.quantized_ms", "ms"),
    ("attention.dense_ms", "ms"),
    ("attention.decode_kernel_us", "us"),
    ("attention.share_of_head", "share"),
    ("attention.pool_peak_pages", "count"),
    ("attention.pool_reused_pages", "count"),
    ("attention.pool_pages_leaked", "count"),
    ("attention.simd_avx2", "flag"),
    ("engine.run_head_ms", "ms"),
    ("engine.unattributed_share", "share"),
    ("engine.open_session_ms", "ms"),
    ("engine.step_us", "us"),
    ("engine.evict_us", "us"),
    ("engine.resume_session_ms", "ms"),
    ("engine.rehydrate_share", "share"),
    ("engine.rehydrations_per_kop", "count"),
    ("engine.rehydrated_tokens_per_kop", "count"),
    ("engine.recalibrations_per_kop", "count"),
    ("engine.serve_ms", "ms"),
    ("engine.rollup_us", "us"),
    ("server.json_parse_us", "us"),
    ("server.request_parse_us", "us"),
    ("server.response_render_us", "us"),
    ("server.queue_submit_drain_us", "us"),
    ("server.fabric_ms", "ms"),
    ("server.mean_batch", "count"),
    ("server.shed_share", "share"),
    ("server.sessions_evicted_per_kop", "count"),
    ("server.sessions_rehydrated_per_kop", "count"),
    ("server.metrics_scrape_ms", "ms"),
    ("minihttp.read_request_us", "us"),
    ("minihttp.health_roundtrip_ms", "ms"),
    ("bench.whole_run_throughput_ops_s", "1/s"),
    ("bench.whole_run_p50_ms", "ms"),
    ("bench.latency_p90_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.segment_iqr_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.verify_s", "s"),
    ("bench.failed_share", "share"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every timed operation's output check passed and the untimed
    /// verify pass found nothing wrong.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and one `metrics` entry per declared name, in declared order.
///
/// # Errors
///
/// An end-to-end metric that was not measured, or a value that is not a
/// finite number, is an error: the run could not evaluate what it
/// declares. A per-layer metric without a value reads 0 (the workload
/// does not exercise that layer).
pub fn result_line(
    outcome: &Outcome,
    declared: &[(&str, &str)],
    required: bool,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match outcome.values.get(name) {
            Some(v) => *v,
            None if required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

/// The metrics as aligned `name value unit` lines for a reader.
pub fn table(values: &Values, declared: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, unit) in declared {
        if let Some(v) = values.get(name) {
            writeln!(out, "  {name:<36} {v:>16.6} {unit}")
                .expect("writing to a String cannot fail");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_server::Json;
    use std::collections::BTreeSet;

    const DECLARATION: &str = include_str!("../../BENCHMARK.json");

    fn names(doc: &Json, key: &str) -> BTreeSet<String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no list {key}");
        };
        items
            .iter()
            .map(|m| {
                m.str_field("name")
                    .expect("every entry is named")
                    .to_string()
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> BTreeSet<String> {
        list.iter().map(|(n, _)| n.to_string()).collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declared_and_emitted_sets_are_equal_in_both_directions() {
        let doc = Json::parse(DECLARATION).expect("BENCHMARK.json parses");
        assert_eq!(names(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: BTreeSet<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        // Units agree too, and no name is used twice.
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                unreachable!()
            };
            assert_eq!(items.len(), list.len(), "{key}: a name is declared twice");
            for item in items {
                let name = item.str_field("name").unwrap();
                let unit = list.iter().find(|(n, _)| *n == name).unwrap().1;
                assert_eq!(item.str_field("unit"), Some(unit), "{name}");
            }
        }
        let all = ours(&END_TO_END).len() + ours(&PER_LAYER).len() + WORKLOADS.len();
        let mut every: BTreeSet<String> = ours(&END_TO_END);
        every.extend(ours(&PER_LAYER));
        every.extend(workloads);
        assert_eq!(every.len(), all, "names are unique across the file");
        assert!(every.iter().all(|n| well_formed(n)));
    }

    #[test]
    fn result_line_parses_and_carries_every_declared_name() {
        let mut values = Values::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            values.insert(name, 1.5 + i as f64);
        }
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            values,
        };
        let line = result_line(&outcome, &END_TO_END, true).unwrap();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("the result line is JSON");
        let Json::Obj(top) = &doc else {
            panic!("an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.u64_field("attempted"), Some(10));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        let emitted: BTreeSet<String> = metrics.keys().cloned().collect();
        assert_eq!(emitted, ours(&END_TO_END));
        assert!(emitted.iter().all(|n| well_formed(n)));
        assert_eq!(
            metrics["latency_p50_ms"]
                .get("value")
                .and_then(Json::as_f64),
            Some(3.5)
        );
        assert_eq!(metrics["latency_p50_ms"].str_field("unit"), Some("ms"));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            values: Values::new(),
        };
        assert!(result_line(&outcome, &END_TO_END, true)
            .unwrap_err()
            .contains("setup_s"));
        // Per-layer metrics a workload does not exercise read 0.
        let line = result_line(&outcome, &PER_LAYER, false).unwrap();
        let doc = Json::parse(&line).unwrap();
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        outcome.values.insert("bench.verify_s", f64::NAN);
        assert!(result_line(&outcome, &PER_LAYER, false).is_err());
    }
}
