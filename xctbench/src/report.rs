//! Metric names, units, and the one-line JSON result.

use xct_telemetry::Json;

/// End-to-end metrics (reported with `--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("recon_s", "s"),
    ("setup_s", "s"),
    ("mvox_it_per_s", "Mvox-it/s"),
    ("rel_error", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Traffic classes reported per iteration.
pub const TRAFFIC: [&str; 4] = ["socket", "node", "global", "control"];

/// Per-layer metrics (reported with `--trace 1`): name, unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 24] = [
        ("host.stream_gbs", "GB/s"),
        ("host.fma_gflops", "Gflop/s"),
        ("geometry.build_ms", "ms"),
        ("geometry.nnz", "count"),
        ("core.decompose_ms", "ms"),
        ("comm.compile_ms", "ms"),
        ("plan.slabs", "count"),
        ("spmm.pack_ms", "ms"),
        ("spmm.gflops", "Gflop/s"),
        ("spmm.gbs", "GB/s"),
        ("spmm.roofline_frac", "ratio"),
        ("spmm.ref_gflops", "Gflop/s"),
        ("spmm.flop_per_byte", "flop/B"),
        ("spmm.padding_frac", "ratio"),
        ("fp16.convert_gbs", "GB/s"),
        ("solver.self_ms_per_iter", "ms"),
        ("solver.residual", "ratio"),
        ("comm.allreduce_us_p50", "us"),
        ("comm.allreduce_us_p99", "us"),
        ("comm.sendrecv_us_p50", "us"),
        ("comm.exchange_ms", "ms"),
        ("io.read_gbs", "GB/s"),
        ("io.write_gbs", "GB/s"),
        ("trace.overhead_frac", "ratio"),
    ];
    let mut out: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for class in TRAFFIC {
        out.push((format!("comm.bytes_per_iter.{class}"), "B"));
        out.push((format!("comm.msgs_per_iter.{class}"), "count"));
    }
    out
}

/// The result line: correctness, attempt counts and `metrics` as
/// `{name: {value, unit}}` in the given order.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    Json::object(vec![
        ("correct", Json::from(failed == 0 && attempted > 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::object(
                metrics
                    .iter()
                    .map(|(name, unit, value)| {
                        (
                            name.clone(),
                            Json::object(vec![
                                ("value", Json::from(*value)),
                                ("unit", Json::from(*unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: starts with a letter or digit,
    /// at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a legal unit: at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_and_unit_is_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let units = END_TO_END
            .iter()
            .map(|&(_, u)| u)
            .chain(per_layer().into_iter().map(|(_, u)| u));
        for unit in units {
            assert!(valid_unit(unit), "{unit}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("comm bytes"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(3, 1, &[("recon_s".to_owned(), "s", 1.25)]);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(3.0));
        let m = parsed.get("metrics").and_then(|m| m.get("recon_s"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            m.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("s")
        );
    }
}
