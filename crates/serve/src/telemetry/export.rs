//! Rendering telemetry for the ops surface: hand-rolled Prometheus text
//! exposition for `GET /metrics` and the JSON body for `GET /v1/stats`.
//!
//! The Prometheus writer emits each metric family as a `# TYPE` line
//! followed immediately by all of its samples — the ordering scrapers
//! require — and escapes label values per the exposition format. No
//! client library, no deps: the format is a dozen lines of `write!`.

use std::fmt::Write;

use crate::api::{EndpointStatsRow, ModelStatsRow, StatsResponse};
use crate::registry::ModelSummary;
use crate::rollout::RolloutSnapshot;

use super::stats::Telemetry;

/// Point-in-time registry gauges the exporter cannot read from telemetry
/// itself (they belong to the registry, not the request path).
#[derive(Debug, Clone, Copy)]
pub struct OpsGauges {
    /// Registered model versions (resident or lazy).
    pub models_registered: usize,
    /// Versions currently resident in memory.
    pub models_resident: usize,
    /// SIMD kernel backend chosen at startup (`avx2`/`sse2`/`scalar`).
    pub kernel_backend: &'static str,
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders the full `/metrics` payload. `registry_rows` is the registry
/// listing (one row per version) behind the per-artifact info gauges;
/// `net` carries the network-plane gauges (per-reactor connections and
/// per-model fair-queue depths), omitted entirely when `None`.
pub fn prometheus(
    t: &Telemetry,
    gauges: OpsGauges,
    registry_rows: &[ModelSummary],
    net: Option<&crate::http::NetStats>,
    rollout: &RolloutSnapshot,
) -> String {
    let mut out = String::with_capacity(4096);
    let endpoints = t.endpoints_snapshot();
    let models = t.models_snapshot();
    let coalesce = t.coalesce_stats().snapshot();

    out.push_str("# HELP hamlet_uptime_seconds Seconds since the server booted.\n");
    out.push_str("# TYPE hamlet_uptime_seconds gauge\n");
    let _ = writeln!(out, "hamlet_uptime_seconds {}", t.uptime().as_secs_f64());

    out.push_str("# TYPE hamlet_models_registered gauge\n");
    let _ = writeln!(out, "hamlet_models_registered {}", gauges.models_registered);
    out.push_str("# TYPE hamlet_models_resident gauge\n");
    let _ = writeln!(out, "hamlet_models_resident {}", gauges.models_resident);

    out.push_str(
        "# HELP hamlet_kernel_backend_info SIMD dispatch tier chosen at startup (constant 1).\n",
    );
    out.push_str("# TYPE hamlet_kernel_backend_info gauge\n");
    let _ = writeln!(
        out,
        "hamlet_kernel_backend_info{{backend=\"{}\"}} 1",
        escape_label(gauges.kernel_backend)
    );

    out.push_str(
        "# HELP hamlet_model_info Registered artifact metadata (family, weight encoding).\n",
    );
    out.push_str("# TYPE hamlet_model_info gauge\n");
    for row in registry_rows {
        let _ = writeln!(
            out,
            "hamlet_model_info{{model=\"{}\",family=\"{}\",encoding=\"{}\"}} 1",
            escape_label(&row.key),
            escape_label(&row.family),
            escape_label(&row.encoding)
        );
    }
    out.push_str(
        "# HELP hamlet_model_resident_bytes Dense weight bytes resident in memory (0 = lazy).\n",
    );
    out.push_str("# TYPE hamlet_model_resident_bytes gauge\n");
    for row in registry_rows {
        let _ = writeln!(
            out,
            "hamlet_model_resident_bytes{{model=\"{}\"}} {}",
            escape_label(&row.key),
            row.resident_bytes
        );
    }

    out.push_str("# HELP hamlet_requests_total Requests answered, by endpoint.\n");
    out.push_str("# TYPE hamlet_requests_total counter\n");
    for (e, snap) in &endpoints {
        let _ = writeln!(
            out,
            "hamlet_requests_total{{endpoint=\"{}\"}} {}",
            e.name(),
            snap.requests
        );
    }
    out.push_str("# TYPE hamlet_request_errors_total counter\n");
    for (e, snap) in &endpoints {
        let _ = writeln!(
            out,
            "hamlet_request_errors_total{{endpoint=\"{}\"}} {}",
            e.name(),
            snap.errors
        );
    }
    out.push_str(
        "# HELP hamlet_request_panics_total Of the errors, handler panics isolated to a 500.\n",
    );
    out.push_str("# TYPE hamlet_request_panics_total counter\n");
    for (e, snap) in &endpoints {
        let _ = writeln!(
            out,
            "hamlet_request_panics_total{{endpoint=\"{}\"}} {}",
            e.name(),
            snap.panics
        );
    }

    if let Some(net) = net {
        let reactors = net.reactor_snapshots();
        out.push_str("# HELP hamlet_reactor_connections Open connections, by reactor.\n");
        out.push_str("# TYPE hamlet_reactor_connections gauge\n");
        for r in &reactors {
            let _ = writeln!(
                out,
                "hamlet_reactor_connections{{reactor=\"{}\"}} {}",
                r.index, r.connections
            );
        }
        out.push_str("# HELP hamlet_reactor_accepted_total Connections adopted, by reactor.\n");
        out.push_str("# TYPE hamlet_reactor_accepted_total counter\n");
        for r in &reactors {
            let _ = writeln!(
                out,
                "hamlet_reactor_accepted_total{{reactor=\"{}\"}} {}",
                r.index, r.accepted_total
            );
        }
        out.push_str(
            "# HELP hamlet_fair_queue_depth Jobs queued for the executor pool, by fair-dispatch key.\n",
        );
        out.push_str("# TYPE hamlet_fair_queue_depth gauge\n");
        for (key, depth) in net.queue_depths() {
            let _ = writeln!(
                out,
                "hamlet_fair_queue_depth{{model=\"{}\"}} {depth}",
                escape_label(&key)
            );
        }
    }

    out.push_str("# HELP hamlet_coalesce_total Predict coalescer counters.\n");
    out.push_str("# TYPE hamlet_coalesce_total counter\n");
    for (kind, value) in [
        ("batches", coalesce.batches),
        ("merged_requests", coalesce.merged_requests),
        ("solo_requests", coalesce.solo_requests),
        ("flush_full", coalesce.flush_full),
        ("flush_timeout", coalesce.flush_timeout),
        ("flush_drained", coalesce.flush_drained),
    ] {
        let _ = writeln!(out, "hamlet_coalesce_total{{kind=\"{kind}\"}} {value}");
    }

    out.push_str("# HELP hamlet_model_requests_total Predict requests answered, by model.\n");
    out.push_str("# TYPE hamlet_model_requests_total counter\n");
    for (key, snap) in &models {
        let _ = writeln!(
            out,
            "hamlet_model_requests_total{{model=\"{}\"}} {}",
            escape_label(key),
            snap.requests
        );
    }
    out.push_str("# TYPE hamlet_model_merged_requests_total counter\n");
    for (key, snap) in &models {
        let _ = writeln!(
            out,
            "hamlet_model_merged_requests_total{{model=\"{}\"}} {}",
            escape_label(key),
            snap.merged_requests
        );
    }
    out.push_str("# TYPE hamlet_model_rows_total counter\n");
    for (key, snap) in &models {
        let _ = writeln!(
            out,
            "hamlet_model_rows_total{{model=\"{}\"}} {}",
            escape_label(key),
            snap.rows
        );
    }

    // Shadow-scoring accounting: only candidates that have received
    // mirrored traffic emit samples, mirroring the cascade convention.
    let shadows: Vec<_> = models.iter().filter(|(_, snap)| snap.shadowed()).collect();
    if !shadows.is_empty() {
        out.push_str(
            "# HELP hamlet_shadow_rows_total Mirrored rows scored against the incumbent, by model.\n",
        );
        out.push_str("# TYPE hamlet_shadow_rows_total counter\n");
        for (key, snap) in &shadows {
            let _ = writeln!(
                out,
                "hamlet_shadow_rows_total{{model=\"{}\"}} {}",
                escape_label(key),
                snap.shadow_rows
            );
        }
        out.push_str(
            "# HELP hamlet_shadow_skipped_rows_total Mirrored rows dropped by a contained panic, by model.\n",
        );
        out.push_str("# TYPE hamlet_shadow_skipped_rows_total counter\n");
        for (key, snap) in &shadows {
            let _ = writeln!(
                out,
                "hamlet_shadow_skipped_rows_total{{model=\"{}\"}} {}",
                escape_label(key),
                snap.shadow_skipped_rows
            );
        }
        out.push_str(
            "# HELP hamlet_shadow_agreement Fraction of shadow rows agreeing with the incumbent.\n",
        );
        out.push_str("# TYPE hamlet_shadow_agreement gauge\n");
        for (key, snap) in &shadows {
            if let Some(agreement) = snap.shadow_agreement() {
                let _ = writeln!(
                    out,
                    "hamlet_shadow_agreement{{model=\"{}\"}} {agreement}",
                    escape_label(key)
                );
            }
        }
    }

    // Rollout plane: the state gauge is always present (model="none" when
    // idle) so dashboards and the CI smoke can assert on it without
    // first forcing a rollout.
    out.push_str(
        "# HELP hamlet_rollout_state Rollout phase: 0 idle, 1 shadow, 2 canary, by bare name.\n",
    );
    out.push_str("# TYPE hamlet_rollout_state gauge\n");
    let phase_value = match rollout.phase.as_deref() {
        Some("shadow") => 1,
        Some("canary") => 2,
        _ => 0,
    };
    let _ = writeln!(
        out,
        "hamlet_rollout_state{{model=\"{}\"}} {phase_value}",
        escape_label(rollout.model.as_deref().unwrap_or("none"))
    );
    out.push_str(
        "# HELP hamlet_rollout_frozen Auto-promotion frozen by the drift advisor (0/1).\n",
    );
    out.push_str("# TYPE hamlet_rollout_frozen gauge\n");
    let _ = writeln!(out, "hamlet_rollout_frozen {}", rollout.frozen as u8);
    out.push_str("# TYPE hamlet_canary_requests gauge\n");
    let _ = writeln!(out, "hamlet_canary_requests {}", rollout.canary_requests);
    out.push_str("# TYPE hamlet_canary_errors gauge\n");
    let _ = writeln!(out, "hamlet_canary_errors {}", rollout.canary_errors);
    out.push_str("# HELP hamlet_rollout_total Rollout lifecycle counters since boot.\n");
    out.push_str("# TYPE hamlet_rollout_total counter\n");
    for (kind, value) in [
        ("promotions", rollout.promotions),
        ("rollbacks", rollout.rollbacks),
    ] {
        let _ = writeln!(out, "hamlet_rollout_total{{kind=\"{kind}\"}} {value}");
    }
    out.push_str(
        "# HELP hamlet_drift_checks_total Drift-advisor passes over the observe buffer.\n",
    );
    out.push_str("# TYPE hamlet_drift_checks_total counter\n");
    let _ = writeln!(out, "hamlet_drift_checks_total {}", rollout.drift_checks);
    out.push_str(
        "# HELP hamlet_drift_events_total Drift verdicts (live data left the avoid-join safety envelope).\n",
    );
    out.push_str("# TYPE hamlet_drift_events_total counter\n");
    let _ = writeln!(out, "hamlet_drift_events_total {}", rollout.drift_events);
    out.push_str("# HELP hamlet_observe_rows_total Labeled rows accepted by /v1/observe.\n");
    out.push_str("# TYPE hamlet_observe_rows_total counter\n");
    let _ = writeln!(out, "hamlet_observe_rows_total {}", rollout.observe_rows);

    // Cascade tier accounting: only models whose traffic ran through a
    // tiered artifact have nonzero slots; everything else stays silent so
    // the exposition does not grow a zero sample per model per tier.
    let cascades: Vec<_> = models
        .iter()
        .filter_map(|(key, snap)| Some((key, snap.cascade_tier_rows()?, snap.escalation_ratio()?)))
        .collect();
    if !cascades.is_empty() {
        out.push_str(
            "# HELP hamlet_cascade_tier_rows_total Rows answered per cascade tier, by model.\n",
        );
        out.push_str("# TYPE hamlet_cascade_tier_rows_total counter\n");
        for (key, tier_rows, _) in &cascades {
            for (tier, &n) in tier_rows.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "hamlet_cascade_tier_rows_total{{model=\"{}\",tier=\"{tier}\"}} {n}",
                    escape_label(key)
                );
            }
        }
        out.push_str(
            "# HELP hamlet_cascade_escalation_ratio Fraction of cascade-served rows that \
             escalated past tier 0.\n",
        );
        out.push_str("# TYPE hamlet_cascade_escalation_ratio gauge\n");
        for (key, _, ratio) in &cascades {
            let _ = writeln!(
                out,
                "hamlet_cascade_escalation_ratio{{model=\"{}\"}} {ratio}",
                escape_label(key)
            );
        }
    }

    out.push_str("# HELP hamlet_request_latency_seconds Request latency, by endpoint.\n");
    out.push_str("# TYPE hamlet_request_latency_seconds summary\n");
    for (e, snap) in &endpoints {
        write_summary(
            &mut out,
            "hamlet_request_latency_seconds",
            &format!("endpoint=\"{}\"", e.name()),
            &snap.hist,
        );
    }
    out.push_str("# HELP hamlet_model_latency_seconds Predict latency, by model.\n");
    out.push_str("# TYPE hamlet_model_latency_seconds summary\n");
    for (key, snap) in &models {
        write_summary(
            &mut out,
            "hamlet_model_latency_seconds",
            &format!("model=\"{}\"", escape_label(key)),
            &snap.hist,
        );
    }
    out
}

/// One summary family member: quantile samples plus `_sum`/`_count`.
/// Dimensions with no observations emit only the (zero) `_sum`/`_count`
/// pair, since their quantiles are undefined.
fn write_summary(
    out: &mut String,
    family: &str,
    label: &str,
    hist: &super::hist::HistogramSnapshot,
) {
    for (q, label_q) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
        if let Some(ns) = hist.percentile_ns(q) {
            let _ = writeln!(
                out,
                "{family}{{{label},quantile=\"{label_q}\"}} {}",
                ns / 1e9
            );
        }
    }
    let _ = writeln!(out, "{family}_sum{{{label}}} {}", hist.sum_ns as f64 / 1e9);
    let _ = writeln!(out, "{family}_count{{{label}}} {}", hist.count());
}

/// Assembles the `GET /v1/stats` JSON body. `registry_rows` supplies the
/// per-model weight encoding for versions that have seen traffic.
pub fn stats_response(
    t: &Telemetry,
    gauges: OpsGauges,
    registry_rows: &[ModelSummary],
    rollout: RolloutSnapshot,
) -> StatsResponse {
    let now_ms = t.now_ms();
    let endpoints = t
        .endpoints_snapshot()
        .into_iter()
        .map(|(e, snap)| EndpointStatsRow {
            endpoint: e.name().to_string(),
            requests: snap.requests,
            errors: snap.errors,
            panics: snap.panics,
            p50_ms: snap.hist.percentile_ms(0.5),
            p99_ms: snap.hist.percentile_ms(0.99),
            p999_ms: snap.hist.percentile_ms(0.999),
        })
        .collect();
    let models = t
        .models_snapshot()
        .into_iter()
        .map(|(key, snap)| {
            let shadowed = snap.shadowed();
            ModelStatsRow {
                shadow_rows: shadowed.then_some(snap.shadow_rows),
                shadow_agreement: snap.shadow_agreement(),
                shadow_skipped_rows: shadowed.then_some(snap.shadow_skipped_rows),
                encoding: registry_rows
                    .iter()
                    .find(|r| r.key == key)
                    .map(|r| r.encoding.clone()),
                model: key,
                requests: snap.requests,
                merged_requests: snap.merged_requests,
                rows: snap.rows,
                mean_ms: snap.hist.mean_ns().map(|ns| ns / 1e6),
                p50_ms: snap.hist.percentile_ms(0.5),
                p99_ms: snap.hist.percentile_ms(0.99),
                p999_ms: snap.hist.percentile_ms(0.999),
                idle_secs: snap
                    .last_hit_ms
                    .map(|last| now_ms.saturating_sub(last) as f64 / 1e3),
                cascade_tier_rows: snap.cascade_tier_rows().map(<[u64]>::to_vec),
                cascade_escalation_ratio: snap.escalation_ratio(),
            }
        })
        .collect();
    StatsResponse {
        uptime_secs: t.uptime().as_secs_f64(),
        models_registered: gauges.models_registered,
        models_resident: gauges.models_resident,
        kernel_backend: gauges.kernel_backend.to_string(),
        endpoints,
        models,
        coalesce: t.coalesce_stats().snapshot(),
        events: t.recent_events(),
        rollout,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::time::Duration;

    use super::super::eventlog::EventKind;
    use super::super::stats::Endpoint;
    use super::*;

    fn seeded_gauges() -> OpsGauges {
        OpsGauges {
            models_registered: 3,
            models_resident: 2,
            kernel_backend: "avx2",
        }
    }

    fn seeded_rows() -> Vec<ModelSummary> {
        vec![ModelSummary {
            key: "alpha@1".into(),
            name: "alpha".into(),
            version: 1,
            family: "mlp".into(),
            encoding: "i8".into(),
            config: "NoJoin".into(),
            n_features: 4,
            test_accuracy: 0.9,
            dataset: "movies".into(),
            resident: true,
            resident_bytes: 1024,
        }]
    }

    fn seeded_telemetry() -> Telemetry {
        let t = Telemetry::in_memory();
        for i in 1..=40u64 {
            t.endpoint(Endpoint::Predict)
                .observe(Duration::from_micros(100 * i), false);
            t.model("alpha@1")
                .record(Duration::from_micros(90 * i), 2, i % 2 == 0, t.now_ms());
        }
        t.endpoint(Endpoint::Other)
            .observe(Duration::from_micros(10), true);
        t.record_event(EventKind::Startup, "", "2 artifact(s) warm-loaded");
        t
    }

    /// Mirrors the CI exposition check: every sample's family (modulo the
    /// `_sum`/`_count` suffixes) must have been declared by a preceding
    /// `# TYPE` line.
    #[test]
    fn every_sample_follows_its_type_line() {
        let t = seeded_telemetry();
        let net = crate::http::NetStats::new();
        let text = prometheus(
            &t,
            seeded_gauges(),
            &seeded_rows(),
            Some(&net),
            &RolloutSnapshot::default(),
        );
        let mut declared: HashSet<&str> = HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                declared.insert(rest.split_whitespace().next().unwrap());
                continue;
            }
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let metric = line.split(['{', ' ']).next().expect("metric name");
            let base = metric
                .strip_suffix("_sum")
                .or_else(|| metric.strip_suffix("_count"))
                .unwrap_or(metric);
            assert!(
                declared.contains(metric) || declared.contains(base),
                "sample `{metric}` has no preceding # TYPE line"
            );
        }
        assert!(text.contains("hamlet_model_requests_total{model=\"alpha@1\"} 40"));
        assert!(text.contains("hamlet_requests_total{endpoint=\"predict\"} 40"));
        assert!(text.contains("hamlet_request_errors_total{endpoint=\"other\"} 1"));
        assert!(text.contains("quantile=\"0.999\""));
        assert!(text.contains("hamlet_kernel_backend_info{backend=\"avx2\"} 1"));
        assert!(
            text.contains("hamlet_model_info{model=\"alpha@1\",family=\"mlp\",encoding=\"i8\"} 1")
        );
        assert!(text.contains("hamlet_model_resident_bytes{model=\"alpha@1\"} 1024"));
        assert!(text.contains("hamlet_rollout_state{model=\"none\"} 0"));
        assert!(text.contains("hamlet_drift_checks_total 0"));
        assert!(text.contains("hamlet_request_panics_total{endpoint=\"predict\"} 0"));
    }

    #[test]
    fn stats_response_reports_percentiles_and_events() {
        let t = seeded_telemetry();
        let resp = stats_response(
            &t,
            seeded_gauges(),
            &seeded_rows(),
            RolloutSnapshot::default(),
        );
        assert_eq!(resp.models_registered, 3);
        assert_eq!(resp.kernel_backend, "avx2");
        let predict = resp
            .endpoints
            .iter()
            .find(|r| r.endpoint == "predict")
            .unwrap();
        assert_eq!(predict.requests, 40);
        assert!(predict.p50_ms.unwrap() > 0.0);
        assert!(predict.p99_ms.unwrap() >= predict.p50_ms.unwrap());
        let alpha = resp.models.iter().find(|r| r.model == "alpha@1").unwrap();
        assert_eq!(alpha.encoding.as_deref(), Some("i8"));
        assert_eq!(alpha.rows, 80);
        assert_eq!(alpha.merged_requests, 20);
        assert!(alpha.p999_ms.is_some());
        assert!(alpha.idle_secs.is_some());
        assert_eq!(resp.events.len(), 1);
        // The JSON wire shape carries the event kind as a string.
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"kind\":\"Startup\""), "{json}");
        assert!(json.contains("\"p99_ms\":"), "{json}");
    }

    /// Both exporters derive the cascade and shadow figures from the same
    /// snapshot methods, so they must report the same values.
    #[test]
    fn cascade_and_shadow_figures_agree_across_exporters() {
        let t = seeded_telemetry();
        let mut tiers = [0u64; hamlet_ml::cascade::MAX_TIERS];
        tiers[0] = 6;
        tiers[2] = 2; // tier 1 saw nothing but sits below a tier that did
        t.model("casc@1").record_tiers(&tiers);
        t.model("cand@2").record_shadow(10, 7);
        t.model("cand@2").record_shadow_skipped(3);
        let text = prometheus(
            &t,
            seeded_gauges(),
            &seeded_rows(),
            None,
            &RolloutSnapshot::default(),
        );
        let resp = stats_response(
            &t,
            seeded_gauges(),
            &seeded_rows(),
            RolloutSnapshot::default(),
        );
        let row = |m: &str| resp.models.iter().find(|r| r.model == m).unwrap();

        let casc = row("casc@1");
        let tier_rows = casc.cascade_tier_rows.as_deref().expect("tiers recorded");
        assert_eq!(tier_rows, [6, 0, 2], "trimmed after the deepest tier");
        for (tier, n) in tier_rows.iter().enumerate() {
            let sample =
                format!("hamlet_cascade_tier_rows_total{{model=\"casc@1\",tier=\"{tier}\"}} {n}\n");
            assert!(text.contains(&sample), "{sample}");
        }
        assert!(!text.contains("model=\"casc@1\",tier=\"3\""), "{text}");
        let ratio = casc.cascade_escalation_ratio.expect("escalation ratio");
        assert_eq!(ratio, 0.25);
        let sample = format!("hamlet_cascade_escalation_ratio{{model=\"casc@1\"}} {ratio}\n");
        assert!(text.contains(&sample), "{sample}");

        let cand = row("cand@2");
        assert_eq!(cand.shadow_rows, Some(10));
        assert_eq!(cand.shadow_skipped_rows, Some(3));
        let agreement = cand.shadow_agreement.expect("shadow agreement");
        assert_eq!(agreement, 0.7);
        for sample in [
            "hamlet_shadow_rows_total{model=\"cand@2\"} 10\n".to_string(),
            "hamlet_shadow_skipped_rows_total{model=\"cand@2\"} 3\n".to_string(),
            format!("hamlet_shadow_agreement{{model=\"cand@2\"}} {agreement}\n"),
        ] {
            assert!(text.contains(&sample), "{sample}");
        }

        // A model with neither stays silent on both surfaces.
        let alpha = row("alpha@1");
        assert!(alpha.cascade_tier_rows.is_none() && alpha.cascade_escalation_ratio.is_none());
        assert!(alpha.shadow_rows.is_none() && alpha.shadow_skipped_rows.is_none());
        assert!(!text.contains("hamlet_cascade_escalation_ratio{model=\"alpha@1\"}"));
        assert!(!text.contains("hamlet_shadow_rows_total{model=\"alpha@1\"}"));
        assert!(!text.contains("hamlet_shadow_rows_total{model=\"casc@1\"}"));
    }

    #[test]
    fn label_escaping_covers_the_specials() {
        assert_eq!(escape_label(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label("x\ny"), "x\\ny");
    }
}
