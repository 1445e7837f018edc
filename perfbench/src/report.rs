//! Metric names, the report table and the one-line JSON result.

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them. The run also prints `p50_us` and `p99_us` in its
/// table, but on a shared 2-core host their spread across ten seeds is too
/// wide for a regression bound, so they are not part of the result: p99
/// spread 15-66%; serve-open's p50 spread 7% in quiet sets but 35-45% in
/// sets where neighbours slowed a third of the runs ~1.5x throughout, which
/// no statistic within a run can undo (even the fastest of each request's
/// ~16 answers in such a run was ~1.5x slower).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("model_answer_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.us_per_packet", "us"),
    ("ingest.us_per_flow", "us"),
    ("ingest.malformed_ratio", "ratio"),
    ("vocab.encode_us_per_req", "us"),
    ("encoder.us_per_req", "us"),
    ("encoder.gmacs_effective", "GMAC/s"),
    ("encoder.macs_per_req", "count"),
    ("stage.embed.us_per_req", "us"),
    ("stage.attention.us_per_req", "us"),
    ("stage.layernorm.us_per_req", "us"),
    ("stage.ffn.us_per_req", "us"),
    ("stage.gelu.us_per_req", "us"),
    ("stage.head.us_per_req", "us"),
    ("stage.unaccounted.us_per_req", "us"),
    ("kernel.matmul_peak_gmacs", "GMAC/s"),
    ("kernel.matmul_serving_gmacs", "GMAC/s"),
    ("kernel.matmul_train_gmacs", "GMAC/s"),
    ("tensor.arena.reuse_ratio", "ratio"),
    ("pool.dispatch_us", "us"),
    ("pool.calls_per_epoch", "count"),
    ("pool.calls_per_req", "count"),
    ("head.us_per_row", "us"),
    ("serve.submit_us", "us"),
    ("serve.settle_us_per_req", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.shed_ratio", "ratio"),
    ("serve.fallback_ratio", "ratio"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("fanout.encoder_rows_per_answer", "ratio"),
    ("fanout.settle_us_per_answer", "us"),
    ("fanout.setup_rss_mb", "MB"),
    ("cluster.probes_per_arrival", "ratio"),
    ("cluster.hedges", "count"),
    ("cluster.failovers", "count"),
    ("cluster.restarts", "count"),
    ("cluster.checkpoint_save_ms", "ms"),
    ("cluster.checkpoint_load_ms", "ms"),
    ("train.pretrain_step_ms", "ms"),
    ("train.finetune_step_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("req.sent", "count"),
    ("req.answered_model", "count"),
    ("req.answered_fallback", "count"),
    ("req.shed", "count"),
    ("host.nproc", "count"),
    ("host.pool_threads", "count"),
];

/// One measured value with how it was obtained.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    value: f64,
    detail: String,
}

/// Metrics collected by a run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    rows: Vec<Row>,
}

impl Report {
    /// Record `name`; `detail` says how (sample count, percentile, base).
    pub fn put(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        self.rows.retain(|r| r.name != name);
        self.rows.push(Row { name: name.to_string(), value, detail: detail.into() });
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// The human-readable table, one metric per line with unit and detail.
    pub fn table(&self) -> String {
        let unit = |name: &str| {
            let listed = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
            listed.map_or(if name.ends_with("_us") { "us" } else { "" }, |(_, u)| u)
        };
        let mut s = String::new();
        for r in &self.rows {
            s.push_str(&format!(
                "  {:<32} {:>14.4} {:<7} {}\n",
                r.name,
                r.value,
                unit(&r.name),
                r.detail
            ));
        }
        s
    }

    /// The result line: every metric of `names`, which must all be
    /// recorded and finite.
    pub fn json(
        &self,
        names: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let v = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_needs_every_metric() {
        let mut r = Report::default();
        r.put("setup_s", 0.5, "");
        assert!(r.json(&END_TO_END[..2], true, 1, 0).is_err());
        r.put("peak_rss_mb", 12.25, "");
        let line = r.json(&END_TO_END[..2], true, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 12.25, \"unit\": \
             \"MB\"}}}"
        );
        r.put("setup_s", f64::NAN, "");
        assert!(r.json(&END_TO_END[..1], true, 1, 0).is_err());
    }
}
