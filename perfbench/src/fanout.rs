//! The fan-out layer's replay: a K = 4 [`MultiTaskServer`] over heads of
//! the workload's served model, fed the workload's requests in closed-loop
//! bursts with a seeded task subset per request, and checked bitwise
//! against K standalone engines fed the same stream.

use std::time::Instant;

use nfm_core::pipeline::TaskHead;
use nfm_core::serve::{
    MultiTaskServer, Responder, Response, ServeConfig, ServeEngine, ServeRequest, TaskSet,
};
use nfm_traffic::faults::{burst_schedule, task_mask_schedule, FaultConfig};

use crate::ledger::Input;
use crate::prep::{MAX_TOKENS, N_TASKS};
use crate::serving::{fallback, MAX_BATCH};
use crate::util::{ns_since, rss_mb, sub_seed};
use crate::Ctx;

/// Share of requests that ask for every task; the rest draw a random
/// non-empty subset (~2.6 tasks per request on average).
const FULL_CHANCE: f64 = 0.6;

/// Lane configuration: a queue shallower than the largest burst, so burst
/// shedding exercises admission control.
fn fanout_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 16,
        shed_watermark: 12,
        max_batch: MAX_BATCH,
        max_tokens: MAX_TOKENS,
        ..ServeConfig::default()
    }
}

/// Seeded task masks and burst sizes for `n` requests.
pub struct Stream {
    /// Task subset of request `i`.
    pub masks: Vec<u64>,
    /// Arrivals per burst; sums to `n`.
    pub schedule: Vec<usize>,
}

impl Stream {
    /// The stream of `n` requests under `seed`.
    pub fn new(n: usize, seed: u64) -> Stream {
        let bursts = FaultConfig {
            burst_chance: 0.5,
            max_burst: 16,
            seed: sub_seed(seed, 21),
            ..FaultConfig::default()
        };
        Stream {
            masks: task_mask_schedule(n, N_TASKS, FULL_CHANCE, sub_seed(seed, 22)),
            schedule: burst_schedule(n, &bursts),
        }
    }
}

/// Tag requests with their task subsets.
pub fn with_masks(mut requests: Vec<ServeRequest>, masks: &[u64]) -> Vec<ServeRequest> {
    for (r, &m) in requests.iter_mut().zip(masks) {
        r.tasks = TaskSet::from_mask(m);
    }
    requests
}

/// A standalone engine fed task `k`'s share of the same stream on the same
/// burst boundaries — the reference the fan-out server must equal bitwise.
fn standalone(
    engine: &mut ServeEngine,
    k: usize,
    requests: &[ServeRequest],
    schedule: &[usize],
) -> Vec<Response> {
    let mut out = Vec::new();
    let mut pending = requests.iter();
    for &burst in schedule {
        for r in pending.by_ref().take(burst) {
            if r.tasks.contains(k) {
                engine.submit(r.clone());
            }
        }
        out.append(&mut engine.drain_queue());
    }
    out
}

/// Serve the workload's requests once through a K = 4 fan-out server and
/// report the fan-out layer's rows. `enc_us` is the encoder's µs per
/// request, which the settle row subtracts.
pub fn replay(ctx: &mut Ctx, inp: &Input, enc_us: f64) {
    let heads: Vec<TaskHead> =
        (0..N_TASKS).map(|k| TaskHead::from_classifier(inp.clf, &format!("task-{k}"))).collect();
    let tasks = heads.iter().map(|h| (h.clone(), fallback(h.n_classes))).collect();
    let rss0 = rss_mb();
    let mut server = MultiTaskServer::new(inp.clf.backbone(), tasks, fanout_config());
    let setup_rss_mb = rss_mb() - rss0;
    let stream = Stream::new(inp.requests.len(), sub_seed(ctx.seed, 41));
    let requests = with_masks(inp.requests.to_vec(), &stream.masks);
    let t = &mut ctx.tracer;
    let (mut drain_ns, mut answers) = (0u64, 0usize);
    let mut responses = vec![Vec::new(); N_TASKS];
    let mut pending = requests.iter().cloned();
    for &burst in &stream.schedule {
        for r in pending.by_ref().take(burst) {
            t.span("MultiTaskServer::submit", 0, || server.submit(r));
        }
        let t0 = Instant::now();
        let out = t.span("MultiTaskServer::drain", 0, || server.drain());
        drain_ns += ns_since(t0);
        for (k, rs) in out.into_iter().enumerate() {
            answers += rs.len();
            responses[k].extend(rs);
        }
    }

    let offered: usize = requests.iter().map(|r| r.tasks.count(N_TASKS)).sum();
    let model = responses.iter().flatten().filter(|r| r.responder == Responder::Model).count();
    ctx.accounting("fan-out replay", offered, model, answers - model, offered - answers);

    let mut identical = true;
    let backbone = inp.clf.backbone();
    for (k, head) in heads.iter().enumerate() {
        let mut solo =
            ServeEngine::new(backbone.attach(head), fallback(head.n_classes), fanout_config());
        let solo_rs = standalone(&mut solo, k, &requests, &stream.schedule);
        identical &= solo_rs == responses[k] && solo.stats() == server.task_stats()[k];
    }
    ctx.check(identical, "fan-out answers and stats equal K standalone engines bitwise");

    let s = server.stats();
    let rep = &mut ctx.report;
    let source = "replay, K=4 heads of the served model";
    rep.put(
        "fanout.encoder_rows_per_answer",
        s.encoder_rows as f64 / s.head_rows.max(1) as f64,
        format!("{source}; MultiTaskStats"),
    );
    rep.put(
        "fanout.settle_us_per_answer",
        (drain_ns as f64 / 1e3 - s.encoder_rows as f64 * enc_us) / answers.max(1) as f64,
        format!("{source}; drain time minus encoder rows x encoder.us_per_req, per answer"),
    );
    rep.put(
        "fanout.setup_rss_mb",
        setup_rss_mb,
        format!("{source}; RSS growth across MultiTaskServer::new"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded() {
        let a = Stream::new(500, 3);
        let b = Stream::new(500, 3);
        let c = Stream::new(500, 4);
        assert_eq!((&a.masks, &a.schedule), (&b.masks, &b.schedule));
        assert_ne!(a.masks, c.masks);
        assert_ne!(a.schedule, c.schedule);
        assert_eq!(a.schedule.iter().sum::<usize>(), 500);
        assert!(a.masks.iter().all(|&m| m != 0 && m < 1 << N_TASKS));
        assert!(a.schedule.iter().all(|b| (1..=16).contains(b)));
    }
}
