//! Pieces every serving workload shares: loading the prepared inputs, the
//! engine configuration, and the open-loop generator that drives a
//! [`ServeEngine`] from the calling thread.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use nfm_core::baselines::MajorityBaseline;
use nfm_core::pipeline::FmClassifier;
use nfm_core::serve::{
    assemble_requests, Fallback, Responder, ServeConfig, ServeEngine, ServeRequest,
};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::Trace;

use crate::ledger::counter;
use crate::prep::{read_pcap, MAX_TOKENS};
use crate::trace::Tracer;
use crate::util::ns_since;

/// Requests per packed micro-batch.
pub const MAX_BATCH: usize = 16;

/// The engine configuration of the single-engine and replica workloads.
pub fn serve_config() -> ServeConfig {
    ServeConfig { max_batch: MAX_BATCH, max_tokens: MAX_TOKENS, ..ServeConfig::default() }
}

/// The degradation tier: always the first class.
pub fn fallback(n_classes: usize) -> Fallback {
    Fallback::Majority(MajorityBaseline { class: 0, n_classes })
}

/// A prepared capture and the requests it assembles into.
pub struct Capture {
    /// The raw capture.
    pub trace: Trace,
    /// One request per flow with a non-empty context.
    pub requests: Vec<ServeRequest>,
}

/// Load `capture.pcap` from the input directory and assemble it.
pub fn load_capture(dir: &Path) -> Result<Capture, String> {
    let trace = read_pcap(&dir.join("capture.pcap"))?;
    let (requests, _) = assemble_requests(&trace, &FieldTokenizer::new(), MAX_TOKENS);
    if requests.is_empty() {
        return Err("capture assembles into no requests".into());
    }
    Ok(Capture { trace, requests })
}

/// Load the prepared classifier.
pub fn load_model(dir: &Path) -> Result<FmClassifier, String> {
    FmClassifier::load(&dir.join("model.nfmc")).map_err(|e| format!("load model: {e}"))
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per answered request: due time to the return of the drain that
    /// answered it, µs.
    pub latency_us: Vec<f64>,
    /// Per request sent: due time to its `submit` call, µs.
    pub queue_wait_us: Vec<f64>,
    /// Per request that fell due while the generator was idle: how late it
    /// was submitted, µs.
    pub late_us: Vec<f64>,
    /// Per `submit` call, µs.
    pub submit_us: Vec<f64>,
    /// Summed `drain_queue` time, ns.
    pub drain_ns: u64,
    /// Request indices (into the request list) of each micro-batch, in
    /// order: every drain split into chunks of [`MAX_BATCH`], as
    /// `drain_queue` splits it.
    pub batches: Vec<Vec<usize>>,
    /// Packed forwards and the requests they carried, from the
    /// `serve.batch.count` / `serve.batch.requests` counters (micro-batches
    /// of one request take the unpacked path and are not counted there).
    pub packed: (u64, u64),
    /// Thread-pool calls during the phase: `pool.par_map` (each spreads
    /// its tasks over the pool's threads) and `pool.par_chunks` (which runs
    /// inline when the data is one chunk).
    pub pool_calls: (u64, u64),
    /// Requests sent.
    pub sent: usize,
    /// Answered by the model.
    pub model: usize,
    /// Answered by the fallback.
    pub fallback: usize,
    /// Refused by admission control.
    pub shed: usize,
    /// Model answers whose class differs from the reference, plus admitted
    /// requests that got no answer or an answer for another flow.
    pub wrong: usize,
}

impl OpenLoop {
    /// Share of sent requests the model answered.
    pub fn model_ratio(&self) -> f64 {
        self.model as f64 / self.sent.max(1) as f64
    }

    /// Append a later phase's measurements to this one's.
    pub fn absorb(&mut self, o: OpenLoop) {
        self.latency_us.extend(o.latency_us);
        self.queue_wait_us.extend(o.queue_wait_us);
        self.late_us.extend(o.late_us);
        self.submit_us.extend(o.submit_us);
        self.drain_ns += o.drain_ns;
        self.batches.extend(o.batches);
        self.packed = (self.packed.0 + o.packed.0, self.packed.1 + o.packed.1);
        self.pool_calls = (self.pool_calls.0 + o.pool_calls.0, self.pool_calls.1 + o.pool_calls.1);
        self.sent += o.sent;
        self.model += o.model;
        self.fallback += o.fallback;
        self.shed += o.shed;
        self.wrong += o.wrong;
    }
}

/// Counters the serving phases take deltas of: packed forwards, requests
/// in them, `pool.par_map` calls and `pool.par_chunks` calls.
pub fn serve_counters() -> [u64; 4] {
    [
        counter("serve.batch.count"),
        counter("serve.batch.requests"),
        counter("pool.par_map.calls"),
        counter("pool.par_chunks.calls"),
    ]
}

/// Position of each request in `requests`, by flow id.
pub fn positions(requests: &[ServeRequest]) -> HashMap<usize, usize> {
    requests.iter().enumerate().map(|(j, r)| (r.flow, j)).collect()
}

/// Drive `engine` open loop: request `i` (cycling through `requests`) is
/// due at `due[i]` ns after the phase starts and is submitted as soon as
/// the calling thread is free; whenever requests are queued and none is due,
/// the queue is drained. `expected[j]` is the reference class of
/// `requests[j]`; each response is matched to its request by flow. Span
/// request ids start at `req_base`.
pub fn open_loop(
    engine: &mut ServeEngine,
    requests: &[ServeRequest],
    expected: &[usize],
    due: &[u64],
    tr: &mut Tracer,
    req_base: u64,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let position = positions(requests);
    let mut queued: Vec<usize> = Vec::with_capacity(MAX_BATCH * 4);
    let mut last_drain_end = 0u64;
    let c0 = serve_counters();
    let phase = tr.enter("phase.open_loop", 0);
    let t0 = Instant::now();
    let mut next = 0usize;
    while next < due.len() || !queued.is_empty() {
        if next < due.len() && queued.is_empty() {
            while ns_since(t0) < due[next] {
                std::hint::spin_loop();
            }
        }
        // Submit everything due.
        while next < due.len() && due[next] <= ns_since(t0) {
            let j = next % requests.len();
            let shed_before = engine.stats().shed;
            let s0 = ns_since(t0);
            out.queue_wait_us.push((s0 - due[next]) as f64 / 1e3);
            if due[next] >= last_drain_end {
                out.late_us.push((s0 - due[next]) as f64 / 1e3);
            }
            let sid = tr.enter("ServeEngine::submit", req_base + next as u64);
            engine.submit(requests[j].clone());
            tr.exit(sid);
            out.submit_us.push((ns_since(t0) - s0) as f64 / 1e3);
            out.sent += 1;
            if engine.stats().shed > shed_before {
                out.shed += 1;
            } else {
                queued.push(next);
            }
            next += 1;
        }
        if queued.is_empty() {
            continue;
        }
        let d0 = ns_since(t0);
        let did = tr.enter("ServeEngine::drain_queue", req_base + queued[0] as u64);
        let responses = engine.drain_queue();
        tr.exit(did);
        let d1 = ns_since(t0);
        last_drain_end = d1;
        out.drain_ns += d1 - d0;
        // Queued request ids by flow; each response claims its own.
        let mut waiting: HashMap<usize, usize> =
            queued.iter().map(|&i| (requests[i % requests.len()].flow, i)).collect();
        for r in &responses {
            let Some(i) = waiting.remove(&r.flow) else {
                out.wrong += 1;
                continue;
            };
            out.latency_us.push((d1 - due[i]) as f64 / 1e3);
            let t_base = tr.offset(t0);
            tr.record("request", t_base + due[i], t_base + d1, req_base + i as u64);
            match r.responder {
                Responder::Model => {
                    out.model += 1;
                    if r.class != expected[position[&r.flow]] {
                        out.wrong += 1;
                    }
                }
                Responder::Fallback => out.fallback += 1,
            }
        }
        out.wrong += waiting.len();
        for chunk in queued.chunks(MAX_BATCH) {
            out.batches.push(chunk.iter().map(|&i| i % requests.len()).collect());
        }
        queued.clear();
    }
    tr.exit(phase);
    let c1 = serve_counters();
    out.packed = (c1[0] - c0[0], c1[1] - c0[1]);
    out.pool_calls = (c1[2] - c0[2], c1[3] - c0[3]);
    out
}
