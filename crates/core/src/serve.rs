//! Robust streaming inference: the serving half of the paper's operational
//! story (§4.3). Training fault tolerance (E14) keeps the model *producible*;
//! this module keeps it *answerable* when live traffic is messy — malformed
//! packets, bursts, and partial model failures.
//!
//! [`ServeEngine`] pulls [`TracePacket`]s from a capture source, assembles
//! bidirectional flows, and classifies each flow with a fine-tuned
//! [`FmClassifier`] under three explicit robustness controls:
//!
//! 1. **Bounded admission queue with deterministic load shedding** — above a
//!    watermark, arrivals are shed with a probability that rises with queue
//!    occupancy, decided by a seeded RNG; at capacity they are shed
//!    outright. The same seed and arrival order reproduce the same shed
//!    decisions bit for bit.
//! 2. **Per-request deadline budgets** — deadlines are metered in the
//!    deterministic cost units of
//!    [`Encoder::plan_inference_cost`](nfm_model::nn::transformer::Encoder::plan_inference_cost)
//!    (a multiply-accumulate proxy for wall time), so a request that misses
//!    its deadline misses it identically on every run.
//! 3. **Circuit breaker with graceful degradation** — after K consecutive
//!    failed requests the breaker opens and traffic is answered by the
//!    [`Fallback`] baseline (GRU or class-prior heuristic from
//!    [`crate::baselines`]) instead of being dropped; after a cooldown the
//!    breaker half-opens and probes the model, closing again once probes
//!    succeed.
//!
//! The model is deterministic, so a request whose logits come back
//! non-finite is not retried: a retry would recompute the same logits.
//! Transient faults are an I/O matter, and [`RetryPolicy`] with exponential
//! backoff drives [`load_model_with_retry`] and
//! [`load_classifier_with_retry`] for checkpoint loads.
//!
//! Every admitted request gets a response — from the model or the fallback —
//! and nothing in this module panics on hostile input.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::path::Path;

use nfm_model::context::flow_context;
use nfm_model::nn::transformer::InferError;
use nfm_model::tokenize::Tokenizer;
use nfm_net::capture::{Trace, TracePacket};
use nfm_net::flow::FlowTable;
use nfm_tensor::checkpoint::CheckpointError;
use nfm_tensor::scratch::ScratchArena;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::baselines::{GruBaseline, MajorityBaseline};
use crate::ood::DriftMonitor;
use crate::pipeline::{
    argmax_nan_tolerant, CostedLogits, FmBackbone, FmClassifier, FoundationModel, TaskHead,
    TextExample,
};

/// Histogram bucket edges for micro-batch sizes (`serve.batch.size`).
const BATCH_SIZE_EDGES: &[u64] = &[1, 2, 4, 8, 16, 32, 64];
/// Buckets for per-request drift scores (milli-units: confidence part spans
/// 0..=1000, distance part 0..=4000).
const DRIFT_EDGES: &[u64] = &[250, 500, 1_000, 1_500, 2_000, 3_000, 4_000, 5_000];

/// Errors surfaced by the serving engine instead of panics.
#[derive(Debug)]
pub enum ServeError {
    /// A model checkpoint could not be loaded even after retries.
    ModelLoad {
        /// Load attempts made (initial try plus retries).
        attempts: usize,
        /// The final load failure.
        source: CheckpointError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ModelLoad { attempts, source } => {
                write!(f, "model load failed after {attempts} attempt(s): {source}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::ModelLoad { source, .. } => Some(source),
        }
    }
}

/// Bounded-retry policy with exponential backoff, metered in the same
/// deterministic cost units as inference deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: usize,
    /// Backoff charged before the first retry.
    pub backoff_base: u64,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_factor: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, backoff_base: 1024, backoff_factor: 2 }
    }
}

impl RetryPolicy {
    /// Backoff cost charged before retry number `retry` (0-based):
    /// `backoff_base * backoff_factor^retry`, saturating.
    pub fn backoff_cost(&self, retry: usize) -> u64 {
        let mut cost = self.backoff_base;
        for _ in 0..retry {
            cost = cost.saturating_mul(self.backoff_factor);
        }
        cost
    }
}

/// What [`retry_with_backoff`] did: attempts made and total backoff charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryLog {
    /// Attempts made (1 = first try succeeded).
    pub attempts: usize,
    /// Total backoff cost accumulated across retries.
    pub backoff_cost: u64,
}

/// Run `op` until it succeeds or the policy's retries are exhausted,
/// charging exponential backoff between attempts. `op` receives the
/// 0-based attempt number. Returns the final result plus a [`RetryLog`];
/// deterministic (the "backoff" is cost accounting, not wall-clock sleep),
/// so retry behavior is reproducible in tests and chaos sweeps.
pub fn retry_with_backoff<T, E>(
    policy: &RetryPolicy,
    mut op: impl FnMut(usize) -> Result<T, E>,
) -> (Result<T, E>, RetryLog) {
    let mut log = RetryLog::default();
    loop {
        let attempt = log.attempts;
        log.attempts += 1;
        match op(attempt) {
            Ok(v) => return (Ok(v), log),
            Err(e) => {
                if attempt >= policy.max_retries {
                    return (Err(e), log);
                }
                log.backoff_cost = log.backoff_cost.saturating_add(policy.backoff_cost(attempt));
            }
        }
    }
}

/// Load a [`FoundationModel`] checkpoint, retrying transient faults (partial
/// writes, racing replacements) under `policy`. A fault that persists
/// through every retry becomes a typed [`ServeError::ModelLoad`].
pub fn load_model_with_retry(
    path: &Path,
    policy: &RetryPolicy,
) -> Result<(FoundationModel, RetryLog), ServeError> {
    let (result, log) = retry_with_backoff(policy, |_| FoundationModel::load(path));
    match result {
        Ok(model) => Ok((model, log)),
        Err(source) => Err(ServeError::ModelLoad { attempts: log.attempts, source }),
    }
}

/// Load a fine-tuned [`FmClassifier`] checkpoint, retrying transient faults
/// under `policy` — the warm-restart path for cluster replicas. A fault that
/// persists through every retry (e.g. a CRC mismatch from a corrupted file)
/// becomes a typed [`ServeError::ModelLoad`].
pub fn load_classifier_with_retry(
    path: &Path,
    policy: &RetryPolicy,
) -> Result<(FmClassifier, RetryLog), ServeError> {
    let (result, log) = retry_with_backoff(policy, |_| FmClassifier::load(path));
    match result {
        Ok(clf) => Ok((clf, log)),
        Err(source) => Err(ServeError::ModelLoad { attempts: log.attempts, source }),
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed requests that trip the breaker open.
    pub failure_threshold: usize,
    /// Requests answered by the fallback while open before half-opening.
    pub cooldown: usize,
    /// Consecutive successful half-open probes required to close again.
    pub probes_to_close: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, cooldown: 8, probes_to_close: 2 }
    }
}

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests go to the model.
    Closed,
    /// Tripped: requests go straight to the fallback until the cooldown
    /// elapses.
    Open,
    /// Probing: requests go to the model; failures re-open, sustained
    /// success closes.
    HalfOpen,
}

/// A consecutive-failure circuit breaker with half-open recovery probes.
/// Pure state machine — no clocks, no randomness — so its transitions are
/// exactly reproducible.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    /// Thresholds.
    pub config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: usize,
    cooldown_left: usize,
    probe_successes: usize,
    /// Times the breaker transitioned to [`BreakerState::Open`].
    pub trips: usize,
    /// Times a half-open probe run closed the breaker again.
    pub recoveries: usize,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            probe_successes: 0,
            trips: 0,
            recoveries: 0,
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Ask to send one request to the model. `false` means the caller must
    /// answer with the fallback. While open, each denied request counts
    /// down the cooldown; when it elapses the breaker half-opens and admits
    /// the next request as a probe.
    pub fn try_acquire(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.cooldown_left > 1 {
                    self.cooldown_left -= 1;
                    false
                } else {
                    self.state = BreakerState::HalfOpen;
                    self.probe_successes = 0;
                    nfm_obs::event(
                        "serve.breaker.transition",
                        &[("to", nfm_obs::Value::S("half_open"))],
                    );
                    true
                }
            }
        }
    }

    /// Report that a model-answered request succeeded.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.config.probes_to_close {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.recoveries += 1;
                    nfm_obs::counter!("serve.breaker.recoveries").inc();
                    nfm_obs::event(
                        "serve.breaker.transition",
                        &[
                            ("to", nfm_obs::Value::S("closed")),
                            ("recoveries", nfm_obs::Value::U(self.recoveries as u64)),
                        ],
                    );
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Report that a model-answered request failed.
    pub fn on_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.cooldown_left = self.config.cooldown.max(1);
        self.consecutive_failures = 0;
        self.probe_successes = 0;
        self.trips += 1;
        nfm_obs::counter!("serve.breaker.trips").inc();
        nfm_obs::event(
            "serve.breaker.transition",
            &[("to", nfm_obs::Value::S("open")), ("trips", nfm_obs::Value::U(self.trips as u64))],
        );
    }
}

/// The graceful-degradation tier that answers when the model cannot: the
/// GRU flow baseline or the O(1) class-prior heuristic, both from
/// [`crate::baselines`]. Fallback prediction never fails.
pub enum Fallback {
    /// GRU classifier trained on labeled flows (boxed: a trained GRU is
    /// orders of magnitude larger than the majority prior).
    Gru(Box<GruBaseline>),
    /// Majority-class prior — the cheapest possible responder.
    Majority(MajorityBaseline),
}

impl Fallback {
    /// Answer a request from its flow tokens.
    pub fn predict(&self, tokens: &[String]) -> usize {
        match self {
            Fallback::Gru(m) => m.predict(tokens),
            Fallback::Majority(m) => m.predict(),
        }
    }

    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Fallback::Gru(_) => "gru",
            Fallback::Majority(_) => "majority",
        }
    }
}

/// Serving-engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Hard cap on queued requests; arrivals beyond it are always shed.
    pub queue_capacity: usize,
    /// Occupancy at which probabilistic shedding begins (≥ capacity
    /// disables the probabilistic band, leaving pure tail drop).
    pub shed_watermark: usize,
    /// Per-request deadline, in deterministic inference-cost units.
    pub deadline_budget: u64,
    /// Token cap per flow context.
    pub max_tokens: usize,
    /// Seed for the shed decision RNG.
    pub seed: u64,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Requests per micro-batch when draining the queue (≤ 1 runs one
    /// packed forward per request).
    pub max_batch: usize,
    /// Cap on the summed planned inference cost of one micro-batch, in the
    /// same deterministic units as `deadline_budget`. A batch always takes
    /// at least one request, so a tiny cap degrades to unbatched serving
    /// rather than stalling.
    pub batch_cost_budget: u64,
    /// Capacity of the drift quarantine buffer (and of the recent-answer
    /// window scored by ground-truth feedback). 0 disables capture.
    pub quarantine_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 32,
            shed_watermark: 24,
            deadline_budget: u64::MAX,
            max_tokens: 64,
            seed: 17,
            breaker: BreakerConfig::default(),
            max_batch: 1,
            batch_cost_budget: u64::MAX,
            quarantine_capacity: 256,
        }
    }
}

/// Who produced a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Responder {
    /// The foundation-model classifier.
    Model,
    /// The degradation baseline.
    Fallback,
}

/// One answered request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Flow index within the serve call's assembly order.
    pub flow: usize,
    /// Predicted class id.
    pub class: usize,
    /// Who answered.
    pub responder: Responder,
    /// Deadline-budget cost units spent on inference.
    pub cost: u64,
    /// True when the model path was abandoned for running out of budget.
    pub deadline_missed: bool,
}

/// Availability accounting for the serve path. All counters are integers,
/// so two runs with the same seed agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that reached admission control.
    pub arrived: usize,
    /// Requests admitted to the queue.
    pub admitted: usize,
    /// Requests shed by admission control (watermark or capacity).
    pub shed: usize,
    /// Admitted requests answered by the model.
    pub answered_model: usize,
    /// Admitted requests answered by the fallback baseline.
    pub answered_fallback: usize,
    /// Requests whose model path ran out of deadline budget.
    pub deadline_misses: usize,
    /// Model answers that came back with non-finite logits.
    pub model_failures: usize,
    /// Circuit-breaker trips (to open).
    pub breaker_trips: usize,
    /// Circuit-breaker recoveries (half-open probes closing it).
    pub breaker_recoveries: usize,
    /// Capture packets that failed to parse during ingest.
    pub malformed_packets: usize,
    /// Flows assembled from parseable packets.
    pub flows_assembled: usize,
    /// Flows dropped because no packet produced any tokens.
    pub empty_contexts: usize,
    /// Deepest queue occupancy observed after an admission.
    pub queue_peak: usize,
    /// Times the drift detector newly tripped (score or feedback signal).
    pub drift_trips: usize,
    /// Examples captured into the quarantine buffer (cumulative offers,
    /// including feedback-driven recaptures; the buffer itself is bounded).
    pub quarantined: usize,
}

impl ServeStats {
    /// Answered requests (model plus fallback).
    pub fn answered(&self) -> usize {
        self.answered_model + self.answered_fallback
    }

    /// Fraction of arrivals that received an answer (1.0 when nothing
    /// arrived).
    pub fn availability(&self) -> f64 {
        if self.arrived == 0 {
            1.0
        } else {
            self.answered() as f64 / self.arrived as f64
        }
    }

    /// Fraction of arrivals shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrived as f64
        }
    }
}

/// The set of task lanes a request fans out to, as a bitmask (bit `k` =
/// task `k`; up to 64 lanes). Single-task engines ignore it; a
/// [`MultiTaskServer`] runs the shared encoder once and answers exactly
/// the selected tasks. Defaults to every task, so single-task callers
/// never have to think about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSet(u64);

impl TaskSet {
    /// Every task lane.
    pub const ALL: TaskSet = TaskSet(u64::MAX);

    /// The single task `k` (clamped to the 64 supported lanes).
    pub fn only(k: usize) -> TaskSet {
        TaskSet(1u64 << k.min(63))
    }

    /// A set from a raw bitmask (bit `k` = task `k`), e.g. one entry of
    /// [`nfm_traffic::faults::task_mask_schedule`]. An empty mask is kept
    /// as-is: the request fans out to no lane and produces no response.
    pub fn from_mask(mask: u64) -> TaskSet {
        TaskSet(mask)
    }

    /// The raw bitmask.
    pub fn mask(&self) -> u64 {
        self.0
    }

    /// Whether task `k` is selected.
    pub fn contains(&self, k: usize) -> bool {
        k < 64 && self.0 & (1u64 << k) != 0
    }

    /// Selected tasks among the first `n_tasks` lanes.
    pub fn count(&self, n_tasks: usize) -> usize {
        (0..n_tasks.min(64)).filter(|&k| self.contains(k)).count()
    }
}

impl Default for TaskSet {
    fn default() -> Self {
        TaskSet::ALL
    }
}

/// One classifiable unit of work: a flow and its token context. Built by
/// [`assemble_requests`], routed by a cluster supervisor, and offered to an
/// engine via [`ServeEngine::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Flow index within its capture's assembly order.
    pub flow: usize,
    /// Token context for the flow.
    pub tokens: Vec<String>,
    /// Task lanes this request fans out to (multi-task serving only).
    pub tasks: TaskSet,
}

/// Ingest accounting from [`assemble_requests`]. All-integer, so two runs
/// over the same capture agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Capture packets that failed to parse.
    pub malformed_packets: usize,
    /// Flows assembled from parseable packets.
    pub flows_assembled: usize,
    /// Flows dropped because no packet produced any tokens.
    pub empty_contexts: usize,
}

/// Assemble flows from a capture and build one request per flow with a
/// non-empty token context. Unparseable packets are counted and skipped —
/// never a panic — which is exactly the corrupted/truncated regime the chaos
/// harnesses drive. Factored out of [`ServeEngine`] so a cluster supervisor
/// can assemble a capture once and route each request to a replica.
pub fn assemble_requests(
    trace: &Trace,
    tokenizer: &dyn Tokenizer,
    max_tokens: usize,
) -> (Vec<ServeRequest>, IngestStats) {
    let mut stats = IngestStats::default();
    let mut table = FlowTable::new();
    for (i, tp) in trace.packets().iter().enumerate() {
        match tp.parse() {
            Ok(parsed) => table.push(i, tp.ts_us, &parsed),
            Err(_) => {
                stats.malformed_packets += 1;
                nfm_obs::counter!("serve.malformed_packets").inc();
            }
        }
    }
    stats.flows_assembled = table.len();
    nfm_obs::counter!("serve.flows_assembled").add(table.len() as u64);
    let mut requests = Vec::with_capacity(table.len());
    for (flow_idx, flow) in table.flows().iter().enumerate() {
        let packets: Vec<TracePacket> =
            flow.packets.iter().map(|fp| trace.packets()[fp.index].clone()).collect();
        let tokens = flow_context(&packets, tokenizer, max_tokens);
        if tokens.is_empty() {
            stats.empty_contexts += 1;
            nfm_obs::counter!("serve.empty_contexts").inc();
            continue;
        }
        requests.push(ServeRequest { flow: flow_idx, tokens, tasks: TaskSet::ALL });
    }
    (requests, stats)
}

/// A bounded capture buffer for drifted traffic: examples the drift monitor
/// flags are held here (with the model's own predictions as heuristic
/// labels until ground-truth feedback relabels them) to seed background
/// adaptation. Eviction is uniform reservoir sampling (Algorithm R) under a
/// seeded RNG, so the retained set over any offer stream is reproducible
/// and no traffic era can monopolize the buffer.
#[derive(Debug, Clone)]
pub struct QuarantineBuffer {
    capacity: usize,
    items: Vec<TextExample>,
    rng: StdRng,
    offered: u64,
    evicted: u64,
}

impl QuarantineBuffer {
    /// New buffer; a capacity of 0 disables capture entirely.
    pub fn new(capacity: usize, seed: u64) -> QuarantineBuffer {
        QuarantineBuffer {
            capacity,
            items: Vec::with_capacity(capacity.min(1024)),
            rng: StdRng::seed_from_u64(seed ^ 0x0D_u64.rotate_left(48)),
            offered: 0,
            evicted: 0,
        }
    }

    /// Offer one example. While below capacity it is always kept; past
    /// capacity it replaces a uniformly drawn resident with probability
    /// `capacity / offered` (reservoir sampling), so every offer in the
    /// stream is retained with equal probability.
    pub fn offer(&mut self, example: TextExample) {
        self.offered += 1;
        if self.items.len() < self.capacity {
            self.items.push(example);
            return;
        }
        self.evicted += 1;
        if self.capacity == 0 {
            return;
        }
        let slot = self.rng.gen_range(0..self.offered);
        if (slot as usize) < self.capacity {
            self.items[slot as usize] = example;
        }
    }

    /// Take every captured example, leaving the buffer empty and starting a
    /// fresh reservoir epoch (the offer counter restarts so post-drain
    /// traffic is sampled uniformly among itself).
    pub fn drain(&mut self) -> Vec<TextExample> {
        self.offered = 0;
        std::mem::take(&mut self.items)
    }

    /// Captured examples, oldest slot first.
    pub fn items(&self) -> &[TextExample] {
        &self.items
    }

    /// Mutable captured examples — the feedback path relabels in place.
    pub fn items_mut(&mut self) -> &mut [TextExample] {
        &mut self.items
    }

    /// Currently held examples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Examples offered since the last drain.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Offers that displaced (or failed to displace) a resident — i.e.
    /// offers arriving while the buffer was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// The synchronous streaming inference engine. See the module docs for the
/// robustness controls; see [`ServeEngine::serve_trace`] for the lifecycle.
pub struct ServeEngine {
    clf: FmClassifier,
    fallback: Fallback,
    config: ServeConfig,
    breaker: CircuitBreaker,
    shed_rng: StdRng,
    stats: ServeStats,
    queue: VecDeque<ServeRequest>,
    arena: ScratchArena,
    drift: Option<DriftMonitor>,
    quarantine: QuarantineBuffer,
    /// Recent model-answered requests (label = the model's prediction)
    /// awaiting ground-truth feedback; bounded by `quarantine_capacity`.
    recent: VecDeque<TextExample>,
}

impl ServeEngine {
    /// Build an engine around a fine-tuned classifier and a fallback tier.
    /// A zero queue capacity is promoted to 1 (a queue that admits nothing
    /// cannot serve anything).
    pub fn new(clf: FmClassifier, fallback: Fallback, config: ServeConfig) -> ServeEngine {
        let mut config = config;
        config.queue_capacity = config.queue_capacity.max(1);
        ServeEngine {
            breaker: CircuitBreaker::new(config.breaker),
            shed_rng: StdRng::seed_from_u64(config.seed ^ 0x5E_u64.rotate_left(40)),
            stats: ServeStats::default(),
            queue: VecDeque::with_capacity(config.queue_capacity),
            arena: ScratchArena::new(),
            drift: None,
            quarantine: QuarantineBuffer::new(config.quarantine_capacity, config.seed),
            recent: VecDeque::new(),
            clf,
            fallback,
            config,
        }
    }

    /// Cumulative statistics (breaker counters folded in).
    pub fn stats(&self) -> ServeStats {
        let mut s = self.stats;
        s.breaker_trips = self.breaker.trips;
        s.breaker_recoveries = self.breaker.recoveries;
        s
    }

    /// The circuit breaker (for inspection).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Mutable access to the served model — the hot-swap/chaos hook. An
    /// operator (or a chaos harness) can poison or replace weights between
    /// [`ServeEngine::serve_trace`] calls; the breaker and fallback decide
    /// what traffic notices.
    pub fn model_mut(&mut self) -> &mut FmClassifier {
        &mut self.clf
    }

    /// The served model.
    pub fn model(&self) -> &FmClassifier {
        &self.clf
    }

    /// Swap in a replacement model — the warm-restart path. The breaker is
    /// re-armed (the old model's failure streak says nothing about the new
    /// weights) but its cumulative trip/recovery counters are preserved so
    /// [`ServeEngine::stats`] stays monotonic across restarts.
    pub fn replace_model(&mut self, clf: FmClassifier) {
        self.clf = clf;
        let (trips, recoveries) = (self.breaker.trips, self.breaker.recoveries);
        self.breaker = CircuitBreaker::new(self.config.breaker);
        self.breaker.trips = trips;
        self.breaker.recoveries = recoveries;
    }

    /// Arm (or replace) the streaming drift monitor: every model-answered
    /// request is scored, suspicious traffic is quarantined, and trips are
    /// surfaced via [`ServeStats::drift_trips`] and `drift.*` telemetry.
    pub fn enable_drift(&mut self, monitor: DriftMonitor) {
        self.drift = Some(monitor);
    }

    /// The drift monitor, if armed.
    pub fn drift_monitor(&self) -> Option<&DriftMonitor> {
        self.drift.as_ref()
    }

    /// Mutable drift monitor — the adaptation layer re-arms tests here.
    pub fn drift_monitor_mut(&mut self) -> Option<&mut DriftMonitor> {
        self.drift.as_mut()
    }

    /// The quarantine buffer of drift-flagged traffic.
    pub fn quarantine(&self) -> &QuarantineBuffer {
        &self.quarantine
    }

    /// Mutable quarantine buffer — the adaptation layer drains it for
    /// fine-tuning.
    pub fn quarantine_mut(&mut self) -> &mut QuarantineBuffer {
        &mut self.quarantine
    }

    /// Apply delayed ground-truth labels. `truth` maps a token context to
    /// its true class when the oracle knows it. Quarantined examples are
    /// relabeled in place; every recent model answer with known truth feeds
    /// the label-drift (feedback error) test, and misclassified answers are
    /// captured into quarantine under their true label. Returns how many
    /// times the detector newly tripped.
    pub fn record_feedback(&mut self, truth: &dyn Fn(&[String]) -> Option<usize>) -> usize {
        if self.drift.is_none() {
            self.recent.clear();
            return 0;
        }
        for ex in self.quarantine.items_mut() {
            if let Some(t) = truth(&ex.tokens) {
                ex.label = t;
            }
        }
        let mut trips = 0usize;
        while let Some(ex) = self.recent.pop_front() {
            let Some(t) = truth(&ex.tokens) else { continue };
            let correct = t == ex.label;
            nfm_obs::counter!("drift.feedback").inc();
            let newly =
                self.drift.as_mut().map(|mon| mon.observe_feedback(correct)).unwrap_or(false);
            if !correct {
                nfm_obs::counter!("drift.feedback_errors").inc();
                self.stats.quarantined += 1;
                nfm_obs::counter!("drift.quarantined").inc();
                self.quarantine.offer(TextExample { tokens: ex.tokens, label: t });
            }
            if newly {
                trips += 1;
                self.stats.drift_trips += 1;
                nfm_obs::counter!("drift.trips").inc();
                let level = self.drift.as_ref().map(|m| m.level_milli()).unwrap_or(0);
                nfm_obs::event(
                    "drift.trip",
                    &[
                        ("signal", nfm_obs::Value::S("feedback")),
                        ("level_milli", nfm_obs::Value::U(level.max(0) as u64)),
                    ],
                );
            }
        }
        trips
    }

    /// Current per-request deadline budget, in deterministic cost units.
    pub fn deadline_budget(&self) -> u64 {
        self.config.deadline_budget
    }

    /// Replace the per-request deadline budget. The cluster layer models a
    /// stalled replica by shrinking its budget: every cost unit takes
    /// `factor`× as long on a slow box, so the wall-clock deadline buys
    /// `1/factor` of the compute.
    pub fn set_deadline_budget(&mut self, budget: u64) {
        self.config.deadline_budget = budget;
    }

    /// Offer one pre-assembled request to admission control — the cluster
    /// routing entry point. Drain answered work with
    /// [`ServeEngine::drain_queue`].
    pub fn submit(&mut self, request: ServeRequest) {
        self.offer(request);
    }

    /// Answer one request immediately, bypassing the admission queue (and
    /// its shedding) entirely — the cluster layer's hedge path. Requests
    /// already queued on this engine are untouched, and the returned
    /// response always belongs to `request`'s flow.
    pub fn serve_one(&mut self, request: ServeRequest) -> Response {
        self.answer(request, None)
    }

    /// Answer every queued request, in admission order. The queue drains
    /// in micro-batches of up to `max_batch` requests: each batch's token
    /// sequences run through the model as one packed forward pass
    /// ([`FmClassifier::logits_batch_within`]) with scratch buffers reused
    /// across batches, and every request is then settled individually
    /// against the breaker/deadline state machine. Responses and
    /// statistics are bitwise identical to serving the same requests one
    /// at a time via [`ServeEngine::serve_one`].
    pub fn drain_queue(&mut self) -> Vec<Response> {
        let mut responses = Vec::with_capacity(self.queue.len());
        while !self.queue.is_empty() {
            let batch = self.next_batch();
            let precomputed = self.run_batch(&batch);
            for (req, pre) in batch.into_iter().zip(precomputed) {
                responses.push(self.answer(req, pre));
            }
        }
        responses
    }

    /// Pop the next micro-batch off the queue: up to `max_batch` requests
    /// whose summed planned inference cost (the same deterministic units
    /// as `deadline_budget`) stays within `batch_cost_budget`. The first
    /// request of a batch is always taken, so an over-budget single
    /// request is served alone rather than wedging the queue.
    fn next_batch(&mut self) -> Vec<ServeRequest> {
        let mut batch = Vec::new();
        let mut planned = 0u64;
        while batch.len() < self.config.max_batch.max(1) {
            let Some(front) = self.queue.front() else { break };
            let cost = self.clf.inference_cost(front.tokens.len());
            if !batch.is_empty() && planned.saturating_add(cost) > self.config.batch_cost_budget {
                break;
            }
            planned = planned.saturating_add(cost);
            batch.push(self.queue.pop_front().expect("front() was Some"));
        }
        batch
    }

    /// Run one micro-batch through the packed forward pass, returning the
    /// per-request model outcome to settle inside [`ServeEngine::answer`].
    /// While the breaker is open most requests will be denied before ever
    /// touching the model, so the batch is not computed: every entry is
    /// `None`, and the half-open probe computes lazily and identically.
    /// The `serve.batch.*` counters count packed forwards of two or more
    /// requests.
    fn run_batch(&mut self, batch: &[ServeRequest]) -> Vec<Option<CostedLogits>> {
        if self.breaker.state() == BreakerState::Open {
            return batch.iter().map(|_| None).collect();
        }
        let tokens: Vec<&[String]> = batch.iter().map(|r| r.tokens.as_slice()).collect();
        let budget = self.config.deadline_budget;
        let results = self.clf.logits_batch_within(&tokens, budget, &mut self.arena);
        if batch.len() > 1 {
            nfm_obs::counter!("serve.batch.count").inc();
            nfm_obs::counter!("serve.batch.requests").add(batch.len() as u64);
            nfm_obs::histogram!("serve.batch.size", nfm_obs::Unit::Count, BATCH_SIZE_EDGES)
                .observe(batch.len() as u64);
        }
        results.into_iter().map(Some).collect()
    }

    /// Assemble `trace` into requests via [`assemble_requests`], folding the
    /// ingest accounting into this engine's statistics.
    fn ingest(&mut self, trace: &Trace, tokenizer: &dyn Tokenizer) -> Vec<ServeRequest> {
        let (requests, ingest) = assemble_requests(trace, tokenizer, self.config.max_tokens);
        self.stats.malformed_packets += ingest.malformed_packets;
        self.stats.flows_assembled += ingest.flows_assembled;
        self.stats.empty_contexts += ingest.empty_contexts;
        requests
    }

    /// Admission control for one arrival. Below the watermark the request
    /// is admitted; between watermark and capacity it is shed with a
    /// probability that rises linearly with occupancy (seeded RNG, so the
    /// decision sequence is reproducible); at capacity it is always shed.
    fn offer(&mut self, request: ServeRequest) {
        self.stats.arrived += 1;
        let occupancy = self.queue.len();
        let capacity = self.config.queue_capacity;
        let watermark = self.config.shed_watermark.min(capacity);
        let shed = if occupancy >= capacity {
            true
        } else if occupancy >= watermark {
            let band = (capacity - watermark + 1) as f64;
            let depth = (occupancy - watermark + 1) as f64;
            self.shed_rng.gen_bool(depth / band)
        } else {
            false
        };
        nfm_obs::counter!("serve.arrived").inc();
        if shed {
            self.stats.shed += 1;
            nfm_obs::counter!("serve.shed").inc();
        } else {
            self.stats.admitted += 1;
            self.queue.push_back(request);
            self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len());
            nfm_obs::counter!("serve.admitted").inc();
        }
        nfm_obs::gauge!("serve.queue.depth").set(self.queue.len() as f64);
    }

    /// Score one model answer against the drift monitor (when armed):
    /// quarantine suspicious traffic, remember the answer for delayed
    /// feedback, and surface trips. The monitor's embedding forward pass is
    /// monitoring overhead — it is not charged against the request's
    /// deadline budget, which covers only the serving-path inference.
    fn score_drift(&mut self, request: &ServeRequest, class: usize, logits: &[f32]) {
        let Some(mon) = self.drift.as_mut() else { return };
        let obs = mon.observe(&self.clf, &request.tokens, logits);
        nfm_obs::counter!("drift.scored").inc();
        nfm_obs::histogram!("drift.score_milli", nfm_obs::Unit::Milli, DRIFT_EDGES)
            .observe(obs.score_milli.max(0) as u64);
        nfm_obs::gauge!("drift.level_milli").set(mon.level_milli() as f64);
        if obs.tripped_now {
            self.stats.drift_trips += 1;
            nfm_obs::counter!("drift.trips").inc();
            nfm_obs::event(
                "drift.trip",
                &[
                    ("signal", nfm_obs::Value::S("score")),
                    ("observed", nfm_obs::Value::U(mon.observed())),
                    ("level_milli", nfm_obs::Value::U(mon.level_milli().max(0) as u64)),
                ],
            );
        }
        if obs.quarantine {
            self.stats.quarantined += 1;
            nfm_obs::counter!("drift.quarantined").inc();
            self.quarantine.offer(TextExample { tokens: request.tokens.clone(), label: class });
        }
        if self.config.quarantine_capacity > 0 {
            self.recent.push_back(TextExample { tokens: request.tokens.clone(), label: class });
            while self.recent.len() > self.config.quarantine_capacity {
                self.recent.pop_front();
            }
        }
    }

    /// Answer one admitted request: the model if the breaker admits it and
    /// the request fits its deadline budget, the fallback otherwise.
    /// Always returns a response.
    ///
    /// `pre` is the request's model outcome from a packed forward at the
    /// full `deadline_budget`. The model is deterministic, so that one
    /// outcome is the request's only possible outcome: finite logits are a
    /// model answer, non-finite logits a model failure charged to the
    /// breaker, and a refusal a deadline miss (load, not model health) or
    /// an empty input. With `pre = None` the model is invoked lazily — and
    /// only if the breaker admits the request.
    fn answer(&mut self, request: ServeRequest, pre: Option<CostedLogits>) -> Response {
        let mut cost = 0u64;
        let mut deadline_missed = false;
        if self.breaker.try_acquire() {
            let budget = self.config.deadline_budget;
            let outcome = pre.unwrap_or_else(|| self.clf.logits_within(&request.tokens, budget));
            match outcome {
                Ok((logits, spent)) if logits.iter().all(|v| v.is_finite()) => {
                    self.breaker.on_success();
                    self.stats.answered_model += 1;
                    nfm_obs::counter!("serve.answered_model").inc();
                    nfm_obs::histogram!(
                        "serve.request.cost",
                        nfm_obs::Unit::Cost,
                        nfm_obs::COST_EDGES
                    )
                    .observe(spent);
                    let class = argmax_nan_tolerant(&logits);
                    self.score_drift(&request, class, &logits);
                    return Response {
                        flow: request.flow,
                        class,
                        responder: Responder::Model,
                        cost: spent,
                        deadline_missed: false,
                    };
                }
                Ok((_, spent)) => {
                    // Non-finite logits: the model itself is unhealthy
                    // (e.g. NaN-poisoned weights).
                    cost = spent;
                    self.stats.model_failures += 1;
                    nfm_obs::counter!("serve.model_failures").inc();
                    self.breaker.on_failure();
                }
                Err(InferError::DeadlineExceeded { .. }) => {
                    // A deadline miss is load, not model health: the
                    // fallback answers but the breaker is not charged.
                    deadline_missed = true;
                    self.stats.deadline_misses += 1;
                    nfm_obs::counter!("serve.deadline_misses").inc();
                }
                Err(InferError::EmptyInput) => {}
            }
        }
        self.stats.answered_fallback += 1;
        nfm_obs::counter!("serve.answered_fallback").inc();
        nfm_obs::histogram!("serve.request.cost", nfm_obs::Unit::Cost, nfm_obs::COST_EDGES)
            .observe(cost);
        Response {
            flow: request.flow,
            class: self.fallback.predict(&request.tokens),
            responder: Responder::Fallback,
            cost,
            deadline_missed,
        }
    }

    /// Serve every flow in `trace`. `schedule` groups arrivals into bursts
    /// (e.g. from [`nfm_traffic::faults::burst_schedule`]): all requests of
    /// a burst hit admission control before the queue drains, so bursts —
    /// not average load — drive shedding. A short (or empty) schedule makes
    /// the remaining requests arrive one by one. Statistics accumulate
    /// across calls, which is how a chaos harness interleaves traffic with
    /// weight poisoning/healing.
    ///
    /// Every admitted request gets exactly one [`Response`]; the method
    /// never panics on malformed capture bytes.
    pub fn serve_trace(
        &mut self,
        trace: &Trace,
        tokenizer: &dyn Tokenizer,
        schedule: &[usize],
    ) -> Vec<Response> {
        let requests = self.ingest(trace, tokenizer);
        let mut responses = Vec::with_capacity(requests.len());
        let mut pending = requests.into_iter();
        let mut exhausted = false;
        for &burst in schedule {
            for _ in 0..burst {
                match pending.next() {
                    Some(r) => self.offer(r),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            responses.append(&mut self.drain_queue());
            if exhausted {
                break;
            }
        }
        for request in pending {
            self.offer(request);
            responses.append(&mut self.drain_queue());
        }
        responses
    }
}

/// All-integer accounting for the shared fan-out path of a
/// [`MultiTaskServer`] — the compute-sharing ledger on top of the
/// per-task [`ServeStats`]. `head_rows` is what K independent engines
/// would have paid in *encoder* forwards; `encoder_rows` is what the
/// shared backbone actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiTaskStats {
    /// Fan-out requests submitted to the server.
    pub submitted: usize,
    /// `(request, task)` pairs offered to per-task admission control.
    pub lane_offers: usize,
    /// Shared micro-batches run through the packed encoder forward.
    pub batches: usize,
    /// Packed encoder rows computed (one per distinct flow per batch).
    pub encoder_rows: usize,
    /// Per-task head rows computed across all lanes.
    pub head_rows: usize,
}

/// Multi-task serving with shared-encoder fan-out: one frozen
/// [`FmBackbone`] plus K lightweight [`TaskHead`]s, so answering K tasks
/// for a flow costs ~1 packed encoder forward + K head GEMMs instead of
/// K encoder forwards — the paper's amortization argument (§3) at
/// serving time.
///
/// Semantically the server is K independent [`ServeEngine`]s (the
/// *lanes*), one per task, each with its own admission queue, shed RNG,
/// circuit breaker, deadline state machine, [`ServeStats`], drift
/// monitor, and quarantine buffer — all seeded exactly as a standalone
/// engine with the same [`ServeConfig`] would be. Only the *compute* is
/// shared: [`MultiTaskServer::drain`] collects every lane's queued work,
/// runs the packed encoder forward once per distinct flow
/// ([`FmBackbone::pooled_batch_within`], pooled embeddings cached in the
/// engine's [`ScratchArena`]), fans the pooled rows out to each task's
/// head, and replays each lane's answers through the unchanged
/// [`ServeEngine`] state machine. Responses and statistics are therefore
/// bitwise identical to K standalone engines fed the same per-task
/// request streams — the invariant `exp_e19` and the multi-task
/// proptests assert.
///
/// Per-request deadline budgets stay per-task-honest: each lane's answer
/// is charged its own encoder spend plus its own head cost, exactly as
/// its standalone engine would charge, while the shared micro-batch is
/// capped by the *true fan-out cost* (encoder once + every selected
/// head) against `batch_cost_budget`.
pub struct MultiTaskServer {
    backbone: FmBackbone,
    heads: Vec<TaskHead>,
    lanes: Vec<ServeEngine>,
    arena: ScratchArena,
    config: ServeConfig,
    stats: MultiTaskStats,
}

impl MultiTaskServer {
    /// Build a fan-out server from a shared backbone and one
    /// `(head, fallback)` pair per task. Lane `k` serves task `k` with
    /// exactly the state a standalone [`ServeEngine`] over
    /// [`FmBackbone::attach`]`(&heads[k])` would have. At most 64 tasks
    /// (the [`TaskSet`] width) are kept; extras are dropped.
    pub fn new(
        backbone: FmBackbone,
        tasks: Vec<(TaskHead, Fallback)>,
        config: ServeConfig,
    ) -> MultiTaskServer {
        let mut config = config;
        config.queue_capacity = config.queue_capacity.max(1);
        let mut tasks = tasks;
        tasks.truncate(64);
        let mut heads = Vec::with_capacity(tasks.len());
        let mut lanes = Vec::with_capacity(tasks.len());
        for (head, fallback) in tasks {
            lanes.push(ServeEngine::new(backbone.attach(&head), fallback, config));
            heads.push(head);
        }
        MultiTaskServer {
            backbone,
            heads,
            lanes,
            arena: ScratchArena::new(),
            config,
            stats: MultiTaskStats::default(),
        }
    }

    /// Number of task lanes.
    pub fn n_tasks(&self) -> usize {
        self.lanes.len()
    }

    /// Task names, lane order.
    pub fn task_names(&self) -> Vec<&str> {
        self.heads.iter().map(|h| h.name.as_str()).collect()
    }

    /// The shared backbone.
    pub fn backbone(&self) -> &FmBackbone {
        &self.backbone
    }

    /// Task `k`'s head.
    pub fn head(&self, k: usize) -> Option<&TaskHead> {
        self.heads.get(k)
    }

    /// Task `k`'s serving lane (for inspection: breaker, drift monitor,
    /// quarantine). Lane model mutation must go through
    /// [`MultiTaskServer::replace_head`] so the lane's classifier and the
    /// fan-out head stay the same weights.
    pub fn lane(&self, k: usize) -> Option<&ServeEngine> {
        self.lanes.get(k)
    }

    /// Cumulative per-task statistics, lane order — each entry is what
    /// the corresponding standalone engine would report.
    pub fn task_stats(&self) -> Vec<ServeStats> {
        self.lanes.iter().map(|l| l.stats()).collect()
    }

    /// The shared fan-out compute ledger.
    pub fn stats(&self) -> MultiTaskStats {
        self.stats
    }

    /// Deterministic cost (multiply-accumulate units) of fanning one
    /// `n_tokens`-token request out to the selected `tasks`: the shared
    /// encoder forward once, plus each selected head. This is the true
    /// marginal cost of the request, and what the shared micro-batch
    /// charges against `batch_cost_budget`.
    pub fn fanout_cost(&self, n_tokens: usize, tasks: TaskSet) -> u64 {
        let d_model = self.backbone.d_model();
        let heads: u64 = self
            .heads
            .iter()
            .enumerate()
            .filter(|&(k, _)| tasks.contains(k))
            .map(|(_, h)| h.head_cost(d_model))
            .sum();
        self.backbone.encoder_cost(n_tokens).saturating_add(heads)
    }

    /// Replace the per-request deadline budget on every lane (see
    /// [`ServeEngine::set_deadline_budget`]).
    pub fn set_deadline_budget(&mut self, budget: u64) {
        self.config.deadline_budget = budget;
        for lane in &mut self.lanes {
            lane.set_deadline_budget(budget);
        }
    }

    /// Arm (or replace) task `k`'s drift monitor — monitors are per task,
    /// so one task drifting never trips or quarantines another.
    pub fn enable_drift(&mut self, k: usize, monitor: DriftMonitor) {
        if let Some(lane) = self.lanes.get_mut(k) {
            lane.enable_drift(monitor);
        }
    }

    /// Task `k`'s quarantine buffer of drift-flagged traffic.
    pub fn quarantine(&self, k: usize) -> Option<&QuarantineBuffer> {
        self.lanes.get(k).map(|l| l.quarantine())
    }

    /// Mutable quarantine buffer for task `k` — the per-head adaptation
    /// path drains exactly one task's capture.
    pub fn quarantine_mut(&mut self, k: usize) -> Option<&mut QuarantineBuffer> {
        self.lanes.get_mut(k).map(|l| l.quarantine_mut())
    }

    /// Apply delayed ground-truth labels for task `k` only (see
    /// [`ServeEngine::record_feedback`]); labels for one task never feed
    /// another task's label-drift test. Returns how many times task `k`'s
    /// detector newly tripped.
    pub fn record_feedback(
        &mut self,
        k: usize,
        truth: &dyn Fn(&[String]) -> Option<usize>,
    ) -> usize {
        self.lanes.get_mut(k).map(|l| l.record_feedback(truth)).unwrap_or(0)
    }

    /// Hot-swap task `k`'s head — the single-head rollout path: the lane's
    /// classifier is rebuilt from the unchanged shared backbone plus the
    /// new head (breaker re-armed exactly like
    /// [`ServeEngine::replace_model`]), and no other lane is touched, so
    /// every other task's answers stay bitwise identical.
    pub fn replace_head(&mut self, k: usize, head: TaskHead) {
        if k >= self.heads.len() {
            return;
        }
        self.lanes[k].replace_model(self.backbone.attach(&head));
        self.heads[k] = head;
    }

    /// Offer one request to the admission control of every lane in its
    /// [`TaskSet`]. Each lane decides shedding independently with its own
    /// seeded RNG — exactly the decision a standalone engine receiving
    /// that task's request stream would make.
    pub fn submit(&mut self, request: ServeRequest) {
        self.stats.submitted += 1;
        nfm_obs::counter!("serve.task.submitted").inc();
        let fanout = request.tasks.count(self.lanes.len());
        nfm_obs::histogram!("serve.task.fanout", nfm_obs::Unit::Count, BATCH_SIZE_EDGES)
            .observe(fanout as u64);
        for k in 0..self.lanes.len() {
            if request.tasks.contains(k) {
                self.stats.lane_offers += 1;
                nfm_obs::counter!("serve.task.lane_offers").inc();
                self.lanes[k].offer(request.clone());
            }
        }
    }

    /// Answer every queued request on every lane. Returns one response
    /// vector per task (lane order), each in that lane's admission order
    /// and bitwise identical to what the corresponding standalone engine's
    /// [`ServeEngine::drain_queue`] would return.
    ///
    /// The drain dissolves the lanes' queues into a list of *distinct*
    /// flows, chunks it into shared micro-batches (up to `max_batch`
    /// flows whose summed [`MultiTaskServer::fanout_cost`] fits
    /// `batch_cost_budget`; the first flow is always taken), runs the
    /// packed encoder forward once per chunk with pooled embeddings
    /// cached in the scratch arena, gathers each task's pending rows out
    /// of the pooled cache ([`ScratchArena::take_gather`]) for one head
    /// GEMM per task per chunk, and finally replays every lane's answers
    /// in admission order through the unchanged breaker/deadline
    /// state machine.
    pub fn drain(&mut self) -> Vec<Vec<Response>> {
        let mut out: Vec<Vec<Response>> = self.lanes.iter().map(|_| Vec::new()).collect();
        // Dissolve every lane's queue (admission order preserved per lane).
        let pending: Vec<Vec<ServeRequest>> =
            self.lanes.iter_mut().map(|l| l.queue.drain(..).collect()).collect();
        if pending.iter().all(|p| p.is_empty()) {
            return out;
        }
        // Distinct flows in first-appearance order, each named by the
        // `(lane, position)` of its first occurrence in `pending`, with the
        // union of the lanes that queued it. The dedup map borrows the
        // queued tokens instead of copying them.
        let mut uniq: Vec<(usize, usize)> = Vec::new();
        let mut need: Vec<u64> = Vec::new();
        let mut uniq_of: Vec<Vec<usize>> = Vec::with_capacity(pending.len());
        let mut index: std::collections::HashMap<(usize, &[String]), usize> =
            std::collections::HashMap::new();
        for (k, reqs) in pending.iter().enumerate() {
            let mut map = Vec::with_capacity(reqs.len());
            for (pos, r) in reqs.iter().enumerate() {
                let u = *index.entry((r.flow, r.tokens.as_slice())).or_insert_with(|| {
                    uniq.push((k, pos));
                    need.push(0);
                    uniq.len() - 1
                });
                need[u] |= 1u64 << k;
                map.push(u);
            }
            uniq_of.push(map);
        }
        drop(index);
        let tokens_of = |u: usize| pending[uniq[u].0][uniq[u].1].tokens.as_slice();
        // Per-(lane, unique) precomputed outcomes, filled chunk by chunk.
        let budget = self.config.deadline_budget;
        let d_model = self.backbone.d_model();
        let mut lane_pre: Vec<std::collections::HashMap<usize, CostedLogits>> =
            self.lanes.iter().map(|_| std::collections::HashMap::new()).collect();
        let max_batch = self.config.max_batch.max(1);
        let mut start = 0usize;
        while start < uniq.len() {
            // Chunk boundary: mirror `next_batch`, but charge the true
            // fan-out cost of each flow (encoder once + selected heads).
            let mut end = start + 1;
            let mut planned =
                self.fanout_cost(tokens_of(start).len(), TaskSet::from_mask(need[start]));
            while end < uniq.len() && end - start < max_batch {
                let cost = self.fanout_cost(tokens_of(end).len(), TaskSet::from_mask(need[end]));
                if planned.saturating_add(cost) > self.config.batch_cost_budget {
                    break;
                }
                planned = planned.saturating_add(cost);
                end += 1;
            }
            let tokens: Vec<&[String]> = (start..end).map(tokens_of).collect();
            let pb = self.backbone.pooled_batch_within(&tokens, budget, &mut self.arena);
            self.stats.batches += 1;
            self.stats.encoder_rows += pb.rows.len();
            nfm_obs::counter!("serve.task.batches").inc();
            nfm_obs::counter!("serve.task.encoder_rows").add(pb.rows.len() as u64);
            // Encoder-level refusals replay identically on every lane.
            for (local, err) in &pb.refused {
                let u = start + local;
                for (k, pre) in lane_pre.iter_mut().enumerate() {
                    if need[u] & (1u64 << k) != 0 {
                        pre.insert(u, Err(err.clone()));
                    }
                }
            }
            // Fan the pooled rows out: one gathered head GEMM per task.
            for (k, pre) in lane_pre.iter_mut().enumerate() {
                let head_cost = self.heads[k].head_cost(d_model);
                let mut rows = Vec::new();
                let mut us = Vec::new();
                for (row, &(local, enc_spent)) in pb.rows.iter().enumerate() {
                    let u = start + local;
                    if need[u] & (1u64 << k) == 0 {
                        continue;
                    }
                    if enc_spent + head_cost > budget {
                        pre.insert(
                            u,
                            Err(InferError::DeadlineExceeded {
                                spent: enc_spent,
                                needed: head_cost,
                                budget,
                            }),
                        );
                    } else {
                        rows.push(row);
                        us.push((u, enc_spent));
                    }
                }
                if rows.is_empty() {
                    continue;
                }
                let sub = self.arena.take_gather(&pb.pooled, &rows);
                let logits_m = self.heads[k].logits_batch(&sub);
                self.arena.put(sub);
                self.stats.head_rows += us.len();
                nfm_obs::counter!("serve.task.head_rows").add(us.len() as u64);
                for (j, &(u, enc_spent)) in us.iter().enumerate() {
                    pre.insert(u, Ok((logits_m.row(j).to_vec(), enc_spent + head_cost)));
                }
            }
            self.arena.put(pb.pooled);
            start = end;
        }
        nfm_obs::event(
            "serve.task.drain",
            &[
                ("tasks", nfm_obs::Value::U(self.lanes.len() as u64)),
                ("flows", nfm_obs::Value::U(uniq.len() as u64)),
                ("encoder_rows", nfm_obs::Value::U(self.stats.encoder_rows as u64)),
                ("head_rows", nfm_obs::Value::U(self.stats.head_rows as u64)),
            ],
        );
        // Settle every lane in admission order through the unchanged
        // serve state machine.
        for (k, reqs) in pending.into_iter().enumerate() {
            for (pos, req) in reqs.into_iter().enumerate() {
                let u = uniq_of[k][pos];
                let pre = lane_pre[k].get(&u).cloned();
                out[k].push(self.lanes[k].answer(req, pre));
            }
        }
        out
    }

    /// Offer pre-assembled requests in bursts (like
    /// [`ServeEngine::serve_trace`]'s schedule semantics) and drain
    /// between bursts. Returns one response vector per task, each bitwise
    /// identical to a standalone engine fed that task's stream with the
    /// same schedule.
    pub fn serve_requests(
        &mut self,
        requests: Vec<ServeRequest>,
        schedule: &[usize],
    ) -> Vec<Vec<Response>> {
        let mut out: Vec<Vec<Response>> = self.lanes.iter().map(|_| Vec::new()).collect();
        let fold = |out: &mut Vec<Vec<Response>>, drained: Vec<Vec<Response>>| {
            for (k, mut v) in drained.into_iter().enumerate() {
                out[k].append(&mut v);
            }
        };
        let mut pending = requests.into_iter();
        let mut exhausted = false;
        for &burst in schedule {
            for _ in 0..burst {
                match pending.next() {
                    Some(r) => self.submit(r),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            let drained = self.drain();
            fold(&mut out, drained);
            if exhausted {
                break;
            }
        }
        for request in pending {
            self.submit(request);
            let drained = self.drain();
            fold(&mut out, drained);
        }
        out
    }

    /// Serve every flow in `trace` on every task: assemble once
    /// ([`assemble_requests`], ingest accounting folded into every lane's
    /// statistics, mirroring K standalone engines each ingesting the
    /// capture), then run the burst schedule via
    /// [`MultiTaskServer::serve_requests`].
    pub fn serve_trace(
        &mut self,
        trace: &Trace,
        tokenizer: &dyn Tokenizer,
        schedule: &[usize],
    ) -> Vec<Vec<Response>> {
        let (requests, ingest) = assemble_requests(trace, tokenizer, self.config.max_tokens);
        for lane in &mut self.lanes {
            lane.stats.malformed_packets += ingest.malformed_packets;
            lane.stats.flows_assembled += ingest.flows_assembled;
            lane.stats.empty_contexts += ingest.empty_contexts;
        }
        self.serve_requests(requests, schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FineTuneConfig, PipelineConfig, TextExample};
    use nfm_model::pretrain::{PretrainConfig, TaskMix};
    use nfm_model::tokenize::field::FieldTokenizer;
    use nfm_tensor::layers::Module;
    use nfm_traffic::faults::{burst_schedule, inject, FaultConfig};
    use nfm_traffic::netsim::{simulate, SimConfig};

    fn tiny_engine_parts() -> (FmClassifier, Fallback, Trace) {
        let lt = simulate(&SimConfig {
            n_sessions: 30,
            n_general_hosts: 3,
            n_iot_sets: 1,
            ..SimConfig::default()
        });
        let tok = FieldTokenizer::new();
        let cfg = PipelineConfig {
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 48,
            pretrain: PretrainConfig {
                epochs: 1,
                tasks: TaskMix::mlm_only(),
                ..PretrainConfig::default()
            },
            ..PipelineConfig::default()
        };
        let (fm, _) =
            FoundationModel::pretrain_on(&[&lt.trace], &tok, &cfg).expect("pretraining failed");
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 2, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        let fallback = Fallback::Majority(MajorityBaseline::fit(&train, 2));
        (clf, fallback, lt.trace)
    }

    fn drain(engine: &mut ServeEngine, trace: &Trace) -> Vec<Response> {
        engine.serve_trace(trace, &FieldTokenizer::new(), &[])
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let cfg = BreakerConfig { failure_threshold: 3, cooldown: 2, probes_to_close: 2 };
        let mut b = CircuitBreaker::new(cfg);
        assert_eq!(b.state(), BreakerState::Closed);
        // Two failures + a success: consecutive counter resets, still closed.
        assert!(b.try_acquire());
        b.on_failure();
        b.on_failure();
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips, 0);
        // Three consecutive failures trip it.
        b.on_failure();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        // Cooldown: one denied request, then the next is a half-open probe.
        assert!(!b.try_acquire());
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.try_acquire());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Two successful probes close it again.
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries, 1);
    }

    #[test]
    fn breaker_half_open_failure_reopens() {
        let cfg = BreakerConfig { failure_threshold: 1, cooldown: 1, probes_to_close: 1 };
        let mut b = CircuitBreaker::new(cfg);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        // cooldown=1: the very next request probes.
        assert!(b.try_acquire());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2, "a failed probe counts as a fresh trip");
        assert!(b.try_acquire());
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries, 1);
    }

    #[test]
    fn retry_with_backoff_recovers_from_transient_faults() {
        let policy = RetryPolicy { max_retries: 3, backoff_base: 10, backoff_factor: 2 };
        // Fails twice, then succeeds.
        let (result, log) =
            retry_with_backoff(
                &policy,
                |attempt| {
                    if attempt < 2 {
                        Err("transient")
                    } else {
                        Ok(attempt)
                    }
                },
            );
        assert_eq!(result, Ok(2));
        assert_eq!(log.attempts, 3);
        assert_eq!(log.backoff_cost, 10 + 20);
        // Permanent fault: retries exhaust.
        let (result, log) = retry_with_backoff(&policy, |_| Err::<(), _>("permanent"));
        assert_eq!(result, Err("permanent"));
        assert_eq!(log.attempts, 4, "initial try plus three retries");
        assert_eq!(log.backoff_cost, 10 + 20 + 40);
        // max_retries = 0 means a single attempt and no backoff.
        let zero = RetryPolicy { max_retries: 0, ..policy };
        let (_, log) = retry_with_backoff(&zero, |_| Err::<(), _>("x"));
        assert_eq!(log, RetryLog { attempts: 1, backoff_cost: 0 });
    }

    #[test]
    fn load_model_with_retry_reports_typed_error() {
        let dir = std::env::temp_dir().join(format!("nfm_serve_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("missing.nfmc");
        let policy = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
        let err = load_model_with_retry(&path, &policy).expect_err("no file on disk");
        let ServeError::ModelLoad { attempts, .. } = &err;
        assert_eq!(*attempts, 3);
        assert!(err.to_string().contains("model load failed"));
        assert!(std::error::Error::source(&err).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_admitted_request_is_answered() {
        let (clf, fallback, trace) = tiny_engine_parts();
        let mut engine = ServeEngine::new(clf, fallback, ServeConfig::default());
        let responses = drain(&mut engine, &trace);
        let stats = engine.stats();
        assert!(stats.arrived > 0);
        assert_eq!(stats.admitted, responses.len());
        assert_eq!(stats.answered(), stats.admitted);
        assert_eq!(stats.arrived, stats.admitted + stats.shed);
        // A healthy model under an infinite deadline answers everything.
        assert_eq!(stats.answered_model, stats.admitted);
        assert_eq!(stats.deadline_misses, 0);
        assert!((stats.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn burst_overload_sheds_deterministically() {
        let (clf, fallback, trace) = tiny_engine_parts();
        let config = ServeConfig { queue_capacity: 4, shed_watermark: 2, ..ServeConfig::default() };
        let tok = FieldTokenizer::new();
        // One giant burst: everything arrives before the queue drains.
        let run = |clf: FmClassifier, fallback: Fallback| {
            let mut engine = ServeEngine::new(clf, fallback, config);
            let responses = engine.serve_trace(&trace, &tok, &[usize::MAX]);
            (responses, engine.stats())
        };
        let (ra, sa) = run(clf.clone(), Fallback::Majority(MajorityBaseline::fit(&[], 2)));
        let (rb, sb) = run(clf, fallback);
        assert!(sa.shed > 0, "a burst larger than the queue must shed");
        assert_eq!(sa.admitted, ra.len());
        assert_eq!(sa.answered(), sa.admitted);
        // Same seed, same arrivals → bitwise-identical shed decisions.
        assert_eq!(sa, sb);
        assert_eq!(
            ra.iter().map(|r| r.flow).collect::<Vec<_>>(),
            rb.iter().map(|r| r.flow).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn smooth_arrivals_do_not_shed() {
        let (clf, fallback, trace) = tiny_engine_parts();
        let config = ServeConfig { queue_capacity: 4, shed_watermark: 2, ..ServeConfig::default() };
        let mut engine = ServeEngine::new(clf, fallback, config);
        let n = {
            // schedule of all-1s: the queue never holds more than one item.
            let ones = vec![1usize; 10_000];
            engine.serve_trace(&trace, &FieldTokenizer::new(), &ones).len()
        };
        let stats = engine.stats();
        assert_eq!(stats.shed, 0, "no bursts, no shedding");
        assert_eq!(stats.admitted, n);
    }

    #[test]
    fn nan_poisoned_model_trips_breaker_and_fallback_answers() {
        let (clf, fallback, trace) = tiny_engine_parts();
        let config = ServeConfig {
            breaker: BreakerConfig { failure_threshold: 2, cooldown: 3, probes_to_close: 1 },
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(clf, fallback, config);
        // Phase 1: healthy.
        let healthy = drain(&mut engine, &trace);
        assert!(healthy.iter().all(|r| r.responder == Responder::Model));
        // Phase 2: poison every encoder weight — logits go NaN.
        let snapshot: Vec<Vec<f32>> = {
            let mut params = Vec::new();
            engine.model_mut().encoder.visit_params(&mut |p, _| params.push(p.to_vec()));
            params
        };
        engine.model_mut().encoder.visit_params(&mut |p, _| p.fill(f32::NAN));
        let degraded = drain(&mut engine, &trace);
        assert!(!degraded.is_empty());
        assert!(degraded.iter().all(|r| r.responder == Responder::Fallback));
        let mid = engine.stats();
        assert!(mid.breaker_trips >= 1, "breaker must trip");
        assert!(mid.model_failures >= config.breaker.failure_threshold);
        assert_eq!(mid.answered_model + mid.answered_fallback, mid.admitted);
        // Phase 3: heal the weights; half-open probes recover the breaker.
        let mut slot = 0usize;
        engine.model_mut().encoder.visit_params(&mut |p, _| {
            p.copy_from_slice(&snapshot[slot]);
            slot += 1;
        });
        let recovered = drain(&mut engine, &trace);
        let end = engine.stats();
        assert!(end.breaker_recoveries >= 1, "half-open probes must close the breaker");
        assert!(
            recovered.iter().filter(|r| r.responder == Responder::Model).count()
                > recovered.len() / 2,
            "most post-heal requests are model-answered"
        );
        assert_eq!(engine.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn starvation_deadline_routes_to_fallback_without_tripping_breaker() {
        let (clf, fallback, trace) = tiny_engine_parts();
        let config = ServeConfig { deadline_budget: 3, ..ServeConfig::default() };
        let mut engine = ServeEngine::new(clf, fallback, config);
        let responses = drain(&mut engine, &trace);
        let stats = engine.stats();
        assert!(!responses.is_empty());
        assert!(responses.iter().all(|r| r.responder == Responder::Fallback));
        assert!(responses.iter().all(|r| r.deadline_missed));
        assert_eq!(stats.deadline_misses, stats.admitted);
        assert_eq!(stats.breaker_trips, 0, "deadline misses are load, not model health");
        assert_eq!(stats.answered(), stats.admitted);
    }

    #[test]
    fn corrupted_and_truncated_captures_never_panic_and_still_serve() {
        let (clf, fallback, trace) = tiny_engine_parts();
        let (noisy, _) = inject(
            &trace,
            &FaultConfig {
                corrupt_chance: 0.6,
                snaplen: 40,
                reorder_chance: 0.3,
                duplicate_chance: 0.2,
                seed: 11,
                ..FaultConfig::default()
            },
        );
        let mut engine = ServeEngine::new(clf, fallback, ServeConfig::default());
        let schedule = burst_schedule(
            10_000,
            &FaultConfig { burst_chance: 0.5, max_burst: 16, seed: 3, ..FaultConfig::default() },
        );
        let responses = engine.serve_trace(&noisy, &FieldTokenizer::new(), &schedule);
        let stats = engine.stats();
        assert!(stats.malformed_packets > 0, "corruption produced unparseable packets");
        assert_eq!(stats.answered(), stats.admitted);
        assert_eq!(responses.len(), stats.admitted);
    }

    #[test]
    fn identical_runs_are_bitwise_identical() {
        let (clf, _, trace) = tiny_engine_parts();
        let (noisy, _) = inject(&trace, &FaultConfig::noisy(5));
        let config = ServeConfig {
            queue_capacity: 6,
            shed_watermark: 3,
            deadline_budget: 2_000_000,
            ..ServeConfig::default()
        };
        let schedule = burst_schedule(
            10_000,
            &FaultConfig { burst_chance: 0.4, max_burst: 12, seed: 8, ..FaultConfig::default() },
        );
        let run = |clf: FmClassifier| {
            let mut engine =
                ServeEngine::new(clf, Fallback::Majority(MajorityBaseline::fit(&[], 2)), config);
            let r = engine.serve_trace(&noisy, &FieldTokenizer::new(), &schedule);
            (r, engine.stats())
        };
        let (ra, sa) = run(clf.clone());
        let (rb, sb) = run(clf);
        assert_eq!(sa, sb, "stats must reproduce exactly");
        assert_eq!(ra, rb, "every response must reproduce exactly");
    }

    #[test]
    fn batched_drain_queue_matches_unbatched_and_serve_one_bitwise() {
        let (clf, _, trace) = tiny_engine_parts();
        let tok = FieldTokenizer::new();
        let (requests, _) = assemble_requests(&trace, &tok, 64);
        assert!(requests.len() > 8, "need a non-trivial batch");
        let config =
            ServeConfig { queue_capacity: 256, shed_watermark: 256, ..ServeConfig::default() };
        let run = |max_batch: usize, batch_cost_budget: u64| {
            let mut engine = ServeEngine::new(
                clf.clone(),
                Fallback::Majority(MajorityBaseline::fit(&[], 2)),
                ServeConfig { max_batch, batch_cost_budget, ..config },
            );
            for r in requests.iter().cloned() {
                engine.submit(r);
            }
            (engine.drain_queue(), engine.stats())
        };
        let (r1, s1) = run(1, u64::MAX);
        // serve_one on a fresh engine answers identically (admission stats
        // aside — serve_one bypasses the queue).
        let mut solo = ServeEngine::new(
            clf.clone(),
            Fallback::Majority(MajorityBaseline::fit(&[], 2)),
            config,
        );
        let r_solo: Vec<Response> = requests.iter().cloned().map(|r| solo.serve_one(r)).collect();
        assert_eq!(r1, r_solo, "queued and hedged paths agree");
        for (max_batch, batch_cost_budget) in
            [(4, u64::MAX), (8, u64::MAX), (requests.len() + 1, u64::MAX), (8, 1), (8, 250_000)]
        {
            let (rb, sb) = run(max_batch, batch_cost_budget);
            assert_eq!(r1, rb, "batched responses (max_batch={max_batch})");
            assert_eq!(s1, sb, "batched stats (max_batch={max_batch})");
        }
    }

    #[test]
    fn batched_serve_trace_matches_unbatched_under_faults() {
        let (clf, _, trace) = tiny_engine_parts();
        let (noisy, _) = inject(&trace, &FaultConfig::noisy(5));
        let schedule = burst_schedule(
            10_000,
            &FaultConfig { burst_chance: 0.4, max_burst: 12, seed: 8, ..FaultConfig::default() },
        );
        let tok = FieldTokenizer::new();
        let base = ServeConfig {
            queue_capacity: 6,
            shed_watermark: 3,
            deadline_budget: 2_000_000,
            breaker: BreakerConfig { failure_threshold: 2, cooldown: 3, probes_to_close: 1 },
            ..ServeConfig::default()
        };
        let run = |max_batch: usize| {
            let mut engine = ServeEngine::new(
                clf.clone(),
                Fallback::Majority(MajorityBaseline::fit(&[], 2)),
                ServeConfig { max_batch, ..base },
            );
            // Healthy traffic, then NaN-poisoned weights (breaker trips,
            // fallback answers), then healed weights (half-open recovery).
            let mut all = engine.serve_trace(&noisy, &tok, &schedule);
            let snapshot: Vec<Vec<f32>> = {
                let mut params = Vec::new();
                engine.model_mut().encoder.visit_params(&mut |p, _| params.push(p.to_vec()));
                params
            };
            engine.model_mut().encoder.visit_params(&mut |p, _| p.fill(f32::NAN));
            all.extend(engine.serve_trace(&noisy, &tok, &schedule));
            let mut slot = 0usize;
            engine.model_mut().encoder.visit_params(&mut |p, _| {
                p.copy_from_slice(&snapshot[slot]);
                slot += 1;
            });
            all.extend(engine.serve_trace(&noisy, &tok, &schedule));
            (all, engine.stats())
        };
        let (r1, s1) = run(1);
        let (r8, s8) = run(8);
        assert!(s1.breaker_trips >= 1, "fault schedule must exercise the breaker");
        assert!(s1.shed > 0, "bursts against a short queue must shed");
        assert_eq!(s1, s8, "stats identical across batching modes");
        assert_eq!(r1, r8, "responses identical across batching modes");
    }

    #[test]
    fn gru_fallback_answers_when_breaker_is_open() {
        use crate::baselines::{BaselineConfig, BaselineKind};
        let (clf, _, trace) = tiny_engine_parts();
        let train: Vec<TextExample> = (0..12)
            .map(|i| TextExample {
                tokens: vec![format!("tok{}", i % 3), "IP4".to_string()],
                label: i % 3,
            })
            .collect();
        let gru = GruBaseline::train(
            &train,
            3,
            BaselineKind::GruRandom,
            &BaselineConfig { epochs: 2, d_embed: 8, d_hidden: 8, ..BaselineConfig::default() },
        );
        let mut engine = ServeEngine::new(
            clf,
            Fallback::Gru(Box::new(gru)),
            ServeConfig {
                breaker: BreakerConfig { failure_threshold: 1, cooldown: 1000, probes_to_close: 1 },
                ..ServeConfig::default()
            },
        );
        assert_eq!(engine.model().n_classes, 2);
        engine.model_mut().encoder.visit_params(&mut |p, _| p.fill(f32::NAN));
        let responses = drain(&mut engine, &trace);
        assert!(!responses.is_empty());
        assert!(responses.iter().all(|r| r.responder == Responder::Fallback));
        // GRU fallback produces in-range classes for its own task.
        assert!(responses.iter().all(|r| r.class < 3));
        assert_eq!(engine.stats().answered(), engine.stats().admitted);
    }

    /// A tiny two-task fixture: shared backbone plus heads with *different*
    /// class counts, so per-task head costs and argmax ranges differ.
    /// Fallbacks are returned separately (majority priors are `Copy`) so
    /// tests can assemble `(head, fallback)` lists as many times as needed.
    fn tiny_multitask_parts() -> (FmBackbone, Vec<TaskHead>, Vec<MajorityBaseline>, Trace) {
        let (clf, _, trace) = tiny_engine_parts();
        let backbone = clf.backbone();
        let mk_train = |n_classes: usize| -> Vec<TextExample> {
            (0..12)
                .map(|i| TextExample {
                    tokens: vec![format!("PORT_{}", 40 + i % 4), "IP4".to_string()],
                    label: i % n_classes,
                })
                .collect()
        };
        let cfg = FineTuneConfig { epochs: 2, ..FineTuneConfig::default() };
        let mut heads = Vec::new();
        let mut priors = Vec::new();
        for (name, n_classes) in [("coarse", 2usize), ("fine", 3usize)] {
            let train = mk_train(n_classes);
            let head = TaskHead::fine_tune(&backbone, name, &train, n_classes, &cfg)
                .expect("head fine-tune failed");
            priors.push(MajorityBaseline::fit(&train, n_classes));
            heads.push(head);
        }
        (backbone, heads, priors, trace)
    }

    fn task_list(heads: &[TaskHead], priors: &[MajorityBaseline]) -> Vec<(TaskHead, Fallback)> {
        heads.iter().cloned().zip(priors.iter().map(|&p| Fallback::Majority(p))).collect()
    }

    /// Mirror of [`MultiTaskServer::serve_requests`]'s burst loop for one
    /// standalone engine: lane `k` sees exactly the requests whose task set
    /// contains `k`, offered and drained on the same burst boundaries.
    fn run_standalone(
        engine: &mut ServeEngine,
        k: usize,
        requests: &[ServeRequest],
        schedule: &[usize],
    ) -> Vec<Response> {
        let mut out = Vec::new();
        let mut pending = requests.iter().cloned();
        let mut exhausted = false;
        for &burst in schedule {
            for _ in 0..burst {
                match pending.next() {
                    Some(r) => {
                        if r.tasks.contains(k) {
                            engine.offer(r);
                        }
                    }
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            out.append(&mut engine.drain_queue());
            if exhausted {
                break;
            }
        }
        for r in pending {
            if r.tasks.contains(k) {
                engine.offer(r);
            }
            out.append(&mut engine.drain_queue());
        }
        out
    }

    #[test]
    fn fanout_matches_independent_engines_bitwise() {
        let (backbone, heads, priors, trace) = tiny_multitask_parts();
        let tok = FieldTokenizer::new();
        // Deadline tight enough that long flows refuse at the encoder plan
        // while short ones pass; batching and shedding both exercised.
        let config = ServeConfig {
            queue_capacity: 8,
            shed_watermark: 5,
            deadline_budget: backbone.encoder_cost(40) + 64,
            max_batch: 4,
            batch_cost_budget: 3 * backbone.encoder_cost(40),
            seed: 41,
            ..ServeConfig::default()
        };
        let (mut requests, _) = assemble_requests(&trace, &tok, config.max_tokens);
        let masks = nfm_traffic::faults::task_mask_schedule(requests.len(), 2, 0.4, 77);
        for (r, &m) in requests.iter_mut().zip(&masks) {
            r.tasks = TaskSet::from_mask(m);
        }
        let schedule = [6usize, 0, 9, 3, 7];

        let mut server = MultiTaskServer::new(backbone.clone(), task_list(&heads, &priors), config);
        let fanned = server.serve_requests(requests.clone(), &schedule);

        for (k, head) in heads.iter().enumerate() {
            let mut solo =
                ServeEngine::new(backbone.attach(head), Fallback::Majority(priors[k]), config);
            let want = run_standalone(&mut solo, k, &requests, &schedule);
            assert_eq!(fanned[k], want, "task {k} responses diverge from a standalone engine");
            assert_eq!(
                server.task_stats()[k],
                solo.stats(),
                "task {k} stats diverge from a standalone engine"
            );
        }
        let mt = server.stats();
        assert_eq!(mt.submitted, requests.len());
        assert!(mt.batches > 0 && mt.encoder_rows > 0 && mt.head_rows > 0);
        let agg = server.task_stats();
        assert!(agg.iter().any(|s| s.answered_model > 0), "some flows fit the deadline");
        assert!(
            agg.iter().any(|s| s.deadline_misses > 0),
            "some flows must exceed the deadline budget"
        );
        assert!(
            mt.encoder_rows <= mt.head_rows,
            "shared encoder rows must not exceed the fanned-out head rows"
        );
        assert!(
            mt.lane_offers > requests.len(),
            "with 40% full fan-out, some requests hit both lanes"
        );
    }

    #[test]
    fn replace_head_swaps_one_lane_only() {
        let (backbone, heads, priors, trace) = tiny_multitask_parts();
        let tok = FieldTokenizer::new();
        let config = ServeConfig { seed: 13, max_batch: 4, ..ServeConfig::default() };
        let (requests, _) = assemble_requests(&trace, &tok, config.max_tokens);

        // Fine-tune a replacement head for task 0 on inverted labels.
        let retrain: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![format!("PORT_{}", 40 + i % 4)],
                label: (i + 1) % 2,
            })
            .collect();
        let swapped = heads[0]
            .fine_tune_from(
                &backbone,
                &retrain,
                &FineTuneConfig { epochs: 3, lr: 3e-2, ..FineTuneConfig::default() },
            )
            .expect("head refresh failed");

        let mut before = MultiTaskServer::new(backbone.clone(), task_list(&heads, &priors), config);
        let baseline = before.serve_requests(requests.clone(), &[4, 4]);

        let mut after = MultiTaskServer::new(backbone.clone(), task_list(&heads, &priors), config);
        after.replace_head(0, swapped);
        let patched = after.serve_requests(requests, &[4, 4]);

        assert_ne!(baseline[0], patched[0], "task 0 must serve the new head");
        assert_eq!(baseline[1], patched[1], "task 1 is untouched by task 0's rollout");
    }
}
