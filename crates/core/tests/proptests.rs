//! Property-based invariants for metrics, reporting, and the serving
//! layer: AUROC rank statistics, confusion-matrix identities, table
//! rendering, the circuit breaker's admit/deny state machine, and the
//! micro-batched serving path's bitwise equivalence to one-at-a-time
//! serving under arbitrary fault schedules.

use std::sync::OnceLock;

use nfm_core::baselines::MajorityBaseline;
use nfm_core::metrics::{auroc, mean_std, Confusion};
use nfm_core::ood::PageHinkley;
use nfm_core::pipeline::{
    FineTuneConfig, FmBackbone, FmClassifier, FoundationModel, TaskHead, TextExample,
};
use nfm_core::report::Table;
use nfm_core::serve::{
    retry_with_backoff, BreakerConfig, BreakerState, CircuitBreaker, Fallback, MultiTaskServer,
    QuarantineBuffer, Responder, Response, RetryPolicy, ServeConfig, ServeEngine, ServeRequest,
    TaskSet,
};
use nfm_model::nn::transformer::{Encoder, EncoderConfig};
use nfm_model::vocab::Vocab;
use nfm_tensor::layers::Module;
use nfm_traffic::faults::{DriftFaultConfig, FaultError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One externally visible circuit-breaker operation.
#[derive(Debug, Clone, Copy)]
enum BreakerOp {
    Acquire,
    Success,
    Failure,
}

fn arb_breaker_op() -> impl Strategy<Value = BreakerOp> {
    (0u8..3).prop_map(|v| match v {
        0 => BreakerOp::Acquire,
        1 => BreakerOp::Success,
        _ => BreakerOp::Failure,
    })
}

fn arb_breaker_config() -> impl Strategy<Value = BreakerConfig> {
    (1usize..6, 0usize..10, 1usize..4).prop_map(|(failure_threshold, cooldown, probes_to_close)| {
        BreakerConfig { failure_threshold, cooldown, probes_to_close }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn auroc_is_in_unit_interval(
        pos in proptest::collection::vec(-100.0f64..100.0, 1..40),
        neg in proptest::collection::vec(-100.0f64..100.0, 1..40),
    ) {
        let a = auroc(&pos, &neg);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn auroc_complementary(
        pos in proptest::collection::vec(-10.0f64..10.0, 1..20),
        neg in proptest::collection::vec(-10.0f64..10.0, 1..20),
    ) {
        // Swapping the classes reflects the score around 0.5.
        let a = auroc(&pos, &neg);
        let b = auroc(&neg, &pos);
        prop_assert!((a + b - 1.0).abs() < 1e-9, "{a} + {b}");
    }

    #[test]
    fn auroc_invariant_under_monotone_transform(
        pos in proptest::collection::vec(0.001f64..10.0, 1..20),
        neg in proptest::collection::vec(0.001f64..10.0, 1..20),
    ) {
        // AUROC is a rank statistic: x → ln(x) must not change it.
        let a = auroc(&pos, &neg);
        let lp: Vec<f64> = pos.iter().map(|v| v.ln()).collect();
        let ln: Vec<f64> = neg.iter().map(|v| v.ln()).collect();
        let b = auroc(&lp, &ln);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn perfectly_separated_scores_give_extremes(
        pos in proptest::collection::vec(10.0f64..20.0, 1..10),
        neg in proptest::collection::vec(-20.0f64..-10.0, 1..10),
    ) {
        prop_assert_eq!(auroc(&pos, &neg), 1.0);
        prop_assert_eq!(auroc(&neg, &pos), 0.0);
    }

    #[test]
    fn confusion_identities(
        pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..60),
    ) {
        let truths: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let preds: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let c = Confusion::from_pairs(4, &truths, &preds);
        prop_assert_eq!(c.total(), pairs.len());
        prop_assert!((0.0..=1.0).contains(&c.accuracy()));
        prop_assert!((0.0..=1.0).contains(&c.macro_f1()));
        // Sum over the matrix equals total.
        let sum: usize = c.counts().iter().map(|r| r.iter().sum::<usize>()).sum();
        prop_assert_eq!(sum, pairs.len());
        // Per-class precision/recall bounded.
        for k in 0..4 {
            if let Some(p) = c.precision(k) {
                prop_assert!((0.0..=1.0).contains(&p));
            }
            if let Some(r) = c.recall(k) {
                prop_assert!((0.0..=1.0).contains(&r));
            }
        }
    }

    #[test]
    fn perfect_predictions_maximize_all_metrics(
        truths in proptest::collection::vec(0usize..5, 1..40),
    ) {
        let c = Confusion::from_pairs(5, &truths, &truths);
        prop_assert_eq!(c.accuracy(), 1.0);
        prop_assert_eq!(c.macro_f1(), 1.0);
    }

    #[test]
    fn mean_std_sane(values in proptest::collection::vec(-1e3f64..1e3, 0..50)) {
        let (mean, std) = mean_std(&values);
        prop_assert!(std >= 0.0);
        if !values.is_empty() {
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
    }

    #[test]
    fn table_render_and_csv_have_all_rows(
        rows in proptest::collection::vec(("[a-z]{1,8}", "[0-9]{1,4}"), 0..20),
    ) {
        let mut t = Table::new(&["name", "value"]);
        for (a, b) in &rows {
            t.row(&[a.clone(), b.clone()]);
        }
        let rendered = t.render();
        prop_assert_eq!(rendered.lines().count(), 2 + rows.len());
        let csv = t.to_csv();
        prop_assert_eq!(csv.lines().count(), 1 + rows.len());
    }

    #[test]
    fn breaker_never_panics_and_never_admits_while_open(
        config in arb_breaker_config(),
        ops in proptest::collection::vec(arb_breaker_op(), 0..200),
    ) {
        let mut b = CircuitBreaker::new(config);
        let mut trips_seen = 0usize;
        for op in ops {
            match op {
                BreakerOp::Acquire => {
                    let admitted = b.try_acquire();
                    // The admit decision must agree with the post-call
                    // state: admitted ⟹ not open, denied ⟹ still open.
                    if admitted {
                        prop_assert_ne!(b.state(), BreakerState::Open);
                    } else {
                        prop_assert_eq!(b.state(), BreakerState::Open);
                    }
                }
                BreakerOp::Success => b.on_success(),
                BreakerOp::Failure => b.on_failure(),
            }
            // Trip count is monotone, and recoveries never outnumber trips.
            prop_assert!(b.trips >= trips_seen);
            trips_seen = b.trips;
            prop_assert!(b.recoveries <= b.trips);
        }
    }

    #[test]
    fn breaker_open_denies_until_cooldown_elapses(config in arb_breaker_config()) {
        let mut b = CircuitBreaker::new(config);
        for _ in 0..config.failure_threshold {
            b.on_failure();
        }
        prop_assert_eq!(b.state(), BreakerState::Open);
        // Exactly cooldown−1 denials, then the next acquire half-opens.
        let mut denials = 0usize;
        loop {
            if b.try_acquire() {
                break;
            }
            denials += 1;
            prop_assert!(denials <= config.cooldown.max(1), "cooldown must terminate");
        }
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        prop_assert_eq!(denials, config.cooldown.max(1) - 1);
        // A failed probe re-opens; sustained success closes.
        b.on_failure();
        prop_assert_eq!(b.state(), BreakerState::Open);
        while !b.try_acquire() {}
        for _ in 0..config.probes_to_close {
            b.on_success();
        }
        prop_assert_eq!(b.state(), BreakerState::Closed);
        prop_assert_eq!(b.trips, 2);
        prop_assert_eq!(b.recoveries, 1);
    }

    #[test]
    fn retry_accounting_is_exact(
        max_retries in 0usize..6,
        backoff_base in 0u64..1_000,
        backoff_factor in 0u64..5,
        fail_first in 0usize..10,
    ) {
        let policy = RetryPolicy { max_retries, backoff_base, backoff_factor };
        let (result, log) = retry_with_backoff(&policy, |attempt| {
            if attempt < fail_first { Err(attempt) } else { Ok(attempt) }
        });
        prop_assert!(log.attempts >= 1 && log.attempts <= max_retries + 1);
        match result {
            Ok(a) => {
                prop_assert_eq!(a, fail_first);
                prop_assert_eq!(log.attempts, fail_first + 1);
            }
            Err(_) => prop_assert_eq!(log.attempts, max_retries + 1),
        }
        // Backoff total matches the policy's closed form.
        let expected: u64 = (0..log.attempts.saturating_sub(1))
            .map(|r| policy.backoff_cost(r))
            .fold(0u64, u64::saturating_add);
        prop_assert_eq!(log.backoff_cost, expected);
    }

    #[test]
    fn quarantine_bounded_and_seed_deterministic(
        capacity in 0usize..12,
        seed in 0u64..1_000,
        labels in proptest::collection::vec(0usize..6, 0..80),
    ) {
        let mut a = QuarantineBuffer::new(capacity, seed);
        let mut b = QuarantineBuffer::new(capacity, seed);
        for (i, &label) in labels.iter().enumerate() {
            let ex = TextExample { tokens: vec![format!("TOK_{i}")], label };
            a.offer(ex.clone());
            b.offer(ex);
            // Capacity is a hard bound at every step, and below capacity
            // nothing is ever evicted.
            prop_assert!(a.len() <= capacity);
            prop_assert_eq!(a.len(), capacity.min(i + 1));
        }
        // Same seed, same offer stream → identical retained set.
        prop_assert_eq!(a.items(), b.items());
        prop_assert_eq!(a.offered(), labels.len() as u64);
        prop_assert_eq!(a.evicted(), labels.len() as u64 - a.len() as u64);
        // Draining empties the buffer and restarts the reservoir epoch.
        let drained = a.drain();
        prop_assert_eq!(drained.len(), capacity.min(labels.len()));
        prop_assert!(a.is_empty());
        prop_assert_eq!(a.offered(), 0);
    }

    #[test]
    fn page_hinkley_never_trips_on_iid_stream(
        base in 200i64..1_500,
        warmup in 1u64..32,
        lambda in 500i64..10_000,
        noise in proptest::collection::vec(-200i64..=200, 0..400),
    ) {
        // With delta at least the stream's worst-case deviation from the
        // running mean (noise ±200 around a fixed base, so |x − mean| is
        // always < 500 once the integer mean is seeded), every cumulative
        // increment is negative: an i.i.d. stream can never trip the test,
        // at any lambda — the false-positive bound drift detection rests on.
        let mut ph = PageHinkley::new(500, lambda, warmup);
        for &n in &noise {
            prop_assert!(!ph.update(base + n));
            prop_assert_eq!(ph.level_milli(), 0);
        }
        prop_assert!(!ph.tripped());
    }

    #[test]
    fn drift_fault_config_validate_accepts_exactly_its_domain(
        mix_shift in prop_oneof![
            4 => -2.0f64..2.0,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
        ],
        label_flip_chance in prop_oneof![
            4 => -2.0f64..2.0,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
        ],
        onset_burst in 0usize..100,
        seed in 0u64..1_000,
    ) {
        let cfg = DriftFaultConfig { onset_burst, mix_shift, label_flip_chance, seed };
        let in_domain =
            |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
        match cfg.validate() {
            Ok(()) => {
                prop_assert!(in_domain(mix_shift) && in_domain(label_flip_chance));
            }
            Err(FaultError::OutOfRange { fields }) => {
                // Exactly the offending fields, in declaration order.
                let mut expected = Vec::new();
                if !in_domain(mix_shift) {
                    expected.push("mix_shift");
                }
                if !in_domain(label_flip_chance) {
                    expected.push("label_flip_chance");
                }
                let got: Vec<&str> = fields.iter().map(|(name, _)| *name).collect();
                prop_assert_eq!(got, expected);
            }
        }
    }
}

/// Tokens the serve fixture's vocabulary is built from.
const FIXTURE_TOKENS: [&str; 7] =
    ["PORT_53", "PORT_443", "IP4", "PROTO_UDP", "PROTO_TCP", "LEN_64", "TTL_64"];

/// A tiny fine-tuned classifier plus a pool of serve requests with unique
/// flow ids. Built once: the encoder is randomly initialized directly (no
/// pretraining — batching identity does not care how good the weights are)
/// and fine-tuned for one epoch so the head is non-degenerate.
fn serve_fixture() -> &'static (FmClassifier, Vec<ServeRequest>) {
    static FIXTURE: OnceLock<(FmClassifier, Vec<ServeRequest>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let seqs: Vec<Vec<String>> = vec![FIXTURE_TOKENS.iter().map(|t| t.to_string()).collect()];
        let vocab = Vocab::from_sequences(&seqs, 1);
        let config = EncoderConfig {
            vocab: vocab.len(),
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 32,
        };
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let fm = FoundationModel { encoder: Encoder::new(&mut rng, config), vocab, max_len: 32 };
        let train: Vec<TextExample> = (0..8)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 1, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        // Request pool: varied lengths (1..=40 tokens, some past max_len so
        // clamping is exercised), unique flow ids for response matching.
        let pool: Vec<ServeRequest> = (0..24)
            .map(|i| {
                let len = 1 + (i * 7) % 40;
                let tokens: Vec<String> = (0..len)
                    .map(|j| FIXTURE_TOKENS[(i + j) % FIXTURE_TOKENS.len()].to_string())
                    .collect();
                ServeRequest { flow: i, tokens, tasks: TaskSet::ALL }
            })
            .collect();
        (clf, pool)
    })
}

/// One step of a serve-engine fault schedule.
#[derive(Debug, Clone)]
enum ServeRound {
    /// NaN-poison every encoder weight (model failures, breaker trips).
    Poison,
    /// Restore the original weights (half-open probes recover).
    Heal,
    /// Submit the given pool indices, then drain the queue.
    Traffic(Vec<usize>),
}

fn arb_serve_round(pool_len: usize) -> impl Strategy<Value = ServeRound> {
    prop_oneof![
        1 => Just(ServeRound::Poison),
        1 => Just(ServeRound::Heal),
        4 => proptest::collection::vec(0..pool_len, 1..12).prop_map(ServeRound::Traffic),
    ]
}

fn arb_serve_config() -> impl Strategy<Value = ServeConfig> {
    (
        (2usize..=16, 0usize..16, prop_oneof![Just(u64::MAX), 0u64..400_000]),
        (1usize..5, 1usize..6, 1usize..3),
        prop_oneof![Just(u64::MAX), Just(2_000_000u64), 10_000u64..300_000],
    )
        .prop_map(|((cap, mark, bcb), (thresh, cool, probes), deadline)| ServeConfig {
            queue_capacity: cap,
            shed_watermark: mark,
            deadline_budget: deadline,
            batch_cost_budget: bcb,
            breaker: BreakerConfig {
                failure_threshold: thresh,
                cooldown: cool,
                probes_to_close: probes,
            },
            ..ServeConfig::default()
        })
}

/// Apply one fault-schedule round to an engine; traffic rounds return the
/// drained responses.
fn apply_round(
    engine: &mut ServeEngine,
    round: &ServeRound,
    pool: &[ServeRequest],
    snapshot: &[Vec<f32>],
) -> Vec<Response> {
    match round {
        ServeRound::Poison => {
            engine.model_mut().encoder.visit_params(&mut |p, _| p.fill(f32::NAN));
            Vec::new()
        }
        ServeRound::Heal => {
            let mut slot = 0usize;
            engine.model_mut().encoder.visit_params(&mut |p, _| {
                p.copy_from_slice(&snapshot[slot]);
                slot += 1;
            });
            Vec::new()
        }
        ServeRound::Traffic(idxs) => {
            for &i in idxs {
                engine.submit(pool[i].clone());
            }
            engine.drain_queue()
        }
    }
}

proptest! {
    // Each case runs several full forward passes; keep the case count
    // moderate so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for every batch size, batch cost budget,
    /// deadline, breaker configuration, and fault schedule, the
    /// micro-batched serving path answers bitwise identically —
    /// flow-for-flow, cost-for-cost — to the unbatched path, and to
    /// repeated [`ServeEngine::serve_one`] over the admitted requests.
    #[test]
    fn batched_serving_is_bitwise_identical_to_unbatched(
        config in arb_serve_config(),
        max_batch in 1usize..=8,
        rounds in proptest::collection::vec(arb_serve_round(24), 1..6),
    ) {
        let (clf, pool) = serve_fixture();
        let snapshot: Vec<Vec<f32>> = {
            let mut params = Vec::new();
            let mut clf = clf.clone();
            clf.encoder.visit_params(&mut |p, _| params.push(p.to_vec()));
            params
        };
        let mk = |max_batch: usize| {
            ServeEngine::new(
                clf.clone(),
                Fallback::Majority(MajorityBaseline::fit(&[], 2)),
                ServeConfig { max_batch, ..config },
            )
        };
        let mut batched = mk(max_batch);
        let mut single = mk(1);
        let mut hedged = mk(1); // answers via serve_one, no queue
        let mut responses_batched = Vec::new();
        let mut responses_single = Vec::new();
        let mut responses_hedged = Vec::new();
        for round in &rounds {
            let rb = apply_round(&mut batched, round, pool, &snapshot);
            let rs = apply_round(&mut single, round, pool, &snapshot);
            // The hedged engine replays exactly the requests the single
            // engine admitted this round (shedding happens at submit time,
            // which serve_one bypasses).
            if let ServeRound::Traffic(_) = round {
                for r in &rs {
                    responses_hedged.push(hedged.serve_one(pool[r.flow].clone()));
                }
            } else {
                apply_round(&mut hedged, round, pool, &snapshot);
            }
            responses_batched.extend(rb);
            responses_single.extend(rs);
        }
        prop_assert_eq!(&responses_batched, &responses_single,
            "batched vs unbatched responses");
        prop_assert_eq!(batched.stats(), single.stats(), "batched vs unbatched stats");
        prop_assert_eq!(&responses_hedged, &responses_single, "serve_one vs drained responses");
        // Sanity: the schedule space actually produces model answers.
        let model_answers = responses_single
            .iter()
            .filter(|r| r.responder == Responder::Model)
            .count();
        prop_assert!(model_answers <= responses_single.len());
    }
}

/// Shared backbone + per-task heads for the multi-task fan-out proptest.
/// Class counts differ across tasks so head costs and argmax ranges differ.
fn multitask_fixture() -> &'static (FmBackbone, Vec<TaskHead>, Vec<ServeRequest>) {
    static FIXTURE: OnceLock<(FmBackbone, Vec<TaskHead>, Vec<ServeRequest>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (clf, pool) = serve_fixture();
        let backbone = clf.backbone();
        let cfg = FineTuneConfig { epochs: 1, ..FineTuneConfig::default() };
        let heads: Vec<TaskHead> = [("alpha", 2usize), ("beta", 3), ("gamma", 4)]
            .iter()
            .map(|&(name, n)| {
                let train: Vec<TextExample> = (0..9)
                    .map(|i| TextExample {
                        tokens: vec![FIXTURE_TOKENS[i % FIXTURE_TOKENS.len()].to_string()],
                        label: i % n,
                    })
                    .collect();
                TaskHead::fine_tune(&backbone, name, &train, n, &cfg)
                    .expect("head fine-tuning failed")
            })
            .collect();
        (backbone, heads, pool.clone())
    })
}

/// One step of a multi-task fault schedule.
#[derive(Debug, Clone)]
enum FanoutRound {
    /// NaN-poison one task's head (that lane fails; others are untouched).
    PoisonHead(usize),
    /// Restore one task's original head weights.
    HealHead(usize),
    /// Submit pool requests with the given per-request task masks, then
    /// drain every lane.
    Traffic(Vec<(usize, u64)>),
}

fn arb_fanout_round(pool_len: usize, n_tasks: usize) -> impl Strategy<Value = FanoutRound> {
    let full = (1u64 << n_tasks) - 1;
    prop_oneof![
        1 => (0..n_tasks).prop_map(FanoutRound::PoisonHead),
        1 => (0..n_tasks).prop_map(FanoutRound::HealHead),
        4 => proptest::collection::vec((0..pool_len, 1..=full), 1..12)
            .prop_map(FanoutRound::Traffic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The multi-task tentpole invariant: for every serving configuration,
    /// random per-request task subset, and per-head fault schedule, the
    /// shared-encoder fan-out server answers every task bitwise identically
    /// — flow-for-flow, cost-for-cost, stat-for-stat — to K independent
    /// single-task engines fed the same per-task request streams.
    #[test]
    fn multitask_fanout_is_bitwise_identical_to_independent_engines(
        config in arb_serve_config(),
        max_batch in 1usize..=8,
        rounds in proptest::collection::vec(arb_fanout_round(24, 3), 1..6),
    ) {
        let (backbone, heads, pool) = multitask_fixture();
        let config = ServeConfig { max_batch, ..config };
        let n_tasks = heads.len();
        let poisoned: Vec<TaskHead> = heads
            .iter()
            .map(|h| {
                let mut bad = h.clone();
                bad.network_mut().visit_params(&mut |p, _| p.fill(f32::NAN));
                bad
            })
            .collect();
        let mut server = MultiTaskServer::new(
            backbone.clone(),
            heads
                .iter()
                .map(|h| (h.clone(), Fallback::Majority(MajorityBaseline::fit(&[], h.n_classes))))
                .collect(),
            config,
        );
        let mut solo: Vec<ServeEngine> = heads
            .iter()
            .map(|h| {
                ServeEngine::new(
                    backbone.attach(h),
                    Fallback::Majority(MajorityBaseline::fit(&[], h.n_classes)),
                    config,
                )
            })
            .collect();
        let mut fanned: Vec<Vec<Response>> = vec![Vec::new(); n_tasks];
        let mut independent: Vec<Vec<Response>> = vec![Vec::new(); n_tasks];
        for round in &rounds {
            match round {
                FanoutRound::PoisonHead(k) => {
                    server.replace_head(*k, poisoned[*k].clone());
                    solo[*k].replace_model(backbone.attach(&poisoned[*k]));
                }
                FanoutRound::HealHead(k) => {
                    server.replace_head(*k, heads[*k].clone());
                    solo[*k].replace_model(backbone.attach(&heads[*k]));
                }
                FanoutRound::Traffic(items) => {
                    for &(i, mask) in items {
                        let mut req = pool[i].clone();
                        req.tasks = TaskSet::from_mask(mask);
                        // Fan-out side: one submit reaches every selected lane.
                        server.submit(req.clone());
                        // Independent side: each engine sees only its stream.
                        for (k, eng) in solo.iter_mut().enumerate() {
                            if req.tasks.contains(k) {
                                eng.submit(req.clone());
                            }
                        }
                    }
                    for (k, mut r) in server.drain().into_iter().enumerate() {
                        fanned[k].append(&mut r);
                    }
                    for (k, eng) in solo.iter_mut().enumerate() {
                        independent[k].append(&mut eng.drain_queue());
                    }
                }
            }
        }
        for k in 0..n_tasks {
            prop_assert_eq!(&fanned[k], &independent[k],
                "task {} responses diverge from its standalone engine", k);
            prop_assert_eq!(server.task_stats()[k], solo[k].stats(),
                "task {} stats diverge from its standalone engine", k);
        }
    }
}
