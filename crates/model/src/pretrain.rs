//! Self-supervised pre-training (paper §2, §4.1.4): masked language
//! modelling over packet-token contexts, next-flow prediction (the NSP
//! analogue for traffic), and a DNS query–answer objective — the
//! network-specific pre-training task the paper calls for ("new training
//! tasks may be required to capture the nature of the relationships between
//! a query and its answers").

use std::path::PathBuf;

use nfm_tensor::layers::Module;
use nfm_tensor::loss::{softmax_cross_entropy, IGNORE_INDEX};
use nfm_tensor::matrix::Matrix;
use nfm_tensor::optim::{clip_global_norm, Adam, Schedule};
use nfm_tensor::pool;
use nfm_tensor::scratch::ScratchArena;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{load_train_state, save_train_state, TrainState};
use crate::guard::{GuardConfig, GuardEvent, TrainError, TrainGuard};
use crate::nn::heads::{ClsHead, MlmHead};
use crate::nn::transformer::{Encoder, EncoderConfig};
use crate::vocab::Vocab;

/// Which pre-training objectives are active (experiment E6 sweeps this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskMix {
    /// Masked language modelling.
    pub mlm: bool,
    /// Next-flow prediction (NSP analogue).
    pub next_flow: bool,
    /// DNS query→answer masking.
    pub query_answer: bool,
}

impl Default for TaskMix {
    fn default() -> Self {
        TaskMix { mlm: true, next_flow: true, query_answer: true }
    }
}

impl TaskMix {
    /// MLM only.
    pub fn mlm_only() -> TaskMix {
        TaskMix { mlm: true, next_flow: false, query_answer: false }
    }

    /// Short display name.
    pub fn name(&self) -> String {
        let mut parts = Vec::new();
        if self.mlm {
            parts.push("mlm");
        }
        if self.next_flow {
            parts.push("nfp");
        }
        if self.query_answer {
            parts.push("qa");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// Pre-training hyperparameters.
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    /// Fraction of tokens masked for MLM.
    pub mask_prob: f64,
    /// Epochs over the context corpus.
    pub epochs: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Active objectives.
    pub tasks: TaskMix,
    /// Divergence-detection thresholds and retry policy.
    pub guard: GuardConfig,
    /// Directory for periodic on-disk snapshots (`None` disables).
    pub snapshot_dir: Option<PathBuf>,
    /// Write a snapshot every this many epochs (the final epoch is always
    /// snapshotted when `snapshot_dir` is set).
    pub snapshot_every: usize,
    /// Resume from this snapshot file instead of starting fresh. The rest
    /// of the config must match the run that wrote it; training continues
    /// deterministically, bitwise-identical to an uninterrupted run.
    pub resume_from: Option<PathBuf>,
    /// Fault-injection hook for tests and E14: global batch steps whose
    /// loss is replaced with NaN before the guard check.
    pub inject_nan_at: Vec<u64>,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            mask_prob: 0.15,
            epochs: 3,
            lr: 3e-3,
            batch_size: 8,
            seed: 1,
            tasks: TaskMix::default(),
            guard: GuardConfig::default(),
            snapshot_dir: None,
            snapshot_every: 1,
            resume_from: None,
            inject_nan_at: Vec::new(),
        }
    }
}

/// Per-epoch pre-training statistics.
#[derive(Debug, Clone)]
pub struct PretrainStats {
    /// Mean MLM loss per epoch.
    pub mlm_loss: Vec<f32>,
    /// Mean next-flow loss per epoch (empty when the task is off).
    pub next_flow_loss: Vec<f32>,
    /// Final masked-token top-1 accuracy on the training corpus.
    pub final_mlm_accuracy: f32,
    /// Recovery actions the divergence guard took (empty on a clean run).
    pub guard_events: Vec<GuardEvent>,
    /// The epoch this run resumed from, if it resumed from a snapshot.
    pub resumed_at: Option<usize>,
}

/// Apply BERT masking to an encoded sequence. Positions holding special
/// tokens are never masked. Returns `(input_ids, targets)` where targets is
/// [`IGNORE_INDEX`] at unmasked positions.
///
/// `qa_mode`: when true, positions whose token text carries DNS answer
/// semantics (`ATYPE_*`, `ANCOUNT_*`, `RCODE_*`) are always masked — the
/// query→answer objective.
pub fn mask_sequence(
    rng: &mut StdRng,
    ids: &[usize],
    vocab: &Vocab,
    mask_prob: f64,
    qa_mode: bool,
) -> (Vec<usize>, Vec<usize>) {
    let mut input = ids.to_vec();
    let mut targets = vec![IGNORE_INDEX; ids.len()];
    let mut n_masked = 0;
    for (i, &id) in ids.iter().enumerate() {
        if id < 5 {
            continue; // specials
        }
        let token_text = vocab.token(id);
        let is_answer_token = qa_mode
            && (token_text.starts_with("ATYPE_")
                || token_text.starts_with("ANCOUNT_")
                || token_text.starts_with("RCODE_"));
        // Name tokens (QD_/SNI_/HOST_) carry the long-tail semantics the
        // paper cares about; boost their masking rate so prediction
        // pressure concentrates on them rather than on the frequent
        // header tokens (the MLM analogue of word2vec's subsampling).
        let effective_prob = if token_text.starts_with("QD_")
            || token_text.starts_with("SNI_")
            || token_text.starts_with("HOST_")
        {
            (mask_prob * 2.5).min(0.5)
        } else {
            mask_prob
        };
        if !is_answer_token && !rng.gen_bool(effective_prob) {
            continue;
        }
        targets[i] = id;
        n_masked += 1;
        let roll: f64 = rng.gen();
        input[i] = if roll < 0.8 {
            vocab.mask_id()
        } else if roll < 0.9 {
            rng.gen_range(5..vocab.len())
        } else {
            id
        };
    }
    // Guarantee at least one masked position on non-trivial sequences.
    if n_masked == 0 {
        if let Some(i) = ids.iter().position(|&id| id >= 5) {
            targets[i] = ids[i];
            input[i] = vocab.mask_id();
        }
    }
    (input, targets)
}

/// Wrap a context with `[CLS]` … `[SEP]` and encode, truncating to `max_len`.
pub fn encode_context(vocab: &Vocab, ctx: &[String], max_len: usize) -> Vec<usize> {
    let body = ctx.len().min(max_len.saturating_sub(2));
    let mut ids = Vec::with_capacity(body + 2);
    ids.push(vocab.cls_id());
    for t in &ctx[..body] {
        ids.push(vocab.id(t));
    }
    ids.push(vocab.sep_id());
    ids
}

/// Build a `[CLS]` A `[SEP]` B `[SEP]` pair for next-flow prediction.
///
/// Truncation policy: the token budget after the three specials is
/// `max_len - 3`. Segment A is capped at half the budget; segment B then
/// takes whatever A left unused, so a short A lets a long B run past the
/// half mark (the reverse does not hold — A never exceeds half even when B
/// is short). Degenerate `max_len < 3` still emits the three specials, so
/// the result is `[CLS][SEP][SEP]` and may exceed `max_len`.
pub fn encode_pair(vocab: &Vocab, a: &[String], b: &[String], max_len: usize) -> Vec<usize> {
    let budget = max_len.saturating_sub(3);
    let a_take = a.len().min(budget / 2);
    let b_take = b.len().min(budget - a_take);
    let mut ids = Vec::with_capacity(a_take + b_take + 3);
    ids.push(vocab.cls_id());
    ids.extend(a.iter().take(a_take).map(|t| vocab.id(t)));
    ids.push(vocab.sep_id());
    ids.extend(b.iter().take(b_take).map(|t| vocab.id(t)));
    ids.push(vocab.sep_id());
    ids
}

/// One example's precomputed training inputs. All RNG draws happen on the
/// main thread in example order (the exact stream the sequential loop would
/// consume), so randomness never depends on the thread count.
struct BatchItem {
    /// MLM/QA objective: (masked input, targets).
    mlm: Option<(Vec<usize>, Vec<usize>)>,
    /// Next-flow prediction: (pair encoding, label).
    nfp: Option<(Vec<usize>, usize)>,
}

/// Loss bookkeeping accumulated by one gradient shard.
#[derive(Default)]
struct ShardSums {
    mlm_loss: f64,
    n_mlm: usize,
    nfp_loss: f64,
    n_nfp: usize,
    batch_loss: f64,
    batch_items: usize,
}

/// Gradients for one module, one `Vec<f32>` per parameter in
/// `visit_params` order.
type GradSlots = Vec<Vec<f32>>;

/// Forward/backward a shard of examples on private model replicas,
/// returning accumulated gradients (in `visit_params` order) plus loss
/// sums. Workers never touch the shared models, so shards run concurrently;
/// the caller folds the results in fixed shard order, which makes the
/// summed gradient bitwise identical for any thread count.
fn run_pretrain_shard(
    encoder: &Encoder,
    mlm_head: &MlmHead,
    nfp_head: &ClsHead,
    items: &[BatchItem],
) -> (GradSlots, GradSlots, GradSlots, ShardSums) {
    let mut enc = encoder.clone();
    let mut mlm = mlm_head.clone();
    let mut nfp = nfp_head.clone();
    enc.zero_grad();
    mlm.zero_grad();
    nfp.zero_grad();
    let mut sums = ShardSums::default();
    for item in items {
        if let Some((input, targets)) = &item.mlm {
            let hidden = enc.forward(input);
            let logits = mlm.forward(&hidden);
            let (loss, dlogits) = softmax_cross_entropy(&logits, targets);
            if loss > 0.0 {
                sums.mlm_loss += loss as f64;
                sums.n_mlm += 1;
                sums.batch_loss += loss as f64;
                sums.batch_items += 1;
                let dhidden = mlm.backward(&dlogits);
                enc.backward(&dhidden);
            }
        }
        if let Some((pair, label)) = &item.nfp {
            let hidden = enc.forward(pair);
            let cls = hidden.rows_slice(0, 1);
            let logits = nfp.forward(&cls);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &[*label]);
            sums.nfp_loss += loss as f64;
            sums.n_nfp += 1;
            sums.batch_loss += loss as f64;
            sums.batch_items += 1;
            let dcls = nfp.backward(&dlogits);
            // Scatter dcls back into a full dhidden (only row 0).
            let mut dhidden = Matrix::zeros(hidden.rows(), hidden.cols());
            dhidden.row_mut(0).copy_from_slice(dcls.row(0));
            enc.backward(&dhidden);
        }
    }
    (enc.export_grads(), mlm.export_grads(), nfp.export_grads(), sums)
}

/// Deterministic per-epoch stream seed: mixes the base seed, the epoch, and
/// the guard's retry counter (so a rolled-back epoch replays with a fresh
/// batch order). SplitMix64-style finalizer.
pub fn epoch_seed(seed: u64, epoch: usize, salt: u64) -> u64 {
    let mut z = seed
        ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pre-train an encoder on `contexts` (token sequences in capture order).
/// Returns the trained encoder, the MLM head, and statistics.
///
/// The loop is fault-tolerant: a [`TrainGuard`] checks every optimizer
/// step's loss and pre-clip gradient norm; on NaN/Inf/explosion it rolls
/// the model and optimizers back to the epoch-start snapshot, scales the
/// learning rate down, reshuffles the batch order, and retries (bounded by
/// [`GuardConfig::max_retries`] per epoch). With
/// [`PretrainConfig::snapshot_dir`] set, full training state is written to
/// disk at epoch boundaries; a later run with
/// [`PretrainConfig::resume_from`] continues from that point and finishes
/// with weights bitwise identical to the uninterrupted run.
pub fn pretrain(
    contexts: &[Vec<String>],
    vocab: &Vocab,
    encoder_config: EncoderConfig,
    config: &PretrainConfig,
) -> Result<(Encoder, MlmHead, PretrainStats), TrainError> {
    if contexts.is_empty() {
        return Err(TrainError::NoData);
    }
    // The whole run is one span; its deterministic cost is the MAC delta of
    // the global matmul counter, so the trace carries reproducible work
    // units alongside (histogram-only) wall time.
    let macs = nfm_obs::global().counter("tensor.matmul.macs", nfm_obs::Unit::Macs);
    let macs_at_start = macs.get();
    let mut run_span = nfm_obs::span!("pretrain.run");
    // The init stream is separate from the per-epoch training streams so a
    // resumed run can rebuild identical initial weights without replaying
    // any training randomness.
    let mut init_rng = StdRng::seed_from_u64(config.seed);
    let mut encoder = Encoder::new(&mut init_rng, encoder_config);
    let mut mlm_head = MlmHead::new(&mut init_rng, encoder_config.d_model, vocab.len());
    let mut nfp_head = ClsHead::new(&mut init_rng, encoder_config.d_model, 2);
    let max_len = encoder_config.max_len;

    let encoded: Vec<Vec<usize>> =
        contexts.iter().map(|c| encode_context(vocab, c, max_len)).collect();

    let steps_per_epoch = encoded.len().div_ceil(config.batch_size);
    let total = (steps_per_epoch * config.epochs).max(1);
    let schedule =
        Schedule::WarmupLinear { peak: config.lr, warmup: total / 10 + 1, total: total + 1 };
    let mut opt_enc = Adam::new(schedule);
    let mut opt_mlm = Adam::new(schedule);
    let mut opt_nfp = Adam::new(schedule);

    let mut stats = PretrainStats {
        mlm_loss: Vec::new(),
        next_flow_loss: Vec::new(),
        final_mlm_accuracy: 0.0,
        guard_events: Vec::new(),
        resumed_at: None,
    };

    let mut guard = TrainGuard::new(config.guard);
    let mut lr_scale = 1.0f32;
    let mut total_retries = 0u64;
    let mut global_step = 0u64;
    let mut start_epoch = 0usize;

    if let Some(path) = &config.resume_from {
        let state = load_train_state(path)?;
        encoder = state.encoder;
        mlm_head = state.mlm_head;
        nfp_head = state.nfp_head;
        opt_enc = state.opt_enc;
        opt_mlm = state.opt_mlm;
        opt_nfp = state.opt_nfp;
        lr_scale = state.lr_scale;
        total_retries = state.total_retries;
        global_step = state.global_step;
        start_epoch = state.next_epoch;
        stats.mlm_loss = state.mlm_loss;
        stats.next_flow_loss = state.next_flow_loss;
        stats.resumed_at = Some(start_epoch);
    }

    for epoch in start_epoch..config.epochs {
        let mut attempt = 0usize;
        loop {
            // Last-good snapshot for divergence rollback.
            let snapshot = (
                encoder.clone(),
                mlm_head.clone(),
                nfp_head.clone(),
                opt_enc.clone(),
                opt_mlm.clone(),
                opt_nfp.clone(),
            );
            // Deterministic shuffle from the identity permutation — the
            // order must depend only on (seed, epoch, retries), never on
            // previous epochs, or resumed runs would diverge. The retry
            // counter feeds the seed so a rolled-back epoch sees a
            // different batch order.
            let mut order: Vec<usize> = (0..encoded.len()).collect();
            let mut rng = StdRng::seed_from_u64(epoch_seed(config.seed, epoch, total_retries));
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut epoch_mlm = 0.0f64;
            let mut epoch_nfp = 0.0f64;
            let mut n_mlm = 0usize;
            let mut n_nfp = 0usize;
            let mut tripped: Option<String> = None;
            'batches: for batch in order.chunks(config.batch_size) {
                encoder.zero_grad();
                mlm_head.zero_grad();
                nfp_head.zero_grad();
                // Stage 1 (sequential): draw every random decision in
                // example order, exactly as a fully sequential loop would.
                let mut items: Vec<BatchItem> = Vec::with_capacity(batch.len());
                for &idx in batch {
                    let ids = &encoded[idx];
                    if ids.len() < 3 {
                        continue;
                    }
                    let mlm = (config.tasks.mlm || config.tasks.query_answer).then(|| {
                        let qa = config.tasks.query_answer;
                        let mask_prob = if config.tasks.mlm { config.mask_prob } else { 0.02 };
                        mask_sequence(&mut rng, ids, vocab, mask_prob, qa)
                    });
                    let nfp = (config.tasks.next_flow && encoded.len() > 2).then(|| {
                        // Positive: the temporally-next context. Negative: a
                        // random one.
                        let is_next = rng.gen_bool(0.5);
                        let other = if is_next && idx + 1 < contexts.len() {
                            idx + 1
                        } else {
                            rng.gen_range(0..contexts.len())
                        };
                        let label = usize::from(is_next && other == idx + 1);
                        (encode_pair(vocab, &contexts[idx], &contexts[other], max_len), label)
                    });
                    items.push(BatchItem { mlm, nfp });
                }
                // Stage 2 (parallel): forward/backward each fixed shard on
                // model replicas. Shard boundaries depend only on the item
                // count, never on the thread count. The dispatch is work-
                // gated: a backward pass costs roughly twice the forward,
                // and below the gate the per-batch spawn (plus per-shard
                // model clone + gradient reduction) costs more than it
                // saves, so small batches run inline.
                let batch_work: usize = items
                    .iter()
                    .map(|it| {
                        let mlm_t = it.mlm.as_ref().map_or(0, |(ids, _)| ids.len());
                        let nfp_t = it.nfp.as_ref().map_or(0, |(ids, _)| ids.len());
                        3 * (encoder.inference_cost(mlm_t) + encoder.inference_cost(nfp_t)) as usize
                    })
                    .sum();
                let shards = pool::shard_ranges(items.len(), pool::REDUCE_SHARDS);
                let results = pool::par_map_work(shards.len(), batch_work, |s| {
                    run_pretrain_shard(&encoder, &mlm_head, &nfp_head, &items[shards[s].clone()])
                });
                // Stage 3 (sequential): reduce gradients and loss partials
                // in shard order — a fixed-shape summation tree.
                let mut batch_loss = 0.0f64;
                let mut batch_items = 0usize;
                for (enc_g, mlm_g, nfp_g, sums) in results {
                    encoder.accumulate_grads(&enc_g);
                    mlm_head.accumulate_grads(&mlm_g);
                    nfp_head.accumulate_grads(&nfp_g);
                    epoch_mlm += sums.mlm_loss;
                    n_mlm += sums.n_mlm;
                    epoch_nfp += sums.nfp_loss;
                    n_nfp += sums.n_nfp;
                    batch_loss += sums.batch_loss;
                    batch_items += sums.batch_items;
                }
                let step = global_step;
                global_step += 1;
                let mut check_loss =
                    if batch_items > 0 { (batch_loss / batch_items as f64) as f32 } else { 0.0 };
                if config.inject_nan_at.contains(&step) {
                    check_loss = f32::NAN;
                }
                let mut grad_norm = clip_global_norm(&mut encoder, 5.0);
                grad_norm = grad_norm.max(clip_global_norm(&mut mlm_head, 5.0));
                if config.tasks.next_flow {
                    grad_norm = grad_norm.max(clip_global_norm(&mut nfp_head, 5.0));
                }
                nfm_obs::counter!("train.steps").inc();
                nfm_obs::histogram!(
                    "train.grad_norm_milli",
                    nfm_obs::Unit::Milli,
                    nfm_obs::NORM_EDGES
                )
                .observe((grad_norm as f64 * 1000.0) as u64);
                if let Some(cause) = guard.inspect(check_loss, grad_norm) {
                    tripped = Some(cause);
                    break 'batches;
                }
                opt_enc.step(&mut encoder);
                opt_mlm.step(&mut mlm_head);
                if config.tasks.next_flow {
                    opt_nfp.step(&mut nfp_head);
                }
            }
            if let Some(cause) = tripped {
                attempt += 1;
                total_retries += 1;
                (encoder, mlm_head, nfp_head, opt_enc, opt_mlm, opt_nfp) = snapshot;
                lr_scale *= config.guard.lr_backoff;
                opt_enc.set_lr_scale(lr_scale);
                opt_mlm.set_lr_scale(lr_scale);
                opt_nfp.set_lr_scale(lr_scale);
                nfm_obs::counter!("train.rollbacks").inc();
                nfm_obs::event(
                    "train.guard.rollback",
                    &[
                        ("epoch", nfm_obs::Value::U(epoch as u64)),
                        ("step", nfm_obs::Value::U(global_step - 1)),
                        ("cause", nfm_obs::Value::S(&cause)),
                        ("lr_scale", nfm_obs::Value::F32(lr_scale)),
                    ],
                );
                let action = format!(
                    "rolled back to epoch {epoch} start; lr_scale {lr_scale:.4}; reshuffled"
                );
                guard.record(epoch, global_step - 1, cause, action);
                if attempt > config.guard.max_retries {
                    return Err(TrainError::Diverged { attempts: attempt, log: guard.events });
                }
                continue;
            }
            stats.mlm_loss.push(if n_mlm > 0 { (epoch_mlm / n_mlm as f64) as f32 } else { 0.0 });
            if config.tasks.next_flow {
                stats.next_flow_loss.push(if n_nfp > 0 {
                    (epoch_nfp / n_nfp as f64) as f32
                } else {
                    0.0
                });
            }
            nfm_obs::counter!("train.epochs").inc();
            let mut fields = vec![
                ("epoch", nfm_obs::Value::U(epoch as u64)),
                ("mlm_loss", nfm_obs::Value::F32(*stats.mlm_loss.last().unwrap_or(&0.0))),
            ];
            if config.tasks.next_flow {
                fields.push((
                    "nfp_loss",
                    nfm_obs::Value::F32(*stats.next_flow_loss.last().unwrap_or(&0.0)),
                ));
            }
            nfm_obs::event("train.epoch", &fields);
            break;
        }
        if let Some(dir) = &config.snapshot_dir {
            let every = config.snapshot_every.max(1);
            if (epoch + 1) % every == 0 || epoch + 1 == config.epochs {
                std::fs::create_dir_all(dir)
                    .map_err(nfm_tensor::checkpoint::CheckpointError::from)?;
                let mut state = TrainState {
                    next_epoch: epoch + 1,
                    global_step,
                    total_retries,
                    lr_scale,
                    mlm_loss: stats.mlm_loss.clone(),
                    next_flow_loss: stats.next_flow_loss.clone(),
                    encoder: encoder.clone(),
                    mlm_head: mlm_head.clone(),
                    nfp_head: nfp_head.clone(),
                    opt_enc: opt_enc.clone(),
                    opt_mlm: opt_mlm.clone(),
                    opt_nfp: opt_nfp.clone(),
                };
                save_train_state(&dir.join(format!("snapshot_ep{}.nfmc", epoch + 1)), &mut state)?;
            }
        }
    }

    // Final masked-prediction accuracy over a sample of the corpus, on a
    // dedicated stream so the result is identical whether or not the run
    // was resumed.
    let mut eval_rng = StdRng::seed_from_u64(epoch_seed(config.seed, config.epochs, 0x4556_414C));
    let mut correct = 0usize;
    let mut total_masked = 0usize;
    let sample = encoded.len().min(200);
    // One packed forward per sequence on a shared arena: a single forward
    // over the whole sample gives the same bits but holds every row's
    // activations at once (~8% more peak RSS on the perfbench `train`
    // workload).
    let mut arena = ScratchArena::new();
    for ids in encoded.iter().take(sample) {
        if ids.len() < 3 {
            continue;
        }
        let (input, targets) = mask_sequence(&mut eval_rng, ids, vocab, config.mask_prob, false);
        let (hidden, _) = encoder.forward_inference_batch(&[&input], &mut arena);
        let preds = mlm_head.forward_inference(&hidden).argmax_rows();
        arena.put(hidden);
        for (i, &t) in targets.iter().enumerate() {
            if t != IGNORE_INDEX {
                total_masked += 1;
                if preds[i] == t {
                    correct += 1;
                }
            }
        }
    }
    stats.final_mlm_accuracy =
        if total_masked > 0 { correct as f32 / total_masked as f32 } else { 0.0 };
    stats.guard_events = guard.events;
    run_span.add_cost(macs.get().saturating_sub(macs_at_start));

    Ok((encoder, mlm_head, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_vocab_and_contexts() -> (Vocab, Vec<Vec<String>>) {
        // Deterministic bigram structure: "x_i" is always followed by
        // "y_i" — MLM can learn to fill either from the other.
        let mut contexts = Vec::new();
        for i in 0..120 {
            let k = i % 4;
            let ctx: Vec<String> =
                (0..6).flat_map(|_| vec![format!("x{k}"), format!("y{k}")]).collect();
            contexts.push(ctx);
        }
        let vocab = Vocab::from_sequences(&contexts, 1);
        (vocab, contexts)
    }

    #[test]
    fn masking_respects_specials_and_rate() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let ids = encode_context(&vocab, &contexts[0], 32);
        let mut rng = StdRng::seed_from_u64(1);
        let mut masked_total = 0;
        for _ in 0..100 {
            let (input, targets) = mask_sequence(&mut rng, &ids, &vocab, 0.15, false);
            assert_eq!(input.len(), ids.len());
            // CLS/SEP untouched.
            assert_eq!(input[0], vocab.cls_id());
            assert_eq!(*input.last().unwrap(), vocab.sep_id());
            assert_eq!(targets[0], IGNORE_INDEX);
            for (i, &t) in targets.iter().enumerate() {
                if t != IGNORE_INDEX {
                    masked_total += 1;
                    assert_eq!(t, ids[i], "target restores the original id");
                }
            }
        }
        // ~15% of 12 maskable positions × 100 trials ≈ 180.
        assert!((100..300).contains(&masked_total), "masked {masked_total}");
    }

    #[test]
    fn masking_always_masks_at_least_one() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let ids = encode_context(&vocab, &contexts[0][..1], 8);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let (_, targets) = mask_sequence(&mut rng, &ids, &vocab, 0.01, false);
            assert!(targets.iter().any(|&t| t != IGNORE_INDEX));
        }
    }

    #[test]
    fn qa_mode_masks_answer_tokens() {
        let ctx: Vec<String> = vec![
            "DNS_RESP".into(),
            "QD_com".into(),
            "RCODE_NOERROR".into(),
            "ANCOUNT_2".into(),
            "ATYPE_A".into(),
        ];
        let vocab = Vocab::from_sequences(std::iter::once(&ctx), 1);
        let ids = encode_context(&vocab, &ctx, 16);
        let mut rng = StdRng::seed_from_u64(3);
        let (_, targets) = mask_sequence(&mut rng, &ids, &vocab, 0.0, true);
        // The three answer tokens are always masked (positions 3, 4, 5 after
        // CLS at 0).
        let masked: Vec<usize> = targets
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != IGNORE_INDEX)
            .map(|(i, _)| i)
            .collect();
        let answer_positions: Vec<usize> = ids
            .iter()
            .enumerate()
            .filter(|(_, &id)| {
                let t = vocab.token(id);
                t.starts_with("ATYPE") || t.starts_with("ANCOUNT") || t.starts_with("RCODE")
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(masked, answer_positions);
    }

    #[test]
    fn encode_pair_structure() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let pair = encode_pair(&vocab, &contexts[0], &contexts[1], 32);
        assert_eq!(pair[0], vocab.cls_id());
        assert_eq!(pair.iter().filter(|&&i| i == vocab.sep_id()).count(), 2);
        assert!(pair.len() <= 32);
    }

    #[test]
    fn encode_pair_truncates_overlength_segments() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let long = &contexts[0]; // 12 tokens
        assert!(long.len() >= 10);
        // Both over-length: A capped at half the budget, B takes the rest,
        // and the total exactly fills max_len.
        let pair = encode_pair(&vocab, long, long, 11); // budget 8, half 4
        assert_eq!(pair.len(), 11);
        let seps: Vec<usize> =
            pair.iter().enumerate().filter(|(_, &t)| t == vocab.sep_id()).map(|(i, _)| i).collect();
        assert_eq!(seps, vec![5, 10], "A gets 4 tokens, B gets 4");
        // A's tokens are the first 4 of the segment (prefix truncation).
        for (i, t) in long.iter().take(4).enumerate() {
            assert_eq!(pair[1 + i], vocab.id(t));
        }
    }

    #[test]
    fn encode_pair_short_a_yields_budget_to_b() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let long = &contexts[0];
        let short: Vec<String> = long[..1].to_vec();
        // A has 1 token; B may use the remaining 7 of the 8-token budget.
        let pair = encode_pair(&vocab, &short, long, 11);
        assert_eq!(pair.len(), 11);
        let seps: Vec<usize> =
            pair.iter().enumerate().filter(|(_, &t)| t == vocab.sep_id()).map(|(i, _)| i).collect();
        assert_eq!(seps, vec![2, 10], "B expands into A's unused budget");
        // The reverse is not symmetric: a short B does NOT let A exceed half.
        let pair = encode_pair(&vocab, long, &short, 11);
        let seps: Vec<usize> =
            pair.iter().enumerate().filter(|(_, &t)| t == vocab.sep_id()).map(|(i, _)| i).collect();
        assert_eq!(seps, vec![5, 7], "A stays capped at half");
        assert_eq!(pair.len(), 8);
    }

    #[test]
    fn encode_pair_degenerate_max_len_keeps_specials() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        for max_len in [0, 1, 2, 3] {
            let pair = encode_pair(&vocab, &contexts[0], &contexts[1], max_len);
            assert_eq!(pair, vec![vocab.cls_id(), vocab.sep_id(), vocab.sep_id()], "{max_len}");
        }
    }

    #[test]
    fn pretraining_reduces_mlm_loss_and_beats_chance() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let cfg = EncoderConfig {
            vocab: vocab.len(),
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 16,
        };
        let (_, _, stats) = pretrain(
            &contexts,
            &vocab,
            cfg,
            &PretrainConfig { epochs: 4, tasks: TaskMix::mlm_only(), ..PretrainConfig::default() },
        )
        .expect("pretraining failed");
        let first = stats.mlm_loss[0];
        let last = *stats.mlm_loss.last().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
        // Chance over ~13 vocab entries is ~8%; the bigram structure makes
        // much higher accuracy learnable.
        assert!(stats.final_mlm_accuracy > 0.5, "accuracy {}", stats.final_mlm_accuracy);
    }

    #[test]
    fn next_flow_task_trains() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let cfg = EncoderConfig {
            vocab: vocab.len(),
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 24,
        };
        let (_, _, stats) = pretrain(
            &contexts[..40],
            &vocab,
            cfg,
            &PretrainConfig {
                epochs: 2,
                tasks: TaskMix { mlm: true, next_flow: true, query_answer: false },
                ..PretrainConfig::default()
            },
        )
        .expect("pretraining failed");
        assert_eq!(stats.next_flow_loss.len(), 2);
        assert!(stats.next_flow_loss.iter().all(|l| l.is_finite()));
    }

    fn tiny_cfg(vocab: &Vocab) -> EncoderConfig {
        EncoderConfig {
            vocab: vocab.len(),
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 16,
        }
    }

    fn encoder_bits(enc: &mut Encoder) -> Vec<u32> {
        let mut bits = Vec::new();
        enc.visit_params(&mut |p, _| bits.extend(p.iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn empty_corpus_is_a_typed_error() {
        let (vocab, _) = toy_vocab_and_contexts();
        let result = pretrain(&[], &vocab, tiny_cfg(&vocab), &PretrainConfig::default());
        assert!(matches!(result, Err(TrainError::NoData)));
    }

    #[test]
    fn same_seed_same_weights() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let cfg =
            PretrainConfig { epochs: 2, tasks: TaskMix::mlm_only(), ..PretrainConfig::default() };
        let (mut a, _, _) =
            pretrain(&contexts[..30], &vocab, tiny_cfg(&vocab), &cfg).expect("run a");
        let (mut b, _, _) =
            pretrain(&contexts[..30], &vocab, tiny_cfg(&vocab), &cfg).expect("run b");
        assert_eq!(encoder_bits(&mut a), encoder_bits(&mut b));
    }

    #[test]
    fn pretrain_weights_identical_across_thread_counts() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        // Both objectives on, so MLM and NFP gradients both cross the
        // shard reduction.
        let cfg = PretrainConfig {
            epochs: 2,
            tasks: TaskMix { mlm: true, next_flow: true, query_answer: false },
            ..PretrainConfig::default()
        };
        pool::set_threads(1);
        let (mut seq, _, seq_stats) =
            pretrain(&contexts[..24], &vocab, tiny_cfg(&vocab), &cfg).expect("1-thread run");
        pool::set_threads(4);
        let (mut par, _, par_stats) =
            pretrain(&contexts[..24], &vocab, tiny_cfg(&vocab), &cfg).expect("4-thread run");
        pool::set_threads(0);
        assert_eq!(
            encoder_bits(&mut seq),
            encoder_bits(&mut par),
            "weights must be bitwise identical across thread counts"
        );
        assert_eq!(seq_stats.mlm_loss, par_stats.mlm_loss);
        assert_eq!(seq_stats.next_flow_loss, par_stats.next_flow_loss);
        assert_eq!(seq_stats.final_mlm_accuracy, par_stats.final_mlm_accuracy);
    }

    #[test]
    fn resume_matches_uninterrupted_run_bitwise() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let contexts = &contexts[..30];
        let dir = std::env::temp_dir().join(format!("nfm_resume_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = PretrainConfig {
            epochs: 4,
            tasks: TaskMix::mlm_only(),
            snapshot_dir: Some(dir.clone()),
            snapshot_every: 1,
            ..PretrainConfig::default()
        };
        let (mut full, _, full_stats) =
            pretrain(contexts, &vocab, tiny_cfg(&vocab), &base).expect("uninterrupted run");
        // "Kill" after epoch 2: resume from its snapshot and finish.
        let resumed_cfg = PretrainConfig {
            snapshot_dir: None,
            resume_from: Some(dir.join("snapshot_ep2.nfmc")),
            ..base.clone()
        };
        let (mut resumed, _, resumed_stats) =
            pretrain(contexts, &vocab, tiny_cfg(&vocab), &resumed_cfg).expect("resumed run");
        assert_eq!(resumed_stats.resumed_at, Some(2));
        assert_eq!(
            encoder_bits(&mut full),
            encoder_bits(&mut resumed),
            "resumed weights must be bitwise identical"
        );
        assert_eq!(full_stats.mlm_loss, resumed_stats.mlm_loss);
        assert_eq!(full_stats.final_mlm_accuracy, resumed_stats.final_mlm_accuracy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn guard_recovers_from_injected_nan() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let cfg = PretrainConfig {
            epochs: 2,
            tasks: TaskMix::mlm_only(),
            inject_nan_at: vec![3],
            ..PretrainConfig::default()
        };
        let (_, _, stats) =
            pretrain(&contexts[..30], &vocab, tiny_cfg(&vocab), &cfg).expect("guard recovery");
        assert_eq!(stats.guard_events.len(), 1);
        assert!(stats.guard_events[0].cause.contains("NaN"));
        assert!(stats.guard_events[0].action.contains("lr_scale 0.5"));
        assert_eq!(stats.mlm_loss.len(), 2, "both epochs complete after recovery");
        assert!(stats.mlm_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn persistent_divergence_is_a_typed_error() {
        let (vocab, contexts) = toy_vocab_and_contexts();
        let cfg = PretrainConfig {
            epochs: 2,
            tasks: TaskMix::mlm_only(),
            // Trip every step the first epoch can ever reach.
            inject_nan_at: (0..32).collect(),
            guard: GuardConfig { max_retries: 2, ..GuardConfig::default() },
            ..PretrainConfig::default()
        };
        match pretrain(&contexts[..30], &vocab, tiny_cfg(&vocab), &cfg) {
            Err(TrainError::Diverged { attempts, log }) => {
                assert_eq!(attempts, 3);
                assert_eq!(log.len(), 3);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn epoch_seed_is_stable_and_spreads() {
        assert_eq!(epoch_seed(1, 0, 0), epoch_seed(1, 0, 0));
        assert_ne!(epoch_seed(1, 0, 0), epoch_seed(1, 1, 0));
        assert_ne!(epoch_seed(1, 0, 0), epoch_seed(1, 0, 1));
        assert_ne!(epoch_seed(1, 0, 0), epoch_seed(2, 0, 0));
    }
}
