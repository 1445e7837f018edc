//! The foundation-model pipeline: pretrain on unlabeled traces → fine-tune
//! on a small labeled set → evaluate anywhere. This is the paper's central
//! proposal made concrete.
//!
//! All fallible entry points return typed errors (`PipelineError`) instead
//! of panicking, so operational deployments (the paper's §4.3 concern) can
//! degrade gracefully: empty inputs, diverged training runs, and corrupted
//! checkpoints are reported, never `panic!`ed.

use std::error::Error;
use std::fmt;
use std::path::Path;

use nfm_model::checkpoint::{
    read_cls_head, read_encoder, read_vocab, write_cls_head, write_encoder, write_vocab,
};
use nfm_model::context::{contexts_from_trace, flow_context, ContextStrategy};
use nfm_model::guard::{GuardConfig, TrainError, TrainGuard};
use nfm_model::nn::heads::ClsHead;
use nfm_model::nn::transformer::{Encoder, EncoderConfig, InferError};
use nfm_model::pretrain::{encode_context, epoch_seed, pretrain, PretrainConfig, PretrainStats};
use nfm_model::tokenize::Tokenizer;
use nfm_model::vocab::Vocab;
use nfm_net::capture::Trace;
use nfm_tensor::checkpoint::{
    load_record, save_record, ByteReader, ByteWriter, CheckpointError, KIND_CLASSIFIER, KIND_MODEL,
    KIND_TASK_HEAD,
};
use nfm_tensor::layers::Module;
use nfm_tensor::loss::softmax_cross_entropy;
use nfm_tensor::matrix::Matrix;
use nfm_tensor::optim::{clip_global_norm, Adam, Schedule};
use nfm_tensor::pool as tpool;
use nfm_tensor::scratch::ScratchArena;
use nfm_traffic::dataset::LabeledFlow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Errors surfaced by the pipeline instead of panics.
#[derive(Debug)]
pub enum PipelineError {
    /// No pre-training contexts could be extracted from the given traces.
    NoContexts,
    /// No labeled examples were provided for fine-tuning.
    NoExamples,
    /// Training failed (empty corpus, unrecoverable divergence, snapshot
    /// I/O failure).
    Train(TrainError),
    /// A model file could not be saved or loaded.
    Checkpoint(CheckpointError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NoContexts => {
                write!(f, "no pretraining contexts could be extracted from the given traces")
            }
            PipelineError::NoExamples => {
                write!(f, "no labeled examples provided for fine-tuning")
            }
            PipelineError::Train(e) => write!(f, "training failed: {e}"),
            PipelineError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Train(e) => Some(e),
            PipelineError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrainError> for PipelineError {
    fn from(e: TrainError) -> Self {
        PipelineError::Train(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// Pipeline hyperparameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Model dimension.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Encoder layers.
    pub n_layers: usize,
    /// Feed-forward dimension.
    pub d_ff: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Minimum token frequency for the vocabulary.
    pub min_freq: usize,
    /// Pre-training context strategy.
    pub context: ContextStrategy,
    /// Pre-training configuration.
    pub pretrain: PretrainConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 64,
            max_len: 96,
            min_freq: 2,
            context: ContextStrategy::Flow,
            pretrain: PretrainConfig::default(),
        }
    }
}

/// A pre-trained network foundation model: encoder plus vocabulary.
#[derive(Debug, Clone)]
pub struct FoundationModel {
    /// The pre-trained encoder.
    pub encoder: Encoder,
    /// The vocabulary it was trained with.
    pub vocab: Vocab,
    /// Sequence-length cap.
    pub max_len: usize,
}

impl FoundationModel {
    /// Pre-train a foundation model on unlabeled traces.
    pub fn pretrain_on(
        traces: &[&Trace],
        tokenizer: &dyn Tokenizer,
        config: &PipelineConfig,
    ) -> Result<(FoundationModel, PretrainStats), PipelineError> {
        let mut contexts = Vec::new();
        for trace in traces {
            contexts.extend(contexts_from_trace(
                trace,
                tokenizer,
                config.context,
                config.max_len - 2,
            ));
        }
        if contexts.is_empty() {
            return Err(PipelineError::NoContexts);
        }
        let vocab = Vocab::from_sequences(&contexts, config.min_freq);
        let enc_cfg = EncoderConfig {
            vocab: vocab.len(),
            d_model: config.d_model,
            n_heads: config.n_heads,
            n_layers: config.n_layers,
            d_ff: config.d_ff,
            max_len: config.max_len,
        };
        let (encoder, _mlm, stats) = pretrain(&contexts, &vocab, enc_cfg, &config.pretrain)?;
        Ok((FoundationModel { encoder, vocab, max_len: config.max_len }, stats))
    }

    /// Serialize the model (vocabulary + encoder weights) to a versioned,
    /// checksummed checkpoint file. Writes atomically (tmp + rename).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut w = ByteWriter::new();
        w.put_u64(self.max_len as u64);
        write_vocab(&mut w, &self.vocab);
        let mut encoder = self.encoder.clone();
        write_encoder(&mut w, &mut encoder);
        save_record(path, KIND_MODEL, &w.into_bytes())
    }

    /// Load a model previously written by [`FoundationModel::save`].
    /// Returns a typed error (never panics) on truncation, corruption, or
    /// version mismatch.
    pub fn load(path: &Path) -> Result<FoundationModel, CheckpointError> {
        let payload = load_record(path, KIND_MODEL)?;
        let mut r = ByteReader::new(&payload);
        let max_len = r.get_count()?;
        let vocab = read_vocab(&mut r)?;
        let encoder = read_encoder(&mut r)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after model payload",
                r.remaining()
            )));
        }
        Ok(FoundationModel { encoder, vocab, max_len })
    }

    /// Encode a token sequence to model input ids.
    pub fn encode(&self, tokens: &[String]) -> Vec<usize> {
        encode_context(&self.vocab, tokens, self.max_len)
    }

    /// `[CLS]` embedding for a token sequence.
    pub fn embed(&self, tokens: &[String]) -> Vec<f32> {
        self.encoder.cls_embedding(&self.encode(tokens))
    }
}

/// One labeled training example: a token sequence and its class id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextExample {
    /// Tokens (pre-vocabulary).
    pub tokens: Vec<String>,
    /// Dense class label.
    pub label: usize,
}

/// Convert labeled flows into classification examples with a caller-chosen
/// label extractor (app class, device class, malicious flag, …).
pub fn examples_from_flows(
    flows: &[LabeledFlow],
    tokenizer: &dyn Tokenizer,
    max_tokens: usize,
    label_fn: impl Fn(&LabeledFlow) -> Option<usize>,
) -> Vec<TextExample> {
    flows
        .iter()
        .filter_map(|f| {
            let label = label_fn(f)?;
            let tokens = flow_context(&f.packets, tokenizer, max_tokens);
            if tokens.is_empty() {
                None
            } else {
                Some(TextExample { tokens, label })
            }
        })
        .collect()
}

/// How the per-token hidden states are pooled into one vector for
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pooling {
    /// Use the `[CLS]` (first) position.
    Cls,
    /// Mean over all positions — exposes token geometry directly and is
    /// more robust for small models.
    Mean,
}

/// Fine-tuning hyperparameters.
#[derive(Debug, Clone)]
pub struct FineTuneConfig {
    /// Epochs over the labeled set.
    pub epochs: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// Seed for shuffling and head init.
    pub seed: u64,
    /// Train only the head, keeping the encoder frozen.
    pub freeze_encoder: bool,
    /// Keep the token-embedding table at its pre-trained values (encoder
    /// layers and head still adapt). Preserves the geometry of tokens the
    /// labeled set never contains — important for transfer to independent
    /// datasets.
    pub freeze_embeddings: bool,
    /// Pooling strategy feeding the head.
    pub pooling: Pooling,
    /// Divergence-guard thresholds and retry policy.
    pub guard: GuardConfig,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epochs: 4,
            lr: 1e-3,
            batch_size: 8,
            seed: 7,
            freeze_encoder: false,
            freeze_embeddings: false,
            pooling: Pooling::Cls,
            guard: GuardConfig::default(),
        }
    }
}

/// Argmax with NaN treated as −∞ and ties resolving to the lowest index —
/// a degraded model still yields a deterministic answer.
pub(crate) fn argmax_nan_tolerant(logits: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in logits.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

fn pool(hidden: &Matrix, pooling: Pooling) -> Matrix {
    match pooling {
        Pooling::Cls => hidden.rows_slice(0, 1),
        Pooling::Mean => {
            let mut out = Matrix::zeros(1, hidden.cols());
            for r in 0..hidden.rows() {
                for (o, v) in out.row_mut(0).iter_mut().zip(hidden.row(r)) {
                    *o += v;
                }
            }
            out.scale(1.0 / hidden.rows() as f32);
            out
        }
    }
}

fn unpool(dpooled: &Matrix, rows: usize, pooling: Pooling) -> Matrix {
    let mut dhidden = Matrix::zeros(rows, dpooled.cols());
    match pooling {
        Pooling::Cls => dhidden.row_mut(0).copy_from_slice(dpooled.row(0)),
        Pooling::Mean => {
            let scale = 1.0 / rows as f32;
            for r in 0..rows {
                for (d, v) in dhidden.row_mut(r).iter_mut().zip(dpooled.row(0)) {
                    *d = v * scale;
                }
            }
        }
    }
    dhidden
}

/// Forward/backward a shard of fine-tuning examples on private replicas of
/// the encoder and head, returning accumulated gradients (in `visit_params`
/// order; encoder grads are empty when the encoder is frozen) and the
/// shard's loss sum. The caller reduces shards in fixed order, so the
/// summed gradient is bitwise identical at every thread count.
fn run_fine_tune_shard(
    encoder: &Encoder,
    head: &ClsHead,
    idxs: &[usize],
    encoded: &[(Vec<usize>, usize)],
    pooling: Pooling,
    freeze_encoder: bool,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>, f32) {
    let mut enc = encoder.clone();
    let mut hd = head.clone();
    enc.zero_grad();
    hd.zero_grad();
    let mut loss_sum = 0.0f32;
    for &idx in idxs {
        let (ids, label) = &encoded[idx];
        let hidden = enc.forward(ids);
        let pooled = pool(&hidden, pooling);
        let logits = hd.forward(&pooled);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &[*label]);
        loss_sum += loss;
        let dpooled = hd.backward(&dlogits);
        if !freeze_encoder {
            let dhidden = unpool(&dpooled, hidden.rows(), pooling);
            enc.backward(&dhidden);
        }
    }
    let enc_grads = if freeze_encoder { Vec::new() } else { enc.export_grads() };
    (enc_grads, hd.export_grads(), loss_sum)
}

/// One request's outcome from the deadline-aware logits paths: the logits
/// plus the cost actually spent, or the typed refusal.
pub type CostedLogits = Result<(Vec<f32>, u64), InferError>;

/// A fine-tuned classifier: encoder copy plus classification head.
#[derive(Debug, Clone)]
pub struct FmClassifier {
    /// The (possibly fine-tuned) encoder.
    pub encoder: Encoder,
    head: ClsHead,
    /// Vocabulary shared with the foundation model.
    pub vocab: Vocab,
    /// Sequence cap.
    pub max_len: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Pooling strategy (fixed at fine-tune time).
    pub pooling: Pooling,
}

impl FmClassifier {
    /// Fine-tune `fm` on labeled examples.
    ///
    /// Runs under a [`TrainGuard`]: each optimizer step's mean loss and
    /// pre-clip gradient norm are checked for NaN/Inf/explosion. A tripped
    /// guard rolls the epoch back to its starting weights, halves the
    /// learning rate, and reshuffles; after `guard.max_retries` failed
    /// attempts the run aborts with [`TrainError::Diverged`].
    pub fn fine_tune(
        fm: &FoundationModel,
        examples: &[TextExample],
        n_classes: usize,
        config: &FineTuneConfig,
    ) -> Result<FmClassifier, PipelineError> {
        if examples.is_empty() {
            return Err(PipelineError::NoExamples);
        }
        let mut init_rng = StdRng::seed_from_u64(config.seed);
        let encoder = fm.encoder.clone();
        let head = ClsHead::new(&mut init_rng, encoder.config.d_model, n_classes);
        Self::fine_tune_loop(
            encoder,
            head,
            fm.vocab.clone(),
            fm.max_len,
            examples,
            n_classes,
            config,
        )
    }

    /// Warm-start fine-tuning from an existing classifier: the encoder and
    /// head continue from `base`'s weights instead of a freshly initialized
    /// head. This is the serving-adaptation path — a cluster re-fits its
    /// incumbent model on quarantined + replay traffic without retraining
    /// from the foundation model. Class count and pooling are inherited
    /// from `base` (a head cannot change shape mid-flight), so
    /// `config.pooling` is ignored.
    pub fn fine_tune_from(
        base: &FmClassifier,
        examples: &[TextExample],
        config: &FineTuneConfig,
    ) -> Result<FmClassifier, PipelineError> {
        if examples.is_empty() {
            return Err(PipelineError::NoExamples);
        }
        let mut config = config.clone();
        config.pooling = base.pooling;
        Self::fine_tune_loop(
            base.encoder.clone(),
            base.head.clone(),
            base.vocab.clone(),
            base.max_len,
            examples,
            base.n_classes,
            &config,
        )
    }

    /// The guard-supervised training loop shared by
    /// [`FmClassifier::fine_tune`] (fresh head) and
    /// [`FmClassifier::fine_tune_from`] (warm start).
    fn fine_tune_loop(
        mut encoder: Encoder,
        mut head: ClsHead,
        vocab: Vocab,
        max_len: usize,
        examples: &[TextExample],
        n_classes: usize,
        config: &FineTuneConfig,
    ) -> Result<FmClassifier, PipelineError> {
        // Span cost = MAC delta over the run (deterministic work units).
        let macs = nfm_obs::global().counter("tensor.matmul.macs", nfm_obs::Unit::Macs);
        let macs_at_start = macs.get();
        let mut run_span = nfm_obs::span!("finetune.run");

        let encoded: Vec<(Vec<usize>, usize)> = examples
            .iter()
            .map(|e| (encode_context(&vocab, &e.tokens, max_len), e.label))
            .collect();
        let steps = (encoded.len().div_ceil(config.batch_size) * config.epochs).max(1);
        let schedule =
            Schedule::WarmupLinear { peak: config.lr, warmup: steps / 10 + 1, total: steps + 1 };
        let mut opt_enc = Adam::new(schedule);
        let mut opt_head = Adam::new(schedule);

        let mut guard = TrainGuard::new(config.guard);
        let mut lr_scale = 1.0f32;
        let mut total_retries = 0u64;
        let mut global_step = 0u64;

        for epoch in 0..config.epochs {
            let mut attempt = 0usize;
            loop {
                // Epoch-start snapshot for guard rollback.
                let snapshot =
                    (encoder.clone(), head.clone(), opt_enc.clone(), opt_head.clone(), global_step);
                // Batch order is a pure function of (seed, epoch, retries).
                let mut order: Vec<usize> = (0..encoded.len()).collect();
                let mut rng = StdRng::seed_from_u64(epoch_seed(config.seed, epoch, total_retries));
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let mut tripped: Option<(u64, String)> = None;
                let mut epoch_loss = 0.0f64;
                let mut epoch_steps = 0usize;
                'batches: for batch in order.chunks(config.batch_size) {
                    encoder.zero_grad();
                    head.zero_grad();
                    // Fixed microbatch shards (boundaries depend only on
                    // the batch length) run on replicas in parallel; the
                    // reduction below folds them in shard order. Work-gated:
                    // forward+backward ≈ 3× the inference MACs, and below
                    // the gate the spawn + model-clone + grad-reduce
                    // overhead beats any parallel win.
                    let batch_work: usize = batch
                        .iter()
                        .map(|&idx| 3 * encoder.inference_cost(encoded[idx].0.len()) as usize)
                        .sum();
                    let shards = tpool::shard_ranges(batch.len(), tpool::REDUCE_SHARDS);
                    let results = tpool::par_map_work(shards.len(), batch_work, |s| {
                        run_fine_tune_shard(
                            &encoder,
                            &head,
                            &batch[shards[s].clone()],
                            &encoded,
                            config.pooling,
                            config.freeze_encoder,
                        )
                    });
                    let mut batch_loss = 0.0f32;
                    for (enc_g, head_g, loss) in results {
                        if !config.freeze_encoder {
                            encoder.accumulate_grads(&enc_g);
                        }
                        head.accumulate_grads(&head_g);
                        batch_loss += loss;
                    }
                    let step = global_step;
                    global_step += 1;
                    let mean_loss = batch_loss / batch.len().max(1) as f32;
                    let mut grad_norm = clip_global_norm(&mut head, 5.0);
                    if !config.freeze_encoder {
                        if config.freeze_embeddings {
                            encoder.zero_token_embedding_grads();
                        }
                        grad_norm = grad_norm.max(clip_global_norm(&mut encoder, 5.0));
                    }
                    epoch_loss += mean_loss as f64;
                    epoch_steps += 1;
                    nfm_obs::counter!("finetune.steps").inc();
                    nfm_obs::histogram!(
                        "finetune.grad_norm_milli",
                        nfm_obs::Unit::Milli,
                        nfm_obs::NORM_EDGES
                    )
                    .observe((grad_norm as f64 * 1000.0) as u64);
                    if let Some(cause) = guard.inspect(mean_loss, grad_norm) {
                        tripped = Some((step, cause));
                        break 'batches;
                    }
                    opt_head.step(&mut head);
                    if !config.freeze_encoder {
                        opt_enc.step(&mut encoder);
                    }
                }
                match tripped {
                    None => {
                        nfm_obs::counter!("finetune.epochs").inc();
                        let mean = if epoch_steps > 0 {
                            (epoch_loss / epoch_steps as f64) as f32
                        } else {
                            0.0
                        };
                        nfm_obs::event(
                            "finetune.epoch",
                            &[
                                ("epoch", nfm_obs::Value::U(epoch as u64)),
                                ("mean_loss", nfm_obs::Value::F32(mean)),
                            ],
                        );
                        break;
                    }
                    Some((step, cause)) => {
                        attempt += 1;
                        total_retries += 1;
                        let (e, h, oe, oh, gs) = snapshot;
                        encoder = e;
                        head = h;
                        opt_enc = oe;
                        opt_head = oh;
                        global_step = gs;
                        lr_scale *= config.guard.lr_backoff;
                        opt_enc.set_lr_scale(lr_scale);
                        opt_head.set_lr_scale(lr_scale);
                        nfm_obs::counter!("finetune.rollbacks").inc();
                        nfm_obs::event(
                            "finetune.guard.rollback",
                            &[
                                ("epoch", nfm_obs::Value::U(epoch as u64)),
                                ("step", nfm_obs::Value::U(step)),
                                ("cause", nfm_obs::Value::S(&cause)),
                                ("lr_scale", nfm_obs::Value::F32(lr_scale)),
                            ],
                        );
                        guard.record(
                            epoch,
                            step,
                            cause,
                            format!(
                                "rolled back to epoch {epoch} start; lr_scale {lr_scale:.4}; reshuffled"
                            ),
                        );
                        if attempt > config.guard.max_retries {
                            return Err(PipelineError::Train(TrainError::Diverged {
                                attempts: attempt,
                                log: guard.events,
                            }));
                        }
                    }
                }
            }
        }
        run_span.add_cost(macs.get().saturating_sub(macs_at_start));
        Ok(FmClassifier { encoder, head, vocab, max_len, n_classes, pooling: config.pooling })
    }

    /// Serialize the fine-tuned classifier (vocabulary + encoder + head +
    /// pooling) to a versioned, checksummed checkpoint file. Writes
    /// atomically (tmp + rename). This is the artifact a cluster replica
    /// warm-restarts from.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut w = ByteWriter::new();
        w.put_u64(self.max_len as u64);
        w.put_u64(self.n_classes as u64);
        w.put_u8(match self.pooling {
            Pooling::Cls => 0,
            Pooling::Mean => 1,
        });
        write_vocab(&mut w, &self.vocab);
        let mut encoder = self.encoder.clone();
        write_encoder(&mut w, &mut encoder);
        let mut head = self.head.clone();
        write_cls_head(&mut w, &mut head);
        save_record(path, KIND_CLASSIFIER, &w.into_bytes())
    }

    /// Load a classifier previously written by [`FmClassifier::save`].
    /// Returns a typed error (never panics) on truncation, corruption, or
    /// version mismatch — the contract [`crate::serve::load_classifier_with_retry`]
    /// builds its retry loop on.
    pub fn load(path: &Path) -> Result<FmClassifier, CheckpointError> {
        let payload = load_record(path, KIND_CLASSIFIER)?;
        let mut r = ByteReader::new(&payload);
        let max_len = r.get_count()?;
        let n_classes = r.get_count()?;
        let pooling = match r.get_u8()? {
            0 => Pooling::Cls,
            1 => Pooling::Mean,
            tag => {
                return Err(CheckpointError::Malformed(format!("unknown pooling tag {tag}")));
            }
        };
        let vocab = read_vocab(&mut r)?;
        let encoder = read_encoder(&mut r)?;
        let head = read_cls_head(&mut r)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after classifier payload",
                r.remaining()
            )));
        }
        Ok(FmClassifier { encoder, head, vocab, max_len, n_classes, pooling })
    }

    /// Raw logits for a token sequence.
    pub fn logits(&self, tokens: &[String]) -> Vec<f32> {
        let (logits, _) = self
            .logits_within(tokens, u64::MAX)
            .expect("an unlimited budget covers every [CLS]/[SEP]-framed sequence");
        logits
    }

    /// Predicted class id. NaN logits compare as −∞ (a degraded model
    /// still yields a deterministic answer instead of panicking); ties
    /// resolve to the lowest class index.
    pub fn predict(&self, tokens: &[String]) -> usize {
        argmax_nan_tolerant(&self.logits(tokens))
    }

    /// Deterministic cost of the classification head on one pooled row.
    fn head_cost(&self) -> u64 {
        (self.encoder.config.d_model * self.n_classes) as u64
    }

    /// Deterministic inference cost (multiply-accumulate units) of
    /// classifying a `n_tokens`-token sequence: encoder plus head. The
    /// serving path budgets request deadlines against this proxy, so the
    /// same request costs the same on every run.
    pub fn inference_cost(&self, n_tokens: usize) -> u64 {
        // encode_context adds [CLS]/[SEP] framing; mirror it so callers can
        // budget from raw token counts.
        let t = (n_tokens + 2).min(self.max_len);
        self.encoder.inference_cost(t) + self.head_cost()
    }

    /// Deadline-aware logits: [`Encoder::plan_inference_cost`] plus the
    /// head charge decide up front whether the request fits `budget`; if
    /// it does, one packed forward of a single sequence computes the
    /// logits, and the cost actually spent is reported with them.
    /// Otherwise the typed [`InferError`] comes back without any compute.
    /// Never panics.
    pub fn logits_within(
        &self,
        tokens: &[String],
        budget: u64,
    ) -> Result<(Vec<f32>, u64), InferError> {
        let mut out = self.logits_batch_within(&[tokens], budget, &mut ScratchArena::new());
        out.pop().expect("one outcome per request")
    }

    /// Deadline-aware predict: argmax of [`FmClassifier::logits_within`]
    /// (NaN-tolerant, ties to the lowest class), plus the cost spent.
    pub fn predict_within(
        &self,
        tokens: &[String],
        budget: u64,
    ) -> Result<(usize, u64), InferError> {
        let (logits, spent) = self.logits_within(tokens, budget)?;
        Ok((argmax_nan_tolerant(&logits), spent))
    }

    /// Deadline-aware logits for a whole micro-batch, element-wise bitwise
    /// identical to calling [`FmClassifier::logits_within`] per request
    /// with the same `budget`.
    ///
    /// Requests the budget cannot cover get their exact deterministic
    /// [`InferError`] without holding up the batch; the affordable
    /// remainder runs through one packed
    /// [`Encoder::forward_inference_batch`], and the classifier head runs
    /// as a single GEMM across it, with scratch matrices drawn from
    /// `arena`. Per-request cost accounting is unchanged: each request is
    /// charged its own encoder spend plus the head cost, never a
    /// batch-amortised share.
    pub fn logits_batch_within(
        &self,
        batch: &[&[String]],
        budget: u64,
        arena: &mut ScratchArena,
    ) -> Vec<CostedLogits> {
        let head_cost = self.head_cost();
        let encoded: Vec<Vec<usize>> =
            batch.iter().map(|t| encode_context(&self.vocab, t, self.max_len)).collect();
        // Per-request results are independent of batch composition (the
        // bitwise tests compare packed batches with batches of one), so a
        // big batch can be sharded across workers — one spawn per drain
        // instead of one per kernel — and still produce the same bits at
        // every thread count. The gate is the planned cost of the requests
        // the budget covers: small drains keep the single packed pass and
        // the engine's warm arena.
        let planned: Vec<u64> = encoded
            .iter()
            .filter_map(|ids| self.encoder.plan_inference_cost(ids.len(), budget).ok())
            .collect();
        let threads = tpool::effective_threads().min(planned.len());
        let work = planned.iter().map(|s| s + head_cost).sum::<u64>() as usize;
        let parts = if threads > 1 && work >= tpool::PAR_WORK_MIN {
            let shards = tpool::shard_ranges(encoded.len(), threads);
            tpool::par_map(shards.len(), |s| {
                self.logits_shard(&encoded, shards[s].clone(), budget, &mut ScratchArena::new())
            })
        } else {
            vec![self.logits_shard(&encoded, 0..encoded.len(), budget, arena)]
        };
        let mut results: Vec<Option<CostedLogits>> = (0..batch.len()).map(|_| None).collect();
        for (i, r) in parts.into_iter().flatten() {
            results[i] = Some(r);
        }
        results.into_iter().map(|r| r.expect("every request resolved")).collect()
    }

    /// One plan/pack/pool pass ([`pooled_within`]) over `encoded[range]`
    /// plus one head GEMM across its pooled rows. Returns
    /// `(request_index, outcome)` for every request in the range.
    fn logits_shard(
        &self,
        encoded: &[Vec<usize>],
        range: std::ops::Range<usize>,
        budget: u64,
        arena: &mut ScratchArena,
    ) -> Vec<(usize, CostedLogits)> {
        let head_cost = self.head_cost();
        let start = range.start;
        let pb =
            pooled_within(&self.encoder, self.pooling, &encoded[range], budget, head_cost, arena);
        let mut out: Vec<(usize, CostedLogits)> =
            pb.refused.into_iter().map(|(i, e)| (start + i, Err(e))).collect();
        if !pb.rows.is_empty() {
            let logits = self.head.forward_inference(&pb.pooled);
            out.extend(pb.rows.iter().enumerate().map(|(j, &(i, spent))| {
                (start + i, Ok((logits.row(j).to_vec(), spent + head_cost)))
            }));
        }
        arena.put(pb.pooled);
        out
    }

    /// Predicted class ids for a batch of sequences. Examples are sharded
    /// across the worker pool (inference only reads `&self`), and results
    /// come back in input order, so the output is identical to mapping
    /// [`FmClassifier::predict`] sequentially. The dispatch is work-gated
    /// on the batch's deterministic MAC estimate so small batches skip the
    /// thread-spawn overhead.
    pub fn predict_batch(&self, batch: &[Vec<String>]) -> Vec<usize> {
        let work: usize = batch.iter().map(|t| self.inference_cost(t.len()) as usize).sum();
        tpool::par_map_work(batch.len(), work, |i| self.predict(&batch[i]))
    }

    /// Softmax class probabilities.
    pub fn probabilities(&self, tokens: &[String]) -> Vec<f32> {
        let mut m = Matrix::from_vec(1, self.n_classes, self.logits(tokens));
        m.softmax_rows();
        m.row(0).to_vec()
    }

    /// Pooled embedding (pre-head), used by the OOD detectors. Uses the
    /// same pooling the head was trained with.
    pub fn embed(&self, tokens: &[String]) -> Vec<f32> {
        let ids = [encode_context(&self.vocab, tokens, self.max_len)];
        let mut arena = ScratchArena::new();
        pooled_within(&self.encoder, self.pooling, &ids, u64::MAX, 0, &mut arena)
            .pooled
            .row(0)
            .to_vec()
    }

    /// Evaluate on examples, returning the confusion matrix. Predictions
    /// run example-parallel; the confusion matrix accumulates integer
    /// counts, so the result never depends on the thread count.
    pub fn evaluate(&self, examples: &[TextExample]) -> crate::metrics::Confusion {
        let work: usize =
            examples.iter().map(|e| self.inference_cost(e.tokens.len()) as usize).sum();
        let preds =
            tpool::par_map_work(examples.len(), work, |i| self.predict(&examples[i].tokens));
        let mut c = crate::metrics::Confusion::new(self.n_classes);
        for (e, p) in examples.iter().zip(preds) {
            c.add(e.label, p);
        }
        c
    }

    /// The shared backbone view of this classifier — its encoder,
    /// vocabulary, sequence cap, and pooling, cloned without the head.
    /// Heads fine-tuned against this backbone ([`TaskHead::fine_tune`])
    /// share one encoder forward at serving time
    /// ([`crate::serve::MultiTaskServer`]).
    pub fn backbone(&self) -> FmBackbone {
        FmBackbone {
            encoder: self.encoder.clone(),
            vocab: self.vocab.clone(),
            max_len: self.max_len,
            pooling: self.pooling,
        }
    }
}

/// The shared half of a multi-task deployment: the pre-trained encoder,
/// its vocabulary, the sequence cap, and the pooling strategy every task
/// head reads its embedding through. [`TaskHead`]s are trained against a
/// *frozen* backbone, so serving K tasks costs one encoder forward plus K
/// head GEMMs instead of K encoder forwards — the paper's amortization
/// argument (§3) made operational by [`crate::serve::MultiTaskServer`].
#[derive(Debug, Clone)]
pub struct FmBackbone {
    /// The shared encoder. Frozen with respect to task heads: head-only
    /// fine-tuning never updates it.
    pub encoder: Encoder,
    /// Vocabulary shared by every task.
    pub vocab: Vocab,
    /// Sequence cap.
    pub max_len: usize,
    /// Pooling strategy every head reads the hidden states through.
    pub pooling: Pooling,
}

/// The packed pooled embeddings for one micro-batch, produced by
/// [`FmBackbone::pooled_batch_within`]. `pooled` is drawn from the
/// caller's [`ScratchArena`]; return it with [`ScratchArena::put`] once
/// the task heads have consumed it.
#[derive(Debug)]
pub struct PooledBatch {
    /// Arena-backed pooled embeddings, one row per affordable request.
    pub pooled: Matrix,
    /// `(request index, encoder cost spent)` for each row of `pooled`.
    pub rows: Vec<(usize, u64)>,
    /// Requests the budget could not cover, with their typed refusals.
    pub refused: Vec<(usize, InferError)>,
}

impl FmBackbone {
    /// Wrap a pre-trained foundation model as a serving backbone with the
    /// pooling its heads will be trained with.
    pub fn from_model(fm: &FoundationModel, pooling: Pooling) -> FmBackbone {
        FmBackbone {
            encoder: fm.encoder.clone(),
            vocab: fm.vocab.clone(),
            max_len: fm.max_len,
            pooling,
        }
    }

    /// Model dimension of the shared encoder.
    pub fn d_model(&self) -> usize {
        self.encoder.config.d_model
    }

    /// Deterministic encoder cost (multiply-accumulate units) of embedding
    /// an `n_tokens`-token sequence, mirroring the `[CLS]`/`[SEP]` framing
    /// `encode_context` adds — the shared, paid-once part of
    /// [`FmClassifier::inference_cost`].
    pub fn encoder_cost(&self, n_tokens: usize) -> u64 {
        let t = (n_tokens + 2).min(self.max_len);
        self.encoder.inference_cost(t)
    }

    /// Reattach a task head, producing the single-task classifier a
    /// standalone [`crate::serve::ServeEngine`] would serve. Because heads
    /// are trained with the encoder frozen, this reconstructs exactly the
    /// classifier head-only fine-tuning produced — the identity `exp_e19`
    /// and the multi-task proptests assert bitwise.
    pub fn attach(&self, head: &TaskHead) -> FmClassifier {
        FmClassifier {
            encoder: self.encoder.clone(),
            head: head.head.clone(),
            vocab: self.vocab.clone(),
            max_len: self.max_len,
            n_classes: head.n_classes,
            pooling: self.pooling,
        }
    }

    /// Run the shared encoder once for a whole micro-batch and pool each
    /// request's hidden states, under a per-request deadline `budget`.
    ///
    /// Requests the budget cannot cover ([`Encoder::plan_inference_cost`])
    /// surface their exact deterministic [`InferError`] in `refused`
    /// without holding up the batch. The affordable remainder runs through
    /// one packed [`Encoder::forward_inference_batch`], and every row of
    /// `pooled` is bitwise identical to what [`FmClassifier::logits_within`]
    /// pools for that request.
    pub fn pooled_batch_within(
        &self,
        batch: &[&[String]],
        budget: u64,
        arena: &mut ScratchArena,
    ) -> PooledBatch {
        let encoded: Vec<Vec<usize>> =
            batch.iter().map(|t| encode_context(&self.vocab, t, self.max_len)).collect();
        pooled_within(&self.encoder, self.pooling, &encoded, budget, 0, arena)
    }
}

/// Plan, pack and pool one micro-batch of encoded sequences: the inference
/// core shared by [`FmClassifier`] and [`FmBackbone`].
///
/// Each sequence is first checked against `budget` without compute
/// ([`Encoder::plan_inference_cost`], then `head_cost` for the head that
/// will read its pooled row), so requests the budget cannot cover get their
/// exact deterministic [`InferError`] in `refused`. The affordable
/// remainder runs through one packed [`Encoder::forward_inference_batch`],
/// and each row is pooled straight off the packed hidden states with the
/// per-element operations [`pool`] applies in training (CLS copy, or
/// ascending-row sum then scale), so the same bits without the copies.
/// `pooled` comes from `arena`; the caller retires it.
fn pooled_within(
    encoder: &Encoder,
    pooling: Pooling,
    encoded: &[Vec<usize>],
    budget: u64,
    head_cost: u64,
    arena: &mut ScratchArena,
) -> PooledBatch {
    let mut rows = Vec::with_capacity(encoded.len());
    let mut refused = Vec::new();
    for (i, ids) in encoded.iter().enumerate() {
        match encoder.plan_inference_cost(ids.len(), budget) {
            Err(e) => refused.push((i, e)),
            Ok(spent) if spent + head_cost > budget => {
                refused
                    .push((i, InferError::DeadlineExceeded { spent, needed: head_cost, budget }));
            }
            Ok(spent) => rows.push((i, spent)),
        }
    }
    let mut pooled = arena.take(rows.len(), encoder.config.d_model);
    if !rows.is_empty() {
        let seqs: Vec<&[usize]> = rows.iter().map(|&(i, _)| encoded[i].as_slice()).collect();
        let (hidden, bounds) = encoder.forward_inference_batch(&seqs, arena);
        for (j, span) in bounds.windows(2).enumerate() {
            let prow = pooled.row_mut(j);
            match pooling {
                Pooling::Cls => prow.copy_from_slice(hidden.row(span[0])),
                Pooling::Mean => {
                    for r in span[0]..span[1] {
                        for (o, v) in prow.iter_mut().zip(hidden.row(r)) {
                            *o += v;
                        }
                    }
                    let inv = 1.0 / (span[1] - span[0]) as f32;
                    for o in prow.iter_mut() {
                        *o *= inv;
                    }
                }
            }
        }
        arena.put(hidden);
    }
    PooledBatch { pooled, rows, refused }
}

/// A lightweight per-task classification head detached from its shared
/// [`FmBackbone`]: the trainable half of the multi-task split. Heads are
/// fine-tuned with the encoder frozen, checkpoint independently
/// ([`nfm_tensor::checkpoint::KIND_TASK_HEAD`]), and can be hot-swapped
/// one at a time — drift on one task refits and rolls out that task's
/// head without touching the backbone or any other task.
#[derive(Debug, Clone)]
pub struct TaskHead {
    /// Task display name (also labels `serve.task.*` telemetry).
    pub name: String,
    head: ClsHead,
    /// Number of classes this head predicts.
    pub n_classes: usize,
    /// Pooling the head was trained with (always its backbone's).
    pub pooling: Pooling,
}

impl TaskHead {
    /// Fine-tune a fresh head for one task against a frozen shared
    /// backbone. This is [`FmClassifier::fine_tune`] with
    /// `freeze_encoder` forced on and the backbone's pooling — the same
    /// training loop, divergence guard, and seeding — so the head that
    /// comes back, reattached via [`FmBackbone::attach`], is bitwise
    /// identical to the classifier head-only fine-tuning produces.
    pub fn fine_tune(
        backbone: &FmBackbone,
        name: &str,
        examples: &[TextExample],
        n_classes: usize,
        config: &FineTuneConfig,
    ) -> Result<TaskHead, PipelineError> {
        if examples.is_empty() {
            return Err(PipelineError::NoExamples);
        }
        let mut config = config.clone();
        config.freeze_encoder = true;
        config.pooling = backbone.pooling;
        let mut init_rng = StdRng::seed_from_u64(config.seed);
        let head = ClsHead::new(&mut init_rng, backbone.d_model(), n_classes);
        let clf = FmClassifier::fine_tune_loop(
            backbone.encoder.clone(),
            head,
            backbone.vocab.clone(),
            backbone.max_len,
            examples,
            n_classes,
            &config,
        )?;
        Ok(TaskHead {
            name: name.to_string(),
            head: clf.head,
            n_classes,
            pooling: backbone.pooling,
        })
    }

    /// Continue training this head (warm start) against the same frozen
    /// backbone — the single-head adaptation path: drift on one task
    /// refits that task's head on quarantined + replay traffic while the
    /// backbone and every other head stay bitwise untouched.
    pub fn fine_tune_from(
        &self,
        backbone: &FmBackbone,
        examples: &[TextExample],
        config: &FineTuneConfig,
    ) -> Result<TaskHead, PipelineError> {
        if examples.is_empty() {
            return Err(PipelineError::NoExamples);
        }
        let mut config = config.clone();
        config.freeze_encoder = true;
        config.pooling = backbone.pooling;
        let clf = FmClassifier::fine_tune_loop(
            backbone.encoder.clone(),
            self.head.clone(),
            backbone.vocab.clone(),
            backbone.max_len,
            examples,
            self.n_classes,
            &config,
        )?;
        Ok(TaskHead {
            name: self.name.clone(),
            head: clf.head,
            n_classes: self.n_classes,
            pooling: backbone.pooling,
        })
    }

    /// Detach the head of an existing fine-tuned classifier (e.g. one
    /// trained with `freeze_encoder` before heads were first-class).
    pub fn from_classifier(clf: &FmClassifier, name: &str) -> TaskHead {
        TaskHead {
            name: name.to_string(),
            head: clf.head.clone(),
            n_classes: clf.n_classes,
            pooling: clf.pooling,
        }
    }

    /// Deterministic head cost in the same multiply-accumulate units as
    /// [`FmClassifier::inference_cost`]: the per-task, paid-per-head part
    /// of a fan-out request.
    pub fn head_cost(&self, d_model: usize) -> u64 {
        (d_model * self.n_classes) as u64
    }

    /// Mutable access to the head network — the chaos hook (mirroring
    /// [`crate::serve::ServeEngine::model_mut`]) fault-injection tests use
    /// to poison per-task weights. Serving code must treat heads as
    /// immutable and roll new ones via
    /// [`crate::serve::MultiTaskServer::replace_head`].
    pub fn network_mut(&mut self) -> &mut ClsHead {
        &mut self.head
    }

    /// Logits for a matrix of pooled embeddings (one request per row), as
    /// one GEMM across the rows — bitwise identical per row to the
    /// single-request head forward inside [`FmClassifier::logits_within`].
    pub fn logits_batch(&self, pooled: &Matrix) -> Matrix {
        self.head.forward_inference(pooled)
    }

    /// Serialize the head (name + class count + pooling + weights) to a
    /// versioned, checksummed [`nfm_tensor::checkpoint::KIND_TASK_HEAD`]
    /// record. Writes atomically (tmp + rename). Orders of magnitude
    /// smaller than a full classifier checkpoint: per-task rollouts ship
    /// only the head.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut w = ByteWriter::new();
        w.put_str(&self.name);
        w.put_u64(self.n_classes as u64);
        w.put_u8(match self.pooling {
            Pooling::Cls => 0,
            Pooling::Mean => 1,
        });
        let mut head = self.head.clone();
        write_cls_head(&mut w, &mut head);
        save_record(path, KIND_TASK_HEAD, &w.into_bytes())
    }

    /// Load a head previously written by [`TaskHead::save`]. Returns a
    /// typed error (never panics) on truncation, corruption, version
    /// mismatch, or a head whose declared class count contradicts its
    /// weight shapes.
    pub fn load(path: &Path) -> Result<TaskHead, CheckpointError> {
        let payload = load_record(path, KIND_TASK_HEAD)?;
        let mut r = ByteReader::new(&payload);
        let name = r.get_str()?;
        let n_classes = r.get_count()?;
        let pooling = match r.get_u8()? {
            0 => Pooling::Cls,
            1 => Pooling::Mean,
            tag => {
                return Err(CheckpointError::Malformed(format!("unknown pooling tag {tag}")));
            }
        };
        let head = read_cls_head(&mut r)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after task-head payload",
                r.remaining()
            )));
        }
        if head.dims().1 != n_classes {
            return Err(CheckpointError::Malformed(format!(
                "task head declares {} classes but its weights produce {}",
                n_classes,
                head.dims().1
            )));
        }
        Ok(TaskHead { name, head, n_classes, pooling })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_model::tokenize::field::FieldTokenizer;
    use nfm_traffic::netsim::{simulate, SimConfig};

    fn tiny_fm() -> (FoundationModel, Trace) {
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
                tasks: nfm_model::pretrain::TaskMix::mlm_only(),
                ..PretrainConfig::default()
            },
            ..PipelineConfig::default()
        };
        let (fm, stats) =
            FoundationModel::pretrain_on(&[&lt.trace], &tok, &cfg).expect("pretraining failed");
        assert!(!stats.mlm_loss.is_empty());
        (fm, lt.trace)
    }

    #[test]
    fn pretrain_produces_usable_model() {
        let (fm, _) = tiny_fm();
        assert!(fm.vocab.len() > 10);
        let emb = fm.embed(&["IP4".to_string(), "PROTO_UDP".to_string()]);
        assert_eq!(emb.len(), 16);
        assert!(emb.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let tok = FieldTokenizer::new();
        let err = FoundationModel::pretrain_on(&[], &tok, &PipelineConfig::default());
        assert!(matches!(err, Err(PipelineError::NoContexts)));

        let (fm, _) = tiny_fm();
        let err = FmClassifier::fine_tune(&fm, &[], 2, &FineTuneConfig::default());
        assert!(matches!(err, Err(PipelineError::NoExamples)));
        // Errors render human-readable messages.
        let msg = format!("{}", PipelineError::NoContexts);
        assert!(msg.contains("contexts"));
    }

    #[test]
    fn model_save_load_round_trip_is_bitwise() {
        let (fm, _) = tiny_fm();
        let dir = std::env::temp_dir().join(format!("nfm_pipeline_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.nfmc");
        fm.save(&path).expect("save");
        let loaded = FoundationModel::load(&path).expect("load");
        assert_eq!(loaded.max_len, fm.max_len);
        assert_eq!(loaded.vocab.len(), fm.vocab.len());
        let toks = vec!["IP4".to_string(), "PROTO_UDP".to_string()];
        let a = fm.embed(&toks);
        let b = loaded.embed(&toks);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "loaded model must be bitwise identical"
        );

        // Corrupting the file yields a typed error, never a panic.
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        assert!(FoundationModel::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classifier_save_load_round_trip_is_bitwise() {
        let (fm, _) = tiny_fm();
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
            &FineTuneConfig { pooling: Pooling::Mean, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        let dir = std::env::temp_dir().join(format!("nfm_clf_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("clf.nfmc");
        clf.save(&path).expect("save");
        let loaded = FmClassifier::load(&path).expect("load");
        assert_eq!(loaded.max_len, clf.max_len);
        assert_eq!(loaded.n_classes, clf.n_classes);
        assert_eq!(loaded.pooling, clf.pooling);
        let toks = &train[0].tokens;
        let (a, b) = (clf.logits(toks), loaded.logits(toks));
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "loaded classifier must be bitwise identical"
        );
        // A foundation-model record is rejected by kind, not mangled.
        let fm_path = dir.join("fm.nfmc");
        fm.save(&fm_path).expect("save fm");
        assert!(matches!(FmClassifier::load(&fm_path), Err(CheckpointError::WrongKind { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn logits_batch_within_matches_logits_within_bitwise() {
        let (fm, _) = tiny_fm();
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let long: Vec<String> = (0..60).map(|i| format!("tok{}", i % 7)).collect();
        let batch: Vec<Vec<String>> = vec![
            vec!["PORT_53".to_string()],
            vec!["IP4".to_string(), "PROTO_UDP".to_string(), "PORT_443".to_string()],
            long, // clamps to max_len
            vec!["PORT_443".to_string(), "PORT_53".to_string()],
        ];
        let refs: Vec<&[String]> = batch.iter().map(|t| t.as_slice()).collect();
        for pooling in [Pooling::Cls, Pooling::Mean] {
            let clf = FmClassifier::fine_tune(
                &fm,
                &train,
                2,
                &FineTuneConfig { pooling, ..FineTuneConfig::default() },
            )
            .expect("fine-tuning failed");
            let mid = clf.inference_cost(batch[0].len());
            let max = clf.inference_cost(60);
            let mut arena = ScratchArena::new();
            // Budgets cover: everything fits, nothing fits, exact-fit
            // boundary, and a mix where short requests fit but long ones
            // exceed the deadline.
            for budget in [u64::MAX, 0, mid, mid - 1, mid + 1, max, max - 1] {
                // Two passes per budget: the second runs on a warm arena.
                for pass in 0..2 {
                    let got = clf.logits_batch_within(&refs, budget, &mut arena);
                    for (i, tokens) in batch.iter().enumerate() {
                        let want = clf.logits_within(tokens, budget);
                        match (&got[i], &want) {
                            (Ok((gl, gc)), Ok((wl, wc))) => {
                                assert_eq!(gc, wc, "cost (req {i}, budget {budget})");
                                assert_eq!(
                                    gl.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                    wl.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                    "logits must be bitwise identical \
                                     (req {i}, budget {budget}, pass {pass})"
                                );
                            }
                            (Err(ge), Err(we)) => {
                                assert_eq!(ge, we, "error (req {i}, budget {budget})");
                            }
                            (g, w) => panic!(
                                "outcome diverged for req {i} at budget {budget}: \
                                 batch={g:?} single={w:?}"
                            ),
                        }
                    }
                }
            }
            assert!(arena.available() > 0, "arena retains warm buffers");
        }
    }

    #[test]
    fn logits_within_is_the_plan_then_one_packed_forward() {
        let (fm, _) = tiny_fm();
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let short = vec!["IP4".to_string(), "PROTO_UDP".to_string()];
        let long: Vec<String> = (0..60).map(|i| format!("tok{}", i % 7)).collect();
        for pooling in [Pooling::Cls, Pooling::Mean] {
            let cfg = FineTuneConfig { pooling, ..FineTuneConfig::default() };
            let clf = FmClassifier::fine_tune(&fm, &train, 2, &cfg).expect("fine-tuning failed");
            // Reference: the training forward on a clone, pooled and headed.
            let reference = |tokens: &[String]| -> Vec<u32> {
                let ids = encode_context(&clf.vocab, tokens, clf.max_len);
                let pooled = pool(&clf.encoder.clone().forward(&ids), clf.pooling);
                clf.head.forward_inference(&pooled).row(0).iter().map(|v| v.to_bits()).collect()
            };
            for tokens in [&short, &long] {
                // An exact budget suffices; over-long input is charged at
                // its clamped length.
                let cost = clf.inference_cost(tokens.len());
                let (logits, spent) = clf.logits_within(tokens, cost).expect("exact budget");
                assert_eq!(spent, cost);
                assert_eq!(
                    logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference(tokens)
                );
                // One unit short fails at the head charge, after the
                // encoder plan fit.
                let err = clf.logits_within(tokens, cost - 1).expect_err("one unit short");
                let head_cost = clf.head_cost();
                assert_eq!(
                    err,
                    InferError::DeadlineExceeded {
                        spent: cost - head_cost,
                        needed: head_cost,
                        budget: cost - 1
                    }
                );
                assert_eq!(clf.logits_within(tokens, cost - 1).unwrap_err(), err);
                let zero = clf.logits_within(tokens, 0).expect_err("zero budget");
                assert!(zero.to_string().contains("deadline exceeded"));
            }
            assert_eq!(clf.inference_cost(long.len()), clf.inference_cost(clf.max_len));
            // An empty sequence is refused by the shared plan, never run.
            let mut arena = ScratchArena::new();
            let pb =
                pooled_within(&clf.encoder, clf.pooling, &[Vec::new()], u64::MAX, 0, &mut arena);
            assert!(pb.rows.is_empty());
            assert_eq!(pb.refused, vec![(0, InferError::EmptyInput)]);
        }
    }

    #[test]
    fn predict_tolerates_nan_logits() {
        let (fm, _) = tiny_fm();
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let mut clf = FmClassifier::fine_tune(&fm, &train, 2, &FineTuneConfig::default())
            .expect("fine-tuning failed");
        // Poison the head so every logit is NaN: predict must still return
        // a deterministic class (0) instead of panicking.
        clf.head.visit_params(&mut |p, _| p.fill(f32::NAN));
        let logits = clf.logits(&train[0].tokens);
        assert!(logits.iter().all(|v| v.is_nan()));
        assert_eq!(clf.predict(&train[0].tokens), 0);
    }

    #[test]
    fn predict_within_budget_agrees_with_predict_and_misses_deadlines() {
        let (fm, _) = tiny_fm();
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(&fm, &train, 2, &FineTuneConfig::default())
            .expect("fine-tuning failed");
        let tokens = &train[0].tokens;
        let cost = clf.inference_cost(tokens.len());
        let (class, spent) = clf.predict_within(tokens, cost).expect("budget covers the cost");
        assert_eq!(class, clf.predict(tokens));
        assert_eq!(spent, cost, "cost model matches metered spend");
        // A budget one unit short is a deterministic deadline miss.
        let err = clf.predict_within(tokens, cost - 1).expect_err("short budget");
        assert!(matches!(err, InferError::DeadlineExceeded { .. }));
        assert_eq!(clf.predict_within(tokens, cost - 1).unwrap_err(), err);
    }

    #[test]
    fn fine_tune_learns_separable_labels() {
        let (fm, _) = tiny_fm();
        // Synthetic separable task over tokens the vocab knows.
        let mk = |t: &str, label: usize| TextExample {
            tokens: vec![t.to_string(), "IP4".to_string(), "PROTO_UDP".to_string()],
            label,
        };
        let train: Vec<TextExample> = (0..30)
            .map(|i| if i % 2 == 0 { mk("PORT_53", 0) } else { mk("PORT_443", 1) })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 8, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        let acc = clf.evaluate(&train).accuracy();
        assert!(acc > 0.9, "training accuracy {acc}");
        let probs = clf.probabilities(&train[0].tokens);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn frozen_encoder_only_trains_head() {
        let (fm, _) = tiny_fm();
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
            &FineTuneConfig { freeze_encoder: true, epochs: 3, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        // Encoder unchanged relative to the foundation model.
        assert_eq!(clf.encoder.token_embeddings().data(), fm.encoder.token_embeddings().data());
    }

    #[test]
    fn mean_pooling_trains_and_differs_from_cls() {
        let (fm, _) = tiny_fm();
        let train: Vec<TextExample> = (0..20)
            .map(|i| TextExample {
                tokens: vec![
                    if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string(),
                    "IP4".to_string(),
                    "PROTO_UDP".to_string(),
                ],
                label: i % 2,
            })
            .collect();
        let cls = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 6, pooling: Pooling::Cls, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        let mean = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 6, pooling: Pooling::Mean, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        // Both learn the trivial rule.
        assert!(cls.evaluate(&train).accuracy() > 0.9);
        assert!(mean.evaluate(&train).accuracy() > 0.9);
        // Embeddings reflect the chosen pooling (different vectors).
        let e_cls = cls.embed(&train[0].tokens);
        let e_mean = mean.embed(&train[0].tokens);
        assert_ne!(e_cls, e_mean);
        assert_eq!(mean.pooling, Pooling::Mean);
    }

    #[test]
    fn frozen_embeddings_table_is_preserved() {
        let (fm, _) = tiny_fm();
        let train: Vec<TextExample> = (0..12)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 4, freeze_embeddings: true, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        // Token table identical to the pre-trained one even though the
        // encoder layers trained.
        assert_eq!(clf.encoder.token_embeddings().data(), fm.encoder.token_embeddings().data());
    }

    #[test]
    fn fine_tune_weights_identical_across_thread_counts() {
        let (fm, _) = tiny_fm();
        let train: Vec<TextExample> = (0..20)
            .map(|i| TextExample {
                tokens: vec![
                    if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string(),
                    "IP4".to_string(),
                ],
                label: i % 2,
            })
            .collect();
        let cfg = FineTuneConfig { epochs: 2, ..FineTuneConfig::default() };
        tpool::set_threads(1);
        let mut seq = FmClassifier::fine_tune(&fm, &train, 2, &cfg).expect("1-thread run");
        tpool::set_threads(4);
        let mut par = FmClassifier::fine_tune(&fm, &train, 2, &cfg).expect("4-thread run");
        tpool::set_threads(0);
        let bits = |c: &mut FmClassifier| {
            let mut out = Vec::new();
            c.encoder.visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            c.head.visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            out
        };
        assert_eq!(
            bits(&mut seq),
            bits(&mut par),
            "fine-tuned weights must be bitwise identical across thread counts"
        );
        // Batched predict agrees with sequential predict, in input order.
        let batch: Vec<Vec<String>> = train.iter().map(|e| e.tokens.clone()).collect();
        let expect: Vec<usize> = train.iter().map(|e| seq.predict(&e.tokens)).collect();
        tpool::set_threads(4);
        let got = par.predict_batch(&batch);
        tpool::set_threads(0);
        assert_eq!(got, expect);
    }

    #[test]
    fn examples_from_flows_respects_label_fn() {
        let lt = simulate(&SimConfig {
            n_sessions: 20,
            n_general_hosts: 3,
            n_iot_sets: 1,
            ..SimConfig::default()
        });
        let flows = nfm_traffic::dataset::extract_flows(&lt, 1);
        let tok = FieldTokenizer::new();
        let all = examples_from_flows(&flows, &tok, 48, |f| Some(f.label.app.id()));
        assert_eq!(all.len(), flows.len());
        let only_dns = examples_from_flows(&flows, &tok, 48, |f| {
            (f.label.app == nfm_traffic::AppClass::Dns).then_some(0)
        });
        assert!(only_dns.len() < all.len());
        assert!(!only_dns.is_empty());
    }

    fn head_train(n_classes: usize) -> Vec<TextExample> {
        (0..12)
            .map(|i| TextExample {
                tokens: vec![format!("PORT_{}", 40 + i % 4), "IP4".to_string()],
                label: i % n_classes,
            })
            .collect()
    }

    #[test]
    fn task_head_fine_tune_matches_frozen_classifier_bitwise() {
        let (fm, _) = tiny_fm();
        let train = head_train(3);
        let cfg = FineTuneConfig {
            epochs: 2,
            freeze_encoder: true,
            pooling: Pooling::Mean,
            ..FineTuneConfig::default()
        };
        // Head-only fine-tuning through the classifier API...
        let clf = FmClassifier::fine_tune(&fm, &train, 3, &cfg).expect("classifier fine-tune");
        // ...and through the backbone/head split.
        let backbone = clf.backbone();
        let head = TaskHead::fine_tune(&backbone, "t", &train, 3, &cfg).expect("head fine-tune");
        let mut reattached = backbone.attach(&head);
        let mut direct = clf;
        let bits = |c: &mut FmClassifier| {
            let mut out = Vec::new();
            c.encoder.visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            c.head.visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            out
        };
        assert_eq!(
            bits(&mut direct),
            bits(&mut reattached),
            "backbone.attach(head) must reconstruct head-only fine-tuning bitwise"
        );
        // The backbone itself is bitwise the pre-trained encoder: freezing
        // really froze it.
        let mut enc_bits = Vec::new();
        let mut fm_enc = fm.encoder.clone();
        fm_enc.visit_params(&mut |p, _| enc_bits.extend(p.iter().map(|v| v.to_bits())));
        let mut bb_bits = Vec::new();
        let mut bb_enc = backbone.encoder.clone();
        bb_enc.visit_params(&mut |p, _| bb_bits.extend(p.iter().map(|v| v.to_bits())));
        assert_eq!(enc_bits, bb_bits);
    }

    #[test]
    fn task_head_save_load_round_trip_is_bitwise() {
        let (fm, _) = tiny_fm();
        let train = head_train(2);
        let cfg = FineTuneConfig { epochs: 1, pooling: Pooling::Mean, ..FineTuneConfig::default() };
        let clf = FmClassifier::fine_tune(&fm, &train, 2, &cfg).expect("fine-tune");
        let backbone = clf.backbone();
        let head = TaskHead::fine_tune(&backbone, "roundtrip", &train, 2, &cfg).expect("head");
        let dir = std::env::temp_dir().join(format!("nfm_task_head_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("head.nfmc");
        head.save(&path).expect("save");
        let loaded = TaskHead::load(&path).expect("load");
        assert_eq!(loaded.name, "roundtrip");
        assert_eq!(loaded.n_classes, 2);
        assert_eq!(loaded.pooling, Pooling::Mean);
        let toks: Vec<String> = vec!["PORT_41".to_string(), "IP4".to_string()];
        let a = backbone.attach(&head).logits_within(&toks, u64::MAX).expect("logits");
        let b = backbone.attach(&loaded).logits_within(&toks, u64::MAX).expect("logits");
        assert_eq!(
            a.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(a.1, b.1);
        // Corruption is a typed error, not a panic.
        let bytes = std::fs::read(&path).expect("read");
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        std::fs::write(&path, &corrupt).expect("write");
        assert!(TaskHead::load(&path).is_err());
        // Truncation too.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
        assert!(TaskHead::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pooled_fanout_matches_logits_within_bitwise() {
        let (fm, _) = tiny_fm();
        let cfg = FineTuneConfig {
            epochs: 1,
            freeze_encoder: true,
            pooling: Pooling::Mean,
            ..FineTuneConfig::default()
        };
        let clf = FmClassifier::fine_tune(&fm, &head_train(2), 2, &cfg).expect("fine-tune");
        let backbone = clf.backbone();
        let heads: Vec<TaskHead> = [("a", 2usize), ("b", 3), ("c", 5)]
            .iter()
            .map(|&(name, n)| {
                TaskHead::fine_tune(&backbone, name, &head_train(n), n, &cfg).expect("head")
            })
            .collect();
        // Varied-length contexts (some past max_len, some unknown tokens)
        // so every budget rung splits the batch differently.
        let contexts: Vec<Vec<String>> = (0..12)
            .map(|i| {
                let len = 1 + (i * 7) % 60;
                (0..len).map(|j| format!("PORT_{}", 40 + (i + j) % 6)).collect()
            })
            .collect();
        let batch: Vec<&[String]> = contexts.iter().map(|t| t.as_slice()).collect();
        // Budget ladder: from refuse-everything to afford-everything.
        let full = backbone.encoder_cost(64) + 1024;
        let d_model = backbone.d_model();
        for budget in [0, backbone.encoder_cost(4), backbone.encoder_cost(12), full] {
            let mut arena = ScratchArena::new();
            let pb = backbone.pooled_batch_within(&batch, budget, &mut arena);
            assert_eq!(pb.rows.len() + pb.refused.len(), batch.len());
            for head in &heads {
                let single = backbone.attach(head);
                let head_cost = head.head_cost(d_model);
                // Refusals carry the exact error logits_within reports.
                for (i, err) in &pb.refused {
                    let want = single.logits_within(&contexts[*i], budget);
                    assert_eq!(want.unwrap_err(), err.clone());
                }
                let logits_m = head.logits_batch(&pb.pooled);
                for (row, &(i, enc_spent)) in pb.rows.iter().enumerate() {
                    let want = single.logits_within(&contexts[i], budget);
                    if enc_spent + head_cost > budget {
                        let err = want.unwrap_err();
                        assert_eq!(
                            err,
                            InferError::DeadlineExceeded {
                                spent: enc_spent,
                                needed: head_cost,
                                budget,
                            }
                        );
                    } else {
                        let (logits, spent) = want.expect("affordable");
                        assert_eq!(spent, enc_spent + head_cost);
                        assert_eq!(
                            logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            logits_m.row(row).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "fan-out logits diverge at budget {budget}"
                        );
                    }
                }
            }
        }
    }
}
