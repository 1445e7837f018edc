//! `train`: rounds of one MLM + next-flow pretraining epoch followed by one
//! fine-tuning epoch on a seeded corpus, with the pool at every thread the
//! host has.

use std::time::Instant;

use nfm_core::pipeline::{FineTuneConfig, FmClassifier, FoundationModel, Pooling, TextExample};
use nfm_model::nn::transformer::{Encoder, EncoderConfig};
use nfm_model::pretrain::{pretrain, PretrainConfig};
use nfm_model::vocab::Vocab;
use nfm_tensor::layers::Module;
use nfm_tensor::pool;

use crate::ledger::{counter, pool_calls, Train};
use crate::prep::{pipeline_config, read_corpus, train_tasks, MAX_LEN};
use crate::serving::{load_capture, MAX_BATCH};
use crate::trace::Tracer;
use crate::util::{median, sub_seed};
use crate::Ctx;

/// Full-length sequences per training epoch (pretraining contexts and
/// fine-tuning examples each). Small enough that a round takes ~90 ms, so a
/// run holds hundreds of rounds and its fastest twentieth can fall in the
/// host's unimpeded moments (at 96 sequences a 0.3 s round always spanned
/// contended ones, and ten seeds spread 18%).
const CORPUS_CAP: usize = 32;

/// Rounds per latency window.
const WINDOW_ROUNDS: usize = 1;

/// A training corpus.
pub struct Corpus {
    /// Unlabelled token contexts for pretraining.
    pub contexts: Vec<Vec<String>>,
    /// Labelled examples for fine-tuning.
    pub examples: Vec<TextExample>,
    /// Classes of the fine-tuning task.
    pub n_classes: usize,
}

impl Corpus {
    /// The vocabulary pretraining builds over the contexts.
    pub fn vocab(&self) -> Vocab {
        Vocab::from_sequences(&self.contexts, 1)
    }
}

/// What one round produced.
pub struct Round {
    /// Pretraining epoch, s.
    pub pretrain_s: f64,
    /// Fine-tuning epoch, s.
    pub finetune_s: f64,
    /// Optimizer steps of each.
    pub steps: (u64, u64),
    /// Pool dispatches in the round.
    pub pool_calls: u64,
    /// Every loss finite and the divergence guard never fired.
    pub clean: bool,
}

impl Round {
    /// Step times and pool calls per epoch.
    pub fn facts(&self) -> Train {
        Train {
            pretrain_step_ms: self.pretrain_s * 1e3 / self.steps.0.max(1) as f64,
            finetune_step_ms: self.finetune_s * 1e3 / self.steps.1.max(1) as f64,
            pool_calls_per_epoch: self.pool_calls as f64 / 2.0,
        }
    }
}

/// One pretraining epoch then one fine-tuning epoch; also returns the
/// pretrained encoder.
pub fn round(
    corpus: &Corpus,
    vocab: &Vocab,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Round, Encoder), String> {
    let pc = pipeline_config(sub_seed(seed, 30));
    let enc_cfg = EncoderConfig {
        vocab: vocab.len(),
        d_model: pc.d_model,
        n_heads: pc.n_heads,
        n_layers: pc.n_layers,
        d_ff: pc.d_ff,
        max_len: MAX_LEN,
    };
    let pre_cfg = PretrainConfig { epochs: 1, tasks: train_tasks(), ..pc.pretrain };
    let (steps0, ft0, calls0) = (counter("train.steps"), counter("finetune.steps"), pool_calls());
    let t0 = Instant::now();
    let (encoder, _, stats) = tr
        .span("pretrain", 0, || pretrain(&corpus.contexts, vocab, enc_cfg, &pre_cfg))
        .map_err(|e| format!("pretraining: {e}"))?;
    let pretrain_s = t0.elapsed().as_secs_f64();
    let fm = FoundationModel { encoder, vocab: vocab.clone(), max_len: MAX_LEN };
    let ft = FineTuneConfig {
        epochs: 1,
        pooling: Pooling::Mean,
        seed: sub_seed(seed, 31),
        ..FineTuneConfig::default()
    };
    let t1 = Instant::now();
    let clf = tr
        .span("FmClassifier::fine_tune", 0, || {
            FmClassifier::fine_tune(&fm, &corpus.examples, corpus.n_classes, &ft)
        })
        .map_err(|e| format!("fine-tuning: {e}"))?;
    let finetune_s = t1.elapsed().as_secs_f64();
    let losses_finite = stats.mlm_loss.iter().chain(&stats.next_flow_loss).all(|l| l.is_finite())
        && clf.logits(&corpus.examples[0].tokens).iter().all(|v| v.is_finite());
    let round = Round {
        pretrain_s,
        finetune_s,
        steps: (counter("train.steps") - steps0, counter("finetune.steps") - ft0),
        pool_calls: pool_calls() - calls0,
        clean: losses_finite && stats.guard_events.is_empty(),
    };
    Ok((round, fm.encoder))
}

/// Every parameter's bits, for bitwise comparison.
fn param_bits(encoder: &Encoder) -> Vec<u32> {
    let mut e = encoder.clone();
    let mut bits = Vec::new();
    e.visit_params(&mut |p, _| bits.extend(p.iter().map(|v| v.to_bits())));
    bits
}

fn load_corpus(dir: &std::path::Path) -> Result<Corpus, String> {
    // Full-length sequences only, so every round does the same work
    // whatever the seed.
    let full = MAX_LEN - 2;
    let contexts: Vec<Vec<String>> = read_corpus(&dir.join("contexts.txt"))?
        .into_iter()
        .map(|(_, c)| c)
        .filter(|c| c.len() >= full)
        .take(CORPUS_CAP)
        .collect();
    let examples: Vec<TextExample> = read_corpus(&dir.join("examples.txt"))?
        .into_iter()
        .filter_map(|(l, tokens)| Some(TextExample { tokens, label: l? }))
        .filter(|e| e.tokens.len() >= full)
        .take(CORPUS_CAP)
        .collect();
    if contexts.is_empty() || examples.is_empty() {
        return Err("empty training corpus".into());
    }
    let n_classes = nfm_core::netglue::Task::AppClassification.n_classes();
    Ok(Corpus { contexts, examples, n_classes })
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    // Set-up: load the corpus and build the vocabulary the epochs train
    // against.
    let dir = ctx.dir.clone();
    let mut build = || {
        let corpus = load_corpus(&dir)?;
        let vocab = corpus.vocab();
        Ok((corpus, vocab))
    };
    let (corpus, vocab) = ctx.set_ups(&mut build)?;

    // Gate: the pretrained encoder is bitwise the same at 1 thread and at
    // every thread, and every loss is finite.
    let mut off = Tracer::new(false);
    pool::set_threads(1);
    let (one, one_enc) = round(&corpus, &vocab, ctx.seed, &mut off)?;
    pool::set_threads(ctx.nproc);
    let (all, encoder) = round(&corpus, &vocab, ctx.seed, &mut off)?;
    let reference = param_bits(&encoder);
    ctx.check(param_bits(&one_enc) == reference, "pretrained encoder equal at 1 and nproc threads");
    ctx.check(one.clean && all.clean, "every training loss finite, no guard rollback");

    let budget = ctx.seconds * if ctx.traced { 0.3 } else { 1.0 };
    let t = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < WINDOW_ROUNDS || t.elapsed().as_secs_f64() < budget {
        let (r, enc) = round(&corpus, &vocab, ctx.seed, &mut ctx.tracer)?;
        let ok = r.clean && param_bits(&enc) == reference;
        ctx.ops(1, usize::from(!ok));
        rounds.push(r);
        if !ctx.traced {
            // A set-up block between rounds, outside their timing.
            ctx.setup_block(&mut build)?;
        }
    }
    let n = (corpus.contexts.len() + corpus.examples.len()) as f64;
    let clean = rounds.iter().filter(|r| r.clean).count();
    ctx.accounting("training rounds", rounds.len(), clean, 0, 0);
    if !ctx.traced {
        let lat: Vec<f64> = rounds.iter().map(|r| (r.pretrain_s + r.finetune_s) * 1e6).collect();
        ctx.setup("corpus load and vocabulary build");
        let what = "per round: one pretraining epoch + one fine-tuning epoch";
        ctx.latency(&lat, WINDOW_ROUNDS, what);
        let rates: Vec<f64> = lat.iter().map(|us| n / (us / 1e6)).collect();
        ctx.throughput(
            &rates,
            crate::util::FAST_SHARE,
            &format!("{n} sequences per round / round time, one window per round"),
        );
        ctx.report.put(
            "model_answer_ratio",
            clean as f64 / rounds.len() as f64,
            format!("{clean} of {} rounds with finite losses and no guard rollback", rounds.len()),
        );
        let pre: Vec<f64> = rounds.iter().map(|r| r.pretrain_s).collect();
        let ft: Vec<f64> = rounds.iter().map(|r| r.finetune_s).collect();
        let calls: Vec<f64> = rounds.iter().map(|r| r.pool_calls as f64 / 2.0).collect();
        println!(
            "  pretrain epoch {:.4} s, fine-tune epoch {:.4} s, {:.0} pool.par_map + par_chunks \
             calls per epoch (medians of {} rounds)",
            median(&pre),
            median(&ft),
            median(&calls),
            rounds.len()
        );
        return Ok(());
    }

    // Traced: the training layer from this workload's own rounds; the
    // serving layers replayed on the corpus through the freshly trained
    // classifier.
    let facts: Vec<Train> = rounds.iter().map(Round::facts).collect();
    let med = |f: fn(&Train) -> f64| median(&facts.iter().map(f).collect::<Vec<_>>());
    let train = Train {
        pretrain_step_ms: med(|t| t.pretrain_step_ms),
        finetune_step_ms: med(|t| t.finetune_step_ms),
        pool_calls_per_epoch: med(|t| t.pool_calls_per_epoch),
    };
    crate::ledger::train_rows(ctx, &train, &format!("median of {} rounds", rounds.len()));
    let fm = FoundationModel { encoder, vocab, max_len: MAX_LEN };
    let ft = FineTuneConfig { epochs: 1, pooling: Pooling::Mean, ..FineTuneConfig::default() };
    let clf = FmClassifier::fine_tune(&fm, &corpus.examples, corpus.n_classes, &ft)
        .map_err(|e| format!("fine-tuning: {e}"))?;
    let cap = load_capture(&ctx.dir)?;
    let requests: Vec<_> = corpus
        .contexts
        .iter()
        .enumerate()
        .map(|(i, c)| nfm_core::serve::ServeRequest {
            flow: i,
            tokens: c.clone(),
            tasks: nfm_core::serve::TaskSet::ALL,
        })
        .collect();
    let batches: Vec<Vec<usize>> =
        (0..requests.len()).collect::<Vec<_>>().chunks(MAX_BATCH).map(<[usize]>::to_vec).collect();
    let input = crate::ledger::Input {
        trace: &cap.trace,
        requests: &requests,
        clf: &clf,
        batches: &batches,
    };
    let expected = crate::ledger::reference_classes(&clf, &requests);
    let enc_us = crate::ledger::common(ctx, &input);
    crate::ledger::checkpoint(ctx, &clf)?;
    crate::ledger::serve_replay(ctx, &input, &expected, enc_us);
    crate::fanout::replay(ctx, &input, enc_us);
    crate::cluster::replay(ctx, &cap.trace, &clf)?;
    let (seed, vocab) = (ctx.seed, corpus.vocab());
    let overhead = crate::ledger::overhead(|tr| {
        round(&corpus, &vocab, seed, tr).map_or(f64::NAN, |(r, _)| r.pretrain_s + r.finetune_s)
    });
    ctx.report.put("trace.overhead_ratio", overhead, "traced / untraced time of one round");
    Ok(())
}
