//! Token-sequence generation from a pre-trained MLM — the "generator"
//! downstream family of §3.1 (the paper groups ML-for-networking solutions
//! into "classification, anomaly detection, generator, and reinforcement
//! learning") and a path toward the §4.2 idea of training-data synthesis.
//!
//! Gibbs-style sampling: start from an all-`[MASK]` canvas (optionally with
//! pinned prompt tokens) and iteratively resample positions from the MLM's
//! conditional distributions until the sequence stabilizes.

use nfm_tensor::matrix::Matrix;
use nfm_tensor::scratch::ScratchArena;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::nn::heads::MlmHead;
use crate::nn::transformer::Encoder;
use crate::vocab::Vocab;

/// Generation configuration.
#[derive(Debug, Clone)]
pub struct GenerateConfig {
    /// Number of body tokens to generate (excludes `[CLS]`/`[SEP]`).
    pub length: usize,
    /// Gibbs sweeps over the sequence.
    pub sweeps: usize,
    /// Softmax temperature (1.0 = model distribution; → 0 = greedy).
    pub temperature: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig { length: 16, sweeps: 4, temperature: 0.8, seed: 1 }
    }
}

fn sample_from_logits(rng: &mut StdRng, logits: &[f32], temperature: f32) -> usize {
    if temperature <= 1e-3 {
        // Greedy.
        return logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
    }
    let scaled: Vec<f32> = logits.iter().map(|l| l / temperature).collect();
    let mut m = Matrix::from_vec(1, scaled.len(), scaled);
    m.softmax_rows();
    let u: f32 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in m.row(0).iter().enumerate() {
        acc += p;
        if u <= acc {
            return i;
        }
    }
    m.row(0).len() - 1
}

/// Generate one token sequence. `prompt` pins the first tokens (they are
/// never resampled); the rest of the canvas starts as `[MASK]` and is filled
/// left-to-right on the first sweep, then refined on subsequent sweeps.
/// Special tokens are never sampled into the body.
pub fn generate(
    encoder: &Encoder,
    head: &MlmHead,
    vocab: &Vocab,
    prompt: &[String],
    config: &GenerateConfig,
) -> Vec<String> {
    assert!(config.length >= prompt.len(), "length must cover the prompt");
    let mut rng = StdRng::seed_from_u64(config.seed);
    // The canvas ([CLS] + body + [SEP]) must fit the encoder's context.
    let body = config.length.min(encoder.config.max_len.saturating_sub(2)).max(prompt.len());
    // Canvas: [CLS] t1 … tn [SEP].
    let mut ids: Vec<usize> = Vec::with_capacity(body + 2);
    ids.push(vocab.cls_id());
    for t in prompt {
        ids.push(vocab.id(t));
    }
    for _ in prompt.len()..body {
        ids.push(vocab.mask_id());
    }
    ids.push(vocab.sep_id());

    let first_free = 1 + prompt.len();
    let last = 1 + body; // index of [SEP]
    let mut arena = ScratchArena::new();
    for sweep in 0..config.sweeps.max(1) {
        for pos in first_free..last {
            // Re-mask the position being resampled (except sweep 0, where
            // it's already [MASK]).
            if sweep > 0 {
                ids[pos] = vocab.mask_id();
            }
            let (hidden, _) = encoder.forward_inference_batch(&[&ids], &mut arena);
            let logits = head.forward_inference(&hidden);
            arena.put(hidden);
            // Suppress special tokens.
            let mut row: Vec<f32> = logits.row(pos).to_vec();
            for logit in row.iter_mut().take(5) {
                *logit = f32::NEG_INFINITY;
            }
            ids[pos] = sample_from_logits(&mut rng, &row, config.temperature);
        }
    }
    ids[1..last].iter().map(|&id| vocab.token(id).to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::transformer::EncoderConfig;
    use crate::pretrain::{pretrain, PretrainConfig, TaskMix};

    /// Corpus with a strict alternation grammar: x_k is always followed by
    /// y_k. A trained MLM should generate sequences that mostly respect it.
    fn trained() -> (Encoder, MlmHead, Vocab, Vec<Vec<String>>) {
        let mut contexts = Vec::new();
        for i in 0..150 {
            let k = i % 3;
            let ctx: Vec<String> =
                (0..5).flat_map(|_| vec![format!("x{k}"), format!("y{k}")]).collect();
            contexts.push(ctx);
        }
        let vocab = Vocab::from_sequences(&contexts, 1);
        let cfg = EncoderConfig {
            vocab: vocab.len(),
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 24,
        };
        let (enc, head, _) = pretrain(
            &contexts,
            &vocab,
            cfg,
            &PretrainConfig { epochs: 5, tasks: TaskMix::mlm_only(), ..PretrainConfig::default() },
        )
        .expect("pretraining failed");
        (enc, head, vocab, contexts)
    }

    #[test]
    fn generates_requested_length_without_specials() {
        let (enc, head, vocab, _) = trained();
        let out = generate(&enc, &head, &vocab, &[], &GenerateConfig::default());
        assert_eq!(out.len(), 16);
        for t in &out {
            assert!(!t.starts_with('['), "special token leaked: {t}");
        }
    }

    #[test]
    fn prompt_tokens_are_pinned() {
        let (enc, head, vocab, _) = trained();
        let prompt = vec!["x1".to_string(), "y1".to_string()];
        let out = generate(
            &enc,
            &head,
            &vocab,
            &prompt,
            &GenerateConfig { length: 10, ..GenerateConfig::default() },
        );
        assert_eq!(&out[..2], &prompt[..]);
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let (enc, head, vocab, _) = trained();
        let cfg = GenerateConfig { seed: 42, ..GenerateConfig::default() };
        let a = generate(&enc, &head, &vocab, &[], &cfg);
        let b = generate(&enc, &head, &vocab, &[], &cfg);
        assert_eq!(a, b);
        let c = generate(&enc, &head, &vocab, &[], &GenerateConfig { seed: 43, ..cfg });
        assert_ne!(a, c, "different seeds should explore differently");
    }

    #[test]
    fn greedy_generation_respects_learned_bigrams() {
        let (enc, head, vocab, _) = trained();
        // Low temperature, prompt pins the grammar family.
        let out = generate(
            &enc,
            &head,
            &vocab,
            &["x2".to_string()],
            &GenerateConfig {
                length: 8,
                temperature: 0.01,
                sweeps: 3,
                ..GenerateConfig::default()
            },
        );
        // Count bigrams that follow the x→y alternation grammar.
        let mut good = 0;
        let mut total = 0;
        for w in out.windows(2) {
            total += 1;
            let follows = (w[0].starts_with('x') && w[1].starts_with('y'))
                || (w[0].starts_with('y') && w[1].starts_with('x'));
            if follows {
                good += 1;
            }
        }
        assert!(good * 2 >= total, "at least half the bigrams respect the grammar: {out:?}");
    }
}
