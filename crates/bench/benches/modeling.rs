//! Modeling micro-benchmarks: matmul, the packed inference forward of
//! attention and the encoder (one 64-token sequence on a warm scratch
//! arena), encoder forward/backward, one MLM training step, and embedding
//! queries — the inputs to E10's cost model.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nfm_model::nn::attention::MultiHeadAttention;
use nfm_model::nn::transformer::{Encoder, EncoderConfig};
use nfm_tensor::init;
use nfm_tensor::layers::Module;
use nfm_tensor::scratch::ScratchArena;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = init::normal(&mut rng, 64, 64, 1.0);
    let b = init::normal(&mut rng, 64, 64, 1.0);
    let mut g = c.benchmark_group("tensor");
    g.throughput(Throughput::Elements(64 * 64 * 64));
    g.bench_function("matmul_64x64x64", |bch| bch.iter(|| a.matmul(&b).norm()));
    g.bench_function("softmax_rows_64x64", |bch| {
        bch.iter(|| {
            let mut m = a.clone();
            m.softmax_rows();
            m.get(0, 0)
        })
    });
    g.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut attn = MultiHeadAttention::new(&mut rng, 32, 4);
    let x = init::normal(&mut rng, 64, 32, 1.0);
    let mut g = c.benchmark_group("attention");
    let mut arena = ScratchArena::new();
    g.bench_function("forward_T64_d32_h4", |b| {
        b.iter(|| {
            let y = attn.forward_inference_batch(&x, &[0, 64], &mut arena);
            let n = y.norm();
            arena.put(y);
            n
        })
    });
    g.bench_function("forward_backward_T64", |b| {
        b.iter(|| {
            let y = attn.forward(&x);
            attn.backward(&y).norm()
        })
    });
    g.finish();
}

fn bench_encoder(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let cfg =
        EncoderConfig { vocab: 512, d_model: 32, n_heads: 4, n_layers: 2, d_ff: 64, max_len: 96 };
    let mut enc = Encoder::new(&mut rng, cfg);
    let ids: Vec<usize> = (0..64).map(|i| 5 + i % 500).collect();
    let mut g = c.benchmark_group("encoder");
    g.throughput(Throughput::Elements(64));
    let mut arena = ScratchArena::new();
    g.bench_function("forward_T64_L2_d32", |b| {
        b.iter(|| {
            let (h, _) = enc.forward_inference_batch(&[&ids], &mut arena);
            let n = h.norm();
            arena.put(h);
            n
        })
    });
    g.bench_function("train_step_T64", |b| {
        b.iter(|| {
            enc.zero_grad();
            let h = enc.forward(&ids);
            enc.backward(&h);
            h.norm()
        })
    });
    g.bench_function("embed_query", |b| b.iter(|| enc.cls_embedding(&ids)[0]));
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_attention, bench_encoder);
criterion_main!(benches);
