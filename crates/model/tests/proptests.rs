//! Property-based invariants for the modeling layer: tokenizers never
//! panic and respect budgets, vocabularies round-trip, masking preserves
//! recoverability, and encoders stay finite on arbitrary valid inputs.

use nfm_model::context::{first_m_of_n_context, flow_context};
use nfm_model::nn::transformer::{Encoder, EncoderConfig};
use nfm_model::pretrain::{encode_context, mask_sequence};
use nfm_model::tokenize::bytes::ByteTokenizer;
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_model::tokenize::{log2_bin, Tokenizer};
use nfm_model::vocab::Vocab;
use nfm_net::addr::MacAddr;
use nfm_net::capture::TracePacket;
use nfm_net::packet::Packet;
use nfm_tensor::loss::IGNORE_INDEX;
use nfm_tensor::scratch::ScratchArena;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

fn arb_udp_packet() -> impl Strategy<Value = Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        1u16..,
        1u16..,
        1u8..,
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(src, dst, sp, dp, ttl, payload)| {
            Packet::udp_v4(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
                Ipv4Addr::from(src),
                Ipv4Addr::from(dst),
                sp,
                dp,
                ttl,
                payload,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_tokenizer_never_panics_and_is_deterministic(p in arb_udp_packet()) {
        let tok = FieldTokenizer::new();
        let a = tok.tokenize(&p);
        let b = tok.tokenize(&p);
        prop_assert_eq!(&a, &b);
        prop_assert!(!a.is_empty());
        // Tokens never contain whitespace (vocabulary hygiene).
        prop_assert!(a.iter().all(|t| !t.contains(' ')));
    }

    #[test]
    fn byte_tokenizer_budget(p in arb_udp_packet(), cap in 1usize..64) {
        let tok = ByteTokenizer { max_bytes: cap, skip_ethernet: true };
        let toks = tok.tokenize(&p);
        prop_assert!(toks.len() <= cap);
    }

    #[test]
    fn flow_context_budget_holds(
        packets in proptest::collection::vec(arb_udp_packet(), 1..10),
        cap in 4usize..64,
    ) {
        let tps: Vec<TracePacket> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| TracePacket::from_packet(i as u64 * 100, p))
            .collect();
        let tok = FieldTokenizer::new();
        let ctx = flow_context(&tps, &tok, cap);
        prop_assert!(ctx.len() <= cap);
        let m_of_n = first_m_of_n_context(&tps, &tok, 3, 2, cap);
        prop_assert!(m_of_n.len() <= 6.min(cap));
    }

    #[test]
    fn vocab_encode_decode_identity_on_known_tokens(
        tokens in proptest::collection::vec("[a-z]{1,8}", 1..20),
    ) {
        let seqs = vec![tokens.clone()];
        let vocab = Vocab::from_sequences(&seqs, 1);
        let decoded = vocab.decode(&vocab.encode(&tokens));
        prop_assert_eq!(decoded, tokens);
    }

    #[test]
    fn masking_targets_always_recover_originals(
        tokens in proptest::collection::vec("[a-z]{1,6}", 2..30),
        mask_prob in 0.05f64..0.9,
        seed in 0u64..1000,
    ) {
        let seqs = vec![tokens.clone()];
        let vocab = Vocab::from_sequences(&seqs, 1);
        let ids = encode_context(&vocab, &tokens, 64);
        let mut rng = StdRng::seed_from_u64(seed);
        let (input, targets) = mask_sequence(&mut rng, &ids, &vocab, mask_prob, false);
        prop_assert_eq!(input.len(), ids.len());
        prop_assert_eq!(targets.len(), ids.len());
        let mut n_masked = 0;
        for i in 0..ids.len() {
            if targets[i] != IGNORE_INDEX {
                n_masked += 1;
                // Target restores the original token id.
                prop_assert_eq!(targets[i], ids[i]);
            } else {
                // Unmasked positions keep their input id.
                prop_assert_eq!(input[i], ids[i]);
            }
        }
        prop_assert!(n_masked >= 1);
        // Specials never masked.
        prop_assert_eq!(targets[0], IGNORE_INDEX);
        prop_assert_eq!(*targets.last().unwrap(), IGNORE_INDEX);
    }

    #[test]
    fn packed_forward_is_finite_and_matches_training_forward(
        ids in proptest::collection::vec(0usize..30, 1..32),
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = EncoderConfig { vocab: 30, d_model: 8, n_heads: 2, n_layers: 1, d_ff: 16, max_len: 24 };
        let enc = Encoder::new(&mut rng, cfg);
        let (h, bounds) = enc.forward_inference_batch(&[&ids], &mut ScratchArena::new());
        prop_assert!(h.is_finite());
        prop_assert_eq!(h.rows(), ids.len().min(24));
        prop_assert_eq!(bounds, vec![0, h.rows()]);
        // The packed inference forward reproduces the training forward.
        let want = enc.clone().forward(&ids);
        prop_assert_eq!(
            h.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn log2_bin_monotone(a in 0usize..100_000, b in 0usize..100_000) {
        if a <= b {
            prop_assert!(log2_bin(a) <= log2_bin(b));
        }
    }

    #[test]
    fn encode_context_structure(
        tokens in proptest::collection::vec("[a-z]{1,5}", 0..40),
        max_len in 4usize..32,
    ) {
        let seqs = vec![tokens.clone()];
        let vocab = Vocab::from_sequences(&seqs, 1);
        let ids = encode_context(&vocab, &tokens, max_len);
        prop_assert!(ids.len() <= max_len);
        prop_assert_eq!(ids[0], vocab.cls_id());
        prop_assert_eq!(*ids.last().unwrap(), vocab.sep_id());
    }
}
