//! Property tests for workload generation, including the contract that
//! pins the lazy [`TokenPlan`] op stream to the eager [`decode_step`]
//! enumeration. `decode_step` is the readable, push-based
//! *specification* of the decode op sequence; `TokenPlan` / `OpStream`
//! / `OpCursor` are the allocation-free representation the serving hot
//! path runs on. The two are written independently on purpose, and
//! these tests keep them observably identical for arbitrary
//! `(model, quant, seq_len)` — the optimization must never change what
//! is simulated, only how fast.

use llm_workload::{decode_step, kv, zoo, DecodeOp, OpCursor, Quant, TokenPlan};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = llm_workload::ModelSpec> {
    prop_oneof![
        Just(zoo::opt_6_7b()),
        Just(zoo::opt_13b()),
        Just(zoo::opt_30b()),
        Just(zoo::opt_66b()),
        Just(zoo::llama2_7b()),
        Just(zoo::llama2_13b()),
        Just(zoo::llama2_70b()),
    ]
}

fn arb_quant() -> impl Strategy<Value = Quant> {
    prop_oneof![Just(Quant::W8A8), Just(Quant::W4A16), Just(Quant::W4A8)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Weight traffic per token is independent of sequence position and
    /// equals the layer weights + LM head under the active quantization.
    #[test]
    fn weight_traffic_invariant(model in arb_model(), quant in arb_quant(), seq in 0usize..3000) {
        let step = decode_step(&model, quant, seq);
        let expect = quant.weight_bytes(
            model.layer_params() * model.layers as u64
                + model.vocab as u64 * model.hidden as u64,
        );
        prop_assert_eq!(step.total_weight_bytes(), expect);
    }

    /// Op counts are quantization-independent (same maths, fewer bytes).
    #[test]
    fn ops_independent_of_quant(model in arb_model(), seq in 0usize..2000) {
        let a = decode_step(&model, Quant::W8A8, seq).total_ops();
        let b = decode_step(&model, Quant::W4A16, seq).total_ops();
        prop_assert_eq!(a, b);
    }

    /// DRAM traffic is affine in sequence length: KV reads grow, the
    /// fixed append cost stays.
    #[test]
    fn dram_traffic_affine(model in arb_model(), seq in 1usize..2000) {
        let d0 = decode_step(&model, Quant::W8A8, seq).total_dram_bytes();
        let d1 = decode_step(&model, Quant::W8A8, seq + 1).total_dram_bytes();
        let d2 = decode_step(&model, Quant::W8A8, seq + 2).total_dram_bytes();
        prop_assert_eq!(d1 - d0, d2 - d1);
        prop_assert!(d1 > d0);
    }

    /// The census exactly partitions the GeMV ops.
    #[test]
    fn census_partitions_gemvs(model in arb_model(), seq in 0usize..500) {
        let step = decode_step(&model, Quant::W8A8, seq);
        let census = step.gemv_shape_census();
        let census_params: u64 = census
            .iter()
            .map(|&(r, c, n)| r as u64 * c as u64 * n as u64)
            .sum();
        let op_params: u64 = step
            .ops
            .iter()
            .filter_map(|o| match o {
                DecodeOp::WeightGemv { rows, cols, .. } =>
                    Some(*rows as u64 * *cols as u64),
                _ => None,
            })
            .sum();
        prop_assert_eq!(census_params, op_params);
    }

    /// KV cache accounting matches the decode stream's append ops.
    #[test]
    fn kv_append_matches_cache_growth(model in arb_model(), quant in arb_quant()) {
        let step = decode_step(&model, quant, 10);
        let appended: u64 = step
            .ops
            .iter()
            .filter_map(|o| match o {
                DecodeOp::KvAppend { bytes } => Some(*bytes),
                _ => None,
            })
            .sum();
        prop_assert_eq!(appended, kv::kv_bytes_per_token(&model, quant));
    }

    /// Decode intensity stays near 2 for W8A8 across the whole zoo and
    /// all context lengths (the paper's central premise).
    #[test]
    fn intensity_near_two(model in arb_model(), seq in 1usize..3000) {
        let step = decode_step(&model, Quant::W8A8, seq);
        let i = step.total_ops() as f64
            / (step.total_weight_bytes() + step.total_dram_bytes()) as f64;
        prop_assert!((1.4..2.6).contains(&i), "{}: {i}", model.name);
    }

    /// The lazy stream yields exactly the eager op sequence: same
    /// length, same ops, same order.
    #[test]
    fn op_stream_equals_eager_decode_step(
        model in arb_model(),
        quant in arb_quant(),
        seq_len in 0usize..4096,
    ) {
        let plan = TokenPlan::new(&model, quant);
        let eager = decode_step(&model, quant, seq_len).ops;
        prop_assert_eq!(plan.len(), eager.len());
        let lazy: Vec<DecodeOp> = plan.stream(seq_len).collect();
        prop_assert_eq!(lazy, eager, "{} {} seq {}", model.name, quant, seq_len);
    }

    /// Random access (`op_at`), cursor iteration, and the stream
    /// iterator all agree — the cursor the serving engine drives is
    /// just another view of the same sequence.
    #[test]
    fn cursor_and_random_access_agree(
        model in arb_model(),
        quant in arb_quant(),
        seq_len in 0usize..2048,
    ) {
        let plan = TokenPlan::new(&model, quant);
        let mut cursor = OpCursor::new(seq_len);
        let mut stream = plan.stream(seq_len);
        for idx in 0..plan.len() {
            let direct = plan.op_at(idx, seq_len);
            prop_assert_eq!(cursor.index(), idx);
            prop_assert_eq!(cursor.next_op(&plan), Some(direct));
            prop_assert_eq!(stream.next(), Some(direct));
        }
        prop_assert!(cursor.exhausted(&plan));
        prop_assert_eq!(stream.next(), None);
    }

    /// Stepping the cursor to the next token equals rebuilding the
    /// stream at `seq_len + 1` — the serving engine's per-token reuse
    /// is sound.
    #[test]
    fn next_token_matches_fresh_stream(
        model in arb_model(),
        quant in arb_quant(),
        seq_len in 0usize..2048,
        tokens in 1usize..4,
    ) {
        let plan = TokenPlan::new(&model, quant);
        let mut cursor = OpCursor::new(seq_len);
        for t in 0..tokens {
            let eager = decode_step(&model, quant, seq_len + t).ops;
            for op in eager {
                prop_assert_eq!(cursor.next_op(&plan), Some(op));
            }
            cursor.next_token();
        }
        prop_assert_eq!(cursor.seq_len(), seq_len + tokens);
        prop_assert_eq!(cursor.index(), 0);
    }

    /// Slot pricing is sound: every op position's cost accounting
    /// (weight bytes, op count, DRAM bytes — the inputs of every cost
    /// formula) matches its slot representative at the same position,
    /// and slot occurrence counts cover the whole token, so a per-slot
    /// cost table prices a token exactly.
    #[test]
    fn slot_representatives_cover_the_token(
        model in arb_model(),
        quant in arb_quant(),
        seq_len in 0usize..2048,
    ) {
        let plan = TokenPlan::new(&model, quant);
        let total: u32 = (0..plan.cost_slots()).map(|s| plan.slot_count(s)).sum();
        prop_assert_eq!(total as usize, plan.len());
        let account = |op: &DecodeOp| (op.weight_bytes(quant), op.ops(), op.dram_bytes());
        for idx in 0..plan.len() {
            let op = plan.op_at(idx, seq_len);
            let rep = plan.slot_op(plan.cost_slot(idx), seq_len);
            prop_assert_eq!(account(&op), account(&rep), "idx {}", idx);
        }
        // Per-token totals reconstructed from slots match the eager step.
        let step = decode_step(&model, quant, seq_len);
        let from_slots: u64 = (0..plan.cost_slots())
            .map(|s| plan.slot_count(s) as u64 * plan.slot_op(s, seq_len).ops())
            .sum();
        prop_assert_eq!(from_slots, step.total_ops());
    }

    /// Pricing attention through slot representatives, the way the
    /// serving engine's per-position tables do (representative × slot
    /// count), reproduces per-position `OpCursor` pricing op-for-op:
    /// each position's entry equals its price as computed by walking
    /// the actual op sequence, and prefix-sum differencing over the
    /// range equals their left-to-right sum. Covers the
    /// 1-token-prompt edge (positions 0 and 1) alongside arbitrary
    /// ranges.
    #[test]
    fn attn_prefix_differencing_equals_cursor_pricing(
        model in arb_model(),
        quant in arb_quant(),
        lo in prop_oneof![Just(0usize), Just(1usize), 2usize..1500],
        k in 1usize..32,
    ) {
        let plan = TokenPlan::new(&model, quant);
        let n_inv = plan.invariant_slots();
        let n_dep = plan.dependent_slots();
        // Reference: price position `pos` by walking its ops with an
        // OpCursor and accumulating every cost-formula input (compute
        // ops, weight bytes, DRAM bytes) of the seq-dependent slots.
        let walk = |pos: usize| -> Vec<u64> {
            let mut e = vec![0u64; n_dep * 3];
            let mut cursor = OpCursor::new(pos);
            while let Some(op) = cursor.next_op(&plan) {
                let slot = plan.cost_slot(cursor.index() - 1);
                if slot >= n_inv {
                    let d = slot - n_inv;
                    e[d * 3] += op.ops();
                    e[d * 3 + 1] += op.weight_bytes(quant);
                    e[d * 3 + 2] += op.dram_bytes();
                }
            }
            e
        };
        // Entries price through the slot representatives, the way the
        // serving engine does.
        let price = |pos: usize| -> Vec<u64> {
            let mut e = vec![0u64; n_dep * 3];
            for d in 0..n_dep {
                let rep = plan.slot_op(n_inv + d, pos);
                let count = plan.slot_count(n_inv + d) as u64;
                e[d * 3] = rep.ops() * count;
                e[d * 3 + 1] = rep.weight_bytes(quant) * count;
                e[d * 3 + 2] = rep.dram_bytes() * count;
            }
            e
        };
        // `cum[j]` folds the priced positions `lo..lo + j`.
        let mut cum = vec![vec![0u64; n_dep * 3]];
        for j in 0..k {
            let next: Vec<u64> = cum[j].iter().zip(price(lo + j)).map(|(a, b)| a + b).collect();
            cum.push(next);
        }
        let diff = |a: usize, b: usize| -> Vec<u64> {
            cum[a].iter().zip(&cum[b]).map(|(x, y)| y - x).collect::<Vec<u64>>()
        };
        let mut total = vec![0u64; n_dep * 3];
        for j in 0..k {
            let w = walk(lo + j);
            prop_assert_eq!(&price(lo + j), &w, "position {}", lo + j);
            prop_assert_eq!(&diff(j, j + 1), &w, "position {}", lo + j);
            for (t, x) in total.iter_mut().zip(&w) {
                *t += x;
            }
        }
        prop_assert_eq!(diff(0, k), total);
    }
}
