//! Precomputed per-model decode plans and lazy op streams.
//!
//! [`decode_step`](crate::ops::decode_step) enumerates the full op
//! stream of one token into a fresh `Vec` — fine for one-shot analysis,
//! but a serving engine replays that stream for *every token of every
//! request*, and almost none of it changes between tokens: the weight
//! GeMVs, norms, activations and KV appends are fixed by the
//! `(model, quant)` pair, and only the attention ops (`scores`,
//! `softmax`, `context`) grow with the sequence position.
//!
//! [`TokenPlan`] captures that split once: a layer template of
//! seq-invariant ops plus the three seq-dependent attention templates,
//! each position tagged with a **cost slot** — an index that is equal
//! for ops guaranteed to have identical execution cost (same canonical
//! shape), which is what lets a simulator price each slot once and
//! replay tokens with array lookups instead of re-deriving every op.
//!
//! [`OpStream`] / [`OpCursor`] walk a plan lazily, materializing each
//! [`DecodeOp`] on the fly (a few integer multiplies) with **no
//! per-token allocation**. The stream is observably identical to the
//! eager enumeration — `decode_step` keeps its original push-based body
//! as the readable specification, and a property test pins
//! `TokenPlan::stream` to it op for op.
//!
//! # Example
//!
//! ```
//! use llm_workload::{decode_step, zoo, Quant, TokenPlan};
//!
//! let model = zoo::llama2_70b();
//! let plan = TokenPlan::new(&model, Quant::W8A8);
//! // Lazy stream == eager enumeration, with zero per-token allocation.
//! let eager = decode_step(&model, Quant::W8A8, 1000).ops;
//! assert!(plan.stream(1000).eq(eager.into_iter()));
//! // Far fewer cost slots than ops: layers repeat the same shapes.
//! assert!(plan.cost_slots() < plan.len() / 50);
//! ```

use crate::ops::{DecodeOp, OpShape, SpecialKind};
use crate::quant::Quant;
use crate::spec::{Family, ModelSpec};

/// One position of a [`TokenPlan`]: either an op fixed by the model
/// shape, or a template for an attention op that depends on the
/// sequence position `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanOp {
    /// Seq-invariant op, stored fully materialized.
    Fixed(DecodeOp),
    /// Attention scores `q·Kᵀ`: DRAM bytes and MACs grow with `s`.
    Scores,
    /// Row softmax over `heads × s` attention scores.
    Softmax,
    /// Attention context `S·V`: DRAM bytes and MACs grow with `s`.
    Context,
}

/// The precomputed decode plan of one `(model, quant)` pair: the full
/// per-token op sequence with the seq-invariant ops materialized once
/// and the seq-dependent attention ops kept as templates.
///
/// Build it once per model, then [`stream`](TokenPlan::stream) (or an
/// [`OpCursor`]) yields the op sequence of any token without allocating.
#[derive(Debug, Clone)]
pub struct TokenPlan {
    quant: Quant,
    /// Per-token op sequence (templates in execution order).
    ops: Vec<PlanOp>,
    /// Cost slot of each op position; see [`TokenPlan::cost_slot`].
    slots: Vec<u32>,
    /// Representative template per slot, invariant slots first.
    slot_reps: Vec<PlanOp>,
    /// Ops per token mapping to each slot.
    slot_counts: Vec<u32>,
    /// Slots below this index are seq-invariant.
    invariant_slots: usize,
    /// Ops per layer of the layer loop; see [`TokenPlan::layer_len`].
    layer_len: usize,
    /// Positions the layer loop emits, `layers × layer_len`.
    layer_ops: usize,
    // Scalars for materializing the attention templates.
    kv_dim: u64,
    heads: u64,
    head_dim: u64,
    kv_bytes: u64,
}

impl TokenPlan {
    /// Builds the plan for `model` under `quant`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ModelSpec::validate`].
    pub fn new(model: &ModelSpec, quant: Quant) -> Self {
        model.validate().expect("invalid model spec");
        let h = model.hidden as u64;
        let kv_dim = model.kv_dim() as u64;

        let mut ops = Vec::new();
        for _layer in 0..model.layers {
            ops.push(PlanOp::Fixed(DecodeOp::Special {
                kind: SpecialKind::Norm,
                elems: h,
            }));
            ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                label: "Wq",
                rows: model.hidden,
                cols: model.hidden,
            }));
            ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                label: "Wk",
                rows: model.kv_dim(),
                cols: model.hidden,
            }));
            ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                label: "Wv",
                rows: model.kv_dim(),
                cols: model.hidden,
            }));
            if model.family == Family::Llama2 {
                ops.push(PlanOp::Fixed(DecodeOp::Special {
                    kind: SpecialKind::Rope,
                    elems: h + kv_dim,
                }));
            }
            ops.push(PlanOp::Fixed(DecodeOp::KvAppend {
                bytes: 2 * kv_dim * quant.kv_bytes_per_elem(),
            }));
            ops.push(PlanOp::Scores);
            ops.push(PlanOp::Softmax);
            ops.push(PlanOp::Context);
            ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                label: "Wo",
                rows: model.hidden,
                cols: model.hidden,
            }));
            ops.push(PlanOp::Fixed(DecodeOp::Special {
                kind: SpecialKind::Norm,
                elems: h,
            }));
            match model.family {
                Family::Opt => {
                    ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                        label: "W1",
                        rows: model.ffn,
                        cols: model.hidden,
                    }));
                    ops.push(PlanOp::Fixed(DecodeOp::Special {
                        kind: SpecialKind::Relu,
                        elems: model.ffn as u64,
                    }));
                    ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                        label: "W2",
                        rows: model.hidden,
                        cols: model.ffn,
                    }));
                }
                Family::Llama2 => {
                    ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                        label: "Wgate",
                        rows: model.ffn,
                        cols: model.hidden,
                    }));
                    ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                        label: "Wup",
                        rows: model.ffn,
                        cols: model.hidden,
                    }));
                    ops.push(PlanOp::Fixed(DecodeOp::Special {
                        kind: SpecialKind::Silu,
                        elems: 2 * model.ffn as u64,
                    }));
                    ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
                        label: "Wdown",
                        rows: model.hidden,
                        cols: model.ffn,
                    }));
                }
            }
        }
        let layer_ops = ops.len();
        ops.push(PlanOp::Fixed(DecodeOp::Special {
            kind: SpecialKind::Norm,
            elems: h,
        }));
        ops.push(PlanOp::Fixed(DecodeOp::WeightGemv {
            label: "lm_head",
            rows: model.vocab,
            cols: model.hidden,
        }));

        // Assign cost slots: invariant ops dedup by canonical shape
        // (seq_len = 0 is representative — invariant ops don't read it),
        // then one slot per distinct seq-dependent template.
        let mut slot_reps: Vec<PlanOp> = Vec::new();
        let mut slot_counts: Vec<u32> = Vec::new();
        let mut slots = Vec::with_capacity(ops.len());
        let assign = |templates: &mut Vec<PlanOp>, counts: &mut Vec<u32>, op: &PlanOp| -> u32 {
            let key = |p: &PlanOp| match p {
                PlanOp::Fixed(op) => Some(OpShape::of(op)),
                _ => None,
            };
            let pos = templates.iter().position(|t| match (key(t), key(op)) {
                (Some(a), Some(b)) => a == b,
                (None, None) => t == op,
                _ => false,
            });
            match pos {
                Some(i) => {
                    counts[i] += 1;
                    i as u32
                }
                None => {
                    templates.push(*op);
                    counts.push(1);
                    (templates.len() - 1) as u32
                }
            }
        };
        // Two passes keep all invariant slots in front of the
        // seq-dependent ones, so `slot < invariant_slots()` is the
        // "price once, reuse forever" test.
        let mut dep_reps: Vec<PlanOp> = Vec::new();
        let mut dep_counts: Vec<u32> = Vec::new();
        for op in &ops {
            match op {
                PlanOp::Fixed(_) => {
                    slots.push(assign(&mut slot_reps, &mut slot_counts, op));
                }
                _ => {
                    // placeholder, patched below once the invariant
                    // region size is known
                    slots.push(u32::MAX - assign(&mut dep_reps, &mut dep_counts, op));
                }
            }
        }
        let invariant_slots = slot_reps.len();
        for s in &mut slots {
            if *s > invariant_slots as u32 {
                *s = invariant_slots as u32 + (u32::MAX - *s);
            }
        }
        slot_reps.extend(dep_reps);
        slot_counts.extend(dep_counts);

        TokenPlan {
            quant,
            ops,
            slots,
            slot_reps,
            slot_counts,
            invariant_slots,
            layer_len: layer_ops / model.layers,
            layer_ops,
            kv_dim,
            heads: model.heads as u64,
            head_dim: model.head_dim() as u64,
            kv_bytes: quant.kv_bytes_per_elem(),
        }
    }

    /// Quantization scheme the plan was built for.
    pub fn quant(&self) -> Quant {
        self.quant
    }

    /// Ops per token (identical for every token of the model).
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan is empty (never true for a valid model).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Ops per transformer layer: the length of the template the
    /// plan's layer loop emits once per layer (15 for Llama2, 13 for
    /// OPT).
    pub fn layer_len(&self) -> usize {
        self.layer_len
    }

    /// The positions the layer loop emits, `0..layers × layer_len`.
    /// Inside it the plan is periodic: positions `i` and
    /// `i + layer_len` hold the same op template, and so the same cost
    /// slot, at every sequence position. The final norm and `lm_head`
    /// follow it.
    pub fn periodic_range(&self) -> std::ops::Range<usize> {
        0..self.layer_ops
    }

    /// Materializes one template at a sequence position.
    fn materialize(&self, op: PlanOp, seq_len: usize) -> DecodeOp {
        let s = seq_len as u64 + 1; // including the current token
        match op {
            PlanOp::Fixed(op) => op,
            PlanOp::Scores => DecodeOp::KvMatVec {
                label: "scores",
                dram_bytes: s * self.kv_dim * self.kv_bytes,
                ops: 2 * self.heads * s * self.head_dim,
            },
            PlanOp::Softmax => DecodeOp::Special {
                kind: SpecialKind::Softmax,
                elems: self.heads * s,
            },
            PlanOp::Context => DecodeOp::KvMatVec {
                label: "context",
                dram_bytes: s * self.kv_dim * self.kv_bytes,
                ops: 2 * self.heads * s * self.head_dim,
            },
        }
    }

    /// The `idx`-th op of a token generated at position `seq_len`
    /// (the KV cache holds `seq_len` entries). O(1), no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn op_at(&self, idx: usize, seq_len: usize) -> DecodeOp {
        self.materialize(self.ops[idx], seq_len)
    }

    /// Cost slot of the `idx`-th op. Two positions share a slot exactly
    /// when their ops have identical execution cost at every sequence
    /// position (same canonical shape for invariant ops, same template
    /// for attention ops), so a per-slot cost table replaces per-op
    /// pricing.
    #[inline]
    pub fn cost_slot(&self, idx: usize) -> usize {
        self.slots[idx] as usize
    }

    /// Number of distinct cost slots (a few per model, vs hundreds of
    /// ops per token).
    pub fn cost_slots(&self) -> usize {
        self.slot_reps.len()
    }

    /// Slots `0..invariant_slots()` are seq-invariant: price once per
    /// system, reuse for every token. The remaining slots must be
    /// re-priced per sequence position.
    pub fn invariant_slots(&self) -> usize {
        self.invariant_slots
    }

    /// A representative op of `slot` at `seq_len` (invariant slots
    /// ignore `seq_len`). Pricing this op prices every op in the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= cost_slots()`.
    pub fn slot_op(&self, slot: usize, seq_len: usize) -> DecodeOp {
        self.materialize(self.slot_reps[slot], seq_len)
    }

    /// How many ops of one token map to `slot`.
    pub fn slot_count(&self, slot: usize) -> u32 {
        self.slot_counts[slot]
    }

    /// Whether `slot`'s ops are weight GeMVs — the ops whose NAND
    /// weight stream a batched scheduler fetches **once** per batch
    /// step and shares across every request parked at the same plan
    /// position (cloud-style weight amortization). Weight slots are
    /// always seq-invariant, so a batched step prices them from the
    /// invariant table regardless of batch composition.
    pub fn slot_is_weight(&self, slot: usize) -> bool {
        matches!(
            self.slot_reps[slot],
            PlanOp::Fixed(DecodeOp::WeightGemv { .. })
        )
    }

    /// Ops per token whose weight fetch a batch shares (the plan
    /// positions mapping to weight slots). The remaining
    /// `len() - weight_ops_per_token()` positions are per-request work
    /// that scales with batch size.
    pub fn weight_ops_per_token(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, PlanOp::Fixed(DecodeOp::WeightGemv { .. })))
            .count()
    }

    /// Number of seq-dependent cost slots (`cost_slots() -
    /// invariant_slots()`): the attention templates a scheduler must
    /// re-price per request from its sequence position when composing
    /// a batch.
    pub fn dependent_slots(&self) -> usize {
        self.slot_reps.len() - self.invariant_slots
    }

    /// A lazy iterator over the ops of one token at position `seq_len`.
    /// Equivalent to `decode_step(model, quant, seq_len).ops` without
    /// the allocation.
    pub fn stream(&self, seq_len: usize) -> OpStream<'_> {
        OpStream {
            plan: self,
            cursor: OpCursor::new(seq_len),
        }
    }
}

/// Aggregate workload of the **prefill** phase of one `(model, quant)`
/// pair, precomputed once like a [`TokenPlan`] and evaluated at any
/// prompt length without re-enumerating ops.
///
/// §II-A: prefill processes all `m` prompt tokens in parallel, reusing
/// each weight tile across the whole block — the weights stream from
/// flash **once** (plain reads; the in-flash cores are GeMV-only, so
/// the `m`-wide GeMMs run on the NPU) while the NPU applies them to
/// every token. The plan therefore splits into:
///
/// * a prompt-length-invariant weight stream (`weight_bytes`), and
/// * NPU-side compute that scales with `m`: the GeMM MACs (linear),
///   attention over the growing prefix (quadratic, averaged to `m²/2`),
///   special functions and KV writes (linear, plus the softmax term
///   that grows with the prefix).
///
/// All totals are exact integer aggregates of the per-token decode op
/// stream evaluated at the prompt's final position, with the
/// triangular prefix average computed by ceiling division so even a
/// 1-token prompt books its (tiny but nonzero) attention cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillPlan {
    quant: Quant,
    /// Weight bytes of one token's ops — streamed once for the phase.
    weight_bytes: u64,
    /// GeMM MAC-ops (2·rows·cols summed over weight ops) per token.
    gemm_ops_per_token: u64,
    /// Attention MAC-ops of one token at sequence position 1, summed
    /// over the attention ops (scores + context × layers). Position `s`
    /// costs `s ×` this.
    attn_ops_coeff: u64,
    /// Attention DRAM bytes at sequence position 1 (same scaling).
    attn_dram_coeff: u64,
    /// Softmax SFU elements at sequence position 1 (`heads × layers`).
    softmax_elems_coeff: u64,
    /// Sequence-invariant SFU elements per token (norms, activations,
    /// RoPE).
    sfu_fixed_elems: u64,
    /// KV bytes appended to DRAM per token.
    kv_append_bytes: u64,
}

impl PrefillPlan {
    /// Builds the prefill plan for `model` under `quant`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ModelSpec::validate`].
    pub fn new(model: &ModelSpec, quant: Quant) -> Self {
        // The per-token op stream at sequence position 1 (seq_len 0)
        // exposes every coefficient: seq-dependent ops scale linearly
        // with the position, everything else is invariant.
        let step = crate::ops::decode_step(model, quant, 0);
        let mut plan = PrefillPlan {
            quant,
            weight_bytes: 0,
            gemm_ops_per_token: 0,
            attn_ops_coeff: 0,
            attn_dram_coeff: 0,
            softmax_elems_coeff: 0,
            sfu_fixed_elems: 0,
            kv_append_bytes: 0,
        };
        for op in &step.ops {
            match op {
                DecodeOp::WeightGemv { rows, cols, .. } => {
                    plan.weight_bytes += quant.weight_bytes(*rows as u64 * *cols as u64);
                    plan.gemm_ops_per_token += 2 * *rows as u64 * *cols as u64;
                }
                DecodeOp::KvMatVec {
                    ops, dram_bytes, ..
                } => {
                    plan.attn_ops_coeff += ops;
                    plan.attn_dram_coeff += dram_bytes;
                }
                DecodeOp::Special {
                    kind: SpecialKind::Softmax,
                    elems,
                } => plan.softmax_elems_coeff += elems,
                DecodeOp::Special { elems, .. } => plan.sfu_fixed_elems += elems,
                DecodeOp::KvAppend { bytes } => plan.kv_append_bytes += bytes,
            }
        }
        plan
    }

    /// Quantization scheme the plan was built for.
    pub fn quant(&self) -> Quant {
        self.quant
    }

    /// Weight bytes the phase streams from flash — **once**, regardless
    /// of prompt length (the whole point of prefill).
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// NPU GeMM MAC-ops for an `m`-token prompt: every weight matrix
    /// multiplies all `m` token activations.
    pub fn gemm_ops(&self, m: usize) -> u64 {
        self.gemm_ops_per_token * m as u64
    }

    /// Attention `(mac_ops, dram_bytes)` for an `m`-token prompt.
    ///
    /// Token `t` attends to a `t`-long prefix, so the total over the
    /// block is the triangular sum `≈ m²/2 ×` the position-1
    /// coefficient. Computed with ceiling division so `m = 1` books a
    /// nonzero cost (plain `/ 2` on the integer product truncated it
    /// to zero).
    pub fn attention(&self, m: usize) -> (u64, u64) {
        let m = m as u64;
        (
            (self.attn_ops_coeff * m * m).div_ceil(2),
            (self.attn_dram_coeff * m * m).div_ceil(2),
        )
    }

    /// SFU elements for an `m`-token prompt: the invariant per-token
    /// work × `m`, plus the softmax rows over each token's growing
    /// prefix — the same triangular `≈ m²/2` average (ceiling
    /// division) as [`PrefillPlan::attention`], since token `t` only
    /// softmaxes a `t`-long score row.
    pub fn sfu_elems(&self, m: usize) -> u64 {
        let m = m as u64;
        self.sfu_fixed_elems * m + (self.softmax_elems_coeff * m * m).div_ceil(2)
    }

    /// KV-cache bytes written to DRAM for an `m`-token prompt.
    pub fn kv_write_bytes(&self, m: usize) -> u64 {
        self.kv_append_bytes * m as u64
    }
}

/// A detached position in a [`TokenPlan`]'s op sequence.
///
/// The cursor does not borrow the plan, so long-lived schedulers (one
/// cursor per in-flight request, one shared plan) can store it inline;
/// pass the plan to each method. For simple iteration use
/// [`TokenPlan::stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCursor {
    seq_len: usize,
    idx: usize,
}

impl OpCursor {
    /// A cursor at the first op of a token generated at `seq_len`.
    pub fn new(seq_len: usize) -> Self {
        OpCursor { seq_len, idx: 0 }
    }

    /// Sequence position this cursor's token is generated at.
    #[inline]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Index of the current op within the token.
    #[inline]
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Whether every op of the token has been yielded.
    #[inline]
    pub fn exhausted(&self, plan: &TokenPlan) -> bool {
        self.idx >= plan.len()
    }

    /// The current op, or `None` when exhausted. O(1), no allocation.
    pub fn peek(&self, plan: &TokenPlan) -> Option<DecodeOp> {
        (self.idx < plan.len()).then(|| plan.op_at(self.idx, self.seq_len))
    }

    /// Steps past the current op.
    #[inline]
    pub fn advance(&mut self) {
        self.idx += 1;
    }

    /// Yields the current op and steps past it.
    pub fn next_op(&mut self, plan: &TokenPlan) -> Option<DecodeOp> {
        let op = self.peek(plan)?;
        self.idx += 1;
        Some(op)
    }

    /// Resets to the first op of the *next* token (one more entry in
    /// the KV cache).
    pub fn next_token(&mut self) {
        self.seq_len += 1;
        self.idx = 0;
    }

    /// Advances `tokens` whole tokens in one shot: the KV cache grows
    /// by `tokens` entries and the cursor rewinds to the first op of
    /// the new token. `advance_by(1)` is exactly
    /// [`next_token`](OpCursor::next_token); `advance_by(0)` only
    /// rewinds to the token start. This is the cursor side of span
    /// fast-forwarding: a scheduler that bulk-prices a run of tokens
    /// moves every in-flight cursor here instead of stepping each op.
    pub fn advance_by(&mut self, tokens: usize) {
        self.seq_len += tokens;
        self.idx = 0;
    }

    /// Parks the cursor at op `idx` of the current token (without
    /// touching the sequence position). Indices at or past the plan
    /// length mean "exhausted", same as after walking every op.
    pub fn seek(&mut self, idx: usize) {
        self.idx = idx;
    }

    /// Resets to the first op of a token at `seq_len`.
    pub fn reset(&mut self, seq_len: usize) {
        self.seq_len = seq_len;
        self.idx = 0;
    }
}

/// Borrowing iterator over one token's ops; see [`TokenPlan::stream`].
#[derive(Debug, Clone)]
pub struct OpStream<'a> {
    plan: &'a TokenPlan,
    cursor: OpCursor,
}

impl OpStream<'_> {
    /// The next op without advancing.
    pub fn peek(&self) -> Option<DecodeOp> {
        self.cursor.peek(self.plan)
    }
}

impl Iterator for OpStream<'_> {
    type Item = DecodeOp;

    fn next(&mut self) -> Option<DecodeOp> {
        self.cursor.next_op(self.plan)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.plan.len() - self.cursor.index().min(self.plan.len());
        (left, Some(left))
    }
}

impl ExactSizeIterator for OpStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::decode_step;
    use crate::zoo;

    #[test]
    fn stream_matches_eager_enumeration() {
        for model in [zoo::opt_6_7b(), zoo::llama2_70b()] {
            for quant in Quant::all() {
                for seq in [0usize, 1, 100, 1000] {
                    let plan = TokenPlan::new(&model, quant);
                    let eager = decode_step(&model, quant, seq).ops;
                    let lazy: Vec<DecodeOp> = plan.stream(seq).collect();
                    assert_eq!(lazy, eager, "{} {quant} seq {seq}", model.name);
                }
            }
        }
    }

    #[test]
    fn slots_partition_ops_by_cost_identity() {
        let plan = TokenPlan::new(&zoo::llama2_70b(), Quant::W8A8);
        // Counts over slots cover every op position.
        let total: u32 = (0..plan.cost_slots()).map(|s| plan.slot_count(s)).sum();
        assert_eq!(total as usize, plan.len());
        // Same slot ⇒ same canonical shape at any seq position.
        for seq in [3usize, 512] {
            for idx in 0..plan.len() {
                let slot = plan.cost_slot(idx);
                let a = plan.op_at(idx, seq);
                let b = plan.slot_op(slot, seq);
                assert_eq!(OpShape::of(&a), OpShape::of(&b), "idx {idx} seq {seq}");
            }
        }
    }

    #[test]
    fn invariant_slots_ignore_seq_len() {
        let plan = TokenPlan::new(&zoo::opt_13b(), Quant::W4A16);
        for slot in 0..plan.invariant_slots() {
            assert_eq!(plan.slot_op(slot, 0), plan.slot_op(slot, 4096));
        }
        for slot in plan.invariant_slots()..plan.cost_slots() {
            assert_ne!(plan.slot_op(slot, 0), plan.slot_op(slot, 4096));
        }
    }

    #[test]
    fn far_fewer_slots_than_ops() {
        let plan = TokenPlan::new(&zoo::llama2_70b(), Quant::W8A8);
        assert_eq!(plan.len(), 1202); // 80 layers × 15 ops + final norm + head
                                      // Gemv shapes collapse (Wq/Wo, Wk/Wv, Wgate/Wup share shapes),
                                      // norms collapse, plus scores/softmax/context.
        assert!(plan.cost_slots() <= 14, "{}", plan.cost_slots());
        assert_eq!(plan.cost_slots() - plan.invariant_slots(), 3);
    }

    #[test]
    fn the_layer_loop_repeats_one_template() {
        for (model, layer_len) in [(zoo::llama2_70b(), 15), (zoo::opt_6_7b(), 13)] {
            let plan = TokenPlan::new(&model, Quant::W8A8);
            assert_eq!(plan.layer_len(), layer_len, "{}", model.name);
            let range = plan.periodic_range();
            assert_eq!(range, 0..model.layers * layer_len, "{}", model.name);
            assert_eq!(plan.len() - range.end, 2, "final norm and lm_head");
            for i in range.start..range.end - layer_len {
                assert_eq!(
                    plan.ops[i],
                    plan.ops[i + layer_len],
                    "{} op {i}",
                    model.name
                );
                assert_eq!(plan.cost_slot(i), plan.cost_slot(i + layer_len));
            }
        }
    }

    #[test]
    fn weight_slots_are_invariant_and_partition_the_plan() {
        for model in [zoo::opt_6_7b(), zoo::llama2_70b()] {
            let plan = TokenPlan::new(&model, Quant::W8A8);
            // Every weight slot sits in the invariant region: a batched
            // step can always price the shared fetch from the table.
            for slot in 0..plan.cost_slots() {
                if plan.slot_is_weight(slot) {
                    assert!(
                        slot < plan.invariant_slots(),
                        "weight slot {slot} seq-dependent"
                    );
                }
            }
            // Position count via slots agrees with the direct count.
            let via_slots: u32 = (0..plan.cost_slots())
                .filter(|&s| plan.slot_is_weight(s))
                .map(|s| plan.slot_count(s))
                .sum();
            assert_eq!(via_slots as usize, plan.weight_ops_per_token());
            assert_eq!(
                plan.dependent_slots(),
                plan.cost_slots() - plan.invariant_slots()
            );
            // Both families: Wq/Wk/Wv/Wo + FFN + lm_head dominate a
            // token but are far fewer than all positions.
            assert!(plan.weight_ops_per_token() > 0);
            assert!(plan.weight_ops_per_token() < plan.len());
        }
    }

    #[test]
    fn cursor_walks_tokens_without_allocation() {
        let model = zoo::opt_6_7b();
        let plan = TokenPlan::new(&model, Quant::W8A8);
        let mut cursor = OpCursor::new(100);
        let mut n = 0;
        while let Some(op) = cursor.next_op(&plan) {
            assert_eq!(op, plan.op_at(n, 100));
            n += 1;
        }
        assert_eq!(n, plan.len());
        assert!(cursor.exhausted(&plan));
        cursor.next_token();
        assert_eq!(cursor.seq_len(), 101);
        assert_eq!(cursor.index(), 0);
        assert_eq!(
            cursor.peek(&plan),
            Some(decode_step(&model, Quant::W8A8, 101).ops[0])
        );
    }

    #[test]
    fn advance_by_is_repeated_next_token() {
        let plan = TokenPlan::new(&zoo::opt_6_7b(), Quant::W8A8);
        let mut stepped = OpCursor::new(42);
        let mut jumped = OpCursor::new(42);
        for _ in 0..7 {
            stepped.next_token();
        }
        jumped.advance_by(7);
        assert_eq!(stepped, jumped);
        assert_eq!(jumped.seq_len(), 49);
        assert_eq!(jumped.peek(&plan), stepped.peek(&plan));
        // advance_by(0) only rewinds the op index.
        let mut mid = OpCursor::new(10);
        mid.advance();
        mid.advance();
        mid.advance_by(0);
        assert_eq!(mid, OpCursor::new(10));
    }

    #[test]
    fn seek_parks_the_cursor_mid_token() {
        let plan = TokenPlan::new(&zoo::opt_6_7b(), Quant::W8A8);
        let mut walked = OpCursor::new(100);
        for _ in 0..5 {
            walked.next_op(&plan);
        }
        let mut sought = OpCursor::new(100);
        sought.seek(5);
        assert_eq!(walked, sought);
        // Seeking to the plan length is "exhausted", like a full walk.
        sought.seek(plan.len());
        assert!(sought.exhausted(&plan));
        assert_eq!(sought.peek(&plan), None);
    }

    #[test]
    fn prefill_plan_aggregates_match_the_op_stream() {
        for model in [zoo::opt_6_7b(), zoo::llama2_70b()] {
            let quant = Quant::W8A8;
            let plan = PrefillPlan::new(&model, quant);
            for m in [1usize, 7, 256] {
                // The per-token stream at the prompt's final position.
                let step = decode_step(&model, quant, m - 1);
                let weight_bytes: u64 = step.ops.iter().map(|o| o.weight_bytes(quant)).sum();
                assert_eq!(plan.weight_bytes(), weight_bytes, "m {m}");
                let gemm: u64 = step
                    .ops
                    .iter()
                    .map(|o| match o {
                        DecodeOp::WeightGemv { rows, cols, .. } => {
                            2 * *rows as u64 * *cols as u64 * m as u64
                        }
                        _ => 0,
                    })
                    .sum();
                assert_eq!(plan.gemm_ops(m), gemm, "m {m}");
                let (attn_ops, attn_dram) = plan.attention(m);
                let (step_ops, step_dram) = step.ops.iter().fold((0u64, 0u64), |acc, o| match o {
                    DecodeOp::KvMatVec {
                        ops, dram_bytes, ..
                    } => (acc.0 + ops, acc.1 + dram_bytes),
                    _ => acc,
                });
                assert_eq!(attn_ops, (step_ops * m as u64).div_ceil(2));
                assert_eq!(attn_dram, (step_dram * m as u64).div_ceil(2));
                // Fixed specials scale with the block; softmax rows
                // get the same triangular prefix average as attention.
                let (sfu_fixed, softmax) = step.ops.iter().fold((0u64, 0u64), |acc, o| match o {
                    DecodeOp::Special {
                        kind: SpecialKind::Softmax,
                        elems,
                    } => (acc.0, acc.1 + elems),
                    DecodeOp::Special { elems, .. } => (acc.0 + elems, acc.1),
                    _ => acc,
                });
                assert_eq!(
                    plan.sfu_elems(m),
                    sfu_fixed * m as u64 + (softmax * m as u64).div_ceil(2),
                    "m {m}"
                );
                let appends: u64 = step
                    .ops
                    .iter()
                    .map(|o| match o {
                        DecodeOp::KvAppend { bytes } => bytes * m as u64,
                        _ => 0,
                    })
                    .sum();
                assert_eq!(plan.kv_write_bytes(m), appends, "m {m}");
            }
        }
    }

    #[test]
    fn one_token_prompt_books_nonzero_attention() {
        // Regression for the `ops * m / 2` truncation bug: the integer
        // product at m = 1 divided to zero, erasing attention entirely.
        let plan = PrefillPlan::new(&zoo::opt_6_7b(), Quant::W8A8);
        let (ops, dram) = plan.attention(1);
        assert!(ops > 0, "1-token prompt lost its attention MACs");
        assert!(dram > 0, "1-token prompt lost its KV traffic");
        // And the quadratic growth is intact.
        let (ops_2, _) = plan.attention(2);
        assert!(ops_2 > 2 * ops);
    }

    #[test]
    fn prefill_plan_zero_prompt_is_all_zero() {
        let plan = PrefillPlan::new(&zoo::llama2_7b(), Quant::W4A16);
        assert_eq!(plan.gemm_ops(0), 0);
        assert_eq!(plan.attention(0), (0, 0));
        assert_eq!(plan.sfu_elems(0), 0);
        assert_eq!(plan.kv_write_bytes(0), 0);
        // The weight stream is prompt-invariant, not zero.
        assert!(plan.weight_bytes() > 0);
    }

    #[test]
    fn stream_is_exact_size() {
        let plan = TokenPlan::new(&zoo::llama2_7b(), Quant::W8A8);
        let mut s = plan.stream(10);
        assert_eq!(s.len(), plan.len());
        s.next();
        assert_eq!(s.len(), plan.len() - 1);
    }
}
