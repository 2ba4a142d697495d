//! KV-cache sizing.
//!
//! §II-A of the paper motivates the hybrid design with the observation
//! that at batch size 1 the KV cache stays small (under ~700 MB for a 70B
//! model at 1000-token context), so it fits in edge DRAM while the
//! weights live in flash.

use crate::quant::Quant;
use crate::spec::ModelSpec;

/// Bytes of KV cache added per generated token.
pub fn kv_bytes_per_token(model: &ModelSpec, quant: Quant) -> u64 {
    2 * model.layers as u64 * model.kv_dim() as u64 * quant.kv_bytes_per_elem()
}

/// Total KV-cache bytes at context length `seq_len` (batch size 1).
pub fn kv_cache_bytes(model: &ModelSpec, quant: Quant, seq_len: usize) -> u64 {
    kv_bytes_per_token(model, quant) * seq_len as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn seventy_b_cache_under_700mb_at_1000_tokens() {
        // Paper claim: "a 70B parameter LLM with a sequence length of 1000
        // would require a KV cache of around 700MB" (upper bound; GQA
        // brings the INT8 figure well below it).
        let bytes = kv_cache_bytes(&zoo::llama2_70b(), Quant::W8A8, 1000);
        assert!(bytes <= 700_000_000, "{bytes}");
        assert!(bytes >= 100_000_000, "{bytes}"); // sanity: non-trivial
    }

    #[test]
    fn cache_scales_linearly_with_seq() {
        let m = zoo::opt_13b();
        let one = kv_cache_bytes(&m, Quant::W8A8, 1);
        let thousand = kv_cache_bytes(&m, Quant::W8A8, 1000);
        assert_eq!(thousand, one * 1000);
    }

    #[test]
    fn w4a16_kv_is_twice_int8() {
        let m = zoo::llama2_7b();
        assert_eq!(
            kv_bytes_per_token(&m, Quant::W4A16),
            2 * kv_bytes_per_token(&m, Quant::W8A8)
        );
    }

    #[test]
    fn gqa_shrinks_cache_8x() {
        let m = zoo::llama2_70b();
        let per_tok = kv_bytes_per_token(&m, Quant::W8A8);
        // 2 × 80 layers × 1024 kv_dim × 1 B
        assert_eq!(per_tok, 2 * 80 * 1024);
    }
}
