//! Transformer model architecture descriptions.
//!
//! The simulator never touches real weights: everything the timing model
//! needs is the *shape* of each weight matrix and the op sequence of a
//! decode step. [`ModelSpec`] captures exactly that for the decoder-only
//! models the paper evaluates (OPT and Llama-2 families).

use std::fmt;

/// Which family a model belongss to; families differ in FFN structure and
/// attention layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// OPT: ReLU FFN with two projections (`W1: 4h×h`, `W2: h×4h`),
    /// learned positional embeddings, multi-head attention.
    Opt,
    /// Llama-2: SwiGLU FFN with three projections (gate/up/down), RoPE,
    /// grouped-query attention on the 70B variant.
    Llama2,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Family::Opt => write!(f, "OPT"),
            Family::Llama2 => write!(f, "Llama2"),
        }
    }
}

/// Architecture of a decoder-only transformer, sufficient to enumerate
/// every weight matrix and every decode-phase operation.
///
/// # Examples
///
/// ```
/// use llm_workload::zoo;
///
/// let m = zoo::opt_6_7b();
/// // Parameter count derived from shapes lands within 3% of the nominal 6.7B.
/// let p = m.param_count() as f64;
/// assert!((p - 6.7e9).abs() / 6.7e9 < 0.05, "{p}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"OPT-6.7B"`.
    pub name: &'static str,
    /// Model family.
    pub family: Family,
    /// Number of decoder layers.
    pub layers: usize,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Number of key/value heads (< `heads` under grouped-query attention).
    pub kv_heads: usize,
    /// FFN intermediate dimension.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length the model supports.
    pub max_seq: usize,
}

impl ModelSpec {
    /// Dimension of one attention head.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads` (invalid spec).
    pub fn head_dim(&self) -> usize {
        assert!(
            self.hidden % self.heads == 0,
            "hidden {} not divisible by heads {}",
            self.hidden,
            self.heads
        );
        self.hidden / self.heads
    }

    /// Total dimension of the K (or V) projection output:
    /// `kv_heads * head_dim`. Equals `hidden` without GQA.
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim()
    }

    /// Shapes `(rows, cols)` of every distinct weight matrix in one layer,
    /// in execution order. `y = W x` convention: `W` is `rows × cols`,
    /// the input activation has length `cols`.
    pub fn layer_matrices(&self) -> Vec<(&'static str, usize, usize)> {
        let h = self.hidden;
        let kv = self.kv_dim();
        match self.family {
            Family::Opt => vec![
                ("Wq", h, h),
                ("Wk", kv, h),
                ("Wv", kv, h),
                ("Wo", h, h),
                ("W1", self.ffn, h),
                ("W2", h, self.ffn),
            ],
            Family::Llama2 => vec![
                ("Wq", h, h),
                ("Wk", kv, h),
                ("Wv", kv, h),
                ("Wo", h, h),
                ("Wgate", self.ffn, h),
                ("Wup", self.ffn, h),
                ("Wdown", h, self.ffn),
            ],
        }
    }

    /// Parameters in one decoder layer (weight matrices only; norms and
    /// biases are < 0.1% and ignored, as the paper does).
    pub fn layer_params(&self) -> u64 {
        self.layer_matrices()
            .iter()
            .map(|&(_, r, c)| r as u64 * c as u64)
            .sum()
    }

    /// Total parameter count: all layers plus the embedding table and the
    /// output (LM-head) projection.
    pub fn param_count(&self) -> u64 {
        let embed = self.vocab as u64 * self.hidden as u64;
        // OPT additionally learns positional embeddings.
        let pos = match self.family {
            Family::Opt => self.max_seq as u64 * self.hidden as u64,
            Family::Llama2 => 0,
        };
        self.layer_params() * self.layers as u64 + 2 * embed + pos
    }

    /// Bytes of weight storage under `bits`-bit weight quantization.
    pub fn weight_bytes(&self, bits: u32) -> u64 {
        self.param_count() * bits as u64 / 8
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (divisibility, nonzero dims, GQA head counts).
    pub fn validate(&self) -> Result<(), String> {
        if self.layers == 0 || self.hidden == 0 || self.heads == 0 || self.ffn == 0 {
            return Err(format!("{}: zero-sized dimension", self.name));
        }
        if self.hidden % self.heads != 0 {
            return Err(format!(
                "{}: hidden {} not divisible by heads {}",
                self.name, self.hidden, self.heads
            ));
        }
        if self.kv_heads == 0 || self.heads % self.kv_heads != 0 {
            return Err(format!(
                "{}: heads {} not a multiple of kv_heads {}",
                self.name, self.heads, self.kv_heads
            ));
        }
        Ok(())
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, hidden {}, {} heads, ffn {})",
            self.name, self.layers, self.hidden, self.heads, self.ffn
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::zoo;

    #[test]
    fn head_dim_and_kv_dim() {
        let m = zoo::llama2_70b();
        assert_eq!(m.head_dim(), 128);
        assert_eq!(m.kv_dim(), 1024); // 8 kv heads × 128 (GQA)
        let o = zoo::opt_6_7b();
        assert_eq!(o.kv_dim(), o.hidden); // no GQA
    }

    #[test]
    fn opt_layer_has_six_matrices_llama_seven() {
        assert_eq!(zoo::opt_6_7b().layer_matrices().len(), 6);
        assert_eq!(zoo::llama2_7b().layer_matrices().len(), 7);
    }

    #[test]
    fn all_zoo_models_validate() {
        for m in zoo::all() {
            m.validate().unwrap();
        }
    }

    #[test]
    fn param_counts_match_nominal_sizes() {
        // Within 6% of the marketing number (which excludes/includes
        // embeddings inconsistently across papers).
        let cases = [
            (zoo::opt_6_7b(), 6.7e9),
            (zoo::opt_13b(), 13.0e9),
            (zoo::opt_30b(), 30.0e9),
            (zoo::opt_66b(), 66.0e9),
            (zoo::llama2_7b(), 6.7e9),
            (zoo::llama2_13b(), 13.0e9),
            (zoo::llama2_70b(), 69.0e9),
        ];
        for (m, nominal) in cases {
            let p = m.param_count() as f64;
            assert!(
                (p - nominal).abs() / nominal < 0.06,
                "{}: {p} vs nominal {nominal}",
                m.name
            );
        }
    }

    #[test]
    fn weight_bytes_scale_with_bits() {
        let m = zoo::opt_6_7b();
        assert_eq!(m.weight_bytes(8), m.param_count());
        assert_eq!(m.weight_bytes(4), m.param_count() / 2);
    }

    #[test]
    fn smallest_llama7b_matrix_is_16mb_claim() {
        // Paper §III-B: "even the smallest weight matrix of the llama2-7B
        // model is 16MB" under INT8, so page granularity (16 KB)
        // fragmentation is negligible.
        let m = zoo::llama2_7b();
        let smallest = m
            .layer_matrices()
            .iter()
            .map(|&(_, r, c)| r as u64 * c as u64)
            .min()
            .expect("layer has matrices");
        assert_eq!(smallest, 4096 * 4096);
        assert!(crate::Quant::W8A8.weight_bytes(smallest) >= 16 * 1024 * 1024);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut m = zoo::opt_6_7b();
        m.heads = 33;
        assert!(m.validate().is_err());
        let mut m2 = zoo::llama2_70b();
        m2.kv_heads = 7;
        assert!(m2.validate().is_err());
        let mut m3 = zoo::opt_6_7b();
        m3.layers = 0;
        assert!(m3.validate().is_err());
    }
}
