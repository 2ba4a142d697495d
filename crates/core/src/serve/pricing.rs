//! The pricing step: every cost a serving run can read, derived once
//! before any event loop starts, into one immutable [`PricedRun`].
//!
//! A [`System`] prices the plan's seq-invariant slots, every admitted
//! request's decode range of attention positions (its prompt length up
//! to prompt plus decode length) and each prompt length's prefill cost,
//! and is dropped once the tables are filled. The event loops then
//! borrow the result: [`DeviceEngine::run`] prices its own trace, and
//! the Monte Carlo harness and the fleet price all their traces into
//! one `PricedRun` that every run reads through a shared reference. A
//! loop cannot price anything, because it holds no `System`.
//!
//! [`DeviceEngine::run`]: super::DeviceEngine::run

use super::device::DeviceEngine;
use super::run::{kv_cache, FLASH, NPU};
use super::PrefillMode;
use crate::reliability::FaultMode;
use crate::system::{OpClass, PrefillCost, System, TrafficBreakdown};
use llm_workload::{ArrivalTrace, ModelSpec, Quant, RequestShape, TokenPlan};
use sim_core::{transfer_time, SimTime};
use std::collections::BTreeMap;

/// Upper bound on seq-dependent cost slots per plan (both model
/// families have exactly three: scores, softmax, context). Sized with
/// one spare so a new attention template doesn't immediately overflow.
pub(super) const MAX_DEP_SLOTS: usize = 4;

/// [`PlanTable::pos_lat`] values at or above this are seq-dependent-slot
/// markers (`u64::MAX - dep_index`), not latencies.
pub(super) const DEP_LAT_MARK: u64 = u64::MAX - MAX_DEP_SLOTS as u64;

/// [`AttnTable::lat`] marker of a position no request's range covers.
const UNPRICED: u64 = u64::MAX;

/// Every cost the runs of a scenario can read, priced before any of
/// them starts: the plan's slot tables, the attention prices of every
/// admitted request's decode positions, the prefill cost per prompt
/// length, and what fault sampling and the batched compute floors
/// need. Immutable once built; runs borrow it.
#[derive(Debug)]
pub(crate) struct PricedRun {
    /// The model and quantization the plan was built from (a
    /// [`TokenPlan`] is a function of the two): a run must belong to
    /// that plan.
    priced_for: (ModelSpec, Quant),
    /// Per-slot latencies and traffic.
    pub(super) table: PlanTable,
    /// Attention prices by sequence position.
    attn: AttnTable,
    /// Prefill cost per non-empty prompt length of an admitted request
    /// (empty with prefill off).
    prefill: BTreeMap<usize, PrefillCost>,
    /// Effective plain-read bandwidth in bytes/s; `Some` iff the
    /// pricing engine injects faults, whose page-read time derives
    /// from it.
    read_bw: Option<f64>,
    /// The NPU's peak ops per second: the batched NPU compute floor's
    /// divisor, as in [`System::npu_compute_time`].
    npu_ops_per_sec: u64,
    /// The in-flash cores' aggregate ops per second: the batched flash
    /// compute floor's divisor, as in [`System::flash_compute_time`].
    flash_ops_per_sec: u64,
    /// Op costs the pricing step derived (distinct canonical shapes).
    op_misses: u64,
    /// GeMV shapes the pricing step simulated.
    gemv_misses: u64,
}

impl PricedRun {
    /// Prices, once each, every cost the requests of `traces` can ask
    /// of the system: every attention position a request decodes at,
    /// the seq-invariant slots when any request decodes, and, with
    /// prefill modelled, each distinct non-empty prompt length's prefill
    /// cost. Requests whose context the KV cache rejects never run and
    /// are skipped. Every admitted request is priced whole, even if a
    /// fault deadline sheds it mid-decode. The miss counts are the
    /// pricing work, which is what a cold run reports.
    pub(crate) fn new(engine: &DeviceEngine, traces: &[ArrivalTrace]) -> Self {
        let mut system = System::new(engine.cfg);
        let plan = &engine.plan;
        let ranges = decode_ranges(engine, traces);
        let mut table = PlanTable::new(plan);
        if !ranges.is_empty() {
            table.price_invariant(&mut system, plan);
        }
        let (n_inv, n_dep, dep_counts) = (table.n_inv, table.n_dep, table.dep_counts);
        // Each position's slots go through `System::op_cost` in
        // ascending slot order, exactly the calls per-op stepping makes.
        let attn = AttnTable::build(&ranges, |pos| {
            let mut p = AttnPoint::default();
            let mut sum = SimTime::ZERO;
            for (d, &count) in dep_counts.iter().enumerate().take(n_dep) {
                let cost = system.op_cost(&plan.slot_op(n_inv + d, pos));
                p.lat[d] = cost.latency;
                p.traffic.absorb_scaled(&cost.traffic, count);
                sum += cost.latency * count;
            }
            (p, sum.as_picos())
        });
        let mut prefill = BTreeMap::new();
        if engine.prefill == PrefillMode::Modeled {
            for m in prompt_lens(&ranges) {
                prefill.insert(m, system.prefill_cost(&engine.prefill_plan, m));
            }
        }
        let read_bw = matches!(engine.faults, FaultMode::Injected(_))
            .then(|| system.effective_read_bandwidth());
        PricedRun {
            priced_for: (engine.model.clone(), engine.cfg.quant),
            table,
            attn,
            prefill,
            read_bw,
            npu_ops_per_sec: system.npu_ops_per_sec(),
            flash_ops_per_sec: system.flash_ops_per_sec(),
            op_misses: system.op_cost_cache().misses(),
            gemv_misses: system.gemv_cache().misses(),
        }
    }

    /// A table priced for every run of `traces` on `engine`, shared by
    /// all of them, with both miss counts zeroed: its runs' cache
    /// counters count against this shared table, so each reports zero
    /// misses.
    pub(crate) fn shared(engine: &DeviceEngine, traces: &[ArrivalTrace]) -> Self {
        PricedRun {
            op_misses: 0,
            gemv_misses: 0,
            ..PricedRun::new(engine, traces)
        }
    }

    /// Panics unless `engine` walks the plan this table was priced for.
    pub(super) fn check_plan(&self, engine: &DeviceEngine) {
        let (model, quant) = &self.priced_for;
        assert!(
            *model == engine.model && *quant == engine.cfg.quant,
            "a plan table is reused only with the plan that priced it"
        );
    }

    /// The attention slots' prices at sequence position `seq`: the
    /// position's per-slot latencies plus its combined count-scaled
    /// traffic.
    pub(super) fn attn_at(&self, seq: usize) -> ([SimTime; MAX_DEP_SLOTS], TrafficBreakdown) {
        let (lo, hi) = self.attn.span(seq, seq + 1);
        let mut lat = [SimTime::ZERO; MAX_DEP_SLOTS];
        for (d, l) in lat.iter_mut().enumerate().take(self.table.n_dep) {
            *l = hi.lat[d] - lo.lat[d];
        }
        (lat, hi.traffic.difference(&lo.traffic))
    }

    /// The attention traffic of positions `lo..hi`, one difference of
    /// two cumulative entries.
    pub(super) fn attn_traffic(&self, lo: usize, hi: usize) -> TrafficBreakdown {
        let (a, b) = self.attn.span(lo, hi);
        b.traffic.difference(&a.traffic)
    }

    /// The summed attention latency of sequence position `seq` in
    /// picoseconds (one member's attention time in a batched step).
    #[inline]
    pub(super) fn attn_lat_at(&self, seq: usize) -> u64 {
        self.attn.lat(seq)
    }

    /// The prefill cost of an admitted request's `prompt_len`-token
    /// prompt.
    pub(super) fn prefill_cost(&self, prompt_len: usize) -> &PrefillCost {
        self.prefill
            .get(&prompt_len)
            .expect("prefill charged for a prompt length the pricing step did not price")
    }

    /// The effective read bandwidth fault sampling derives page-read
    /// time from; `None` when the table was priced without faults.
    pub(super) fn read_bw(&self) -> Option<f64> {
        self.read_bw
    }

    /// NPU roofline time for `ops`, bit-identical to
    /// [`System::npu_compute_time`] on the pricing system.
    #[inline]
    pub(super) fn npu_compute_time(&self, ops: u64) -> SimTime {
        transfer_time(ops, self.npu_ops_per_sec)
    }

    /// In-flash compute time for `ops`, bit-identical to
    /// [`System::flash_compute_time`] on the pricing system.
    #[inline]
    pub(super) fn flash_compute_time(&self, ops: u64) -> SimTime {
        transfer_time(ops, self.flash_ops_per_sec)
    }

    /// `(op-cost misses, GeMV misses)` of the pricing step; zero for a
    /// [`PricedRun::shared`] table.
    pub(super) fn misses(&self) -> (u64, u64) {
        (self.op_misses, self.gemv_misses)
    }

    /// The attention positions priced, ascending.
    #[cfg(test)]
    pub(crate) fn priced_positions(&self) -> Vec<usize> {
        self.attn.priced_positions()
    }
}

/// Every admitted request's decode range `(prompt_len, prompt_len +
/// new_tokens)` across `traces`, sorted and deduplicated. A request
/// with nothing to decode, or whose context the KV cache can never
/// hold, owns no range.
pub(super) fn decode_ranges(engine: &DeviceEngine, traces: &[ArrivalTrace]) -> Vec<(usize, usize)> {
    let max_context = kv_cache(engine).max_tokens();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for trace in traces {
        let mut note = |shape: &RequestShape| {
            let end = shape.prompt_len + shape.new_tokens;
            if shape.new_tokens > 0 && end <= max_context {
                ranges.push((shape.prompt_len, end));
            }
        };
        match trace {
            ArrivalTrace::Open(arrivals) => arrivals.iter().for_each(|a| note(&a.shape)),
            ArrivalTrace::ClosedLoop { shape, .. } => note(shape),
        }
    }
    ranges.sort_unstable();
    ranges.dedup();
    ranges
}

/// The distinct non-empty prompt lengths of sorted `ranges`, ascending:
/// the prompts that owe a prefill.
pub(super) fn prompt_lens(ranges: &[(usize, usize)]) -> impl Iterator<Item = usize> + '_ {
    let mut last = 0;
    ranges.iter().filter_map(move |&(m, _)| {
        let new = m > last;
        last = m;
        new.then_some(m)
    })
}

/// Per-plan pricing table: latencies and traffic by cost slot, so the
/// per-op dispatch path is an array index instead of an op
/// materialization plus cost derivation.
#[derive(Debug)]
pub(super) struct PlanTable {
    /// Resource index ([`FLASH`] or [`NPU`]) of each plan position.
    pub(super) class_slots: Vec<u8>,
    /// Dispatch latency of each plan position in picoseconds (empty
    /// when no request decodes: such a trace prices no slot): an
    /// invariant position carries its slot's latency; a seq-dependent
    /// position carries `u64::MAX - dep_index` (never a real latency),
    /// telling the dispatch path to read the request's own attention
    /// pricing instead.
    pub(super) pos_lat: Vec<u64>,
    /// Latency per seq-invariant slot (indices `0..n_inv`).
    pub(super) inv_lat: Vec<SimTime>,
    pub(super) n_inv: usize,
    pub(super) n_dep: usize,
    /// Ops per token mapping to each invariant slot.
    pub(super) inv_counts: Vec<u64>,
    /// Whether each invariant slot is a weight GeMV (flash class).
    pub(super) inv_is_weight: Vec<bool>,
    /// Ops per token mapping to each seq-dependent slot.
    pub(super) dep_counts: [u64; MAX_DEP_SLOTS],
    /// Serial per-token latency of the weight (flash) positions —
    /// `Σ inv_lat × count` over weight slots. One term of a solo span's
    /// token latency.
    pub(super) solo_flash_lat: SimTime,
    /// Serial per-token latency of the invariant NPU positions (the
    /// attention slots are priced per sequence position on top).
    pub(super) solo_npu_lat: SimTime,
    /// Traffic of one token's seq-invariant ops.
    pub(super) inv_traffic: TrafficBreakdown,
    /// The shared-stream share of `inv_traffic`: NAND reads, in-flash
    /// consumption and the D2D weight share, which a batched step pays
    /// **once** for the whole batch.
    pub(super) inv_stream_traffic: TrafficBreakdown,
    /// The per-request share of `inv_traffic` — each member's share of
    /// the GeMV arithmetic on both sides, plus KV appends, norms and
    /// activations: repeated per batch member.
    pub(super) inv_request_traffic: TrafficBreakdown,
    /// Per-request NPU ops of each invariant slot's op (zero for
    /// non-weight slots): the operand of the batched NPU compute floor.
    pub(super) inv_npu_ops: Vec<u64>,
    /// Per-request in-flash ops of each invariant slot's op (zero for
    /// non-weight slots): the operand of the batched flash-core floor.
    pub(super) inv_flash_ops: Vec<u64>,
    /// Weight GeMVs per token (for GeMV-cache recall accounting).
    pub(super) gemvs_per_token: u64,
}

impl PlanTable {
    /// `plan`'s slot layout with no slot priced yet.
    fn new(plan: &TokenPlan) -> Self {
        let class_slots: Vec<u8> = (0..plan.len())
            .map(|idx| match OpClass::of(&plan.op_at(idx, 0)) {
                OpClass::Flash => FLASH as u8,
                OpClass::Npu => NPU as u8,
            })
            .collect();
        let gemvs_per_token = plan.weight_ops_per_token() as u64;
        debug_assert_eq!(
            gemvs_per_token,
            class_slots.iter().filter(|&&c| c == FLASH as u8).count() as u64,
            "plan's weight positions disagree with the op classification"
        );
        let n_inv = plan.invariant_slots();
        let n_dep = plan.dependent_slots();
        assert!(
            n_dep <= MAX_DEP_SLOTS,
            "plan has {n_dep} seq-dependent slots; raise MAX_DEP_SLOTS"
        );
        let mut dep_counts = [0u64; MAX_DEP_SLOTS];
        for (d, count) in dep_counts.iter_mut().enumerate().take(n_dep) {
            *count = plan.slot_count(n_inv + d) as u64;
        }
        PlanTable {
            class_slots,
            pos_lat: Vec::new(),
            inv_lat: vec![SimTime::ZERO; n_inv],
            n_inv,
            n_dep,
            inv_counts: (0..n_inv).map(|s| plan.slot_count(s) as u64).collect(),
            inv_is_weight: (0..n_inv).map(|s| plan.slot_is_weight(s)).collect(),
            dep_counts,
            solo_flash_lat: SimTime::ZERO,
            solo_npu_lat: SimTime::ZERO,
            inv_traffic: TrafficBreakdown::default(),
            inv_stream_traffic: TrafficBreakdown::default(),
            inv_request_traffic: TrafficBreakdown::default(),
            inv_npu_ops: vec![0; n_inv],
            inv_flash_ops: vec![0; n_inv],
            gemvs_per_token,
        }
    }

    /// Prices the seq-invariant slots, filling the latency tables and
    /// both traffic views (serial total for the unbatched loop, the
    /// stream/per-request split for batched steps).
    fn price_invariant(&mut self, system: &mut System, plan: &TokenPlan) {
        for s in 0..self.n_inv {
            let cost = system.op_cost(&plan.slot_op(s, 0));
            self.inv_lat[s] = cost.latency;
            let count = plan.slot_count(s) as u64;
            self.inv_traffic.absorb_scaled(&cost.traffic, count);
            if plan.slot_is_weight(s) {
                self.solo_flash_lat += cost.latency * count;
                // A weight slot's *weight bytes* (NAND stream, in-flash and
                // D2D consumption) are shared by a batch; everything else —
                // each member multiplying the streamed weights by its own
                // activations on both the flash cores and the NPU, and any
                // DRAM traffic a weight op might ever book — repeats per
                // member, same as the non-weight slots.
                self.inv_npu_ops[s] = cost.traffic.npu_ops;
                self.inv_flash_ops[s] = cost.traffic.flash_ops;
                let stream = TrafficBreakdown {
                    nand_array_bytes: cost.traffic.nand_array_bytes,
                    in_flash_bytes: cost.traffic.in_flash_bytes,
                    d2d_bytes: cost.traffic.d2d_bytes,
                    ..TrafficBreakdown::default()
                };
                let mut per_member = cost.traffic;
                per_member.nand_array_bytes = 0;
                per_member.in_flash_bytes = 0;
                per_member.d2d_bytes = 0;
                self.inv_stream_traffic.absorb_scaled(&stream, count);
                self.inv_request_traffic.absorb_scaled(&per_member, count);
            } else {
                self.solo_npu_lat += cost.latency * count;
                self.inv_request_traffic.absorb_scaled(&cost.traffic, count);
            }
        }
        self.pos_lat = (0..plan.len())
            .map(|idx| match plan.cost_slot(idx) {
                s if s < self.n_inv => {
                    let lat = self.inv_lat[s].as_picos();
                    debug_assert!(lat < DEP_LAT_MARK, "latency collides with dep marker");
                    lat
                }
                s => u64::MAX - (s - self.n_inv) as u64,
            })
            .collect();
    }
}

/// Sequence positions' attention prices, folded cumulatively: the
/// per-dependent-slot op latencies, their combined slot-count-scaled
/// traffic, and how many priced positions the fold holds.
#[derive(Debug, Clone, Default)]
struct AttnPoint {
    lat: [SimTime; MAX_DEP_SLOTS],
    traffic: TrafficBreakdown,
    priced: usize,
}

/// Attention prices by sequence position, dense from position 0 to the
/// end of the last priced range. Reading a position is two array reads,
/// and a contiguous range reads as one difference.
#[derive(Debug, Default)]
struct AttnTable {
    /// `cum[p]` folds the priced positions below `p`. A gap position
    /// between request ranges is never priced and carries the running
    /// fold forward, so a difference over priced positions is exact.
    cum: Vec<AttnPoint>,
    /// Each priced position's summed attention latency, `Σ lat[d] ×
    /// dep_counts[d]` in picoseconds ([`UNPRICED`] at a gap): the one
    /// number a batched step needs per member.
    lat: Vec<u64>,
}

impl AttnTable {
    /// Prices every position of sorted `ranges` once, in one ascending
    /// pass: `price` returns a position's own entry and summed latency,
    /// and is never called for a gap position or twice for a position
    /// two ranges share.
    fn build(ranges: &[(usize, usize)], mut price: impl FnMut(usize) -> (AttnPoint, u64)) -> Self {
        let end = ranges.iter().map(|&(_, hi)| hi).max().unwrap_or(0);
        let mut cum = Vec::with_capacity(end + 1);
        cum.push(AttnPoint::default());
        let mut lat = vec![UNPRICED; end];
        for &(lo, hi) in ranges {
            // `cum.len() - 1` positions are folded so far: carry the
            // fold across the gap below `lo`, then price what this range
            // adds past the positions earlier ranges priced.
            while cum.len() <= lo {
                cum.push(cum[cum.len() - 1].clone());
            }
            for pos in cum.len() - 1..hi {
                let (p, l) = price(pos);
                let mut c = cum[pos].clone();
                for (a, b) in c.lat.iter_mut().zip(&p.lat) {
                    *a += *b;
                }
                c.traffic.absorb(&p.traffic);
                c.priced += 1;
                cum.push(c);
                lat[pos] = l;
            }
        }
        AttnTable { cum, lat }
    }

    /// The cumulative entries bracketing `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, unless every position in
    /// `lo..hi` is priced.
    #[inline]
    fn span(&self, lo: usize, hi: usize) -> (&AttnPoint, &AttnPoint) {
        match (self.cum.get(lo), self.cum.get(hi)) {
            (Some(a), Some(b)) if lo <= hi && b.priced - a.priced == hi - lo => (a, b),
            _ => unpriced(lo, hi),
        }
    }

    /// Position `seq`'s summed attention latency.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, unless `seq` is priced.
    #[inline]
    fn lat(&self, seq: usize) -> u64 {
        match self.lat.get(seq) {
            Some(&lat) if lat != UNPRICED => lat,
            _ => unpriced(seq, seq + 1),
        }
    }

    #[cfg(test)]
    fn priced_positions(&self) -> Vec<usize> {
        (0..self.lat.len())
            .filter(|&pos| self.lat[pos] != UNPRICED)
            .collect()
    }
}

/// A run read attention positions no admitted request's decode range
/// covers: its table was priced for other traces.
#[cold]
#[inline(never)]
fn unpriced(lo: usize, hi: usize) -> ! {
    panic!("unpriced attention position in {lo}..{hi}: the table was priced for other traces")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::serve::SchedulePolicy;
    use llm_workload::zoo;

    /// A table whose position `p` costs `p` picoseconds in slot 0 and
    /// books `p` NPU ops, recording every position priced.
    fn toy(ranges: &[(usize, usize)]) -> (AttnTable, Vec<usize>) {
        let mut calls = Vec::new();
        let table = AttnTable::build(ranges, |pos| {
            calls.push(pos);
            let mut p = AttnPoint::default();
            p.lat[0] = SimTime::from_picos(pos as u64);
            p.traffic.npu_ops = pos as u64;
            (p, pos as u64)
        });
        (table, calls)
    }

    #[test]
    fn attn_table_prices_the_union_of_ranges_once() {
        // Overlapping, touching and gapped ranges, sorted as the pricing
        // step sorts them.
        let (table, calls) = toy(&[(10, 15), (13, 20), (20, 25), (100, 103)]);
        let union: Vec<usize> = (10..25).chain(100..103).collect();
        // Each covered position is priced once, ascending; no gap
        // position is priced.
        assert_eq!(calls, union);
        assert_eq!(table.priced_positions(), union);
        // Every range difference equals the per-position sum.
        for (lo, hi) in [(10, 25), (12, 13), (14, 21), (100, 103), (101, 102)] {
            let (a, b) = table.span(lo, hi);
            let sum: u64 = (lo..hi).map(|p| p as u64).sum();
            assert_eq!((b.lat[0] - a.lat[0]).as_picos(), sum, "{lo}..{hi}");
            assert_eq!(b.traffic.difference(&a.traffic).npu_ops, sum, "{lo}..{hi}");
            for p in lo..hi {
                assert_eq!(table.lat(p), p as u64);
            }
        }
        // Reads that reach a gap or past the end panic.
        for (lo, hi) in [(9, 10), (24, 26), (50, 51), (14, 101), (103, 104)] {
            let read = std::panic::catch_unwind(|| table.span(lo, hi).0.priced);
            assert!(read.is_err(), "{lo}..{hi} read as priced");
        }
        for pos in [0, 25, 99, 103, 500] {
            assert!(
                std::panic::catch_unwind(|| table.lat(pos)).is_err(),
                "{pos}"
            );
        }
    }

    #[test]
    fn a_run_past_its_priced_ranges_panics() {
        // A table priced for one trace cannot serve a trace that decodes
        // past it: the run stops at the first unpriced position, under
        // every policy, in every build profile.
        let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
        let shape = |new_tokens| RequestShape::new(200, new_tokens);
        let priced = PricedRun::new(&engine, &[ArrivalTrace::burst(1, shape(3))]);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        ] {
            let run = std::panic::catch_unwind(|| {
                engine.run_priced(&ArrivalTrace::burst(2, shape(5)), policy, &priced)
            });
            let err = run.expect_err("the run read an unpriced position");
            let msg = err
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(msg.starts_with("unpriced attention position"), "{msg}");
        }
    }
}
