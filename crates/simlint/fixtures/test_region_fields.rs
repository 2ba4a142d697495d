// simlint-fixture: crates/core/src/example.rs
//! A `#[cfg(test)]` on a struct field covers that field only: it ends
//! at the field's comma, or at the closing brace after the last field.
//! The `impl` blocks after such a struct are live code and are linted.
//! A test item's generic commas do not end it early.
use std::collections::BTreeMap;

pub struct Memo {
    entries: BTreeMap<u64, u64>,
    #[cfg(test)]
    probes: Vec<(u64, u64)>,
    hits: u64,
}

impl Memo {
    pub fn stamp(&self) -> u128 {
        let t = std::time::Instant::now(); //~ D2
        t.elapsed().as_nanos() + self.hits as u128
    }
}

pub struct Tail {
    #[cfg(test)]
    probe: u64
}

impl Tail {
    pub fn total(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() //~ D3
    }
}

#[cfg(test)]
fn timed<A: Into<u64>, B>(a: A, _b: B) -> u128 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() + a.into() as u128
}
