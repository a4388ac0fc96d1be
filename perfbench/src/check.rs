//! Correctness of the answers a run received.
//!
//! Two checks, both outside the timed window:
//! * every repeat of a statement must return the byte-identical
//!   normalized frame (the `cached` flag is the only field a hit may
//!   change);
//! * a fixed seeded sample of distinct statements is evaluated by the
//!   brute-force reference and must match the served rows.

use crate::workload::mix;
use cvr_data::gen::SsbTables;
use cvr_data::reference;
use cvr_data::result::QueryOutput;
use cvr_server::parse_query;
use std::collections::HashMap;

/// Statements checked against the reference per run (~40 ms each at sf 0.02).
pub const REFERENCE_CHECKS: usize = 16;

/// Fingerprints of the frames received, per distinct statement.
#[derive(Default)]
pub struct Answers {
    frames: HashMap<usize, u64>,
    /// Repeats whose frame differed from the first answer.
    pub mismatches: u64,
    /// Row payloads of the sampled statements.
    outputs: HashMap<usize, Vec<u8>>,
}

impl Answers {
    /// Record the normalized frame fingerprint of statement `id`; `output`
    /// is its row payload when the statement is in the sample.
    pub fn record(&mut self, id: usize, frame: u64, output: Option<Vec<u8>>) {
        if *self.frames.entry(id).or_insert(frame) != frame {
            self.mismatches += 1;
        }
        if let Some(bytes) = output {
            self.outputs.entry(id).or_insert(bytes);
        }
    }

    /// Fold `other` in: its repeats must match the frames seen here.
    pub fn merge(&mut self, other: &Answers) {
        for (&id, &frame) in &other.frames {
            self.record(id, frame, None);
        }
        self.mismatches += other.mismatches;
        for (&id, bytes) in &other.outputs {
            self.outputs.entry(id).or_insert_with(|| bytes.clone());
        }
    }

    /// The frame fingerprint first recorded for `id`.
    pub fn frame(&self, id: usize) -> Option<u64> {
        self.frames.get(&id).copied()
    }

    /// The sampled statement ids to check, in a seeded order.
    pub fn sample(&self, seed: u64, n: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = self.outputs.keys().copied().collect();
        ids.sort_by_key(|&id| (mix(seed ^ 0xC4EC ^ id as u64), id));
        ids.truncate(n);
        ids
    }

    /// Check the sampled statements against the reference evaluator;
    /// returns `(checked, wrong)`.
    pub fn check_reference(
        &self,
        tables: &SsbTables,
        seed: u64,
        sql_of: impl Fn(usize) -> String,
    ) -> (usize, Vec<String>) {
        let mut wrong = Vec::new();
        let ids = self.sample(seed, REFERENCE_CHECKS);
        for &id in &ids {
            let sql = sql_of(id);
            let expected =
                reference::evaluate(tables, &parse_query(&sql).expect("stream SQL parses"));
            match QueryOutput::from_bytes(&self.outputs[&id]) {
                Ok(got) if got == expected => {}
                Ok(_) => wrong.push(format!("wrong rows for `{sql}`")),
                Err(e) => wrong.push(format!("undecodable rows for `{sql}`: {e}")),
            }
        }
        (ids.len(), wrong)
    }
}

/// Whether statement `id` keeps its rows for the reference check: one in
/// 32, drawn by the seed.
pub fn sampled(seed: u64, id: usize) -> bool {
    mix(seed ^ 0x5A3B ^ id as u64).is_multiple_of(32)
}
