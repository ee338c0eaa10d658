//! Correctness outputs of a run: the outcome fingerprint, job
//! conservation, and energy sanity. Simulated statistics are checked
//! here and never reported as performance metrics: a speed-only change
//! must leave them byte-identical.

use epa_sched::engine::SimOutcome;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit, over bytes and (for long id lists) 32-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds `words` in, one word per step.
    pub fn words(&mut self, words: &[u32]) {
        self.bytes(&(words.len() as u64).to_le_bytes());
        for &w in words {
            self.0 ^= u64::from(w);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What the completion sink received: a hash of every byte, the byte
/// count, and the record (line) count.
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkTotals {
    /// FNV-1a of the bytes written.
    pub hash: Fnv,
    /// Bytes written.
    pub bytes: u64,
    /// Newline-terminated records written.
    pub records: u64,
}

/// The completion sink of the streaming workload: it folds the JSONL
/// stream into [`SinkTotals`] instead of storing it, so the stream's
/// content is checked without holding it in memory.
pub struct HashSink(pub Arc<Mutex<SinkTotals>>);

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut t = self.0.lock().expect("sink lock poisoned");
        t.hash.bytes(buf);
        t.bytes += buf.len() as u64;
        t.records += buf.iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The correctness facts of one run: what the checks compare. They
/// travel between processes as one line of text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// Hash of the serialized outcome (per-job node lists hashed as
    /// words) and of the completion-sink stream, if any.
    pub fingerprint: u64,
    /// `jobs/submitted`.
    pub submitted: u64,
    /// Killed jobs requeued as continuations.
    pub requeues: u64,
    /// Completed jobs (including kills).
    pub completed: u64,
    /// Jobs queued or running at the horizon.
    pub unfinished: u64,
    /// Whether the total and every retained per-job energy are finite
    /// and non-negative.
    pub energy_ok: bool,
}

impl Facts {
    /// Jobs the outcome does not account for. Every submission and every
    /// requeued continuation must end completed (kills included) or
    /// still queued/running at the horizon.
    #[must_use]
    pub fn unaccounted(&self) -> u64 {
        (self.submitted + self.requeues).abs_diff(self.completed + self.unfinished)
    }
}

impl fmt::Display for Facts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x} {} {} {} {} {}",
            self.fingerprint,
            self.submitted,
            self.requeues,
            self.completed,
            self.unfinished,
            u8::from(self.energy_ok)
        )
    }
}

impl FromStr for Facts {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, String> {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad field {i} in facts {line:?}"))
        };
        if f.len() != 6 {
            return Err(format!("facts need 6 fields: {line:?}"));
        }
        Ok(Facts {
            fingerprint: u64::from_str_radix(f[0], 16).map_err(|e| format!("{e} in {line:?}"))?,
            submitted: num(1)?,
            requeues: num(2)?,
            completed: num(3)?,
            unfinished: num(4)?,
            energy_ok: num(5)? == 1,
        })
    }
}

/// The facts the benchmark keeps from one [`SimOutcome`] after the
/// outcome (up to hundreds of MiB of per-node lists) is dropped.
#[derive(Debug, Clone)]
pub struct Summary {
    /// What the correctness checks compare.
    pub facts: Facts,
    /// Node failures.
    pub node_failures: u64,
    /// Jobs killed by emergency sheds.
    pub emergency_kills: u64,
    /// Retained completion records.
    pub records: u64,
    /// Σ allocated nodes over the retained completion records.
    pub node_starts: u64,
    /// The outcome's counter map.
    pub counters: BTreeMap<String, u64>,
}

impl Summary {
    /// Fingerprints and summarizes `out`, consuming it.
    #[must_use]
    pub fn of(mut out: SimOutcome, sink: Option<SinkTotals>) -> Self {
        let mut jobs = std::mem::take(&mut out.jobs);
        let mut h = Fnv::default();
        h.bytes(
            serde_json::to_string(&out)
                .expect("outcome serializes")
                .as_bytes(),
        );
        let mut energy_ok = out.energy_joules.is_finite() && out.energy_joules >= 0.0;
        let mut node_starts = 0u64;
        for job in &mut jobs {
            energy_ok &= job.energy_joules.is_finite() && job.energy_joules >= 0.0;
            node_starts += u64::from(job.nodes);
            // Node lists dominate the outcome; hash them as words rather
            // than through their JSON text.
            let ids = std::mem::take(&mut job.node_ids);
            h.bytes(
                serde_json::to_string(&*job)
                    .expect("job serializes")
                    .as_bytes(),
            );
            h.words(&ids);
        }
        if let Some(s) = sink {
            h.bytes(&s.hash.finish().to_le_bytes());
            h.bytes(&s.bytes.to_le_bytes());
        }
        Summary {
            facts: Facts {
                fingerprint: h.finish(),
                submitted: out.counters.get("jobs/submitted").copied().unwrap_or(0),
                requeues: out.requeues,
                completed: out.completed,
                unfinished: out.unfinished,
                energy_ok,
            },
            node_failures: out.node_failures,
            emergency_kills: out.emergency_kills,
            records: jobs.len() as u64,
            node_starts,
            counters: out.counters,
        }
    }

    /// A counter from the outcome's counter map (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn word_hash_separates_lists() {
        let hash = |parts: &[&[u32]]| {
            let mut h = Fnv::default();
            for p in parts {
                h.words(p);
            }
            h.finish()
        };
        assert_ne!(hash(&[&[1, 2], &[3]]), hash(&[&[1], &[2, 3]]));
        assert_eq!(hash(&[&[1, 2, 3]]), hash(&[&[1, 2, 3]]));
    }

    #[test]
    fn facts_round_trip_through_text() {
        let facts = Facts {
            fingerprint: 0xdead_beef_0123_4567,
            submitted: 10,
            requeues: 2,
            completed: 9,
            unfinished: 3,
            energy_ok: true,
        };
        assert_eq!(facts.to_string().parse::<Facts>(), Ok(facts));
        assert_eq!(facts.unaccounted(), 0);
        assert!("1 2 3".parse::<Facts>().is_err());
        let lost = Facts {
            completed: 7,
            ..facts
        };
        assert_eq!(lost.unaccounted(), 2);
    }

    #[test]
    fn hash_sink_counts_records_and_bytes() {
        let totals = Arc::new(Mutex::new(SinkTotals::default()));
        let mut sink = HashSink(Arc::clone(&totals));
        writeln!(sink, "{{\"id\":1}}").expect("in-memory write");
        writeln!(sink, "{{\"id\":2}}").expect("in-memory write");
        let t = *totals.lock().expect("not poisoned");
        assert_eq!(t.records, 2);
        assert_eq!(t.bytes, 18);
    }
}
