//! Output checks: every timed read is compared with a digest computed
//! at set-up by a fresh, cache-off session.

/// Row count plus a 64-bit FNV-1a hash of the rendered result text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Answer rows.
    pub rows: u64,
    /// Hash of the rendered rows.
    pub hash: u64,
}

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the 64-bit FNV-1a hash `hash` over `bytes`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Digest {
    /// The digest of a result with `rows` rows rendered as `text`.
    pub fn of(rows: u64, text: &str) -> Digest {
        Digest {
            rows,
            hash: fnv1a(FNV_START, text.as_bytes()),
        }
    }
}

/// Operations attempted and failed. A failure is an error reply, an
/// output mismatch, or an incomplete search.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Records one operation; returns `ok` so callers can chain.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Checks `got` against `expected` and records the outcome.
    pub fn check(&mut self, expected: Digest, got: Result<Digest, String>, what: &str) -> bool {
        let ok = match got {
            Ok(d) if d == expected => true,
            Ok(d) => {
                eprintln!("perfbench: wrong output for {what}: expected {expected:?}, got {d:?}");
                false
            }
            Err(e) => {
                eprintln!("perfbench: {what} failed: {e}");
                false
            }
        };
        self.record(ok)
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_rows_and_text() {
        let a = Digest::of(2, "x\ta\nb\n");
        assert_eq!(a, Digest::of(2, "x\ta\nb\n"));
        assert_ne!(a, Digest::of(2, "x\ta\nc\n"));
        assert_ne!(a, Digest::of(3, "x\ta\nb\n"));
    }

    #[test]
    fn corrupted_digest_counts_as_failure() {
        let expected = Digest::of(1, "w\n[v1 -rel0-> v2]\n");
        let mut t = Tally::default();
        assert!(t.check(expected, Ok(expected), "good"));
        let mut corrupted = expected;
        corrupted.hash ^= 1;
        assert!(!t.check(expected, Ok(corrupted), "corrupted hash"));
        let mut short = expected;
        short.rows -= 1;
        assert!(!t.check(expected, Ok(short), "corrupted row count"));
        assert!(!t.check(expected, Err("error reply".into()), "error"));
        assert_eq!((t.attempted, t.failed), (4, 3));
    }
}
