//! The one SHA-256 hash chain under both control-plane logs.
//!
//! The audit log ([`super::audit`]) and the write-ahead journal
//! ([`super::journal`]) are the same structure over different entries:
//! each [`ChainRecord`] carries a sequence number, a virtual timestamp,
//! the previous record's digest, the entry, and a digest over all of
//! those under a domain-separated SHA-256. The chain is anchored at a
//! fixed genesis digest, so mutating, reordering, or truncating any
//! prefix is detectable from the head alone.
//!
//! An entry type plugs in through [`ChainEntry`]: its three domain
//! strings (log magic, genesis, record domain), its entry codec, and
//! the typed error its faults surface as. Everything else lives here
//! once: the record framing and digest, [`HashChain::verify_chain`]
//! (which pinpoints the first bad record), and the canonical
//! [`to_bytes`](HashChain::to_bytes) / [`from_bytes`](HashChain::from_bytes)
//! serialization.
//!
//! Serialized log: `magic[16] ‖ count:u64` then per record
//! `seq:u64 ‖ at_ns:u128 ‖ prev_digest[32] ‖ len:u64 ‖ entry[len] ‖
//! digest[32]`, all little-endian. A record digest is
//! `SHA-256(record_domain ‖ seq ‖ at_ns ‖ prev_digest ‖ entry)`.

use std::time::Duration;

use salus_crypto::sha256::{Digest, Sha256};

use super::fleet::{DeployPath, SlotId};
use crate::SalusError;

/// An entry type a [`HashChain`] can carry.
pub trait ChainEntry: Sized {
    /// The 16 bytes a serialized log opens with.
    const MAGIC: &'static [u8; 16];
    /// The domain string whose SHA-256 is the genesis digest.
    const GENESIS: &'static [u8];
    /// The domain separator every record digest starts with.
    const RECORD_DOMAIN: &'static [u8];

    /// Appends the canonical entry bytes.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one entry from exactly its bytes.
    ///
    /// # Errors
    ///
    /// The log's typed error on malformed bytes.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SalusError>;

    /// The log's typed error for `reason`.
    fn error(reason: &'static str) -> SalusError;
}

/// Smallest encoded record: seq, timestamp, previous digest, entry
/// length, a one-byte entry, digest.
const MIN_RECORD_LEN: usize = 8 + 16 + 32 + 8 + 1 + 32;

/// Appends `v` little-endian.
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` length-prefixed.
pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a slot as device then partition.
pub(crate) fn push_slot(out: &mut Vec<u8>, slot: SlotId) {
    push_u64(out, slot.device as u64);
    push_u64(out, slot.partition as u64);
}

/// Appends a duration as its nanoseconds, a little-endian `u128`.
pub(crate) fn push_duration(out: &mut Vec<u8>, d: Duration) {
    out.extend_from_slice(&d.as_nanos().to_le_bytes());
}

/// Tag byte of "no deploy path" (journal commits of non-deploy ops).
const PATH_NONE: u8 = 255;

/// Appends a deploy-path tag: 0 cold, 1 warm-key, 2 warm-image, 255
/// none.
pub(crate) fn push_path(out: &mut Vec<u8>, path: Option<DeployPath>) {
    out.push(match path {
        Some(DeployPath::Cold) => 0,
        Some(DeployPath::WarmKey) => 1,
        Some(DeployPath::WarmImage) => 2,
        None => PATH_NONE,
    });
}

/// Bounded little-endian reader over serialized log bytes. Every read
/// fails with the owning log's typed error rather than running past the
/// end.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    error: fn(&'static str) -> SalusError,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], error: fn(&'static str) -> SalusError) -> Cursor<'a> {
        Cursor {
            bytes,
            at: 0,
            error,
        }
    }

    /// The log's typed error for `reason`.
    pub(crate) fn error(&self, reason: &'static str) -> SalusError {
        (self.error)(reason)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SalusError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.error("truncated record bytes"))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SalusError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// One byte.
    pub(crate) fn u8(&mut self) -> Result<u8, SalusError> {
        Ok(self.take(1)?[0])
    }

    /// A `u64` written by [`push_u64`].
    pub(crate) fn u64(&mut self) -> Result<u64, SalusError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A duration written by [`push_duration`]; nanoseconds beyond
    /// `u64` are refused.
    pub(crate) fn duration(&mut self) -> Result<Duration, SalusError> {
        let nanos = u128::from_le_bytes(self.array()?);
        u64::try_from(nanos)
            .map(Duration::from_nanos)
            .map_err(|_| self.error("duration out of range"))
    }

    /// A string written by [`push_str`]; an oversized length or
    /// non-UTF-8 bytes are refused.
    pub(crate) fn string(&mut self) -> Result<String, SalusError> {
        let len = usize::try_from(self.u64()?)
            .ok()
            .filter(|&l| l <= self.bytes.len())
            .ok_or_else(|| self.error("oversized string length"))?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| self.error("non-utf8 string"))
    }

    /// A slot written by [`push_slot`].
    pub(crate) fn slot(&mut self) -> Result<SlotId, SalusError> {
        Ok(SlotId {
            device: self.u64()? as usize,
            partition: self.u64()? as usize,
        })
    }

    /// A deploy-path tag written by [`push_path`]; unknown tags are
    /// refused.
    pub(crate) fn path(&mut self) -> Result<Option<DeployPath>, SalusError> {
        Ok(Some(match self.u8()? {
            0 => DeployPath::Cold,
            1 => DeployPath::WarmKey,
            2 => DeployPath::WarmImage,
            PATH_NONE => return Ok(None),
            _ => return Err(self.error("unknown deploy path")),
        }))
    }
}

/// One hash-chained record. All fields are public for observers,
/// recovery drivers and tamper-evidence tests (which rebuild chains
/// from deliberately corrupted records via [`HashChain::from_records`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRecord<E> {
    /// Position in the chain, starting at 0.
    pub seq: u64,
    /// Virtual timestamp the entry was appended at.
    pub at: Duration,
    /// Digest of the previous record ([`HashChain::genesis`] for the
    /// first).
    pub prev_digest: Digest,
    /// The entry itself.
    pub entry: E,
    /// Domain-separated SHA-256 over seq, timestamp, `prev_digest`, and
    /// the canonical entry bytes.
    pub digest: Digest,
}

impl<E: ChainEntry> ChainRecord<E> {
    /// Recomputes what this record's digest must be from its own
    /// fields.
    pub fn expected_digest(&self) -> Digest {
        let mut buf = E::RECORD_DOMAIN.to_vec();
        push_u64(&mut buf, self.seq);
        push_duration(&mut buf, self.at);
        buf.extend_from_slice(&self.prev_digest);
        self.entry.encode(&mut buf);
        Sha256::digest(&buf)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.seq);
        push_duration(out, self.at);
        out.extend_from_slice(&self.prev_digest);
        let len_at = out.len();
        push_u64(out, 0);
        self.entry.encode(out);
        let len = (out.len() - len_at - 8) as u64;
        out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.digest);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<ChainRecord<E>, SalusError> {
        let seq = cur.u64()?;
        let at = cur.duration()?;
        let prev_digest = cur.array()?;
        let len = usize::try_from(cur.u64()?).map_err(|_| E::error("oversized entry length"))?;
        let mut entry_cur = Cursor::new(cur.take(len)?, E::error);
        let entry = E::decode(&mut entry_cur)?;
        if !entry_cur.done() {
            return Err(E::error("trailing entry bytes"));
        }
        Ok(ChainRecord {
            seq,
            at,
            prev_digest,
            entry,
            digest: cur.array()?,
        })
    }
}

/// Where a chain check found a log broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainFault {
    /// Index of the first record that fails verification.
    pub index: usize,
    /// What is wrong with it.
    pub reason: &'static str,
    /// `reason` as the log's typed error, which the fault converts to.
    pub error: SalusError,
}

impl ChainFault {
    /// A fault of an `E` log at record `index`.
    pub(crate) fn new<E: ChainEntry>(index: usize, reason: &'static str) -> ChainFault {
        ChainFault {
            index,
            reason,
            error: E::error(reason),
        }
    }
}

impl std::fmt::Display for ChainFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record {}: {}", self.index, self.error)
    }
}

impl From<ChainFault> for SalusError {
    fn from(fault: ChainFault) -> SalusError {
        fault.error
    }
}

/// An append-only hash chain of `E` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashChain<E> {
    records: Vec<ChainRecord<E>>,
}

impl<E> Default for HashChain<E> {
    fn default() -> HashChain<E> {
        HashChain {
            records: Vec::new(),
        }
    }
}

impl<E: ChainEntry> HashChain<E> {
    /// An empty chain.
    pub fn new() -> HashChain<E> {
        HashChain::default()
    }

    /// The fixed digest the first record chains from.
    pub fn genesis() -> Digest {
        Sha256::digest(E::GENESIS)
    }

    /// Rebuilds a chain from raw records *without* verifying them — for
    /// tamper-evidence tests and external verifiers; run
    /// [`verify_chain`](HashChain::verify_chain) afterwards.
    pub fn from_records(records: Vec<ChainRecord<E>>) -> HashChain<E> {
        HashChain { records }
    }

    /// Appends `entry` at virtual time `at` and returns the new chain
    /// head.
    pub fn append(&mut self, at: Duration, entry: E) -> Digest {
        let mut record = ChainRecord {
            seq: self.records.len() as u64,
            at,
            prev_digest: self.head(),
            entry,
            digest: [0; 32],
        };
        record.digest = record.expected_digest();
        self.records.push(record);
        self.head()
    }

    /// The digest of the latest record (the genesis digest when empty).
    /// Anchoring this head externally commits to the entire history.
    pub fn head(&self) -> Digest {
        self.records
            .last()
            .map_or_else(HashChain::<E>::genesis, |r| r.digest)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, oldest first.
    pub fn records(&self) -> &[ChainRecord<E>] {
        &self.records
    }

    /// Walks the whole chain and reports the first record that breaks
    /// it: non-contiguous sequence numbers, time running backwards, a
    /// record not chaining from its predecessor's digest (or the
    /// genesis anchor), or a digest that does not match the record's
    /// own fields.
    ///
    /// # Errors
    ///
    /// [`ChainFault`] naming the first bad record.
    pub fn verify_chain(&self) -> Result<(), ChainFault> {
        let mut prev_digest = HashChain::<E>::genesis();
        let mut prev_at = Duration::ZERO;
        for (index, record) in self.records.iter().enumerate() {
            let reason = if record.seq != index as u64 {
                "sequence number out of order"
            } else if record.at < prev_at {
                "timestamp runs backwards"
            } else if record.prev_digest != prev_digest {
                "does not chain from predecessor"
            } else if record.digest != record.expected_digest() {
                "digest does not match record contents"
            } else {
                prev_digest = record.digest;
                prev_at = record.at;
                continue;
            };
            return Err(ChainFault::new::<E>(index, reason));
        }
        Ok(())
    }

    /// Canonical serialization: magic, record count, then each record.
    /// Two chains holding the same history serialize identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = E::MAGIC.to_vec();
        push_u64(&mut out, self.records.len() as u64);
        for record in &self.records {
            record.encode(&mut out);
        }
        out
    }

    /// Decodes a serialized chain. Decoding checks structure only; run
    /// [`verify_chain`](HashChain::verify_chain) on the result to check
    /// integrity. The record count is bounded by what the remaining
    /// bytes can hold before anything is allocated.
    ///
    /// # Errors
    ///
    /// The log's typed error on any malformed framing.
    pub fn from_bytes(bytes: &[u8]) -> Result<HashChain<E>, SalusError> {
        let mut cur = Cursor::new(bytes, E::error);
        if cur.take(E::MAGIC.len())? != E::MAGIC.as_slice() {
            return Err(E::error("bad log magic"));
        }
        let count = cur.u64()?;
        let count = usize::try_from(count)
            .ok()
            .filter(|&c| c <= (bytes.len() - cur.at) / MIN_RECORD_LEN)
            .ok_or(E::error("implausible record count"))?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(ChainRecord::decode(&mut cur)?);
        }
        if !cur.done() {
            return Err(E::error("trailing log bytes"));
        }
        Ok(HashChain { records })
    }
}

#[cfg(test)]
mod tests {
    //! The chain-level suite, run for both entry types: every test is a
    //! generic function instantiated for the audit log and the journal.

    use super::*;
    use crate::platform::audit::AuditEvent;
    use crate::platform::fleet::TenantId;
    use crate::platform::health::HealthState;
    use crate::platform::journal::{AbortKind, IntentOp, Journal, JournalEntry, OpId};
    use crate::runtime_attest::ChallengeVerdict;
    use salus_net::fault::SplitMix64;

    fn slot(device: usize, partition: usize) -> SlotId {
        SlotId { device, partition }
    }

    /// How the suite draws a seeded stream and a foreign entry of one
    /// entry type.
    trait Fixture: ChainEntry + Clone + PartialEq + std::fmt::Debug {
        /// A valid chain of `n` seeded operations.
        fn seeded(seed: u64, n: usize) -> HashChain<Self>;
        /// An entry no seeded stream holds, for forgeries.
        fn forged() -> Self;
    }

    impl Fixture for AuditEvent {
        fn seeded(seed: u64, n: usize) -> HashChain<AuditEvent> {
            let mut rng = SplitMix64::new(seed);
            let mut log = HashChain::new();
            let mut at = Duration::ZERO;
            for i in 0..n {
                at += Duration::from_millis(rng.below(50));
                let tenant = TenantId(rng.below(4));
                let s = slot(rng.below(3) as usize, rng.below(2) as usize);
                let event = match rng.below(13) {
                    0 => AuditEvent::Deploy {
                        tenant,
                        slot: s,
                        path: [DeployPath::Cold, DeployPath::WarmKey, DeployPath::WarmImage]
                            [rng.below(3) as usize],
                    },
                    1 => AuditEvent::DeployFailed {
                        tenant,
                        slot: s,
                        error: format!("boot error {i}"),
                    },
                    2 => AuditEvent::DeploySuspended {
                        tenant,
                        slot: s,
                        step: format!("step-{}", rng.below(19)),
                    },
                    3 => AuditEvent::Evicted { tenant, slot: s },
                    4 => AuditEvent::HealthTransition {
                        device: s.device,
                        state: [
                            HealthState::Healthy,
                            HealthState::Probation,
                            HealthState::Quarantined,
                        ][rng.below(3) as usize],
                    },
                    5 => AuditEvent::WindowFault { tenant, slot: s },
                    6 => AuditEvent::AttestChallenge {
                        epoch: rng.below(9),
                        tenant,
                        slot: s,
                        token: rng.next_u64(),
                    },
                    7 => AuditEvent::AttestOutcome {
                        epoch: rng.below(9),
                        tenant,
                        slot: s,
                        verdict: [
                            ChallengeVerdict::Alive,
                            ChallengeVerdict::Compromised,
                            ChallengeVerdict::TimedOut,
                        ][rng.below(3) as usize],
                    },
                    8 => AuditEvent::SessionFenced { tenant, slot: s },
                    9 => AuditEvent::LaneFenced {
                        tenant,
                        slot: s,
                        drained: rng.below(5),
                    },
                    10 => AuditEvent::PlacementRefused {
                        tenant,
                        reason: format!("refusal {i}"),
                    },
                    11 => AuditEvent::DeployAbandoned { tenant, slot: s },
                    _ => AuditEvent::RecoveryCompleted {
                        replayed: rng.below(20),
                        rolled_back: rng.below(3),
                    },
                };
                log.append(at, event);
            }
            log
        }

        fn forged() -> AuditEvent {
            AuditEvent::Evicted {
                tenant: TenantId(999),
                slot: slot(0, 0),
            }
        }
    }

    impl Fixture for JournalEntry {
        /// Structurally valid: every op opens with an intent and settles
        /// (or suspends) in op order.
        fn seeded(seed: u64, ops: usize) -> HashChain<JournalEntry> {
            let mut rng = SplitMix64::new(seed);
            let mut journal = Journal::new();
            let mut at = Duration::ZERO;
            for i in 0..ops {
                at += Duration::from_millis(rng.below(40));
                let tenant = TenantId(rng.below(4));
                let s = slot(rng.below(3) as usize, rng.below(2) as usize);
                let action = match rng.below(7) {
                    0 => IntentOp::Register {
                        tenant,
                        name: format!("tenant-{i}"),
                        seed: rng.next_u64(),
                    },
                    1 => IntentOp::Deploy { tenant, slot: s },
                    2 => IntentOp::Resume { tenant, slot: s },
                    3 => IntentOp::Evict { tenant, slot: s },
                    4 => IntentOp::Redeploy { tenant, slot: s },
                    5 => IntentOp::Fence { tenant, slot: s },
                    _ => IntentOp::Abandon { tenant, slot: s },
                };
                let op = journal.begin(at, action);
                match rng.below(4) {
                    0 => journal.abort(at, op, &format!("boot error {i}"), AbortKind::Failed),
                    1 => journal.suspend(at, op, "DeviceKeyTransfer"),
                    2 => journal.commit(at, op, Some(DeployPath::Cold), Duration::from_millis(3)),
                    _ => journal.commit(at, op, None, Duration::ZERO),
                }
            }
            HashChain::from_records(journal.records().to_vec())
        }

        fn forged() -> JournalEntry {
            JournalEntry::Suspend {
                op: OpId(999),
                step: "forged".into(),
            }
        }
    }

    /// Decodes and verifies; true when the bytes pass as a clean chain.
    fn survives<E: Fixture>(bytes: &[u8]) -> bool {
        HashChain::<E>::from_bytes(bytes).is_ok_and(|chain| chain.verify_chain().is_ok())
    }

    /// Instantiates each listed generic check once per entry type.
    macro_rules! for_both_logs {
        ($($name:ident),* $(,)?) => {
            mod audit_log {
                $(#[test] fn $name() { super::$name::<super::AuditEvent>(); })*
            }
            mod journal {
                $(#[test] fn $name() { super::$name::<super::JournalEntry>(); })*
            }
        };
    }

    for_both_logs!(
        empty_chain_verifies_and_anchors_at_genesis,
        appended_chain_verifies_and_head_commits_to_history,
        mutated_entry_is_pinpointed_at_its_record,
        reordered_records_are_pinpointed_at_first_displacement,
        truncation_in_the_middle_is_detected,
        forged_digest_cannot_restitch_a_mutated_record,
        timestamps_must_be_monotone,
        roundtrip_preserves_records_and_verdict,
        every_single_bit_flip_of_a_serialized_log_is_rejected,
        seeded_property_streams_verify_roundtrip_and_reject_random_flips,
        record_count_beyond_what_the_bytes_can_hold_is_rejected,
    );

    fn empty_chain_verifies_and_anchors_at_genesis<E: Fixture>() {
        let chain = HashChain::<E>::new();
        assert!(chain.is_empty());
        assert_eq!(chain.head(), HashChain::<E>::genesis());
        chain.verify_chain().unwrap();
    }

    #[test]
    fn the_two_logs_have_distinct_anchors_and_errors() {
        assert_ne!(
            HashChain::<AuditEvent>::genesis(),
            HashChain::<JournalEntry>::genesis()
        );
        assert_ne!(AuditEvent::MAGIC, JournalEntry::MAGIC);
        assert_ne!(AuditEvent::RECORD_DOMAIN, JournalEntry::RECORD_DOMAIN);
        let bad = SalusError::from(ChainFault::new::<AuditEvent>(3, "x"));
        assert_eq!(bad, SalusError::AuditChainBroken("x"));
        let bad = SalusError::from(ChainFault::new::<JournalEntry>(3, "x"));
        assert_eq!(bad, SalusError::JournalCorrupt("x"));
        // A journal's bytes are not an audit log, and vice versa.
        let journal = JournalEntry::seeded(1, 3).to_bytes();
        assert_eq!(
            HashChain::<AuditEvent>::from_bytes(&journal),
            Err(SalusError::AuditChainBroken("bad log magic"))
        );
    }

    fn appended_chain_verifies_and_head_commits_to_history<E: Fixture>() {
        let chain = E::seeded(11, 40);
        assert!(chain.len() >= 40);
        chain.verify_chain().unwrap();
        assert_eq!(chain.head(), chain.records().last().unwrap().digest);

        // Same entries ⇒ same bytes and same head; one differing entry
        // anywhere ⇒ different head.
        let again = E::seeded(11, 40);
        assert_eq!(chain.to_bytes(), again.to_bytes());
        assert_eq!(chain.head(), again.head());
        assert_ne!(chain.head(), E::seeded(12, 40).head());
    }

    fn mutated_entry_is_pinpointed_at_its_record<E: Fixture>() {
        let mut records = E::seeded(21, 12).records().to_vec();
        records[5].entry = E::forged();
        let fault = HashChain::from_records(records).verify_chain().unwrap_err();
        assert_eq!(fault.index, 5);
        assert_eq!(fault.reason, "digest does not match record contents");

        // A shifted timestamp is a mutation too.
        let mut records = E::seeded(21, 12).records().to_vec();
        records[5].at += Duration::from_secs(1);
        let fault = HashChain::from_records(records).verify_chain().unwrap_err();
        assert_eq!(fault.index, 5);
        assert_eq!(fault.reason, "digest does not match record contents");
    }

    fn reordered_records_are_pinpointed_at_first_displacement<E: Fixture>() {
        let mut records = E::seeded(22, 12).records().to_vec();
        records.swap(3, 4);
        let fault = HashChain::from_records(records).verify_chain().unwrap_err();
        assert_eq!(fault.index, 3, "first displaced record: {fault}");
    }

    fn truncation_in_the_middle_is_detected<E: Fixture>() {
        let chain = E::seeded(23, 12);
        let mut records = chain.records().to_vec();
        records.remove(6);
        let fault = HashChain::from_records(records).verify_chain().unwrap_err();
        assert_eq!(fault.index, 6, "first record after the gap: {fault}");

        // Truncating the *tail* silently is exactly what the exported
        // chain head defends against: the shortened chain still
        // verifies, but its head no longer matches the anchored one.
        let mut tail_cut = chain.records().to_vec();
        tail_cut.truncate(8);
        let shorter = HashChain::from_records(tail_cut);
        shorter.verify_chain().unwrap();
        assert_ne!(shorter.head(), chain.head());
    }

    fn forged_digest_cannot_restitch_a_mutated_record<E: Fixture>() {
        // Re-sealing a mutated record's own digest breaks the *next*
        // record's chain link instead.
        let mut records = E::seeded(24, 12).records().to_vec();
        records[5].entry = E::forged();
        records[5].digest = records[5].expected_digest();
        let fault = HashChain::from_records(records).verify_chain().unwrap_err();
        assert_eq!(fault.index, 6);
        assert_eq!(fault.reason, "does not chain from predecessor");
    }

    fn timestamps_must_be_monotone<E: Fixture>() {
        let seeded = E::seeded(25, 2);
        let mut chain = HashChain::new();
        chain.append(Duration::from_secs(5), seeded.records()[0].entry.clone());
        chain.append(Duration::from_secs(4), seeded.records()[1].entry.clone());
        // Append is trusting; verification is not.
        let fault = chain.verify_chain().unwrap_err();
        assert_eq!(fault.index, 1);
        assert_eq!(fault.reason, "timestamp runs backwards");
    }

    fn roundtrip_preserves_records_and_verdict<E: Fixture>() {
        let chain = E::seeded(31, 25);
        let decoded = HashChain::from_bytes(&chain.to_bytes()).unwrap();
        assert_eq!(decoded, chain);
        decoded.verify_chain().unwrap();
    }

    fn every_single_bit_flip_of_a_serialized_log_is_rejected<E: Fixture>() {
        // Exhaustive over a small chain: flip every bit of the
        // canonical serialization; each flip must fail to decode or fail
        // verify_chain — never verify clean.
        let bytes = E::seeded(41, 3).to_bytes();
        for bit in 0..bytes.len() * 8 {
            let mut tampered = bytes.clone();
            tampered[bit / 8] ^= 1 << (bit % 8);
            assert!(!survives::<E>(&tampered), "bit flip {bit} went undetected");
        }
    }

    fn seeded_property_streams_verify_roundtrip_and_reject_random_flips<E: Fixture>() {
        for seed in 0..20u64 {
            let chain = E::seeded(seed, 25);
            chain
                .verify_chain()
                .unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            let bytes = chain.to_bytes();
            assert_eq!(HashChain::from_bytes(&bytes).unwrap(), chain);

            // One seeded random bit flip per stream.
            let mut rng = SplitMix64::new(seed ^ 0xF1_1B);
            let bit = rng.below((bytes.len() * 8) as u64) as usize;
            let mut tampered = bytes.clone();
            tampered[bit / 8] ^= 1 << (bit % 8);
            assert!(
                !survives::<E>(&tampered),
                "seed {seed}: bit flip {bit} went undetected"
            );
        }
    }

    fn record_count_beyond_what_the_bytes_can_hold_is_rejected<E: Fixture>() {
        // The header's count is checked against the smallest encoded
        // record before anything is reserved, so a hostile count cannot
        // make the decoder allocate beyond the input's size.
        let bytes = E::seeded(51, 4).to_bytes();
        let bound = (bytes.len() - 24) / MIN_RECORD_LEN;
        let implausible = E::error("implausible record count");
        for count in [bound as u64 + 1, u64::MAX] {
            let mut forged = bytes.clone();
            forged[16..24].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                HashChain::<E>::from_bytes(&forged),
                Err(implausible.clone())
            );
        }
        // A count within the bound is decoded (and fails on framing).
        let mut forged = bytes.clone();
        forged[16..24].copy_from_slice(&(bound as u64).to_le_bytes());
        assert_ne!(HashChain::<E>::from_bytes(&forged), Err(implausible));

        // A 1 MiB input of one header and zeros claims at most what
        // fits: one record over is refused outright.
        let mut hostile = E::MAGIC.to_vec();
        push_u64(
            &mut hostile,
            ((1 << 20) - 24) as u64 / MIN_RECORD_LEN as u64 + 1,
        );
        hostile.resize(1 << 20, 0);
        assert_eq!(
            HashChain::<E>::from_bytes(&hostile),
            Err(E::error("implausible record count"))
        );
    }
}
